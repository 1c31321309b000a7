from functools import lru_cache
from operator import add

import pytest

from overpart.core import (
    BEK, BOK, CE, CO, PBAR, PE, PEX, POEX, SPTK, SPTKO, FamilySpec,
    parse_family_token,
)
from overpart.enumeration import count_profile, profile_tokens
from overpart.qseries import (
    Series, cross_check, family_series, part_factor, series_for_token,
)
import overpart.qseries as qseries


class TestSeriesArithmetic:
    def test_product_difference_of_squares(self):
        one_plus = Series.from_list([1, 1], 2)
        one_minus = Series.from_list([1, -1], 2)
        assert (one_plus * one_minus).coeffs == (1, 0, -1)

    def test_multiplicative_identity(self):
        a = Series.from_list([3, 1, 4, 1, 5], 4)
        assert a * Series.one(4) == a

    def test_geometric_square(self):
        geo = Series.from_list([1] * 7, 6)
        assert (geo * geo).coeffs == tuple(i + 1 for i in range(7))

    def test_add_sub(self):
        a = Series.from_list([1, 2], 3)
        b = Series.from_list([0, 1, 1], 3)
        assert (a + b).coeffs == (1, 3, 1, 0)
        assert (a - b).coeffs == (1, 1, -1, 0)

    def test_order_mismatch(self):
        with pytest.raises(ValueError):
            Series.one(3) + Series.one(4)
        with pytest.raises(ValueError):
            Series.one(3) * Series.one(4)

    def test_coefficient_bounds(self):
        s = Series.one(3)
        assert s.coefficient(0) == 1
        with pytest.raises(ValueError):
            s.coefficient(4)

    def test_invalid_construction(self):
        with pytest.raises(ValueError):
            Series(0, (1,))
        with pytest.raises(ValueError):
            Series(2, (1, 2))


class TestPartFactor:
    def test_j1_positive(self):
        assert part_factor(1, 1, 3).coeffs == (1, 2, 2, 2)

    def test_j2_negative(self):
        assert part_factor(2, -1, 4).coeffs == (1, 0, -2, 0, 2)

    def test_full_product_counts_overpartitions(self):
        # product over all part values = the unrestricted family
        prod = Series.one(8)
        for j in range(1, 9):
            prod = prod * part_factor(j, 1, 8)
        assert prod.coefficient(4) == 14
        assert prod == family_series(FamilySpec(PBAR), 8)

    @pytest.mark.parametrize("n", range(1, 13))
    def test_closed_form(self, n):
        for j in range(1, n + 3):
            for z in (1, -1):
                want = [1] + [0] * n
                for m, e in enumerate(range(j, n + 1, j), start=1):
                    want[e] = 2 * z ** m
                assert part_factor(j, z, n).coeffs == tuple(want)

    def test_bad_args(self):
        with pytest.raises(ValueError):
            part_factor(0, 1, 4)
        with pytest.raises(ValueError):
            part_factor(2, 3, 4)


class TestFamilySeries:
    def test_reference_coefficients(self):
        assert family_series(FamilySpec(SPTK, 1), 10).coefficient(6) == 9
        assert family_series(FamilySpec(POEX), 10, z=-1).coefficient(8) == 6
        assert family_series(FamilySpec(PE), 10).coefficient(8) == 14
        assert family_series(FamilySpec(PBAR), 10).coefficient(4) == 14

    def test_signed_requires_signed_family(self):
        for fid in (PBAR, PE, PEX, CE, CO):
            with pytest.raises(ValueError):
                family_series(FamilySpec(fid), 8, z=-1)
        with pytest.raises(ValueError):
            family_series(FamilySpec(SPTK, 1), 8, z=-1)

    def test_z_validation(self):
        with pytest.raises(ValueError):
            family_series(FamilySpec(PBAR), 8, z=2)

    def test_truncation_consistency(self):
        for fam in (FamilySpec(PBAR), FamilySpec(SPTKO, 2), FamilySpec(CE),
                    FamilySpec(PEX), FamilySpec(BEK, 1)):
            short = family_series(fam, 12)
            long = family_series(fam, 24)
            assert short.coeffs == long.coeffs[:13]

    def test_signed_decomposition(self):
        for k in (1, 2):
            plus = family_series(FamilySpec(SPTKO, k), 15)
            minus = family_series(FamilySpec(SPTKO, k), 15, z=-1)
            be = family_series(FamilySpec(BEK, k), 15)
            for n in range(16):
                tot = plus.coefficient(n) + minus.coefficient(n)
                assert tot % 2 == 0
                assert tot // 2 == be.coefficient(n)
        plus = family_series(FamilySpec(POEX), 15)
        minus = family_series(FamilySpec(POEX), 15, z=-1)
        ce = family_series(FamilySpec(CE), 15)
        for n in range(16):
            tot = plus.coefficient(n) + minus.coefficient(n)
            assert tot % 2 == 0
            assert tot // 2 == ce.coefficient(n)

    def test_sptko_k2_matches_enumeration(self):
        ser = family_series(FamilySpec(SPTKO, 2), 25)
        for n in range(26):
            assert ser.coefficient(n) == count_profile(n, 2)["spt2o"]

    def test_token_series(self):
        assert series_for_token("poex-prime", 10).coefficient(8) == 6
        assert series_for_token("spt1", 10).coefficient(6) == 9


class TestCrossCheck:
    def test_small_agreement(self):
        assert cross_check(12, 2, 14) == []

    def test_default_order(self):
        assert cross_check(8, 1) == []

    def test_order_too_small(self):
        with pytest.raises(ValueError):
            cross_check(10, 1, 5)

    def test_corrupted_factor_detected(self, monkeypatch):
        real = qseries._times_part_factor

        def corrupted(coeffs, j, z):
            before = coeffs[:]
            real(coeffs, j, z)
            if j == 2:
                # multiply by the j = 2 factor with its q^2 coefficient
                # off by one: the extra term adds q^2 times the input
                coeffs[2:] = map(add, coeffs[2:], before[:-2])

        monkeypatch.setattr(qseries, "_times_part_factor", corrupted)
        # rebuild the memoized suffix products through the corrupted factor
        qseries._suffix_products.cache_clear()
        try:
            mismatches = cross_check(13, 1, 13)
        finally:
            qseries._suffix_products.cache_clear()
        assert mismatches


# Dense reference: every family assembled from part_factor products
# through Series.__mul__, the way the definitions read.

@lru_cache(maxsize=None)
def _dense_suffix(order, z, parity):
    prods = [Series.one(order)] * (order + 1)
    acc = Series.one(order)
    for s in range(order - 1, -1, -1):
        j = s + 1
        if parity == "all" or j % 2 == (parity == "odd"):
            acc = acc * part_factor(j, z, order)
        prods[s] = acc
    return prods


def _monomial(e, order):
    return Series.from_list([0] * e + [1], order)


def _dense_series(fam, order, z):
    if fam.id == PBAR:
        return _dense_suffix(order, z, "all")[0]
    if fam.id == PE:
        return _dense_suffix(order, z, "even")[0]
    if fam.id in (PEX, POEX):
        above_one = _dense_suffix(order, z, "all" if fam.id == PEX else "odd")[1]
        return Series.from_list([1, z], order) * above_one
    if fam.id in (SPTK, SPTKO):
        out = Series.from_list([], order)
        for s in range(1, order // fam.k + 1):
            if fam.id == SPTK:
                above = _dense_suffix(order, z, "all")[s]
            else:
                above = _dense_suffix(order, z, "odd" if s % 2 == 0 else "even")[s]
            out = out + _monomial(fam.k * s, order) * above
        return out
    base = FamilySpec(SPTKO, fam.k) if fam.id in (BEK, BOK) else FamilySpec(POEX)
    plus, minus = _dense_series(base, order, 1), _dense_series(base, order, -1)
    total = plus + minus if fam.id in (BEK, CE) else plus - minus
    return Series(order, tuple(c // 2 for c in total.coeffs))


class TestInPlaceEngine:
    @pytest.mark.parametrize("n", range(1, 13))
    def test_primitive_matches_dense_product(self, n):
        coeffs = [(7 * i * i - 3 * i + 2) % 11 - 5 for i in range(n + 1)]
        for j in range(1, n + 1):
            for z in (1, -1):
                got = list(coeffs)
                qseries._times_part_factor(got, j, z)
                want = Series(n, tuple(coeffs)) * part_factor(j, z, n)
                assert tuple(got) == want.coeffs

    @pytest.mark.parametrize("order", [*range(1, 41), 200])
    def test_family_series_matches_dense_reference(self, order):
        for token in profile_tokens(4):
            fam, signed = parse_family_token(token)
            z = -1 if signed else 1
            assert family_series(fam, order, z) == _dense_series(fam, order, z), token

    def test_no_dense_product_in_family_series(self, monkeypatch):
        def refuse(self, other):
            raise AssertionError("family_series used a dense product")

        monkeypatch.setattr(Series, "__mul__", refuse)
        qseries._suffix_products.cache_clear()  # rebuild every table
        try:
            for token in profile_tokens(2):
                series_for_token(token, 17)
        finally:
            qseries._suffix_products.cache_clear()
