import ast
import tracemalloc
from functools import lru_cache
from operator import add, sub

import pytest

from overpart.core import (
    BEK, BOK, CE, CO, PBAR, PE, PEX, POEX, SPTK, SPTKO, FamilySpec,
    parse_family_token,
)
from overpart.enumeration import count_profile, profile_tokens
from overpart.qseries import (
    Series, cross_check, family_series, series_for_token,
)
import overpart.qseries as qseries


# Dense reference: each factor (1 + z*q^j)/(1 - z*q^j) from its closed
# form, and products formed term by term, independently of the engine.

def _factor(j, z, order):
    """1 + 2*sum_{m>=1} z^m q^(jm), truncated at q^order."""
    out = [1] + [0] * order
    for m, e in enumerate(range(j, order + 1, j), start=1):
        out[e] = 2 * z ** m
    return out


def _mul(a, b):
    """Product of two coefficient lists, truncated at the length of ``a``."""
    out = [0] * len(a)
    terms = [(j, bj) for j, bj in enumerate(b) if bj]
    for i, ai in enumerate(a):
        for j, bj in terms:
            if i + j < len(out):
                out[i + j] += ai * bj
    return out


def _unit(order):
    return [1] + [0] * order


class TestSeriesArithmetic:
    # Series only validates and reads its coefficients; the dense
    # product the engine is checked against is checked here first

    def test_product_difference_of_squares(self):
        assert _mul([1, 1, 0], [1, -1, 0]) == [1, 0, -1]

    def test_multiplicative_identity(self):
        a = [3, 1, 4, 1, 5]
        assert _mul(a, _unit(4)) == a == _mul(_unit(4), a)

    def test_geometric_square(self):
        geo = [1] * 7
        assert _mul(geo, geo) == [i + 1 for i in range(7)]

    def test_coefficient_bounds(self):
        s = Series(3, (1, 0, 0, 0))
        assert s.coefficient(0) == 1
        with pytest.raises(ValueError):
            s.coefficient(4)

    def test_invalid_construction(self):
        for order, coeffs in ((0, (1,)), (-1, ()), (0, (1, 2))):
            with pytest.raises(ValueError) as exc:
                Series(order, coeffs)
            assert str(exc.value) == "order must be >= 1"
        for order, coeffs in ((2, (1, 2)), (1, (1, 2, 3)), (1, ())):
            with pytest.raises(ValueError) as exc:
                Series(order=order, coeffs=coeffs)
            assert str(exc.value) == "need exactly order+1 coefficients"

    def test_repr(self):
        assert repr(Series(2, (1, 0, -3))) == "Series(order=2, coeffs=(1, 0, -3))"

    def test_equality_and_hash(self):
        # a named tuple: equal to and hashed as the plain tuple (order, coeffs)
        s = Series(2, (1, 2, 3))
        assert s == Series(order=2, coeffs=(1, 2, 3)) == (2, (1, 2, 3))
        assert s != Series(2, (1, 2, 4)) and s != Series(3, (1, 2, 3, 0))
        assert hash(s) == hash(Series(2, (1, 2, 3))) == hash((2, (1, 2, 3)))
        assert family_series(FamilySpec(PE), 30) == family_series(FamilySpec(PE), 30)

    def test_fields_cannot_be_assigned(self):
        s = Series(1, (1, 2))
        with pytest.raises(AttributeError):
            s.order = 2
        with pytest.raises(AttributeError):
            s.coeffs = (1, 2, 3)
        with pytest.raises(AttributeError):  # no instance dict either
            s.extra = 1
        assert s.coefficient(1) == 2


def _engine_factor(j, z, order):
    # the engine's in-place update applied to the series 1
    coeffs = _unit(order)
    qseries._times_part_factor(coeffs, j, z)
    return coeffs


class TestPartFactor:
    def test_j1_positive(self):
        assert _engine_factor(1, 1, 3) == [1, 2, 2, 2]

    def test_j2_negative(self):
        assert _engine_factor(2, -1, 4) == [1, 0, -2, 0, 2]

    def test_full_product_counts_overpartitions(self):
        # product over all part values = the unrestricted family
        prod = _unit(8)
        for j in range(1, 9):
            qseries._times_part_factor(prod, j, 1)
        assert prod[4] == 14
        assert tuple(prod) == family_series(FamilySpec(PBAR), 8).coeffs

    @pytest.mark.parametrize("n", range(1, 13))
    def test_closed_form(self, n):
        for j in range(1, n + 3):
            for z in (1, -1):
                assert _engine_factor(j, z, n) == _factor(j, z, n)


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

    def test_odd_signed_total_raises(self):
        with pytest.raises(ArithmeticError, match=r"^signed decomposition produced an odd total$"):
            qseries._halved(Series(1, (1, 0)), Series(1, (0, 0)), True)

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
        # one theta term and one chain step, each corrupted in turn; the
        # memoized passes are rerun through each
        real_isqrt, real_divide = qseries.isqrt, qseries._divide

        def short_isqrt(x):
            # phi(-q) loses its last term: the sum over m stops one short
            return max(real_isqrt(x) - 1, 0)

        def slipped(coeffs, j, z):
            # the k = 1 step of the unsplit chain divides by 1 - q, not 1 + q
            real_divide(coeffs, j, -z if j == 1 else z)

        for name, corrupted in (("isqrt", short_isqrt), ("_divide", slipped)):
            with monkeypatch.context() as patch:
                patch.setattr(qseries, name, corrupted)
                qseries._backward_pass.cache_clear()
                try:
                    mismatches = cross_check(13, 1, 13)
                finally:
                    qseries._backward_pass.cache_clear()
            assert mismatches, name

    def test_series_module_imports_no_enumeration(self):
        # the oracles stay independent: enumeration is imported only inside
        # cross_check, never where series code could reach it
        def imported(node):
            if isinstance(node, ast.ImportFrom):
                return [node.module or ""] + [a.name for a in node.names]
            return [a.name for a in node.names] if isinstance(node, ast.Import) else []

        def module_level(nodes):
            for node in nodes:
                if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                    yield node
                    yield from module_level(ast.iter_child_nodes(node))

        with open(qseries.__file__, encoding="utf-8") as fh:
            tree = ast.parse(fh.read())
        top = [name for node in module_level(tree.body) for name in imported(node)]
        assert "core" in top
        assert not [name for name in top if "enumeration" in name]
        (check,) = [f for f in tree.body
                    if isinstance(f, ast.FunctionDef) and f.name == "cross_check"]
        assert any("enumeration" in name for node in ast.walk(check)
                   for name in imported(node))


@lru_cache(maxsize=None)
def _dense_suffix(order, z, parity):
    prods = [_unit(order)] * (order + 1)
    acc = _unit(order)
    for s in range(order - 1, -1, -1):
        j = s + 1
        if parity == "all" or j % 2 == (parity == "odd"):
            acc = _mul(acc, _factor(j, z, order))
        prods[s] = acc
    return prods


def _monomial(e, order):
    return [0] * e + [1] + [0] * (order - e)


def _dense_series(fam, order, z):
    if fam.id == PBAR:
        return _dense_suffix(order, z, "all")[0]
    if fam.id == PE:
        return _dense_suffix(order, z, "even")[0]
    if fam.id in (PEX, POEX):
        above_one = _dense_suffix(order, z, "all" if fam.id == PEX else "odd")[1]
        return _mul(above_one, [1, z])
    if fam.id in (SPTK, SPTKO):
        out = [0] * (order + 1)
        for s in range(1, order // fam.k + 1):
            if fam.id == SPTK:
                above = _dense_suffix(order, z, "all")[s]
            else:
                above = _dense_suffix(order, z, "odd" if s % 2 == 0 else "even")[s]
            out = list(map(add, out, _mul(above, _monomial(fam.k * s, order))))
        return out
    base = FamilySpec(SPTKO, fam.k) if fam.id in (BEK, BOK) else FamilySpec(POEX)
    plus, minus = _dense_series(base, order, 1), _dense_series(base, order, -1)
    total = map(add if fam.id in (BEK, CE) else sub, plus, minus)
    return [c // 2 for c in total]


class TestInPlaceEngine:
    # n up to 40, so that both the residue-class divide (j*j <= n) and the
    # block divide run for both signs of z
    @pytest.mark.parametrize("n", range(1, 41))
    def test_primitive_matches_dense_product(self, n):
        coeffs = [(7 * i * i - 3 * i + 2) % 11 - 5 for i in range(n + 1)]
        for j in range(1, n + 1):
            for z in (1, -1):
                got = list(coeffs)
                qseries._times_part_factor(got, j, z)
                assert got == _mul(coeffs, _factor(j, z, n))

    @pytest.mark.parametrize("n", range(1, 41))
    def test_theta_matches_dense_product(self, n):
        # phi(-q^step)**-z is the product of the factors of every multiple
        # of step, and times phi(-q^step) then over it gives the input back
        coeffs = [(7 * i * i - 3 * i + 2) % 11 - 5 for i in range(n + 1)]
        for step in (1, 2):
            for z in (1, -1):
                dense = _unit(n)
                for j in range(step, n + 1, step):
                    dense = _mul(dense, _factor(j, z, n))
                assert qseries._theta(_unit(n), step, -z) == dense, (step, z)
                assert qseries._theta(qseries._theta(list(coeffs), step, z), step, -z) == coeffs

    @pytest.mark.parametrize("order", [*range(1, 41), 200])
    def test_family_series_matches_dense_reference(self, order):
        # k = 5 and 6 ask a pass for a column above K_COLUMNS, summed
        # forward, as do k = order // 2 and order; k = order + 1 is all 0
        tokens = profile_tokens(6)
        for k in {order // 2, order, order + 1} - {0}:
            tokens += profile_tokens(k)[-5:]
        for token in tokens:
            fam, signed = parse_family_token(token)
            z = -1 if signed else 1
            assert list(family_series(fam, order, z).coeffs) == _dense_series(fam, order, z), token


class TestOnePass:
    @pytest.mark.parametrize("order", [1, 2, 9, 60])
    def test_one_pass_serves_every_column(self, order, monkeypatch):
        # one pass per (order, z, parity) serves every k <= K_COLUMNS column
        # and the P_0 and odd-product series, and none of them takes out a
        # part factor; the halved families read the two signed passes
        monkeypatch.setattr(qseries, "_times_part_factor",
                            lambda coeffs, j, z: pytest.fail(f"factor of {j} taken out"))
        qseries._backward_pass.cache_clear()
        try:
            ks = range(1, qseries.K_COLUMNS + 1)
            for tokens in (["pbar", "pex", *(f"spt{k}" for k in ks)],
                           ["pe", "poex", *(f"spt{k}o" for k in ks)],
                           ["poex-prime", "ce", "co", *(f"{stem}{k}{suffix}" for k in ks
                            for stem, suffix in (("spt", "o-prime"), ("be", ""), ("bo", "")))]):
                before = qseries._backward_pass.cache_info().misses
                for token in tokens * 2:
                    series_for_token(token, order)
                assert qseries._backward_pass.cache_info().misses - before == 1, tokens
        finally:
            qseries._backward_pass.cache_clear()

    def test_spt1_needs_order_memory(self):
        # the pass keeps a few running lists, not a table of every suffix
        # product: 0.2 MiB traced peak at order 600, where the table held
        # 4.8 MiB and grew as order^2
        qseries._backward_pass.cache_clear()
        tracemalloc.start()
        try:
            family_series(FamilySpec(SPTK, 1), 600)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2**20, f"{peak / 2**20:.2f} MiB"


class TestZeroBand:
    # a suffix product over part values above s is 1 plus terms above q^s;
    # the primitive must be exact on that shape and on any other

    @staticmethod
    def _suffix_shape(j, n):
        return [1] + [0] * j + [(-1) ** i * (10 ** 30 + 7 ** i) for i in range(j + 1, n + 1)]

    @pytest.mark.parametrize("n", range(1, 13))
    def test_suffix_shape_matches_dense_product(self, n):
        for j in range(1, n + 1):
            for z in (1, -1):
                coeffs = self._suffix_shape(j, n)
                got = list(coeffs)
                qseries._times_part_factor(got, j, z)
                assert got == _mul(coeffs, _factor(j, z, n)), (j, z)

    @pytest.mark.parametrize("n", range(1, 13))
    def test_nonzero_band_matches_dense_product(self, n):
        # one nonzero coefficient anywhere in q^1 .. q^j takes the full path
        for j in range(1, n + 1):
            for p in range(1, j + 1):
                for z in (1, -1):
                    coeffs = self._suffix_shape(j, n)
                    coeffs[p] = -3 * 10 ** 25 - p
                    got = list(coeffs)
                    qseries._times_part_factor(got, j, z)
                    assert got == _mul(coeffs, _factor(j, z, n)), (j, p, z)

    @pytest.mark.parametrize("order", [1, 2, 3, 7, 30])
    def test_suffix_entries_are_one_then_zero_to_q_s(self, order, monkeypatch):
        # the forward sum of a column above K_COLUMNS hands the primitive, once
        # per s <= order // k, the product over the values >= s (of s's parity
        # when split) cut to the order - k*s + 1 coefficients its term reads:
        # 1, then 0 up to q^(s-1).  For k > order it hands nothing
        real = qseries._times_part_factor
        k = qseries.K_COLUMNS + 1
        for z in (1, -1):
            for split in (False, True):
                handed = []

                def recording(coeffs, j, sign):
                    handed.append(j)
                    parity = ("odd" if j % 2 else "even") if split else "all"
                    assert sign == -z
                    assert coeffs == _dense_suffix(order, z, parity)[j - 1][:order - k * j + 1]
                    assert coeffs[:j] == ([1] + [0] * (j - 1))[:len(coeffs)], (z, split, j)
                    real(coeffs, j, sign)

                monkeypatch.setattr(qseries, "_times_part_factor", recording)
                qseries._backward_pass.__wrapped__(order, z, split, k)
                assert handed == list(range(1, order // k + 1))
