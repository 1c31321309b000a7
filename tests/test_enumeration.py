import gc
import inspect
import sys
import threading
from collections import Counter, defaultdict

import pytest

import overpart.enumeration as enumeration
from overpart.core import (
    BEK, BOK, CE, CO, FAMILY_IDS, PBAR, PE, PEX, POEX, SIGNED_REFINEMENTS, SPTK,
    SPTKO, FamilySpec, OverPartition, _STEP, _signature_of, is_member, member, parse,
    parse_family_token, signature,
)
from overpart.enumeration import (
    IDENTITIES, IDENTITY_START, count_many, count_profile, derivation_sides,
    family_elements, identity_sides, overpartitions, profile_tokens,
)
from overpart.qseries import family_series
from test_core import readme_signature

# pbar(n) for n = 0..18 (OEIS A015128)
PBAR_0_18 = [1, 2, 4, 8, 14, 24, 40, 64, 100, 154, 232, 344, 504, 728, 1040,
             1472, 2062, 2864, 3948]
PBAR_0_14 = PBAR_0_18[:15]

# the ten families, each parametric one at k = 1, 2 and 3
FAMILIES = [FamilySpec(fid, k) for fid in FAMILY_IDS
            for k in ((1, 2, 3) if fid in (SPTK, SPTKO, BEK, BOK) else (1,))]

_POEX_PRIME = (FamilySpec(POEX), True)
_SPT1O_PRIME = (FamilySpec(SPTKO, 1), True)

# the 14 overpartitions of 4 in the frozen enumeration order
ORDER_N4 = [
    "4", "4o", "3,1", "3o,1", "3,1o", "3o,1o", "2,2", "2o,2",
    "2,1,1", "2o,1,1", "2,1o,1", "2o,1o,1", "1,1,1,1", "1o,1,1,1",
]


class TestEnumeration:
    def test_n4_order(self):
        assert [str(pi) for pi in overpartitions(4)] == ORDER_N4

    def test_n0(self):
        assert [str(pi) for pi in overpartitions(0)] == ["[]"]

    def test_n1(self):
        assert [str(pi) for pi in overpartitions(1)] == ["1", "1o"]

    def test_counts_small(self):
        # hand-checked totals for n = 0..4
        assert [sum(1 for _ in overpartitions(n)) for n in range(5)] == [1, 2, 4, 8, 14]

    def test_no_duplicates(self):
        for n in range(10):
            seen = list(overpartitions(n))
            assert len(seen) == len(set(seen))
            assert all(pi.weight == n for pi in seen)

    def test_trusted_objects_match_validated_rebuild(self):
        # enumeration skips revalidation; its objects must be canonical
        for n in range(15):
            for pi in overpartitions(n):
                assert type(pi) is OverPartition
                assert pi == OverPartition(list(pi)), str(pi)
                assert all(type(e) is tuple and len(e) == 3
                           and all(type(x) is int for x in e) for e in pi)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            overpartitions(-1)

    @pytest.mark.parametrize("call", [
        lambda: count_many(-1, [(FamilySpec(PBAR), False)]),
        lambda: count_profile(-1),
        lambda: family_elements(FamilySpec(PBAR), -1),
    ])
    def test_negative_weight_rejected_by_the_counting_path(self, call):
        with pytest.raises(ValueError, match="n must be nonnegative"):
            call()

    @pytest.mark.parametrize("n", range(19))
    def test_walk_yields_the_signatures_of_the_runs(self, n):
        # element by element, in enumeration order: one walk yields each
        # overpartition's runs beside the signature it carried down to them
        walked = list(enumeration._runs(n, n))
        sigs = [sig for _, sig in walked]
        assert sigs == [signature(runs) for runs, _ in walked]
        assert [runs for runs, _ in walked] == list(overpartitions(n))
        assert len(walked) == PBAR_0_18[n]


class TestFamilyStreams:
    def test_spt1_at_6(self):
        got = {str(pi) for pi in family_elements(FamilySpec(SPTK, 1), 6)}
        assert got == {"6", "4,2", "4o,2", "5,1", "5o,1",
                       "3,2,1", "3o,2,1", "3,2o,1", "3o,2o,1"}

    def test_poex_at_6(self):
        got = {str(pi) for pi in family_elements(FamilySpec(POEX), 6)}
        assert got == {"3,3", "3o,3", "5,1o", "5o,1o"}

    def test_spt1_at_0_empty(self):
        assert family_elements(FamilySpec(SPTK, 1), 0) == ()

    def test_stream_matches_filter_order(self):
        fam = FamilySpec(PEX)
        for n in (5, 8):
            filtered = [pi for pi in overpartitions(n) if is_member(pi, fam)]
            assert family_elements(fam, n) == tuple(filtered)


class TestCounts:
    @pytest.mark.parametrize("fid,k,n,expect", [
        (SPTK, 1, 6, 9), (PEX, None, 6, 16),
        (SPTKO, 1, 7, 13), (PE, None, 6, 8), (POEX, None, 6, 4),
        (PE, None, 8, 14), (BEK, 1, 9, 9), (BEK, 1, 7, 5),
        (CE, None, 8, 6), (CO, None, 8, 0),
        (PBAR, None, 4, 14),
    ])
    def test_reference_counts(self, fid, k, n, expect):
        fam = FamilySpec(fid, k) if k else FamilySpec(fid)
        assert count_many(n, [(fam, False)]) == [expect]
        assert len(family_elements(fam, n)) == expect

    def test_hand_checked_tables(self):
        # rows verified by direct listing
        spt1 = [count_profile(n)["spt1"] for n in range(7)]
        assert spt1 == [0, 1, 1, 3, 3, 7, 9]
        pex = [count_profile(n)["pex"] for n in range(7)]
        assert pex == [1, 1, 2, 4, 6, 10, 16]
        poex = [count_profile(n)["poex"] for n in range(9)]
        assert poex == [1, 1, 0, 2, 2, 2, 4, 4, 6]
        pe = [count_profile(n)["pe"] for n in range(9)]
        assert pe == [1, 0, 2, 0, 4, 0, 8, 0, 14]

    def test_weight_zero_conventions(self):
        prof = count_profile(0, 2)
        assert prof["pbar"] == prof["pe"] == prof["pex"] == prof["poex"] == 1
        assert prof["ce"] == 1 and prof["co"] == 0
        for tok in ("spt1", "spt2", "spt1o", "be1", "bo1"):
            assert prof[tok] == 0

    def test_refinements_sum(self):
        for n in range(16):
            prof = count_profile(n, 2)
            assert prof["be1"] + prof["bo1"] == prof["spt1o"]
            assert prof["be2"] + prof["bo2"] == prof["spt2o"]
            assert prof["ce"] + prof["co"] == prof["poex"]

    def test_profile_agrees_with_family_elements(self):
        for n in (0, 3, 7, 11):
            prof = count_profile(n, 3)
            for fam in (FamilySpec(PBAR), FamilySpec(PE), FamilySpec(CE),
                        FamilySpec(SPTK, 2), FamilySpec(BOK, 3)):
                assert prof[fam.token] == len(family_elements(fam, n))

    def test_count_many_single_pass(self):
        cols = [(FamilySpec(SPTK, 1), False), (FamilySpec(PEX), False),
                (FamilySpec(SPTKO, 1), True), (FamilySpec(POEX), True)]
        got = count_many(8, cols)
        prof = count_profile(8, 1)
        assert got == [prof["spt1"], prof["pex"],
                       prof["spt1o-prime"], prof["poex-prime"]]

    @pytest.mark.parametrize("n", range(15))
    def test_token_counts_read_the_annotated_cache(self, monkeypatch, n):
        # every column counted from the family listings, each a walk whose
        # elements carry their signatures, against the run-state memo with
        # the walk and the listing disabled: the counts agree with the
        # listings and enumerate nothing
        tokens = profile_tokens(max(n, 1))
        listed = {}
        for tok in tokens:
            fam, signed = parse_family_token(tok)
            halves = SIGNED_REFINEMENTS[fam.id] if signed else (fam.id,)
            listed[tok] = sum(sign * len(family_elements(FamilySpec(half, fam.k), n))
                              for half, sign in zip(halves, (1, -1)))
        enumeration._token_counts.cache_clear()

        def no_walk(*args):
            raise AssertionError("walked the runs")

        monkeypatch.setattr(enumeration, "_runs", no_walk)
        monkeypatch.setattr(enumeration, "overpartitions", no_walk)
        assert count_profile(n, max(n, 1)) == listed


class TestRunStateMemo:
    @pytest.mark.parametrize("n", range(31))
    def test_multiplicities_equal_the_walk(self, n):
        walked = Counter(sig for _, sig in enumeration._runs(n, n))
        assert enumeration._signature_counts(n) == walked

    def test_profile_at_100_equals_the_series(self):
        # two independent oracles past the enumeration range: the memo
        # counts every column, family_series gives its q^100 coefficient
        # (at z = -1 for the -prime columns)
        prof = count_profile(100, 2)
        assert prof["pbar"] > 10 ** 10
        for tok, value in prof.items():
            fam, signed = parse_family_token(tok)
            assert value == family_series(fam, 100, -1 if signed else 1).coefficient(100), tok

    def test_state_vectors_equal_brute_force(self):
        # the memo's entry at (m, s) sums the state vectors at m, m - 2s,
        # m - 4s, ... (at s = 0 only m), so the vector at m alone is the
        # entry less the one at m - 2s, read at s' = min(s, m - 2s) as a
        # row holds s' <= its weight; each equals a count over the
        # overpartitions of m whose parts all exceed s, by the state of
        # their runs at index 6*odd + 2*even + parity
        enumeration._fill(16)
        listed = {m: list(overpartitions(m)) for m in range(17)}

        def brute(m, s):
            vector = [0] * 18
            for pi in listed[m]:
                if not pi or pi[-1][0] > s:
                    odd = sum(v & 1 for v, _, _ in pi)
                    vector[6 * min(odd, 2) + 2 * min(len(pi) - odd, 2) + pi.num_parts % 2] += 1
            return vector

        for m in range(17):
            for s in range(m + 1):
                entry, below = enumeration._ABOVE[m][s], m - 2 * s
                if s and below >= 0:
                    entry = [a - b for a, b in zip(entry, enumeration._ABOVE[below][min(s, below)])]
                assert entry == brute(m, s), (m, s)
                # a value above the weight reads as the weight itself
                assert enumeration._sums(m, m + 1 + s) == brute(m, m + 1 + s), (m, s)
        assert enumeration._sums(-1, 3) == [0] * 18

    def test_step_table_folds_to_the_state_index(self):
        # folding _STEP over the runs of every overpartition of weight <= 14
        # (the empty one included) gives the index that
        # test_state_vectors_equal_brute_force writes inline, and
        # _signature_of reads the README's signature from it and the last run
        for pi in (pi for m in range(15) for pi in overpartitions(m)):
            state = 0
            for v, p, o in pi:
                state = _STEP[v & 1][(p + o) & 1][state]
            odd = sum(v & 1 for v, _, _ in pi)
            assert state == 6 * min(odd, 2) + 2 * min(len(pi) - odd, 2) + pi.num_parts % 2, str(pi)
            v, p, o = pi[-1] if pi else (0, 0, 1)
            assert _signature_of(state, (v & 1, v == 1, p, o)) == readme_signature(pi), str(pi)

    def test_profile_to_150_equals_the_series(self):
        # the same two oracles at every weight up to 150, far past the
        # command-line cap: one series per column at order 150
        tokens = profile_tokens(2)
        series = {}
        for tok in tokens:
            fam, signed = parse_family_token(tok)
            series[tok] = family_series(fam, 150, -1 if signed else 1).coeffs
        for n in range(151):
            prof = count_profile(n, 2)
            assert prof == {tok: series[tok][n] for tok in tokens}, n

    def test_memo_fills_without_recursion(self, monkeypatch):
        # cold, from a stack with 40 frames left under the default limit:
        # a recursive fill to n = 120 would need about 120
        monkeypatch.setattr(enumeration, "_ABOVE", [])
        enumeration._token_counts.cache_clear()
        expected = family_series(FamilySpec(PBAR), 120).coefficient(120)

        def deep(frames):
            return deep(frames - 1) if frames else count_profile(120)["pbar"]

        depth = len(inspect.stack(0))
        try:
            assert deep(sys.getrecursionlimit() - depth - 40) == expected
        finally:
            enumeration._token_counts.cache_clear()

    def test_memo_fills_once_across_threads(self, monkeypatch):
        # four threads count pbar(30) from an empty memo at once, with the
        # interpreter switching threads as often as it can: each gets
        # pbar(30) and the memo ends as a serial count leaves it, with one
        # row per m = 0 .. 29
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(5):
                monkeypatch.setattr(enumeration, "_ABOVE", [])
                enumeration._token_counts.cache_clear()
                start, got = threading.Barrier(4, timeout=60), []

                def count():
                    start.wait()
                    try:
                        got.append(count_many(30, [(FamilySpec(PBAR), False)])[0])
                    except Exception as exc:  # a torn memo may raise IndexError
                        got.append(exc)

                threads = [threading.Thread(target=count) for _ in range(4)]
                for t in threads:
                    t.start()
                for t in threads:
                    t.join(timeout=60)
                assert not any(t.is_alive() for t in threads)
                assert got == [116_624] * 4
                assert len(enumeration._ABOVE) == 30
        finally:
            sys.setswitchinterval(interval)
            enumeration._token_counts.cache_clear()

    def test_signature_cache_keyed_by_value_class(self):
        # last runs that differ only in a value of the same class (same
        # parity, neither is 1), or in odd or even totals past 2, share
        # one entry of _signature_of's cache
        for first, second in (("6,4", "8,2"), ("6,3", "8,5"),
                              ("9,7,5,3", "7,7,5,3"), ("8,6,6,4o", "10,8,6,4o")):
            _signature_of.cache_clear()
            signature(parse(first))
            size = _signature_of.cache_info().currsize
            assert signature(parse(second)) is signature(parse(first))
            assert _signature_of.cache_info().currsize == size, (first, second)
        # a last value of 1 is its own class
        assert signature(parse("6,1")) != signature(parse("6,3"))


class TestSignedCounts:
    def test_poex_prime_8(self):
        assert count_many(8, [_POEX_PRIME]) == [6]

    def test_poex_prime_0(self):
        assert count_many(0, [_POEX_PRIME]) == [1]

    def test_sptko_prime_pair(self):
        (at9,), (at7,) = count_many(9, [_SPT1O_PRIME]), count_many(7, [_SPT1O_PRIME])
        assert at9 + at7 == -6
        assert at9 + at7 == -count_many(8, [_POEX_PRIME])[0]

    def test_signed_equals_refinement_difference(self):
        for n in range(14):
            prof = count_profile(n, 1)
            assert count_many(n, [_SPT1O_PRIME, _POEX_PRIME]) == [
                prof["be1"] - prof["bo1"], prof["ce"] - prof["co"]]
            assert prof["spt1o-prime"] == prof["be1"] - prof["bo1"]
            assert prof["poex-prime"] == prof["ce"] - prof["co"]

    def test_unknown_kind(self):
        for token in ("nope-prime", "pe-prime", "be1-prime"):
            with pytest.raises(ValueError):
                parse_family_token(token)


class TestIdentities:
    def test_spot_values(self):
        assert identity_sides("T1", 6) == (16, 16)
        assert identity_sides("T2", 7) == (20, 20)
        assert identity_sides("T3", 9) == (-6, -6)
        assert identity_sides("T4e", 9) == (14, 14)
        assert identity_sides("T4o", 9) == (20, 20)

    def test_ranges_reject_too_small(self):
        with pytest.raises(ValueError):
            identity_sides("T1", 1)
        with pytest.raises(ValueError):
            identity_sides("T2", 2)
        with pytest.raises(ValueError):
            identity_sides("nope", 5)

    def test_small_sweep(self):
        for name, start in IDENTITY_START.items():
            for n in range(start, 16):
                lhs, rhs = identity_sides(name, n)
                assert lhs == rhs, (name, n)

    def test_derivation_reproduces_t2_and_t3(self):
        for n in range(3, 16):
            d = derivation_sides(n)
            assert d["sum"][0] == d["sum"][1]
            assert d["difference"][0] == d["difference"][1]
            assert d["sum"] == identity_sides("T2", n)
            assert d["difference"][0] == identity_sides("T3", n)[0]


def _reference_identity_sides(identity, n):
    # the identities as an if-chain, one branch each, kept as the
    # reference the identity table is checked against
    p = count_profile
    if identity == "T1":
        if n < 2:
            raise ValueError("T1 holds for n > 1")
        return p(n)["spt1"] + p(n - 1)["spt1"], p(n)["pex"]
    if n < 3:
        raise ValueError(f"{identity} holds for n > 2")
    if identity == "T2":
        lhs = p(n)["spt1o"] + p(n - 2)["spt1o"]
        return lhs, 2 * p(n - 1)["pe"] + p(n - 1)["poex"]
    if identity == "T3":
        lhs = p(n)["spt1o-prime"] + p(n - 2)["spt1o-prime"]
        return lhs, -p(n - 1)["poex-prime"]
    if identity == "T4e":
        return p(n)["be1"] + p(n - 2)["be1"], p(n - 1)["pe"] + p(n - 1)["co"]
    if identity == "T4o":
        return p(n)["bo1"] + p(n - 2)["bo1"], p(n - 1)["pe"] + p(n - 1)["ce"]
    raise ValueError(f"unknown identity {identity!r}")


def _reference_derivation_sides(n):
    # T4e + T4o and T4e - T4o written out from the refined counts
    p = count_profile
    be = p(n)["be1"] + p(n - 2)["be1"]
    bo = p(n)["bo1"] + p(n - 2)["bo1"]
    pe1, ce1, co1 = p(n - 1)["pe"], p(n - 1)["ce"], p(n - 1)["co"]
    return {
        "sum": (be + bo, 2 * pe1 + (ce1 + co1)),
        "difference": (be - bo, co1 - ce1),
    }


class TestIdentityTable:
    def test_names_and_starts(self):
        assert IDENTITIES == ("T1", "T2", "T3", "T4e", "T4o")
        assert list(IDENTITY_START.items()) == [
            ("T1", 2), ("T2", 3), ("T3", 3), ("T4e", 3), ("T4o", 3)]

    @pytest.mark.parametrize("identity", IDENTITIES)
    def test_sides_match_reference(self, identity):
        for n in range(IDENTITY_START[identity], 31):
            assert identity_sides(identity, n) == _reference_identity_sides(identity, n), n

    def test_derivation_matches_reference(self):
        for n in range(3, 31):
            assert derivation_sides(n) == _reference_derivation_sides(n), n

    @pytest.mark.parametrize("n", range(6))
    def test_unknown_identity_named_before_start(self, n):
        with pytest.raises(ValueError, match=r"^unknown identity 'T9'$"):
            identity_sides("T9", n)

    @pytest.mark.parametrize("identity", IDENTITIES)
    def test_start_messages(self, identity):
        start = IDENTITY_START[identity]
        with pytest.raises(ValueError) as raised:
            identity_sides(identity, start - 1)
        with pytest.raises(ValueError) as expected:
            _reference_identity_sides(identity, start - 1)
        assert str(raised.value) == str(expected.value)


class TestCacheLayout:
    def test_entries_are_not_gc_tracked(self):
        # exact tuples of ints drop out of the collector's lists at the
        # next collection; a tuple subclass entry would stay tracked
        listed = list(overpartitions(12))
        members = family_elements(FamilySpec(SPTKO, 1), 14)
        gc.collect()
        assert listed and members
        assert not any(gc.is_tracked(e) for pi in (*listed, *members) for e in pi)

    @pytest.mark.parametrize("n", range(15))
    def test_annotated_cache_aligns_signatures(self, n):
        # each family's pruned walk yields its members' runs beside the
        # signature it carried down to them, and the cached listing holds
        # those runs in the same order
        enumeration._listing.cache_clear()
        assert len(family_elements(FamilySpec(PBAR), n)) == PBAR_0_14[n]
        for fam in FAMILIES:
            walked = list(enumeration._runs(n, n, fam))
            assert all(sig == signature(runs) for runs, sig in walked), fam
            assert family_elements(fam, n) == tuple(runs for runs, _ in walked), fam
        assert enumeration._listing.cache_info().currsize == len(FAMILIES)

    @pytest.mark.parametrize("n", range(21))
    def test_listing_keeps_the_signature_of_each_element(self, n):
        # the bijection audits check a domain element from the signature
        # kept beside it in the listing, so for every family that signature
        # is the one read from the element's runs, element by element; the
        # elements are family_elements' own tuple, not a copy
        for fam in FAMILIES:
            elements, sigs = enumeration._listing(fam, n)
            assert elements is family_elements(fam, n)
            assert list(sigs) == [signature(pi) for pi in elements], fam


class TestFamilyWalk:
    @pytest.mark.parametrize("n", range(31))
    def test_listings_equal_the_unpruned_filter(self, n):
        # the reference is [pi for pi in overpartitions(n) if is_member(pi,
        # fam)], from one unpruned walk grouped by signature: a family's
        # members are the groups of its member signatures, merged back
        # into enumeration order by position
        listed = list(overpartitions(n))
        groups = defaultdict(list)
        for i, pi in enumerate(listed):
            groups[signature(pi)].append(i)
        for fam in FAMILIES:
            held = sorted(i for sig, group in groups.items() if member(sig, fam) for i in group)
            assert family_elements(fam, n) == tuple(listed[i] for i in held), fam

    def test_spt1o_at_60_lists_without_walking_pbar(self):
        # pbar(60) is about 74 million, so an unpruned walk would not end
        # within the suite; the pruned one lists the 17,337 members
        fam = FamilySpec(SPTKO, 1)
        assert len(family_elements(fam, 60)) == count_many(60, [(fam, False)])[0] == 17337
        assert all(pi.weight == 60 and is_member(pi, fam) for pi in family_elements(fam, 60))

    def test_first_value_memo_holds_one_entry_per_state(self):
        # one entry per run state, its cap at most the weight left: a cold
        # spt1o(20) listing leaves 476, as the packed-int memo it replaced
        # did; the value is the first value of the first member below the
        # state, 0 for a subtree that holds none
        enumeration._first_value.cache_clear()
        enumeration._listing.cache_clear()
        family_elements(FamilySpec(SPTKO, 1), 20)
        assert enumeration._first_value.cache_info().currsize == 476
        assert enumeration._first_value(FamilySpec(SPTKO, 1), 20, 20, 0) == 20
        assert enumeration._first_value(FamilySpec(BOK, 1), 16, 16, 0) == 0
