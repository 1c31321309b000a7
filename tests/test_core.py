import math
import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from overpart.core import (
    BEK, BOK, CE, CO, FAMILY_IDS, FAMILY_TABLE, INFINITY, PBAR, PE, PEX, POEX,
    SPTK, SPTKO, FamilySpec, OverPartition, OverpartitionError,
    ParseError, Signature, is_member, member, parse, parse_family_token,
    signature, stats, why_not_member,
)
from overpart.enumeration import (
    count_profile, family_elements, overpartitions, profile_tokens,
)


def overpartition_strategy(max_value=15, max_entries=5):
    def canonical(raw):
        acc = {}
        for v, p, o in raw:
            plain, over = acc.get(v, (0, 0))
            acc[v] = (plain + p, max(over, int(o)))
        entries = [(v, p, o) for v, (p, o) in sorted(acc.items(), reverse=True)
                   if p + o > 0]
        return OverPartition(entries)

    return st.lists(
        st.tuples(st.integers(1, max_value), st.integers(0, 3), st.booleans()),
        max_size=max_entries,
    ).map(canonical)


class TestParse:
    def test_overlined_and_plain(self):
        assert parse("6o,2,1") == OverPartition([(6, 0, 1), (2, 1, 0), (1, 1, 0)])

    def test_empty(self):
        pi = parse("[]")
        assert pi == OverPartition(())
        assert pi.weight == 0

    def test_reorders(self):
        assert parse("1,2,2") == OverPartition([(2, 2, 0), (1, 1, 0)])

    def test_duplicate_overline_rejected(self):
        with pytest.raises(ParseError):
            parse("2o,2o,1")

    def test_zero_rejected(self):
        with pytest.raises(ParseError):
            parse("0,1")

    def test_malformed_token(self):
        for bad in ("", "x", "3,,1", "3,-1", "3oo"):
            with pytest.raises(ParseError):
                parse(bad)

    def test_whitespace_tolerated(self):
        assert parse(" 6o , 2 ,1 ") == parse("6o,2,1")


class TestFormat:
    def test_plain(self):
        assert OverPartition([(2, 2, 0), (1, 1, 0)]).to_text() == "2,2,1"

    def test_empty(self):
        assert OverPartition(()).to_text() == "[]"

    def test_overlined_copy_first(self):
        pi = OverPartition([(4, 0, 1), (2, 1, 1), (1, 1, 0)])
        assert pi.to_text() == "4o,2o,2,1"

    @settings(max_examples=60, deadline=None)
    @given(overpartition_strategy())
    def test_roundtrip_random(self, pi):
        assert parse(pi.to_text()) == pi

    def test_text_is_the_expanded_parts_literal_to_20(self):
        # to_text joins one cached text per run; the definition it replaced
        # joins the expanded parts, as the generator below lists them
        def expanded(pi):
            for v, p, o in pi:
                if o:
                    yield v, True
                yield from ((v, False),) * p

        for n in range(21):
            for pi in overpartitions(n):
                parts = list(expanded(pi))
                assert list(pi.parts()) == parts
                assert pi.to_text() == str(pi) == (
                    ",".join(f"{v}o" if ov else str(v) for v, ov in parts) or "[]")

    @pytest.mark.parametrize("n", range(21))
    def test_roundtrip_exhaustive(self, n):
        for pi in overpartitions(n):
            assert parse(pi.to_text()) == pi


class TestInvariants:
    def test_values_strictly_decreasing(self):
        with pytest.raises(OverpartitionError):
            OverPartition([(2, 1, 0), (2, 0, 1)])

    def test_no_empty_entries(self):
        with pytest.raises(OverpartitionError):
            OverPartition([(3, 0, 0)])

    def test_overline_flag_range(self):
        with pytest.raises(OverpartitionError):
            OverPartition([(3, 1, 2)])

    @pytest.mark.parametrize("entries, message", [
        ([(0, 1, 0)], "part value must be positive, got 0"),
        ([(3, -1, 1)], "negative plain count for value 3"),
    ])
    def test_field_error_texts(self, entries, message):
        with pytest.raises(OverpartitionError) as info:
            OverPartition(entries)
        assert type(info.value) is OverpartitionError and str(info.value) == message

    @pytest.mark.parametrize("build, fields", [
        (OverPartition, [(2.7, 1, 0)]),
        (OverPartition, [("4", "1", 0)]),
        (OverPartition.from_parts, [(2.5, False)]),
    ], ids=["float-entry", "str-entry", "float-part"])
    def test_non_integral_fields_rejected(self, build, fields):
        # int() would have truncated or parsed these
        with pytest.raises(OverpartitionError, match="must be integers"):
            build(fields)

    def test_int_and_bool_fields_accepted(self):
        pi = OverPartition([(3, True, False), (1, 1, True)])
        assert pi == parse("3,1o,1")
        assert all(type(field) is int for entry in pi for field in entry)
        assert OverPartition.from_parts([(True, True), (2, False)]) == parse("2,1o")

    @settings(max_examples=60, deadline=None)
    @given(overpartition_strategy())
    def test_weight_two_ways(self, pi):
        by_entries = sum(v * (p + o) for v, p, o in pi)
        by_parts = sum(v for v, _ in pi.parts())
        assert pi.weight == by_entries == by_parts
        assert pi.num_parts == sum(1 for _ in pi.parts())


def stats_reference(pi):
    """s, s2 and the two signs, read over the expanded parts."""
    parts = list(pi.parts())
    plain = [v for v, overlined in parts if not overlined]
    sign_parts = (-1) ** len(parts)
    if not plain:
        return None, None, sign_parts, sign_parts
    s = min(plain)
    s2 = min((v for v, _ in parts if v > s), default=INFINITY)
    return s, s2, (-1) ** sum(v > s for v, _ in parts), sign_parts


class TestStats:
    def test_five_one(self):
        st_ = stats(parse("5,1"))
        assert st_ == (1, 5, -1, 1)

    def test_overline_run(self):
        st_ = stats(parse("2o,2,2,2,1"))
        assert (st_.s, st_.s2) == (1, 2)
        assert (st_.sign_spt, st_.sign_parts) == (1, -1)

    def test_all_overlined(self):
        st_ = stats(parse("5o"))
        assert st_.s is None
        assert st_.s2 is None

    def test_single_part(self):
        st_ = stats(parse("5"))
        assert st_.s == 5
        assert st_.s2 == INFINITY
        assert math.isinf(st_.s2)

    def test_s2_overline_flag(self):
        # s2 is the next value up, whether that entry is overlined or plain
        assert stats(parse("6,2o,1")).s2 == 2
        assert stats(parse("4,2o,2,1")).s2 == 2
        assert stats(parse("8,1")).s2 == 8
        assert stats(parse("3,2,1o")).s2 == 3

    @settings(max_examples=200, deadline=None)
    @given(overpartition_strategy())
    def test_smallest_parts(self, pi):
        st_ = stats(pi)
        assert (st_.s, st_.s2) == stats_reference(pi)[:2]

    @settings(max_examples=200, deadline=None)
    @given(overpartition_strategy())
    def test_sign_consistency(self, pi):
        st_ = stats(pi)
        assert (st_.sign_spt, st_.sign_parts) == stats_reference(pi)[2:]


def readme_member(pi, fid, k):
    """The README's family table, read over the expanded parts."""
    parts = list(pi.parts())
    values = [v for v, _ in parts]
    plain = [v for v, overlined in parts if not overlined]
    if fid == PBAR:
        return True
    if fid == PE:
        return all(v % 2 == 0 for v in values)
    if fid == PEX:
        return 1 not in plain
    if fid in (POEX, CE, CO):
        poex = 1 not in plain and all(v % 2 == 1 for v in values)
        if fid == POEX:
            return poex
        return poex and len(parts) % 2 == (0 if fid == CE else 1)
    if not plain:
        return False
    s = min(plain)
    spt = (plain.count(s) == k
           and all(v > s for v, overlined in parts if overlined))
    if fid == SPTK:
        return spt
    spto = spt and all(v % 2 != s % 2 for v in values if v != s)
    if fid == SPTKO:
        return spto
    above = sum(1 for v in values if v > s)
    return spto and above % 2 == (0 if fid == BEK else 1)


def readme_signature(pi):
    """The Signature fields as the README's definitions read them over
    the expanded parts."""
    parts = list(pi.parts())
    values = {v for v, _ in parts}
    plain = [v for v, overlined in parts if not overlined]
    s = min(plain, default=None)
    # k counts the copies of s when every overlined part lies above s
    spt = s is not None and all(v > s for v, overlined in parts if overlined)
    k = plain.count(s) if spt else 0
    return Signature(
        all_even=all(v % 2 == 0 for v in values),
        all_odd=all(v % 2 == 1 for v in values),
        plain_one=1 in plain,
        parity=len(parts) % 2,
        k=k,
        opposite=k > 0 and all(v % 2 != s % 2 for v in values if v != s),
    )


class TestSignature:
    @settings(max_examples=300)
    @given(overpartition_strategy(max_value=9, max_entries=6))
    def test_matches_readme_definitions(self, pi):
        assert signature(pi) == readme_signature(pi), str(pi)

    def test_empty(self):
        empty = OverPartition(())
        assert signature(empty) == readme_signature(empty)
        assert signature(empty) is signature(())

    @pytest.mark.parametrize("n", range(9))
    def test_every_overpartition_up_to_8(self, n):
        for pi in overpartitions(n):
            assert signature(pi) == readme_signature(pi), str(pi)


class TestMembership:
    def test_examples(self):
        assert is_member(parse("4,3"), FamilySpec(SPTKO, 1))
        assert not is_member(parse("3,2o"), FamilySpec(SPTK, 1))
        assert is_member(parse("7,1o"), FamilySpec(POEX))
        assert not is_member(parse("7,1o"), FamilySpec(CO))
        assert is_member(parse("7,1o"), FamilySpec(CE))
        assert is_member(parse("2,2,1"), FamilySpec(SPTK, 1))

    def test_empty_conventions(self):
        empty = OverPartition(())
        for fid, expect in [(PBAR, True), (PE, True), (PEX, True),
                            (POEX, True), (CE, True), (CO, False),
                            (SPTK, False), (SPTKO, False),
                            (BEK, False), (BOK, False)]:
            assert is_member(empty, FamilySpec(fid)) is expect

    def test_overlined_smallest_plain_part_explained(self):
        assert why_not_member(parse("3o,3"), FamilySpec(SPTK, 1)) == (
            "the smallest plain part 3 also carries an overline")

    def test_overlined_part_below_smallest_plain_part_explained(self):
        assert why_not_member(parse("3,1o"), FamilySpec(SPTK, 1)) == (
            "overlined part 1 is not greater than the smallest plain part 3")

    @pytest.mark.parametrize("n", range(15))
    def test_family_nesting(self, n):
        fams = {fid: FamilySpec(fid) for fid in
                (SPTK, SPTKO, PE, PEX, POEX, BEK, BOK, CE, CO)}
        for pi in overpartitions(n):
            m = {fid: is_member(pi, f) for fid, f in fams.items()}
            assert (m[BEK] or m[BOK]) == m[SPTKO]
            assert not (m[BEK] and m[BOK])
            assert not m[SPTKO] or m[SPTK]
            assert (m[CE] or m[CO]) == m[POEX]
            assert not (m[CE] and m[CO])
            assert not m[POEX] or m[PEX]

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_nesting_with_k(self, k):
        for n in range(12):
            for pi in overpartitions(n):
                spto = is_member(pi, FamilySpec(SPTKO, k))
                spt = is_member(pi, FamilySpec(SPTK, k))
                be = is_member(pi, FamilySpec(BEK, k))
                bo = is_member(pi, FamilySpec(BOK, k))
                assert (be or bo) == spto
                assert not spto or spt

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_readme_definitions(self, k):
        for n in range(11):
            for pi in overpartitions(n):
                for fid in FAMILY_IDS:
                    fam = FamilySpec(fid, k)
                    assert is_member(pi, fam) == readme_member(pi, fid, k), (str(pi), fam)

    @pytest.mark.parametrize("n", range(11))
    def test_profile_counts_family_elements(self, n):
        for tok in profile_tokens(3):
            fam, signed = parse_family_token(tok)
            if not signed:
                assert count_profile(n, 3)[tok] == len(family_elements(fam, n)), tok

    @pytest.mark.parametrize("n", range(15))
    def test_member_and_explanation_follow_the_parent_chain(self, n):
        # a family holds when every clause on its chain of parents, root
        # first, holds; the explanation is the first failing clause's text
        def chain(fid):
            row = FAMILY_TABLE[fid]
            return (chain(row.parent) if row.parent else ()) + (row,)

        for pi in overpartitions(n):
            sig = signature(pi)
            for fid in FAMILY_IDS:
                for k in (1, 2, 3):
                    fam = FamilySpec(fid, k)
                    failing = next((row for row in chain(fid) if not row.holds(sig, k)), None)
                    assert member(sig, fam) is (failing is None), (str(pi), fam)
                    assert why_not_member(pi, fam) == (failing and failing.why(pi, k)), (str(pi), fam)

    @settings(max_examples=80, deadline=None)
    @given(overpartition_strategy(), st.sampled_from(
        [(fid, k) for fid in (PBAR, SPTK, SPTKO, PE, PEX, POEX, BEK, BOK, CE, CO)
         for k in (1, 2)]))
    def test_explanation_matches_predicate(self, pi, fam_key):
        fam = FamilySpec(*fam_key)
        assert (why_not_member(pi, fam) is None) == is_member(pi, fam)


class TestFamilySpec:
    def test_validation(self):
        with pytest.raises(ValueError) as exc:
            FamilySpec("NOPE")
        assert str(exc.value) == "unknown family id 'NOPE'"
        for k in (0, -2):
            with pytest.raises(ValueError) as exc:
                FamilySpec(SPTK, k)
            assert str(exc.value) == "k must be a positive integer"
        with pytest.raises(ValueError) as exc:
            FamilySpec(id="pe", k=1)  # ids are the upper-case constants
        assert str(exc.value) == "unknown family id 'pe'"

    def test_repr(self):
        assert repr(FamilySpec(PE)) == "FamilySpec(id='PE', k=1)"
        assert repr(FamilySpec(SPTKO, k=3)) == "FamilySpec(id='SPTKO', k=3)"

    def test_equality_and_hash(self):
        # a named tuple: equal to and hashed as the plain tuple (id, k)
        assert FamilySpec(BEK, 2) == FamilySpec(BEK, k=2) == (BEK, 2)
        assert FamilySpec(BEK, 2) != FamilySpec(BEK, 1) != FamilySpec(BOK, 1)
        assert FamilySpec(PE) == FamilySpec(PE, 1)
        assert hash(FamilySpec(BEK, 2)) == hash(FamilySpec(BEK, 2)) == hash((BEK, 2))
        assert len({FamilySpec(fid, k) for fid in FAMILY_IDS for k in (1, 2, 1)}) == 20
        fid, k = FamilySpec(SPTK, 4)
        assert (fid, k) == (SPTK, 4)
        copied = pickle.loads(pickle.dumps(FamilySpec(SPTKO, 3)))
        assert copied == FamilySpec(SPTKO, 3) and type(copied) is FamilySpec

    def test_fields_cannot_be_assigned(self):
        fam = FamilySpec(SPTK, 2)
        with pytest.raises(AttributeError):
            fam.k = 3
        with pytest.raises(AttributeError):
            fam.id = PE
        with pytest.raises(AttributeError):  # no instance dict either
            fam.extra = 1
        assert fam == (SPTK, 2) and fam.token == "spt2"

    def test_tokens(self):
        assert FamilySpec(SPTK, 2).token == "spt2"
        assert FamilySpec(SPTKO, 1).token == "spt1o"
        assert FamilySpec(BEK, 3).token == "be3"
        assert FamilySpec(POEX).token == "poex"

    @pytest.mark.parametrize("token,expect", [
        ("spt1", (FamilySpec(SPTK, 1), False)),
        ("sptk", (FamilySpec(SPTK, 1), False)),
        ("spt3o", (FamilySpec(SPTKO, 3), False)),
        ("sptko-prime", (FamilySpec(SPTKO, 1), True)),
        ("spt2o-prime", (FamilySpec(SPTKO, 2), True)),
        ("poex-prime", (FamilySpec(POEX), True)),
        ("be2", (FamilySpec(BEK, 2), False)),
        ("bo1", (FamilySpec(BOK, 1), False)),
        ("pbar", (FamilySpec(PBAR), False)),
    ])
    def test_token_parsing(self, token, expect):
        assert parse_family_token(token) == expect

    def test_token_default_k(self):
        assert parse_family_token("sptko", default_k=4) == (FamilySpec(SPTKO, 4), False)

    def test_bad_tokens(self):
        for bad in ("sptx", "pe-prime", "spt1-prime", "", "qq"):
            with pytest.raises(ValueError):
                parse_family_token(bad)
