import inspect
import json
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import overpart.bijections as bijections
import overpart.enumeration as enumeration
from overpart.core import (
    PEX, SPTKO, CollisionError, FamilySpec, OverPartition, OverpartitionError, is_member, parse,
    parse_family_token, signature, stats,
)
from overpart.bijections import (
    SOURCE_N, SOURCE_N_MINUS_1, SOURCE_N_MINUS_2,
    PreconditionError, VerificationReport, apply_map, inv_t1, map_t1, map_t2, map_t3_even,
    map_t3_odd, map_t4, verify_bijection, verify_t3,
)
from overpart.enumeration import IDENTITY_START, family_elements, identity_sides, overpartitions
from reference_edit import edit_parts


class TestMapT1:
    @pytest.mark.parametrize("literal,tag,branch,image", [
        ("5,1", SOURCE_N, "f2", "5,1o"),
        ("5", SOURCE_N_MINUS_1, "f3", "6o"),
        ("3,2", SOURCE_N_MINUS_1, "f4", "3,3"),
        ("4,2", SOURCE_N, "f1", "4,2"),
    ])
    def test_branches(self, literal, tag, branch, image):
        tr = map_t1(parse(literal), tag, 6)
        assert tr.branch == branch
        assert str(tr.output) == image
        assert tr.output.weight == 6
        assert tr.target_tag == "PEX"

    def test_membership_precondition(self):
        with pytest.raises(PreconditionError):
            map_t1(parse("2,2,2"), SOURCE_N, 6)

    def test_weight_precondition(self):
        with pytest.raises(PreconditionError):
            map_t1(parse("4,2"), SOURCE_N, 7)

    def test_bad_source(self):
        with pytest.raises(PreconditionError, match=r"^T1 source must be N or N-1$"):
            map_t1(parse("4,2"), SOURCE_N_MINUS_2, 6)


class TestInvT1:
    @pytest.mark.parametrize("literal,pre,tag", [
        ("6o", "5", SOURCE_N_MINUS_1),
        ("2,2,2", "2,2,1", SOURCE_N_MINUS_1),
        ("4,2", "4,2", SOURCE_N),
        ("5,1o", "5,1", SOURCE_N),
        ("3o,3", "3o,2", SOURCE_N_MINUS_1),
    ])
    def test_classification(self, literal, pre, tag):
        assert inv_t1(parse(literal), 6) == (parse(pre), tag)

    def test_non_member_rejected(self):
        with pytest.raises(PreconditionError):
            inv_t1(parse("5,1"), 6)

    def test_small_n_rejected(self):
        with pytest.raises(PreconditionError, match=r"^inverse defined for n > 1$"):
            inv_t1(parse("1o"), 1)

    @pytest.mark.parametrize("n", range(2, 13))
    def test_round_trip_both_ways(self, n):
        spt1 = FamilySpec("SPTK", 1)
        for tag, w in ((SOURCE_N, n), (SOURCE_N_MINUS_1, n - 1)):
            for pi in family_elements(spt1, w):
                tr = map_t1(pi, tag, n)
                assert inv_t1(tr.output, n) == (pi, tag)
        for mu in family_elements(FamilySpec("PEX"), n):
            pre, tag = inv_t1(mu, n)
            assert map_t1(pre, tag, n).output == mu


class TestMapT2:
    @pytest.mark.parametrize("literal,tag,branch,image,target", [
        ("6,1", SOURCE_N, "A", "6", "PE-copy1"),
        ("5,2", SOURCE_N, "B", "5,1o", "POEX"),
        ("7", SOURCE_N, "C", "6o", "PE-copy2"),
        ("3,2", SOURCE_N_MINUS_2, "D", "3,3", "POEX"),
        ("2,2,1", SOURCE_N_MINUS_2, "E", "2,2,2", "PE-copy2"),
    ])
    def test_branches(self, literal, tag, branch, image, target):
        tr = map_t2(parse(literal), tag, 7)
        assert (tr.branch, str(tr.output), tr.target_tag) == (branch, image, target)
        assert tr.output.weight == 6

    def test_membership_precondition(self):
        # a 5 next to a 1 shares its parity, so not in the domain
        with pytest.raises(PreconditionError):
            map_t2(parse("5,1,1"), SOURCE_N, 7)


class TestMapT3:
    @pytest.mark.parametrize("literal,branch,image,weight", [
        ("8,1", "odd-plain", "7", 7),
        ("6,2o,1", "odd-overlined", "6,3", 9),
        ("8o,1", "odd-overlined", "9", 9),
        ("6,2,1", "odd-plain", "6,1", 7),
    ])
    def test_matching_branches(self, literal, branch, image, weight):
        tr = map_t3_odd(parse(literal), 9)
        assert (tr.branch, str(tr.output)) == (branch, image)
        assert tr.output.weight == weight
        assert tr.sign_flip

    def test_both_copies_lowers_the_plain_one(self):
        tr = map_t3_odd(parse("4,2o,2,1"), 9)
        assert str(tr.output) == "4,2o,1"
        assert tr.branch == "odd-plain"
        assert tr.ambiguous_s2
        assert tr.sign_flip

    def test_unambiguous_not_flagged(self):
        assert not map_t3_odd(parse("8,1"), 9).ambiguous_s2

    def test_requires_smallest_plain_one(self):
        with pytest.raises(PreconditionError):
            map_t3_odd(parse("7,2"), 9)

    def test_lone_one_rejected(self):
        with pytest.raises(PreconditionError):
            map_t3_odd(parse("1"), 1)

    @pytest.mark.parametrize("literal,tag,image", [
        ("7,2", SOURCE_N, "7,1o"),
        ("5,4", SOURCE_N, "5,3o"),
        ("5,2", SOURCE_N_MINUS_2, "5,3"),
    ])
    def test_even_branches(self, literal, tag, image):
        tr = map_t3_even(parse(literal), tag, 9)
        assert str(tr.output) == image
        assert tr.output.weight == 8
        assert tr.target_tag == "POEX"
        assert tr.sign_flip

    def test_even_rejects_odd_s(self):
        with pytest.raises(PreconditionError):
            map_t3_even(parse("6,3"), SOURCE_N, 9)

    def test_sign_contract_is_opposition(self):
        # number-of-parts sign of the image against parts-above-s sign
        # of the source
        tr = map_t3_even(parse("7,2"), SOURCE_N, 9)
        assert stats(tr.output).sign_parts == -stats(tr.input).sign_spt


class TestMapT4:
    @pytest.mark.parametrize("literal,tag,n,variant,branch,image,target", [
        ("9", SOURCE_N, 9, "E", "CaseII-n", "8o", "PE"),
        ("6,2,1", SOURCE_N, 9, "E", "CaseII-s1", "6,2", "PE"),
        ("4,2,1", SOURCE_N_MINUS_2, 9, "E", "CaseII-n-2", "4,2,2", "PE"),
        ("7,2", SOURCE_N, 9, "O", "CaseI-n", "7,1o", "CE"),
        ("4", SOURCE_N, 4, "E", "CaseI-n", "3o", "CO"),
    ])
    def test_branches(self, literal, tag, n, variant, branch, image, target):
        tr = map_t4(parse(literal), tag, n, variant)
        assert (tr.branch, str(tr.output), tr.target_tag) == (branch, image, target)
        assert tr.output.weight == n - 1

    def test_parity_refinement_precondition(self):
        # (8,1) has one part above s, so it sits in the odd refinement
        with pytest.raises(PreconditionError):
            map_t4(parse("8,1"), SOURCE_N, 9, "E")
        tr = map_t4(parse("8,1"), SOURCE_N, 9, "O")
        assert str(tr.output) == "8"

    def test_bad_variant(self):
        with pytest.raises(PreconditionError):
            map_t4(parse("9"), SOURCE_N, 9, "X")


class TestApplyMap:
    def test_dispatch(self):
        assert apply_map("T1", parse("5,1"), 6, SOURCE_N).branch == "f2"
        assert apply_map("T3", parse("8,1"), 9).branch == "odd-plain"
        assert apply_map("T3", parse("7,2"), 9).branch == "even-n"
        assert apply_map("T3", parse("5,2"), 9, SOURCE_N_MINUS_2).branch == "even-n-2"
        assert apply_map("T4e", parse("9"), 9).theorem == "T4e"

    def test_unknown(self):
        with pytest.raises(PreconditionError):
            apply_map("T9", parse("5,1"), 6)

    @pytest.mark.parametrize("theorem, role", [
        ("T2", "T2"), ("T3", "T3 even-s"), ("T4e", "T4e"), ("T4o", "T4o")])
    def test_n_minus_1_source_rejected(self, theorem, role):
        with pytest.raises(PreconditionError, match=rf"^{role} source must be N or N-2$"):
            apply_map(theorem, parse("4"), 5, SOURCE_N_MINUS_1)

    @pytest.mark.parametrize("n", range(IDENTITY_START["T3"], 15))
    def test_t3_dispatch_agrees_with_the_audit(self, n):
        # every spt1o element of both summands: what the audit maps, apply_map
        # maps alike; what the audit leaves to the matching's image, it refuses
        spt1o = FamilySpec(SPTKO, 1)
        for tag, w in ((SOURCE_N, n), (SOURCE_N_MINUS_2, n - 2)):
            for pi in family_elements(spt1o, w):
                tr = bijections._audit_trace("T3", pi, tag, n)
                if tr is None:
                    with pytest.raises(PreconditionError):
                        apply_map("T3", pi, n, tag)
                else:
                    assert apply_map("T3", pi, n, tag) == tr, (str(pi), tag)

    def test_unknown_names_the_map(self):
        with pytest.raises(PreconditionError, match=r"^unknown map 'T9'$"):
            apply_map("T9", parse("5,1"), 6)

    @pytest.mark.parametrize("theorem", ["T1", "T2", "T3", "T4e", "T4o"])
    def test_dispatch_agrees_with_the_audit(self, theorem):
        # every element of both domain summands, n <= 14: what the audit
        # maps, apply_map maps alike; what it leaves unmapped (T3's
        # matching image), the even-s map refuses
        for n in range(IDENTITY_START[theorem], 15):
            fam, low, _ = bijections._audit_row(theorem, n)
            for tag in (SOURCE_N, low):
                for pi in family_elements(fam, n + bijections._OFFSET[tag]):
                    tr = bijections._audit_trace(theorem, pi, tag, n)
                    if tr is None:
                        with pytest.raises(PreconditionError,
                                           match=r"^T3 even-s map needs an even smallest"):
                            apply_map(theorem, pi, n, tag)
                    else:
                        assert apply_map(theorem, pi, n, tag) == tr, (str(pi), tag)

    def test_t3_routes_by_smallest_plain_part(self):
        # apply_map("T3", ...) on every overpartition of weight w <= 10 at
        # n = max(w, 3)..w+2, and on [] at n = 3..5, with each source, against
        # a router reading stats(pi).s: the matching for s = 1 in the N
        # summand, else the even-s map, which refuses what it does not map
        def reference(pi, n, tag):
            if stats(pi).s == 1 and tag == SOURCE_N:
                return map_t3_odd(pi, n)
            return map_t3_even(pi, tag, n)

        def outcome(route, *args):
            try:
                return route(*args)
            except Exception as exc:
                return type(exc), str(exc)

        cases = [(pi, n) for w in range(11) for pi in overpartitions(w)
                 for n in range(max(w, 3), w + 3)]
        cases += [(parse("[]"), n) for n in range(3, 6)]
        for pi, n in cases:
            for tag in (SOURCE_N, SOURCE_N_MINUS_1, SOURCE_N_MINUS_2):
                want = outcome(reference, pi, n, tag)
                assert outcome(apply_map, "T3", pi, n, tag) == want, (str(pi), n, tag)


class TestTrace:
    def test_json_dict(self):
        tr = map_t2(parse("5,2"), SOURCE_N, 7)
        d = tr.to_json_dict()
        assert d == {
            "theorem": "T2", "sourceTag": "N", "branch": "B",
            "input": "5,2", "output": "5,1o", "targetTag": "POEX",
            "signFlip": True,
        }
        assert parse(d["output"]) == tr.output

    def test_ambiguity_flag_serialized(self):
        d = map_t3_odd(parse("4,2o,2,1"), 9).to_json_dict()
        assert d["ambiguousS2"] is True

    def test_json_keys_in_field_order(self):
        # map --format json prints these bytes: one key per field, in field
        # order, ambiguousS2 only when set and signFlip also when false
        assert json.dumps(map_t3_odd(parse("4,2o,2,1"), 9).to_json_dict()) == (
            '{"theorem": "T3", "sourceTag": "N", "branch": "odd-plain", "input": "4,2o,2,1", '
            '"output": "4,2o,1", "targetTag": "SPT1O-N-2", "signFlip": true, "ambiguousS2": true}')
        assert json.dumps(map_t1(parse("5"), SOURCE_N_MINUS_1, 6).to_json_dict()) == (
            '{"theorem": "T1", "sourceTag": "N-1", "branch": "f3", "input": "5", '
            '"output": "6o", "targetTag": "PEX", "signFlip": false}')

    def test_trace_is_a_named_tuple(self):
        # immutable and hashable; _replace makes a changed copy
        tr = map_t2(parse("5,2"), SOURCE_N, 7)
        assert tr._fields == ("theorem", "source_tag", "branch", "input", "output",
                              "target_tag", "sign_flip", "ambiguous_s2")
        assert tr.ambiguous_s2 is False and hash(tr) == hash(tuple(tr))
        assert tr._replace(sign_flip=False).sign_flip is False and tr.sign_flip is True
        with pytest.raises(AttributeError):
            tr.branch = "C"


class TestReport:
    FIELDS = ("theorem", "n", "domain_size", "codomain_size", "injective", "surjective",
              "contract_violations", "problems", "blocks", "traces")

    def test_built_by_position_and_by_keyword(self):
        tr = map_t2(parse("5,2"), SOURCE_N, 7)
        values = ("T2", 7, 1, 1, True, True, [tr], ["late"], {"domain:N": 1}, [tr])
        for r in (VerificationReport(*values),
                  VerificationReport(**dict(zip(self.FIELDS, values))),
                  VerificationReport(*values[:6], problems=["late"], traces=values[9],
                                     blocks=values[8], contract_violations=values[6])):
            assert tuple(getattr(r, name) for name in self.FIELDS) == values
            # a collection passed in is kept, not copied
            assert r.traces is values[9] and r.blocks is values[8]
            assert not r.ok
        with pytest.raises(TypeError):
            VerificationReport("T2", 7, 1, 1, True)

    def test_collections_left_out_start_empty_and_unshared(self):
        a, b = (VerificationReport("T1", 6, 0, 0, True, True) for _ in range(2))
        for name in self.FIELDS[6:]:
            assert getattr(a, name) == getattr(b, name) == ({} if name == "blocks" else [])
            assert getattr(a, name) is not getattr(b, name)
        a.problems.append("broken")
        a.traces.append(map_t1(parse("6"), SOURCE_N, 6))
        a.blocks["image:PEX"] = 1
        assert (b.problems, b.traces, b.blocks) == ([], [], {})
        assert b.ok and not a.ok


class TestAudits:
    def test_t1_at_6(self):
        r = verify_bijection("T1", 6)
        assert (r.domain_size, r.codomain_size) == (16, 16)
        assert r.injective and r.surjective and r.ok

    def test_t2_at_7(self):
        r = verify_bijection("T2", 7)
        assert r.domain_size == 20
        assert r.blocks["codomain:PE-copy1"] == 8
        assert r.blocks["codomain:PE-copy2"] == 8
        assert r.blocks["codomain:POEX"] == 4
        assert r.ok

    def test_t4e_at_9(self):
        r = verify_bijection("T4e", 9)
        assert (r.domain_size, r.codomain_size) == (14, 14)
        assert r.blocks["codomain:CO"] == 0
        assert r.ok

    def test_t4o_at_9(self):
        r = verify_bijection("T4o", 9)
        assert r.blocks["codomain:CE"] == 6
        assert r.ok

    def test_t3_at_9_blocks(self):
        r = verify_t3(9)
        assert r.blocks == {"odd-domain": 14, "odd-image": 14,
                            "even-domain": 6, "poex": 6}
        assert r.ok

    def test_t3_at_3(self):
        assert verify_t3(3).ok

    @pytest.mark.parametrize("theorem", ["T1", "T2", "T4e", "T4o"])
    def test_sides_match_the_identity_table(self, theorem):
        # each theorem is stated twice: as an audit row and as a counted identity
        for n in range(IDENTITY_START[theorem], 26):
            r = verify_bijection(theorem, n)
            assert (r.domain_size, r.codomain_size) == identity_sides(theorem, n), n

    def test_t3_signed_identity_failure_reported(self, monkeypatch):
        monkeypatch.setattr(bijections, "identity_sides", lambda name, n: (1, 2))
        r = verify_t3(9)
        assert not r.ok and r.problems == ["signed identity fails: 1 != 2"]

    def test_small_ranges(self):
        for n in range(2, 14):
            assert verify_bijection("T1", n).ok, n
        for n in range(3, 14):
            for th in ("T2", "T4e", "T4o"):
                assert verify_bijection(th, n).ok, (th, n)
            assert verify_t3(n).ok, n

    def test_range_validation(self):
        with pytest.raises(ValueError):
            verify_bijection("T1", 1)
        with pytest.raises(ValueError):
            verify_bijection("T2", 2)
        with pytest.raises(ValueError):
            verify_bijection("T3", 5)
        with pytest.raises(ValueError):
            verify_t3(2)

    def test_unknown_theorem_messages(self):
        # an unknown theorem has no audit row; T3 has one, but the
        # verify_bijection entry point sends T3 to verify_t3
        with pytest.raises(ValueError, match=r"^no bijection audit for 'T9'$"):
            verify_bijection("T9", 5)
        with pytest.raises(ValueError, match=r"^no bijection audit for 'T3' \(T3 has its own\)$"):
            verify_bijection("T3", 5)


class TestWeightContracts:
    def test_t3_matching_weights(self):
        # image weight depends on the branch: lowered plain copy loses
        # two, promoted overlined copy keeps the weight
        spto = FamilySpec(SPTKO, 1)
        for n in range(3, 12):
            for pi in family_elements(spto, n):
                if stats(pi).s != 1:
                    continue
                tr = map_t3_odd(pi, n)
                expect = n - 2 if tr.branch == "odd-plain" else n
                assert tr.output.weight == expect

    def test_output_weights(self):
        for n in range(3, 10):
            spto = FamilySpec(SPTKO, 1)
            for pi in family_elements(spto, n):
                assert map_t2(pi, SOURCE_N, n).output.weight == n - 1


# the moves, T1's inverse and T3's matching as edits of the expanded parts,
# the reference for their rewrites of the last two runs
REFERENCE_MOVES = {
    "keep": lambda pi, s: edit_parts(pi),
    "delete": lambda pi, s: edit_parts(pi, [(1, False)]),
    "overline": lambda pi, s: edit_parts(pi, [(s, False)], [(s, True)]),
    "lift": lambda pi, s: edit_parts(pi, [(s, False)], [(s + 1, True)]),
    "lower": lambda pi, s: edit_parts(pi, [(s, False)], [(s - 1, True)]),
    "raise": lambda pi, s: edit_parts(pi, [(s, False)], [(s + 1, False)]),
}


def reference_inv_t1(mu):
    m, p, o = mu[-1]
    if m == 1:
        return edit_parts(mu, [(1, True)], [(1, False)]), SOURCE_N
    if p == 0:
        return edit_parts(mu, [(m, True)], [(m - 1, False)]), SOURCE_N_MINUS_1
    if p == 1 and not o:
        return edit_parts(mu), SOURCE_N
    return edit_parts(mu, [(m, False)], [(m - 1, False)]), SOURCE_N_MINUS_1


def reference_t3_odd(pi):
    s2, plain, _ = pi[-2]
    if plain:
        return edit_parts(pi, [(1, False), (s2, False)], [(s2 - 1, False)])
    return edit_parts(pi, [(1, False), (s2, True)], [(s2 + 1, False)])


def audit_traces(theorem, n):
    # every map application of the audit at n, in domain enumeration order
    return (verify_t3(n) if theorem == "T3" else verify_bijection(theorem, n)).traces


def meeting_cases(tr, move):
    # the cases of a trace in which the rewrite meets a run already there:
    # a raised or lifted s joins the run at s + 1; T3's matching lowers s2 = 2
    # into the deleted 1's place, lowers one of several plain copies of s2,
    # or moves an overlined s2 onto s2 + 1
    s, (s2, plain, _) = tr.input[-1][0], tr.input[-2] if len(tr.input) > 1 else (0, 0, 0)
    return {case for case, holds in [
        ("joins-s+1", move in ("lift", "raise") and s2 == s + 1),
        ("s2=2", tr.branch == "odd-plain" and s2 == 2),
        ("more-plain-s2", tr.branch == "odd-plain" and plain > 1),
        ("overlined-s2", tr.branch == "odd-overlined")] if holds}


class TestRewritesMatchSurgery:
    # every move, T1's inverse and T3's matching rewrite the last two runs;
    # they must give what surgery on the expanded parts (edit_parts) gives,
    # as canonical runs of exact (int, int, int) tuples, which the garbage
    # collector stops tracking (OverPartition's docstring)

    @staticmethod
    def _canonical(out):
        assert type(out) is OverPartition
        assert OverPartition(out) == out  # revalidated: canonical runs
        assert all(type(e) is tuple and len(e) == 3
                   and all(type(x) is int for x in e) for e in out), out

    @pytest.mark.parametrize("theorem, meeting", [
        ("T1", {("f4", "joins-s+1")}),
        ("T2", {("D", "joins-s+1"), ("E", "joins-s+1")}),
        ("T3", {("odd-plain", "s2=2"), ("odd-plain", "more-plain-s2"),
                ("odd-overlined", "overlined-s2")}),
        ("T4e", {("CaseI-n-2", "joins-s+1"), ("CaseII-n-2", "joins-s+1")}),
        ("T4o", {("CaseI-n-2", "joins-s+1"), ("CaseII-n-2", "joins-s+1")}),
    ])
    def test_every_domain_element_to_20(self, theorem, meeting):
        moves = {branch: move for branch, move, _ in bijections._AUDITS[theorem][4].values()}
        met = set()
        for n in range(IDENTITY_START[theorem], 21):
            for tr in audit_traces(theorem, n):
                move = moves.get(tr.branch)  # None for T3's matching
                if move is None:
                    want = reference_t3_odd(tr.input)
                else:
                    want = REFERENCE_MOVES[move](tr.input, tr.input[-1][0])
                assert tr.output == want, (n, tr)
                self._canonical(tr.output)
                met |= {(tr.branch, case) for case in meeting_cases(tr, move)}
        assert meeting <= met, met

    def test_inv_t1_on_every_pex_element_to_20(self):
        f4 = 0  # undone f4 moves: the last run keeps p - 1 + o >= 1 copies
        for n in range(2, 21):
            for mu in family_elements(FamilySpec(PEX), n):
                back = bijections._inv_t1(mu)
                assert back == reference_inv_t1(mu), mu
                self._canonical(back[0])
                f4 += back[1] == SOURCE_N_MINUS_1 and mu[-1][1] > 0
        assert f4

    def test_lift_onto_an_overlined_copy_collides_as_surgery_does(self):
        # both refuse a second overlined 3: the surgery on parts in the
        # words of from_parts, the rewrite with the CollisionError text
        pi = parse("3o,2")
        with pytest.raises(OverpartitionError, match=r"^duplicate overlined copy of 3$"):
            REFERENCE_MOVES["lift"](pi, 2)
        with pytest.raises(CollisionError, match=r"^value 3 is already overlined$"):
            bijections._MOVES["lift"](pi, 2)

    def test_move_drops_any_last_run_copy_as_surgery_does(self):
        # _move drops one copy of the last run, a plain one when there is
        # one, for one copy of value: at most the run's value, or one above
        # it when the run holds a single copy
        multi = 0  # moves out of a last run of several copies
        for n in range(1, 13):
            for pi in overpartitions(n):
                v, p, o = pi[-1]
                values = [v - 1] * (v > 1) + [v] + [v + 1] * (p + o == 1)
                for value in values:
                    for over in (0, 1):
                        drop, add = [(v, not p)], [(value, bool(over))]
                        try:
                            want = edit_parts(pi, drop, add)
                        except OverpartitionError:
                            with pytest.raises(CollisionError,
                                               match=rf"^value {value} is already overlined$"):
                                bijections._move(pi, value, over)
                            continue
                        out = bijections._move(pi, value, over)
                        assert out == want, (pi, value, over)
                        self._canonical(out)
                        multi += p + o > 1
        assert multi


class TestAuditFailures:
    # audits report a broken map instead of raising

    def test_wrong_output_names_the_component(self, monkeypatch):
        real = bijections._labelled_map

        def wrong(*args):
            tr = real(*args)
            if tr.branch == "A":
                return tr._replace(output=tr.input)
            return tr

        monkeypatch.setattr(bijections, "_labelled_map", wrong)
        r = verify_bijection("T2", 7)
        assert not r.ok and not r.surjective
        assert [v.branch for v in r.contract_violations] == ["A"] * 8
        # the eight images are the unchanged inputs of weight 7, none in pe(6)
        assert ("component PE-copy1: hit 0 of 8 elements; 8 images outside it, "
                "e.g. 2,2,2,1; 2o,2,2,1; 4,2,1") in r.problems

    @pytest.mark.parametrize("theorem, n, violations, branches, targets", [
        ("T3", 9, 6, {"even-n", "even-n-2"}, {"POEX"}),
        ("T2", 10, 8, {"B", "D"}, {"POEX"}),
        ("T4e", 10, 8, {"CaseI-n", "CaseI-n-2"}, {"CO"}),
        ("T4o", 9, 6, {"CaseI-n", "CaseI-n-2"}, {"CE"}),
        ("T1", 10, 0, set(), set()),
    ], ids=["T3", "T2", "T4e", "T4o", "T1"])
    def test_missing_sign_flip_is_a_violation(self, monkeypatch, theorem, n, violations,
                                              branches, targets):
        # one sign rule for every audit: an image inside a component that
        # carries a sign (poex, co, ce) must flip it; pex carries none
        real = bijections._labelled_map

        def unsigned(*args):
            return real(*args)._replace(sign_flip=False)

        monkeypatch.setattr(bijections, "_labelled_map", unsigned)
        r = verify_t3(n) if theorem == "T3" else verify_bijection(theorem, n)
        assert r.ok is (violations == 0)
        assert len(r.contract_violations) == violations
        assert {v.branch for v in r.contract_violations} == branches
        assert {v.target_tag for v in r.contract_violations} == targets
        assert not r.problems

    def test_raising_map_is_reported(self, monkeypatch):
        real = bijections._labelled_map

        def fails_on_seven(*args):
            if str(args[1]) == "7":
                raise PreconditionError("broken")
            return real(*args)

        monkeypatch.setattr(bijections, "_labelled_map", fails_on_seven)
        r = verify_bijection("T4e", 9)
        assert not r.ok and not r.injective and not r.surjective
        assert "7 [N-2]: broken" in r.problems
        assert "component PE: hit 13 of 14 elements" in r.problems

    def test_image_block_counts_only_the_component(self, monkeypatch):
        real = bijections._labelled_map

        def wrong(*args):
            tr = real(*args)
            if tr.branch == "A":
                return tr._replace(output=tr.input)
            return tr

        monkeypatch.setattr(bijections, "_labelled_map", wrong)
        r = verify_bijection("T2", 7)
        # all eight branch-A images lie outside pe(6), so none counts
        assert r.blocks["image:PE-copy1"] == 0
        assert r.blocks["codomain:PE-copy1"] == 8

    def test_t1_images_outside_pex_are_reported(self, monkeypatch):
        real = bijections._labelled_map

        def heavy(*args):
            tr = real(*args)
            if tr.branch == "f3":
                return tr._replace(output=edit_parts(tr.output, add=[(1, False)]))
            return tr

        monkeypatch.setattr(bijections, "_labelled_map", heavy)
        r = verify_bijection("T1", 8)
        assert not r.ok and not r.surjective
        assert {v.branch for v in r.contract_violations} == {"f3"}
        assert "inverse(8o,1): T1 inverse: 8o,1 has weight 9, expected 8" in r.problems
        assert "forward(inverse(8o)) != 8o" in r.problems

    def test_t1_swapped_inverse_tag_is_reported(self, monkeypatch):
        real = bijections._inv_t1
        other = {SOURCE_N: SOURCE_N_MINUS_1, SOURCE_N_MINUS_1: SOURCE_N}

        def swapped(mu):
            pre, tag = real(mu)
            return pre, other[tag]

        monkeypatch.setattr(bijections, "_inv_t1", swapped)
        r = verify_bijection("T1", 8)
        assert not r.ok and not r.contract_violations
        assert any(p.startswith("inverse mismatch: 6,2o -> ") for p in r.problems)
        assert ("forward(inverse(6,2o)): T1 source N: 6,1 has weight 7, "
                "expected 8") in r.problems

    def test_t1_inverse_mismatch_prints_both_pairs_alike(self, monkeypatch):
        real = bijections._inv_t1
        other = {SOURCE_N: SOURCE_N_MINUS_1, SOURCE_N_MINUS_1: SOURCE_N}

        def swapped(mu):
            pre, tag = real(mu)
            return pre, other[tag]

        monkeypatch.setattr(bijections, "_inv_t1", swapped)
        r = verify_bijection("T1", 8)
        assert "inverse mismatch: 6,2o -> (6,1, N), expected (6,1, N-1)" in r.problems

    def test_t1_heavy_images_problems_in_order(self, monkeypatch):
        theorem, name, make = MUTATIONS["T1-f3-one-part-heavier"]
        monkeypatch.setattr(bijections, name, make())
        strays = ["8o", "6,2o", "6o,2o", "5,3o", "5o,3o", "3,3,2o", "3o,3,2o"]
        assert verify_bijection(theorem, 8).problems == [
            "component PEX: hit 29 of 36 elements; 7 images outside it, "
            "e.g. 3,3,2o,1; 3o,3,2o,1; 5,3o,1",
            *(f"inverse({mu},1): T1 inverse: {mu},1 has weight 9, expected 8"
              for mu in strays),
            *(f"forward(inverse({mu})) != {mu}" for mu in strays)]

    def test_t1_swapped_inverse_tag_problems_in_order(self, monkeypatch):
        # each trace's mismatch line is followed by its forward line
        expected = []
        for tr in audit_traces("T1", 8):
            other = _OTHER_TAG[tr.source_tag]
            want = 8 + {SOURCE_N: 0, SOURCE_N_MINUS_1: -1}[other]
            expected += [
                f"inverse mismatch: {tr.output} -> ({tr.input}, {other}), "
                f"expected ({tr.input}, {tr.source_tag})",
                f"forward(inverse({tr.output})): T1 source {other}: {tr.input} "
                f"has weight {tr.input.weight}, expected {want}"]
        theorem, name, make = MUTATIONS["T1-inverse-tag-swapped"]
        monkeypatch.setattr(bijections, name, make())
        assert verify_bijection(theorem, 8).problems == expected

    @pytest.mark.parametrize("n", range(2, 13))
    def test_t1_round_trip_inverts_each_pex_element_once(self, monkeypatch, n):
        calls = {"_labelled_map": 0, "_inv_t1": 0}

        def counted(name):
            real = getattr(bijections, name)

            def wrapper(*args):
                calls[name] += 1
                return real(*args)
            return wrapper

        for name in calls:
            monkeypatch.setattr(bijections, name, counted(name))
        assert verify_bijection("T1", n).ok
        spt1 = FamilySpec("SPTK", 1)
        assert calls == {
            "_labelled_map": len(family_elements(spt1, n)) + len(family_elements(spt1, n - 1)),
            "_inv_t1": len(family_elements(FamilySpec("PEX"), n)),
        }


class TestAuditMemory:
    # cold caches, then T1/T2/T4e/T4o and T3 audited at every n <= 20:
    # the traced peak was 11.5 MiB with namedtuple entries and (pi, sig)
    # pairs in a cache of every overpartition of each n <= 25, 4.7 MiB with
    # int-triple entries in it, 3.0 MiB with each family listed by its own
    # pruned walk and the 32 most recently used listings kept, and 2.4 MiB
    # with the walk's memo an lru_cache keyed by tuples (2.1 with packed ints)
    PEAK_MIB = 4

    def test_audit_sweep_to_20_stays_under_bound(self):
        enumeration._first_value.cache_clear()
        enumeration._listing.cache_clear()
        enumeration._token_counts.cache_clear()
        tracemalloc.start()
        try:
            for n in range(2, 21):
                for theorem in ("T1", "T2", "T4e", "T4o"):
                    if n >= IDENTITY_START[theorem]:
                        assert verify_bijection(theorem, n).ok, (theorem, n)
                if n >= IDENTITY_START["T3"]:
                    assert verify_t3(n).ok, n
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < self.PEAK_MIB * 2**20, f"{peak / 2**20:.1f} MiB"


class TestHotPath:
    # an audit checks each domain element from the signature the walk that
    # listed it carried down, so only images and outside input are read run
    # by run

    @pytest.mark.parametrize("n", [12, 13])
    @pytest.mark.parametrize("theorem", ["T1", "T2", "T3", "T4e", "T4o"])
    def test_audit_reads_the_runs_of_its_images_only(self, monkeypatch, theorem, n):
        # once per image, in trace order; T1's f1 image is its input itself,
        # so the other theorems also show that no listed object is read.
        # T3's matching and T4o's images are empty at even n
        real, seen = bijections._weighed_signature, []

        def counted(entries):
            seen.append(entries)
            return real(entries)

        monkeypatch.setattr(bijections, "_weighed_signature", counted)
        r = verify_t3(n) if theorem == "T3" else verify_bijection(theorem, n)
        assert r.ok
        assert seen == [tr.output for tr in r.traces]
        if theorem != "T1":
            fam, low = bijections._AUDITS[theorem][:2]
            listed = {id(pi) for tag in (SOURCE_N, low)
                      for pi in family_elements(fam, n + bijections._OFFSET[tag])}
            assert not any(id(entries) in listed for entries in seen)

    def test_required_sign_and_s_agree_with_stats(self):
        # _require returns the parts-above-s sign, and the maps read s from
        # the last run: on every domain element, from the walk's signature
        # and from the runs alike
        domains = {(bijections._AUDITS[theorem][0], n + bijections._OFFSET[tag])
                   for theorem, start in IDENTITY_START.items() if theorem in bijections._AUDITS
                   for n in range(start, 21)
                   for tag in (SOURCE_N, bijections._AUDITS[theorem][1])}
        for fam, weight in domains:
            for pi, sig in zip(*enumeration._listing(fam, weight)):
                st = stats(pi)
                assert pi[-1][0] == st.s, pi
                for given in (sig, None):
                    assert bijections._require(pi, fam, weight, given, "test") == st.sign_spt, pi

    @pytest.mark.parametrize("name, args, text", [
        ("map_t2", (parse("4,2"), SOURCE_N, 6), "T2 source N: 4,2 is not in spt1o(6): "
         "part 4 has the same parity as the smallest plain part 2"),
        ("map_t2", (parse("5,1"), SOURCE_N, 7), "T2 source N: 5,1 has weight 6, expected 7"),
        ("map_t2", (parse("3,1"), SOURCE_N_MINUS_2, 5),
         "T2 source N-2: 3,1 has weight 4, expected 3"),
        ("map_t3_odd", (parse("3,3,1"), 7), "T3 matching source: 3,3,1 is not in spt1o(7): "
         "part 3 has the same parity as the smallest plain part 1"),
        ("map_t3_odd", (parse("4,1"), 6), "T3 matching source: 4,1 has weight 5, expected 6"),
        ("apply_map", ("T2", parse("2,2,2"), 6), "T2 source N: 2,2,2 is not in spt1o(6): "
         "smallest plain part 2 appears 3 time(s); must appear exactly 1"),
        ("apply_map", ("T3", parse("4,1"), 6), "T3 matching source: 4,1 has weight 5, expected 6"),
        ("apply_map", ("T1", parse("2,2,1,1"), 6), "T1 source N: 2,2,1,1 is not in spt1(6): "
         "smallest plain part 1 appears 2 time(s); must appear exactly 1"),
        ("apply_map", ("T4e", parse("4,3,1"), 8), "T4e source N: 4,3,1 is not in be1(8): "
         "part 3 has the same parity as the smallest plain part 1"),
        ("map_t1", (parse("9,4"), SOURCE_N, 6), "T1 source N: 9,4 has weight 13, expected 6"),
        ("map_t2", (parse("3o"), SOURCE_N, 3), "T2 source N: 3o is not in spt1o(3): "
         "every part is overlined, so no smallest plain part exists"),
    ])
    def test_outside_input_is_checked_in_full(self, name, args, text):
        # no signature: weight and membership are read from the runs, and
        # the error names the failed clause
        with pytest.raises(PreconditionError) as info:
            getattr(bijections, name)(*args)
        assert str(info.value) == text

    def test_public_maps_take_no_signature(self):
        # only the audit's router passes the walk's signature, to the private
        # core, so no caller can talk a public map out of its full check
        for name in bijections.__all__:
            obj = getattr(bijections, name)
            if inspect.isfunction(obj):
                assert "sig" not in inspect.signature(obj).parameters, name
        for call, args in [(map_t1, (parse("5,1"), SOURCE_N, 6)),
                           (map_t2, (parse("4,1"), SOURCE_N, 5)),
                           (map_t3_odd, (parse("4,1"), 5)),
                           (map_t3_even, (parse("7,2"), SOURCE_N, 9)),
                           (map_t4, (parse("9"), SOURCE_N, 9, "E"))]:
            call(*args)
            with pytest.raises(TypeError):
                call(*args, signature(args[0]))


def reference_audit(theorem, n):
    """The set-based audit the count-certified one replaced, kept as its
    reference: every codomain component is listed with family_elements and
    its hit and want sets are compared, and for T1 every element of pex(n)
    is inverted and mapped back.  Returns the fields the two must share."""
    fam, low, components = bijections._audit_row(theorem, n)
    blocks, problems, traces, unmapped, domain = {}, [], [], {}, 0
    for tag in (SOURCE_N, low):
        offset = bijections._OFFSET[tag]
        elements = family_elements(fam, n + offset)
        blocks[f"domain:{tag}"] = len(elements)
        left = unmapped[fam, offset] = []
        for pi in elements:
            try:
                tr = bijections._audit_trace(theorem, pi, tag, n)
            except Exception as exc:
                problems.append(f"{pi} [{tag}]: {exc}")
                continue
            if tr is None:
                left.append(pi)
            else:
                traces.append(tr)
        domain += len(elements) - len(left)
    images = [(tr.target_tag, tr.output) for tr in traces]
    injective, surjective, codomain = len(set(images)) == len(images) and not problems, True, 0
    for comp in components:
        comp_fam, offset, _ = bijections._TARGETS[comp]
        left = unmapped.get((comp_fam, offset))
        want = set(family_elements(comp_fam, n + offset) if left is None else left)
        hit = {out for tag, out in images if tag == comp}
        blocks[f"image:{comp}"], blocks[f"codomain:{comp}"] = len(hit & want), len(want)
        codomain += len(want)
        if hit != want:
            surjective = False
            strays = sorted(map(str, hit - want))
            problems.append(f"component {comp}: hit {len(hit & want)} of {len(want)} elements"
                            + (f"; {len(strays)} images outside it, e.g. {'; '.join(strays[:3])}"
                               if strays else ""))
    if theorem == "T1":
        problems += reference_round_trip(traces, n)
    return {"domain_size": domain, "codomain_size": codomain, "blocks": blocks,
            "injective": injective, "surjective": surjective, "problems": sorted(problems)}


def reference_round_trip(traces, n):
    # every mu in pex(n) inverted once against the first trace onto it, the
    # forward image mapped again where that inverse is not the trace's input,
    # then every other trace (outputs outside pex(n), collisions) inverted
    problems, by_output, rest = [], {}, []
    for tr in traces:
        if by_output.setdefault(tr.output, tr) is not tr:
            rest.append(tr)

    def invert(mu, tr):
        try:
            back = bijections.inv_t1(mu, n)
        except Exception as exc:
            problems.append(f"inverse({mu}): {exc}")
            return None
        if tr is not None and back != (tr.input, tr.source_tag):
            problems.append(f"inverse mismatch: {tr.output} -> ({back[0]}, {back[1]}), "
                            f"expected ({tr.input}, {tr.source_tag})")
        return back if tr is None or back != (tr.input, tr.source_tag) else None

    for mu in family_elements(FamilySpec("PEX"), n):
        back = invert(mu, by_output.pop(mu, None))
        if back is None:
            continue
        try:
            if bijections.map_t1(*back, n).output != mu:
                problems.append(f"forward(inverse({mu})) != {mu}")
        except Exception as exc:
            problems.append(f"forward(inverse({mu})): {exc}")
    for tr in (*by_output.values(), *rest):
        invert(tr.output, tr)
    return problems


def audited(theorem, n):
    # the fields reference_audit gives, from the audit under test; T3's
    # report is read before verify_t3 renames its blocks
    r = bijections._audit(theorem, n) if theorem == "T3" else verify_bijection(theorem, n)
    return {"domain_size": r.domain_size, "codomain_size": r.codomain_size,
            "blocks": r.blocks, "injective": r.injective, "surjective": r.surjective,
            "problems": sorted(r.problems)}


def _replacing(name, change):
    # a mutation of the map or inverse `name`: each result passes through change
    real = getattr(bijections, name)

    def mutated(*args):
        return change(real(*args))
    return mutated


_REAL_LABELLED_MAP = bijections._labelled_map


def _raising_on_seven(*args):
    if str(args[1]) == "7":
        raise PreconditionError("broken")
    return _REAL_LABELLED_MAP(*args)


_OTHER_TAG = {SOURCE_N: SOURCE_N_MINUS_1, SOURCE_N_MINUS_1: SOURCE_N}

# (theorem, patched name, mutation) for the mutations of TestAuditFailures
# and the CLI tests: wrong outputs, a raising map, a relabelled component,
# a missing sign flip and a swapped inverse tag
MUTATIONS = {
    "T2-branch-A-keeps-input": ("T2", "_labelled_map", lambda: _replacing(
        "_labelled_map", lambda tr: tr._replace(output=tr.input)
        if tr.branch == "A" else tr)),
    "T1-f3-one-part-heavier": ("T1", "_labelled_map", lambda: _replacing(
        "_labelled_map", lambda tr: tr._replace(
            output=edit_parts(tr.output, add=[(1, False)])) if tr.branch == "f3" else tr)),
    "T4e-raises-on-7": ("T4e", "_labelled_map", lambda: _raising_on_seven),
    "T2-POEX-relabelled": ("T2", "_labelled_map", lambda: _replacing(
        "_labelled_map", lambda tr: tr._replace(target_tag="PE-copy1")
        if tr.target_tag == "POEX" else tr)),
    "T3-unsigned": ("T3", "_labelled_map", lambda: _replacing(
        "_labelled_map", lambda tr: tr._replace(sign_flip=False))),
    "T1-inverse-tag-swapped": ("T1", "_inv_t1", lambda: _replacing(
        "_inv_t1", lambda back: (back[0], _OTHER_TAG[back[1]]))),
}


class TestCountCertifiedAudit:
    # coverage from exact counts against the set-based reference above

    @pytest.mark.parametrize("theorem", ["T1", "T2", "T3", "T4e", "T4o"])
    def test_equals_the_set_based_reference(self, theorem):
        for n in range(IDENTITY_START[theorem], 21):
            assert audited(theorem, n) == reference_audit(theorem, n), n

    @pytest.mark.parametrize("mutation", MUTATIONS)
    def test_equals_the_reference_under_mutation(self, monkeypatch, mutation):
        theorem, name, make = MUTATIONS[mutation]
        monkeypatch.setattr(bijections, name, make())
        for n in range(IDENTITY_START[theorem], 21):
            assert audited(theorem, n) == reference_audit(theorem, n), n
        assert not (verify_t3(9) if theorem == "T3" else verify_bijection(theorem, 9)).ok

    @pytest.mark.parametrize("theorem, domain", [
        ("T1", "spt1"), ("T2", "spt1o"), ("T3", "spt1o"), ("T4e", "be1"), ("T4o", "bo1")])
    def test_passing_audit_lists_only_its_domain(self, monkeypatch, theorem, domain):
        listed = []

        def spy(fam, n):
            listed.append(fam.token)
            return enumeration._listing(fam, n)

        monkeypatch.setattr(bijections, "_listing", spy)
        assert (verify_t3(12) if theorem == "T3" else verify_bijection(theorem, 12)).ok
        assert set(listed) == {domain}

    @staticmethod
    def _collide(monkeypatch, theorem, name, n, branch):
        # send the second trace of `branch` to the output of the first
        first, second = [tr for tr in audit_traces(theorem, n)
                         if tr.branch == branch][:2]
        monkeypatch.setattr(bijections, name, _replacing(
            name, lambda tr: tr._replace(output=first.output)
            if (tr.input, tr.source_tag) == (second.input, second.source_tag) else tr))
        return first, second

    def test_t2_two_inputs_to_one_output(self, monkeypatch):
        self._collide(monkeypatch, "T2", "_labelled_map", 7, "A")
        r = verify_bijection("T2", 7)
        assert not r.ok and not r.injective and not r.surjective
        assert not r.contract_violations
        assert r.problems == ["component PE-copy1: hit 7 of 8 elements"]
        assert audited("T2", 7) == reference_audit("T2", 7)

    def test_t1_two_inputs_to_one_output(self, monkeypatch):
        first, second = self._collide(monkeypatch, "T1", "_labelled_map", 8, "f2")
        size = len(family_elements(FamilySpec("PEX"), 8))
        r = verify_bijection("T1", 8)
        assert not r.ok and not r.injective and not r.surjective
        assert f"component PEX: hit {size - 1} of {size} elements" in r.problems
        assert (f"inverse mismatch: {first.output} -> ({first.input}, {first.source_tag}), "
                f"expected ({second.input}, {second.source_tag})") in r.problems
        # the element the map now misses is named through its inverse
        assert f"forward(inverse({second.output})) != {second.output}" in r.problems
        assert audited("T1", 8) == reference_audit("T1", 8)


class TestImageSets:
    # the audit keeps one set of distinct outputs per component tag: the
    # codomain is a tagged union, so an output counts once under each tag
    # that hits it, as (tag, output) pairs did

    def test_one_output_under_two_tags_is_two_images(self):
        # T2's two copies of pe(n-1) are hit by the same outputs, each once
        r = verify_bijection("T2", 7)
        by_tag = {tag: [tr.output for tr in r.traces if tr.target_tag == tag]
                  for tag in ("PE-copy1", "PE-copy2")}
        assert sorted(by_tag["PE-copy1"]) == sorted(by_tag["PE-copy2"])
        assert len(set(by_tag["PE-copy1"])) == len(by_tag["PE-copy1"]) == 8
        assert len({tr.output for tr in r.traces}) < len(r.traces)
        assert r.injective and r.ok
        assert r.blocks["image:PE-copy1"] == r.blocks["image:PE-copy2"] == 8

    def test_one_output_twice_under_one_tag_breaks_injectivity(self, monkeypatch):
        # retag one copy-2 trace as copy 1: its output, which branch A also
        # makes, is now hit twice under PE-copy1 and not at all under
        # PE-copy2; it stays inside pe(6), so no contract breaks
        victim = next(tr for tr in audit_traces("T2", 7) if tr.target_tag == "PE-copy2")
        monkeypatch.setattr(bijections, "_labelled_map", _replacing(
            "_labelled_map",
            lambda tr: tr._replace(target_tag="PE-copy1") if tr == victim else tr))
        r = verify_bijection("T2", 7)
        assert not r.injective and not r.surjective and not r.ok
        assert not r.contract_violations
        assert r.problems == ["component PE-copy2: hit 7 of 8 elements"]
        assert (r.blocks["image:PE-copy1"], r.blocks["image:PE-copy2"]) == (8, 7)
        assert audited("T2", 7) == reference_audit("T2", 7)

    def test_strays_count_per_tag(self, monkeypatch):
        # two inputs sent to one output outside every component, under two
        # tags: two distinct images, so the audit stays injective but not onto
        first, second = [tr for tr in audit_traces("T2", 7) if tr.branch == "A"][:2]
        stray = first.input  # weight 7, so outside pe(6)
        monkeypatch.setattr(bijections, "_labelled_map", _replacing(
            "_labelled_map", lambda tr: tr._replace(output=stray, target_tag="PE-copy2")
            if tr == second else tr._replace(output=stray) if tr == first else tr))
        r = verify_bijection("T2", 7)
        assert r.injective and not r.surjective
        assert len(r.contract_violations) == 2
        assert f"component PE-copy1: hit 6 of 8 elements; 1 images outside it, e.g. {stray}" \
            in r.problems
        assert f"component PE-copy2: hit 8 of 8 elements; 1 images outside it, e.g. {stray}" \
            in r.problems
        assert audited("T2", 7) == reference_audit("T2", 7)


@st.composite
def members(draw, opposite):
    # a member of spt1 (of spt1o when opposite) built from the bottom: one
    # plain s, then runs above it, each with plain copies and at most one
    # overlined copy; when opposite, the first run lies an odd step above s
    # and each next one an even step, so every value above s has the
    # parity opposite to s.  s = 1 and small gaps are drawn often
    small = st.sampled_from([1, 1, 2, 3])
    s = draw(st.one_of(small, st.integers(1, 60)))
    runs = [(s, 1, 0)]
    for _ in range(draw(st.integers(0, 8))):
        gap = draw(st.one_of(small, st.integers(1, 12)))
        if opposite:
            gap = 2 * gap - (len(runs) == 1)
        over = draw(st.integers(0, 1))
        runs.append((runs[-1][0] + gap, draw(st.integers(1 - over, 3)), over))
    return OverPartition(runs[::-1])


# target tag -> (family token, weight offset from n, whether the family
# carries a sign), written out apart from the module's own table
TARGETS = {
    "PEX": ("pex", 0, False), "PE-copy1": ("pe", -1, False), "PE-copy2": ("pe", -1, False),
    "PE": ("pe", -1, False), "POEX": ("poex", -1, True), "CO": ("co", -1, True),
    "CE": ("ce", -1, True), "SPT1O-N": ("spt1o", 0, True), "SPT1O-N-2": ("spt1o", -2, True),
}


class TestMapProperties:
    # the maps on members far past the exhaustive range, at weights in the
    # hundreds and up to about 2000; n follows from the member's weight and
    # its summand

    @settings(derandomize=True, max_examples=300, deadline=None)
    @given(members(opposite=True), st.sampled_from([SOURCE_N, SOURCE_N_MINUS_2]))
    def test_images_land_in_their_targets_with_their_sign(self, pi, tag):
        # T2, T3 where its router maps, and T4e or T4o, whichever holds pi:
        # the image has weight n plus its target's offset, lies in the
        # target family, and flips sign exactly when that family carries
        # one; parts above s count the input's sign, all parts poex's, co's
        # and ce's, and parts above s spt1o's
        n = pi.weight + (tag == SOURCE_N_MINUS_2) * 2
        s, refined = pi[-1][0], "T4o" if pi.num_parts % 2 == 0 else "T4e"
        for theorem in ("T2", "T3", refined):
            if n < IDENTITY_START[theorem]:
                continue
            tr, where = bijections._audit_trace(theorem, pi, tag, n), (theorem, str(pi), tag)
            if tr is None:  # the matching's image: odd s, not a matching source
                assert theorem == "T3" and s % 2 and (s, tag) != (1, SOURCE_N), where
                continue
            token, offset, signed = TARGETS[tr.target_tag]
            out = tr.output
            assert out.weight == n + offset, where
            assert is_member(out, parse_family_token(token)[0]), where
            assert tr.sign_flip is signed, where
            if signed:
                above = out.num_parts - (token == "spt1o")
                assert (pi.num_parts - 1) % 2 != above % 2, where

    @settings(derandomize=True, max_examples=300, deadline=None)
    @given(members(opposite=False), st.sampled_from([SOURCE_N, SOURCE_N_MINUS_1]))
    def test_t1_inverse_gives_back_input_and_source(self, pi, tag):
        n = pi.weight + (tag == SOURCE_N_MINUS_1)
        if n < IDENTITY_START["T1"]:
            return
        assert inv_t1(map_t1(pi, tag, n).output, n) == (pi, tag), (str(pi), tag)
