import hashlib
import json
import os
import subprocess
import sys
import time

import pytest

import overpart
import overpart.bijections as bijections
import overpart.cli as cli
import overpart.enumeration as enumeration
import overpart.qseries as qseries
from overpart.cli import MAX_AUDIT_N, MAX_N, MAX_ORDER, main
from overpart.enumeration import profile_tokens
from overpart.qseries import Series
from reference_edit import edit_parts

# trace listings exactly reproducing the worked figures; contents
# verified element by element against the boxed groupings
GOLDEN_T1_6 = """\
== T1 n=6 ==
f1\tN\t4,2 -> 4,2\tPEX
f1\tN\t4o,2 -> 4o,2\tPEX
f1\tN\t6 -> 6\tPEX
f2\tN\t3,2,1 -> 3,2,1o\tPEX
f2\tN\t3,2o,1 -> 3,2o,1o\tPEX
f2\tN\t3o,2,1 -> 3o,2,1o\tPEX
f2\tN\t3o,2o,1 -> 3o,2o,1o\tPEX
f2\tN\t5,1 -> 5,1o\tPEX
f2\tN\t5o,1 -> 5o,1o\tPEX
f3\tN-1\t4,1 -> 4,2o\tPEX
f3\tN-1\t4o,1 -> 4o,2o\tPEX
f3\tN-1\t5 -> 6o\tPEX
f4\tN-1\t2,2,1 -> 2,2,2\tPEX
f4\tN-1\t2o,2,1 -> 2o,2,2\tPEX
f4\tN-1\t3,2 -> 3,3\tPEX
f4\tN-1\t3o,2 -> 3o,3\tPEX"""

GOLDEN_T2_7 = """\
== T2 n=7 ==
A\tN\t2,2,2,1 -> 2,2,2\tPE-copy1
A\tN\t2o,2,2,1 -> 2o,2,2\tPE-copy1
A\tN\t4,2,1 -> 4,2\tPE-copy1
A\tN\t4,2o,1 -> 4,2o\tPE-copy1
A\tN\t4o,2,1 -> 4o,2\tPE-copy1
A\tN\t4o,2o,1 -> 4o,2o\tPE-copy1
A\tN\t6,1 -> 6\tPE-copy1
A\tN\t6o,1 -> 6o\tPE-copy1
B\tN\t5,2 -> 5,1o\tPOEX
B\tN\t5o,2 -> 5o,1o\tPOEX
C\tN\t4,3 -> 4,2o\tPE-copy2
C\tN\t4o,3 -> 4o,2o\tPE-copy2
C\tN\t7 -> 6o\tPE-copy2
D\tN-2\t3,2 -> 3,3\tPOEX
D\tN-2\t3o,2 -> 3o,3\tPOEX
E\tN-2\t2,2,1 -> 2,2,2\tPE-copy2
E\tN-2\t2o,2,1 -> 2o,2,2\tPE-copy2
E\tN-2\t4,1 -> 4,2\tPE-copy2
E\tN-2\t4o,1 -> 4o,2\tPE-copy2
E\tN-2\t5 -> 6\tPE-copy2"""

GOLDEN_T3_9 = """\
== T3 n=9 ==
even-n\tN\t5,4 -> 5,3o\tPOEX
even-n\tN\t5o,4 -> 5o,3o\tPOEX
even-n\tN\t7,2 -> 7,1o\tPOEX
even-n\tN\t7o,2 -> 7o,1o\tPOEX
even-n-2\tN-2\t5,2 -> 5,3\tPOEX
even-n-2\tN-2\t5o,2 -> 5o,3\tPOEX
odd-overlined\tN\t6,2o,1 -> 6,3\tSPT1O-N
odd-overlined\tN\t6o,2o,1 -> 6o,3\tSPT1O-N
odd-overlined\tN\t8o,1 -> 9\tSPT1O-N
odd-plain\tN\t2,2,2,2,1 -> 2,2,2,1\tSPT1O-N-2
odd-plain\tN\t2o,2,2,2,1 -> 2o,2,2,1\tSPT1O-N-2
odd-plain\tN\t4,2,2,1 -> 4,2,1\tSPT1O-N-2
odd-plain\tN\t4,2o,2,1 -> 4,2o,1\tSPT1O-N-2
odd-plain\tN\t4,4,1 -> 4,3\tSPT1O-N-2
odd-plain\tN\t4o,2,2,1 -> 4o,2,1\tSPT1O-N-2
odd-plain\tN\t4o,2o,2,1 -> 4o,2o,1\tSPT1O-N-2
odd-plain\tN\t4o,4,1 -> 4o,3\tSPT1O-N-2
odd-plain\tN\t6,2,1 -> 6,1\tSPT1O-N-2
odd-plain\tN\t6o,2,1 -> 6o,1\tSPT1O-N-2
odd-plain\tN\t8,1 -> 7\tSPT1O-N-2"""

GOLDEN_T4E_9 = """\
== T4e n=9 ==
CaseII-n\tN\t9 -> 8o\tPE
CaseII-n-2\tN-2\t4,2,1 -> 4,2,2\tPE
CaseII-n-2\tN-2\t4,2o,1 -> 4,2o,2\tPE
CaseII-n-2\tN-2\t4o,2,1 -> 4o,2,2\tPE
CaseII-n-2\tN-2\t4o,2o,1 -> 4o,2o,2\tPE
CaseII-n-2\tN-2\t7 -> 8\tPE
CaseII-s1\tN\t2,2,2,2,1 -> 2,2,2,2\tPE
CaseII-s1\tN\t2o,2,2,2,1 -> 2o,2,2,2\tPE
CaseII-s1\tN\t4,4,1 -> 4,4\tPE
CaseII-s1\tN\t4o,4,1 -> 4o,4\tPE
CaseII-s1\tN\t6,2,1 -> 6,2\tPE
CaseII-s1\tN\t6,2o,1 -> 6,2o\tPE
CaseII-s1\tN\t6o,2,1 -> 6o,2\tPE
CaseII-s1\tN\t6o,2o,1 -> 6o,2o\tPE"""


GOLDEN_T4O_9 = """\
== T4o n=9 ==
CaseI-n\tN\t5,4 -> 5,3o\tCE
CaseI-n\tN\t5o,4 -> 5o,3o\tCE
CaseI-n\tN\t7,2 -> 7,1o\tCE
CaseI-n\tN\t7o,2 -> 7o,1o\tCE
CaseI-n-2\tN-2\t5,2 -> 5,3\tCE
CaseI-n-2\tN-2\t5o,2 -> 5o,3\tCE
CaseII-n\tN\t6,3 -> 6,2o\tPE
CaseII-n\tN\t6o,3 -> 6o,2o\tPE
CaseII-n-2\tN-2\t2,2,2,1 -> 2,2,2,2\tPE
CaseII-n-2\tN-2\t2o,2,2,1 -> 2o,2,2,2\tPE
CaseII-n-2\tN-2\t4,3 -> 4,4\tPE
CaseII-n-2\tN-2\t4o,3 -> 4o,4\tPE
CaseII-n-2\tN-2\t6,1 -> 6,2\tPE
CaseII-n-2\tN-2\t6o,1 -> 6o,2\tPE
CaseII-s1\tN\t4,2,2,1 -> 4,2,2\tPE
CaseII-s1\tN\t4,2o,2,1 -> 4,2o,2\tPE
CaseII-s1\tN\t4o,2,2,1 -> 4o,2,2\tPE
CaseII-s1\tN\t4o,2o,2,1 -> 4o,2o,2\tPE
CaseII-s1\tN\t8,1 -> 8\tPE
CaseII-s1\tN\t8o,1 -> 8o\tPE"""


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestCount:
    def test_spt1_6(self, capsys):
        assert run(capsys, "count", "spt1", "6")[:2] == (0, "9\n")

    def test_pe_8(self, capsys):
        assert run(capsys, "count", "pe", "8")[:2] == (0, "14\n")

    def test_poex_prime_8(self, capsys):
        assert run(capsys, "count", "poex-prime", "8")[:2] == (0, "6\n")

    def test_k_flag(self, capsys):
        # b_e(1,9) - b_o(1,9) = 9 - 12
        code, out, _ = run(capsys, "count", "sptko-prime", "9", "--k", "1")
        assert code == 0 and out.strip() == "-3"

    def test_negative_n_rejected(self, capsys):
        assert run(capsys, "count", "pbar", "-1") == (
            2, "", "error: n must be nonnegative\nrun 'overpart count --help' for usage\n")

    def test_unknown_family(self, capsys):
        code, _, err = run(capsys, "count", "nope", "6")
        assert code == 2
        assert "unknown family" in err


class TestTable:
    def test_csv_row(self, capsys):
        code, out, _ = run(capsys, "table", "--families", "spt1,pex",
                           "--n-max", "6", "--format", "csv")
        lines = out.strip().splitlines()
        assert code == 0
        assert lines[0] == "n,spt1,pex"
        assert lines[-1] == "6,9,16"

    def test_weight_zero_row(self, capsys):
        code, out, _ = run(capsys, "table", "--families", "spt1,pex",
                           "--n-max", "0", "--format", "csv")
        assert code == 0
        assert out.strip().splitlines()[-1] == "0,0,1"

    def test_no_families_rejected(self, capsys):
        assert run(capsys, "table", "--families", ",", "--n-max", "3") == (
            2, "", "error: no families given\nrun 'overpart table --help' for usage\n")

    def test_pbar(self, capsys):
        code, out, _ = run(capsys, "table", "--families", "pbar",
                           "--n-max", "4", "--format", "csv")
        assert code == 0
        assert out.strip().splitlines()[-1] == "4,14"

    def test_json_counts_as_strings(self, capsys):
        code, out, _ = run(capsys, "table", "--families", "pe,poex-prime",
                           "--n-max", "3", "--format", "json")
        rows = json.loads(out)
        assert code == 0
        assert rows[2] == {"n": 2, "pe": "2", "poex-prime": "0"}

    def test_text_format(self, capsys):
        code, out, _ = run(capsys, "table", "--families", "pbar", "--n-max", "2")
        assert code == 0
        assert "pbar" in out

    def test_out_file(self, capsys, tmp_path):
        target = tmp_path / "t.csv"
        code, out, _ = run(capsys, "table", "--families", "pbar", "--n-max", "1",
                           "--format", "csv", "--out", str(target))
        assert code == 0 and out == ""
        assert target.read_text().strip().splitlines()[-1] == "1,2"


class TestVerify:
    def test_t1_pass_lines(self, capsys):
        code, out, _ = run(capsys, "verify", "T1", "--n-max", "30")
        lines = out.strip().splitlines()
        assert code == 0
        assert len(lines) == 29
        assert all(line.endswith("PASS") for line in lines)

    def test_t3_shows_signed_values(self, capsys):
        code, out, _ = run(capsys, "verify", "T3", "--n-max", "12")
        assert code == 0
        assert "T3 n=9: -6 = -6 PASS" in out

    def test_all(self, capsys):
        code, out, _ = run(capsys, "verify", "ALL", "--n-max", "20")
        assert code == 0
        assert "FAIL" not in out

    def test_unknown_identity(self, capsys):
        assert run(capsys, "verify", "T9", "--n-max", "5")[0] == 2


class TestMap:
    def test_t1_text(self, capsys):
        code, out, _ = run(capsys, "map", "T1", "--input", "5,1",
                           "--source", "N", "--n", "6")
        assert code == 0
        assert "branch=f2" in out and "output=5,1o" in out

    def test_t3_ambiguous_s2_text(self, capsys):
        assert run(capsys, "map", "T3", "--input", "4,2o,2,1", "--n", "9") == (
            0, "theorem=T3 branch=odd-plain source=N input=4,2o,2,1 output=4,2o,1 "
               "target=SPT1O-N-2 signFlip=true ambiguousS2=true\n", "")

    @pytest.mark.parametrize("theorem, literal, message", [
        ("T1", "4", "T1 source must be N or N-1"),
        ("T2", "5", "T2 source must be N or N-2"),
        ("T4o", "5", "T4o source must be N or N-2"),
    ])
    def test_bad_source_exits_3(self, capsys, theorem, literal, message):
        source = "N-2" if theorem == "T1" else "N-1"
        assert run(capsys, "map", theorem, "--input", literal, "--n", "6",
                   "--source", source) == (3, "", f"error: {message}\n")

    def test_t3_dispatch(self, capsys):
        code, out, _ = run(capsys, "map", "T3", "--input", "8,1", "--n", "9")
        assert code == 0
        assert "branch=odd-plain" in out and "output=7" in out

    def test_t2_json(self, capsys):
        code, out, _ = run(capsys, "map", "T2", "--input", "3,2",
                           "--source", "N-2", "--n", "7", "--format", "json")
        assert code == 0
        trace = json.loads(out)
        assert trace["branch"] == "D"
        assert trace["output"] == "3,3"
        assert trace["targetTag"] == "POEX"

    def test_membership_failure_names_clause(self, capsys):
        code, _, err = run(capsys, "map", "T1", "--input", "2,2,2",
                           "--source", "N", "--n", "6")
        assert code == 3
        assert "appears 3 time(s); must appear exactly 1" in err

    def test_bad_literal(self, capsys):
        assert run(capsys, "map", "T1", "--input", "2x", "--source", "N",
                   "--n", "6")[0] == 2

    def test_t3_odd_s_is_a_matching_image(self, capsys):
        # a member of spt1o(7) with odd s > 1 is hit by the matching, not mapped
        code, out, err = run(capsys, "map", "T3", "--input", "4,3", "--n", "7")
        assert (code, out) == (3, "")
        assert "got 3" in err
        assert "are images of the T3 matching, not sources" in err

    def test_t3_non_member_keeps_membership_message(self, capsys):
        code, out, err = run(capsys, "map", "T3", "--input", "5,3", "--n", "8")
        assert (code, out) == (3, "")
        assert err == ("error: T3 even-s source N: 5,3 is not in spt1o(8): part 5 "
                       "has the same parity as the smallest plain part 3\n")


class TestCheckBijection:
    def test_t4e_single(self, capsys):
        code, out, _ = run(capsys, "check-bijection", "T4e", "--n", "9")
        assert code == 0
        assert "domain 14 = codomain 14" in out and "PASS" in out

    def test_t1_range(self, capsys):
        code, out, _ = run(capsys, "check-bijection", "T1", "--n-max", "14")
        assert code == 0
        assert out.count("PASS") == 13

    def test_t3_blocks(self, capsys):
        code, out, _ = run(capsys, "check-bijection", "T3", "--n", "9")
        assert code == 0
        assert "matching 14 -> 14, even 6 -> 6" in out

    @pytest.mark.parametrize("theorem,n,golden", [
        ("T1", "6", GOLDEN_T1_6),
        ("T2", "7", GOLDEN_T2_7),
        ("T3", "9", GOLDEN_T3_9),
        ("T4e", "9", GOLDEN_T4E_9),
        ("T4o", "9", GOLDEN_T4O_9),
    ])
    def test_golden_groupings(self, capsys, theorem, n, golden):
        code, out, _ = run(capsys, "check-bijection", theorem, "--n", n, "--golden")
        assert code == 0
        assert out.strip().splitlines()[1:] == golden.splitlines()

    @pytest.mark.parametrize("theorem", ["T1", "T2", "T3", "T4e", "T4o"])
    def test_golden_runs_each_map_once(self, capsys, monkeypatch, theorem):
        # the listing reads the audit's own traces, so no domain element
        # is mapped a second time for it
        calls = []
        real = bijections._audit_trace

        def counted(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(bijections, "_audit_trace", counted)
        code, out, _ = run(capsys, "check-bijection", theorem, "--n-max", "10", "--golden")
        assert code == 0
        assert len(calls) == len(set(calls)) > 0
        assert out.count("\n== ") == 11 - cli.IDENTITY_START[theorem]

    @pytest.mark.parametrize("theorem", ["T1", "T2", "T3", "T4e", "T4o"])
    def test_golden_lines_sort_as_text_in_key_order(self, theorem):
        # sorted as text, the lines fall in (branch, source, input text)
        # order: tab and space sort below every character of a label or a
        # literal.  No two traces share a key, so that order is total.  T4o's
        # domain is empty at even n
        def key(tr):
            return tr.branch, tr.source_tag, tr.input.to_text()

        seen = 0
        for n in range(cli.IDENTITY_START[theorem], 15):
            r = (bijections.verify_t3(n, traces=True) if theorem == "T3"
                 else bijections.verify_bijection(theorem, n, traces=True))
            assert len({key(tr) for tr in r.traces}) == len(r.traces)
            seen += len(r.traces)
            want = [f"{tr.branch}\t{tr.source_tag}\t{tr.input} -> {tr.output}\t{tr.target_tag}"
                    for tr in sorted(r.traces, key=key)]
            lines, ok = cli._audit_lines(theorem, n, True)
            assert ok and lines[2:] == want and lines[1] == f"== {theorem} n={n} ==", n
        assert seen

    @pytest.mark.parametrize("theorem", ["T1", "T2", "T3", "T4e", "T4o"])
    def test_traces_kept_only_for_golden(self, capsys, monkeypatch, theorem):
        asked = []
        for name in ("verify_bijection", "verify_t3"):
            real = getattr(cli, name)

            def spy(*args, traces, real=real):
                asked.append(traces)
                return real(*args, traces=traces)
            monkeypatch.setattr(cli, name, spy)
        assert run(capsys, "check-bijection", theorem, "--n", "9")[0] == 0
        assert run(capsys, "check-bijection", theorem, "--n", "9", "--golden")[0] == 0
        assert asked == [False, True]

    def test_failed_audit_exits_1_with_problems(self, capsys, monkeypatch):
        # a map that sends the POEX branches to the wrong component
        real = bijections._labelled_map

        def wrong(*args):
            tr = real(*args)
            if tr.target_tag == "POEX":
                return tr._replace(target_tag="PE-copy1")
            return tr

        monkeypatch.setattr(bijections, "_labelled_map", wrong)
        code, out, _ = run(capsys, "check-bijection", "T2", "--n", "7")
        assert code == 1
        assert "NOT bijective FAIL" in out
        assert "  problem: component POEX: hit 0 of 4 elements" in out.splitlines()
        # the relabelled images have the right weight but are not in pe(6)
        assert out.count("  violation: ") == 4

    def test_failed_t3_signed_identity_exits_1(self, capsys, monkeypatch):
        monkeypatch.setattr(bijections, "identity_sides", lambda name, n: (1, 2))
        assert run(capsys, "check-bijection", "T3", "--n", "9") == (
            1, "T3 n=9: matching 14 -> 14, even 6 -> 6 FAIL\n"
               "  problem: signed identity fails: 1 != 2\n", "")

    def test_failed_t1_round_trip_exits_1_with_problems(self, capsys, monkeypatch):
        # f3 images one part heavier leave pex(8), so inv_t1 rejects them
        real = bijections._labelled_map

        def heavy(*args):
            tr = real(*args)
            if tr.branch == "f3":
                return tr._replace(output=edit_parts(tr.output, add=[(1, False)]))
            return tr

        monkeypatch.setattr(bijections, "_labelled_map", heavy)
        code, out, err = run(capsys, "check-bijection", "T1", "--n", "8")
        assert (code, err) == (1, "")
        assert "NOT bijective FAIL" in out
        lines = out.splitlines()
        assert "  problem: inverse(8o,1): T1 inverse: 8o,1 has weight 9, expected 8" in lines
        assert out.count("  violation: ") == 7


# SHA-256 of the stdout of `check-bijection T --n-max 18 --golden`, as the
# maps printed it when every move still edited one entry at a time, before
# they became rewrites of the last two runs
AUDIT_DIGESTS = {
    "T1": "5c209c5cb03cfd3e9f6b7024868225558a16fde1f66d53fc47063538210b191c",
    "T2": "d493d8097a28b3afb7a29b54bb267d933eecd271e92c7ad1fdcdf4e7026dba98",
    "T3": "44531c902f6501f2bbb2b4435a5d48adb296666811267bbac4126b0921c0fe53",
    "T4e": "d7e16da2d273096370cb9008a3dfeaf6f6b048c2bad48077c77a8682f50c53d1",
    "T4o": "214ddf8c37850e618365f4450082f8d8cfed63957673f78d36cf94ae7c8fc830",
}


class TestAuditDigests:
    @pytest.mark.parametrize("theorem", AUDIT_DIGESTS)
    def test_audits_to_18_print_the_pinned_bytes(self, capsys, theorem):
        code, out, err = run(capsys, "check-bijection", theorem, "--n-max", "18", "--golden")
        assert (code, err) == (0, "")
        assert hashlib.sha256(out.encode()).hexdigest() == AUDIT_DIGESTS[theorem]


class TestSeries:
    def test_coefficient_lines(self, capsys):
        code, out, _ = run(capsys, "series", "pbar", "--order", "6")
        lines = out.strip().splitlines()
        assert code == 0
        assert lines[0] == "0\t1"
        assert lines[4] == "4\t14"
        assert len(lines) == 7

    def test_signed_token(self, capsys):
        code, out, _ = run(capsys, "series", "spt1o-prime", "--order", "9")
        assert code == 0
        assert out.strip().splitlines()[9].startswith("9\t")

    def test_env_order(self, capsys, monkeypatch):
        monkeypatch.setenv("OVERPART_ORDER", "5")
        code, out, _ = run(capsys, "series", "pe")
        assert code == 0
        assert len(out.strip().splitlines()) == 6

    def test_signed_rejected_for_unsigned_family(self, capsys):
        assert run(capsys, "series", "pe-prime", "--order", "5")[0] == 2

    @pytest.mark.parametrize("argv", [
        ("series", "pbar"),
        ("selftest", "--n-max", "4"),
    ])
    def test_order_above_cap(self, capsys, argv):
        code, out, err = run(capsys, *argv, "--order", str(MAX_ORDER + 1))
        assert (code, out) == (2, "")
        assert f"above the cap {MAX_ORDER}" in err

    def test_env_order_above_cap_ignored(self, capsys, monkeypatch):
        monkeypatch.setenv("OVERPART_ORDER", str(MAX_ORDER + 1))
        code, out, err = run(capsys, "series", "pe")
        assert code == 0
        assert len(out.strip().splitlines()) == cli.DEFAULT_ORDER + 1
        assert f"ignoring invalid OVERPART_ORDER='{MAX_ORDER + 1}'" in err
        assert str(MAX_ORDER) in err

    @pytest.mark.parametrize("argv, engine", [
        (("series", "pbar"), "series_for_token"),
        (("selftest", "--n-max", "4"), "cross_check"),
    ])
    def test_order_at_cap_accepted(self, capsys, monkeypatch, argv, engine):
        # the cap check alone: a stub stands in for the O(order^2) tables
        seen = []

        def stub(*args):
            seen.append(args)
            return Series(1, (1, 0)) if engine == "series_for_token" else []

        monkeypatch.setattr(cli, engine, stub)
        code, _, err = run(capsys, *argv, "--order", str(MAX_ORDER))
        assert (code, err) == (0, "")
        assert MAX_ORDER in seen[0]

    @pytest.mark.parametrize("order", ["0", "-1", "-5"])
    @pytest.mark.parametrize("token", list(dict.fromkeys(
        profile_tokens(4) + ["pbar", "pe", "pex", "poex", "ce", "co", "poex-prime"])))
    def test_order_below_1_rejected_before_any_table(self, capsys, monkeypatch, token, order):
        monkeypatch.setattr(qseries, "_backward_pass", lambda *args: pytest.fail("built"))
        code, out, err = run(capsys, "series", token, "--order", order)
        assert (code, out) == (2, "")
        assert err.startswith("error: order must be >= 1\n")
        assert "Traceback" not in err


# every command that counts by enumeration, with n in place of its weight
ENUMERATING = [
    ("count", "pbar", "{n}"),
    ("count", "sptko-prime", "{n}", "--k", "2"),
    ("table", "--families", "pbar,spt1o-prime", "--n-max", "{n}", "--format", "csv"),
    ("verify", "ALL", "--n-max", "{n}"),
    ("verify", "T1", "--n-max", "{n}"),
]

# the commands that enumerate beyond count, table and verify: selftest
# under MAX_N, check-bijection under its theorem's cap
GUARDED = [
    (("selftest", "--n-max", "{n}", "--k-max", "1"), MAX_N),
    (("check-bijection", "T1", "--n", "{n}"), MAX_AUDIT_N["T1"]),
    (("check-bijection", "T1", "--n-max", "{n}"), MAX_AUDIT_N["T1"]),
] + [(("check-bijection", theorem, option, "{n}"), MAX_AUDIT_N[theorem])
     for theorem, option in (("T2", "--n"), ("T3", "--n-max"), ("T4e", "--n"), ("T4o", "--n-max"))]


class TestEnumerationCap:
    @pytest.fixture
    def engine(self, monkeypatch):
        # stubs record the weights asked for, in place of the enumeration
        seen = []

        def counts(n, columns):
            seen.append(n)
            return [0] * len(columns)

        def sides(identity, n):
            seen.append(n)
            return 0, 0

        monkeypatch.setattr(cli, "count_many", counts)
        monkeypatch.setattr(cli, "identity_sides", sides)
        return seen

    @pytest.mark.parametrize("argv", ENUMERATING)
    @pytest.mark.parametrize("n", [30, MAX_N - 1, MAX_N])
    def test_at_or_below_cap_accepted(self, capsys, engine, argv, n):
        code, _, err = run(capsys, *(a.format(n=n) for a in argv))
        assert (code, err) == (0, "")
        assert max(engine) == n

    @pytest.mark.parametrize("argv", ENUMERATING)
    # count pbar 60 ran for more than 8 s before the cap existed
    @pytest.mark.parametrize("n", [MAX_N + 1, 60, 10 ** 30])
    def test_above_cap_rejected_before_enumerating(self, capsys, engine, argv, n):
        code, out, err = run(capsys, *(a.format(n=n) for a in argv))
        assert (code, out, engine) == (2, "", [])
        assert err.startswith(f"error: n = {n} is above the enumeration cap {MAX_N}; ")
        assert "'series'" in err

    @pytest.fixture
    def audit_engine(self, monkeypatch):
        seen = []

        def cross_check(n_max, k_max, order):
            seen.append(n_max)
            return []

        def audit(theorem, n, *, traces=False):
            seen.append(n)
            blocks = dict.fromkeys(("odd-domain", "odd-image", "even-domain", "poex"), 0)
            return bijections.VerificationReport(theorem, n, 0, 0, True, True, blocks=blocks)

        monkeypatch.setattr(cli, "cross_check", cross_check)
        monkeypatch.setattr(cli, "verify_bijection", audit)
        monkeypatch.setattr(cli, "verify_t3", lambda n, *, traces=False: audit("T3", n))
        return seen

    @pytest.mark.parametrize("argv,cap", GUARDED)
    def test_guarded_at_cap_accepted(self, capsys, audit_engine, argv, cap):
        code, _, err = run(capsys, *(a.format(n=cap) for a in argv))
        assert (code, err) == (0, "")
        assert max(audit_engine) == cap

    # selftest --n-max 60 ran for more than 40 s before its cap existed
    @pytest.mark.parametrize("argv,cap,n", [(argv, cap, n) for argv, cap in GUARDED
                                            for n in (cap + 1, 60, 10 ** 30)])
    def test_guarded_above_cap_rejected_before_enumerating(self, capsys, audit_engine,
                                                           argv, cap, n):
        code, out, err = run(capsys, *(a.format(n=n) for a in argv))
        assert (code, out, audit_engine) == (2, "", [])
        assert err.startswith(f"error: n = {n} is above the enumeration cap {cap}")


class TestSelftest:
    def test_small_pass(self, capsys):
        code, out, _ = run(capsys, "selftest", "--n-max", "12", "--k-max", "2",
                           "--order", "12")
        assert code == 0
        assert "selftest PASS" in out

    def test_mismatch_lines_exit_1(self, capsys, monkeypatch):
        monkeypatch.setattr(cli, "cross_check", lambda *args: [("pbar", 3, 8, 9)])
        assert run(capsys, "selftest", "--n-max", "3") == (
            1, "MISMATCH pbar n=3: enumeration 8, series 9\n"
               "selftest FAIL: families x n <= 3, k <= 4, order 3\n", "")

    def test_n0(self, capsys):
        code, out, _ = run(capsys, "selftest", "--n-max", "0", "--k-max", "1")
        assert code == 0

    def test_order_0_rejected(self, capsys):
        code, out, err = run(capsys, "selftest", "--n-max", "0", "--order", "0")
        assert (code, out) == (2, "")
        assert err.startswith("error: order must be >= 1\n")
        assert "Traceback" not in err

    def test_order_too_small(self, capsys):
        code, _, err = run(capsys, "selftest", "--n-max", "10", "--order", "4")
        assert code == 2
        assert "order" in err

    def test_k_max_clamped_to_n_max(self, capsys, monkeypatch):
        # columns with k > n-max are 0 on both sides, so they are not built;
        # the verdict line still names the k-max given
        small = run(capsys, "selftest", "--n-max", "3", "--k-max", "4")
        built = []
        real = qseries.series_for_token

        def recording(token, order, default_k=1):
            built.append(token)
            return real(token, order, default_k)

        monkeypatch.setattr(qseries, "series_for_token", recording)
        code, out, err = run(capsys, "selftest", "--n-max", "3", "--k-max", "100000")
        assert (code, out, err) == (small[0], small[1].replace("k <= 4", "k <= 100000"),
                                    small[2])
        assert "selftest PASS" in out
        assert built == profile_tokens(3)

    @pytest.mark.parametrize("k_max", ["0", "-2"])
    def test_k_max_below_1_rejected(self, capsys, monkeypatch, k_max):
        # selftest --k-max -2 used to print "selftest PASS: ... k <= -2"
        monkeypatch.setattr(cli, "cross_check", lambda *args: pytest.fail("cross-checked"))
        assert run(capsys, "selftest", "--n-max", "5", "--k-max", k_max) == (
            2, "", f"error: --k-max {k_max} checks nothing; selftest needs --k-max >= 1\n"
                   "run 'overpart selftest --help' for usage\n")


class TestCountingWalksNothing:
    # count, table and verify at the cap read the run-state memo: cold
    # counts with the run walk and the listing disabled

    @pytest.fixture(autouse=True)
    def no_walk(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("walked the runs")

        enumeration._token_counts.cache_clear()
        monkeypatch.setattr(enumeration, "_runs", refuse)
        monkeypatch.setattr(enumeration, "overpartitions", refuse)

    def test_count_at_cap(self, capsys):
        assert run(capsys, "count", "pbar", str(MAX_N)) == (0, "1967696\n", "")

    def test_table_at_cap_equals_the_series(self, capsys):
        tokens = profile_tokens(4)
        code, out, err = run(capsys, "table", "--families", ",".join(tokens),
                             "--n-max", str(MAX_N), "--format", "csv")
        assert (code, err) == (0, "")
        columns = [qseries.series_for_token(tok, MAX_N).coeffs for tok in tokens]
        assert out.splitlines()[1:] == [f"{n}," + ",".join(str(c[n]) for c in columns)
                                        for n in range(MAX_N + 1)]

    def test_verify_all_at_cap(self, capsys):
        code, out, err = run(capsys, "verify", "ALL", "--n-max", str(MAX_N))
        lines = out.splitlines()
        assert (code, err) == (0, "")
        assert len(lines) == (MAX_N - 1) + 4 * (MAX_N - 2)
        assert all(line.endswith(" PASS") for line in lines)


# one shape of each command and output format, each with a small n
OUT_SHAPES = [
    ("count", "spt1", "6"),
    ("table", "--families", "spt1,pex", "--n-max", "6", "--format", "csv"),
    ("table", "--families", "spt1,pex", "--n-max", "6", "--format", "json"),
    ("table", "--families", "spt1,pex", "--n-max", "6"),
    ("verify", "ALL", "--n-max", "8"),
    ("map", "T1", "--input", "5,1", "--source", "N", "--n", "6"),
    ("map", "T3", "--input", "8,1", "--n", "9", "--format", "json"),
    ("check-bijection", "T1", "--n-max", "6", "--golden"),
    ("check-bijection", "T3", "--n", "9"),
    ("series", "pbar", "--order", "10"),
    ("selftest", "--n-max", "8", "--k-max", "2"),
]


class TestStartUp:
    def test_import_leaves_dataclasses_and_inspect_out(self):
        # every command starts a fresh process; the package's value types are
        # named tuples and plain classes, so importing it and building the
        # parser pulls in neither dataclasses nor inspect
        src = os.path.dirname(os.path.dirname(overpart.__file__))
        code = ("import sys; import overpart.cli; overpart.cli.build_parser(); "
                "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))")
        env = {**os.environ, "PYTHONPATH": src}
        done = subprocess.run([sys.executable, "-s", "-c", code], capture_output=True,
                              text=True, env=env, check=True)
        assert done.stdout == "[]\n"


class TestUsage:
    def test_no_command(self, capsys):
        assert run(capsys, )[0] == 2

    def test_consecutive_calls_share_no_state(self, capsys):
        # the parser is built once per process; no option value may carry
        # over from one call to the next
        assert cli.build_parser() is cli.build_parser()
        spt3 = run(capsys, "count", "sptk", "10", "--k", "3")
        assert run(capsys, "count", "sptk", "10", "--k")[0] == 2
        assert run(capsys, "count", "sptk", "10") == run(capsys, "count", "spt1", "10")
        assert run(capsys, "count", "spt3", "10") == spt3
        assert spt3[1] != run(capsys, "count", "spt1", "10")[1]

    def test_help_exits_zero(self, capsys):
        assert run(capsys, "--help")[0] == 0

    @pytest.mark.parametrize("argv", OUT_SHAPES)
    def test_out_file_holds_what_stdout_shows(self, capsys, tmp_path, argv):
        shown = run(capsys, *argv)
        path = tmp_path / "out.txt"
        code, out, err = run(capsys, *argv, "--out", str(path))
        assert (code, out, err) == (shown[0], "", shown[2])
        assert path.read_text(encoding="utf-8") == shown[1]

    def test_out_file_keeps_a_failed_verification(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setattr(cli, "identity_sides", lambda name, n: (n, n + 1))
        shown = run(capsys, "verify", "T2", "--n-max", "5")
        path = tmp_path / "out.txt"
        code, out, err = run(capsys, "verify", "T2", "--n-max", "5", "--out", str(path))
        assert shown[0] == code == 1
        assert (out, err) == ("", "")
        assert path.read_text(encoding="utf-8") == shown[1] == (
            "T2 n=3: 3 != 4 FAIL\nT2 n=4: 4 != 5 FAIL\nT2 n=5: 5 != 6 FAIL\n")

    @pytest.mark.parametrize("target", ["dir", "missing/x"])
    def test_unwritable_out_exits_2(self, capsys, tmp_path, target):
        (tmp_path / "dir").mkdir()
        path = tmp_path / target
        code, out, err = run(capsys, "count", "spt1", "6", "--out", str(path))
        assert (code, out) == (2, "")
        assert err.startswith(f"error: cannot write {path}: ")
        assert "Traceback" not in err

    @pytest.mark.parametrize("argv", [
        ("table", "--families", "pbar", "--n-max", "-1"),
        ("selftest", "--n-max", "-1"),
        ("verify", "T1", "--n-max", "1"),
        ("verify", "T4e", "--n-max", "2"),
        ("verify", "ALL", "--n-max", "1"),
        ("check-bijection", "T1", "--n-max", "1"),
        ("check-bijection", "T3", "--n-max", "2"),
    ])
    def test_empty_range_rejected(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, "")
        assert "checks nothing" in err


# inputs that could hang, allocate without bound or end in a traceback: a
# huge or negative --k, a huge --k-max, an order and an n above each cap,
# and bad OVERPART_ORDER values; each with the exit code it must give
HOSTILE = [
    (("count", "spt1", "10", "--k", "100000000000"), None, 0),
    (("count", "sptk", "10", "--k", "100000000000"), None, 0),
    (("count", "sptk", "10", "--k", "-3"), None, 2),
    (("series", "sptko", "--order", "50", "--k", "-3"), None, 2),
    (("selftest", "--k-max", "100000000"), None, 0),
    (("series", "sptk", "--order", "50", "--k", "10000000"), None, 0),
    (("series", "pbar", "--order", str(MAX_ORDER + 1)), None, 2),
    (("selftest", "--n-max", "4", "--order", str(MAX_ORDER + 1)), None, 2),
    (("count", "pbar", str(MAX_N + 1)), None, 2),
    (("table", "--families", "pbar", "--n-max", str(MAX_N + 1)), None, 2),
    (("verify", "ALL", "--n-max", str(MAX_N + 1)), None, 2),
    (("selftest", "--n-max", str(MAX_N + 1)), None, 2),
    *((("check-bijection", theorem, "--n", str(cap + 1)), None, 2)
      for theorem, cap in MAX_AUDIT_N.items()),
    *((("series", "pe"), env, 0) for env in ("abc", "-5", "0", "1e3", str(MAX_ORDER + 1))),
    # map keeps its own code for an input outside the map's domain
    (("map", "T2", "--input", "5,3", "--n", "8"), None, 3),
]


class TestHostileInputs:
    @pytest.mark.parametrize("argv, env, expected", HOSTILE)
    def test_exits_quickly_with_its_code(self, capsys, monkeypatch, argv, env, expected):
        if env is None:
            monkeypatch.delenv("OVERPART_ORDER", raising=False)
        else:
            monkeypatch.setenv("OVERPART_ORDER", env)
        start = time.perf_counter()
        code, out, err = run(capsys, *argv)
        assert time.perf_counter() - start < 5
        assert code == expected
        assert "Traceback" not in err
        if code:
            assert out == "" and err.startswith("error: ")
        if env is not None:
            assert err.startswith(f"ignoring invalid OVERPART_ORDER={env!r}")
            assert len(out.splitlines()) == cli.DEFAULT_ORDER + 1
