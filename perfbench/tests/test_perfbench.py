"""Tests of the benchmark itself: python3 -m pytest perfbench/tests"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
BENCH = HERE.parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import reference  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from check import Checker  # noqa: E402


def _options(op):
    """Each argument mapped to the one after it, enough to read flags."""
    return dict(zip(op[1:], op[2:]))


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_same_operations(workload):
    assert workloads.generate(workload, 7) == workloads.generate(workload, 7)
    assert workloads.generate(workload, 7) != workloads.generate(workload, 8)


@pytest.mark.parametrize("seed", range(5))
def test_operations_stay_in_stated_ranges(seed):
    tokens = set()
    for op in workloads.generate("enum-count", seed):
        opt = _options(op)
        n = int(op[2]) if op[0] == "count" else int(opt["--n-max"])
        assert op[0] in ("count", "table", "verify") and n in workloads.ENUM_N
        if op[0] == "count":
            tokens.add(reference.resolve(op[1], int(opt.get("--k", 1))))
    assert tokens == {reference.resolve(t) for t in workloads.ALL_TOKENS}
    for op in workloads.generate("series-oracle", seed):
        opt = _options(op)
        if op[0] == "series":
            assert int(opt["--order"]) in workloads.SERIES_ORDERS
            assert reference.resolve(op[1], int(opt.get("--k", 1)))[1] in workloads.K_RANGE
        else:
            assert op[0] == "selftest" and int(opt["--n-max"]) in workloads.SELFTEST_N
    for op in workloads.generate("bijection-audit", seed):
        assert op[0] in ("check-bijection", "map") and op[1] in workloads.THEOREMS
        assert int(_options(op)["--n"]) in workloads.AUDIT_N


def test_metric_names_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(run.PER_LAYER)
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    for trace, wanted in ((0, run.END_TO_END), (1, run.PER_LAYER)):
        out = subprocess.run(
            [sys.executable, str(BENCH / "run.py"), "--workload", "bijection-audit",
             "--seed", "3", "--seconds", "0", "--trace", str(trace)],
            capture_output=True, text=True, cwd=ROOT, timeout=180, check=True)
        result = json.loads(out.stdout.strip().splitlines()[-1])
        assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
        assert result["correct"] and result["failed"] == 0  # traced stdout matched untraced
        assert {k: v["unit"] for k, v in result["metrics"].items()} == dict(wanted)


SMALL_OPS = [
    ["count", "spt1", "12"], ["count", "poex-prime", "27"],
    ["table", "--families", "pbar,be2", "--n-max", "9", "--format", "csv"],
    ["verify", "ALL", "--n-max", "10"], ["series", "be1", "--order", "40"],
    ["selftest", "--n-max", "8", "--k-max", "2"],
    ["check-bijection", "T3", "--n", "9", "--golden"], ["check-bijection", "T2", "--n", "10"],
    ["map", "T1", "--input", "5,1", "--n", "6", "--format", "json"],
]


def _pass(tmp: Path, ops, trace: bool, **budgets):
    ops_path = tmp / "ops.json"
    ops_path.write_text(json.dumps(ops))
    return run.run_pass(ops_path, trace, tmp / "spans.bin", **budgets)


@pytest.fixture
def scratch():
    path = run.SCRATCH / "test"
    path.mkdir(parents=True, exist_ok=True)
    yield path
    shutil.rmtree(run.SCRATCH, ignore_errors=True)


def test_spans_nest_and_traced_output_is_identical(scratch):
    plain = _pass(scratch, SMALL_OPS, False)
    traced = _pass(scratch, SMALL_OPS, True)
    assert [r["out"] for r in plain["results"]] == [r["out"] for r in traced["results"]]
    checker = Checker()
    for op, r in zip(SMALL_OPS, plain["results"]):
        assert checker.check(op, r["code"], r["out"]) is None, op
    names, cost, name, parent, start, end = tracing.load(str(scratch / "spans.bin"))
    assert len(start) > 1000
    assert tracing.nesting_errors(parent, start, end) == 0
    raw = tracing.derive(names, name, parent, start, end)
    assert raw["cli.main"]["calls"] == len(SMALL_OPS)
    for span in ("core.stats", "core.member", "enumeration.count_many", "qseries.series_mul",
                 "bijections.map", "bijections.verify_t3", "enumeration.overpartitions.next"):
        assert raw[span]["calls"] > 0, span
    assert all(d["self_s"] >= -1e-9 for d in raw.values())
    assert all(0 <= inside < 1e-4 and 0 < outside < 1e-4 for outside, inside in cost)
    calibrated = tracing.derive(names, name, parent, start, end, cost=cost)
    assert all(calibrated[n]["calls"] == raw[n]["calls"] for n in names)
    assert all(0 <= calibrated[n]["self_s"] <= raw[n]["self_s"] + 1e-9 for n in names
               if raw[n]["self_s"] > 0)


def test_calibrated_costs_come_off_parent_and_child():
    # parent 0..10 with children 1..3 and 4..8; outside 0.5, inside 0.25 per span
    names, name, parent = ["p", "c"], [0, 1, 1], [-1, 0, 0]
    start, end = [0.0, 1.0, 4.0], [10.0, 3.0, 8.0]
    plain = tracing.derive(names, name, parent, start, end)
    assert plain["p"]["self_s"] == 4.0 and plain["c"]["self_s"] == 6.0
    cost = [(0.5, 0.25), (0.5, 0.25)]
    calibrated = tracing.derive(names, name, parent, start, end, cost=cost)
    assert calibrated["p"] == {"calls": 1, "self_s": 4.0 - 2 * 0.5 - 0.25}
    assert calibrated["c"] == {"calls": 2, "self_s": 6.0 - 2 * 0.25}


def test_nesting_errors_detects_a_child_outside_its_parent():
    assert tracing.nesting_errors([-1, 0], [0.0, 0.5], [1.0, 2.0]) == 1
    assert tracing.nesting_errors([-1, 0, 1], [0.0, 0.1, 0.2], [1.0, 0.9, 0.3]) == 0


def test_check_rejects_wrong_values():
    checker = Checker()
    assert checker.check(["count", "pbar", "20"], 0, "7336\n") is None
    assert checker.check(["count", "pbar", "20"], 0, "7337\n") is not None
    assert checker.check(["count", "pbar", "20"], 1, "7336\n") is not None
    checker.coeffs("pbar")[20] += 1  # a deliberately wrong expected value
    assert checker.check(["count", "pbar", "20"], 0, "7336\n") is not None
    assert checker.check(["selftest", "--n-max", "8", "--k-max", "1"], 0,
                         "selftest FAIL: families x n <= 8, k <= 1, order 8\n") is not None
    assert checker.check(["map", "T1", "--input", "5,1", "--n", "6"], 0,
                         "theorem=T1 branch=f1 source=N input=5,1 output=5,1 target=PEX "
                         "signFlip=false\n") is not None


def test_reference_agrees_with_brute_force_and_a015128():
    assert reference.series("pbar", 30) == list(reference.A015128)
    for token in workloads.ALL_TOKENS:
        coeffs = reference.series(token, 12)
        assert coeffs == [reference.count(token, n) for n in range(13)], token


def test_hanging_operation_is_killed(scratch):
    began = time.monotonic()
    p = _pass(scratch, [["count", "pbar", "5"], ["count", "pbar", "60"], ["count", "pbar", "6"]],
              False, op_budget=1.0)
    assert time.monotonic() - began < 20
    assert len(p["results"]) == 1 and p["done"] is None
    assert "overran" in p["reason"]


def test_exits_without_result_when_sources_are_missing(scratch):
    bare = scratch / "bare"
    shutil.copytree(BENCH, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    out = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "enum-count",
                          "--seed", "1", "--seconds", "1", "--trace", "0"],
                         capture_output=True, text=True, cwd=bare, timeout=180)
    assert out.returncode != 0 and out.stdout == ""
