"""Benchmark for the ``overpart`` command line: three seeded workloads run
through ``overpart.cli.main`` in fresh processes, with every answer
checked against an independent reference.

    python3 perfbench/run.py --workload enum-count --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all          # every workload, one table

Within ``--seconds`` the benchmark repeats passes.  A pass is one
workload process that starts cold, imports the package from ``src/``
and runs the seed's operation list one operation after another (a
closed loop with one client).  Caches persist from one operation to the
next within a pass.  With ``--trace 0`` it reports the end-to-end
metrics: medians over passes, and latency percentiles over every
operation of every pass.  With ``--trace 1`` it alternates untraced and
traced passes of the same operations, requires byte-identical stdout
from both, and reports the per-layer metrics from the traced ones.

The last line of stdout is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  The exit code is 2, with no
result, when the checkout has no ``src/overpart`` to benchmark.
"""

from __future__ import annotations

import argparse
import json
import os
import selectors
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import tracing  # noqa: E402
import workloads  # noqa: E402
from check import Checker  # noqa: E402

ROOT = HERE.parent
WORKER = HERE / "worker.py"
SCRATCH = ROOT / ".perfbench"

SETUP_SPAWNS_PER_PASS = 3  # set-up-only processes before each untraced pass
SETUP_BUDGET_S = 30.0      # spawn to ready
OP_BUDGET_S = 30.0         # one operation, enforced from this process
PASS_BUDGET_S = 60.0       # one whole pass
RUN_LIMIT_S = 170.0        # no pass of a workload may end later than this after its start

END_TO_END = (
    ("setup_s", "s"), ("wall_s", "s"), ("op_p50_ms", "ms"), ("op_p90_ms", "ms"),
    ("peak_rss_mb", "MiB"), ("ok_rate", "ratio"),
)
PER_LAYER = (
    ("enumeration.overpartitions.yielded", "count"),
    ("enumeration.overpartitions.busy_s", "s"),
    ("core.stats.calls", "count"), ("core.stats.self_s", "s"),
    ("core.member.calls", "count"), ("core.member.self_s", "s"),
    ("enumeration.count_many.calls", "count"), ("enumeration.count_many.self_s", "s"),
    ("enumeration.count_profile.calls", "count"), ("enumeration.count_profile.self_s", "s"),
    ("enumeration.count_profile.hit_ratio", "ratio"),
    ("enumeration.family_elements.calls", "count"), ("enumeration.family_elements.self_s", "s"),
    ("enumeration.family_elements.hit_ratio", "ratio"),
    ("enumeration.cache_entries", "count"),
    ("qseries.series_mul.calls", "count"), ("qseries.series_mul.self_s", "s"),
    ("qseries.series_mul.terms", "count"),
    ("qseries.suffix_products.hit_ratio", "ratio"),
    ("qseries.family_series.calls", "count"), ("qseries.family_series.self_s", "s"),
    ("qseries.cross_check.self_s", "s"),
    ("bijections.map.calls", "count"), ("bijections.map.self_s", "s"),
    ("bijections.verify_bijection.calls", "count"), ("bijections.verify_bijection.self_s", "s"),
    ("bijections.verify_t3.calls", "count"), ("bijections.verify_t3.self_s", "s"),
    ("bijections.all_traces.calls", "count"), ("bijections.all_traces.self_s", "s"),
    ("bijections.audit.domain_elements", "count"), ("bijections.audit.problems", "count"),
    ("cli.main.calls", "count"), ("cli.self_s", "s"), ("cli.output_bytes", "bytes"),
    ("trace.overhead_ratio", "ratio"),
)


def _child_env() -> dict[str, str]:
    env = {k: v for k, v in os.environ.items()
           if not k.startswith(("PYTHON", "OVERPART_"))}
    env["PYTHONHASHSEED"] = "0"
    return env


def run_pass(ops_path: Path, trace: bool, spans_path: Path,
             op_budget: float = OP_BUDGET_S, pass_budget: float = PASS_BUDGET_S) -> dict:
    """Run one workload process.  An operation that overruns its budget
    (or a pass that overruns its own) kills the process; that operation
    and every later one count as failed."""
    cmd = [sys.executable, "-s", str(WORKER), str(ROOT), str(ops_path),
           "1" if trace else "0", str(spans_path)]
    spawned = time.monotonic()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            stdin=subprocess.DEVNULL, env=_child_env(), cwd=ROOT)
    pass_end = spawned + pass_budget
    op_end = spawned + SETUP_BUDGET_S
    ready = done = None
    results: list[dict] = []
    reason = ""
    buf = b""
    err = bytearray()
    sel = selectors.DefaultSelector()
    sel.register(proc.stdout, selectors.EVENT_READ)
    sel.register(proc.stderr, selectors.EVENT_READ)
    try:
        while done is None:
            now = time.monotonic()
            if now >= min(op_end, pass_end):
                reason = f"operation {len(results)} overran its budget"
                break
            for key, _ in sel.select(min(op_end, pass_end) - now):
                chunk = os.read(key.fd, 1 << 16)
                if key.fileobj is proc.stderr:
                    if not chunk:
                        sel.unregister(proc.stderr)
                    err += chunk[: max(0, 4000 - len(err))]
                    continue
                if not chunk:
                    reason = f"workload process exited early: {err.decode(errors='replace')[-400:]}"
                    break
                buf += chunk
                *lines, buf = buf.split(b"\n")
                for line in lines:
                    msg = json.loads(line)
                    if "ready" in msg:
                        ready = msg["ready"]
                    elif "i" in msg:
                        results.append(msg)
                    else:
                        done = msg["done"]
                    op_end = time.monotonic() + op_budget
            if reason:
                break
    finally:
        sel.close()
        if done is None:
            proc.kill()
        try:
            proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
        proc.stdout.close()
        proc.stderr.close()
    return {"setup_s": None if ready is None else ready - spawned, "done": done,
            "results": results, "reason": reason}


def setup_sample() -> float | None:
    """Seconds from spawn until the package is imported and the parser is built."""
    spawned = time.monotonic()
    proc = subprocess.run([sys.executable, "-s", str(WORKER), str(ROOT), "--setup-only"],
                          capture_output=True, env=_child_env(), cwd=ROOT,
                          timeout=SETUP_BUDGET_S, check=False)
    if proc.returncode != 0:
        return None
    return json.loads(proc.stdout.splitlines()[0])["ready"] - spawned


def _p90(values: list[float]) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=10, method="inclusive")[8]


def layer_metrics(spans: dict, counters: dict, caches: dict, output_bytes: int) -> dict:
    """Per-layer metrics of one traced pass."""
    def calls(name):
        return spans.get(name, {}).get("calls", 0)

    def self_s(name):
        return spans.get(name, {}).get("self_s", 0.0)

    def hit_ratio(name):
        info = caches.get(name) or {}
        total = info.get("hits", 0) + info.get("misses", 0)
        return info["hits"] / total if total else 0.0

    m = {
        "enumeration.overpartitions.yielded": counters.get("enumeration.overpartitions.yielded", 0),
        "enumeration.overpartitions.busy_s": self_s("enumeration.overpartitions.next"),
        "enumeration.count_profile.hit_ratio": hit_ratio("count_profile"),
        "enumeration.family_elements.hit_ratio": hit_ratio("family_elements"),
        "enumeration.cache_entries": caches.get("annotated_records", 0) + sum(
            (caches.get(c) or {}).get("currsize", 0) for c in ("count_profile", "family_elements")),
        "qseries.series_mul.terms": counters.get("qseries.series_mul.terms", 0),
        "qseries.suffix_products.hit_ratio": hit_ratio("suffix_products"),
        "bijections.audit.domain_elements": counters.get("bijections.audit.domain_elements", 0),
        "bijections.audit.problems": counters.get("bijections.audit.problems", 0),
        "cli.self_s": self_s("cli.main"),
        "cli.output_bytes": output_bytes,
    }
    for name, _ in PER_LAYER:
        if name not in m and name.endswith((".calls", ".self_s")):
            span, _, kind = name.rpartition(".")
            m[name] = calls(span) if kind == "calls" else self_s(span)
    return m


class Run:
    """Passes of one workload and seed, with their checks."""

    def __init__(self, workload: str, seed: int, trace: bool, scratch: Path):
        self.ops = workloads.generate(workload, seed)
        self.trace = trace
        self.scratch = scratch
        self.ops_path = scratch / f"{workload}.ops.json"
        self.ops_path.write_text(json.dumps(self.ops), encoding="utf-8")
        self.checker = Checker()
        self.verdicts: dict[tuple[int, object, str], str | None] = {}
        self.untraced_out: list[str] | None = None
        self.setup: list[float] = []
        self.walls = {False: [], True: []}
        self.rss: list[float] = []
        self.latencies: list[float] = []
        self.layers: list[dict] = []
        self.attempted = self.failed = 0
        self.problems: list[str] = []

    def _fail(self, i: int, why: str) -> None:
        self.failed += 1
        if len(self.problems) < 20:
            self.problems.append(f"op {i} {' '.join(self.ops[i])[:120]}: {why}")

    def one_pass(self, traced: bool, budget: float) -> None:
        spans_path = self.scratch / "spans.bin"
        p = run_pass(self.ops_path, traced, spans_path, pass_budget=budget)
        if p["setup_s"] is not None:
            self.setup.append(p["setup_s"])
        outs = []
        for r in p["results"]:
            i = r["i"]
            key = (i, r["code"], r["out"])
            if key not in self.verdicts:
                self.verdicts[key] = self.checker.check(self.ops[i], r["code"], r["out"])
            why = "raised: " + r["err"][-300:] if r["code"] is None else self.verdicts[key]
            if why is None and traced and self.untraced_out is not None \
                    and r["out"] != self.untraced_out[i]:
                why = "stdout differs between traced and untraced runs"
            if why:
                self._fail(i, why)
            if not traced:
                self.latencies.append(r["ms"])
            outs.append(r["out"])
        self.attempted += len(self.ops)
        for i in range(len(p["results"]), len(self.ops)):
            self._fail(i, p["reason"] or "not run")
        done = p["done"]
        if done is None:
            return
        self.walls[traced].append(done["wall_s"])
        if not traced:
            self.rss.append(done["rss_mb"])
            self.untraced_out = self.untraced_out or outs
            return
        names, cost, *arrays = tracing.load(str(spans_path))
        spans_path.unlink()
        spans = tracing.derive(names, *arrays, cost=cost)
        out_bytes = sum(len(o.encode()) for o in outs)
        self.layers.append(layer_metrics(spans, done["counters"], done["caches"], out_bytes))

    def metrics(self) -> dict[str, float]:
        med = statistics.median
        if not self.trace:
            lat = self.latencies or [0.0]
            values = {
                "setup_s": med(self.setup) if self.setup else 0.0,
                "wall_s": med(self.walls[False]) if self.walls[False] else 0.0,
                "op_p50_ms": med(lat),
                "op_p90_ms": _p90(lat),
                "peak_rss_mb": med(self.rss) if self.rss else 0.0,
                "ok_rate": 1 - self.failed / max(self.attempted, 1),
            }
            return {name: values[name] for name, _ in END_TO_END}
        values = {name: med([layer[name] for layer in self.layers]) if self.layers else 0
                  for name, _ in PER_LAYER if name != "trace.overhead_ratio"}
        plain, traced = self.walls[False], self.walls[True]
        values["trace.overhead_ratio"] = med(traced) / med(plain) if plain and traced else 0.0
        return values


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> Run:
    """Rounds (one pass, or an untraced and a traced pass) until ``seconds``
    have passed.  Before each untraced pass, a few set-up-only processes,
    so the setup_s samples spread over the run as the passes do.  No round
    starts unless twice the last one still fits before RUN_LIMIT_S."""
    started = time.monotonic()
    scratch = SCRATCH / f"{os.getpid()}"
    scratch.mkdir(parents=True, exist_ok=True)
    try:
        run = Run(workload, seed, trace, scratch)
        setup_sample()  # compiles bytecode once; not counted
        begin = time.monotonic()
        while True:
            round_began = time.monotonic()
            for traced in ((False, True) if trace else (False,)):
                if not trace:
                    samples = (setup_sample() for _ in range(SETUP_SPAWNS_PER_PASS))
                    run.setup += [s for s in samples if s is not None]
                budget = min(PASS_BUDGET_S, RUN_LIMIT_S - (time.monotonic() - started))
                run.one_pass(traced, max(budget, 1.0))
            now = time.monotonic()
            if now - begin >= seconds or RUN_LIMIT_S - (now - started) < 2 * (now - round_began):
                return run
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        try:
            SCRATCH.rmdir()
        except OSError:  # another run still uses it
            pass


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "overpart" / "cli.py").is_file():
        print(f"error: no overpart sources under {ROOT / 'src'}; run from a full checkout",
              file=sys.stderr)
        return 2
    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    units = dict(PER_LAYER if args.trace else END_TO_END)
    result = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in names:
        run = run_workload(workload, args.seed, args.seconds, bool(args.trace))
        print(f"== {workload} seed={args.seed} trace={args.trace}: {run.attempted} operations, "
              f"{run.failed} failed, {len(run.latencies)} latency samples, "
              f"{len(run.walls[False])} untraced / {len(run.walls[True])} traced passes")
        for problem in run.problems:
            print(f"   FAIL {problem}")
        prefix = f"{workload}." if args.workload == "all" else ""
        for name, value in run.metrics().items():
            print(f"   {name:40s} {value:14.6g} {units[name]}")
            result["metrics"][prefix + name] = {"value": value, "unit": units[name]}
        result["attempted"] += run.attempted
        result["failed"] += run.failed
    result["correct"] = result["failed"] == 0
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
