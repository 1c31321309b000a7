"""One workload process: imports ``overpart`` from a checkout and runs an
operation list through ``overpart.cli.main``, one operation after
another on one thread, reporting to its parent on stdout.

Usage: worker.py ROOT OPS_JSON TRACE SPANS_PATH
       worker.py ROOT --setup-only

Protocol, one JSON object per line: ``{"ready": t}`` once the package is
imported and the CLI parser is built (``t`` from ``time.monotonic``),
then ``{"i", "code", "ms", "out", "err"}`` per operation, then
``{"done": {...}}``.  With TRACE 1 the spans are written to SPANS_PATH.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import resource
import sys
import time
import traceback


def _cache_stats(enumeration, qseries, originals) -> dict:
    def info(fn):
        ci = getattr(fn, "cache_info", None)
        return ci()._asdict() if ci else None

    annotated = getattr(enumeration, "_annotated_cache", {})
    return {
        "count_profile": info(originals["count_profile"]),
        "family_elements": info(originals["family_elements"]),
        "suffix_products": info(getattr(qseries, "_suffix_products", None)),
        "annotated_records": sum(len(v) for v in annotated.values()),
    }


def main(argv: list[str]) -> int:
    root = argv[1]
    sys.path.insert(0, os.path.join(root, "src"))
    channel = sys.stdout

    def send(obj):
        channel.write(json.dumps(obj) + "\n")
        channel.flush()

    from overpart import cli, enumeration, qseries

    cli.build_parser()
    send({"ready": time.monotonic()})
    if argv[2] == "--setup-only":
        return 0
    with open(argv[2], encoding="utf-8") as fh:
        ops = json.load(fh)
    trace = argv[3] == "1"
    run = cli.main
    if trace:
        import tracing

        originals = {name: getattr(enumeration, name, None)
                     for name in ("count_profile", "family_elements")}
        tracer = tracing.Tracer()
        tracer.cost = tracing.calibrate()
        tracing.install(tracer)
        run = tracer.wrap("cli.main", cli.main)
    first = time.perf_counter()
    for i, op in enumerate(ops):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            t0 = time.perf_counter()
            try:
                code = run(op)
            except Exception:  # the program must never raise; report and go on
                code = None
                err.write(traceback.format_exc())
            t1 = time.perf_counter()
        send({"i": i, "code": code, "ms": (t1 - t0) * 1e3,
              "out": out.getvalue(), "err": err.getvalue()[-2000:]})
    done = {"wall_s": time.perf_counter() - first,
            "rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024}
    if trace:
        tracer.dump(argv[4])
        done["counters"] = dict(tracer.counters)
        done["caches"] = _cache_stats(enumeration, qseries, originals)
    send({"done": done})
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
