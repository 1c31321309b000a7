"""Print one SHA-256 per group of command-line runs, to show that a change
leaves every output byte-identical.

Each run calls ``overpart.cli.main`` in this process and is hashed as
(argv, OVERPART_ORDER, exit code, stdout, stderr).  The groups are:

- audit: ``check-bijection`` of every theorem at ``--n-max 23``
- golden: ``check-bijection --n N --golden`` of every theorem at each N <= 23
- map: ``map`` in text and JSON of every overpartition of weight w <= 10,
  for every theorem, at n = w, w + 1, w + 2, with no source and with each
- verify: ``verify ALL --n-max 42``
- series: ``series`` of every token with k <= 8 at orders 1, 2, 300 and 4000
- table: ``table`` of every such token to 42, in all three formats
- selftest: bare ``selftest``, and to n = 42 at k <= 8 and order 300
- hostile: every argv of ``tests/test_cli.py::TestHostileInputs``

Stdlib only.  Run from the repository root:

    python tools/golden_matrix.py
    python tools/golden_matrix.py --against REV DIR

The second form extracts REV with ``git archive`` into DIR (new or empty),
runs the same matrix on DIR/src in a subprocess, prints both sets of
digests and the first run whose output differs, with both outputs, and
exits 1 when one does.
"""
import argparse
import contextlib
import hashlib
import io
import itertools
import json
import os
import pathlib
import subprocess
import sys
import tarfile
import time

ROOT = pathlib.Path(__file__).resolve().parent.parent
THEOREMS = ("T1", "T2", "T3", "T4e", "T4o")
TOKENS = ["pbar", "pe", "pex", "poex", "ce", "co", "poex-prime"] + [
    tok for k in range(1, 9)
    for tok in (f"spt{k}", f"spt{k}o", f"be{k}", f"bo{k}", f"spt{k}o-prime")]
SOURCES = ((), ("--source", "N"), ("--source", "N-1"), ("--source", "N-2"))


def literals(w):
    """Every overpartition of weight w as a literal, listed here rather than
    by the package, so that both trees map the same inputs."""
    def runs(rest, top):  # (value, copies) runs of the partitions of rest, parts <= top
        if rest == 0:
            yield ()
        for v in range(min(rest, top), 0, -1):
            for c in range(1, rest // v + 1):
                yield from (((v, c),) + tail for tail in runs(rest - v * c, v - 1))
    for parts in runs(w, w):
        for over in itertools.product((0, 1), repeat=len(parts)):
            yield ",".join(itertools.chain.from_iterable(
                [f"{v}o"] * o + [str(v)] * (c - o) for (v, c), o in zip(parts, over))) or "[]"


def cases(cli):
    """(group, argv, OVERPART_ORDER or None) for every run, in order."""
    for t in THEOREMS:
        yield "audit", ["check-bijection", t, "--n-max", "23"], None
    for t, n in itertools.product(THEOREMS, range(24)):
        yield "golden", ["check-bijection", t, "--n", str(n), "--golden"], None
    for w in range(11):
        for text, t, n, source, fmt in itertools.product(
                literals(w), THEOREMS, (w, w + 1, w + 2), SOURCES, ("text", "json")):
            yield "map", ["map", t, "--input", text, "--n", str(n), *source, "--format", fmt], None
    yield "verify", ["verify", "ALL", "--n-max", "42"], None
    for order, tok in itertools.product((1, 2, 300, 4000), TOKENS):
        yield "series", ["series", tok, "--order", str(order)], None
    for fmt in ("text", "csv", "json"):
        yield "table", ["table", "--families", ",".join(TOKENS), "--n-max", "42",
                        "--format", fmt], None
    yield "selftest", ["selftest"], None
    yield "selftest", ["selftest", "--n-max", "42", "--k-max", "8", "--order", "300"], None
    # as in TestHostileInputs, with the caps of the tree under test
    max_order, max_n = str(cli.MAX_ORDER + 1), str(cli.MAX_N + 1)
    for argv in (["count", "spt1", "10", "--k", "100000000000"],
                 ["count", "sptk", "10", "--k", "100000000000"],
                 ["count", "sptk", "10", "--k", "-3"],
                 ["series", "sptko", "--order", "50", "--k", "-3"],
                 ["selftest", "--k-max", "100000000"],
                 ["series", "sptk", "--order", "50", "--k", "10000000"],
                 ["series", "pbar", "--order", max_order],
                 ["selftest", "--n-max", "4", "--order", max_order],
                 ["count", "pbar", max_n],
                 ["table", "--families", "pbar", "--n-max", max_n],
                 ["verify", "ALL", "--n-max", max_n],
                 ["selftest", "--n-max", max_n],
                 *(["check-bijection", t, "--n", str(cap + 1)]
                   for t, cap in cli.MAX_AUDIT_N.items()),
                 ["map", "T2", "--input", "5,3", "--n", "8"]):
        yield "hostile", argv, None
    for env in ("abc", "-5", "0", "1e3", max_order):
        yield "hostile", ["series", "pe"], env


def run(main, argv, env):
    """(exit code, stdout, stderr) of one call of main."""
    if env is None:
        os.environ.pop("OVERPART_ORDER", None)
    else:
        os.environ["OVERPART_ORDER"] = env
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def load(src):
    """overpart.cli imported from the source tree src."""
    sys.path.insert(0, str(src))
    import overpart.cli
    return overpart.cli


def records(cli):
    """(group, argv, env, digest) for every run, in order."""
    for group, argv, env in cases(cli):
        code, out, err = run(cli.main, argv, env)
        blob = json.dumps([argv, env, code, out, err]).encode()
        yield group, argv, env, hashlib.sha256(blob).hexdigest()


def group_digests(recs):
    """group -> (SHA-256 over its runs' digests, number of runs)."""
    groups = {}
    for group, _, _, digest in recs:
        h, n = groups.setdefault(group, (hashlib.sha256(), 0))
        h.update(digest.encode())
        groups[group] = h, n + 1
    return {group: (h.hexdigest(), n) for group, (h, n) in groups.items()}


def print_digests(digests, title=None):
    if title:
        print(title)
    for group, (digest, n) in digests.items():
        print(f"{digest}  {group} ({n} runs)")


def stdout_of(cmd):
    """Stdout of a subprocess; exits with its stderr when it fails."""
    done = subprocess.run(cmd, capture_output=True)
    if done.returncode:
        sys.exit(f"error: {' '.join(cmd)} exited {done.returncode}\n"
                 + done.stderr.decode(errors="replace"))
    return done.stdout


def other_tree(src, *args):
    """Stdout of this script run on the source tree src in a subprocess."""
    return stdout_of([sys.executable, __file__, "--src", str(src), *args]).decode()


def extract(rev, dest):
    dest.mkdir(parents=True, exist_ok=True)
    if any(dest.iterdir()):
        sys.exit(f"error: {dest} is not empty")
    tar = stdout_of(["git", "-C", str(ROOT), "archive", "--format=tar", rev])
    with tarfile.open(fileobj=io.BytesIO(tar)) as archive:
        # the data filter, where this Python has it, refuses links out of dest
        archive.extractall(dest, **({"filter": "data"} if hasattr(tarfile, "data_filter") else {}))


def against(cli, rev, dest):
    extract(rev, dest)
    theirs = [json.loads(line) for line in other_tree(dest / "src", "--runs").splitlines()]
    ours = [list(r) for r in records(cli)]
    print_digests(group_digests(ours), "this tree:")
    print_digests(group_digests(theirs), f"{rev}:")
    for i, (mine, other) in enumerate(itertools.zip_longest(ours, theirs)):
        if mine != other:
            print(f"first difference, run {i}:")
            print(f"this tree: {json.dumps(case_output(cli, i))}")
            print(f"{rev}: {other_tree(dest / 'src', '--case', str(i)).strip()}")
            return 1
    print(f"no difference in {len(ours)} runs")
    return 0


def case_output(cli, i):
    group, argv, env = next(itertools.islice(cases(cli), i, None), (None, None, None))
    if group is None:
        return None
    code, out, err = run(cli.main, argv, env)
    return {"group": group, "argv": argv, "env": env, "code": code, "stdout": out, "stderr": err}


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--against", nargs=2, metavar=("REV", "DIR"),
                        help="compare with REV, extracted into DIR (new or empty)")
    # used by --against on the other tree: the tree to import, and what to print
    parser.add_argument("--src", default=ROOT / "src", help=argparse.SUPPRESS)
    parser.add_argument("--runs", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--case", type=int, help=argparse.SUPPRESS)
    args = parser.parse_args()
    cli = load(args.src)
    if args.against:
        return against(cli, args.against[0], pathlib.Path(args.against[1]).resolve())
    if args.case is not None:
        print(json.dumps(case_output(cli, args.case)))
    elif args.runs:
        for rec in records(cli):
            print(json.dumps(rec))
    else:
        start = time.perf_counter()
        print_digests(group_digests(records(cli)))
        print(f"{time.perf_counter() - start:.1f} s", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
