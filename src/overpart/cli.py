"""Command-line front end: counting, tables, identity verification,
map application, bijection audits, series coefficients, and the dual
oracle selftest.

Exit codes: 0 success, 1 verification failure, 2 usage error,
3 map precondition (membership) failure.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys

from .core import parse, parse_family_token
from .enumeration import (
    IDENTITIES, IDENTITY_START, count_many, identity_sides,
)
from .bijections import (
    PreconditionError, apply_map, verify_bijection, verify_t3,
)
from .qseries import K_COLUMNS, cross_check, series_for_token

DEFAULT_ORDER = 200
# a series is read from products built by Gauss's theta identity in
# O(order^1.5) additions and from spt columns k <= K_COLUMNS telescoped in
# O(order) each; a column with a larger k is summed forward in
# O(order^2/k).  At this order be1 (two signed passes) takes about 0.14 s
# and 20 MiB, selftest --n-max 30 --k-max 4 (three passes) about 0.3 s
# and 22 MiB, and the slowest columns, k = 5, about 0.4 s (sptk) and
# 0.9 s (be) (fresh process, one core of a 2-vCPU x86-64 VM, Python 3.11).
# Each k above K_COLUMNS costs selftest three more passes with a forward
# sum each: --k-max 8 takes about 4.6-5.9 s, and --n-max 42 --k-max 42
# 15-27 s (fresh processes, same VM; the spread is between sessions)
MAX_ORDER = 4000
# count, table, verify and selftest count from a memo of run-state
# vectors and list no overpartition; at this cap, where pbar(42) =
# 1,967,696, verify ALL --n-max 42 and selftest --n-max 42 --k-max 4 each
# take about 0.1 s in a fresh process (one core of a 2-vCPU x86-64 VM,
# Python 3.11)
MAX_N = 42
# check-bijection maps and audits every domain element of each weight it
# checks (codomain sizes are counted, not listed), so each theorem has its
# own cap, sized by its domain family: T1 lists the dense spt1, and
# check-bijection T1 --n-max 30 takes about 0.9-1.3 s and 33 MiB; the
# other maps act on the sparse spt1o, be1 and bo1, and T2 --n-max 40
# takes about 0.4-0.55 s and 24 MiB (fresh processes, one core of a
# 2-vCPU x86-64 VM, Python 3.11; the spread is between sessions)
MAX_AUDIT_N = {"T1": 30, "T2": 40, "T3": 40, "T4e": 40, "T4o": 40}

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_USAGE = 2
EXIT_PRECONDITION = 3


def _default_order() -> int:
    env = os.environ.get("OVERPART_ORDER")
    if env:
        try:
            if 1 <= (value := int(env)) <= MAX_ORDER:
                return value
        except ValueError:
            pass
        print(f"ignoring invalid OVERPART_ORDER={env!r} "
              f"(must be an integer from 1 to the cap {MAX_ORDER})", file=sys.stderr)
    return DEFAULT_ORDER


def _check_cap(order: int) -> int:
    if order > MAX_ORDER:
        raise ValueError(f"truncation order {order} is above the cap {MAX_ORDER}")
    return order


def _check_weight(n: int, cap: int = MAX_N, hint: str = "; use 'series' instead") -> int:
    if n > cap:
        raise ValueError(f"n = {n} is above the enumeration cap {cap}{hint}")
    return n


def _emit(text: str, out_path: str | None):
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text if text.endswith("\n") else text + "\n")
    else:
        print(text)


def _check_min(args, option: str, low: int):
    """Reject an option value below the least one the command checks
    anything at: the first weight for ``n_max``, k = 1 for ``k_max``."""
    value, flag = getattr(args, option), "--" + option.replace("_", "-")
    if value < low:
        raise ValueError(f"{flag} {value} checks nothing; {args.command} needs {flag} >= {low}")


def cmd_count(args) -> tuple[str, int]:
    (value,) = count_many(_check_weight(args.n), [parse_family_token(args.family, args.k)])
    return str(value), EXIT_OK


def cmd_table(args) -> tuple[str, int]:
    tokens = [t.strip() for t in args.families.split(",") if t.strip()]
    if not tokens:
        raise ValueError("no families given")
    _check_min(args, "n_max", 0)
    columns = [parse_family_token(t, args.k) for t in tokens]
    rows = [(n, count_many(n, columns)) for n in range(_check_weight(args.n_max) + 1)]
    if args.format == "csv":
        text = "\n".join(f"{n}," + ",".join(map(str, counts))
                         for n, counts in [("n", tokens)] + rows)
    elif args.format == "json":
        text = json.dumps([{"n": n, **{tok: str(c) for tok, c in zip(tokens, counts)}}
                           for n, counts in rows])
    else:
        width = max(len(t) for t in tokens) + 2
        text = "\n".join(str(n).rjust(6) + "".join(str(c).rjust(width) for c in counts)
                         for n, counts in [("n", tokens)] + rows)
    return text, EXIT_OK


def cmd_verify(args) -> tuple[str, int]:
    names = list(IDENTITIES) if args.identity == "ALL" else [args.identity]
    _check_min(args, "n_max", min(IDENTITY_START[name] for name in names))
    rows = [(name, n, *identity_sides(name, n)) for name in names
            for n in range(IDENTITY_START[name], _check_weight(args.n_max) + 1)]
    lines = [f"{name} n={n}: {lhs} = {rhs} PASS" if lhs == rhs
             else f"{name} n={n}: {lhs} != {rhs} FAIL" for name, n, lhs, rhs in rows]
    return "\n".join(lines), EXIT_OK if all(a == b for *_, a, b in rows) else EXIT_VERIFY_FAILED


def cmd_map(args) -> tuple[str, int]:
    pi = parse(args.input)
    trace = apply_map(args.theorem, pi, args.n, args.source)
    if args.format == "json":
        return json.dumps(trace.to_json_dict()), EXIT_OK
    return (f"theorem={trace.theorem} branch={trace.branch} source={trace.source_tag} "
            f"input={trace.input} output={trace.output} target={trace.target_tag} "
            f"signFlip={str(trace.sign_flip).lower()}" + " ambiguousS2=true" * trace.ambiguous_s2,
            EXIT_OK)


def _audit_lines(theorem: str, n: int, golden: bool) -> tuple[list[str], bool]:
    """The audit at one weight as output lines, and whether it passed.
    With ``golden`` the lines end with the frozen listing of every map
    application, used to reproduce the worked examples as snapshots,
    read from the audit's own traces; they are released on return,
    before the next weight is audited."""
    r = verify_t3(n) if theorem == "T3" else verify_bijection(theorem, n)
    status = "PASS" if r.ok else "FAIL"
    if theorem == "T3":
        b = r.blocks
        lines = [f"T3 n={n}: matching {b['odd-domain']} -> {b['odd-image']}, "
                 f"even {b['even-domain']} -> {b['poex']} {status}"]
    else:
        word = "bijective" if r.injective and r.surjective else "NOT bijective"
        lines = [f"{theorem} n={n}: domain {r.domain_size} = "
                 f"codomain {r.codomain_size}, {word} {status}"]
    if not r.ok:
        lines += (f"  problem: {p}" for p in r.problems)
        lines += (f"  violation: {json.dumps(v.to_json_dict())}" for v in r.contract_violations)
    if golden:
        lines.append(f"== {theorem} n={n} ==")
        lines += (f"{tr.branch}\t{tr.source_tag}\t{tr.input} -> {tr.output}\t{tr.target_tag}"
                  for tr in sorted(r.traces, key=lambda t: (t.branch, t.source_tag,
                                                            t.input.to_text())))
    return lines, r.ok


def cmd_check_bijection(args) -> tuple[str, int]:
    theorem, cap = args.theorem, MAX_AUDIT_N[args.theorem]
    if args.n is not None:
        ns = [_check_weight(args.n, cap, "")]
    else:
        _check_min(args, "n_max", IDENTITY_START[theorem])
        ns = range(IDENTITY_START[theorem], _check_weight(args.n_max, cap, "") + 1)
    audits = [_audit_lines(theorem, n, args.golden) for n in ns]
    return ("\n".join(line for lines, _ in audits for line in lines),
            EXIT_OK if all(ok for _, ok in audits) else EXIT_VERIFY_FAILED)


def cmd_series(args) -> tuple[str, int]:
    order = _check_cap(args.order if args.order is not None else _default_order())
    ser = series_for_token(args.family, order, args.k)
    return "\n".join(f"{i}\t{c}" for i, c in enumerate(ser.coeffs)), EXIT_OK


def cmd_selftest(args) -> tuple[str, int]:
    _check_min(args, "n_max", 0)
    _check_min(args, "k_max", 1)
    _check_weight(args.n_max)
    order = _check_cap(args.order if args.order is not None else max(args.n_max, 1))
    if order < args.n_max:
        raise ValueError("order must be at least n-max")
    mismatches = cross_check(args.n_max, args.k_max, order)
    lines = [f"MISMATCH {tok} n={n}: enumeration {enum_count}, series {coeff}"
             for tok, n, enum_count, coeff in mismatches]
    lines.append(f"selftest {'FAIL' if mismatches else 'PASS'}: families x n <= {args.n_max}, "
                 f"k <= {args.k_max}, order {order}")
    return "\n".join(lines), EXIT_OK if not mismatches else EXIT_VERIFY_FAILED


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process; parsing keeps no
    state in it, so every :func:`main` call shares it."""
    parser = argparse.ArgumentParser(
        prog="overpart",
        description="Overpartition families: exact counts, q-series "
                    "coefficients, identity verification, and the "
                    "constructive maps behind the identities.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("count", help="count one family at one weight")
    p.add_argument("family", help="family token, e.g. spt1, pex, sptko-prime")
    p.add_argument("n", type=int)
    p.add_argument("--k", type=int, default=1, help="multiplicity for spt/be/bo tokens without digits")
    p.set_defaults(func=cmd_count)

    p = sub.add_parser("table", help="tabulate several families for n = 0..n-max")
    p.add_argument("--families", required=True, help="comma-separated family tokens")
    p.add_argument("--n-max", type=int, required=True)
    p.add_argument("--k", type=int, default=1)
    p.add_argument("--format", choices=("text", "csv", "json"), default="text")
    p.set_defaults(func=cmd_table)

    p = sub.add_parser("verify", help="check the counting identities by enumeration")
    p.add_argument("identity", choices=IDENTITIES + ("ALL",))
    p.add_argument("--n-max", type=int, required=True)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("map", help="apply one constructive map to one overpartition")
    p.add_argument("theorem", choices=IDENTITIES)
    p.add_argument("--input", required=True, help="overpartition literal")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--source", choices=("N", "N-1", "N-2"), default=None,
                   help="domain summand the input belongs to (default N)")
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.set_defaults(func=cmd_map)

    p = sub.add_parser("check-bijection", help="exhaustive audit of one map")
    p.add_argument("theorem", choices=IDENTITIES)
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--n", type=int)
    group.add_argument("--n-max", type=int)
    p.add_argument("--golden", action="store_true",
                   help="also list every map application")
    p.set_defaults(func=cmd_check_bijection)

    p = sub.add_parser("series", help="print q-series coefficients, one per line")
    p.add_argument("family")
    p.add_argument("--order", type=int, default=None,
                   help=f"truncation order, at most {MAX_ORDER} "
                        f"(default OVERPART_ORDER or {DEFAULT_ORDER})")
    p.add_argument("--k", type=int, default=1)
    p.set_defaults(func=cmd_series)

    p = sub.add_parser("selftest", help="cross-check enumeration against the q-series oracle")
    p.add_argument("--n-max", type=int, default=30)
    p.add_argument("--k-max", type=int, default=K_COLUMNS)
    p.add_argument("--order", type=int, default=None,
                   help=f"truncation order, at most {MAX_ORDER} (default n-max)")
    p.set_defaults(func=cmd_selftest)

    # last, so that --out closes every command's option list
    for p in sub.choices.values():
        p.add_argument("--out", help="write output to this file instead of stdout")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    try:
        text, code = args.func(args)
    except PreconditionError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        print(f"run '{parser.prog} {args.command} --help' for usage", file=sys.stderr)
        return EXIT_USAGE
    try:
        _emit(text, args.out)
    except OSError as exc:
        print(f"error: cannot write {args.out or 'stdout'}: {exc.strerror}", file=sys.stderr)
        return EXIT_USAGE
    return code


if __name__ == "__main__":
    sys.exit(main())
