"""Output check for one operation, against the reference oracle.

Counts, tables and identity lines are rebuilt from reference series
coefficients and compared byte for byte; ``pbar`` counts are also
compared with the pinned A015128 table, and low-order series
coefficients with brute-force enumeration.  Every ``verify``,
``check-bijection`` and ``selftest`` line must say PASS, and every map
image (from ``map`` and from ``--golden`` listings) must lie in its
target family with the right weight; the images of a golden listing
must be distinct.  The exact image of a map is not recomputed.  Runs
outside the timed process.
"""

from __future__ import annotations

import json

import reference

COUNT_ORDER = 30       # reference coefficients cached up to this weight
ENUM_CHECK_ORDER = 10  # series coefficients also checked by brute force up to here

# (theorem, source tag) -> (family token, weight offset)
MAP_SOURCES = {
    ("T1", "N"): ("spt1", 0), ("T1", "N-1"): ("spt1", 1),
    ("T2", "N"): ("spt1o", 0), ("T2", "N-2"): ("spt1o", 2),
    ("T3", "N"): ("spt1o", 0), ("T3", "N-2"): ("spt1o", 2),
    ("T4e", "N"): ("be1", 0), ("T4e", "N-2"): ("be1", 2),
    ("T4o", "N"): ("bo1", 0), ("T4o", "N-2"): ("bo1", 2),
}
# (theorem, target tag) -> (family token, weight offset)
MAP_TARGETS = {
    ("T1", "PEX"): ("pex", 0),
    ("T2", "PE-copy1"): ("pe", 1), ("T2", "PE-copy2"): ("pe", 1), ("T2", "POEX"): ("poex", 1),
    ("T3", "SPT1O-N"): ("spt1o", 0), ("T3", "SPT1O-N-2"): ("spt1o", 2), ("T3", "POEX"): ("poex", 1),
    ("T4e", "PE"): ("pe", 1), ("T4e", "CO"): ("co", 1),
    ("T4o", "PE"): ("pe", 1), ("T4o", "CE"): ("ce", 1),
}
IDENTITY_START = {"T1": 2, "T2": 3, "T3": 3, "T4e": 3, "T4o": 3}


def _options(argv: list[str]) -> tuple[list[str], dict[str, str]]:
    pos, opt = [], {}
    it = iter(argv[1:])
    for a in it:
        if a == "--golden":
            opt["golden"] = "1"
        elif a.startswith("--"):
            opt[a[2:]] = next(it)
        else:
            pos.append(a)
    return pos, opt


class Checker:
    """Checks operations; reference coefficients are computed once per
    (token, k, order) and reused."""

    def __init__(self):
        self._coeffs: dict[tuple[str, int, int], list[int]] = {}
        self._enum: dict[tuple[str, int, int], int] = {}

    def coeffs(self, token: str, order: int = COUNT_ORDER, k: int = 1) -> list[int]:
        key = (token, k, order)
        if key not in self._coeffs:
            self._coeffs[key] = reference.series(token, order, k)
        return self._coeffs[key]

    def c(self, token: str, n: int, k: int = 1) -> int:
        return self.coeffs(token, COUNT_ORDER, k)[n] if 0 <= n <= COUNT_ORDER else 0

    def check(self, argv: list[str], code, out: str) -> str | None:
        """None when the operation's exit code and stdout are right,
        else a one-line reason."""
        if code != 0:
            return f"exit code {code}, expected 0"
        pos, opt = _options(argv)
        try:
            return getattr(self, "_" + argv[0].replace("-", "_"))(pos, opt, out)
        except (ValueError, KeyError, IndexError, TypeError) as exc:
            return f"unreadable output: {exc!r}"

    def _count(self, pos, opt, out):
        token, n, k = pos[0], int(pos[1]), int(opt.get("k", 1))
        want = self.c(token, n, k)
        if reference.resolve(token, k)[0] == "pbar" and want != reference.A015128[n]:
            return f"reference pbar({n}) disagrees with A015128"
        return None if out == f"{want}\n" else f"count {token} {n}: got {out.strip()!r}, want {want}"

    def _table(self, pos, opt, out):
        tokens = [t.strip() for t in opt["families"].split(",") if t.strip()]
        k, n_max, fmt = int(opt.get("k", 1)), int(opt["n-max"]), opt.get("format", "text")
        rows = [(n, [self.c(t, n, k) for t in tokens]) for n in range(n_max + 1)]
        if fmt == "csv":
            lines = ["n," + ",".join(tokens)] + [f"{n}," + ",".join(map(str, cs)) for n, cs in rows]
            want = "\n".join(lines)
        elif fmt == "json":
            want = json.dumps([{"n": n, **{t: str(c) for t, c in zip(tokens, cs)}} for n, cs in rows])
        else:
            width = max(len(t) for t in tokens) + 2
            lines = ["n".rjust(6) + "".join(t.rjust(width) for t in tokens)]
            lines += [str(n).rjust(6) + "".join(str(c).rjust(width) for c in cs) for n, cs in rows]
            want = "\n".join(lines)
        return None if out == want + "\n" else f"table differs from reference ({fmt})"

    def _identity(self, name: str, n: int) -> tuple[int, int]:
        c = self.c
        if name == "T1":
            return c("spt1", n) + c("spt1", n - 1), c("pex", n)
        if name == "T2":
            return c("spt1o", n) + c("spt1o", n - 2), 2 * c("pe", n - 1) + c("poex", n - 1)
        if name == "T3":
            return c("spt1o-prime", n) + c("spt1o-prime", n - 2), -c("poex-prime", n - 1)
        fam, other = ("be1", "co") if name == "T4e" else ("bo1", "ce")
        return c(fam, n) + c(fam, n - 2), c("pe", n - 1) + c(other, n - 1)

    def _verify(self, pos, opt, out):
        names = list(IDENTITY_START) if pos[0] == "ALL" else [pos[0]]
        lines = []
        for name in names:
            for n in range(IDENTITY_START[name], int(opt["n-max"]) + 1):
                lhs, rhs = self._identity(name, n)
                if lhs != rhs:
                    return f"reference identity {name} fails at n={n}"
                lines.append(f"{name} n={n}: {lhs} = {rhs} PASS")
        return None if out == "\n".join(lines) + "\n" else "verify lines differ from reference"

    def _series(self, pos, opt, out):
        token, order, k = pos[0], int(opt["order"]), int(opt.get("k", 1))
        want = self.coeffs(token, order, k)
        for n in range(min(order, ENUM_CHECK_ORDER) + 1):
            if (token, n, k) not in self._enum:
                self._enum[token, n, k] = reference.count(token, n, k)
            if want[n] != self._enum[token, n, k]:
                return f"reference series and enumeration disagree: {token} n={n}"
        got = "\n".join(f"{i}\t{c}" for i, c in enumerate(want)) + "\n"
        return None if out == got else f"series {token} --order {order} differs from reference"

    def _selftest(self, pos, opt, out):
        n_max, k_max = int(opt["n-max"]), int(opt["k-max"])
        want = f"selftest PASS: families x n <= {n_max}, k <= {k_max}, order {n_max}\n"
        return None if out == want else f"selftest: {out.strip()[-200:]!r}"

    def _check_bijection(self, pos, opt, out):
        theorem, n = pos[0], int(opt["n"])
        lines = out.rstrip("\n").split("\n")
        c = self.c
        if theorem == "T3":
            matched, poex = c("pe", n - 1), c("poex", n - 1)
            want = f"T3 n={n}: matching {matched} -> {matched}, even {poex} -> {poex} PASS"
            listed = matched + poex
        else:
            lhs, rhs = self._identity(theorem, n)
            want = f"{theorem} n={n}: domain {lhs} = codomain {rhs}, bijective PASS"
            listed = lhs
        if lines[0] != want:
            return f"audit line {lines[0]!r}, want {want!r}"
        if "golden" not in opt:
            return None if len(lines) == 1 else "unexpected lines after the audit line"
        if lines[1] != f"== {theorem} n={n} ==" or len(lines) != 2 + listed:
            return f"golden listing has {len(lines) - 2} lines, want {listed}"
        images = set()
        for line in lines[2:]:
            _, source, arrow, target = line.split("\t")
            src, dst = arrow.split(" -> ")
            problem = self.image(theorem, n, source, src, dst, target)
            if problem:
                return problem
            images.add((target, dst))
        return None if len(images) == listed else "golden listing maps two inputs to one image"

    def image(self, theorem, n, source, src, dst, target) -> str | None:
        """Source and image of one map application lie in their families."""
        token, offset = MAP_SOURCES[theorem, source]
        pi = reference.parse(src)
        if reference.weight(pi) != n - offset or not reference.value(pi, token):
            return f"{theorem} input {src} is not in {token}({n - offset})"
        token, offset = MAP_TARGETS[theorem, target]
        mu = reference.parse(dst)
        if reference.weight(mu) != n - offset or not reference.value(mu, token):
            return f"{theorem} image {dst} of {src} is not in {token}({n - offset})"
        return None

    def _map(self, pos, opt, out):
        theorem, n = pos[0], int(opt["n"])
        if opt.get("format", "text") == "json":
            d = json.loads(out)
            got = (d["theorem"], d["sourceTag"], d["input"], d["output"], d["targetTag"], d["signFlip"])
        else:
            d = dict(field.split("=", 1) for field in out.split())
            got = (d["theorem"], d["source"], d["input"], d["output"], d["target"],
                   d["signFlip"] == "true")
        name, source, src, dst, target, flip = got
        if name != theorem or source != opt.get("source", "N"):
            return f"map reports theorem {name} source {source}"
        if reference.parse(src) != reference.parse(opt["input"]):
            return f"map echoes input {src}, given {opt['input']}"
        if theorem == "T3" and not flip:
            return "T3 map did not flip the sign"
        return self.image(theorem, n, source, src, dst, target)
