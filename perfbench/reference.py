"""Independent reference oracle for checking the program's answers.

Nothing here imports ``overpart``.  Counts come from generating
functions evaluated with in-place factor updates, O(order^2) per
family, and small weights are also counted by a brute-force enumerator
with its own membership predicates.  A015128 (the number of
overpartitions of n) is pinned for n <= 30.

An overpartition is a tuple of ``(value, plain, over)`` entries with
strictly decreasing values, ``over`` in {0, 1} and ``plain + over >= 1``.
"""

from __future__ import annotations

import re
from functools import lru_cache

# OEIS A015128, n = 0..30
A015128 = (
    1, 2, 4, 8, 14, 24, 40, 64, 100, 154, 232, 344, 504, 728, 1040, 1472,
    2062, 2864, 3948, 5400, 7336, 9904, 13288, 17728, 23528, 31066, 40824,
    53408, 69568, 90248, 116624,
)

_TOKEN = re.compile(r"(pbar|pe|pex|poex|ce|co|spt(\d*|k)(o?)|(be|bo)(\d*))(-prime)?\Z")


@lru_cache(maxsize=None)
def resolve(token: str, default_k: int = 1) -> tuple[str, int, bool]:
    """``(base, k, signed)`` for a command-line family token; base is one
    of pbar pe pex poex ce co spt spto be bo."""
    m = _TOKEN.match(token.strip().lower())
    if not m:
        raise ValueError(f"unknown family token {token!r}")
    signed = m.group(6) is not None
    if m.group(2) is not None:
        digits = m.group(2)
        base, k = ("spto" if m.group(3) else "spt"), (int(digits) if digits.isdigit() else default_k)
    elif m.group(4):
        base, k = m.group(4), int(m.group(5)) if m.group(5) else default_k
    else:
        base, k = m.group(1), 1
    if signed and base not in ("spto", "poex"):
        raise ValueError(f"{token!r} has no signed variant")
    return base, k, signed


# ---------------------------------------------------------------------------
# generating functions
# ---------------------------------------------------------------------------

def _times_factor(a: list[int], j: int, z: int) -> None:
    """a *= (1 + z q^j) / (1 - z q^j), in place, truncated at len(a)."""
    top = len(a) - 1
    for i in range(top, j - 1, -1):
        a[i] += z * a[i - j]
    for i in range(j, top + 1):
        a[i] += z * a[i - j]


def _product(order: int, z: int, keep) -> list[int]:
    a = [1] + [0] * order
    for j in range(1, order + 1):
        if keep(j):
            _times_factor(a, j, z)
    return a


def _poex(order: int, z: int) -> list[int]:
    # value 1 may appear only overlined; every other value is odd and free
    a = _product(order, z, lambda j: j > 1 and j & 1)
    for i in range(order, 0, -1):
        a[i] += z * a[i - 1]
    return a


def _spto(order: int, k: int, z: int) -> list[int]:
    """Sum over s >= 1 of q^(k s) times the product over parts above s
    of parity opposite to s; z signs the parts above s only."""
    out = [0] * (order + 1)
    above = {0: [1] + [0] * order, 1: [1] + [0] * order}  # by part parity
    for s in range(order, 0, -1):
        tail = above[1 - (s & 1)]
        for i in range(order - k * s + 1):
            out[k * s + i] += tail[i]
        _times_factor(above[s & 1], s, z)
    return out


def _spt(order: int, k: int) -> list[int]:
    out = [0] * (order + 1)
    above = [1] + [0] * order
    for s in range(order, 0, -1):
        base = k * s
        for i in range(order - base + 1):
            out[base + i] += above[i]
        _times_factor(above, s, 1)
    return out


def _halves(plus: list[int], minus: list[int], even: bool) -> list[int]:
    return [(a + b) // 2 if even else (a - b) // 2 for a, b in zip(plus, minus)]


def series(token: str, order: int, default_k: int = 1) -> list[int]:
    """Coefficients of q^0..q^order of the family's generating function;
    ``-prime`` tokens give even-minus-odd signed counts."""
    base, k, signed = resolve(token, default_k)
    z = -1 if signed else 1
    if base == "pbar":
        return _product(order, 1, lambda j: True)
    if base == "pe":
        return _product(order, 1, lambda j: not j & 1)
    if base == "pex":
        a = _product(order, 1, lambda j: j > 1)
        for i in range(order, 0, -1):
            a[i] += a[i - 1]
        return a
    if base == "poex":
        return _poex(order, z)
    if base in ("ce", "co"):
        return _halves(_poex(order, 1), _poex(order, -1), base == "ce")
    if base == "spt":
        return _spt(order, k)
    if base == "spto":
        return _spto(order, k, z)
    return _halves(_spto(order, k, 1), _spto(order, k, -1), base == "be")


# ---------------------------------------------------------------------------
# brute force
# ---------------------------------------------------------------------------

def overpartitions(n: int, cap: int | None = None):
    """Every overpartition of ``n`` with parts at most ``cap``."""
    if n == 0:
        yield ()
        return
    for v in range(min(n, n if cap is None else cap), 0, -1):
        for copies in range(1, n // v + 1):
            for tail in overpartitions(n - v * copies, v - 1):
                yield ((v, copies, 0),) + tail
                yield ((v, copies - 1, 1),) + tail


def weight(pi) -> int:
    return sum(v * (p + o) for v, p, o in pi)


def _smallest_plain(pi):
    plain = [(v, p) for v, p, _ in pi if p]
    return plain[-1] if plain else (None, 0)


def value(pi, token: str, default_k: int = 1) -> int:
    """Contribution of ``pi`` to the token's count: 0 or 1, or the sign
    for ``-prime`` tokens."""
    base, k, signed = resolve(token, default_k)
    values = [v for v, _, _ in pi]
    parts = sum(p + o for _, p, o in pi)
    if base == "pbar":
        return 1
    if base == "pe":
        return int(all(v % 2 == 0 for v in values))
    plain_one = any(v == 1 and p for v, p, _ in pi)
    if base == "pex":
        return int(not plain_one)
    if base in ("poex", "ce", "co"):
        if plain_one or any(v % 2 == 0 for v in values):
            return 0
        if base == "ce":
            return int(parts % 2 == 0)
        if base == "co":
            return int(parts % 2 == 1)
        return (-1) ** parts if signed else 1
    s, mult = _smallest_plain(pi)
    if s is None or mult != k or min(values) != s or any(v == s and o for v, _, o in pi):
        return 0
    if base != "spt" and any(v != s and v % 2 == s % 2 for v in values):
        return 0
    above = sum(p + o for v, p, o in pi if v > s)
    if base == "be":
        return int(above % 2 == 0)
    if base == "bo":
        return int(above % 2 == 1)
    return (-1) ** above if signed else 1


def count(token: str, n: int, default_k: int = 1) -> int:
    return sum(value(pi, token, default_k) for pi in overpartitions(n))


def to_text(pi) -> str:
    """Literal in the program's canonical form: largest part first, the
    overlined copy of a value before its plain copies."""
    if not pi:
        return "[]"
    out = []
    for v, p, o in pi:
        out += [f"{v}o"] * o + [str(v)] * p
    return ",".join(out)


def parse(text: str):
    text = text.strip()
    if text == "[]":
        return ()
    runs: dict[int, list[int]] = {}
    for tok in text.split(","):
        tok = tok.strip()
        over = tok.endswith("o")
        slot = runs.setdefault(int(tok[:-1] if over else tok), [0, 0])
        slot[1 if over else 0] += 1
    return tuple((v, p, o) for v, (p, o) in sorted(runs.items(), reverse=True))
