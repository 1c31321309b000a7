"""Seeded operation lists for the three workloads.

Each operation is the argv of one ``overpart`` command.  The seed picks
family tokens, token spelling, output formats, identities, map inputs
and the order of operations.  The costly shape of a workload (which
weights n, which series orders, how many cache fills and streamed
sweeps) is stratified: it is the same for every seed, so runs with
different seeds do the same amount of work and stay comparable.
"""

from __future__ import annotations

import random
from functools import lru_cache

import reference
from check import MAP_SOURCES

WORKLOADS = ("enum-count", "series-oracle", "bijection-audit")

# stated input ranges; tests check that every generated op stays inside them
ENUM_N = range(18, 29)          # both sides of the program's n <= 25 cache limit
CACHED_N = range(18, 26)
STREAMED_N = (26, 27, 28)
HIT_N = 22                      # the weight of the repeated cache hits
SERIES_ORDERS = (240, 260, 280, 300, 320, 340)
SELFTEST_N = range(8, 13)
AUDIT_N = range(16, 24)
AUDIT_MAPS = 60                 # map operations per bijection-audit pass
THEOREMS = ("T1", "T2", "T3", "T4e", "T4o")
K_RANGE = range(1, 5)

ALL_TOKENS = ("pbar", "pe", "pex", "poex", "ce", "co", "poex-prime") + tuple(
    f"{stem}{k}{suffix}" for k in K_RANGE
    for stem, suffix in (("spt", ""), ("spt", "o"), ("be", ""), ("bo", ""), ("spt", "o-prime")))

# series token groups: every token of a group reads the same suffix-product
# tables in the same order, so the program's table cache sees the same
# sequence of hits, misses and evictions whichever tokens the seed picks
SERIES_GROUPS = {
    "all": ("pbar", "pex", "spt1", "spt2", "spt3", "spt4"),
    "parity": ("spt1o", "spt2o", "spt3o", "spt4o"),
    "signed": ("be1", "be2", "be3", "be4", "bo1", "bo2", "bo3", "bo4"),
    "prime": ("spt1o-prime", "spt2o-prime", "spt3o-prime", "spt4o-prime"),
    "poex": ("ce", "co"),
}
# (order, group) blocks: the first block at an order builds its tables; later
# blocks reuse them or, once evicted from the program's 16-entry cache,
# rebuild them.  Build costs grow as order^3, so close orders give build
# times without large gaps, and p90 (the 11th of 15 builds) has no cliff
# next to it.
SERIES_SCHEDULE = (
    [(o, g) for o in SERIES_ORDERS for g in ("all", "parity")]
    + [(260, "signed"), (320, "signed")]
    + [(240, "all"), (340, "parity"), (320, "prime"), (260, "poex")]
)
SERIES_BLOCK = 6


def _token_stream(rng: random.Random):
    """Family tokens without end: every token once per round, each round
    shuffled, so a long enough list covers every token."""
    while True:
        tokens = list(ALL_TOKENS)
        rng.shuffle(tokens)
        yield from tokens


def _spelled(rng: random.Random, token: str) -> list[str]:
    """The token as written, or its k-less spelling with ``--k``."""
    base, k, _ = reference.resolve(token)
    if base in ("spt", "spto", "be", "bo") and rng.random() < 0.3:
        stem = {"spt": "sptk", "spto": "sptko", "be": "be", "bo": "bo"}[base]
        return [stem + ("-prime" if token.endswith("-prime") else ""), "--k", str(k)]
    return [token]


def enum_count(rng: random.Random) -> list[list[str]]:
    tokens = _token_stream(rng)

    def count(n):
        tok = _spelled(rng, next(tokens))
        return ["count", tok[0], str(n)] + tok[1:]

    def verify(n):
        return ["verify", rng.choice(THEOREMS + ("ALL",)), "--n-max", str(n)]

    def table(n):
        return ["table", "--families", ",".join(rng.sample(ALL_TOKENS, 3)), "--n-max", str(n),
                "--format", rng.choice(("text", "csv", "json"))]

    # Cache fills come first, in a fixed order, so the same operations pay
    # for them whatever the seed.  The shuffled rest is sized so that the
    # median falls inside a block of 44 similar cache hits (counts at
    # HIT_N) and p90 inside a block of 15 similar table hits (n-max HIT_N),
    # never on a boundary between operations of very different cost.
    fills = [table(CACHED_N[-1]), verify(CACHED_N[-1])]
    body = [count(HIT_N) for _ in range(44)]
    body += [count(n) for n in CACHED_N if n != HIT_N for _ in range(4)]
    body += [verify(n) for n in CACHED_N[:-1]] + [table(HIT_N) for _ in range(15)]
    body += [count(n) for n in STREAMED_N] + [verify(STREAMED_N[0])]
    rng.shuffle(body)
    return fills + body


def series_oracle(rng: random.Random) -> list[list[str]]:
    ops = []
    for order, group in SERIES_SCHEDULE:
        group_tokens = SERIES_GROUPS[group]
        for tok in (rng.sample(group_tokens, len(group_tokens)) * SERIES_BLOCK)[:SERIES_BLOCK]:
            ops.append(["series", *_spelled(rng, tok), "--order", str(order)])
    # last, at a fixed place: where it falls among the series shifts the
    # process's peak RSS by about 2 MiB
    ops.append(["selftest", "--n-max", str(rng.choice(SELFTEST_N)),
                "--k-max", str(rng.choice((1, 2)))])
    return ops


@lru_cache(maxsize=None)
def map_inputs(theorem: str, source: str, n: int) -> list:
    """Every valid input of one map summand, by the reference oracle.
    T3 acts on s = 1 (matching, summand N only) and on even s."""
    token, offset = MAP_SOURCES[theorem, source]
    out = []
    for pi in reference.overpartitions(n - offset):
        # every source family has a single plain copy of its smallest part
        if pi[-1][1:] != (1, 0) or not reference.value(pi, token):
            continue
        s = pi[-1][0]
        if theorem == "T3" and not (s % 2 == 0 or (s == 1 and source == "N")):
            continue
        out.append(pi)
    return out


def bijection_audit(rng: random.Random) -> list[list[str]]:
    golden_n = {t: rng.choice(AUDIT_N[:2]) for t in THEOREMS}
    audits = []
    for n in AUDIT_N:  # a fixed order, so the same audits pay for cache fills whatever the seed
        for t in THEOREMS:
            op = ["check-bijection", t, "--n", str(n)]
            audits.append(op + ["--golden"] if golden_n[t] == n else op)
    summands = [(t, s, n) for t, s in MAP_SOURCES for n in AUDIT_N
                if map_inputs(t, s, n)]  # bo1 vanishes at even weights
    map_ops = []
    for i in range(AUDIT_MAPS):
        theorem = THEOREMS[i % len(THEOREMS)]
        _, source, n = rng.choice([x for x in summands if x[0] == theorem])
        pi = rng.choice(map_inputs(theorem, source, n))
        op = ["map", theorem, "--input", reference.to_text(pi), "--n", str(n)]
        if source != "N" or rng.random() < 0.5:
            op += ["--source", source]
        map_ops.append(op + ["--format", rng.choice(("text", "json"))])
    ops = audits
    for op in map_ops:  # maps touch no cache, so where they fall is cost-neutral
        ops.insert(rng.randrange(len(ops) + 1), op)
    return ops


def generate(workload: str, seed: int) -> list[list[str]]:
    """The operation list of one workload; the same seed gives the same list."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == "enum-count":
        return enum_count(rng)
    if workload == "series-oracle":
        return series_oracle(rng)
    if workload == "bijection-audit":
        return bijection_audit(rng)
    raise ValueError(f"unknown workload {workload!r}")
