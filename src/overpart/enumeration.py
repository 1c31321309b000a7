"""Exhaustive generation, exact counting, and signed counting of
overpartitions, plus the identity checks built on those counts.

Membership comes only from the family table in :mod:`overpart.core`:
each overpartition is reduced to its :class:`~overpart.core.Signature`,
and the table is evaluated once per distinct signature.  Counting walks
the runs without building them: the walk follows the enumeration
recursion and carries the number of odd values, the number of runs and
the parity of the part count down to each completed overpartition,
which yields its signature there, in enumeration order.  Signed counts
are differences of the even and odd refinements.  All counts are exact
Python integers (arbitrary precision).

Enumeration order
-----------------
``overpartitions(n)`` yields each overpartition of ``n`` exactly once,
in a fixed documented order: runs of equal parts are chosen left to
right with the run value descending from ``n`` and, for a given value,
the number of copies descending; for each such choice the remainder is
enumerated recursively, and every completed tail is emitted first with
the run entirely plain and then with its first copy overlined.  For
n=4 this gives

    4, 4o, 3,1, 3o,1, 3,1o, 3o,1o, 2,2, 2o,2, 2,1,1, 2o,1,1,
    2,1o,1, 2o,1o,1, 1,1,1,1, 1o,1,1,1

which golden tests freeze.  Family streams preserve this order.

Identities
----------
The five identities T1..T4o are defined once, in one private table:
each row gives the first n the identity holds for, its left-hand terms
and its right-hand terms, and a term ``(c, token, offset)`` stands for
``c * token(n + offset)``.  ``IDENTITIES`` and ``IDENTITY_START`` are
read from the table, and ``identity_sides`` sums each side term by
term from :func:`count_profile`.  For example T2 is

    spt1o(n) + spt1o(n-2) = 2*pe(n-1) + poex(n-1)      (n > 2)

``derivation_sides`` adds and subtracts the sides of T4e and T4o,
which must reproduce T2 and T3.
"""

from __future__ import annotations

from collections import Counter
from functools import lru_cache
from typing import Iterable, Iterator

from .core import (
    FAMILY_IDS, SIGNED_REFINEMENTS, FamilySpec, OverPartition, Signature,
    _canonical, _signature_of, member, signature,
)

__all__ = [
    "overpartitions", "family_elements", "count_many", "count_profile",
    "profile_tokens",
    "IDENTITIES", "IDENTITY_START", "identity_sides", "derivation_sides",
]

# annotated enumerations are memoized up to this weight; audits and
# repeated family lookups stay below it, one-shot sweeps above it stream.
# _annotated_cache[n] holds the overpartitions of n in enumeration order
# and _signatures[n] their signatures, aligned by index; both are filled
# together, so n in _annotated_cache means _signatures[n] is current.
# Every enumerated signature comes from _walk, which follows the runs
# without building them
_CACHE_LIMIT = 25
_annotated_cache: dict[int, tuple[OverPartition, ...]] = {}
_signatures: dict[int, tuple[Signature, ...]] = {}


def _runs(remaining: int, cap: int):
    # raw entry tuples, recursion documented in the module docstring
    if remaining == 0:
        yield ()
        return
    for v in range(min(remaining, cap), 0, -1):
        for total in range(remaining // v, 0, -1):
            head_plain = (v, total, 0)
            head_over = (v, total - 1, 1)
            for tail in _runs(remaining - v * total, v - 1):
                yield (head_plain,) + tail
                yield (head_over,) + tail


def _walk(remaining: int, cap: int, odd_values=0, runs=0, parity=0):
    # the signatures of the overpartitions made of earlier runs with these
    # totals followed by one of _runs(remaining, cap), in _runs order; the
    # two variants of a head have the same totals, so they share each
    # tail's signature, and differ only as the last run, with no tail
    if not remaining:  # n = 0: the empty overpartition
        yield signature(())
    for v in range(min(remaining, cap), 0, -1):
        odd, r = odd_values + (v & 1), runs + 1
        for total in range(remaining // v, 0, -1):
            rest, p = remaining - v * total, parity ^ (total & 1)
            if rest:
                for sig in _walk(rest, v - 1, odd, r, p):
                    yield sig
                    yield sig
            else:
                yield _signature_of(odd, r, p, (v, total, 0))
                yield _signature_of(odd, r, p, (v, total - 1, 1))


def _entries(n: int, walk=_runs):
    # the runs of every overpartition of n, or with walk=_walk their
    # signatures, in enumeration order
    if n < 0:
        raise ValueError("n must be nonnegative")
    return walk(n, n)


def overpartitions(n: int) -> Iterator[OverPartition]:
    """Yield every overpartition of ``n`` once, in the documented order."""
    # the runs are canonical by construction, so nothing is revalidated,
    # and each object holds the run tuples _runs shares across its tails
    return map(_canonical, _entries(n))


def _annotated(n: int) -> Iterable[tuple[OverPartition, Signature]]:
    if n > _CACHE_LIMIT:
        return zip(overpartitions(n), _entries(n, _walk))
    if n not in _annotated_cache:
        _signatures[n] = tuple(_entries(n, _walk))
        _annotated_cache[n] = tuple(overpartitions(n))
    return zip(_annotated_cache[n], _signatures[n])


@lru_cache(maxsize=None)
def family_elements(fam: FamilySpec, n: int) -> tuple[OverPartition, ...]:
    """Memoized family members at weight ``n``, in enumeration order."""
    # one pass, so the streamed n > _CACHE_LIMIT sweep still works; the
    # table is evaluated once per distinct signature
    verdicts: dict[Signature, bool] = {}
    members = []
    for pi, sig in _annotated(n):
        holds = verdicts.get(sig)
        if holds is None:
            holds = verdicts[sig] = member(sig, fam)
        if holds:
            members.append(pi)
    return tuple(members)


@lru_cache(maxsize=None)
def _token_counts(n: int) -> Counter:
    # the signatures of weight n, from the annotated cache when it holds n
    # (an audit has just enumerated it), else from one walk over the runs;
    # then the family table once per distinct signature; a parametric
    # family can only hold at k = sig.k
    sigs = _signatures[n] if n in _annotated_cache else _entries(n, _walk)
    counts = Counter()
    for sig, mult in Counter(sigs).items():
        for fid in FAMILY_IDS:
            fam = FamilySpec(fid, max(sig.k, 1))
            if member(sig, fam):
                counts[fam.token] += mult
    # each -prime column is its even refinement minus its odd one
    for fid, (even, odd) in SIGNED_REFINEMENTS.items():
        for k in range(1, max(n, 1) + 1):
            counts[FamilySpec(fid, k).token + "-prime"] = (
                counts[FamilySpec(even, k).token] - counts[FamilySpec(odd, k).token])
    return counts


def count_many(n: int, columns: Iterable[tuple[FamilySpec, bool]]) -> list[int]:
    """Counts at weight ``n`` for ``(family, signed)`` columns; a signed
    column is the even refinement's count minus the odd one's."""
    counts = _token_counts(n)
    return [counts[fam.token + ("-prime" if signed else "")] for fam, signed in columns]


def profile_tokens(k_max: int = 1) -> list[str]:
    """Column names produced by :func:`count_profile`."""
    toks = ["pbar", "pe", "pex", "poex", "ce", "co", "poex-prime"]
    for k in range(1, k_max + 1):
        toks += [f"spt{k}", f"spt{k}o", f"be{k}", f"bo{k}", f"spt{k}o-prime"]
    return toks


def count_profile(n: int, k_max: int = 1) -> dict[str, int]:
    """Every family and signed count with k <= ``k_max`` at weight ``n``, by token."""
    counts = _token_counts(n)
    return {tok: counts[tok] for tok in profile_tokens(k_max)}


# ---------------------------------------------------------------------------
# identities between the counting functions, each checked by enumeration
# ---------------------------------------------------------------------------

# identity -> (first n, left-hand terms, right-hand terms); a term
# (c, token, offset) stands for c * token(n + offset).  T2 and T3 are the
# sum and difference of T4e and T4o, since spt1o = be1 + bo1 and
# spt1o-prime = be1 - bo1
_IDENTITY_TABLE = {
    "T1": (2, ((1, "spt1", 0), (1, "spt1", -1)), ((1, "pex", 0),)),
    "T2": (3, ((1, "spt1o", 0), (1, "spt1o", -2)), ((2, "pe", -1), (1, "poex", -1))),
    "T3": (3, ((1, "spt1o-prime", 0), (1, "spt1o-prime", -2)), ((-1, "poex-prime", -1),)),
    "T4e": (3, ((1, "be1", 0), (1, "be1", -2)), ((1, "pe", -1), (1, "co", -1))),
    "T4o": (3, ((1, "bo1", 0), (1, "bo1", -2)), ((1, "pe", -1), (1, "ce", -1))),
}

IDENTITIES = tuple(_IDENTITY_TABLE)

# first n for which each identity is asserted
IDENTITY_START = {name: row[0] for name, row in _IDENTITY_TABLE.items()}


def _side(terms, n: int) -> int:
    # one count_profile call per term, in table order, looked up at call
    # time so that a wrapper on the module attribute sees every call
    return sum(c * count_profile(n + offset)[token] for c, token, offset in terms)


def identity_sides(identity: str, n: int) -> tuple[int, int]:
    """Left and right side of one identity at ``n``, both by enumeration,
    summed term by term from the identity table."""
    if identity not in _IDENTITY_TABLE:
        raise ValueError(f"unknown identity {identity!r}")
    start, lhs, rhs = _IDENTITY_TABLE[identity]
    if n < start:
        raise ValueError(f"{identity} holds for n > {start - 1}")
    return _side(lhs, n), _side(rhs, n)


def derivation_sides(n: int) -> dict[str, tuple[int, int]]:
    """Recombine the even/odd refined identities from the b/c tables.

    The sum of the T4e and T4o identities must reproduce T2 and their
    difference must reproduce T3, using only the refined counts be1,
    bo1, ce, co, and pe.  Returns the two (lhs, rhs) pairs.
    """
    if n < 3:
        raise ValueError("defined for n > 2")
    (be, even), (bo, odd) = identity_sides("T4e", n), identity_sides("T4o", n)
    return {"sum": (be + bo, even + odd), "difference": (be - bo, even - odd)}
