"""Exhaustive generation, exact counting, and signed counting of
overpartitions, plus the identity checks built on those counts.

Membership comes only from the family table in :mod:`overpart.core`:
each overpartition is reduced to its :class:`~overpart.core.Signature`,
and the table is evaluated once per distinct signature.  Listing walks
the runs in enumeration order (Knuth, TAOCP 4A, 7.2.1.4, generating all
partitions) and carries each overpartition's run state down to it: the
number of odd values and the number of even values, each capped at 2,
and the parity of the part count, which is all a signature reads of the
runs above the last one.

A family is listed by one walk that skips every subtree in which no
overpartition is a member.  One memo, an unbounded ``lru_cache`` shared
by every family and weight, records for each family and each run state
met, with the weight left and the largest value allowed, the value of
the first run of the first member that the family's walk from that
state yields, or 0 when it yields none; the walk stops at that first
member.  So the walk skips a tail that completes no member, and
after each run value it goes straight to the next value that starts a
member.  At a leaf each head variant is tested with the signature the
walk carried down.  ``overpartitions`` is the walk of the PBAR family,
whose every subtree holds a member.  Only the 32 most recently used
family listings are kept.

Counting lists nothing (Andrews, "The number of smallest parts in the
partitions of n", 2008; Corteel and Lovejoy, "Overpartitions", 2004).
A memo counts, by run state, the overpartitions of m whose parts all
exceed s, for every m and s up to the largest weight asked for; it is
filled without recursion, by one thread at a time under a lock, and
shared by every weight and thread.  Each
overpartition of n is its smallest run (t parts of value v, the first
plain or overlined) above an overpartition of n - v*t with parts above
v, so the memo gives how many overpartitions of n have each signature.
Each distinct signature then adds its multiplicity to the columns it
counts in, with sign -1 in a -prime column for the odd refinement, so a
signed count is the even refinement's count minus the odd one's.  All
counts are exact Python integers (arbitrary precision).

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

which golden tests freeze.  A family's listing is this order with the
non-members left out: the family's walk only skips subtrees, so sparse
families such as spt1o cost far less than pbar(n).

Identities
----------
The five identities T1..T4o are defined once, in one private table:
each row gives the first n the identity holds for, its left-hand terms
and its right-hand terms, and a term ``(c, token, offset)`` stands for
``c * token(n + offset)``.  ``IDENTITIES`` and ``IDENTITY_START`` are
read from the table, and ``identity_sides`` sums each side term by
term from the counts of each term's weight.  For example T2 is

    spt1o(n) + spt1o(n-2) = 2*pe(n-1) + poex(n-1)      (n > 2)

``derivation_sides`` adds and subtracts the sides of T4e and T4o,
which must reproduce T2 and T3.
"""

from __future__ import annotations

import threading
from collections import Counter
from functools import lru_cache
from typing import Iterable, Iterator

from .core import (
    FAMILY_IDS, PBAR, SIGNED_REFINEMENTS, FamilySpec, OverPartition, Signature,
    _canonical, _signature_of, member, signature,
)

__all__ = [
    "overpartitions", "family_elements", "count_many", "count_profile",
    "profile_tokens",
    "IDENTITIES", "IDENTITY_START", "identity_sides", "derivation_sides",
]

# the run state of a set of runs: its numbers of odd and of even values,
# each capped at 2, and the parity of its part count, which is all that
# _signature_of reads of the runs above the last; _ABOVE[m][s] counts by
# state the overpartitions of m whose parts all exceed s (s <= m), one
# row per m, shared by every weight
_ABOVE: list[list[Counter]] = []
_FILLING = threading.Lock()  # held while rows are added to _ABOVE

_PBAR = FamilySpec(PBAR)


def _runs(remaining: int, cap: int, fam: FamilySpec = _PBAR, odd=0, even=0, parity=0):
    # each way to follow earlier runs with these run-state totals by runs
    # of weight remaining and values up to cap, in the order of the module
    # docstring, that makes a member of fam: its runs, and the signature of
    # the whole overpartition.  The two variants of a head share each
    # tail's signature, and differ only as the last run, with no tail.  A
    # tail no member completes is skipped, and so is every value below v
    # down to the next one that starts a member, both read from _first_value
    if not remaining and member(signature(()), fam):  # n = 0: the empty overpartition
        yield (), signature(())
    v = min(remaining, cap)
    while v:
        o, e = min(odd + (v & 1), 2), min(even + 1 - (v & 1), 2)
        for total in range(remaining // v, 0, -1):
            rest, p = remaining - v * total, parity ^ (total & 1)
            head_plain, head_over = (v, total, 0), (v, total - 1, 1)
            if not rest:
                for head in head_plain, head_over:
                    sig = _signature_of(o, e, p, (v & 1, v == 1, head[1], head[2]))
                    if member(sig, fam):
                        yield (head,), sig
            elif _first_value(fam.id, fam.k, rest, min(v - 1, rest), o, e, p):
                for tail, sig in _runs(rest, v - 1, fam, o, e, p):
                    yield (head_plain,) + tail, sig
                    yield (head_over,) + tail, sig
        v = _first_value(fam.id, fam.k, remaining, v - 1, odd, even, parity)


# keyed by the spec's fields, as core._member is: a FamilySpec hashes in Python
@lru_cache(maxsize=None)
def _first_value(fid: str, k: int, remaining: int, cap: int,
                 odd: int, even: int, parity: int) -> int:
    # the largest value of a first run in the walk of this state by family
    # (fid, k), 0 when it yields none: the walk stops at its first member.
    # Callers pass cap <= remaining, since a larger cap acts as remaining,
    # so each state has one key
    first = next(_runs(remaining, cap, FamilySpec(fid, k), odd, even, parity), None)
    return first[0][0][0] if first else 0


def _weight(n: int) -> int:
    if n < 0:
        raise ValueError("n must be nonnegative")
    return n


def overpartitions(n: int) -> Iterator[OverPartition]:
    """Yield every overpartition of ``n`` once, in the documented order."""
    # the PBAR family walk; the runs are canonical by construction, so
    # nothing is revalidated, and each object holds the run tuples _runs
    # shares across its tails
    return (_canonical(runs) for runs, _ in _runs(_weight(n), n))


@lru_cache(maxsize=32)
def family_elements(fam: FamilySpec, n: int) -> tuple[OverPartition, ...]:
    """Family members at weight ``n``, in enumeration order, from one
    walk that skips every subtree holding no member; the 32 most
    recently used listings are memoized."""
    return tuple(_canonical(runs) for runs, _ in _runs(_weight(n), n, fam))


def _above(m: int, s: int) -> Counter:
    # _ABOVE[m][s], after filling every row up to m.  Rows go by m
    # ascending and each row by s descending, so every entry reads filled
    # ones only: at s = m there is only the empty overpartition of 0, and
    # the entry for s = v - 1 is the one for s = v plus the overpartitions
    # whose smallest run has value v, each with a plain or an overlined head.
    # One thread fills at a time, since a row's index is len(_ABOVE) while
    # it is built; the filling thread reads filled rows only, so its own
    # calls here do not take the lock again
    if len(_ABOVE) <= m:
        with _FILLING:
            while len(_ABOVE) <= m:
                row = [Counter({(0, 0, 0): 1} if not _ABOVE else ())]
                for v in range(len(_ABOVE), 0, -1):
                    row.append(Counter(row[-1]))
                    for _, _, state, count in _smallest_runs(len(_ABOVE), (v,)):
                        row[-1][state] += 2 * count
                _ABOVE.append(row[::-1])
    return _ABOVE[m][min(s, m)]


def _smallest_runs(m: int, values: Iterable[int]):
    # (v, t, state, count): the overpartitions of m whose smallest run is t
    # parts of value v, for each v in values, with one head variant,
    # counted by the state of all their runs
    for v in values:
        for t in range(1, m // v + 1):
            for (odd, even, parity), count in _above(m - v * t, v).items():
                yield v, t, (min(odd + v % 2, 2), min(even + 1 - v % 2, 2), parity ^ t % 2), count


def _signature_counts(n: int) -> Counter:
    # how many overpartitions of n have each signature, from the run
    # states alone: no overpartition is built or walked
    sigs = Counter({signature(()): 1} if _weight(n) == 0 else ())
    for v, t, (odd, even, parity), count in _smallest_runs(n, range(1, n + 1)):
        sigs[_signature_of(odd, even, parity, (v & 1, v == 1, t, 0))] += count
        sigs[_signature_of(odd, even, parity, (v & 1, v == 1, t - 1, 1))] += count
    return sigs


@lru_cache(maxsize=None)
def _tokens_of(sig: Signature) -> tuple[tuple[str, int], ...]:
    # (column, sign) for every column an overpartition with this signature
    # counts in: +1 in each family it belongs to, and +1 or -1 in the
    # -prime column of a signed family whose even or odd refinement it
    # belongs to; a parametric family can only hold at k = sig.k
    k = max(sig.k, 1)
    held = [fid for fid in FAMILY_IDS if member(sig, FamilySpec(fid, k))]
    return tuple([(FamilySpec(fid, k).token, 1) for fid in held] + [
        (FamilySpec(fid, k).token + "-prime", sign) for fid, halves in SIGNED_REFINEMENTS.items()
        for half, sign in zip(halves, (1, -1)) if half in held])


@lru_cache(maxsize=None)
def _token_counts(n: int) -> Counter:
    # every column at weight n, each signature's multiplicity added to the
    # columns it counts in (each column at most once per signature)
    counts = Counter()
    for sig, mult in _signature_counts(n).items():
        counts.update({token: sign * mult for token, sign in _tokens_of(sig)})
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
# identities between the counting functions, each checked by exact counts
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


def identity_sides(identity: str, n: int) -> tuple[int, int]:
    """Left and right side of one identity at ``n``, both exact counts,
    summed term by term from the identity table."""
    if identity not in _IDENTITY_TABLE:
        raise ValueError(f"unknown identity {identity!r}")
    start, lhs, rhs = _IDENTITY_TABLE[identity]
    if n < start:
        raise ValueError(f"{identity} holds for n > {start - 1}")
    return tuple(sum(c * _token_counts(n + offset)[token] for c, token, offset in terms)
                 for terms in (lhs, rhs))


def derivation_sides(n: int) -> dict[str, tuple[int, int]]:
    """Recombine the even/odd refined identities from the b/c tables.

    The sum of the T4e and T4o identities must reproduce T2 and their
    difference must reproduce T3, using only the refined counts be1,
    bo1, ce, co, and pe.  Returns the two (lhs, rhs) pairs; n starts
    where T4e and T4o do.
    """
    (be, even), (bo, odd) = identity_sides("T4e", n), identity_sides("T4o", n)
    return {"sum": (be + bo, even + odd), "difference": (be - bo, even - odd)}
