"""Exhaustive generation, exact counting, and signed counting of
overpartitions, plus the identity checks built on those counts.

Membership comes only from the family table in :mod:`overpart.core`:
each overpartition is reduced to its :class:`~overpart.core.Signature`,
and the table is read in one pass per distinct signature and
multiplicity.  Listing walks the runs in enumeration order (Knuth,
TAOCP 4A, 7.2.1.4, generating all partitions) and carries each
overpartition's run state down to it, as its index.  The run state and
its step table ``_STEP`` are defined in :mod:`overpart.core`; listing
and counting step the state through that one table.

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
family listings are kept, each with the signature the walk carried
down to every element beside it, so a caller that selected the
elements by signature need not read their runs again.

Counting lists nothing (Andrews, "The number of smallest parts in the
partitions of n", 2008; Corteel and Lovejoy, "Overpartitions", 2004).
Each overpartition of m is its smallest run (t parts of value v, the
first plain or overlined) above an overpartition of m - v*t with parts
above v.  A memo holds, for every m and s up to the largest weight
asked for, a vector of 18 counts, one per run state, of the
overpartitions whose parts all exceed s, summed over the weights m,
m - 2s, m - 4s, ...: smallest runs of t and of t + 2 parts of one value
step the run state alike, so each entry is filled from two earlier
ones, and the memo takes O(n^2) vector steps.  It is filled without
recursion, by one thread at a time under a lock, and shared by every
weight and thread.  A signature reads the smallest value only through
its parity and whether it is 1, so for each t the memo's entries are
summed over each such class of values before the run state is stepped,
which gives how many overpartitions of n have each signature.  Each
distinct signature then adds its multiplicity to the columns it counts
in, with sign -1 in a -prime column for the odd refinement, so a signed
count is the even refinement's count minus the odd one's.  All counts
are exact Python integers (arbitrary precision).

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
from operator import add, sub
from typing import Iterable, Iterator

from .core import (
    FAMILY_IDS, FAMILY_TABLE, PBAR, SIGNED_REFINEMENTS, FamilySpec, OverPartition, Signature,
    _STEP, _canonical, _held, _signature_of, member, signature,
)

__all__ = [
    "overpartitions", "family_elements", "count_many", "count_profile",
    "profile_tokens",
    "IDENTITIES", "IDENTITY_START", "identity_sides", "derivation_sides",
]

# a state vector holds 18 counts, one per run state, at the state's index
# (defined in overpart.core, which steps it by _STEP)
_NONE = [0] * 18
# _ABOVE[m][s], for s >= 1, is the state vector of the overpartitions of
# m, m - 2s, m - 4s, ... whose parts all exceed s, so the vector of m
# alone is the entry less the one at m - 2s; at s = 0 it is the vector of
# m alone.  One row per m, with s = 0 .. m, shared by every weight; every
# memo state lives here, and the entry at s = m > 0 is _NONE itself
_ABOVE: list[list[list[int]]] = []
_FILLING = threading.Lock()  # held while rows are added to _ABOVE

_PBAR = FamilySpec(PBAR)


def _runs(remaining: int, cap: int, fam: FamilySpec = _PBAR, state: int = 0):
    # each way to follow earlier runs in this run state by runs of weight
    # remaining and values up to cap, in the order of the module docstring,
    # that makes a member of fam: its runs, and the signature of the whole
    # overpartition.  The two variants of a head share each tail's
    # signature, and differ only as the last run, with no tail.  A tail no
    # member completes is skipped, and so is every value below v down to
    # the next one that starts a member, both read from _first_value
    if not remaining and member(signature(()), fam):  # n = 0: the empty overpartition
        yield (), signature(())
    v = min(remaining, cap)
    while v:
        for total in range(remaining // v, 0, -1):
            rest, below = remaining - v * total, _STEP[v & 1][total & 1][state]
            head_plain, head_over = (v, total, 0), (v, total - 1, 1)
            if not rest:
                for over, head in enumerate((head_plain, head_over)):
                    if member(sig := _signatures(v & 1, v == 1, total, over)[state], fam):
                        yield (head,), sig
            elif _first_value(fam, rest, min(v - 1, rest), below):
                for tail, sig in _runs(rest, v - 1, fam, below):
                    yield (head_plain,) + tail, sig
                    yield (head_over,) + tail, sig
        v = _first_value(fam, remaining, v - 1, state)


@lru_cache(maxsize=None)
def _first_value(fam: FamilySpec, remaining: int, cap: int, state: int) -> int:
    # the largest value of a first run in the walk of this state by fam, 0
    # when it yields none: the walk stops at its first member.  Callers
    # pass cap <= remaining, since a larger cap acts as remaining, so each
    # state has one key
    first = next(_runs(remaining, cap, fam, state), None)
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


def family_elements(fam: FamilySpec, n: int) -> tuple[OverPartition, ...]:
    """Family members at weight ``n``, in enumeration order, from one
    walk that skips every subtree holding no member; the 32 most
    recently used listings are memoized."""
    return _listing(fam, n)[0]


@lru_cache(maxsize=32)
def _listing(fam: FamilySpec, n: int) -> tuple[tuple[OverPartition, ...], tuple[Signature, ...]]:
    # family_elements(fam, n), and beside it the signature the walk carried
    # down to each element, in the same order
    elements, sigs = [], []
    for runs, sig in _runs(_weight(n), n, fam):
        elements.append(_canonical(runs))
        sigs.append(sig)
    return tuple(elements), tuple(sigs)


def _sums(m: int, s: int) -> list[int]:
    # _ABOVE[m][s], also below weight 0 (none) and for s > m (as at s = m)
    return _ABOVE[m][min(s, m)] if m >= 0 else _NONE


def _fill(n: int):
    # fill _ABOVE up to row n.  A row goes by s descending from s = m,
    # where only the empty overpartition of 0 counts, carrying the vector
    # of m alone: the one above s = v - 1 is the one above v plus the
    # overpartitions whose smallest run is t parts of value v, plain or
    # overlined, stepped by _STEP from the vector above v at m - v*t.
    # Runs of t and t + 2 parts step alike, so all odd t read one entry
    # (at m - v) and all even t another (at m - 2v).  An entry that is
    # _NONE itself adds nothing and is skipped.
    # One thread fills at a time, since a row's index is len(_ABOVE) while
    # it is built, and each checks under the lock which rows are missing;
    # the filling thread reads filled rows only
    with _FILLING:
        while len(_ABOVE) <= n:
            m, count = len(_ABOVE), _NONE
            row = [_NONE] * m + [count if m else [1] + _NONE[1:]]
            for v in range(m, 0, -1):
                count = list(count)
                for t in 1, 2:
                    if (sums := _sums(m - t * v, v)) is not _NONE:
                        for x, j in zip(sums, _STEP[v & 1][t & 1]):
                            count[j] += 2 * x
                row[v - 1] = list(map(add, count, _sums(m + 2 - 2 * v, v - 1))) if v > 1 else count
            _ABOVE.append(row)


def _signature_counts(n: int) -> Counter:
    # how many overpartitions of n have each signature, from the run
    # states alone: no overpartition is built or walked.  A signature reads
    # the smallest value v only through its class (v & 1, v == 1), so the
    # entries at n - v*t are summed over each class, for each t; as in the
    # memo, the runs of t parts are those sums at t less those at t + 2.
    # With an overlined head a signature reads t only through t & 1, which
    # the step puts in the state, and t > 1, so the runs of every t >= 2 of
    # one parity, which telescope to the sums at t = 2 or 3, count at once;
    # counting those runs t by t gives the same counts but takes 10-40 %
    # longer (every n <= 28 or <= 150 in process, x86-64 VM, Python 3.11)
    sigs = Counter({signature(()): 1} if _weight(n) == 0 else ())
    _fill(n - 1)
    sums = {}  # (t, v & 1, v == 1) -> the entries at n - v*t summed over that class of v
    for v in range(1, n + 1):
        for t in range(1, n // v + 1):
            if (above := _sums(n - v * t, v)) is not _NONE:
                sums[t, v & 1, v == 1] = list(map(add, sums.get((t, v & 1, v == 1), _NONE), above))
    for (t, odd, one), total in sums.items():
        runs = list(map(sub, total, sums.get((t + 2, odd, one), _NONE)))
        for over in (0, 1) if t < 4 else (0,):
            for sig, x in zip(_signatures(odd, one, t, over), total if over and t > 1 else runs):
                if x:
                    sigs[sig] += x
    return sigs


@lru_cache(maxsize=None)
def _signatures(odd: int, one: bool, t: int, over: int) -> tuple[Signature, ...]:
    # for each state of the runs above, the signature once a smallest run
    # of t parts goes below them, its value v of class (v & 1, v == 1) =
    # (odd, one), with an overlined head when over is 1
    return tuple(_signature_of(j, (odd, one, t - over, over)) for j in _STEP[odd][t & 1])


@lru_cache(maxsize=None)
def _tokens_of(sig: Signature) -> tuple[tuple[str, int], ...]:
    # (column, sign) for every column an overpartition with this signature
    # counts in: +1 in each family it belongs to, and +1 or -1 in the
    # -prime column of a signed family whose even or odd refinement it
    # belongs to; a parametric family can only hold at k = sig.k
    k = max(sig.k, 1)
    held = _held(sig, k)
    token = {fid: FAMILY_TABLE[fid].token.format(k=k) for fid in FAMILY_IDS if fid in held}
    return tuple([(tok, 1) for tok in token.values()] + [(token[fid] + "-prime", sign)
                  for fid, halves in SIGNED_REFINEMENTS.items()
                  for half, sign in zip(halves, (1, -1)) if half in token])


@lru_cache(maxsize=None)
def _token_counts(n: int) -> Counter:
    # every column at weight n, each signature's multiplicity added to the
    # columns it counts in (each column at most once per signature)
    counts = Counter()
    for sig, mult in _signature_counts(n).items():
        for token, sign in _tokens_of(sig):
            counts[token] += sign * mult
    return counts


def count_many(n: int, columns: Iterable[tuple[FamilySpec, bool]]) -> list[int]:
    """Counts at weight ``n`` for ``(family, signed)`` columns; a signed
    column is the even refinement's count minus the odd one's."""
    counts = _token_counts(n)
    return [counts[fam.token + ("-prime" if signed else "")] for fam, signed in columns]


def profile_tokens(k_max: int = 1) -> list[str]:
    """Column names produced by :func:`count_profile`."""
    return ["pbar", "pe", "pex", "poex", "ce", "co", "poex-prime"] + [tok for k in range(1, k_max + 1)
            for tok in (f"spt{k}", f"spt{k}o", f"be{k}", f"bo{k}", f"spt{k}o-prime")]


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
