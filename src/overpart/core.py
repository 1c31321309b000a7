"""Overpartition data model: canonical run-length form, text literals,
part statistics, and membership tests for the counted families.

An overpartition is a partition in which the first occurrence of each
part size may additionally be overlined.  The canonical form used
throughout is a run-length encoding: a sequence of ``(value, plain,
over)`` int triples with values strictly decreasing, ``plain + over
>= 1``, and ``over`` either 0 or 1 (at most one overlined copy per
value).  The empty sequence is the unique overpartition of 0.

Throughout, ``s`` denotes the smallest non-overlined ("plain") part
value of an overpartition, and ``s2`` the smallest part value strictly
greater than ``s``.  The ten families (:class:`FamilySpec`) are defined
once, in :data:`FAMILY_TABLE`: each row names a parent family and adds
one clause on the overpartition's :class:`Signature`.  Membership,
the explanations of non-membership, and every enumerated count and
family listing read that table.

A signature reads the runs only through the last run and their run
state: the number of odd values and the number of even values, each
capped at 2, and the parity of the part count.  The 18 run states are
indexed 6*odd + 2*even + parity, so no runs is state 0, and one table,
``_STEP``, steps the index as a run of some value parity and part-count
parity is added.  Signatures, counting and family listing all step the
state through that table.

Text literals are comma-separated tokens, largest part first, with a
``o`` suffix marking the overlined copy: ``"4o,2o,2,1"``.  The empty
overpartition is written ``"[]"``.
"""

from __future__ import annotations

import math
import re
from functools import lru_cache, partial
from operator import index
from typing import Callable, Iterator, NamedTuple

__all__ = [
    "INFINITY",
    "PBAR", "SPTK", "SPTKO", "PE", "PEX", "POEX", "BEK", "BOK", "CE", "CO",
    "FAMILY_IDS",
    "OverpartitionError", "ParseError", "CollisionError",
    "OverPartition", "Stats", "FamilySpec", "Signature", "Family",
    "FAMILY_TABLE", "SIGNED_REFINEMENTS",
    "parse", "stats", "signature", "member", "is_member",
    "why_not_member", "parse_family_token",
]

INFINITY = math.inf

PBAR = "PBAR"
SPTK = "SPTK"
SPTKO = "SPTKO"
PE = "PE"
PEX = "PEX"
POEX = "POEX"
BEK = "BEK"
BOK = "BOK"
CE = "CE"
CO = "CO"

FAMILY_IDS = (PBAR, SPTK, SPTKO, PE, PEX, POEX, BEK, BOK, CE, CO)


class OverpartitionError(ValueError):
    """Structural violation of the overpartition invariants."""


class ParseError(OverpartitionError):
    """Malformed overpartition literal."""


class CollisionError(OverpartitionError):
    """Attempt to overline a value that is already overlined."""


_TOKEN = re.compile(r"(\d+)(o?)\Z")


def _integral(x) -> int:
    try:  # ints and bools only: int() would truncate 2.7 and parse '4'
        return index(x)
    except TypeError:
        raise OverpartitionError(f"entry fields must be integers, got {x!r}") from None


class OverPartition(tuple):
    """An overpartition in canonical run-length form.

    Instances are tuples of ``(value, plain, over)`` int triples, one
    per run of equal parts (``plain`` ordinary copies plus an optional
    overlined copy, ``over`` 0 or 1), with strictly decreasing values,
    so they are immutable, hashable, and cheaply comparable.  The
    triples are exact tuples of ints, which the garbage collector stops
    tracking; the OverPartition holding them, a tuple subclass, stays
    tracked, so each element of a cached listing is one object its
    collections still visit.
    Construct from entries (validated), from expanded parts with
    :meth:`from_parts`, or from a literal with :func:`parse`.
    Enumeration and the map moves skip revalidation, because their
    results are canonical by construction.
    """

    __slots__ = ()

    def __new__(cls, entries=()):
        items, prev = [], None
        for e in entries:
            v, p, o = map(_integral, e)
            if v < 1:
                raise OverpartitionError(f"part value must be positive, got {v}")
            if p < 0:
                raise OverpartitionError(f"negative plain count for value {v}")
            if o not in (0, 1):
                raise OverpartitionError(f"overline flag for value {v} must be 0 or 1")
            if p + o < 1:
                raise OverpartitionError(f"empty entry for value {v}")
            if prev is not None and v >= prev:
                raise OverpartitionError("entry values must be strictly decreasing")
            prev = v
            items.append((v, p, o))
        return tuple.__new__(cls, items)

    @classmethod
    def from_parts(cls, parts) -> "OverPartition":
        """Build from expanded ``(value, overlined)`` pairs, in any order."""
        acc: dict[int, list[int]] = {}
        for value, overlined in parts:
            slot = acc.setdefault(_integral(value), [0, 0])
            if overlined:
                if slot[1]:
                    raise OverpartitionError(f"duplicate overlined copy of {value}")
                slot[1] = 1
            else:
                slot[0] += 1
        return cls([(v, p, o) for v, (p, o) in sorted(acc.items(), reverse=True)])

    def parts(self) -> Iterator[tuple[int, bool]]:
        """Expanded parts, largest first; the overlined copy of a value
        precedes its plain copies."""
        return ((v, over) for v, p, o in self for over in (True,) * o + (False,) * p)

    def to_text(self) -> str:
        """Canonical literal; inverse of :func:`parse`."""
        return ",".join(map(_run_text, self)) or "[]"

    @property
    def weight(self) -> int:
        return sum(v * (p + o) for v, p, o in self)

    @property
    def num_parts(self) -> int:
        return sum(p + o for _, p, o in self)

    __str__ = to_text

    def __repr__(self) -> str:
        return f"OverPartition({self.to_text()!r})"


@lru_cache(maxsize=1024)
def _run_text(run) -> str:
    # the literal of one run (v, p, o), its overlined copy first, as parts() lists it
    return ",".join([f"{run[0]}o"] * run[2] + [str(run[0])] * run[1])


# _canonical(entries) wraps a sequence of entry triples that is canonical by
# construction, without revalidation; outside input goes through
# OverPartition.  A partial, so each call costs no Python frame
_canonical = partial(tuple.__new__, OverPartition)


def parse(text: str) -> OverPartition:
    """Parse an overpartition literal.

    Grammar: ``[]`` for the empty overpartition, otherwise
    comma-separated tokens ``<digits>`` or ``<digits>o`` (overlined),
    whitespace around tokens ignored, any part order accepted.
    """
    stripped = text.strip()
    if stripped == "[]":
        return OverPartition(())
    if not stripped:
        raise ParseError("empty literal (use '[]' for the empty overpartition)")
    pairs = []
    for token in map(str.strip, stripped.split(",")):
        if not (m := _TOKEN.match(token)):
            raise ParseError(f"malformed token {token!r}")
        pairs.append((int(m.group(1)), m.group(2) == "o"))
    try:
        return OverPartition.from_parts(pairs)
    except OverpartitionError as exc:
        raise ParseError(str(exc)) from None


class Stats(NamedTuple):
    """The smallest-part statistics that the maps and the signed
    identities read.

    ``s`` is the smallest plain part value (None when every part is
    overlined).  ``s2`` is the smallest part value strictly greater
    than s (INFINITY when none, None when s is absent).  ``sign_spt``
    is -1 to the power of the number of parts greater than s (of every
    part when s is absent), and ``sign_parts`` -1 to the power of the
    number of parts.
    """

    s: int | None
    s2: int | float | None
    sign_spt: int
    sign_parts: int


def stats(pi: OverPartition) -> Stats:
    """Compute all :class:`Stats` fields in one pass."""
    num = above = 0
    s_idx = -1
    for i, (_, p, o) in enumerate(pi):
        if p:  # entries are descending, so the last hit is smallest
            s_idx, above = i, num
        num += p + o
    sign_parts = -1 if num & 1 else 1
    if s_idx < 0:
        return Stats(None, None, sign_parts, sign_parts)
    s2 = pi[s_idx - 1][0] if s_idx else INFINITY
    return Stats(pi[s_idx][0], s2, -1 if above & 1 else 1, sign_parts)


class FamilySpec(NamedTuple("FamilySpec", [("id", str), ("k", int)])):
    """One of the ten families, with the multiplicity parameter ``k``
    (only meaningful for SPTK, SPTKO, BEK, BOK).

    A named tuple: immutable, equal to and hashed as the plain tuple
    ``(id, k)``, so it unpacks and keys a cache at C speed.  A
    ``NamedTuple`` class body may not override ``__new__``, so the
    fields are declared in the base and this subclass validates them;
    ``_replace`` and ``_make`` do not validate.
    """

    __slots__ = ()

    def __new__(cls, id: str, k: int = 1):
        if id not in FAMILY_IDS:
            raise ValueError(f"unknown family id {id!r}")
        if k < 1:
            raise ValueError("k must be a positive integer")
        return tuple.__new__(cls, (id, k))

    @property
    def token(self) -> str:
        """Short name used by the command line and table headers."""
        return FAMILY_TABLE[self.id].token.format(k=self.k)


def parse_family_token(token: str, default_k: int = 1) -> tuple[FamilySpec, bool]:
    """Resolve a command-line family token to ``(FamilySpec, signed)``.

    Accepted forms: ``pbar pe pex poex ce co``, ``spt2``/``sptk``
    (k embedded or defaulted), ``spt2o``/``sptko``, ``be2 bo2``, and
    the signed variants ``spt2o-prime``/``sptko-prime`` and
    ``poex-prime``.
    """
    tok = token.strip().lower()
    signed = tok.endswith("-prime")
    tok = tok.removesuffix("-prime")
    for fid, pattern in _TOKEN_PATTERNS.items():
        if m := pattern.fullmatch(tok):
            k = m.group(1) if m.groups() else "1"  # families without k take k = 1
            fam = FamilySpec(fid, int(k) if k.isdigit() else default_k)
            break
    else:
        raise ValueError(f"unknown family {token!r}")
    if signed and fam.id not in SIGNED_REFINEMENTS:
        raise ValueError(f"family {fam.token!r} has no signed (-prime) variant")
    return fam, signed


class Signature(NamedTuple):
    """What the family clauses read from one overpartition.  ``k`` is the
    number of plain copies of s when the smallest entry is plain-only,
    else 0; ``opposite`` says every other value has parity opposite to s."""

    all_even: bool
    all_odd: bool
    plain_one: bool
    parity: int  # of the number of parts
    k: int
    opposite: bool


# _STATES[i] is (odd, even, parity) of the run state at index i (module
# docstring)
_STATES = [(odd, even, parity) for odd in range(3) for even in range(3) for parity in range(2)]
# _STEP[v & 1][t & 1][i]: the state of runs in state i once t parts of
# value v go below them
_STEP = [[[6 * min(odd + vo, 2) + 2 * min(even + 1 - vo, 2) + (parity ^ to)
           for odd, even, parity in _STATES] for to in (0, 1)] for vo in (0, 1)]

# one object per distinct signature, so that a lookup of an equal
# signature stops at the identity check
_SIGNATURES: dict[Signature, Signature] = {}


@lru_cache(maxsize=None)
def _signature_of(state: int, last) -> Signature:
    """The :class:`Signature` of runs whose run state, the last run
    included, has index ``state`` and whose last run is ``last``, given
    as ``(value & 1, value == 1, plain, over)``.  Each field is defined
    here once.  The fields read the runs only through their run state
    and the last value only through its parity and whether it is 1, so
    runs that differ beyond these share one cache entry;
    :func:`signature` and the counting and listing in
    :mod:`overpart.enumeration` reduce runs to these keys."""
    odd_values, even_values, parity = _STATES[state]
    odd_last, one, plain, over = last
    k = 0 if over else plain
    # every other value has the opposite parity: odd s is the only odd
    # value, even s the only even one
    opposite = k > 0 and (odd_values if odd_last else even_values) == 1
    sig = Signature(odd_values == 0, even_values == 0, one and plain > 0, parity, k, opposite)
    return _SIGNATURES.setdefault(sig, sig)


def _weighed_signature(entries) -> tuple[int, Signature]:
    """The weight and the interned :class:`Signature` of a canonical
    sequence of ``(value, plain, over)`` runs, read in one pass that steps
    the run state by :data:`_STEP`."""
    state = weight = 0
    v, p, o = 0, 0, 1  # no last run, as in the empty overpartition
    for v, p, o in entries:  # leaves (v, p, o) at the last run
        state = _STEP[v & 1][(p + o) & 1][state]
        weight += v * (p + o)
    return weight, _signature_of(state, (v & 1, v == 1, p, o))


def signature(entries) -> Signature:
    """The interned :class:`Signature` of an overpartition, or of any
    canonical sequence of ``(value, plain, over)`` runs."""
    return _weighed_signature(entries)[1]


class Family(NamedTuple):
    """A row of :data:`FAMILY_TABLE`: the token (``{k}`` is the multiplicity),
    the parent, whose clauses are tested first, and the family's own clause:
    the test ``holds(sig, k)`` and the text ``why(pi, k)`` naming a violation."""

    token: str
    parent: str | None
    holds: Callable[[Signature, int], bool]
    why: Callable[[OverPartition, int], str] | None


def _first_of_parity(entries, parity: int) -> int:
    return next(v for v, _, _ in entries if v & 1 == parity)


def _why_not_k(pi: OverPartition, k: int) -> str:
    plain = [(v, p) for v, p, _ in pi if p]
    if not plain:
        return "every part is overlined, so no smallest plain part exists"
    s, copies = plain[-1]
    if copies != k:
        return f"smallest plain part {s} appears {copies} time(s); must appear exactly {k}"
    if pi[-1][0] == s:
        return f"the smallest plain part {s} also carries an overline"
    return f"overlined part {pi[-1][0]} is not greater than the smallest plain part {s}"


FAMILY_TABLE = {
    PBAR: Family("pbar", None, lambda sig, k: True, None),
    PE: Family("pe", PBAR, lambda sig, k: sig.all_even,
               lambda pi, k: f"part {_first_of_parity(pi, 1)} is odd; every part must be even"),
    PEX: Family("pex", PBAR, lambda sig, k: not sig.plain_one,
                lambda pi, k: "contains a plain (non-overlined) 1"),
    POEX: Family("poex", PEX, lambda sig, k: sig.all_odd,
                 lambda pi, k: f"part {_first_of_parity(pi, 0)} is even; every part must be odd"),
    CE: Family("ce", POEX, lambda sig, k: sig.parity == 0,
               lambda pi, k: f"number of parts is {pi.num_parts} (odd); must be even"),
    CO: Family("co", POEX, lambda sig, k: sig.parity == 1,
               lambda pi, k: f"number of parts is {pi.num_parts} (even); must be odd"),
    SPTK: Family("spt{k}", PBAR, lambda sig, k: sig.k == k, _why_not_k),
    SPTKO: Family("spt{k}o", SPTK, lambda sig, k: sig.opposite,
                  lambda pi, k: (f"part {_first_of_parity(pi[:-1], pi[-1][0] & 1)} has the "
                                 f"same parity as the smallest plain part {pi[-1][0]}")),
    # k of the num_parts parts are copies of s, so num_parts - k lie above s
    BEK: Family("be{k}", SPTKO, lambda sig, k: (sig.parity + k) % 2 == 0,
                lambda pi, k: f"{pi.num_parts - k} parts above {pi[-1][0]} (odd); must be even"),
    BOK: Family("bo{k}", SPTKO, lambda sig, k: (sig.parity + k) % 2 == 1,
                lambda pi, k: f"{pi.num_parts - k} parts above {pi[-1][0]} (even); must be odd"),
}

# signed family -> (even, odd) refinement; its signed count is even - odd
SIGNED_REFINEMENTS = {SPTKO: (BEK, BOK), POEX: (CE, CO)}

# each row's token as a pattern compiled once, where "{k}" reads digits,
# "k" or nothing, for parse_family_token
_TOKEN_PATTERNS = {fid: re.compile(row.token.replace("{k}", r"(\d*|k)"))
                   for fid, row in FAMILY_TABLE.items()}


@lru_cache(maxsize=None)
def _held(sig: Signature, k: int) -> frozenset:
    # the ids of the families that hold sig at multiplicity k, in one pass
    # over the table: a row's parent comes before it, and a row holds when
    # its parent holds (None, the root's parent, is put in first) and its
    # own clause holds
    held = {None}
    for fid, row in FAMILY_TABLE.items():
        if row.parent in held and row.holds(sig, k):
            held.add(fid)
    return frozenset(held)


def member(sig: Signature, fam: FamilySpec) -> bool:
    """Whether a signature meets every clause of the family; the table
    is evaluated once per distinct signature and multiplicity."""
    return fam.id in _held(sig, fam.k)


def is_member(pi: OverPartition, fam: FamilySpec) -> bool:
    return member(signature(pi), fam)


def why_not_member(pi: OverPartition, fam: FamilySpec) -> str | None:
    """Explain the first violated membership clause, or None if member."""
    held, fid = _held(signature(pi), fam.k), fam.id
    # up from a family that fails to the first row whose parent holds: its
    # own clause is the first that fails
    while fid not in held and FAMILY_TABLE[fid].parent not in held:
        fid = FAMILY_TABLE[fid].parent
    return None if fid in held else FAMILY_TABLE[fid].why(pi, fam.k)
