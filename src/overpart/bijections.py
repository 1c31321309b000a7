"""Executable constructive maps behind the five counting identities,
with branch tracing and exhaustive verification harnesses.

Each map rewrites only the last two runs of the canonical run-length
form.  A domain member ends in one plain copy of s, and every move
swaps that copy for one copy of s - 1, s or s + 1; T3's matching
deletes the 1 and swaps one copy of s2 for a plain s2 - 1 or s2 + 1;
T1's inverse undoes a move by swapping one copy of the last run for a
plain copy one value down (an overlined 1 for a plain 1).  Every such
swap is one ``_move``: the moves that overline, lift, lower and raise
s, both matching branches and T1's inverse.  It drops one copy of the
last run, a plain one when there is one, and adds the new copy, which
goes one value above the dropped one only when that run held a single
copy.  Every run above holds a value at least one larger, so the new
copy joins the run left last, as in (4,3) -> (4,4), or becomes a run
of its own.  Every application is returned as a :class:`MapTrace`
recording the branch taken, the tagged codomain component hit, and
whether the relevant sign statistic flipped.

Identity map summary (s = smallest plain part, s2 = next part value up):

T1   spt1(n) u spt1(n-1) -> pex(n), weight preserved
       f1: from n, s>1: identity
       f2: from n, s=1: overline the single 1
       f3: from n-1, s2-s>1: plain s becomes overlined s+1
       f4: from n-1, s2-s=1: plain s becomes plain s+1
T2   spt1o(n) u spt1o(n-2) -> pe(n-1) u pe(n-1) u poex(n-1)
       A: from n, s=1: delete the 1            -> PE copy 1
       B: from n, s even: s -> overlined s-1   -> POEX
       C: from n, s odd > 1: s -> overlined s-1 -> PE copy 2
       D: from n-2, s even: s -> plain s+1     -> POEX
       E: from n-2, s odd: s -> plain s+1      -> PE copy 2
T3   a sign-reversing structure on spt1o(n) u spt1o(n-2):
       the s=1 elements of the n summand are matched injectively onto
       the remaining odd-s elements of the union (both branches flip
       the parity of the number of parts above s), and the even-s
       elements map onto poex(n-1) reversing sign against the number
       of parts
T4   be1/bo1(n) u be1/bo1(n-2) -> pe(n-1) u co/ce(n-1)
       Case I (s even): same moves as T2 B/D, landing in CO (variant
       E) or CE (variant O); Case II (s odd): delete the 1 when s=1
       from the n summand, otherwise the T2 C/E moves, landing in PE

Each theorem is one row of one table: its domain family and summands,
its codomain tags (each defined once with family, weight and sign
statistic), and the labelled moves of its map (for T3, of its even-s
map).  Per (source, case) the labels give the branch, the move and the
codomain tag, and a case left out is outside the domain.  The moves act on s: keep it, delete the 1,
overline it, lift it to an overlined s+1, lower it to an overlined
s-1, or raise it to a plain s+1.  The case is "one" for s=1 in the n
summand, "gap" or "adjacent" in T1's n-1 summand as s2-s > 1 or not,
and the parity of s otherwise.  T3's matching acts on s2, so it keeps
its own map.  One router sends each domain element to the labelled
moves or, for T3's s=1 elements, to the matching, and leaves T3's other
odd-s elements, the matching's image, unmapped.  One audit engine
checks every theorem from its row.  A component that is also a domain
summand (T3's matching) must be hit by exactly that summand's unmapped
elements.

An audit lists only its domain.  Each domain element is checked
against its summand from the signature that the walk listing it carried
down to it, kept beside the listing, so its runs are not read again;
outside input, through any public map or :func:`apply_map`, is checked
in full, with the text naming a failed clause.
Each image is checked as it is made: it lies inside its component when
its weight and signature put it there, and is a stray otherwise.  One
sign rule holds for every theorem: an image inside a component whose
tag names a sign statistic (poex, co, ce, and T3's spt1o summands) must
have flipped sign against its input.  The audit keeps one set of
distinct outputs per component tag, for the images inside and for the
strays, and a count of its traces per tag, and is injective when the
distinct outputs number the traces: the codomain is a tagged union, so
one output hit under two tags is two images, and one hit twice under a
tag breaks it.  It keeps the traces themselves only when asked.  Every
component but T3's matching is onto when its distinct images inside it
number its size, an exact count from the run-state memo of
:mod:`overpart.enumeration`, and it has no stray.  T1's inverse is
checked in the same pass: each trace's output is inverted once, as the
trace is checked, and must give back its input and source; a failure
is then reported in full.  A codomain is listed only when a failing T1
audit must name the elements it missed.
"""

from __future__ import annotations

from collections import defaultdict
from functools import partial
from typing import NamedTuple

from .core import (
    BEK, BOK, CE, CO, PE, PEX, POEX, SPTK, SPTKO, CollisionError, FamilySpec, OverPartition,
    _canonical, _weighed_signature, member, stats, why_not_member,
)
from .enumeration import IDENTITY_START, _listing, count_many, identity_sides

__all__ = [
    "SOURCE_N", "SOURCE_N_MINUS_1", "SOURCE_N_MINUS_2",
    "PreconditionError", "MapTrace", "VerificationReport",
    "map_t1", "inv_t1", "map_t2", "map_t3_odd", "map_t3_even", "map_t4",
    "apply_map", "verify_bijection", "verify_t3",
]

SOURCE_N = "N"
SOURCE_N_MINUS_1 = "N-1"
SOURCE_N_MINUS_2 = "N-2"

# weight of each domain summand, as an offset from n
_OFFSET = {SOURCE_N: 0, SOURCE_N_MINUS_1: -1, SOURCE_N_MINUS_2: -2}

_SPT1O = FamilySpec(SPTKO, 1)
_PE = FamilySpec(PE)
_PEX = FamilySpec(PEX)

# codomain tag -> (family, weight offset from n, the output's Stats sign
# field compared against the input's sign_spt, or None for no sign); every
# audit requires an image inside a signed component to flip that sign
_TARGETS = {
    "PEX": (_PEX, 0, None),
    "PE": (_PE, -1, None), "PE-copy1": (_PE, -1, None), "PE-copy2": (_PE, -1, None),
    "POEX": (FamilySpec(POEX), -1, "sign_parts"),
    "CO": (FamilySpec(CO), -1, "sign_parts"), "CE": (FamilySpec(CE), -1, "sign_parts"),
    "SPT1O-N": (_SPT1O, 0, "sign_spt"), "SPT1O-N-2": (_SPT1O, -2, "sign_spt"),
}


def _move(pi, value: int, over: int) -> OverPartition:
    # pi less one copy of its last run (v, p, o), a plain one when p > 0,
    # plus one copy of value, overlined when over is 1.  value is at most
    # v, or v + 1 when that run held a single copy, so the new copy goes
    # below the copies left of v, joins the run left last (v's, or the one
    # above when v's is gone), or becomes a run of its own; each result is
    # one concatenation.  A second overline of value raises CollisionError
    v, p, o = pi[-1]
    if p + o > 1 and value < v:  # below the p - 1 plain copies left of v
        return _canonical(pi[:-1] + ((v, p - 1, o), (value, 1 - over, over)))
    # else the new copy joins a run: the one above when v's run is gone and
    # that one holds value (cut 2 runs off pi), v's own copies left, or none
    cut = 2 if p + o == 1 and len(pi) > 1 and pi[-2][0] == value else 1
    _, p, o = pi[-2] if cut == 2 else (v, p - 1, o) if p + o > 1 else (value, 0, 0)
    if o and over:
        raise CollisionError(f"value {value} is already overlined")
    return _canonical(pi[:-cut] + ((value, p + 1 - over, o + over),))


# move -> the overpartition it makes of pi, a domain member, whose last run
# is one plain copy of its smallest plain part s
_MOVES = {
    "keep": lambda pi, s: pi,
    "delete": lambda pi, s: _canonical(pi[:-1]),  # delete the 1
    "overline": lambda pi, s: _move(pi, s, 1),  # overline s
    "lift": lambda pi, s: _move(pi, s + 1, 1),  # s -> overlined s+1
    "lower": lambda pi, s: _move(pi, s - 1, 1),  # s -> overlined s-1
    "raise": lambda pi, s: _move(pi, s + 1, 0),  # s -> plain s+1
}


def _t4_labels(refined: str) -> dict:
    return {SOURCE_N: {"one": ("CaseII-s1", "delete", "PE"), "odd": ("CaseII-n", "lower", "PE"),
                       "even": ("CaseI-n", "lower", refined)},
            SOURCE_N_MINUS_2: {"even": ("CaseI-n-2", "raise", refined),
                               "odd": ("CaseII-n-2", "raise", "PE")}}


# theorem -> (domain family, its second summand's source tag (the first
# is N), codomain component tags, the map's name in messages, its
# labels); which images must flip sign, _TARGETS says.  Labels send each
# source to its cases, and each case to (branch, move, target tag), with
# case "one" for s=1 in the N summand, "gap" or "adjacent" in T1's N-1
# summand as s2 - s > 1 or not, else "even" or "odd" by the parity of s
_AUDITS = {
    "T1": (FamilySpec(SPTK, 1), SOURCE_N_MINUS_1, ("PEX",), "T1", {
        SOURCE_N: {"one": ("f2", "overline", "PEX"), "even": ("f1", "keep", "PEX"),
                   "odd": ("f1", "keep", "PEX")},
        SOURCE_N_MINUS_1: {"gap": ("f3", "lift", "PEX"), "adjacent": ("f4", "raise", "PEX")}}),
    "T2": (_SPT1O, SOURCE_N_MINUS_2, ("PE-copy1", "PE-copy2", "POEX"), "T2", {
        SOURCE_N: {"one": ("A", "delete", "PE-copy1"), "even": ("B", "lower", "POEX"),
                   "odd": ("C", "lower", "PE-copy2")},
        SOURCE_N_MINUS_2: {"even": ("D", "raise", "POEX"), "odd": ("E", "raise", "PE-copy2")}}),
    "T3": (_SPT1O, SOURCE_N_MINUS_2, ("SPT1O-N", "SPT1O-N-2", "POEX"), "T3 even-s", {
        SOURCE_N: {"even": ("even-n", "lower", "POEX")},
        SOURCE_N_MINUS_2: {"even": ("even-n-2", "raise", "POEX")}}),
    "T4e": (FamilySpec(BEK, 1), SOURCE_N_MINUS_2, ("PE", "CO"), "T4e", _t4_labels("CO")),
    "T4o": (FamilySpec(BOK, 1), SOURCE_N_MINUS_2, ("PE", "CE"), "T4o", _t4_labels("CE")),
}

# (theorem, source tag) -> what _labelled_map reads of that summand,
# resolved once from _AUDITS: its family, weight offset from n, its name
# in messages, and case -> (branch, move, target tag, the target's sign
# field in _TARGETS)
_SUMMANDS = {
    (theorem, tag): (fam, _OFFSET[tag], f"{role} source {tag}", {
        case: (branch, _MOVES[move], target, _TARGETS[target][2])
        for case, (branch, move, target) in cases.items()})
    for theorem, (fam, _, _, role, labels) in _AUDITS.items() for tag, cases in labels.items()}


# the JSON key of each MapTrace field, in field order
_JSON_KEYS = ("theorem", "sourceTag", "branch", "input", "output", "targetTag", "signFlip",
              "ambiguousS2")


class PreconditionError(ValueError):
    """A map was applied outside its domain."""


class MapTrace(NamedTuple):
    """Record of one map application, a named tuple: immutable and
    hashable, with ``trace._replace(field=value)`` for a changed copy.

    ``source_tag`` names the domain summand the input came from,
    ``target_tag`` the codomain component the output landed in.
    ``sign_flip`` is True when both families carry a sign statistic
    and the output's sign is opposite the input's.  ``ambiguous_s2``
    marks inputs whose s2 value carries both an overlined and a plain
    copy (the plain copy is the one acted on).
    """

    theorem: str
    source_tag: str
    branch: str
    input: OverPartition
    output: OverPartition
    target_tag: str
    sign_flip: bool
    ambiguous_s2: bool = False

    def to_json_dict(self) -> dict:
        # one key per field, in field order, with the overpartitions as
        # literals; ambiguousS2 only when it is set
        text = self._replace(input=self.input.to_text(), output=self.output.to_text())
        return {key: v for key, v in zip(_JSON_KEYS, text) if v or key != "ambiguousS2"}


# a MapTrace from the tuple of all eight fields, built with no Python frame,
# for the maps the audit calls on every domain element
_trace = partial(tuple.__new__, MapTrace)


class VerificationReport:
    """Outcome of an exhaustive audit at one weight.

    ``contract_violations`` lists traces that broke a weight,
    membership, or sign contract; ``problems`` carries any other
    failure descriptions (coverage gaps, unexpected exceptions).
    ``blocks`` reports the audited block sizes, e.g. per-component
    image and codomain cardinalities: the distinct images inside each
    component, and its size from exact counts (for T3's matching, the
    elements left unmapped), so ``codomain_size`` is counted, not
    listed.  ``traces`` holds every map application the audit made, in
    domain enumeration order, when the audit was asked for them
    (``traces=True``), and is empty otherwise; a map that raised has no
    trace, and is reported in ``problems``.  The four collections may be
    given by position or keyword; each one left out starts empty, and is
    the instance's own.  A plain class: reports compare by identity.
    """

    def __init__(self, theorem: str, n: int, domain_size: int, codomain_size: int,
                 injective: bool, surjective: bool, contract_violations=None, problems=None,
                 blocks=None, traces=None):
        self.theorem, self.n, self.injective, self.surjective = theorem, n, injective, surjective
        self.domain_size, self.codomain_size = domain_size, codomain_size
        self.contract_violations, self.problems, self.traces = (
            [] if x is None else x for x in (contract_violations, problems, traces))
        self.blocks = {} if blocks is None else blocks

    @property
    def ok(self) -> bool:
        return (self.injective and self.surjective
                and not self.contract_violations and not self.problems
                and self.domain_size == self.codomain_size)


def _require(pi: OverPartition, fam: FamilySpec, weight: int, sig, role: str) -> int:
    # returns the sign of the parts of pi above s when fam is spt1, spt1o,
    # be1 or bo1: a member's last run is one plain copy of s, so every other
    # part is above it, and s and s2 are the values of its last two runs.
    # sig is None for outside input, whose runs are read here; only the
    # audit's router passes one, the signature its walk of this weight
    # carried down to pi.  role names the caller in a failure
    got, sig = _weighed_signature(pi) if sig is None else (weight, sig)
    if got != weight:
        raise PreconditionError(f"{role}: {pi} has weight {got}, expected {weight}")
    if not member(sig, fam):
        raise PreconditionError(f"{role}: {pi} is not in {fam.token}({weight}): "
                                f"{why_not_member(pi, fam)}")
    return 1 if sig.parity else -1


def _labelled_map(theorem: str, pi: OverPartition, source_tag: str, n: int, sig=None) -> MapTrace:
    # the moves of T1, T2, T3's even-s map and T4, labelled in _AUDITS and
    # read from _SUMMANDS; an image flips sign when its target names a field
    try:
        fam, offset, role, cases = _SUMMANDS[theorem, source_tag]
    except KeyError:  # an unknown map, or a summand its row does not name
        row = _AUDITS.get(theorem)
        raise PreconditionError(f"{row[3]} source must be N or {row[1]}" if row
                                else f"unknown map {theorem!r}") from None
    sign = _require(pi, fam, n + offset, sig, role)
    s = pi[-1][0]  # T1's N-1 summand reads s2, which is absent when s is the only value
    case = (("gap" if len(pi) == 1 or pi[-2][0] - s > 1 else "adjacent")
            if source_tag == SOURCE_N_MINUS_1 else "one" if s == 1 and source_tag == SOURCE_N
            else "odd" if s % 2 else "even")
    if case not in cases:  # only T3's even-s map leaves cases out, so it names the refusal
        raise PreconditionError(
            f"T3 even-s map needs an even smallest plain part (got {s}); odd-s elements "
            f"other than s = 1 in the N summand are images of the T3 matching, not sources")
    branch, move, target, field = cases[case]
    out = move(pi, s)
    return _trace((theorem, source_tag, branch, pi, out, target,
                   field is not None and sign != getattr(stats(out), field), False))


def map_t1(pi: OverPartition, source_tag: str, n: int) -> MapTrace:
    """Weight-preserving map into pex(n) from spt1(n) (tag N) or
    spt1(n-1) (tag N-1).  Branches f1..f4 as in the module docstring."""
    return _labelled_map("T1", pi, source_tag, n)


def inv_t1(mu: OverPartition, n: int) -> tuple[OverPartition, str]:
    """Invert :func:`map_t1`, classifying by the smallest entry of
    ``mu``: a single plain copy is an f1 image, its own input.  Any
    other entry undoes a move, one ``_move`` of one of its copies, a
    plain one when there is one, to a plain copy one value down (an
    overlined 1 to a plain 1): an overlined 1 undoes f2, an
    overlined-only entry f3, and anything else f4."""
    if n < 2:
        raise PreconditionError("inverse defined for n > 1")
    _require(mu, _PEX, n, None, "T1 inverse")
    return _inv_t1(mu)


def _inv_t1(mu: OverPartition) -> tuple[OverPartition, str]:
    # inv_t1 of an element of pex(n), n > 1, which the caller has checked,
    # rewriting its last run (m, p, o).  pex has no plain 1, so m = 1 is an
    # overlined 1, made plain in place
    m, p, o = mu[-1]
    if p == 1 and not o:
        return mu, SOURCE_N
    return _move(mu, max(m - 1, 1), 0), SOURCE_N if m == 1 else SOURCE_N_MINUS_1


def map_t2(pi: OverPartition, source_tag: str, n: int) -> MapTrace:
    """Map into the tagged union pe(n-1) + pe(n-1) + poex(n-1) from
    spt1o(n) (tag N) or spt1o(n-2) (tag N-2)."""
    return _labelled_map("T2", pi, source_tag, n)


def map_t3_odd(pi: OverPartition, n: int) -> MapTrace:
    """Sign-reversing matching move for s=1 elements of spt1o(n).

    If the part immediately above the 1 has a plain copy, delete the 1
    and lower that plain copy by one (image in spt1o(n-2)); if it is
    overlined only, delete the 1 and replace the overlined copy by a
    plain copy one larger (image back in spt1o(n)).  Both branches
    flip the parity of the number of parts above the smallest plain
    part.  When the s2 value carries both kinds of copy the plain one
    is lowered; the trace flags this with ``ambiguous_s2``.
    """
    return _match(pi, n)


def _match(pi: OverPartition, n: int, sig=None) -> MapTrace:
    # map_t3_odd's matching, which the audit's router calls with sig
    sign = _require(pi, _SPT1O, n, sig, "T3 matching source")
    if pi[-1][0] != 1:
        raise PreconditionError(
            f"T3 matching applies only when the smallest plain part is 1 (got {pi[-1][0]})")
    if len(pi) == 1:  # the 1 is the only entry
        raise PreconditionError("no part above the 1 to act on")
    # the 1 is plain-only, so it is the last run; deleting it leaves s2's
    # run last, whose plain copy, if any, moves to s2 - 1, else its one
    # overlined copy to s2 + 1
    s2, plain, over = pi[-2]
    branch, target = ("odd-plain", "SPT1O-N-2") if plain else ("odd-overlined", "SPT1O-N")
    out = _move(pi[:-1], s2 - 1 if plain else s2 + 1, 0)  # into spt1o, signed by sign_spt
    return _trace(("T3", SOURCE_N, branch, pi, out, target, sign != stats(out).sign_spt,
                   plain >= 1 and over == 1))


def map_t3_even(pi: OverPartition, source_tag: str, n: int) -> MapTrace:
    """Sign-reversing map of even-s elements of spt1o(n) u spt1o(n-2)
    onto poex(n-1): the output's number-of-parts sign is opposite the
    input's parts-above-s sign."""
    return _labelled_map("T3", pi, source_tag, n)


def map_t4(pi: OverPartition, source_tag: str, n: int, variant: str) -> MapTrace:
    """Map for the refined identities: variant "E" sends
    be1(n) u be1(n-2) into pe(n-1) u co(n-1); variant "O" mirrors it
    on bo1 with target ce(n-1)."""
    if variant not in ("E", "O"):
        raise PreconditionError("variant must be 'E' or 'O'")
    return _labelled_map("T4" + variant.lower(), pi, source_tag, n)


def apply_map(theorem: str, pi: OverPartition, n: int, source_tag: str | None = None) -> MapTrace:
    """Dispatch one map application by identity name (CLI entry point).

    For T3 the branch is chosen by the smallest plain part: s=1 uses
    the matching move (source N implied), even s uses the even-s map
    with the given source (default N).
    """
    # the audit's router; the even-s map words the refusal of T3's other inputs
    source_tag = source_tag or SOURCE_N
    return _audit_trace(theorem, pi, source_tag, n) or map_t3_even(pi, source_tag, n)


def _audit_row(theorem: str, n: int):
    if theorem not in _AUDITS:
        raise ValueError(f"no bijection audit for {theorem!r}")
    if n < IDENTITY_START[theorem]:
        raise ValueError(f"{theorem} is audited for n > {IDENTITY_START[theorem] - 1}")
    return _AUDITS[theorem][:3]


def _audit_trace(theorem: str, pi: OverPartition, source_tag: str, n: int,
                 sig=None) -> MapTrace | None:
    # the one router, and the one caller that passes sig, the signature the
    # audit's walk carried down to pi: each theorem's labelled moves, and for
    # T3 the matching on the N summand's s=1 elements and the even-s moves
    # on every even-s one; T3's other odd-s elements are the matching's
    # image and get None.  T3 reads s from the last entry: 1 is the least
    # value, so s = 1 is a last value 1 with a plain copy, and a member ends
    # in a plain copy of s; _labelled_map refuses an unknown map
    if theorem != "T3" or pi and pi[-1][0] % 2 == 0:
        return _labelled_map(theorem, pi, source_tag, n, sig)
    v, plain = pi[-1][:2] if pi else (1, 0)
    return _match(pi, n, sig) if v == 1 and plain and source_tag == SOURCE_N else None


def _check_t1_inverse(mu: OverPartition, n: int, want, late: list) -> None:
    # the report of T1's inverse of mu where it does not give want, a
    # trace's (input, source): the inverse, or its failure, and the inverse
    # mapped forward, which must give mu back.  With want None (an element
    # of pex(n) no trace hit) only that forward check is made, to name mu
    try:
        back = inv_t1(mu, n)
    except Exception as exc:  # a broken inverse is reported, not raised
        late.append(f"inverse({mu}): {exc}")
        return
    if want is not None:
        late.append(f"inverse mismatch: {mu} -> ({back[0]}, {back[1]}), "
                    f"expected ({want[0]}, {want[1]})")
    try:
        if map_t1(*back, n).output != mu:
            late.append(f"forward(inverse({mu})) != {mu}")
    except Exception as exc:  # a broken map is reported, not raised
        late.append(f"forward(inverse({mu})): {exc}")


def _audit(theorem: str, n: int, traces: bool):
    # weight, membership and, inside a signed component, sign flip of every
    # image, injectivity across the tagged codomain, and coverage of every
    # component, certified by counting the distinct images inside it: only
    # the domain is listed.  T1's inverse is checked on each trace as it is
    # made; its lines follow the component lines.  Returns the report, with
    # its traces when asked for, and the number of traces per target tag
    fam, low, components = _audit_row(theorem, n)
    targets = {tag: _TARGETS[tag] for tag in components}
    report, late, counts = VerificationReport(theorem, n, 0, 0, True, True), [], defaultdict(int)
    unmapped = {}  # (family, offset) of a summand -> elements left unmapped
    # tag -> the distinct outputs inside its component, and those outside
    # it, which only a broken map makes: one set per tag, so no pair is kept
    hits, strays = defaultdict(set), defaultdict(set)
    for tag in (SOURCE_N, low):
        elements, sigs = _listing(fam, n + _OFFSET[tag])
        report.blocks[f"domain:{tag}"] = len(elements)
        left = unmapped[fam, _OFFSET[tag]] = []
        for pi, sig in zip(elements, sigs):
            try:
                tr = _audit_trace(theorem, pi, tag, n, sig)
            except Exception as exc:  # a broken map is reported, not raised
                report.problems.append(f"{pi} [{tag}]: {exc}")
                continue
            if tr is None:
                left.append(pi)
                continue
            if traces:
                report.traces.append(tr)
            target_tag, out = tr.target_tag, tr.output
            counts[target_tag] += 1
            target = targets.get(target_tag)
            weight, sig = _weighed_signature(out)
            inside = target is not None and weight == n + target[1] and member(sig, target[0])
            if not inside or target[2] and not tr.sign_flip:
                report.contract_violations.append(tr)
            (hits if inside else strays)[target_tag].add(out)
            # T1's inverse must give back the input and its source: an image
            # inside pex(n) is inverted unchecked, and a failure is reported
            # in full
            if theorem == "T1":
                try:
                    same = (_inv_t1(out) if inside else inv_t1(out, n)) == (tr.input, tr.source_tag)
                except Exception:  # _check_t1_inverse reports it
                    same = False
                if not same:
                    _check_t1_inverse(out, n, (tr.input, tr.source_tag), late)
        report.domain_size += len(elements) - len(left)
    images = [*hits.values(), *strays.values()]  # distinct per tag, as the codomain is tagged
    report.injective = sum(map(len, images)) == sum(counts.values()) and not report.problems
    for comp, (comp_fam, offset, _) in targets.items():
        left = unmapped.get((comp_fam, offset))
        if left is None:  # onto when its distinct images inside number its size
            (size,) = count_many(n + offset, [(comp_fam, False)])
            matched, outside = len(hits[comp]), sorted(map(str, strays[comp]))
        else:  # T3's matching: onto the elements that summand left unmapped
            hit, want = hits[comp] | strays[comp], set(left)
            size, matched, outside = len(want), len(hit & want), sorted(map(str, hit - want))
        report.blocks[f"image:{comp}"], report.blocks[f"codomain:{comp}"] = matched, size
        report.codomain_size += size
        if matched < size or outside:
            report.surjective = False
            report.problems.append(
                f"component {comp}: hit {matched} of {size} elements"
                + (f"; {len(outside)} images outside it, e.g. {'; '.join(outside[:3])}"
                   if outside else ""))
    if theorem == "T1" and report.blocks["image:PEX"] < report.blocks["codomain:PEX"]:
        hit = set().union(*images)
        for mu in _listing(_PEX, n)[0]:
            if mu not in hit:
                _check_t1_inverse(mu, n, None, late)
    report.problems += late
    return report, counts


def verify_bijection(theorem: str, n: int, *, traces: bool = False) -> VerificationReport:
    """Exhaustively apply the named map on its full tagged domain and
    check membership, weight, a flipped sign for every image inside a
    component that carries one (poex, co, ce), injectivity across the
    tagged codomain, and exact coverage of every component, certified by
    count: a component is onto when its distinct images inside it
    number its size from the exact counts, with no image outside it, so
    no codomain is listed.  For T1 the explicit inverse is checked in
    the same pass: each trace's output is inverted once, as the trace is
    checked, and must return that trace's input and source (a
    mismatch's inverse is also mapped forward), and these lines follow
    the component lines.  forward(inverse(mu)) == mu for every mu in
    pex(n) then follows from the bijection, and pex(n) is listed only
    when the count shows elements left unhit, to name them.  Failures,
    including exceptions from the maps, are reported, never raised.
    With ``traces`` the report keeps every map application in
    ``traces``; without, it keeps none and makes every check alike."""
    if theorem == "T3":
        raise ValueError("no bijection audit for 'T3' (T3 has its own)")
    return _audit(theorem, n, traces)[0]


def verify_t3(n: int, *, traces: bool = False) -> VerificationReport:
    """Audit the sign-reversing structure at weight ``n`` (n > 2).

    Checks: (i) the matching move is injective on the s=1 elements of
    spt1o(n); (ii) its image is exactly the other odd-s elements of
    spt1o(n) u spt1o(n-2); (iii) every matched pair has opposite
    parts-above-s sign; (iv) the even-s map is a bijection onto
    poex(n-1) with the number-of-parts sign opposite the input's
    parts-above-s sign; (v) the resulting signed identity agrees with
    direct enumeration.

    ``domain_size`` counts the mapped elements (matching sources plus
    even-s elements); ``codomain_size`` the matched targets plus
    poex(n-1).  ``traces`` keeps the map applications, as for
    :func:`verify_bijection`.
    """
    report, counts = _audit("T3", n, traces)
    b, even = report.blocks, counts["POEX"]
    report.blocks = {"odd-domain": sum(counts.values()) - even, "even-domain": even,
                     "odd-image": b["image:SPT1O-N"] + b["image:SPT1O-N-2"],
                     "poex": b["codomain:POEX"]}
    lhs, rhs = identity_sides("T3", n)
    if lhs != rhs:
        report.problems.append(f"signed identity fails: {lhs} != {rhs}")
    return report
