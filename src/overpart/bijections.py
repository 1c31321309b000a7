"""Executable constructive maps behind the five counting identities,
with branch tracing and exhaustive verification harnesses.

Each map acts on the canonical run-length form through the entry
surgery primitives of :mod:`overpart.core`, so merges such as
(4,3) -> (4,4) are handled uniformly.  Every application is returned
as a :class:`MapTrace` recording the branch taken, the tagged codomain
component hit, and whether the relevant sign statistic flipped.

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
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .core import (
    BEK, BOK, CE, CO, PE, PEX, POEX, SPTK, SPTKO,
    FamilySpec, OverPartition, Stats, is_member, stats, why_not_member,
)
from .enumeration import count_profile, family_elements

__all__ = [
    "SOURCE_N", "SOURCE_N_MINUS_1", "SOURCE_N_MINUS_2",
    "PreconditionError", "MapTrace", "VerificationReport",
    "map_t1", "inv_t1", "map_t2", "map_t3_odd", "map_t3_even", "map_t4",
    "apply_map", "all_traces", "verify_bijection", "verify_t3",
]

SOURCE_N = "N"
SOURCE_N_MINUS_1 = "N-1"
SOURCE_N_MINUS_2 = "N-2"

_SPT1 = FamilySpec(SPTK, 1)
_SPT1O = FamilySpec(SPTKO, 1)
_BE1 = FamilySpec(BEK, 1)
_BO1 = FamilySpec(BOK, 1)
_PE = FamilySpec(PE)
_PEX = FamilySpec(PEX)
_POEX = FamilySpec(POEX)
_CE = FamilySpec(CE)
_CO = FamilySpec(CO)

# which parity statistic carries the sign for a codomain tag
_TARGET_SIGN = {
    "POEX": "parts", "CE": "parts", "CO": "parts",
    "SPT1O-N": "spt", "SPT1O-N-2": "spt",
}


class PreconditionError(ValueError):
    """A map was applied outside its domain."""


@dataclass(frozen=True)
class MapTrace:
    """Record of one map application.

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
        d = {
            "theorem": self.theorem,
            "sourceTag": self.source_tag,
            "branch": self.branch,
            "input": self.input.to_text(),
            "output": self.output.to_text(),
            "targetTag": self.target_tag,
            "signFlip": self.sign_flip,
        }
        if self.ambiguous_s2:
            d["ambiguousS2"] = True
        return d


@dataclass
class VerificationReport:
    """Outcome of an exhaustive audit at one weight.

    ``contract_violations`` lists traces that broke a weight,
    membership, or sign contract; ``problems`` carries any other
    failure descriptions (coverage gaps, unexpected exceptions).
    ``blocks`` reports the audited block sizes, e.g. per-component
    image and codomain cardinalities.
    """

    theorem: str
    n: int
    domain_size: int
    codomain_size: int
    injective: bool
    surjective: bool
    contract_violations: list[MapTrace] = field(default_factory=list)
    problems: list[str] = field(default_factory=list)
    blocks: dict[str, int] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return (self.injective and self.surjective
                and not self.contract_violations and not self.problems
                and self.domain_size == self.codomain_size)


def _require(pi: OverPartition, fam: FamilySpec, weight: int, role: str):
    if pi.weight != weight:
        raise PreconditionError(
            f"{role}: {pi} has weight {pi.weight}, expected {weight}")
    reason = why_not_member(pi, fam)
    if reason is not None:
        raise PreconditionError(
            f"{role}: {pi} is not in {fam.token}({weight}): {reason}")


def _flip(st_in: Stats, out: OverPartition, target_tag: str) -> bool:
    kind = _TARGET_SIGN.get(target_tag)
    if kind is None:
        return False
    st_out = stats(out)
    if kind == "spt":
        return st_in.sign_spt != st_out.sign_spt
    return st_in.sign_spt != st_out.sign_parts


def map_t1(pi: OverPartition, source_tag: str, n: int) -> MapTrace:
    """Weight-preserving map into pex(n) from spt1(n) (tag N) or
    spt1(n-1) (tag N-1).  Branches f1..f4 as in the module docstring."""
    if source_tag == SOURCE_N:
        _require(pi, _SPT1, n, "T1 source N")
        st = stats(pi)
        if st.s > 1:
            branch, out = "f1", pi
        else:
            branch, out = "f2", pi.remove_plain(1).add_overline(1)
    elif source_tag == SOURCE_N_MINUS_1:
        _require(pi, _SPT1, n - 1, "T1 source N-1")
        st = stats(pi)
        if st.s2 - st.s > 1:  # s2 may be INFINITY
            branch, out = "f3", pi.remove_plain(st.s).add_overline(st.s + 1)
        else:
            branch, out = "f4", pi.remove_plain(st.s).add_plain(st.s + 1)
    else:
        raise PreconditionError("T1 source must be N or N-1")
    flip = _flip(st, out, "PEX")
    return MapTrace("T1", source_tag, branch, pi, out, "PEX", flip)


def inv_t1(mu: OverPartition, n: int) -> tuple[OverPartition, str]:
    """Invert :func:`map_t1`, classifying by the smallest entry of
    ``mu``: an overlined 1 undoes f2, an overlined-only entry undoes
    f3, a single plain copy is an f1 image, anything else undoes f4."""
    if n < 2:
        raise PreconditionError("inverse defined for n > 1")
    _require(mu, _PEX, n, "T1 inverse")
    m, p, o = mu[-1]
    if m == 1:
        return mu.remove_overline(1).add_plain(1), SOURCE_N
    if p == 0:
        return mu.remove_overline(m).add_plain(m - 1), SOURCE_N_MINUS_1
    if p == 1 and not o:
        return mu, SOURCE_N
    return mu.remove_plain(m).add_plain(m - 1), SOURCE_N_MINUS_1


def map_t2(pi: OverPartition, source_tag: str, n: int) -> MapTrace:
    """Map into the tagged union pe(n-1) + pe(n-1) + poex(n-1) from
    spt1o(n) (tag N) or spt1o(n-2) (tag N-2)."""
    if source_tag == SOURCE_N:
        _require(pi, _SPT1O, n, "T2 source N")
        st = stats(pi)
        if st.s == 1:
            branch, out, target = "A", pi.remove_plain(1), "PE-copy1"
        elif st.s % 2 == 0:
            branch, out, target = "B", pi.remove_plain(st.s).add_overline(st.s - 1), "POEX"
        else:
            branch, out, target = "C", pi.remove_plain(st.s).add_overline(st.s - 1), "PE-copy2"
    elif source_tag == SOURCE_N_MINUS_2:
        _require(pi, _SPT1O, n - 2, "T2 source N-2")
        st = stats(pi)
        moved = pi.remove_plain(st.s).add_plain(st.s + 1)
        if st.s % 2 == 0:
            branch, out, target = "D", moved, "POEX"
        else:
            branch, out, target = "E", moved, "PE-copy2"
    else:
        raise PreconditionError("T2 source must be N or N-2")
    flip = _flip(st, out, target)
    return MapTrace("T2", source_tag, branch, pi, out, target, flip)


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
    _require(pi, _SPT1O, n, "T3 matching source")
    st = stats(pi)
    if st.s != 1:
        raise PreconditionError(
            f"T3 matching applies only when the smallest plain part is 1 "
            f"(got {st.s})")
    if len(pi) == 1:  # the 1 is the only entry
        raise PreconditionError("no part above the 1 to act on")
    entry = pi.entry_at(st.s2)
    ambiguous = entry.plain >= 1 and entry.over == 1
    base = pi.remove_plain(1)
    if entry.plain >= 1:
        branch = "odd-plain"
        out = base.remove_plain(st.s2).add_plain(st.s2 - 1)
        target = "SPT1O-N-2"
    else:
        branch = "odd-overlined"
        out = base.remove_overline(st.s2).add_plain(st.s2 + 1)
        target = "SPT1O-N"
    flip = _flip(st, out, target)
    return MapTrace("T3", SOURCE_N, branch, pi, out, target, flip, ambiguous)


def map_t3_even(pi: OverPartition, source_tag: str, n: int) -> MapTrace:
    """Sign-reversing map of even-s elements of spt1o(n) u spt1o(n-2)
    onto poex(n-1): the output's number-of-parts sign is opposite the
    input's parts-above-s sign."""
    if source_tag == SOURCE_N:
        _require(pi, _SPT1O, n, "T3 even-s source N")
    elif source_tag == SOURCE_N_MINUS_2:
        _require(pi, _SPT1O, n - 2, "T3 even-s source N-2")
    else:
        raise PreconditionError("T3 even-s source must be N or N-2")
    st = stats(pi)
    if st.s % 2 != 0:
        raise PreconditionError(
            f"T3 even-s map needs an even smallest plain part (got {st.s})")
    if source_tag == SOURCE_N:
        branch, out = "even-n", pi.remove_plain(st.s).add_overline(st.s - 1)
    else:
        branch, out = "even-n-2", pi.remove_plain(st.s).add_plain(st.s + 1)
    flip = _flip(st, out, "POEX")
    return MapTrace("T3", source_tag, branch, pi, out, "POEX", flip)


def map_t4(pi: OverPartition, source_tag: str, n: int, variant: str) -> MapTrace:
    """Map for the refined identities: variant "E" sends
    be1(n) u be1(n-2) into pe(n-1) u co(n-1); variant "O" mirrors it
    on bo1 with target ce(n-1)."""
    if variant not in ("E", "O"):
        raise PreconditionError("variant must be 'E' or 'O'")
    fam = _BE1 if variant == "E" else _BO1
    theorem = "T4e" if variant == "E" else "T4o"
    if source_tag == SOURCE_N:
        _require(pi, fam, n, f"{theorem} source N")
    elif source_tag == SOURCE_N_MINUS_2:
        _require(pi, fam, n - 2, f"{theorem} source N-2")
    else:
        raise PreconditionError(f"{theorem} source must be N or N-2")
    st = stats(pi)
    if st.s % 2 == 0:
        target = "CO" if variant == "E" else "CE"
        if source_tag == SOURCE_N:
            branch, out = "CaseI-n", pi.remove_plain(st.s).add_overline(st.s - 1)
        else:
            branch, out = "CaseI-n-2", pi.remove_plain(st.s).add_plain(st.s + 1)
    else:
        target = "PE"
        if source_tag == SOURCE_N:
            if st.s == 1:
                branch, out = "CaseII-s1", pi.remove_plain(1)
            else:
                branch, out = "CaseII-n", pi.remove_plain(st.s).add_overline(st.s - 1)
        else:
            branch, out = "CaseII-n-2", pi.remove_plain(st.s).add_plain(st.s + 1)
    flip = _flip(st, out, target)
    return MapTrace(theorem, source_tag, branch, pi, out, target, flip)


def apply_map(theorem: str, pi: OverPartition, n: int,
              source_tag: str | None = None) -> MapTrace:
    """Dispatch one map application by identity name (CLI entry point).

    For T3 the branch is chosen by the smallest plain part: s=1 uses
    the matching move (source N implied), even s uses the even-s map
    with the given source (default N).
    """
    if theorem == "T1":
        return map_t1(pi, source_tag or SOURCE_N, n)
    if theorem == "T2":
        return map_t2(pi, source_tag or SOURCE_N, n)
    if theorem == "T3":
        st = stats(pi)
        if st.s == 1 and source_tag in (None, SOURCE_N):
            return map_t3_odd(pi, n)
        return map_t3_even(pi, source_tag or SOURCE_N, n)
    if theorem in ("T4e", "T4o"):
        return map_t4(pi, source_tag or SOURCE_N, n, theorem[-1].upper())
    raise PreconditionError(f"unknown map {theorem!r}")


# ---------------------------------------------------------------------------
# audits
# ---------------------------------------------------------------------------

def _audit_setup(theorem: str, n: int):
    if theorem == "T1":
        if n < 2:
            raise ValueError("T1 is audited for n > 1")
        domain = [(SOURCE_N, _SPT1, n), (SOURCE_N_MINUS_1, _SPT1, n - 1)]
        components = {"PEX": (_PEX, n)}
        apply = lambda pi, tag: map_t1(pi, tag, n)
        out_weight = n
    elif theorem == "T2":
        if n < 3:
            raise ValueError("T2 is audited for n > 2")
        domain = [(SOURCE_N, _SPT1O, n), (SOURCE_N_MINUS_2, _SPT1O, n - 2)]
        components = {"PE-copy1": (_PE, n - 1), "PE-copy2": (_PE, n - 1),
                      "POEX": (_POEX, n - 1)}
        apply = lambda pi, tag: map_t2(pi, tag, n)
        out_weight = n - 1
    elif theorem in ("T4e", "T4o"):
        if n < 3:
            raise ValueError(f"{theorem} is audited for n > 2")
        fam = _BE1 if theorem == "T4e" else _BO1
        refined = _CO if theorem == "T4e" else _CE
        domain = [(SOURCE_N, fam, n), (SOURCE_N_MINUS_2, fam, n - 2)]
        components = {"PE": (_PE, n - 1), refined.id: (refined, n - 1)}
        apply = lambda pi, tag: map_t4(pi, tag, n, theorem[-1].upper())
        out_weight = n - 1
    else:
        raise ValueError(f"no bijection audit for {theorem!r} (T3 has its own)")
    return domain, components, apply, out_weight


def all_traces(theorem: str, n: int) -> list[MapTrace]:
    """Every map application of the named identity at weight ``n``, in
    domain enumeration order.  For T3 this is the matching move on the
    s=1 sources plus the even-s map on both summands."""
    if theorem == "T3":
        if n < 3:
            raise ValueError("T3 is audited for n > 2")
        traces = []
        for pi in family_elements(_SPT1O, n):
            st = stats(pi)
            if st.s == 1:
                traces.append(map_t3_odd(pi, n))
            elif st.s % 2 == 0:
                traces.append(map_t3_even(pi, SOURCE_N, n))
        for pi in family_elements(_SPT1O, n - 2):
            if stats(pi).s % 2 == 0:
                traces.append(map_t3_even(pi, SOURCE_N_MINUS_2, n))
        return traces
    domain, _, apply, _ = _audit_setup(theorem, n)
    return [apply(pi, tag)
            for tag, fam, w in domain
            for pi in family_elements(fam, w)]


def verify_bijection(theorem: str, n: int) -> VerificationReport:
    """Exhaustively apply the named map on its full tagged domain and
    check membership, weight, injectivity across the tagged codomain,
    and exact coverage of every component.  For T1 the explicit inverse
    is also round-tripped in both directions.  Failures are reported,
    never raised."""
    domain, components, apply, out_weight = _audit_setup(theorem, n)
    report = VerificationReport(theorem, n, 0, 0, True, True)
    traces = []
    for tag, fam, w in domain:
        elements = family_elements(fam, w)
        report.blocks[f"domain:{tag}"] = len(elements)
        report.domain_size += len(elements)
        for pi in elements:
            try:
                tr = apply(pi, tag)
            except Exception as exc:  # pragma: no cover - contract breach
                report.problems.append(f"{pi} [{tag}]: {exc}")
                continue
            traces.append(tr)
            comp_fam, comp_w = components[tr.target_tag]
            if tr.output.weight != out_weight or not is_member(tr.output, comp_fam):
                report.contract_violations.append(tr)
    images = [(t.target_tag, t.output) for t in traces]
    report.injective = len(set(images)) == len(images) and not report.problems
    for comp, (fam, w) in components.items():
        want = set(family_elements(fam, w))
        hit = {out for tag, out in images if tag == comp}
        report.blocks[f"image:{comp}"] = len(hit)
        report.blocks[f"codomain:{comp}"] = len(want)
        report.codomain_size += len(want)
        if hit != want:
            report.surjective = False
            report.problems.append(
                f"component {comp}: hit {len(hit)} of {len(want)} elements")
    if theorem == "T1":
        for tr in traces:
            back = inv_t1(tr.output, n)
            if back != (tr.input, tr.source_tag):
                report.problems.append(
                    f"inverse mismatch: {tr.output} -> {back}, expected "
                    f"({tr.input}, {tr.source_tag})")
        for mu in family_elements(_PEX, n):
            pre, tag = inv_t1(mu, n)
            if map_t1(pre, tag, n).output != mu:
                report.problems.append(f"forward(inverse({mu})) != {mu}")
    return report


def verify_t3(n: int) -> VerificationReport:
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
    poex(n-1).
    """
    if n < 3:
        raise ValueError("T3 is audited for n > 2")
    report = VerificationReport("T3", n, 0, 0, True, True)
    tagged = [(SOURCE_N, pi, stats(pi)) for pi in family_elements(_SPT1O, n)]
    tagged += [(SOURCE_N_MINUS_2, pi, stats(pi))
               for pi in family_elements(_SPT1O, n - 2)]

    matched_sources = [pi for tag, pi, st in tagged
                       if tag == SOURCE_N and st.s == 1]
    odd_targets = {(tag, pi) for tag, pi, st in tagged
                   if st.s % 2 == 1 and not (tag == SOURCE_N and st.s == 1)}
    even_elements = [(tag, pi) for tag, pi, st in tagged if st.s % 2 == 0]

    report.blocks["odd-domain"] = len(matched_sources)
    report.blocks["even-domain"] = len(even_elements)

    images = []
    for pi in matched_sources:
        try:
            tr = map_t3_odd(pi, n)
        except Exception as exc:  # pragma: no cover - contract breach
            report.problems.append(f"{pi}: {exc}")
            continue
        tag = SOURCE_N if tr.target_tag == "SPT1O-N" else SOURCE_N_MINUS_2
        w = n if tag == SOURCE_N else n - 2
        if tr.output.weight != w or not is_member(tr.output, _SPT1O):
            report.contract_violations.append(tr)
        if not tr.sign_flip:
            report.contract_violations.append(tr)
        images.append((tag, tr.output))
    report.blocks["odd-image"] = len(set(images))
    if len(set(images)) != len(images):
        report.injective = False
    if set(images) != odd_targets:
        report.surjective = False
        report.problems.append(
            f"matching image hits {len(set(images) & odd_targets)} of "
            f"{len(odd_targets)} odd-s non-source elements")

    poex = set(family_elements(_POEX, n - 1))
    even_images = []
    for tag, pi in even_elements:
        try:
            tr = map_t3_even(pi, tag, n)
        except Exception as exc:  # pragma: no cover - contract breach
            report.problems.append(f"{pi} [{tag}]: {exc}")
            continue
        if tr.output.weight != n - 1 or not is_member(tr.output, _POEX):
            report.contract_violations.append(tr)
        if not tr.sign_flip:
            report.contract_violations.append(tr)
        even_images.append(tr.output)
    report.blocks["poex"] = len(poex)
    if len(set(even_images)) != len(even_images):
        report.injective = False
    if set(even_images) != poex:
        report.surjective = False
        report.problems.append(
            f"even-s image hits {len(set(even_images) & poex)} of "
            f"{len(poex)} poex elements")

    report.domain_size = len(matched_sources) + len(even_elements)
    report.codomain_size = len(odd_targets) + len(poex)

    # the cancellation sums to the signed identity; cross-check it
    # against the counting module
    lhs = count_profile(n)["spt1o-prime"] + count_profile(n - 2)["spt1o-prime"]
    rhs = -count_profile(n - 1)["poex-prime"]
    if lhs != rhs:
        report.problems.append(f"signed identity fails: {lhs} != {rhs}")
    return report
