"""Truncated formal power series in q with exact integer coefficients,
used as an oracle that recomputes every family count independently of
enumeration.

Each allowed part value j contributes the factor

    (1 + z*q^j) / (1 - z*q^j)  =  1 + 2*sum_{m>=1} z^m q^(jm)

to a generating product: the numerator is the optional overlined copy,
the denominator the plain copies, and z = +1 or -1 weights every copy
contributed by that value.  Family series are assembled from these
factors exactly as the family definitions read; evaluating at z = -1
turns the two signed families (SPTKO, POEX) into their even-minus-odd
refinements.

A :class:`Series` only holds the result: the truncation order and the
coefficients of q^0 .. q^order.  Products are never formed densely.
``_times_part_factor`` multiplies a coefficient list by one factor in
place: it divides by (1 - z*q^j) with an ascending running sum, then
multiplies by (1 + z*q^j), each a few slice-wide integer additions.
A suffix product over part values above s is 1 plus terms above q^s.
On such an input both steps only add z*c[0] at q^j below q^(2j), so
the factor adds that twice and slices from q^(2j): 2*(order - 2j)
additions instead of 2*(order - j), and a table of suffix products over
every part value costs about order^2 / 2 of them.  Sums of shifted
suffix products skip the same zero band.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from operator import add, sub

from .core import (
    PBAR, PE, PEX, POEX, SIGNED_REFINEMENTS, SPTK, SPTKO, FamilySpec,
    parse_family_token,
)

__all__ = ["Series", "family_series", "cross_check"]


@dataclass(frozen=True)
class Series:
    """Integer coefficients of q^0 .. q^order of a generating series."""

    order: int
    coeffs: tuple[int, ...]

    def __post_init__(self):
        if self.order < 1:
            raise ValueError("order must be >= 1")
        if len(self.coeffs) != self.order + 1:
            raise ValueError("need exactly order+1 coefficients")

    def coefficient(self, n: int) -> int:
        if not 0 <= n <= self.order:
            raise ValueError(f"coefficient {n} outside truncation order {self.order}")
        return self.coeffs[n]


def _times_part_factor(coeffs: list[int], j: int, z: int) -> None:
    """coeffs *= (1 + z*q^j)/(1 - z*q^j) in place, truncated at the
    list's length."""
    op = add if z == 1 else sub
    # zero band (q^1 .. q^j all 0): below q^(2j) the divide adds only
    # z*c[0] at q^j, so the blocks and the numerator start at q^(2j)
    lo = 2 * j if j < len(coeffs) and not any(coeffs[1:j + 1]) else j
    if lo > j:
        coeffs[j] = op(coeffs[j], coeffs[0])
    # divide by 1 - z*q^j: c[i] += z*c[i-j], ascending one block of j at a
    # time so each block reads the already divided block below it
    for b in range(lo, len(coeffs), j):
        coeffs[b:b + j] = map(op, coeffs[b:b + j], coeffs[b - j:b])
    # times 1 + z*q^j; the right-hand slices are copies, so every term
    # reads the coefficient from before the update
    coeffs[lo:] = map(op, coeffs[lo:], coeffs[lo - j:-j])
    if lo > j:
        # and the numerator's z*c[0] at q^j, read after the slice
        coeffs[j] = op(coeffs[j], coeffs[0])


@lru_cache(maxsize=16)
def _suffix_products(order: int, z: int, parity: str) -> tuple[tuple[int, ...], ...]:
    """prods[s] = coefficients of the product of (1 + z*q^j)/(1 - z*q^j)
    over j > s, truncated at q^order, with j restricted by parity ("all",
    "odd", or "even").

    One running coefficient list is updated in place from j = order down
    to 1, and a tuple snapshot is taken after each factor.  Entry s is 1
    plus terms above q^s, the zero band ``_times_part_factor`` and
    ``_shifted_sum`` skip.  Consecutive entries that no factor separates
    share one tuple."""
    acc = [1] + [0] * order
    prods = [tuple(acc)] * (order + 1)
    for j in range(order, 0, -1):
        if parity == "all" or j % 2 == (parity == "odd"):
            _times_part_factor(acc, j, z)
            prods[j - 1] = tuple(acc)
        else:
            prods[j - 1] = prods[j]
    return tuple(prods)


def _shifted_sum(suffix_for, k: int, order: int) -> Series:
    # sum over s >= 1 of q^(k*s) * suffix_for(s); terms with k*s > order
    # vanish, and suffix_for(s) is 1 plus terms above q^s
    out = [0] * (order + 1)
    for s in range(1, order // k + 1):
        base = k * s
        out[base] += 1
        out[base + s + 1:] = map(add, out[base + s + 1:], suffix_for(s)[s + 1:order - base + 1])
        # the k plain copies of s carry no z weight: only parts above s
        # (SPTKO) or all parts (POEX) are signed
    return Series(order, tuple(out))


def _halved(plus: Series, minus: Series, even_half: bool) -> Series:
    totals = [a + b if even_half else a - b for a, b in zip(plus.coeffs, minus.coeffs)]
    if any(tot % 2 for tot in totals):
        raise ArithmeticError("signed decomposition produced an odd total")
    return Series(plus.order, tuple(tot // 2 for tot in totals))


def family_series(fam: FamilySpec, order: int, z: int = 1) -> Series:
    """Generating series of the family, truncated at ``order``.

    With z=+1 the q^n coefficient is the family count at n.  With z=-1
    (allowed only for SPTKO and POEX) it is the signed count: the
    even-refinement minus the odd-refinement of the family's parity
    statistic.
    """
    if z not in (1, -1):
        raise ValueError("z must be +1 or -1")
    if order < 1:
        raise ValueError("order must be >= 1")
    if z == -1 and fam.id not in SIGNED_REFINEMENTS:
        raise ValueError(f"family {fam.token!r} has no signed statistic; z=-1 invalid")
    fid = fam.id
    if fid in (PBAR, PE):
        return Series(order, _suffix_products(order, z, "all" if fid == PBAR else "even")[0])
    if fid in (PEX, POEX):
        # value 1 may appear only overlined, a factor 1 + z*q; every value
        # >= 2 (PEX) or every odd value >= 3 (POEX) is free
        above_one = _suffix_products(order, z, "all" if fid == PEX else "odd")[1]
        return Series(order, (above_one[0], *map(add if z == 1 else sub, above_one[1:], above_one)))
    if fid == SPTK:
        suffix = _suffix_products(order, z, "all")
        return _shifted_sum(lambda s: suffix[s], fam.k, order)
    if fid == SPTKO:
        # parts above s must have the opposite parity to s
        odd = _suffix_products(order, z, "odd")
        even = _suffix_products(order, z, "even")
        return _shifted_sum(lambda s: odd[s] if s % 2 == 0 else even[s], fam.k, order)
    # BEK / BOK / CE / CO: the even or odd half of a signed family
    base, even = next((FamilySpec(signed, fam.k), halves[0])
                      for signed, halves in SIGNED_REFINEMENTS.items() if fid in halves)
    return _halved(family_series(base, order, 1), family_series(base, order, -1),
                   even_half=(fid == even))


def series_for_token(token: str, order: int, default_k: int = 1) -> Series:
    """Series for a command-line family token; ``-prime`` variants
    evaluate the underlying family at z = -1."""
    fam, signed = parse_family_token(token, default_k)
    return family_series(fam, order, -1 if signed else 1)


def cross_check(n_max: int, k_max: int = 1, order: int | None = None):
    """Compare enumeration against series coefficients for every family
    and signed variant with n <= n_max and k <= k_max.

    Returns a list of mismatches ``(token, n, enumerated, coefficient)``;
    empty means the two oracles agree everywhere.
    """
    # the only use of enumeration in this module, imported here so that
    # no series code can reach it
    from .enumeration import count_profile, profile_tokens

    if order is None:
        order = max(n_max, 1)
    if order < n_max:
        raise ValueError("order must be at least n_max")
    # a member of a k-family has at least k parts, so every column with
    # k > n_max reads 0 by enumeration and by series at each compared n
    k_max = min(k_max, max(n_max, 1))
    series = {tok: series_for_token(tok, order, 1) for tok in profile_tokens(k_max)}
    mismatches = []
    for n in range(n_max + 1):
        prof = count_profile(n, k_max)
        for tok, ser in series.items():
            if ser.coeffs[n] != prof[tok]:
                mismatches.append((tok, n, prof[tok], ser.coeffs[n]))
    return mismatches
