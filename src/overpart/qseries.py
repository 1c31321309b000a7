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
place: it divides by (1 - z*q^j), then multiplies by (1 + z*q^j), each
a few slice-wide integer additions.  Every family series is read from
the suffix products P_s over part values above s, and one backward
pass per (order, z, parity) walks s from order down to 1 with one
running product (two, over even and odd values, for the parity
families), adding each q^(ks)*P_s into the spt columns as it goes.  So
a pass costs O(order^2) additions, and it keeps O(order) integers per
column, never a table of every P_s.  P_s is 1 plus terms above q^s;
the factor and the column sums skip that zero band.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import accumulate
from operator import add, sub

from .core import (
    BEK, BOK, CE, CO, PBAR, PE, PEX, POEX, SIGNED_REFINEMENTS, SPTKO, FamilySpec,
    parse_family_token,
)

__all__ = ["Series", "family_series", "cross_check"]

# every backward pass yields the columns k = 1 .. K_COLUMNS besides the k
# asked for; this is also selftest's default --k-max, so a default
# selftest makes one pass per (z, parity)
K_COLUMNS = 4


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
    if j * j < len(coeffs):
        # divide by 1 - z*q^j one residue class mod j at a time, when there
        # are fewer classes than blocks of j: each class is divided by
        # 1 - z*q, the running sum d[m] = c[m] + z*d[m-1]
        step = None if z == 1 else lambda previous, c: c - previous
        for r in range(j):
            coeffs[r::j] = accumulate(coeffs[r::j], step)
    else:
        if lo > j:
            coeffs[j] = op(coeffs[j], coeffs[0])
        # divide by 1 - z*q^j: c[i] += z*c[i-j], ascending one block of j
        # at a time so each block reads the already divided block below it
        for b in range(lo, len(coeffs), j):
            coeffs[b:b + j] = map(op, coeffs[b:b + j], coeffs[b - j:b])
    # times 1 + z*q^j; the right-hand slices are copies, so every term
    # reads the coefficient from before the update
    coeffs[lo:] = map(op, coeffs[lo:], coeffs[lo - j:-j])
    if lo > j:
        # and the numerator's z*c[0] at q^j, read after the slice
        coeffs[j] = op(coeffs[j], coeffs[0])


@lru_cache(maxsize=16)
def _backward_pass(order: int, z: int, split: bool, k_top: int):
    """Every series read from the suffix products of one (order, z,
    parity), in one walk s = order .. 1.

    P_s is the product of (1 + z*q^j)/(1 - z*q^j) over the part values
    j > s: all of them, or with ``split`` one product over even values
    and one over odd values.  At each s, q^(k*s) times P_s (for the
    split walk, the product of the parity opposite to s) is added into
    column k, for k <= K_COLUMNS and k = ``k_top``; then the factor of
    s joins the running product of its parity.  Returns ``(evens, odds,
    columns)``: the two final running products, over even and over odd
    values when split, else P_0 twice, and a dict from k to the sum over
    s >= 1 of q^(k*s) P_s.  Each is a tuple of q^0 .. q^order, so an
    entry holds O(order*k) integers, and every running product handed
    to ``_times_part_factor`` is 1 plus terms above q^s."""
    # the even and the odd running product, one list twice unless split
    prods = ([1] + [0] * order, [1] + [0] * order) if split else ([1] + [0] * order,) * 2
    columns = {k: [0] * (order + 1) for k in (*range(1, K_COLUMNS + 1), k_top)}
    for s in range(order, 0, -1):
        above = prods[1 - s % 2]
        for k, col in columns.items():
            if (base := k * s) <= order:  # P_s is 1 plus terms above q^s
                col[base] += 1
                col[base + s + 1:] = map(add, col[base + s + 1:], above[s + 1:order - base + 1])
        _times_part_factor(prods[s % 2], s, z)
    return *map(tuple, prods), {k: tuple(col) for k, col in columns.items()}


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
    if fid in (BEK, BOK, CE, CO):  # the even or odd half of a signed family
        base, even = next((FamilySpec(signed, fam.k), halves[0])
                          for signed, halves in SIGNED_REFINEMENTS.items() if fid in halves)
        return _halved(family_series(base, order, 1), family_series(base, order, -1),
                       even_half=(fid == even))
    evens, odds, columns = _backward_pass(order, z, fid in (PE, POEX, SPTKO),
                                          max(fam.k, K_COLUMNS))
    if fid in (PEX, POEX):
        # value 1 may appear only overlined, a factor 1 + z*q, and every
        # value >= 2 (PEX) or every odd value >= 3 (POEX) is free: (1 - z*q)
        # times P_0 or the odd product, whose factor of 1 is (1 + z*q)/(1 - z*q)
        return Series(order, (odds[0], *map(sub if z == 1 else add, odds[1:], odds)))
    # PBAR and PE read P_0, SPTK and SPTKO their column: the k plain copies
    # of s carry no z weight, only the parts above s (of the parity
    # opposite to s for SPTKO) are signed
    return Series(order, evens if fid in (PBAR, PE) else columns[fam.k])


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
    return [(tok, n, prof[tok], ser.coeffs[n]) for n in range(n_max + 1)
            for prof in [count_profile(n, k_max)] for tok, ser in series.items()
            if ser.coeffs[n] != prof[tok]]
