"""Truncated formal power series in q with exact integer coefficients,
used as an oracle that recomputes every family count independently of
enumeration.

Each allowed part value j contributes the factor

    F_j = (1 + z*q^j) / (1 - z*q^j)  =  1 + 2*sum_{m>=1} z^m q^(jm)

to a generating product: the numerator is the optional overlined copy,
the denominator the plain copies, and z = +1 or -1 weights every copy
contributed by that value.  Family series are assembled from these
factors exactly as the family definitions read; evaluating at z = -1
turns the two signed families (SPTKO, POEX) into their even-minus-odd
refinements.

A :class:`Series` only holds the result: the truncation order and the
coefficients of q^0 .. q^order.  Every series is a linear combination
of a few products with polynomials in q as coefficients (as in Malik
and Sarma, arXiv:2601.15601), and only the forward sum of a column past
the crossover takes the part factors out one by one:

* Products.  By Gauss's identity (Andrews, *The Theory of Partitions*,
  ch. 2),

      prod_{j>=1} (1 - q^j)/(1 + q^j) = phi(-q) = 1 + 2*sum_{m>=1} (-1)^m q^(m*m),

  so the product P_0 of every F_j is 1/phi(-q) at z = 1, the
  overpartition series (Corteel and Lovejoy, "Overpartitions", 2004),
  and phi(-q) at z = -1.  Multiplying or dividing by the sparse phi
  costs O(order^1.5).  The product over the even values is P_0(q^2),
  and the one over the odd values P_0 * phi(-q^2)**z.
* spt columns.  With P_s the product over the values above s, the
  column k is C_k = sum_{s>=1} q^(k*s) P_s.  Since P_{s-1} = F_s P_s,

      (1 - z*q^s) P_{s-1} = (1 + z*q^s) P_s,

  and summing q^((k-1)*s) times this over s >= 1 telescopes to

      z*(1 + q^k) C_k = q^(k-1) (P_0 + C_{k-1}) - C_{k-1} - z*q^k P_0,
      z*(1 + q) C_1 = (1 - z*q) P_0 - 1,

  so each column costs O(order) additions given the one before, and
  the column k O(k*order) from P_0; at z = 1 the second line is T1,
  (1 + q) spt1 = pex - 1.  Dividing by 1 + q^k is a running difference
  along each residue class mod k.  The parity columns split s by its
  parity and run the same recurrence on the even and on the odd
  products.  Summed forward, P_s from P_{s-1} by taking out the factor
  of s, the column k costs O(order^2/k) additions instead, so a column
  with k*k above a fixed share of the order, the crossover, is summed
  forward.
"""

from __future__ import annotations

from functools import lru_cache, partial
from itertools import accumulate
from math import isqrt
from operator import add, sub
from typing import NamedTuple

from .core import (
    BEK, BOK, CE, CO, PBAR, PE, PEX, POEX, SIGNED_REFINEMENTS, SPTKO, FamilySpec,
    parse_family_token,
)

__all__ = ["Series", "family_series", "cross_check"]

# the first spt column read at an order and z builds the columns 1 ..
# K_COLUMNS; this is also selftest's default --k-max
K_COLUMNS = 4
# the column k of a chain that steps by d (1 for the spt columns, 2 for
# the parity chains) is telescoped from column k - 1 while
# CROSSOVER*d*k*k <= order, else summed forward: alone, it costs
# O(k*order) one way and O(order^2/(d*k)) the other.  The two meet near
# k = 13 (d = 2) and k = 18-20 (d = 1) at order 1000, and near k = 25
# (d = 2) and k = 35 (d = 1) at order 4000 (one core of a 2-vCPU x86-64
# VM, Python 3.11)
CROSSOVER = 3


class Series(NamedTuple("Series", [("order", int), ("coeffs", tuple[int, ...])])):
    """Integer coefficients of q^0 .. q^order of a generating series.

    A named tuple, equal to and hashed as the plain tuple ``(order,
    coeffs)``, whose fields are declared in the base class and validated
    by this subclass, as for :class:`~overpart.core.FamilySpec`."""

    __slots__ = ()

    def __new__(cls, order: int, coeffs: tuple[int, ...]):
        if order < 1:
            raise ValueError("order must be >= 1")
        if len(coeffs) != order + 1:
            raise ValueError("need exactly order+1 coefficients")
        return tuple.__new__(cls, (order, coeffs))

    def coefficient(self, n: int) -> int:
        if not 0 <= n <= self.order:
            raise ValueError(f"coefficient {n} outside truncation order {self.order}")
        return self.coeffs[n]


def _divide(coeffs: list[int], j: int, z: int) -> None:
    """coeffs /= 1 - z*q^j in place: each residue class mod j is divided
    by 1 - z*q, the running sum d[m] = c[m] + z*d[m-1]."""
    step = None if z == 1 else lambda previous, c: c - previous
    for r in range(min(j, len(coeffs))):
        coeffs[r::j] = accumulate(coeffs[r::j], step)


def _times_part_factor(coeffs: list[int], j: int, z: int) -> None:
    """coeffs *= (1 + z*q^j)/(1 - z*q^j) in place, truncated at the
    list's length."""
    _divide(coeffs, j, z)
    # times 1 + z*q^j; the right-hand slice is a copy, so every term reads
    # the coefficient from before the update
    coeffs[j:] = map(add if z == 1 else sub, coeffs[j:], coeffs[:-j])


def _theta(coeffs: list[int], step: int, power: int) -> list[int]:
    """coeffs times phi(-q^step)**power in place, for power 1 or -1, and
    returned; phi(-q) = 1 + 2*sum_{m>=1} (-1)^m q^(m*m).  A product runs
    down from the top coefficient, so that each reads the ones below it
    unchanged; a quotient runs up, so that each reads them divided."""
    terms = [(step * m * m, 2 * (-1) ** m) for m in range(1, isqrt((len(coeffs) - 1) // step) + 1)]
    for i in range(len(coeffs))[::-power]:
        coeffs[i] += power * sum(t * coeffs[i - e] for e, t in terms[:isqrt(i // step)])
    return coeffs


@lru_cache(maxsize=128)
def _column(order: int, z: int, d: int, lift: int, k: int) -> tuple[int, ...]:
    """X_k = sum_{i>=1} q^(d*k*i) Q_i of one chain, as q^0 .. q^order, and
    its product X_0 = Q_0; Q_i is Q_{i-1} over the factor F_e of e = d*i -
    lift.

    (d, lift) = (1, 0) gives P_0 and the spt columns C_k, (2, 0) the even
    product and the same columns in q^2, and (2, 1) the odd product and
    the sums over the even s = 2i of q^(k*s) times the odd product above
    s, which loses the factor of the odd value 2i - 1 at step i.  Summing
    q^(d*(k-1)*i) times (Q_{i-1} - Q_i) = z*q^e (Q_{i-1} + Q_i) over i >=
    1 gives

        z*(1 + q^(d*k)) X_k = q^lift I_k - z*q^(d*k) Q_0,

    with I_1 = Q_0 - 1, since that sum telescopes, and I_k = q^(d*(k-1))
    (Q_0 + X_{k-1}) - X_{k-1}.  Past the crossover the column is summed
    forward instead, each Q_i cut to the order - d*k*i + 1 coefficients
    that its term reads; for d*k > order the sum is 0."""
    if k == 0:
        return tuple(_theta(list(_column(order, z, 1, 0, 0)), 2, z) if lift
                     else _theta([1] + [0] * order, d, -z))
    prod, m = _column(order, z, d, lift, 0), d * k
    if CROSSOVER * m * k > order:
        col, q = [0] * (order + 1), list(prod)
        for i in range(1, order // m + 1):
            _times_part_factor(q := q[:order - m * i + 1], d * i - lift, -z)
            col[m * i:] = map(add, col[m * i:], q)
        return tuple(col)
    if k == 1:
        inner = [prod[0] - 1, *prod[1:]]
    else:
        prev = _column(order, z, d, lift, k - 1)
        inner = [a - b for a, b in zip([0] * (m - d) + list(map(add, prod, prev)), prev)]
    col = [z * a - b for a, b in zip(([0] * lift + inner)[:order + 1], (0,) * m + prod)]
    _divide(col, m, -1)
    return tuple(col)


@lru_cache(maxsize=128)
def _split_column(order: int, z: int, k: int) -> tuple[int, ...]:
    """The SPTKO column k.  An odd s reads the even values above it, the
    even product E_0 at s = 1 and P_{(s-1)/2}(q^2) in general, and an
    even s the odd values above it, so the column is q^k (E_0 + Y_k) +
    B_k, with Y_k and B_k the columns k of the even and the odd chain."""
    evens = map(add, _column(order, z, 2, 0, 0), _column(order, z, 2, 0, k))
    return tuple(map(add, [0] * min(k, order + 1) + list(evens), _column(order, z, 2, 1, k)))


def _halved(plus: Series, minus: Series, even_half: bool) -> Series:
    totals = [a + b if even_half else a - b for a, b in zip(plus.coeffs, minus.coeffs)]
    if any(tot % 2 for tot in totals):
        raise ArithmeticError("signed decomposition produced an odd total")
    return Series(plus.order, tuple(tot // 2 for tot in totals))


@lru_cache(maxsize=128)
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
    d = 2 if fid in (PE, POEX, SPTKO) else 1
    # P_0, the even product (PE, SPTKO) or the odd product (POEX)
    prod = _column(order, z, d, int(fid == POEX), 0)
    if fid in (PBAR, PE):
        return Series(order, prod)
    if fid in (PEX, POEX):
        # value 1 may appear only overlined, a factor 1 + z*q, and every
        # value >= 2 (PEX) or every odd value >= 3 (POEX) is free: (1 - z*q)
        # times P_0 or the odd product, whose factor of 1 is (1 + z*q)/(1 - z*q)
        return Series(order, (prod[0], *map(sub if z == 1 else add, prod[1:], prod)))
    # SPTK reads the column k of P_0's chain, SPTKO the one _split_column
    # assembles from the even and the odd chain: the k plain copies of s
    # carry no z weight, only the parts above s (of the parity opposite to
    # s for SPTKO) are signed.  The first column read at an order and z
    # builds its columns 1 .. K_COLUMNS together, before the column k, so
    # that the other small k at this order are cache hits
    column = partial(_column, order, z, 1, 0) if d == 1 else partial(_split_column, order, z)
    return Series(order, [column(j) for j in (*range(1, K_COLUMNS + 1), fam.k)][-1])


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

    order = max(n_max, 1) if order is None else order
    if order < n_max:
        raise ValueError("order must be at least n_max")
    # a member of a k-family has at least k parts, so every column with
    # k > n_max reads 0 by enumeration and by series at each compared n
    k_max = min(k_max, max(n_max, 1))
    series = {tok: series_for_token(tok, order, 1) for tok in profile_tokens(k_max)}
    return [(tok, n, prof[tok], ser.coeffs[n]) for n in range(n_max + 1)
            for prof in [count_profile(n, k_max)] for tok, ser in series.items()
            if ser.coeffs[n] != prof[tok]]
