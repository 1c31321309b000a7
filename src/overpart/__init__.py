"""Overpartition families, smallest-part statistics, exact counting,
q-series oracles, and the constructive maps behind five counting
identities."""

from .core import (
    BEK, BOK, CE, CO, FAMILY_IDS, INFINITY, PBAR, PE, PEX, POEX, SPTK, SPTKO,
    CollisionError, FamilySpec, OverPartition, OverpartitionError,
    ParseError, Signature, Stats, is_member, member, parse,
    parse_family_token, signature, stats, why_not_member,
)
from .enumeration import (
    count_many, count_profile, derivation_sides, family_elements,
    identity_sides, overpartitions,
)
from .qseries import Series, cross_check, family_series
from .bijections import (
    SOURCE_N, SOURCE_N_MINUS_1, SOURCE_N_MINUS_2, MapTrace,
    PreconditionError, VerificationReport, apply_map, inv_t1, map_t1,
    map_t2, map_t3_even, map_t3_odd, map_t4, verify_bijection, verify_t3,
)

__version__ = "0.1.0"
