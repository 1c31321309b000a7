"""A reference edit of an overpartition on its expanded parts, for tests.

It shares no code with the run rewrites of ``overpart.bijections``: it
counts the parts, drops and adds copies, and rebuilds the result with the
validating ``OverPartition.from_parts``.
"""

from collections import Counter

from overpart.core import OverPartition, OverpartitionError


def edit_parts(pi, drop=(), add=()):
    """``pi`` less the ``(value, overlined)`` copies in ``drop``, plus those
    in ``add``; a copy to drop that ``pi`` lacks, or a second overlined
    copy of a value, raises OverpartitionError."""
    parts, gone = Counter(pi.parts()), Counter(drop)
    if missing := gone - parts:
        raise OverpartitionError(f"no copies {sorted(missing.elements())} to drop from {pi}")
    return OverPartition.from_parts((parts - gone + Counter(add)).elements())
