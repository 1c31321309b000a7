"""Spans and counters recorded around calls into the ``overpart`` layers.

:func:`install` replaces each traced function, in the namespace of the
module that calls it, by a wrapper that records one span per call:
name, start, end and the span open when it began.  Spans stay in
compact in-memory arrays, are written out once at the end of a run
(:meth:`Tracer.dump`), and :func:`derive` turns them into per-name
call counts and self times.  No source file of the program changes.

A wrapper's own bookkeeping falls partly outside the span it records
(charged to the caller) and partly inside it.  :func:`calibrate`
measures both parts on a wrapped no-op in the same process, and
:func:`derive` subtracts them, so self times estimate the untraced
program rather than program plus tracer.
"""

from __future__ import annotations

import json
import statistics
import sys
import time
from array import array
from collections import defaultdict
from functools import update_wrapper

# (module, attribute as the calling module sees it, span name)
TRACED = (
    ("overpart.cli", "count_many", "enumeration.count_many"),
    ("overpart.cli", "cross_check", "qseries.cross_check"),
    ("overpart.cli", "verify_bijection", "bijections.verify_bijection"),
    ("overpart.cli", "verify_t3", "bijections.verify_t3"),
    ("overpart.core", "stats", "core.stats"),  # inside is_member and why_not_member
    ("overpart.core", "member_given_stats", "core.member"),  # inside is_member
    ("overpart.enumeration", "stats", "core.stats"),
    ("overpart.enumeration", "member_given_stats", "core.member"),
    ("overpart.enumeration", "count_many", "enumeration.count_many"),
    ("overpart.enumeration", "count_profile", "enumeration.count_profile"),
    ("overpart.enumeration", "family_elements", "enumeration.family_elements"),
    ("overpart.qseries", "count_profile", "enumeration.count_profile"),
    ("overpart.qseries", "family_series", "qseries.family_series"),
    ("overpart.bijections", "stats", "core.stats"),
    ("overpart.bijections", "why_not_member", "core.member"),
    ("overpart.bijections", "family_elements", "enumeration.family_elements"),
    ("overpart.bijections", "count_profile", "enumeration.count_profile"),
    ("overpart.bijections", "all_traces", "bijections.all_traces"),
    ("overpart.bijections", "map_t1", "bijections.map"),
    ("overpart.bijections", "map_t2", "bijections.map"),
    ("overpart.bijections", "map_t3_odd", "bijections.map"),
    ("overpart.bijections", "map_t3_even", "bijections.map"),
    ("overpart.bijections", "map_t4", "bijections.map"),
)
GENERATOR = ("overpart.enumeration", "overpartitions", "enumeration.overpartitions.next")
SERIES_MUL = "qseries.series_mul"
BOOKKEEPING = "trace.bookkeeping"  # tracer work inside a span; excluded from layers


class Tracer:
    """In-memory span store: span i has name id ``name[i]``, parent span
    ``parent[i]`` (-1 at the top) and ``start[i]``/``end[i]`` from
    ``time.perf_counter``.  ``counters`` holds counts that are not calls.
    ``kinds[id]`` is ``"call"`` or ``"next"``, the wrapper that records
    the name; ``cost`` maps a kind to its calibrated (outside, inside)
    seconds per span."""

    def __init__(self):
        self.names: list[str] = []
        self.kinds: list[str] = []
        self.cost: dict[str, tuple[float, float]] = {}
        self._ids: dict[str, int] = {}
        self.name = array("H")
        self.parent = array("l")
        self.start = array("d")
        self.end = array("d")
        self.stack = [-1]
        self.counters: dict[str, int] = defaultdict(int)

    def _id(self, name: str, kind: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
            self.kinds.append(kind)
        return self._ids[name]

    def wrap(self, name: str, fn):
        """``fn`` recording one span per call."""
        nid = self._id(name, "call")
        names, parents, starts, ends = self.name, self.parent, self.start, self.end
        stack, clock = self.stack, time.perf_counter

        def traced(*args, **kwargs):
            i = len(starts)
            names.append(nid)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(i)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[i] = clock()
                stack.pop()

        return update_wrapper(traced, fn)

    def wrap_generator(self, name: str, yielded: str, fn):
        """``fn`` returning a generator; one span per ``next``, and the
        number of items counted under ``yielded``."""
        nid = self._id(name, "next")
        names, parents, starts, ends = self.name, self.parent, self.start, self.end
        stack, clock, counters = self.stack, time.perf_counter, self.counters

        def timed(it):
            step = it.__next__
            while True:
                i = len(starts)
                names.append(nid)
                parents.append(stack[-1])
                ends.append(0.0)
                starts.append(clock())
                try:
                    item = step()
                except StopIteration:
                    return
                finally:
                    ends[i] = clock()
                counters[yielded] += 1
                yield item

        def traced(*args, **kwargs):
            return timed(fn(*args, **kwargs))

        return update_wrapper(traced, fn)

    def dump(self, path: str) -> None:
        """Write the spans: one JSON header line, then the four arrays."""
        cost = [self.cost.get(kind, (0.0, 0.0)) for kind in self.kinds]
        header = {"names": self.names, "cost": cost, "count": len(self.start)}
        with open(path, "wb") as fh:
            fh.write(json.dumps(header).encode() + b"\n")
            for arr in (self.name, self.parent, self.start, self.end):
                fh.write(arr.tobytes())


def load(path: str) -> tuple[list[str], list, array, array, array, array]:
    """Read spans written by :meth:`Tracer.dump`: names, the calibrated
    (outside, inside) cost per name, then the four arrays."""
    with open(path, "rb") as fh:
        header = json.loads(fh.readline())
        count = header["count"]
        arrays = []
        for code in ("H", "l", "d", "d"):
            arr = array(code)
            arr.frombytes(fh.read(arr.itemsize * count))
            arrays.append(arr)
    return (header["names"], header["cost"], *arrays)


def derive(names, name, parent, start, end, cost=None) -> dict[str, dict[str, float]]:
    """Per span name: ``calls`` and ``self_s``, the summed duration minus
    the time covered by child spans.  With ``cost`` (per name id, the
    tracer's (outside, inside) seconds per span) a child also covers its
    outside cost in its parent, and each span loses its inside cost; a
    total that calibration noise would take below 0 reads 0."""
    outside, inside = zip(*cost) if cost else ([0.0] * len(names), [0.0] * len(names))
    covered = array("d", bytes(8 * len(start)))
    for p, nid, s, e in zip(parent, name, start, end):
        if p >= 0:
            covered[p] += e - s + outside[nid]
    calls = [0] * len(names)
    self_s = [0.0] * len(names)
    for nid, s, e, c in zip(name, start, end, covered):
        calls[nid] += 1
        self_s[nid] += e - s - c - inside[nid]
    return {n: {"calls": calls[i], "self_s": max(self_s[i], 0.0) if cost else self_s[i]}
            for i, n in enumerate(names)}


def _noop(a, b, c):
    return a


def _items(n):
    yield from range(n)


def calibrate(n: int = 20000, repeats: int = 7) -> dict[str, tuple[float, float]]:
    """Seconds per span the tracer adds, for each wrapper kind: ``outside``
    the recorded span (charged to the caller) and ``inside`` it, beyond
    what an unwrapped call or ``next`` costs.  Medians over ``repeats``
    rounds of ``n`` spans on a no-op, in a tracer of its own."""
    clock = time.perf_counter
    samples: dict[str, list[tuple[float, float]]] = {"call": [], "next": []}
    for _ in range(repeats):
        t = Tracer()
        wrapped = t.wrap("call", _noop)
        t0 = clock()
        for i in range(n):
            _noop(i, i, i)
        plain = clock() - t0
        t0 = clock()
        for i in range(n):
            wrapped(i, i, i)
        traced = clock() - t0
        t1 = clock()
        for _ in _items(n):
            pass
        plain_next = clock() - t1
        t1 = clock()
        for _ in t.wrap_generator("next", "items", _items)(n):
            pass
        traced_next = clock() - t1
        spans = [e - s for e, s in zip(t.end, t.start)]
        for kind, span, extra, base in (("call", spans[:n], traced, plain),
                                        ("next", spans[n:], traced_next, plain_next)):
            within = sum(span)
            samples[kind].append(((extra - within - base) / n, (within - base) / n))
    return {kind: (max(statistics.median(o for o, _ in s), 0.0),
                   max(statistics.median(i for _, i in s), 0.0))
            for kind, s in samples.items()}


def nesting_errors(parent, start, end) -> int:
    """Spans that open before their parent, close after it, or close
    before they open."""
    bad = 0
    for i, p in enumerate(parent):
        if end[i] < start[i] or (p >= 0 and not (p < i and start[p] <= start[i] and end[i] <= end[p])):
            bad += 1
    return bad


def _dense_mul_terms(a, b, order: int) -> int:
    """Multiply-adds a dense truncated product performs: pairs of nonzero
    coefficients a[i], b[j] with i + j <= order."""
    prefix, running = [], 0
    for c in b:
        running += 1 if c else 0
        prefix.append(running)
    return sum(prefix[order - i] for i, c in enumerate(a) if c)


def install(tracer: Tracer) -> None:
    """Wrap every traced function of the imported ``overpart`` package.
    A name a later version of the program no longer has is skipped."""
    for module, attr, span in TRACED:
        mod = sys.modules[module]
        if hasattr(mod, attr):
            setattr(mod, attr, tracer.wrap(span, getattr(mod, attr)))
    module, attr, span = GENERATOR
    mod = sys.modules[module]
    if hasattr(mod, attr):
        setattr(mod, attr, tracer.wrap_generator(span, "enumeration.overpartitions.yielded",
                                                 getattr(mod, attr)))
    series = getattr(sys.modules["overpart.qseries"], "Series", None)
    if series is not None and "__mul__" in vars(series):
        mul = tracer.wrap(SERIES_MUL, series.__mul__)
        terms = tracer.wrap(BOOKKEEPING, _dense_mul_terms)  # a child span: not charged to callers

        def counted_mul(self, other):
            out = mul(self, other)
            tracer.counters["qseries.series_mul.terms"] += terms(self.coeffs, other.coeffs, self.order)
            return out

        series.__mul__ = update_wrapper(counted_mul, series.__mul__)
    cli = sys.modules["overpart.cli"]
    for attr in ("verify_bijection", "verify_t3"):
        if hasattr(cli, attr):
            setattr(cli, attr, _counting_audit(tracer, getattr(cli, attr)))


def _counting_audit(tracer: Tracer, audit):
    """Count the audited domain elements and reported problems."""

    def counted(*args, **kwargs):
        report = audit(*args, **kwargs)
        tracer.counters["bijections.audit.domain_elements"] += getattr(report, "domain_size", 0)
        tracer.counters["bijections.audit.problems"] += (
            len(getattr(report, "problems", ())) + len(getattr(report, "contract_violations", ())))
        return report

    return update_wrapper(counted, audit)
