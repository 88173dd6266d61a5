"""Spans around abelianaut's layers, recorded from outside the package.

:func:`installed` replaces each public name that one module of the package
calls in another (``enumeration.factorize``, ``core.aut_order_p``,
``search.realize``, ...) by a wrapper that records one span per call, or
per ``next()`` for generators.  A span holds its name, start, end, parent
span and pass number.  Spans stay in compact arrays in memory, with no
I/O while a pass runs.  Between passes the benchmark reduces them to
per-layer totals (:meth:`Tracer.layer_totals`) and :meth:`Tracer.start_pass`
drops them, so memory holds one pass; the last pass's spans are written out
at the end of the run.  A span's self time is its duration minus the time
its child spans cover.

Counters are recorded at the same boundaries, from the arguments and
results the wrappers see (groups yielded, orders pruned, ...).
"""

from __future__ import annotations

import json
import sys
import time
from array import array
from collections import Counter
from contextlib import contextmanager
from pathlib import Path
from types import ModuleType
from typing import Callable, Iterator


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("H")
        self.parent = array("l")
        self.pass_id = array("H")
        self.start = array("d")
        self.end = array("d")
        self.stack = [-1]
        self.pass_index = 0
        self.counters: Counter[str] = Counter()

    def start_pass(self, index: int) -> None:
        """Drop the spans and counters recorded so far and number the next pass."""
        for field in (self.name, self.parent, self.pass_id, self.start, self.end):
            del field[:]
        self.counters.clear()
        self.pass_index = index

    def count(self, counter: str, value: int = 1) -> None:
        self.counters[counter] += value

    def _intern(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, name: str, fn: Callable, after: Callable | None = None) -> Callable:
        """``fn`` recording one span per call; ``after(args, result)`` on return."""
        k = self._intern(name)
        names, parents, passes = self.name, self.parent, self.pass_id
        starts, ends, stack = self.start, self.end, self.stack
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            i = len(names)
            names.append(k)
            parents.append(stack[-1])
            passes.append(self.pass_index)
            ends.append(0.0)
            stack.append(i)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[i] = clock()
                stack.pop()
            if after is not None:
                after(args, result)
            return result

        return wrapper

    def wrap_iter(self, name: str, fn: Callable, after_item: Callable | None = None) -> Callable:
        """Generator function ``fn`` recording one span per ``next()``.

        Counts each call as ``<name>.calls``; ``after_item(item)`` runs on
        every item, outside the span.
        """
        k = self._intern(name)
        names, parents, passes = self.name, self.parent, self.pass_id
        starts, ends, stack = self.start, self.end, self.stack
        clock = time.perf_counter
        calls = f"{name}.calls"

        def wrapper(*args, **kwargs):
            self.count(calls)
            it = iter(fn(*args, **kwargs))
            while True:
                i = len(names)
                names.append(k)
                parents.append(stack[-1])
                passes.append(self.pass_index)
                ends.append(0.0)
                stack.append(i)
                starts.append(clock())
                try:
                    item = next(it)
                except StopIteration:
                    return
                finally:
                    ends[i] = clock()
                    stack.pop()
                if after_item is not None:
                    after_item(item)
                yield item

        return wrapper

    def layer_totals(self) -> dict[str, tuple[int, float, float]]:
        """Span name -> (spans, busy seconds, self seconds) over the pass."""
        n = len(self.name)
        child = array("d", bytes(8 * n))
        starts, ends, parents = self.start, self.end, self.parent
        for i in range(n):
            p = parents[i]
            if p >= 0:
                child[p] += ends[i] - starts[i]
        acc = [[0, 0.0, 0.0] for _ in self.names]
        for i, k in enumerate(self.name):
            d = ends[i] - starts[i]
            a = acc[k]
            a[0] += 1
            a[1] += d
            a[2] += d - child[i]
        return {name: tuple(a) for name, a in zip(self.names, acc)}

    def write(self, stem: Path) -> None:
        """``<stem>.json`` describes the arrays that ``<stem>.bin`` holds."""
        fields = ("name", "parent", "pass_id", "start", "end")
        header = {
            "names": self.names,
            "spans": len(self.name),
            "fields": [[f, getattr(self, f).typecode, getattr(self, f).itemsize]
                       for f in fields],
            "byteorder": sys.byteorder,
            "layout": "each field's array in turn, spans in the order they opened",
        }
        stem.with_suffix(".json").write_text(json.dumps(header, indent=1) + "\n")
        with open(stem.with_suffix(".bin"), "wb") as f:
            for field in fields:
                getattr(self, field).tofile(f)


def candidate_tuples(shape) -> int:
    """Generator-image tuples the oracle must consider for ``shape``.

    Slot i takes the elements killed by p^e_i, and in a product of
    Z_{p^e_j} there are p^(sum_j min(e_i, e_j)) of them.  Computed here
    from the shape, not measured in the oracle.
    """
    exps = shape.exponents
    return shape.p ** sum(min(a, b) for a in exps for b in exps)


def _patches(tracer: Tracer, pkg: dict[str, ModuleType]) -> list[tuple[object, str, Callable]]:
    """(owner, attribute, wrapper) for every boundary the package still has.

    A module or name that the package no longer has is skipped, and the
    metrics read from it stay 0, so the tracing outlives refactors.
    """
    none = ModuleType("absent")
    core, enumeration, search, oracle = (
        pkg.get(m, none) for m in ("core", "enumeration", "search", "oracle"))
    t = tracer

    def swept(args, verdict):
        t.count("search.orders_swept",
                getattr(verdict, "order", getattr(verdict, "max_order_searched", 0)))

    calls = [  # (owner, attribute, span, after(args, result))
        (enumeration, "factorize", "arith.factorize", None),
        (search, "factorize", "arith.factorize", None),
        (core, "is_prime", "arith.is_prime", None),
        (getattr(core, "PGroupShape", none), "__post_init__", "core.PGroupShape.init", None),
        (getattr(core, "GroupShape", none), "__str__", "core.GroupShape.str", None),
        (core, "aut_order_p", "core.aut_order_p", None),
        (core, "ratio", "core.ratio", None),
        (search, "screen", "search.screen",
         lambda args, reason: t.count("search.screen.hits", reason is not None)),
        (search, "denominator_prune", "search.denominator_prune",
         lambda args, pruned: t.count("search.denominator_prune.pruned", bool(pruned))),
        (search, "realize", "search.realize", swept),
        (search, "ratio_atlas", "search.ratio_atlas",
         lambda args, atlas: t.count("search.atlas.distinct_ratios", len(atlas))),
        (oracle, "count_automorphisms", "oracle.count_automorphisms",
         lambda args, _: t.count("oracle.candidate_tuples", candidate_tuples(args[0]))),
    ]
    generators = [  # (owner, attribute, span, after_item(item))
        (enumeration, "partitions", "enumeration.partitions", None),
        (enumeration, "groups_of_order", "enumeration.groups_of_order",
         lambda item: t.count("enumeration.groups_of_order.groups")),
    ]
    return ([(o, a, t.wrap(n, getattr(o, a), f)) for o, a, n, f in calls if hasattr(o, a)]
            + [(o, a, t.wrap_iter(n, getattr(o, a), f))
               for o, a, n, f in generators if hasattr(o, a)])


@contextmanager
def installed(tracer: Tracer, pkg: dict[str, ModuleType]) -> Iterator[None]:
    """Wrap the package's cross-module calls for the duration of the block."""
    patches = _patches(tracer, pkg)
    saved = [(obj, attr, getattr(obj, attr)) for obj, attr, _ in patches]
    try:
        for obj, attr, wrapper in patches:
            setattr(obj, attr, wrapper)
        yield
    finally:
        for obj, attr, original in reversed(saved):
            setattr(obj, attr, original)
