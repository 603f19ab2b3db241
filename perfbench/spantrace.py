"""Outside-in span tracer for sphlie, built from the benchmark's own files.

Inside ``Tracer.item_span`` every public function defined in a
``sphlie.*`` module is replaced by a wrapper, rebound in every ``sphlie``
namespace that holds the original (so ``from .linalg import rref`` call
sites are traced too), and so are the public methods of ``LieAlgebra``
and its constructor, reported as ``liealg.LieAlgebra.build``.  The
originals are put back when the item ends, so the benchmark's own checks
are never traced.  Nothing under ``src/`` is edited.

Each call records a span (name, start, end, parent span, item id) in
memory; ``write_spans`` writes them out once the run ends.  Self time is a
span's duration minus the time its child spans cover.  A few functions
also feed counters (rows eliminated, coefficient bit size, samples run,
...); the counters are computed after the call, inside a ``trace.counters``
child span of the caller, so their cost is kept out of every stage's self
time and shows up in the trace overhead instead.
"""

from __future__ import annotations

import functools
import gzip
import inspect
import json
import sys
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter

PACKAGE = "sphlie"
ROOT_PARENT = -1
COUNTERS_SPAN = "trace.counters"


def max_bits(rows) -> int:
    """Largest bit length of a numerator or denominator in ``rows``."""
    best = 0
    for row in rows:
        for x in row:
            best = max(best, x.numerator.bit_length(),
                       x.denominator.bit_length())
    return best


def _count_rref(tracer, args, kwargs, result):
    rows = args[0] if args else kwargs.get("rows", ())
    if isinstance(rows, (list, tuple)):
        tracer.add("linalg.rref.rows_in", len(rows))
        tracer.peak("linalg.rref.max_bits", max_bits(rows))
    tracer.peak("linalg.rref.max_bits", max_bits(result[0]))


def _count_samples(name):
    def hook(tracer, args, kwargs, result):
        tracer.add(name, result.samples_run)
    return hook


def _count_passing(tracer, args, kwargs, result):
    tracer.add("spherical.candidate_subsets.passing", len(result))


def _count_attempts(tracer, args, kwargs, result):
    budget = args[1] if len(args) > 1 else kwargs["budget"]
    tracer.add("spherical.conjugate_search.attempts",
               budget if result is None else result.attempts)


COUNTER_HOOKS = {
    "linalg.rref": _count_rref,
    "orbits.orbit_identity_check":
        _count_samples("orbits.orbit_identity_check.samples"),
    "spherical.compact_transitivity_check":
        _count_samples("spherical.compact_transitivity_check.samples"),
    "spherical.candidate_subsets": _count_passing,
    "spherical.conjugate_search": _count_attempts,
}


class Tracer:
    """Spans and counters of one traced run; not thread-safe (the
    benchmark's workload processes are single-threaded)."""

    def __init__(self):
        self.names: list[str] = []
        # (name index, start, end, parent span index, item id, outermost
        # span of its name)
        self.spans: list = []
        self.counters: dict = defaultdict(int)
        self.item = -1
        self._stack = [ROOT_PARENT]
        self._bound = None
        self._counters_name = self._name_index(COUNTERS_SPAN)

    def _name_index(self, name: str) -> int:
        self.names.append(name)
        return len(self.names) - 1

    # -- counters --------------------------------------------------------------

    def add(self, name: str, amount: int) -> None:
        self.counters[name] += amount

    def peak(self, name: str, value: int) -> None:
        self.counters[name] = max(self.counters[name], value)

    # -- spans -------------------------------------------------------------------

    def _wrap(self, name: str, fn):
        idx = self._name_index(name)
        hook = COUNTER_HOOKS.get(name)
        spans, stack = self.spans, self._stack
        active = [0]   # open spans of this name, to spot recursion

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            slot = len(spans)
            spans.append(None)
            parent = stack[-1]
            stack.append(slot)
            outer = active[0] == 0
            active[0] += 1
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                active[0] -= 1
                stack.pop()
                spans[slot] = (idx, start, end, parent, self.item, outer)
            if hook is not None:
                hook(self, args, kwargs, result)
                spans.append((self._counters_name, end, perf_counter(),
                              parent, self.item, True))
            return result

        return traced

    @contextmanager
    def item_span(self, label: str, item_id: int):
        """Trace one timed item: the wrappers are installed only inside it,
        under a root span whose id every span below it carries."""
        idx = self._name_index(f"item.{label}")
        slot = len(self.spans)
        self.spans.append(None)
        self.item = item_id
        self._stack.append(slot)
        self.install()
        start = perf_counter()
        try:
            yield
        finally:
            end = perf_counter()
            self.remove()
            self._stack.pop()
            self.spans[slot] = (idx, start, end, ROOT_PARENT, item_id, True)
            self.item = -1

    # -- installing the wrappers ------------------------------------------------

    @staticmethod
    def _modules():
        return [m for name, m in sorted(sys.modules.items())
                if m is not None
                and (name == PACKAGE or name.startswith(PACKAGE + "."))]

    def _bindings(self) -> list:
        """(owner, attribute, original, wrapper) for every traced name."""
        modules = self._modules()
        wrapped = {}
        for mod in modules:
            short = mod.__name__.rpartition(".")[2]
            for attr, value in sorted(vars(mod).items()):
                if (inspect.isfunction(value) and not attr.startswith("_")
                        and value.__module__ == mod.__name__):
                    wrapped[value] = self._wrap(f"{short}.{attr}", value)
        out = [(mod, attr, value, wrapped[value])
               for mod in modules for attr, value in sorted(vars(mod).items())
               if inspect.isfunction(value) and value in wrapped]
        cls = sys.modules[PACKAGE + ".liealg"].LieAlgebra
        for attr, value in sorted(vars(cls).items()):
            if inspect.isfunction(value) and (attr == "__init__"
                                              or not attr.startswith("_")):
                method = "build" if attr == "__init__" else attr
                out.append((cls, attr, value,
                            self._wrap(f"liealg.LieAlgebra.{method}", value)))
        return out

    def install(self) -> None:
        """Rebind every traced name to its wrapper; the wrappers are made
        once, so installing again after ``remove`` reuses them."""
        if self._bound is None:
            self._bound = self._bindings()
        for owner, attr, _, wrapper in self._bound:
            setattr(owner, attr, wrapper)

    def remove(self) -> None:
        for owner, attr, original, _ in self._bound or ():
            setattr(owner, attr, original)

    # -- results -------------------------------------------------------------------

    def self_times(self) -> list:
        """Self time of every span, indexed like ``self.spans``."""
        covered = [0.0] * len(self.spans)
        for _, start, end, parent, _, _ in self.spans:
            if parent != ROOT_PARENT:
                covered[parent] += end - start
        return [span[2] - span[1] - covered[i]
                for i, span in enumerate(self.spans)]

    def summary(self) -> dict:
        """Per traced name: calls, inclusive seconds (outermost spans of
        that name only, so recursion is not counted twice) and self
        seconds."""
        self_s = self.self_times()
        out: dict = {}
        for i, (idx, start, end, _, _, outer) in enumerate(self.spans):
            row = out.setdefault(self.names[idx],
                                 {"calls": 0, "incl_s": 0.0, "self_s": 0.0})
            row["calls"] += 1
            row["self_s"] += self_s[i]
            if outer:
                row["incl_s"] += end - start
        return out

    def item_self_check(self, slack: float = 1e-9) -> list:
        """Items whose stage spans' self times sum to more than the item's
        own wall time; each entry is (item id, self sum, wall)."""
        self_s = self.self_times()
        stage_sum: dict = defaultdict(float)
        wall: dict = {}
        for i, (_, start, end, parent, item, _) in enumerate(self.spans):
            if parent == ROOT_PARENT:
                wall[item] = end - start
            else:
                stage_sum[item] += self_s[i]
        return [(item, stage_sum[item], wall[item]) for item in wall
                if stage_sum[item] > wall[item] + slack]

    def write_spans(self, path) -> None:
        """Gzipped, one JSON array per line: name, start, end, parent,
        item."""
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            for idx, start, end, parent, item, _ in self.spans:
                fh.write(json.dumps([self.names[idx], start, end, parent,
                                     item]) + "\n")
