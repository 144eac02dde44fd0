"""Span tracer that wraps elsakit's public functions from outside the library.

Every public function of each layer module is replaced, under every
module attribute name that refers to it, by a wrapper that records a span
(name, start, end, parent) and, for a few functions, exact counts computed
from operand shapes. Callers inside elsakit resolve these names from their
module globals at call time, so the wrappers see every cross-module call.
``restore`` puts the original functions back.

Spans of the open request live in a Python list; when the request ends they
are folded into compact arrays that stay in memory until ``save`` writes
them out at the end of the run.
"""

from __future__ import annotations

import inspect
import sys
from collections import Counter
from dataclasses import dataclass
from time import perf_counter_ns
from typing import Callable

import numpy as np

LAYERS = ("matrix", "maskmove", "attention", "ridge", "pipeline", "netcomp", "gauss")
ROOT = "request"


class Tally:
    """Computed counts of one request, plus a memo the hooks may cache in."""

    def __init__(self):
        self.counts: Counter = Counter()
        self.memo: dict = {}


# hook(tally, args, kwargs, result) adds computed counts for one call.
Hook = Callable[[Tally, tuple, dict, object], None]


@dataclass(frozen=True)
class RequestTrace:
    """Aggregates of one traced request; all times in nanoseconds."""

    duration_ns: int
    calls: dict[str, int]  # span name -> number of calls
    total_ns: dict[str, int]  # span name -> summed duration
    self_ns: dict[str, int]  # layer -> summed self time
    inclusive_ns: dict[str, int]  # layer -> time inside the layer's outermost spans
    counts: dict[str, float]  # computed counts from the hooks

    @property
    def coverage(self) -> float:
        """Share of the request covered by layer self time."""
        return sum(self.self_ns.values()) / self.duration_ns


class Tracer:
    def __init__(self, package: str, hooks: dict[str, Hook]):
        self.names: list[str] = [ROOT]
        self._rows: list[list[int]] = []
        self._stack: list[int] = []
        self._tally = Tally()
        self._patches: list[tuple[object, str, object, object]] = []
        self._chunks: list[np.ndarray] = []
        self._installed = False

        modules = [m for n, m in sorted(sys.modules.items())
                   if m is not None and (n == package or n.startswith(package + "."))]
        for layer in LAYERS:
            mod = sys.modules[f"{package}.{layer}"]
            for fname, fn in list(vars(mod).items()):
                if (fname.startswith("_") or not inspect.isfunction(fn)
                        or fn.__module__ != mod.__name__):
                    continue
                name = f"{layer}.{fname}"
                wrapper = self._wrap(name, fn, hooks.get(name))
                for m in modules:
                    for attr, value in list(vars(m).items()):
                        if value is fn:
                            self._patches.append((m, attr, fn, wrapper))
        self._layer_of = np.array([n.split(".")[0] for n in self.names])

    def _wrap(self, name: str, fn, hook: Hook | None):
        name_id = len(self.names)
        self.names.append(name)
        rows, stack = self._rows, self._stack

        def wrapper(*args, **kwargs):
            row = [name_id, 0, 0, stack[-1]]
            stack.append(len(rows))
            rows.append(row)
            row[1] = perf_counter_ns()
            try:
                out = fn(*args, **kwargs)
            finally:
                row[2] = perf_counter_ns()
                stack.pop()
            if hook is not None:
                hook(self._tally, args, kwargs, out)
            return out

        return wrapper

    def install(self) -> None:
        for module, attr, _, wrapper in self._patches:
            setattr(module, attr, wrapper)
        self._installed = True

    def restore(self) -> None:
        for module, attr, original, _ in self._patches:
            setattr(module, attr, original)
        self._installed = False

    def begin(self) -> None:
        """Open the root span of a request; the wrappers must be installed."""
        if not self._installed:
            raise RuntimeError("begin() before install()")
        self._rows.clear()
        self._stack.clear()
        self._tally = Tally()
        self._stack.append(0)
        self._rows.append([0, perf_counter_ns(), 0, -1])

    def end(self, request_id: int) -> RequestTrace:
        """Close the root span, keep the spans and return the request's aggregates."""
        self._rows[0][2] = perf_counter_ns()
        spans = np.array(self._rows, dtype=np.int64)
        name, start, stop, parent = spans.T
        chunk = np.empty(len(spans), dtype=[("name", "i2"), ("start", "i8"), ("end", "i8"),
                                            ("parent", "i4"), ("request", "i4")])
        chunk["name"], chunk["start"], chunk["end"], chunk["parent"] = name, start, stop, parent
        chunk["request"] = request_id
        self._chunks.append(chunk)

        dur = stop - start
        child = np.bincount(parent[1:], weights=dur[1:], minlength=len(spans))
        own = dur - child
        layer = self._layer_of[name]
        # A span is a layer's outermost when its parent belongs to another layer.
        outer = np.ones(len(spans), dtype=bool)
        outer[1:] = layer[1:] != layer[parent[1:]]
        n_names = len(self.names)
        calls = np.bincount(name, minlength=n_names)
        total = np.bincount(name, weights=dur, minlength=n_names)
        self_ns: dict[str, int] = {}
        inclusive_ns: dict[str, int] = {}
        for lay in LAYERS:
            sel = layer == lay
            self_ns[lay] = int(own[sel].sum())
            inclusive_ns[lay] = int(dur[sel & outer].sum())
        return RequestTrace(
            duration_ns=int(dur[0]),
            calls={n: int(calls[i]) for i, n in enumerate(self.names) if i},
            total_ns={n: int(total[i]) for i, n in enumerate(self.names) if i},
            self_ns=self_ns,
            inclusive_ns=inclusive_ns,
            counts=dict(self._tally.counts),
        )

    def save(self, path) -> None:
        """Write every span kept so far as one structured array plus the name table."""
        spans = np.concatenate(self._chunks) if self._chunks else np.empty(0)
        np.savez(path, spans=spans, names=np.array(self.names))
