"""Spans and counters around rps's layer boundaries, installed from outside.

The tracer replaces module attributes of rps with wrappers for the length of
a traced pass and puts the originals back afterwards.  A span records
[name, start_ns, end_ns, parent span index or -1, request id] on the process
CPU clock; a counter only counts calls.  Neither consumes randomness, so a
traced pass draws the same sample as an untraced one.
"""

from __future__ import annotations

import contextlib
import importlib
import json
import time
from collections import Counter
from typing import Callable, Iterator

# (module, attribute, kind): spans time the engine's per-batch stages as the
# engine calls them; counters only count calls that are too frequent for a
# span each
TARGETS = (
    ("engine", "batch_weight", "span"),
    ("engine", "sample_from_batch", "span"),
    ("engine", "sample_distinct_indices", "span"),
    ("betainc", "realisations_from_uniform", "span"),
    ("engine", "matches", "count"),
    ("betainc", "binomial_survival", "count"),
    ("betainc", "reg_inc_beta", "count"),
    ("model", "is_subset", "count"),
)

# spans that also tally the length of what they return
SIZED = frozenset({"engine.sample_from_batch"})


class TraceError(RuntimeError):
    """A traced name is missing, or a layer that must work saw no calls."""


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.calls: Counter[str] = Counter()
        self.sizes: Counter[str] = Counter()
        self.request: str | None = None
        self._stack: list[int] = []

    def span(self, name: str, fn: Callable) -> Callable:
        """fn wrapped in a span; names in SIZED also tally len(result)."""
        sized = name in SIZED
        spans, stack, calls, sizes = self.spans, self._stack, self.calls, self.sizes
        clock = time.process_time_ns

        def traced(*args, **kwargs):
            idx = len(spans)
            calls[name] += 1
            spans.append([name, clock(), 0, stack[-1] if stack else -1, self.request])
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[idx][2] = clock()
            if sized:
                sizes[name] += len(result)
            return result

        return traced

    def counted(self, name: str, fn: Callable) -> Callable:
        calls = self.calls

        def counting(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return counting

    @contextlib.contextmanager
    def installed(self) -> Iterator["Tracer"]:
        """Wrap every target in rps for the duration of the block."""
        saved = []
        try:
            for module_name, attr, kind in TARGETS:
                module = _module(module_name)
                original = getattr(module, attr, None)
                if original is None:
                    raise TraceError(f"cannot trace rps.{module_name}.{attr}: no such name")
                wrap = self.span if kind == "span" else self.counted
                setattr(module, attr, wrap(f"{module_name}.{attr}", original))
                saved.append((module, attr, original))
            yield self
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)

    def require_calls(self, names: tuple[str, ...], workload: str) -> None:
        idle = [n for n in names if not self.calls[n]]
        if idle:
            raise TraceError(f"{workload}: traced layer(s) saw no calls: {', '.join(idle)}")

    def totals_ns(self) -> tuple[Counter[str], int]:
        """(summed duration per span name, summed self time of process_batch).

        Self time is a span's duration minus the durations of its children.
        """
        total: Counter[str] = Counter()
        child: Counter[int] = Counter()
        for name, start, end, parent, _ in self.spans:
            total[name] += end - start
            if parent >= 0:
                child[parent] += end - start
        engine_self = sum(
            (end - start) - child[idx]
            for idx, (name, start, end, _, _) in enumerate(self.spans)
            if name == "engine.process_batch"
        )
        return total, engine_self

    def write_spans(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def _module(name: str):
    try:
        return importlib.import_module(f"rps.{name}")
    except ImportError as exc:
        raise TraceError(f"cannot trace rps.{name}: {exc}") from None
