"""Spans and counts recorded around calls into rootrank's public functions.

The tracer replaces a module or class attribute with a wrapper that
records ``(name, start, end)`` in memory and restores the original when
the traced phase ends.  Nothing inside the package is changed: callers
inside rootrank that look the name up at call time (``engine`` calling
``generate_parent_matrix``, ``compute_profile`` calling ``rumor_scores``)
pass through the wrapper.  Forked Pool workers inherit the wrappers; their
spans stay in the worker, so callers that need them ship them back on the
returned object.
"""

from __future__ import annotations

import time

from rootrank.rng import RngStream


class _TimedGenerator:
    """A numpy Generator whose ``random`` draws are recorded as spans."""

    __slots__ = ("_gen", "_spans", "_name")

    def __init__(self, gen, spans, name):
        self._gen = gen
        self._spans = spans
        self._name = name

    def random(self, *args, **kwargs):
        t0 = time.perf_counter()
        out = self._gen.random(*args, **kwargs)
        self._spans.append((self._name, t0, time.perf_counter()))
        return out

    def __getattr__(self, attr):
        return getattr(self._gen, attr)


class Tracer:
    """In-memory spans and counters; ``restore`` undoes every wrapper."""

    def __init__(self):
        self.spans: list[tuple[str, float, float]] = []
        self.counts: dict[str, int] = {}
        self._patches: list[tuple[object, str, object]] = []

    def mark(self) -> int:
        """Position to pass to :meth:`total` for spans recorded after now."""
        return len(self.spans)

    def total(self, name: str, since: int = 0) -> float:
        return sum(t1 - t0 for n, t0, t1 in self.spans[since:] if n == name)

    def install(self, owner, attr: str, wrapper) -> None:
        """Replace ``owner.attr`` with ``wrapper`` until :meth:`restore`."""
        original = getattr(owner, attr)
        self._patches.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def wrap(self, owner, attr: str, name: str) -> None:
        """Record a span named ``name`` around every call of ``owner.attr``."""
        original = getattr(owner, attr)
        spans = self.spans

        def timed(*args, **kwargs):
            t0 = time.perf_counter()
            try:
                return original(*args, **kwargs)
            finally:
                spans.append((name, t0, time.perf_counter()))

        self.install(owner, attr, timed)

    def count(self, owner, attr: str, name: str) -> None:
        """Count calls of ``owner.attr`` under ``name``."""
        original = getattr(owner, attr)
        counts = self.counts
        counts.setdefault(name, 0)

        def counted(*args, **kwargs):
            counts[name] += 1
            return original(*args, **kwargs)

        self.install(owner, attr, counted)

    def tap(self, owner, attr: str, sink: list) -> None:
        """Append ``(args, result)`` of every call of ``owner.attr`` to ``sink``."""
        original = getattr(owner, attr)

        def tapped(*args):
            out = original(*args)
            sink.append((args, out))
            return out

        self.install(owner, attr, tapped)

    def wrap_draws(self, name: str) -> None:
        """Record stream set-up and uniform draws of every ``RngStream``."""
        original = RngStream.generator
        spans = self.spans

        def generator(stream):
            t0 = time.perf_counter()
            gen = original(stream)
            spans.append((name, t0, time.perf_counter()))
            return _TimedGenerator(gen, spans, name)

        self.install(RngStream, "generator", generator)

    def restore(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)


def covered(intervals: list[tuple[float, float]]) -> float:
    """Length of the union of ``[start, end)`` intervals."""
    total = 0.0
    reach = float("-inf")
    for t0, t1 in sorted(intervals):
        if t1 <= reach:
            continue
        total += t1 - max(t0, reach)
        reach = t1
    return total
