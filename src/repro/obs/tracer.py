"""The always-on tier of observability: flat counters, samples, spans.

Every :class:`~repro.cluster.Cluster` owns one :class:`Tracer`
(``cluster.tracer``), observed or not.  The stack feeds it counters
(``pml.*``, ``ptl.*``, ``fabric.*``, ``fault.*``, ``ft.*``), samples (the
FT detection latency and MTTR the ledger reads) and one timing span per
collective call, which the sanitizer checks for leaks.

Under observation the tracer forwards every count, sample and closed
span into the observer's metrics — key ``"<scope>.<name>"`` is metric
``<name>`` of scope ``<scope>`` — and :meth:`Tracer.event` also puts the
event's timeline mark, so a site reports an event with one call.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from typing import Any

from repro.annotations import acquires, releases
from repro.obs.observer import Observer

__all__ = ["Tracer"]


class Tracer:
    """Counters, samples and timing spans, forwarded to an observer."""

    def __init__(self, sim: Any, observer: Observer | None = None) -> None:
        self.sim = sim
        self.obs = observer
        self.counters: Counter[str] = Counter()
        self.samples: defaultdict[str, list[float]] = defaultdict(list)
        self._open_spans: dict[Any, tuple[str, float]] = {}
        if sim.sanitizer is not None:
            sim.sanitizer.on_tracer(self)

    def count(self, key: str, n: int = 1) -> None:
        self.counters[key] += n
        if self.obs is not None:
            scope, _, name = key.partition(".")
            self.obs.metrics.count(scope, name, n)

    def sample(self, key: str, value: float) -> None:
        self.samples[key].append(value)
        if self.obs is not None:
            scope, _, name = key.partition(".")
            self.obs.metrics.sample(scope, name, value)

    def event(
        self, key: str, layer: str = "faults", node: int | None = None, **fields: Any
    ) -> None:
        """Count ``key`` and, when observed, mark it as ``layer``/<name>."""
        self.count(key)
        if self.obs is not None:
            self.obs.instant(layer, key.partition(".")[2], node, **fields)

    # -- timing spans ------------------------------------------------------
    @acquires("tracer-span")
    def span_begin(self, key: Any, category: str) -> None:
        """Open a timing span keyed by an arbitrary token."""
        self._open_spans[key] = (category, self.sim.now)

    @releases("tracer-span")
    def span_end(self, key: Any) -> float | None:
        """Close a span and sample its duration; None if it was not open."""
        entry = self._open_spans.pop(key, None)
        if entry is None:
            return None
        category, start = entry
        duration: float = self.sim.now - start
        self.sample(category, duration)
        return duration

    @releases("tracer-span")
    def abandon(self, key: Any) -> bool:
        """Discard an open span without sampling it — the close path for
        aborted operations, so ``_open_spans`` can't leak.  Returns
        whether the key was open; abandons are counted per category, in
        the tracer only."""
        entry = self._open_spans.pop(key, None)
        if entry is None:
            return False
        self.counters[f"span_abandoned:{entry[0]}"] += 1
        return True

    def open_spans(self) -> dict[Any, tuple[str, float]]:
        """Spans begun but neither ended nor abandoned — at end of run
        these are leaks; the sanitizer teardown probe checks this."""
        return dict(self._open_spans)
