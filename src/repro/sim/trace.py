"""Lightweight tracing and statistics.

Every :class:`~repro.cluster.Cluster` owns one :class:`Tracer`; when
disabled the hooks cost one attribute check.  The stack feeds it counters
(``pml.*``, ``ptl.*``, ``fabric.*``, ``fault.*``, ``ft.*``), samples (the
FT detection latency and MTTR the recovery bench reads) and timing spans
(one per collective call, which the sanitizer checks for leaks).  Nothing
in the stack calls :meth:`Tracer.record`; trace records exist for tests
and ad-hoc scripts that record their own.

``keep_records`` accepts three shapes: ``True`` keeps every record
(tests), ``False`` keeps none (counters/samples only — cluster default),
and an integer ``N`` keeps a ring of the most recent N records so long
fault-campaign runs don't grow memory without bound.  Ring truncation is
counted in ``records_dropped`` — consumers (e.g. the obs exporters)
surface it instead of silently reporting a partial record set as
complete.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple, Union

from repro.annotations import acquires, releases

__all__ = ["Tracer", "TraceRecord"]


@dataclass(frozen=True)
class TraceRecord:
    """One trace entry: time, category, and free-form fields."""

    time: float
    category: str
    fields: Tuple[Tuple[str, Any], ...]

    def get(self, key: str, default: Any = None) -> Any:
        for k, v in self.fields:
            if k == key:
                return v
        return default

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        inner = ", ".join(f"{k}={v!r}" for k, v in self.fields)
        return f"[{self.time:10.3f}] {self.category}({inner})"


class Tracer:
    """Collects trace records, counters, and named timing samples."""

    def __init__(
        self, sim, enabled: bool = True, keep_records: Union[bool, int] = True
    ):
        self.sim = sim
        self.enabled = enabled
        if keep_records is not True and keep_records is not False:
            if keep_records < 1:
                raise ValueError(f"keep_records cap must be >= 1: {keep_records}")
        self.keep_records = keep_records
        self.records: List[TraceRecord] = []
        self.records_dropped = 0
        self.counters: Counter = Counter()
        self.samples: Dict[str, List[float]] = defaultdict(list)
        self._open_spans: Dict[Any, Tuple[str, float]] = {}
        #: category -> records of that category, maintained alongside
        #: ``records`` so :meth:`of_category` is O(matches), not O(all)
        self._by_category: Dict[str, List[TraceRecord]] = {}
        if sim.sanitizer is not None:
            sim.sanitizer.on_tracer(self)

    @property
    def _cap(self) -> Optional[int]:
        kr = self.keep_records
        return None if kr is True or kr is False else int(kr)

    # -- events ----------------------------------------------------------
    def record(self, category: str, **fields: Any) -> None:
        if not self.enabled:
            return
        self.counters[category] += 1
        if self.keep_records is False:
            return
        rec = TraceRecord(self.sim.now, category, tuple(sorted(fields.items())))
        self.records.append(rec)
        self._by_category.setdefault(category, []).append(rec)
        cap = self._cap
        if cap is not None and len(self.records) > 2 * cap:
            self._trim(cap)

    def _trim(self, cap: int) -> None:
        """Amortised ring eviction: drop the oldest records beyond ``cap``
        and rebuild the category index from the survivors."""
        drop = len(self.records) - cap
        del self.records[:drop]
        self.records_dropped += drop
        self._by_category = {}
        for rec in self.records:
            self._by_category.setdefault(rec.category, []).append(rec)

    def count(self, category: str, n: int = 1) -> None:
        if self.enabled:
            self.counters[category] += n

    # -- timing spans ------------------------------------------------------
    @acquires("tracer-span")
    def span_begin(self, key: Any, category: str) -> None:
        """Open a timing span keyed by an arbitrary token."""
        if self.enabled:
            self._open_spans[key] = (category, self.sim.now)

    @releases("tracer-span")
    def span_end(self, key: Any) -> Optional[float]:
        """Close a span; records its duration as a sample. Returns duration."""
        if not self.enabled:
            return None
        entry = self._open_spans.pop(key, None)
        if entry is None:
            return None
        category, start = entry
        duration = self.sim.now - start
        self.samples[category].append(duration)
        return duration

    @releases("tracer-span")
    def abandon(self, key: Any) -> bool:
        """Discard an open span without sampling it — the close path for
        aborted operations, so ``_open_spans`` can't leak.  Returns
        whether the key was open; abandons are counted per category."""
        entry = self._open_spans.pop(key, None)
        if entry is None:
            return False
        self.counters[f"span_abandoned:{entry[0]}"] += 1
        return True

    def open_spans(self) -> Dict[Any, Tuple[str, float]]:
        """Spans begun but neither ended nor abandoned — at end of run
        these are leaks; the sanitizer teardown probe checks this."""
        return dict(self._open_spans)

    def sample(self, category: str, value: float) -> None:
        if self.enabled:
            self.samples[category].append(value)

    # -- queries -----------------------------------------------------------
    def of_category(self, category: str) -> List[TraceRecord]:
        return list(self._by_category.get(category, ()))

    def mean(self, category: str) -> float:
        vals = self.samples.get(category, [])
        if not vals:
            raise KeyError(f"no samples for {category!r}")
        return sum(vals) / len(vals)

    def total(self, category: str) -> float:
        return sum(self.samples.get(category, []))

    def clear(self) -> None:
        self.records.clear()
        self.records_dropped = 0
        self.counters.clear()
        self.samples.clear()
        self._open_spans.clear()
        self._by_category.clear()
