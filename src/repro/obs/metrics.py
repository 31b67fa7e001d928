"""Metrics registry: counters, gauges, and fixed-bucket histograms.

The registry is the one place benches, fault campaigns, and the exporters
read operational numbers from, replacing the ad-hoc per-object counters
each consumer used to re-plumb by hand.  Three metric kinds:

* :class:`Counter` — monotonically increasing event count;
* :class:`Gauge` — last-written value (queue depths, pending ops);
* :class:`Histogram` — sim-time samples bucketed at **fixed, explicit
  boundaries** so two runs of the same workload produce bit-identical
  snapshots (no adaptive binning, no wall-clock anywhere).

Metrics live in named scopes, one per subsystem (``pml`` / ``ptl`` /
``nic`` / ``switch`` / ``hw``, plus the scopes of the keys the cluster
tracer forwards: ``fabric`` / ``fault`` / ``ft`` / ``coll``), and the
snapshot/diff API turns any two points in a run into an attributable
delta.
"""

from __future__ import annotations

from typing import Any

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricScope",
    "MetricsRegistry",
    "DEFAULT_LATENCY_BUCKETS_US",
    "diff_snapshots",
]

#: deterministic sim-microsecond boundaries for latency-style histograms
DEFAULT_LATENCY_BUCKETS_US: tuple[float, ...] = (
    0.25, 0.5, 1.0, 2.0, 5.0, 10.0, 20.0, 50.0,
    100.0, 250.0, 500.0, 1000.0, 2500.0, 10000.0,
)

#: the subsystem scopes instrumentation hooks write into
STANDARD_SCOPES: tuple[str, ...] = (
    "pml",
    "ptl",
    "nic",
    "switch",
    "ib",
    "hw",
    "sched",
)


class Counter:
    """A monotonically increasing count of events."""

    __slots__ = ("name", "value")

    def __init__(self, name: str):
        self.name = name
        self.value = 0

    def inc(self, n: int = 1) -> None:
        self.value += n

    def as_dict(self) -> dict[str, Any]:
        return {"type": "counter", "value": self.value}


class Gauge:
    """A point-in-time value; ``set`` overwrites, ``add`` adjusts."""

    __slots__ = ("name", "value")

    def __init__(self, name: str):
        self.name = name
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = float(value)

    def add(self, delta: float) -> None:
        self.value += float(delta)

    def as_dict(self) -> dict[str, Any]:
        return {"type": "gauge", "value": self.value}


class Histogram:
    """Sim-time samples over fixed bucket boundaries.

    ``bounds`` are upper edges; a sample lands in the first bucket whose
    bound is >= the value, or in the overflow bucket past the last bound.
    Boundaries are frozen at construction — determinism requires that two
    identical runs bucket identically.
    """

    __slots__ = ("name", "bounds", "counts", "count", "total")

    def __init__(self, name: str, bounds: tuple[float, ...] = DEFAULT_LATENCY_BUCKETS_US):
        if list(bounds) != sorted(bounds):
            raise ValueError(f"histogram bounds must be sorted: {bounds!r}")
        self.name = name
        self.bounds = tuple(float(b) for b in bounds)
        self.counts = [0] * (len(self.bounds) + 1)
        self.count = 0
        self.total = 0.0

    def observe(self, value: float) -> None:
        value = float(value)
        self.count += 1
        self.total += value
        for i, bound in enumerate(self.bounds):
            if value <= bound:
                self.counts[i] += 1
                return
        self.counts[-1] += 1

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def quantile(self, q: float) -> float:
        """Bucket-resolution quantile (upper bound of the bucket holding
        the q-th sample); +inf bucket reports the last finite bound."""
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile {q} outside [0, 1]")
        if self.count == 0:
            return 0.0
        target = q * self.count
        seen = 0
        for i, n in enumerate(self.counts):
            seen += n
            if seen >= target and n:
                return self.bounds[i] if i < len(self.bounds) else self.bounds[-1]
        return self.bounds[-1]

    def as_dict(self) -> dict[str, Any]:
        return {
            "type": "histogram",
            "bounds": list(self.bounds),
            "counts": list(self.counts),
            "count": self.count,
            "total": self.total,
            "mean": self.mean,
        }


class MetricScope:
    """One subsystem's metrics, keyed by name within the scope."""

    def __init__(self, name: str):
        self.name = name
        self._counters: dict[str, Counter] = {}
        self._gauges: dict[str, Gauge] = {}
        self._histograms: dict[str, Histogram] = {}

    def counter(self, name: str) -> Counter:
        c = self._counters.get(name)
        if c is None:
            c = self._counters[name] = Counter(name)
        return c

    def gauge(self, name: str) -> Gauge:
        g = self._gauges.get(name)
        if g is None:
            g = self._gauges[name] = Gauge(name)
        return g

    def histogram(
        self, name: str, bounds: tuple[float, ...] = DEFAULT_LATENCY_BUCKETS_US
    ) -> Histogram:
        h = self._histograms.get(name)
        if h is None:
            h = self._histograms[name] = Histogram(name, bounds)
        return h

    def as_dict(self) -> dict[str, Any]:
        out: dict[str, Any] = {}
        for name in sorted(self._counters):
            out[name] = self._counters[name].as_dict()
        for name in sorted(self._gauges):
            out[name] = self._gauges[name].as_dict()
        for name in sorted(self._histograms):
            out[name] = self._histograms[name].as_dict()
        return out


class MetricsRegistry:
    """All scopes of one observed run."""

    def __init__(self) -> None:
        self._scopes: dict[str, MetricScope] = {}
        for name in STANDARD_SCOPES:
            self._scopes[name] = MetricScope(name)

    def scope(self, name: str) -> MetricScope:
        s = self._scopes.get(name)
        if s is None:
            s = self._scopes[name] = MetricScope(name)
        return s

    # -- hook-site shortcuts ------------------------------------------------
    def count(self, scope: str, name: str, n: int = 1) -> None:
        self.scope(scope).counter(name).inc(n)

    def gauge_set(self, scope: str, name: str, value: float) -> None:
        self.scope(scope).gauge(name).set(value)

    def sample(
        self,
        scope: str,
        name: str,
        value: float,
        bounds: tuple[float, ...] = DEFAULT_LATENCY_BUCKETS_US,
    ) -> None:
        self.scope(scope).histogram(name, bounds).observe(value)

    # -- snapshot / diff ----------------------------------------------------
    def snapshot(self, at_us: float = 0.0) -> dict[str, Any]:
        """A plain-dict, JSON-able copy of every metric, keyed scope.name."""
        scopes: dict[str, Any] = {}
        for name in sorted(self._scopes):
            d = self._scopes[name].as_dict()
            if d:
                scopes[name] = d
        return {"at_us": float(at_us), "scopes": scopes}


def diff_snapshots(new: dict[str, Any], old: dict[str, Any]) -> dict[str, Any]:
    """Delta between two :meth:`MetricsRegistry.snapshot` results.

    Counters and histogram counts/totals subtract; gauges report the new
    value (a gauge has no meaningful delta).  Metrics absent from ``old``
    diff against zero.
    """
    out_scopes: dict[str, Any] = {}
    old_scopes = old.get("scopes", {})
    for scope_name, scope in new.get("scopes", {}).items():
        old_scope = old_scopes.get(scope_name, {})
        entries: dict[str, Any] = {}
        for metric_name, metric in scope.items():
            prev = old_scope.get(metric_name)
            kind = metric.get("type")
            if kind == "counter":
                base = prev.get("value", 0) if prev else 0
                entries[metric_name] = {"type": "counter", "value": metric["value"] - base}
            elif kind == "gauge":
                entries[metric_name] = dict(metric)
            elif kind == "histogram":
                prev_counts = prev.get("counts") if prev else None
                counts = list(metric["counts"])
                if prev_counts and len(prev_counts) == len(counts):
                    counts = [a - b for a, b in zip(counts, prev_counts)]
                count = metric["count"] - (prev.get("count", 0) if prev else 0)
                total = metric["total"] - (prev.get("total", 0.0) if prev else 0.0)
                entries[metric_name] = {
                    "type": "histogram",
                    "bounds": list(metric["bounds"]),
                    "counts": counts,
                    "count": count,
                    "total": total,
                    "mean": total / count if count else 0.0,
                }
        if entries:
            out_scopes[scope_name] = entries
    return {
        "at_us": new.get("at_us", 0.0),
        "since_us": old.get("at_us", 0.0),
        "scopes": out_scopes,
    }
