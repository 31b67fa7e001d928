"""Observability subsystem: tracer, flight recorder, metrics, exporters.

Every cluster owns an always-on :class:`~repro.obs.tracer.Tracer`; the
rest is opt-in, two ways, both observation-only (modelled time is
bit-identical either way, and identical to a run with obs off):

* **Environment**: ``REPRO_OBS=1`` makes every newly built cluster
  create an :class:`~repro.obs.observer.Observer`; the examples and CI
  use this.  ``REPRO_OBS_KEEP=N`` optionally caps retained flight
  records (ring buffer) for long runs.
* **Programmatic**: the :func:`capture` context manager forces
  observation for clusters built inside it and hands back the created
  observers — what the benches use to emit artifacts without touching
  the environment.

Model objects hold ``obs = None`` when disabled; every hook site is a
single attribute check, the same cost profile as the sanitizer hooks the
performance ledger (``benchmarks/perf``) already measures.
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from typing import Any, Iterator

from repro.obs.flight import LAYERS, FlightRecord, FlightRecorder
from repro.obs.metrics import (
    DEFAULT_LATENCY_BUCKETS_US,
    MetricsRegistry,
    diff_snapshots,
)
from repro.obs.observer import Observer

__all__ = [
    "Observer",
    "FlightRecord",
    "FlightRecorder",
    "MetricsRegistry",
    "diff_snapshots",
    "DEFAULT_LATENCY_BUCKETS_US",
    "LAYERS",
    "obs_enabled",
    "maybe_observer",
    "capture",
    "CaptureSession",
]


def obs_enabled() -> bool:
    """True when ``REPRO_OBS`` requests observation (unset/"0" = off)."""
    return os.environ.get("REPRO_OBS", "") not in ("", "0")


def _env_keep_flights() -> int | None:
    raw = os.environ.get("REPRO_OBS_KEEP", "")
    if not raw:
        return None
    return max(1, int(raw))


class CaptureSession:
    """Collects the observers created while a :func:`capture` is active."""

    def __init__(self, keep_flights: int | None = None):
        self.keep_flights = keep_flights
        self.observers: list[Observer] = []

    @property
    def observer(self) -> Observer:
        """The sole observer of a single-cluster capture."""
        if len(self.observers) != 1:
            raise ValueError(
                f"capture saw {len(self.observers)} observers; use .observers"
            )
        return self.observers[0]


_active_captures: list[CaptureSession] = []


@contextmanager
def capture(keep_flights: int | None = None) -> Iterator[CaptureSession]:
    """Force observation for clusters built inside the ``with`` block."""
    session = CaptureSession(keep_flights=keep_flights)
    _active_captures.append(session)
    try:
        yield session
    finally:
        _active_captures.remove(session)


def maybe_observer(sim: Any, keep_flights: int | None = None) -> Observer | None:
    """The factory cluster assembly calls: an Observer when observation is
    requested (innermost active :func:`capture`, else ``REPRO_OBS``),
    otherwise ``None`` so hook sites stay a single attribute check."""
    if _active_captures:
        session = _active_captures[-1]
        ob = Observer(
            sim,
            keep_flights=(
                keep_flights if keep_flights is not None else session.keep_flights
            ),
        )
        session.observers.append(ob)
        return ob
    if obs_enabled():
        if keep_flights is None:
            keep_flights = _env_keep_flights()
        return Observer(sim, keep_flights=keep_flights)
    return None
