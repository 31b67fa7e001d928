"""Runtime sanitizer core: findings, hooks, and the per-test session registry.

Design constraints (DESIGN.md §7):

* **Opt-in and invisible when off.**  Models guard every hook behind
  ``sim.sanitizer is not None`` — one attribute load on cold paths, nothing
  on the kernel hot paths.  ``REPRO_SANITIZE=1`` attaches a
  :class:`Sanitizer` to every new :class:`~repro.sim.core.Simulator`.

* **Observation only.**  A sanitizer never schedules events, never touches
  modelled time, and never mutates model state — a sanitized run is
  bit-identical to an unsanitized one (the determinism harness depends on
  this).

* **Deterministic reports.**  Findings carry the simulated time and stable
  labels, never wall-clock or memory addresses, so a failing run reports
  identically on every machine.

This module is deliberately import-light: it duck-types the simulator,
process, and NIC objects so the kernel can import it lazily without cycles.
"""

from __future__ import annotations

import os
from typing import Any, List

__all__ = [
    "Finding",
    "Sanitizer",
    "attach",
    "enabled",
    "reset_session",
    "session_report",
    "session_sanitizers",
]


def enabled() -> bool:
    """True when ``REPRO_SANITIZE`` asks for runtime sanitizers."""
    return os.environ.get("REPRO_SANITIZE", "0") not in ("", "0")


class Finding:
    """One sanitizer finding: what detector fired, where, and why."""

    __slots__ = ("detector", "kind", "time", "message")

    def __init__(self, detector: str, kind: str, time: float, message: str):
        self.detector = detector
        self.kind = kind
        self.time = time
        self.message = message

    def format(self) -> str:
        return f"[{self.detector}:{self.kind}] t={self.time:.3f}us {self.message}"

    def __repr__(self) -> str:
        return f"<Finding {self.format()}>"


class Sanitizer:
    """The runtime detectors attached to one simulator.

    Models call the ``on_*`` hooks at the few places where hazards can
    occur; :meth:`teardown` runs the leak probes (quiescence-guarded) and
    returns every finding accumulated over the simulator's life.
    """

    def __init__(self, sim: Any):
        self.sim = sim
        self.findings: List[Finding] = []
        #: every coroutine Process ever spawned (filtered live at checks)
        self.processes: List[Any] = []
        #: NICs registered for teardown leak probes
        self.nics: List[Any] = []
        #: Tracers registered for the teardown open-span probe
        self.tracers: List[Any] = []
        #: dedupe key of the last drain dump, so ``run_until_idle`` loops
        #: report one finding per distinct blocked-set, not one per run()
        self._last_drain_sig: tuple = ()
        self._torn_down = False

    # -- recording -------------------------------------------------------
    def record(self, detector: str, kind: str, message: str) -> Finding:
        finding = Finding(detector, kind, float(self.sim.now), message)
        self.findings.append(finding)
        return finding

    # -- kernel hooks ----------------------------------------------------
    def on_process(self, proc: Any) -> None:
        """A coroutine process started (``Process.__init__``)."""
        self.processes.append(proc)

    def on_drain(self) -> None:
        """The event queue drained naturally (``Simulator.run``)."""
        from repro.analysis.deadlock import check_drain

        check_drain(self)

    # -- model hooks -----------------------------------------------------
    def on_event_reset_race(self, event: Any) -> None:
        """A fire landed inside an Elan event's non-atomic count reset
        window (``ElanEvent.fire`` while ``host_reset_count`` is mid
        read-modify-write) — the Fig. 5c/5d lost-completion race."""
        self.record(
            "race",
            "count-reset",
            f"fire on Elan event {event.name!r} landed inside a host "
            f"read-modify-write reset window (count read as "
            f"{event._reset_in_flight}); the completion will be "
            f"obliterated by the reset write (lost_fires={event.lost_fires})",
        )

    def on_nic(self, nic: Any) -> None:
        """An Elan4 NIC came up; register it for teardown leak probes."""
        self.nics.append(nic)

    def on_tracer(self, tracer: Any) -> None:
        """A :class:`~repro.obs.tracer.Tracer` was created; register it so
        teardown can flag spans opened via ``span_begin`` that were never
        ``span_end``-ed or ``abandon``-ed (the open-span leak)."""
        self.tracers.append(tracer)

    # -- teardown --------------------------------------------------------
    def teardown(self) -> List[Finding]:
        """Run end-of-life probes (leak tracker) and return all findings.

        Idempotent: probes run once; later calls return the same list.
        """
        if not self._torn_down:
            self._torn_down = True
            from repro.analysis.leakcheck import check_nic

            for nic in self.nics:
                check_nic(self, nic)
            for tracer in self.tracers:
                open_spans = tracer.open_spans()
                if open_spans:
                    keys = sorted(str(k) for k in open_spans)
                    shown = ", ".join(keys[:5])
                    if len(keys) > 5:
                        shown += f", ... ({len(keys) - 5} more)"
                    self.record(
                        "leak",
                        "open-span",
                        f"{len(open_spans)} tracer span(s) never closed "
                        f"(span_end/abandon missing on abort paths): {shown}",
                    )
        return self.findings


def attach(sim: Any) -> Sanitizer:
    """Attach a fresh :class:`Sanitizer` to ``sim`` and register it with
    the session (the pytest gate collects per-test findings from here)."""
    sanitizer = Sanitizer(sim)
    sim.sanitizer = sanitizer
    _session.append(sanitizer)
    return sanitizer


#: sanitizers created since the last :func:`reset_session`
_session: List[Sanitizer] = []


def reset_session() -> None:
    _session.clear()


def session_sanitizers() -> List[Sanitizer]:
    return list(_session)


def session_report() -> List[Finding]:
    """Teardown every sanitizer of the current session; return all findings."""
    out: List[Finding] = []
    for sanitizer in _session:
        out.extend(sanitizer.teardown())
    return out
