"""Static and runtime analysis for the reproduction (DESIGN.md §7).

Two halves, both serving the same contract — the simulator must stay
bit-deterministic and resource-clean while the stack grows:

* :mod:`repro.analysis.engine` — the whole-tree static analysis engine
  (``python -m repro.analysis check src/repro``).  Its determinism pass
  statically forbids nondeterminism hazards: wall-clock reads, unseeded
  randomness outside :mod:`repro.sim.rng`, iteration over unordered sets,
  ``id()``-based tie-breaks, and
  :meth:`~repro.sim.core.Simulator.schedule_pooled` handles escaping the
  kernel's free list; further passes check yield atomicity, resource
  lifecycles and the import lattice.

* :mod:`repro.analysis.sanitize` (+ :mod:`~repro.analysis.leakcheck`,
  :mod:`~repro.analysis.deadlock`) — opt-in runtime sanitizers, enabled
  with ``REPRO_SANITIZE=1``: an event-race detector for count-N Elan event
  resets, a resource-leak tracker (QSLOTS, command-queue/pending slots,
  MMU registrations, RDMA descriptor pools) reported at sim teardown, and
  a deadlock detector that dumps blocked processes with wait-chains when
  the event queue drains with live waiters.
"""

from __future__ import annotations

from repro.analysis.sanitize import Finding, Sanitizer, attach, enabled

__all__ = ["Finding", "Sanitizer", "attach", "enabled"]
