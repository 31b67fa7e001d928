"""The recovery driver: respawn-and-rejoin orchestration.

Composes the failure detector with the RTE's checkpoint/restart path to
implement the §4.1 story end to end: a rank dies uncooperatively, its
NIC resources are reclaimed (stale VPID retired forever), and — once
reclaim completes — the driver relaunches the rank from its last
:class:`~repro.rte.checkpoint.CheckpointImage` under the same rank and a
fresh VPID, with a seeded jittered-backoff retry budget.  When no app
factory is configured (or the budget is exhausted) it degrades
gracefully to *shrink-only*: survivors keep running on the shrunken
communicator and the job records the degradation.

State machine per dead rank::

    detected -> reclaimed -> respawning -> recovered
                        \\-> degraded (shrink-only)
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable, Dict, Optional, Set

from repro.ft.detector import FtConfig, FtDaemon, enable
from repro.ft.membership import DeathRecord
from repro.rte.checkpoint import CheckpointImage, restart_rank
from repro.sim.backoff import JitteredBackoff

if TYPE_CHECKING:  # pragma: no cover
    from repro.rte.environment import RteJob

__all__ = ["RecoveryDriver"]

#: app_factory(rank, image) -> app generator for the respawned rank
AppFactory = Callable[[int, CheckpointImage], Callable[..., Any]]


class RecoveryDriver:
    """Automated respawn of dead ranks, with graceful degradation."""

    def __init__(
        self,
        job: "RteJob",
        app_factory: Optional[AppFactory] = None,
        config: Optional[FtConfig] = None,
    ):
        self.job = job
        self.ft: FtDaemon = enable(job, config)
        self.ft.driver = self
        self.sim = job.cluster.sim
        self.config = self.ft.config
        self.app_factory = app_factory
        #: latest checkpoint image per rank (apps call save_image)
        self.images: Dict[int, CheckpointImage] = {}
        #: rank -> detected | reclaimed | respawning | recovered | degraded
        self.states: Dict[int, str] = {}
        self.attempts: Dict[int, int] = {}
        self.degraded: Set[int] = set()
        self._backoffs: Dict[int, JitteredBackoff] = {}
        self._flights: Dict[int, Optional[int]] = {}

    # -- checkpoint intake ---------------------------------------------
    def save_image(self, rank: int, app_state: Any) -> CheckpointImage:
        image = CheckpointImage(rank, app_state)
        self.images[rank] = image
        return image

    # -- detector callbacks --------------------------------------------
    def on_death(self, rank: int, rec: DeathRecord) -> None:
        self.states[rank] = "detected"
        obs = self.job.cluster.observer
        if obs is not None:
            tid = obs.flight_begin("recovery", rank, rank, -1, -1, 0)
            self._flights[rank] = tid
            obs.flight_instant(tid, "pml", "ft.detected", cause=rec.cause)

    def on_reclaimed(self, rank: int) -> None:
        self.states[rank] = "reclaimed"
        obs = self.job.cluster.observer
        if obs is not None:
            obs.flight_instant(self._flights.get(rank), "pml", "ft.reclaimed")
        if self.app_factory is None:
            self._degrade(rank, "no respawn app configured")
            return
        self.states[rank] = "respawning"
        self.attempts[rank] = 0
        backoff = self._backoffs.get(rank)
        if backoff is None:
            backoff = JitteredBackoff(
                self.job.cluster.rng.stream(f"ft:recovery:{rank}"),
                self.config.respawn_backoff_us,
                cap_us=self.config.respawn_backoff_cap_us,
                jitter_frac=self.config.jitter_frac,
            )
            self._backoffs[rank] = backoff
        backoff.reset()
        self.sim.schedule(backoff.next(), self._try_respawn, rank)

    def on_recovered(self, rank: int) -> None:
        self.states[rank] = "recovered"
        obs = self.job.cluster.observer
        if obs is not None:
            obs.flight_complete(self._flights.pop(rank, None))

    # -- respawn loop --------------------------------------------------
    def _try_respawn(self, rank: int) -> None:
        if not self.ft.membership.is_dead(rank):
            return  # already back (e.g. respawned externally)
        self.attempts[rank] = self.attempts.get(rank, 0) + 1
        image = self.images.get(rank)
        if image is None:
            image = CheckpointImage(rank, {})
        assert self.app_factory is not None
        try:
            restart_rank(
                self.job,
                image,
                self.app_factory(rank, image),
                group="world",
                group_count=1,
            )
        except Exception as e:  # noqa: BLE001 - retried under budget
            self.job.cluster.tracer.count("ft.respawn_failed")
            if self.attempts[rank] >= self.config.respawn_max_attempts:
                self._degrade(rank, f"respawn budget exhausted: {e}")
            else:
                self.sim.schedule(
                    self._backoffs[rank].next(), self._try_respawn, rank
                )

    def _degrade(self, rank: int, reason: str) -> None:
        self.states[rank] = "degraded"
        self.degraded.add(rank)
        cluster = self.job.cluster
        cluster.tracer.count("ft.degraded_shrink_only")
        obs = cluster.observer
        if obs is not None:
            obs.count("ft", "degraded_shrink_only")
            obs.flight_abandon(self._flights.pop(rank, None), reason)
