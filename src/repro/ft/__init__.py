"""ULFM-style fault tolerance for the simulated Open MPI stack.

``repro.ft`` turns an uncooperative rank death from a hang into a
bounded-time recovery: a deterministic failure detector (heartbeats over
the RTE OOB + PML evidence), peer-scoped error propagation
(:class:`RankDeadError` / :class:`CommRevokedError`), ULFM recovery
operations (``comm.revoke()`` / ``comm.agree()`` / ``comm.shrink()``),
and an automated respawn-and-rejoin driver built on the checkpoint
machinery.  See DESIGN.md §10.

Opt-in per job::

    from repro import ft
    job = RteJob(cluster)
    ft.enable(job)                    # detection + recovery ops only
    ft.RecoveryDriver(job, factory)   # ... plus automated respawn
"""

from repro.ft.detector import FT_PORT, FtConfig, FtDaemon, enable
from repro.ft.errors import CommRevokedError, FtError, RankDeadError
from repro.ft.membership import DeathRecord, MembershipView
from repro.ft.recovery import RecoveryDriver

__all__ = [
    "FT_PORT",
    "CommRevokedError",
    "DeathRecord",
    "FtConfig",
    "FtDaemon",
    "FtError",
    "MembershipView",
    "RankDeadError",
    "RecoveryDriver",
    "enable",
]
