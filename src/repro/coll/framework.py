"""The collective framework entry points `Communicator` routes through.

For each call: select an algorithm (override → decision table), gate
hardware algorithms through the per-communicator symmetric decision (see
:mod:`repro.coll.hw` — degraded calls run the algorithm's registered
software fallback), then run it inside a trace span with ``coll``-scope
metrics.

Per-communicator call indices (``comm._coll_seq``) order the hw/software
agreement and disambiguate hardware broadcast rounds; they stay aligned
across ranks because MPI mandates collectives be invoked in the same
order on every member.
"""

from __future__ import annotations

from typing import Any, Dict, Generator, Optional, Tuple

import numpy as np

# importing the algorithm modules populates the registry
from repro.coll import algorithms as _algorithms  # noqa: F401
from repro.coll import hw as _hw  # noqa: F401
from repro.coll.decision import active_table, override_for
from repro.coll.registry import Algorithm, CollError, get as registry_get

__all__ = [
    "barrier",
    "bcast",
    "allreduce",
    "alltoall",
    "reduce_scatter",
    "run_named",
]


def _cluster_of(comm: Any) -> Any:
    return comm.stack.process.job.cluster


def _next_seq(comm: Any) -> int:
    seq = comm._coll_seq
    comm._coll_seq = seq + 1
    return int(seq)


def _gate_hw(comm: Any, alg: Algorithm, seq: int) -> Algorithm:
    """Resolve a hw algorithm to itself or its software fallback, using
    the shared per-call decision so every rank agrees."""
    if not alg.hw:
        return alg
    registry = _cluster_of(comm).coll_hw
    if registry.shared_for(comm).decide(seq, alg.op):
        return alg
    registry.hw_fallbacks += 1
    obs = _cluster_of(comm).observer
    if obs is not None:
        obs.count("coll", f"{alg.op}.hw_fallback")
    assert alg.fallback is not None  # enforced at registration
    return registry_get(alg.op, alg.fallback)


def _backend_of(comm: Any) -> Optional[str]:
    """The interconnect axis for table lookups: ``"elan4"``, ``"ib"``, or
    ``"mixed"`` when the job stripes across both.  Derived from the PTL
    modules the job launched with, healthy or not: a failover is local to
    the processes it hit (a one-node port death fails over that node
    only), so an axis that followed health would split one collective's
    algorithm choice across ranks and deadlock it."""
    names = set()
    for module in comm.stack.pml.modules:
        names.add("elan4" if module.name.startswith("elan4") else module.name)
    if "elan4" in names and "ib" in names:
        return "mixed"
    if len(names) == 1:
        return next(iter(names))
    return None


def _select(comm: Any, op: str, nbytes: Optional[int]) -> Tuple[Algorithm, int]:
    seq = _next_seq(comm)
    config = comm.stack.config
    name = override_for(op, config)
    if name is None:
        name = active_table(config).lookup(
            op, comm.size, nbytes, backend=_backend_of(comm)
        )
    alg = registry_get(op, name)
    return _gate_hw(comm, alg, seq), seq


def _run(
    comm: Any, op: str, alg: Algorithm, seq: int, kwargs: Dict[str, Any]
) -> Generator[Any, Any, Any]:
    tracer = _cluster_of(comm).tracer
    key = ("coll", comm.ctx_id, comm.rank, seq)
    tracer.span_begin(key, f"coll.{op}.{alg.name}")
    try:
        result = yield from alg.fn(comm, **kwargs)
    except BaseException:
        tracer.abandon(key)
        raise
    tracer.span_end(key)
    return result


# -- public entry points -----------------------------------------------------
def barrier(comm: Any) -> Generator[Any, Any, None]:
    alg, seq = _select(comm, "barrier", None)
    yield from _run(comm, "barrier", alg, seq, {})
    return None


def bcast(
    comm: Any,
    data: Any,
    root: int = 0,
    max_bytes: int = 1 << 22,
    nbytes: Optional[int] = None,
) -> Generator[Any, Any, bytes]:
    """``nbytes`` is a selection hint (the MPI count every rank passes);
    when omitted, the size-independent table default applies.  Every
    registered bcast algorithm self-describes its payload on the wire, so
    correctness never depends on the hint."""
    alg, seq = _select(comm, "bcast", nbytes)
    result = yield from _run(
        comm,
        "bcast",
        alg,
        seq,
        {"data": data, "root": root, "max_bytes": max_bytes, "nbytes": nbytes,
         "seq": seq},
    )
    return result  # type: ignore[no-any-return]


def allreduce(
    comm: Any, array: np.ndarray, op: str = "sum"
) -> Generator[Any, Any, np.ndarray]:
    arr = np.asarray(array)
    alg, seq = _select(comm, "allreduce", int(arr.nbytes))
    result = yield from _run(comm, "allreduce", alg, seq, {"array": array, "op": op})
    return result  # type: ignore[no-any-return]


def alltoall(
    comm: Any, chunks: Any, max_bytes: int = 1 << 22, nbytes: Optional[int] = None
) -> Generator[Any, Any, Any]:
    """``nbytes`` is a selection hint every rank passes alike (the block
    size); when omitted, the size-independent table default applies.  Keying
    on local chunk sizes would split the choice across ranks and deadlock."""
    if chunks is None or len(chunks) != comm.size:
        from repro.mpi.communicator import MpiError

        raise MpiError("alltoall needs one chunk per rank")
    alg, seq = _select(comm, "alltoall", nbytes)
    result = yield from _run(
        comm, "alltoall", alg, seq, {"chunks": chunks, "max_bytes": max_bytes}
    )
    return result


def reduce_scatter(
    comm: Any, array: np.ndarray, op: str = "sum"
) -> Generator[Any, Any, np.ndarray]:
    arr = np.asarray(array)
    alg, seq = _select(comm, "reduce_scatter", int(arr.nbytes))
    result = yield from _run(
        comm, "reduce_scatter", alg, seq, {"array": array, "op": op}
    )
    return result  # type: ignore[no-any-return]


def run_named(
    comm: Any, op: str, name: str, /, **kwargs: Any
) -> Generator[Any, Any, Any]:
    """Run one specific algorithm by name (tuner / equivalence tests).
    The leading parameters are positional-only so ``kwargs`` can carry an
    algorithm's own ``op=`` (the reduce operation) without colliding.

    Hardware algorithms still go through the shared per-call gate so their
    group state is built; if the gate rejects them, this raises instead of
    silently substituting — callers forcing an algorithm want that one.
    """
    seq = _next_seq(comm)
    alg = registry_get(op, name)
    if alg.hw:
        if not _cluster_of(comm).coll_hw.shared_for(comm).decide(seq, op):
            raise CollError(
                f"hardware algorithm {op}/{name} unavailable "
                "(fault, dynamic member, or hw disabled)"
            )
    if op == "bcast":
        kwargs.setdefault("seq", seq)
    result = yield from _run(comm, op, alg, seq, kwargs)
    return result
