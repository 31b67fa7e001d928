"""Resource-lifecycle annotations: the ``@acquires``/``@releases`` registry.

This module sits at the *bottom* of the declared import lattice (rank 0,
next to :mod:`repro.config`) so that every layer — the simulator kernel,
the Elan4 hardware models, the PTL transports, the tracers — can mark its
resource primitives without importing upward into :mod:`repro.analysis`.

The decorators are zero-cost at call time: they only tag the function
object and record its definition site in a process-wide registry.  Two
consumers read the registry:

* the **static lifecycle pass** (:mod:`repro.analysis.engine.passes.
  lifecycle`) re-discovers the same annotations from the AST and checks
  acquire/release pairing across all CFG paths, including exception
  edges;
* the **runtime deadlock dump** (:mod:`repro.analysis.deadlock`) uses
  :func:`describe_kind` to label each held resource with its owning
  layer and the acquire primitive's ``file:line`` when the event queue
  drains with blocked processes.

Each resource *kind* belongs to the layer that owns its invariant (the
layer whose teardown must prove the count returns to zero):

=================  =======  ==============================================
kind               layer    primitive pair
=================  =======  ==============================================
qslot              elan4    QdmaQueue slot take / poll-out (or destroy)
nic-context        elan4    ElanCapability.claim / release
pending-op         elan4    Elan4Nic.track_pending / untrack_pending
mmu-registration   elan4    Mmu.map_buffer / unmap (unmap_context)
dma-engine         elan4    DmaEngines unit hold / release at completion
rdma-descriptor    elan4    RdmaEngine read post / complete-or-cancel
send-buffer        core     Elan4PtlModule send-buffer Store get / put_nowait
tracer-span        obs      Tracer.span_begin / span_end (or abandon)
store-item         sim      sim.resources.Store get / put (or put_nowait)
=================  =======  ==============================================
"""

from __future__ import annotations

from typing import Any, Callable, Dict, FrozenSet, Tuple, TypeVar

__all__ = [
    "RESOURCE_KINDS",
    "GENERIC_NAMES",
    "CALL_SITE_PATTERNS",
    "acquires",
    "releases",
    "registered_sites",
    "describe_kind",
    "kind_layer",
]

_F = TypeVar("_F", bound=Callable[..., Any])

#: method names too generic for the static lifecycle pass to match by
#: *name* alone (``.get()`` would match every dict; ``.release()`` every
#: Resource).  Annotated primitives with these names are matched at call
#: sites only through :data:`CALL_SITE_PATTERNS`.
GENERIC_NAMES: FrozenSet[str] = frozenset(
    {"get", "put", "map", "release", "close", "open", "pop", "send", "recv"}
)

#: ``(role, kind, receiver_tail, method)`` call-site patterns for
#: primitives whose bare name is in :data:`GENERIC_NAMES`: a call
#: ``<...>.<receiver_tail>.<method>(...)`` acquires/releases one unit of
#: ``kind``.  The receiver tail disambiguates (``self._send_bufs.get()``
#: is a send-buffer acquire; ``self._tx_seq.get(k, 0)`` is a dict read).
CALL_SITE_PATTERNS: Tuple[Tuple[str, str, str, str], ...] = (
    ("acquire", "send-buffer", "_send_bufs", "get"),
    ("release", "send-buffer", "_send_bufs", "put_nowait"),
    ("release", "nic-context", "capability", "release"),
    ("release", "nic-context", "cap", "release"),
    # Tracer.abandon shares its name with the (untagged) flight-recorder
    # abandon, so the name is ambiguous; the receiver disambiguates
    ("release", "tracer-span", "tracer", "abandon"),
)

#: resource kind -> owning layer (the layer whose teardown invariant the
#: runtime leak probes enforce; see module docstring table)
RESOURCE_KINDS: Dict[str, str] = {
    "qslot": "elan4",
    "nic-context": "elan4",
    "pending-op": "elan4",
    "mmu-registration": "elan4",
    "dma-engine": "elan4",
    "rdma-descriptor": "elan4",
    "send-buffer": "core",
    "tracer-span": "obs",
    "store-item": "sim",
}

#: (kind, role) -> (qualname, file, line) of the registered primitive;
#: role is "acquire" or "release".  Several primitives may share a kind
#: (e.g. span_end and abandon both release tracer-span); the first
#: registration per (kind, role) is kept as the canonical acquire site
#: reported by the deadlock dump, later ones are retained in order.
_SITES: Dict[Tuple[str, str], list[Tuple[str, str, int]]] = {}


def _register(kind: str, role: str, fn: Callable[..., Any]) -> None:
    if kind not in RESOURCE_KINDS:
        raise ValueError(
            f"unknown resource kind {kind!r}; declare it in "
            f"repro.annotations.RESOURCE_KINDS with its owning layer"
        )
    # kept probe: ``fn`` is any callable; builtins have no code or qualname
    code = getattr(fn, "__code__", None)
    filename = code.co_filename if code is not None else "<builtin>"
    lineno = code.co_firstlineno if code is not None else 0
    _SITES.setdefault((kind, role), []).append(
        (getattr(fn, "__qualname__", repr(fn)), filename, lineno)
    )


def acquires(kind: str) -> Callable[[_F], _F]:
    """Mark a function as acquiring one unit of resource ``kind``.

    The decorated function is returned unchanged (no wrapper, no call
    overhead); the tag lives on ``__repro_acquires__`` and in the
    registry consulted by the static lifecycle pass and the deadlock
    dump.
    """

    def mark(fn: _F) -> _F:
        # kept probe: ``fn`` is any function, which may carry earlier tags
        existing = tuple(getattr(fn, "__repro_acquires__", ()))
        fn.__repro_acquires__ = existing + (kind,)  # type: ignore[attr-defined]
        _register(kind, "acquire", fn)
        return fn

    return mark


def releases(kind: str) -> Callable[[_F], _F]:
    """Mark a function as releasing one unit of resource ``kind``."""

    def mark(fn: _F) -> _F:
        # kept probe: ``fn`` is any function, which may carry earlier tags
        existing = tuple(getattr(fn, "__repro_releases__", ()))
        fn.__repro_releases__ = existing + (kind,)  # type: ignore[attr-defined]
        _register(kind, "release", fn)
        return fn

    return mark


def registered_sites(kind: str, role: str) -> list[Tuple[str, str, int]]:
    """Every registered ``(qualname, file, line)`` for ``(kind, role)``."""
    return list(_SITES.get((kind, role), ()))


def kind_layer(kind: str) -> str:
    """Owning layer of a resource kind ('?' when undeclared)."""
    return RESOURCE_KINDS.get(kind, "?")


def describe_kind(kind: str) -> str:
    """One-line description used by the deadlock wait-chain dump:
    ``kind [layer=<owner> acquired-by <qualname> (<file>:<line>)]``."""
    layer = kind_layer(kind)
    sites = registered_sites(kind, "acquire")
    if not sites:
        return f"{kind} [layer={layer}]"
    qualname, filename, lineno = sites[0]
    # keep paths stable across checkouts: trim to the package-relative tail
    marker = "repro/"
    pos = filename.replace("\\", "/").rfind(marker)
    shown = filename.replace("\\", "/")[pos:] if pos >= 0 else filename
    return f"{kind} [layer={layer} acquired-by {qualname} ({shown}:{lineno})]"
