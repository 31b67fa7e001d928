"""Whole-tree static analysis engine (DESIGN.md §7).

The engine parses every module under a root (normally ``src/repro``) once,
builds per-function control-flow graphs with exception edges
(:mod:`~repro.analysis.engine.cfg`), a name-resolved call graph
(:mod:`~repro.analysis.engine.callgraph`), and a worklist dataflow solver
(:mod:`~repro.analysis.engine.dataflow`), and runs the registered passes
(:mod:`~repro.analysis.engine.passes`) over the result:

* ``atomicity``   — yield-aware stale-read race lint (Fig. 5c/5d class);
* ``lifecycle``   — ``@acquires``/``@releases`` pairing across all CFG
  paths including exception edges (the QDMA-abort leak class);
* ``layering``    — the declared import lattice, violations at the import;
* ``determinism`` — wall-clock, unseeded-RNG, set-order, ``id()`` and
  pooled-handle hazards to bit-for-bit reproducibility.

Entry point: ``python -m repro.analysis check`` (see
:mod:`repro.analysis.engine.check`), emitting human-readable or SARIF
2.1.0 output, honouring ``# repro-lint: allow[rule] -- reason``
suppressions and a committed baseline file.
"""

from __future__ import annotations

from repro.analysis.engine.model import AnalysisFinding, Severity
from repro.analysis.engine.project import Module, Project

__all__ = ["AnalysisFinding", "Severity", "Module", "Project"]
