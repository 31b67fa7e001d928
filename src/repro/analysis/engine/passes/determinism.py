"""Determinism pass: the AST rules that keep the event kernel reproducible.

Every figure reproduction depends on bit-for-bit determinism of the event
kernel, and the kernel's fast paths are only provably safe against the
``REPRO_SIM_SLOWPATH=1`` reference when nothing feeds nondeterministic
values into the event queue.  This pass statically forbids the hazard
classes that have actually bitten discrete-event simulators:

``wallclock``
    Reads of the host clock (``time.time``/``monotonic``/``perf_counter``/
    ``process_time``, ``datetime.now``/``utcnow``/``today``).  Modelled
    time is ``sim.now``; wall-clock belongs only in speed-measurement
    harnesses, with an explicit suppression.

``random``
    The stdlib ``random`` module (global, seeding-order dependent) and
    numpy's legacy global RNG (``np.random.rand`` etc.), plus
    ``np.random.default_rng()`` with no seed.  All randomness must flow
    through seeded, named substreams (:mod:`repro.sim.rng`) or an
    explicitly seeded generator.

``set-iter``
    Iteration directly over a set expression (literal, ``set()``/
    ``frozenset()`` call, set comprehension, or a union/intersection of
    those).  Set order is hash-dependent; if the order reaches
    ``sim.schedule`` the run is only reproducible by accident of
    ``PYTHONHASHSEED``.  Wrap in ``sorted(...)`` instead.

``id-order`` (warning)
    Any use of ``id()``.  CPython addresses vary run to run, so an
    ``id()``-based tie-break (sort key, dict key, dedupe) is
    nondeterministic across processes even with a fixed hash seed.

``pool-escape``
    Consuming the return value of ``schedule_pooled(...)`` outside
    :mod:`repro.sim`.  Pooled :class:`~repro.sim.core.ScheduledCall`
    handles are recycled through the kernel free list after firing; a
    handle held by model code becomes a different scheduled call later —
    cancelling or inspecting it is a use-after-free.

The RNG home (``sim/rng.py``) may use ``random``, and the kernel
(``sim/``) may hold pooled handles.  Both exemptions test the module path
with the ``repro/`` package prefix restored, so they apply under
``src/repro`` whatever ``--root`` anchors the project.  Suppressions use
the engine's one grammar, ``# repro-lint: allow[rule] -- reason``.
"""

from __future__ import annotations

import ast
from typing import Dict, List, Sequence, Set, Tuple

from repro.analysis.engine.model import AnalysisFinding, Severity
from repro.analysis.engine.project import Module, Project

__all__ = ["run"]

PASS_ID = "determinism"

#: modules whose *purpose* exempts them from a rule
_RNG_HOME = "repro/sim/rng.py"
_KERNEL_DIR = "repro/sim/"

_WALLCLOCK_TIME_FNS = frozenset(
    {"time", "monotonic", "perf_counter", "process_time", "time_ns",
     "monotonic_ns", "perf_counter_ns", "process_time_ns", "localtime",
     "gmtime", "ctime"}
)
_WALLCLOCK_DT_FNS = frozenset({"now", "utcnow", "today"})
_NP_RANDOM_OK = frozenset(
    {"default_rng", "SeedSequence", "Generator", "BitGenerator",
     "PCG64", "PCG64DXSM", "Philox", "SFC64", "MT19937", "RandomState"}
)


class _Visitor(ast.NodeVisitor):
    """One module's AST walk collecting findings."""

    def __init__(self, module: Module) -> None:
        self.module = module
        path = "repro/" + module.rel_path
        self.in_rng_home = path.endswith(_RNG_HOME)
        self.in_kernel = _KERNEL_DIR in path
        #: (line, col, rule) -> finding; the first report of a site wins
        self.findings: Dict[Tuple[int, int, str], AnalysisFinding] = {}
        #: aliases bound to the stdlib ``time``/``datetime`` modules and the
        #: ``datetime.datetime``/``datetime.date`` classes, numpy, and
        #: ``numpy.random`` — tracked so attribute calls resolve correctly
        self.time_aliases: Set[str] = set()
        self.datetime_mod_aliases: Set[str] = set()
        self.datetime_cls_aliases: Set[str] = set()
        self.numpy_aliases: Set[str] = set()
        self.np_random_aliases: Set[str] = set()
        self.wallclock_fn_aliases: Set[str] = set()
        #: Call nodes whose value is discarded (statement expressions) —
        #: the only legal position for schedule_pooled outside the kernel
        self._discarded_calls: Set[ast.Call] = set()

    # -- plumbing --------------------------------------------------------
    def _emit(self, node: ast.expr | ast.stmt, rule: str, message: str) -> None:
        line, col = node.lineno, node.col_offset
        if self.module.suppressions.allowed(line, rule):
            return
        self.findings.setdefault(
            (line, col, rule),
            AnalysisFinding(
                pass_id=PASS_ID,
                rule=rule,
                path=self.module.rel_path,
                line=line,
                col=col,
                message=message,
                snippet=self.module.line_text(line),
                severity=Severity.WARNING if rule == "id-order" else Severity.ERROR,
            ),
        )

    # -- imports ---------------------------------------------------------
    def bind_imports(self) -> None:
        """Bind every import's aliases before the call checks run (late
        imports inside functions are common here)."""
        for node in ast.walk(self.module.tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    bound = alias.asname or alias.name.split(".")[0]
                    if alias.name == "time":
                        self.time_aliases.add(bound)
                    elif alias.name == "datetime":
                        self.datetime_mod_aliases.add(bound)
                    elif alias.name == "numpy":
                        self.numpy_aliases.add(bound)
                    elif alias.name == "numpy.random":
                        self.np_random_aliases.add(alias.asname or "numpy")
            elif isinstance(node, ast.ImportFrom):
                module = node.module or ""
                for alias in node.names:
                    bound = alias.asname or alias.name
                    if module == "time" and alias.name in _WALLCLOCK_TIME_FNS:
                        self.wallclock_fn_aliases.add(bound)
                    elif module == "datetime" and alias.name in ("datetime", "date"):
                        self.datetime_cls_aliases.add(bound)
                    elif module == "numpy" and alias.name == "random":
                        self.np_random_aliases.add(bound)

    def visit_Import(self, node: ast.Import) -> None:
        for alias in node.names:
            if alias.name == "random" and not self.in_rng_home:
                self._emit(
                    node,
                    "random",
                    "import of stdlib 'random' (global, unseeded state); "
                    "draw from repro.sim.rng.RandomStreams instead",
                )

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        if node.module == "random" and not self.in_rng_home:
            self._emit(
                node,
                "random",
                "import from stdlib 'random'; use repro.sim.rng substreams",
            )

    # -- calls -----------------------------------------------------------
    def visit_Call(self, node: ast.Call) -> None:
        self._check_wallclock(node)
        self._check_random_call(node)
        self._check_id(node)
        self._check_pool_escape(node)
        self.generic_visit(node)

    def _check_wallclock(self, node: ast.Call) -> None:
        func = node.func
        if isinstance(func, ast.Name) and func.id in self.wallclock_fn_aliases:
            self._emit(node, "wallclock", f"call to wall-clock {func.id}()")
            return
        if not isinstance(func, ast.Attribute):
            return
        base = func.value
        if isinstance(base, ast.Name):
            if base.id in self.time_aliases and func.attr in _WALLCLOCK_TIME_FNS:
                self._emit(
                    node, "wallclock", f"call to wall-clock time.{func.attr}()"
                )
            elif (
                base.id in self.datetime_cls_aliases
                and func.attr in _WALLCLOCK_DT_FNS
            ):
                self._emit(
                    node, "wallclock", f"call to wall-clock datetime.{func.attr}()"
                )
        elif isinstance(base, ast.Attribute) and isinstance(base.value, ast.Name):
            # datetime.datetime.now() / datetime.date.today()
            if (
                base.value.id in self.datetime_mod_aliases
                and base.attr in ("datetime", "date")
                and func.attr in _WALLCLOCK_DT_FNS
            ):
                self._emit(
                    node,
                    "wallclock",
                    f"call to wall-clock datetime.{base.attr}.{func.attr}()",
                )

    def _np_random_attr(self, func: ast.Attribute) -> str:
        """Return the function name for an ``np.random.X`` / imported
        ``random.X`` numpy attribute call, or '' if not one."""
        base = func.value
        if isinstance(base, ast.Attribute) and isinstance(base.value, ast.Name):
            if base.value.id in self.numpy_aliases and base.attr == "random":
                return func.attr
        if isinstance(base, ast.Name) and base.id in self.np_random_aliases:
            return func.attr
        return ""

    def _check_random_call(self, node: ast.Call) -> None:
        if self.in_rng_home:
            return
        func = node.func
        if not isinstance(func, ast.Attribute):
            return
        name = self._np_random_attr(func)
        if not name:
            return
        if name == "default_rng":
            if not node.args and not node.keywords:
                self._emit(
                    node,
                    "random",
                    "np.random.default_rng() without a seed is entropy-"
                    "seeded; pass an explicit seed or SeedSequence",
                )
        elif name == "seed":
            self._emit(
                node,
                "random",
                "np.random.seed() mutates the global legacy RNG; create a "
                "seeded Generator instead",
            )
        elif name not in _NP_RANDOM_OK:
            self._emit(
                node,
                "random",
                f"np.random.{name}() draws from numpy's global legacy RNG; "
                "use a seeded Generator (repro.sim.rng)",
            )

    def _check_id(self, node: ast.Call) -> None:
        func = node.func
        if isinstance(func, ast.Name) and func.id == "id" and len(node.args) == 1:
            self._emit(
                node,
                "id-order",
                "id() yields a per-run object address; any ordering, "
                "keying, or dedupe built on it is nondeterministic",
            )

    def _check_pool_escape(self, node: ast.Call) -> None:
        if self.in_kernel:
            return
        func = node.func
        if isinstance(func, ast.Attribute) and func.attr == "schedule_pooled":
            if node not in self._discarded_calls:
                self._emit(
                    node,
                    "pool-escape",
                    "return value of schedule_pooled() consumed outside "
                    "repro.sim: pooled ScheduledCall handles are recycled "
                    "after firing, so holding one is a use-after-free; use "
                    "sim.schedule() when you need the handle",
                )

    def visit_Expr(self, node: ast.Expr) -> None:
        if isinstance(node.value, ast.Call):
            self._discarded_calls.add(node.value)
        self.generic_visit(node)

    # -- set iteration ---------------------------------------------------
    def _is_set_expr(self, node: ast.expr) -> bool:
        if isinstance(node, (ast.Set, ast.SetComp)):
            return True
        if isinstance(node, ast.Call):
            if isinstance(node.func, ast.Name) and node.func.id in (
                "set",
                "frozenset",
            ):
                return True
            # set method algebra: s.union(...), s.intersection(...) on a
            # recognisable set expression
            if isinstance(node.func, ast.Attribute) and node.func.attr in (
                "union",
                "intersection",
                "difference",
                "symmetric_difference",
            ):
                return self._is_set_expr(node.func.value)
            return False
        if isinstance(node, ast.BinOp) and isinstance(
            node.op, (ast.BitOr, ast.BitAnd, ast.BitXor, ast.Sub)
        ):
            return self._is_set_expr(node.left) or self._is_set_expr(node.right)
        return False

    def _check_iteration(self, iter_node: ast.expr, site: ast.expr | ast.stmt) -> None:
        if self._is_set_expr(iter_node):
            self._emit(
                site,
                "set-iter",
                "iterating an unordered set: element order depends on "
                "PYTHONHASHSEED; wrap in sorted(...)",
            )

    def visit_For(self, node: ast.For) -> None:
        self._check_iteration(node.iter, node)
        self.generic_visit(node)

    def _visit_comprehensions(
        self, node: ast.expr, generators: Sequence[ast.comprehension]
    ) -> None:
        for comp in generators:
            self._check_iteration(comp.iter, node)
        self.generic_visit(node)

    def visit_ListComp(self, node: ast.ListComp) -> None:
        self._visit_comprehensions(node, node.generators)

    def visit_SetComp(self, node: ast.SetComp) -> None:
        self._visit_comprehensions(node, node.generators)

    def visit_DictComp(self, node: ast.DictComp) -> None:
        self._visit_comprehensions(node, node.generators)

    def visit_GeneratorExp(self, node: ast.GeneratorExp) -> None:
        self._visit_comprehensions(node, node.generators)


def run(project: Project) -> List[AnalysisFinding]:
    findings: List[AnalysisFinding] = []
    for module in project.modules:
        visitor = _Visitor(module)
        visitor.bind_imports()
        visitor.visit(module.tree)
        findings.extend(visitor.findings[key] for key in sorted(visitor.findings))
    return findings
