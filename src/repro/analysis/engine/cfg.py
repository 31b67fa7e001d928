"""Per-function control-flow graphs, with exception edges.

Statement-granularity CFG: every simple statement is one node; compound
statements (``if``/``while``/``for``/``try``/``with``/``match``) become
their header node plus the graph of their bodies.  Two synthetic nodes
bracket the function: ``ENTRY`` and the two exits —

* ``EXIT``       — normal completion (``return`` or falling off the end);
* ``RAISE_EXIT`` — the function unwound on an uncaught exception.

Exception edges are what make the lifecycle pass able to see abort
paths: every node whose statement *may raise* (it contains a call,
attribute access, subscript, binary operation, ``raise`` or ``assert``)
gets an edge to the innermost enclosing handler — or, when no handler
catches unconditionally, to ``RAISE_EXIT``.  A handler for a catch-all
type (bare ``except``, ``Exception``, ``BaseException``) is treated as
definitely catching, so releases performed in catch-all cleanup handlers
kill the leak fact before it can reach ``RAISE_EXIT``.  ``finally``
bodies are modelled once, on both the normal and the exceptional route
(a conservative over-approximation: the analysis sees a superset of the
real paths, so it can miss-rank but never miss a path).

``yield``/``yield from``/``await`` anywhere in a statement marks the
node ``is_yield`` — the suspension points the atomicity pass reasons
about.  Nested function and class bodies are opaque (their statements do
not join this graph).
"""

from __future__ import annotations

import ast
from typing import List, Optional, Sequence, Set, Tuple

__all__ = ["CfgNode", "Cfg", "build_cfg"]

#: statement classes that can never raise by themselves
_SAFE_STMTS = (ast.Pass, ast.Break, ast.Continue, ast.Global, ast.Nonlocal)

_CATCH_ALL_NAMES = {"Exception", "BaseException"}


class CfgNode:
    """One statement (or synthetic entry/exit) in a function's CFG."""

    __slots__ = (
        "index",
        "stmt",
        "kind",
        "is_yield",
        "can_raise",
        "succ",
        "exc_succ",
        "pred",
    )

    def __init__(self, index: int, stmt: Optional[ast.stmt], kind: str) -> None:
        self.index = index
        self.stmt = stmt
        #: 'entry' | 'exit' | 'raise-exit' | 'stmt' | 'except'
        self.kind = kind
        self.is_yield = False
        self.can_raise = False
        #: normal-flow successors
        self.succ: List["CfgNode"] = []
        #: exceptional successors (handler entry or RAISE_EXIT)
        self.exc_succ: List["CfgNode"] = []
        self.pred: List["CfgNode"] = []

    # kept probe (also ``col``): not every AST statement node has a position
    @property
    def line(self) -> int:
        return getattr(self.stmt, "lineno", 0) if self.stmt is not None else 0

    @property
    def col(self) -> int:
        return getattr(self.stmt, "col_offset", 0) if self.stmt is not None else 0

    def all_succ(self) -> List["CfgNode"]:
        return self.succ + self.exc_succ

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        label = type(self.stmt).__name__ if self.stmt is not None else self.kind
        return f"<CfgNode {self.index} {self.kind}:{label} L{self.line}>"


class Cfg:
    """The graph for one function."""

    def __init__(self, func: ast.FunctionDef | ast.AsyncFunctionDef) -> None:
        self.func = func
        self.nodes: List[CfgNode] = []
        self.entry = self._new(None, "entry")
        self.exit = self._new(None, "exit")
        self.raise_exit = self._new(None, "raise-exit")

    def _new(self, stmt: Optional[ast.stmt], kind: str) -> CfgNode:
        node = CfgNode(len(self.nodes), stmt, kind)
        self.nodes.append(node)
        return node

    def add_edge(self, src: CfgNode, dst: CfgNode, exceptional: bool = False) -> None:
        target = src.exc_succ if exceptional else src.succ
        if dst not in target:
            target.append(dst)
            dst.pred.append(src)

    def stmt_nodes(self) -> List[CfgNode]:
        return [n for n in self.nodes if n.stmt is not None]


class _ScopedWalker(ast.NodeVisitor):
    """Walk an expression/statement without descending into nested
    function/class bodies or lambdas."""

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        return None

    def visit_AsyncFunctionDef(self, node: ast.AsyncFunctionDef) -> None:
        return None

    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        return None

    def visit_Lambda(self, node: ast.Lambda) -> None:
        return None


class _Props(_ScopedWalker):
    def __init__(self) -> None:
        self.has_yield = False
        self.may_raise = False

    def visit_Yield(self, node: ast.Yield) -> None:
        self.has_yield = True
        self.generic_visit(node)

    def visit_YieldFrom(self, node: ast.YieldFrom) -> None:
        self.has_yield = True
        self.may_raise = True  # the delegated generator can raise into us
        self.generic_visit(node)

    def visit_Await(self, node: ast.Await) -> None:
        self.has_yield = True
        self.may_raise = True
        self.generic_visit(node)

    def visit_Call(self, node: ast.Call) -> None:
        self.may_raise = True
        self.generic_visit(node)

    def visit_Attribute(self, node: ast.Attribute) -> None:
        self.may_raise = True
        self.generic_visit(node)

    def visit_Subscript(self, node: ast.Subscript) -> None:
        self.may_raise = True
        self.generic_visit(node)

    def visit_BinOp(self, node: ast.BinOp) -> None:
        self.may_raise = True
        self.generic_visit(node)


def _stmt_props(stmt: ast.stmt) -> Tuple[bool, bool]:
    """(is_yield, can_raise) for one statement, ignoring nested scopes."""
    if isinstance(stmt, _SAFE_STMTS):
        return False, False
    if isinstance(stmt, (ast.Raise, ast.Assert)):
        walker = _Props()
        _walk_stmt_exprs(stmt, walker)
        return walker.has_yield, True
    walker = _Props()
    _walk_stmt_exprs(stmt, walker)
    return walker.has_yield, walker.may_raise


def _walk_stmt_exprs(stmt: ast.stmt, walker: _Props) -> None:
    """Visit only the expressions owned by ``stmt`` itself, not the bodies
    of compound statements (those become their own CFG nodes)."""
    for field_name, value in ast.iter_fields(stmt):
        if field_name in ("body", "orelse", "finalbody", "handlers", "cases"):
            continue
        if isinstance(value, ast.expr):
            walker.visit(value)
        elif isinstance(value, list):
            for item in value:
                if isinstance(item, ast.expr):
                    walker.visit(item)
                elif isinstance(item, (ast.withitem,)):
                    walker.visit(item.context_expr)
                    if item.optional_vars is not None:
                        walker.visit(item.optional_vars)


def _is_catch_all(handler: ast.ExceptHandler) -> bool:
    if handler.type is None:
        return True
    t = handler.type
    if isinstance(t, ast.Name) and t.id in _CATCH_ALL_NAMES:
        return True
    if isinstance(t, ast.Attribute) and t.attr in _CATCH_ALL_NAMES:
        return True
    if isinstance(t, ast.Tuple):
        return any(
            (isinstance(e, ast.Name) and e.id in _CATCH_ALL_NAMES)
            or (isinstance(e, ast.Attribute) and e.attr in _CATCH_ALL_NAMES)
            for e in t.elts
        )
    return False


class _TryFrame:
    """Exception-routing context for one ``try`` statement."""

    __slots__ = ("handler_entries", "catches_all", "finally_entry")

    def __init__(
        self,
        handler_entries: List[CfgNode],
        catches_all: bool,
        finally_entry: Optional[CfgNode],
    ) -> None:
        self.handler_entries = handler_entries
        self.catches_all = catches_all
        self.finally_entry = finally_entry


class _Builder:
    def __init__(self, cfg: Cfg) -> None:
        self.cfg = cfg
        #: innermost-last stack of enclosing try frames (for raise routing)
        self._tries: List[_TryFrame] = []
        #: loop stack: (continue_target_resolver, break_collector)
        self._loops: List[Tuple[CfgNode, List[CfgNode]]] = []

    # -- exception routing ---------------------------------------------
    def _route_exception(self, node: CfgNode) -> None:
        """Wire ``node``'s exceptional edge to the innermost handlers,
        stopping at the first frame that definitely catches."""
        for frame in reversed(self._tries):
            for handler_entry in frame.handler_entries:
                self.cfg.add_edge(node, handler_entry, exceptional=True)
            if frame.catches_all:
                return
            if frame.finally_entry is not None and not frame.handler_entries:
                # try/finally with no except: unwinding runs the finally
                self.cfg.add_edge(node, frame.finally_entry, exceptional=True)
                return
        self.cfg.add_edge(node, self.cfg.raise_exit, exceptional=True)

    # -- statement dispatch --------------------------------------------
    def build_body(
        self, stmts: Sequence[ast.stmt], preds: List[CfgNode]
    ) -> List[CfgNode]:
        """Wire ``stmts`` after ``preds``; returns the frontier (the nodes
        whose normal successor is whatever follows this body)."""
        frontier = preds
        for stmt in stmts:
            if not frontier:
                break  # unreachable code after return/raise/break
            frontier = self._build_stmt(stmt, frontier)
        return frontier

    def _link(self, preds: List[CfgNode], node: CfgNode) -> None:
        for p in preds:
            self.cfg.add_edge(p, node)

    def _simple(self, stmt: ast.stmt, preds: List[CfgNode]) -> CfgNode:
        node = self.cfg._new(stmt, "stmt")
        node.is_yield, node.can_raise = _stmt_props(stmt)
        self._link(preds, node)
        if node.can_raise:
            self._route_exception(node)
        return node

    def _build_stmt(self, stmt: ast.stmt, preds: List[CfgNode]) -> List[CfgNode]:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            # nested scope: opaque single node, never raises for our purposes
            node = self.cfg._new(stmt, "stmt")
            self._link(preds, node)
            return [node]
        if isinstance(stmt, ast.Return):
            node = self._simple(stmt, preds)
            self.cfg.add_edge(node, self.cfg.exit)
            return []
        if isinstance(stmt, ast.Raise):
            node = self._simple(stmt, preds)  # _simple routes the exception
            return []
        if isinstance(stmt, ast.Break):
            node = self.cfg._new(stmt, "stmt")
            self._link(preds, node)
            if self._loops:
                self._loops[-1][1].append(node)
            return []
        if isinstance(stmt, ast.Continue):
            node = self.cfg._new(stmt, "stmt")
            self._link(preds, node)
            if self._loops:
                self.cfg.add_edge(node, self._loops[-1][0])
            return []
        if isinstance(stmt, ast.If):
            header = self._simple(stmt, preds)
            then_out = self.build_body(stmt.body, [header])
            else_out = self.build_body(stmt.orelse, [header]) if stmt.orelse else [header]
            return then_out + else_out
        if isinstance(stmt, (ast.While, ast.For, ast.AsyncFor)):
            return self._build_loop(stmt, preds)
        if isinstance(stmt, ast.Try):
            return self._build_try(stmt, preds)
        if isinstance(stmt, (ast.With, ast.AsyncWith)):
            header = self._simple(stmt, preds)
            return self.build_body(stmt.body, [header])
        if isinstance(stmt, ast.Match):
            header = self._simple(stmt, preds)
            outs: List[CfgNode] = []
            exhaustive = False
            for case in stmt.cases:
                outs.extend(self.build_body(case.body, [header]))
                if (
                    isinstance(case.pattern, ast.MatchAs)
                    and case.pattern.pattern is None
                    and case.guard is None
                ):
                    exhaustive = True
            if not exhaustive:
                outs.append(header)  # no case matched: fall through
            return outs
        node = self._simple(stmt, preds)
        return [node]

    def _build_loop(
        self, stmt: ast.While | ast.For | ast.AsyncFor, preds: List[CfgNode]
    ) -> List[CfgNode]:
        header = self._simple(stmt, preds)
        breaks: List[CfgNode] = []
        self._loops.append((header, breaks))
        body_out = self.build_body(stmt.body, [header])
        self._loops.pop()
        for node in body_out:
            self.cfg.add_edge(node, header)  # back edge
        # loop exit: condition false / iterator exhausted, plus breaks
        outs: List[CfgNode] = [header] + breaks
        if stmt.orelse:
            outs = self.build_body(stmt.orelse, [header]) + breaks
        return outs

    def _build_try(self, stmt: ast.Try, preds: List[CfgNode]) -> List[CfgNode]:
        cfg = self.cfg
        # Handler entry nodes exist before the body builds, so body raises
        # can route to them.
        handler_entries: List[CfgNode] = []
        catches_all = False
        for handler in stmt.handlers:
            entry = cfg._new(handler, "except")
            entry.can_raise = False
            handler_entries.append(entry)
            if _is_catch_all(handler):
                catches_all = True
        finally_entry: Optional[CfgNode] = None
        if stmt.finalbody:
            finally_entry = cfg._new(stmt.finalbody[0], "stmt")
            finally_entry.is_yield, finally_entry.can_raise = _stmt_props(
                stmt.finalbody[0]
            )

        frame = _TryFrame(handler_entries, catches_all, finally_entry)
        self._tries.append(frame)
        body_out = self.build_body(stmt.body, preds)
        self._tries.pop()

        # else-block runs when the body completed normally
        if stmt.orelse:
            body_out = self.build_body(stmt.orelse, body_out)

        handler_outs: List[CfgNode] = []
        for entry in handler_entries:
            handler = entry.stmt
            assert isinstance(handler, ast.ExceptHandler)
            outs = self.build_body(handler.body, [entry])
            handler_outs.extend(outs)

        frontier = body_out + handler_outs
        if stmt.finalbody:
            assert finally_entry is not None
            # Normal routes converge on the finally body (modelled once;
            # finally_entry already represents its first statement).
            for node in frontier:
                cfg.add_edge(node, finally_entry)
            if finally_entry.can_raise:
                self._route_exception_from(finally_entry)
            rest = self.build_body(stmt.finalbody[1:], [finally_entry])
            # The exceptional route re-raises after the finally: the last
            # finally nodes also unwind outward.
            for node in rest:
                self._route_exception_from(node)
            return rest
        return frontier

    def _route_exception_from(self, node: CfgNode) -> None:
        """Route an exceptional continuation for a node built *outside*
        the frame that owns it (finally bodies)."""
        for frame in reversed(self._tries):
            for handler_entry in frame.handler_entries:
                self.cfg.add_edge(node, handler_entry, exceptional=True)
            if frame.catches_all:
                return
        self.cfg.add_edge(node, self.cfg.raise_exit, exceptional=True)


def build_cfg(func: ast.FunctionDef | ast.AsyncFunctionDef) -> Cfg:
    """Build the control-flow graph for one function definition."""
    cfg = Cfg(func)
    builder = _Builder(cfg)
    frontier = builder.build_body(func.body, [cfg.entry])
    for node in frontier:
        cfg.add_edge(node, cfg.exit)
    if not func.body:  # pragma: no cover - empty bodies cannot parse
        cfg.add_edge(cfg.entry, cfg.exit)
    return cfg


def contains_yield(func: ast.FunctionDef | ast.AsyncFunctionDef) -> bool:
    """True when ``func`` is a generator/coroutine body (has a suspension
    point in its own scope)."""
    walker = _Props()
    for stmt in func.body:
        walker.visit(stmt)
    return walker.has_yield


class NameUses(_ScopedWalker):
    """Collect loads and stores of plain names in one statement's own
    expressions (helper shared by the passes)."""

    def __init__(self) -> None:
        self.loads: Set[str] = set()
        self.stores: Set[str] = set()

    def visit_Name(self, node: ast.Name) -> None:
        if isinstance(node.ctx, ast.Load):
            self.loads.add(node.id)
        else:
            self.stores.add(node.id)
        self.generic_visit(node)


def name_uses(stmt: ast.stmt) -> NameUses:
    uses = NameUses()
    for field_name, value in ast.iter_fields(stmt):
        if field_name in ("body", "orelse", "finalbody", "handlers", "cases"):
            continue
        if isinstance(value, ast.expr):
            uses.visit(value)
        elif isinstance(value, list):
            for item in value:
                if isinstance(item, ast.expr):
                    uses.visit(item)
    return uses
