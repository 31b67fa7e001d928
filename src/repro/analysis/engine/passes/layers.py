"""Layer-enforcement pass: the declared import lattice.

The tree is layered; an import may only reach *downward* (or sideways
within its own package).  The declared lattice, refined from DESIGN.md
§7's ``sim < hw/elan4/tcpip < core < coll/ft/obs/faults < bench``:

====  =========================================
rank  packages
====  =========================================
0     version, config, annotations (leaf data)
1     sim            (the discrete-event kernel)
2     hw             (node, CPU, memory, PCI-X)
3     elan4, tcpip   (interconnect models — peers, never coupled)
4     core           (PML/PTL engine)
5     rte            (runtime environment)
6     mpi, baselines (API surface)
7     coll, ft, obs, faults, apps  (services/programs over the API)
8     cluster        (whole-machine assembly)
9     bench, analysis, sched (harnesses; may import anything)
====  =========================================

Violations are reported **at the offending import**, whether module
level or deferred inside a function: a lazy upward import is still an
upward dependency, it just hides from the import graph — intentional
inversions (e.g. the simulator attaching the sanitizer on demand) carry
a ``# repro-lint: allow[layering] -- reason`` suppression instead.
``if TYPE_CHECKING:`` imports are exempt (they never execute).
Importing a package missing from the table is itself an error, so the
lattice cannot silently rot as the tree grows.
"""

from __future__ import annotations

import ast
from typing import Dict, List, Optional, Set

from repro.analysis.engine.model import AnalysisFinding, Severity
from repro.analysis.engine.project import Module, Project

__all__ = ["run", "LAYER_RANK"]

PASS_ID = "layering"
RULE = "layering"

#: package (first path component under src/repro) -> lattice rank
LAYER_RANK: Dict[str, int] = {
    "version": 0,
    "config": 0,
    "annotations": 0,
    "sim": 1,
    "hw": 2,
    "elan4": 3,
    "tcpip": 3,
    "ib": 3,
    "core": 4,
    "rte": 5,
    "mpi": 6,
    "baselines": 6,
    "coll": 7,
    "ft": 7,
    "obs": 7,
    "faults": 7,
    "apps": 7,
    "cluster": 8,
    "bench": 9,
    "analysis": 9,
    "sched": 9,
}

#: the root package re-exports the version; importing bare ``repro``
#: resolves to rank 0
_ROOT_RANK = 0


def _type_checking_lines(tree: ast.Module) -> Set[int]:
    """Line numbers inside ``if TYPE_CHECKING:`` blocks (exempt)."""
    lines: Set[int] = set()
    for node in ast.walk(tree):
        if not isinstance(node, ast.If):
            continue
        test = node.test
        is_tc = (isinstance(test, ast.Name) and test.id == "TYPE_CHECKING") or (
            isinstance(test, ast.Attribute) and test.attr == "TYPE_CHECKING"
        )
        if not is_tc:
            continue
        for sub in node.body:
            for inner in ast.walk(sub):
                # kept probe: only some AST node types carry a line number
                lineno = getattr(inner, "lineno", None)
                if lineno is not None:
                    lines.add(lineno)
    return lines


def _target_package(module_name: str) -> Optional[str]:
    """``repro.elan4.qdma`` -> ``elan4``; ``repro`` -> ``""`` (root);
    non-project imports -> None."""
    parts = module_name.split(".")
    if parts[0] != "repro":
        return None
    if len(parts) == 1:
        return ""
    return parts[1]


def _check_import(
    module: Module,
    node: ast.stmt,
    target_module: str,
    findings: List[AnalysisFinding],
) -> None:
    target_pkg = _target_package(target_module)
    if target_pkg is None:
        return
    source_pkg = module.package
    if source_pkg == "__init__":
        return  # the root aggregator may re-export anything
    source_rank = LAYER_RANK.get(source_pkg)
    if source_rank is None:
        _report(
            module,
            node,
            findings,
            f"package '{source_pkg}' is not declared in the import lattice "
            f"(repro.analysis.engine.passes.layers.LAYER_RANK) — declare its "
            f"rank before importing from it",
        )
        return
    target_rank = _ROOT_RANK if target_pkg == "" else LAYER_RANK.get(target_pkg)
    if target_rank is None:
        _report(
            module,
            node,
            findings,
            f"import of '{target_module}': package '{target_pkg}' is not "
            f"declared in the import lattice — declare its rank in LAYER_RANK",
        )
        return
    if target_pkg == source_pkg:
        return
    if target_rank > source_rank or (
        target_rank == source_rank and target_pkg != ""
    ):
        shape = (
            "upward"
            if target_rank > source_rank
            else "sideways (peer layers must stay decoupled)"
        )
        _report(
            module,
            node,
            findings,
            f"{shape} import: '{source_pkg}' (rank {source_rank}) must not "
            f"import '{target_module}' ('{target_pkg}' has rank {target_rank})",
        )


def _report(
    module: Module, node: ast.stmt, findings: List[AnalysisFinding], message: str
) -> None:
    if module.suppressions.allowed(node.lineno, RULE):
        return
    findings.append(
        AnalysisFinding(
            pass_id=PASS_ID,
            rule=RULE,
            path=module.rel_path,
            line=node.lineno,
            col=node.col_offset,
            message=message,
            snippet=module.line_text(node.lineno),
            severity=Severity.ERROR,
        )
    )


def run(project: Project) -> List[AnalysisFinding]:
    findings: List[AnalysisFinding] = []
    for module in project.modules:
        exempt = _type_checking_lines(module.tree)
        for node in ast.walk(module.tree):
            if isinstance(node, ast.Import):
                if node.lineno in exempt:
                    continue
                for alias in node.names:
                    _check_import(module, node, alias.name, findings)
            elif isinstance(node, ast.ImportFrom):
                if node.lineno in exempt or node.level > 0 or node.module is None:
                    continue  # relative imports stay within their package
                _check_import(module, node, node.module, findings)
    return findings
