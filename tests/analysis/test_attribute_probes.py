"""Guard: no attribute probes in ``src/repro`` outside an explicit allowlist.

Every hook a caller uses on an object of ours is a declared member (the
PML↔PTL contract is :class:`repro.core.ptl.base.PtlModule`), so callers
read it directly.  A ``getattr`` / ``hasattr`` call or an ``except
AttributeError`` survives only where the object's type is not ours; each
such site is listed below, once per site, with its reason.
"""

import ast
from collections import Counter
from pathlib import Path

SRC = Path(__file__).resolve().parents[2] / "src" / "repro"

ALLOWED = [
    ("analysis/deadlock.py", "wait-chain walk: only a Process has _waiting_on"),
    ("analysis/deadlock.py", "deadlock dump: a waiter can be any object"),
    ("analysis/engine/cfg.py", "CfgNode.line: AST statement positions"),
    ("analysis/engine/cfg.py", "CfgNode.col: AST statement positions"),
    ("analysis/engine/passes/layers.py", "AST nodes: only some carry lineno"),
    ("annotations.py", "_register: any callable's __code__"),
    ("annotations.py", "_register: any callable's __qualname__"),
    ("annotations.py", "acquires: tags already on an arbitrary function"),
    ("annotations.py", "releases: tags already on an arbitrary function"),
    ("faults/injector.py", "the _do_{kind} dispatch over fault kinds"),
    ("sim/process.py", "a user generator's __name__"),
    ("sim/process.py", "a user object checked to be a generator"),
]


def _catches_attribute_error(handler: ast.ExceptHandler) -> bool:
    types = handler.type
    names = types.elts if isinstance(types, ast.Tuple) else [types]
    return any(isinstance(t, ast.Name) and t.id == "AttributeError" for t in names)


def probe_sites(root: Path = SRC):
    """``(relative path, line, what)`` for every probe under ``root``."""
    sites = []
    for path in sorted(root.rglob("*.py")):
        rel = path.relative_to(root).as_posix()
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name)
                and node.func.id in ("getattr", "hasattr")
            ):
                sites.append((rel, node.lineno, node.func.id))
            elif isinstance(node, ast.ExceptHandler) and _catches_attribute_error(node):
                sites.append((rel, node.lineno, "except AttributeError"))
    return sorted(sites)


def test_only_allowlisted_attribute_probes_remain():
    sites = probe_sites()
    found = Counter(rel for rel, _, _ in sites)
    allowed = Counter(rel for rel, _ in ALLOWED)
    off = [f"{rel}:{line} {what}" for rel, line, what in sites
           if found[rel] != allowed[rel]]
    assert found == allowed, (
        "attribute probes changed; declare the attribute on its owner and "
        "read it directly, or add an allowlist entry with its reason. "
        f"Sites in files off their allowance: {off}"
    )


def test_the_scanner_sees_every_probe_form(tmp_path):
    (tmp_path / "m.py").write_text(
        "def f(x):\n"
        "    a = getattr(x, 'y', None)\n"
        "    b = hasattr(x, 'z')\n"
        "    try:\n"
        "        return x.w\n"
        "    except (KeyError, AttributeError):\n"
        "        return a, b\n"
    )
    assert [what for _, _, what in probe_sites(tmp_path)] == [
        "getattr", "hasattr", "except AttributeError"
    ]
