"""Guard: the runtime does not import ``networkx``.

The fat tree routes with an in-tree BFS (:mod:`repro.elan4.fattree`), and
``pyproject.toml`` depends on numpy only.  Importing networkx would cost
every simulator process about 15 MB of resident memory before any rank
exists, so neither a direct import under ``src/repro`` nor one pulled in
through a dependency may come back.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[2] / "src" / "repro"


def networkx_imports(root: Path = SRC):
    """``(relative path, line)`` of every ``networkx`` import under ``root``."""
    sites = []
    for path in sorted(root.rglob("*.py")):
        rel = path.relative_to(root).as_posix()
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            if any(name.split(".")[0] == "networkx" for name in names):
                sites.append((rel, node.lineno))
    return sites


def test_no_module_imports_networkx():
    assert networkx_imports() == []


def test_the_runtime_packages_load_without_networkx():
    code = (
        "import sys\n"
        "import repro.cluster, repro.sched, repro.ft, repro.faults\n"
        "import repro.obs, repro.analysis\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'networkx'))\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": str(SRC.parent)},
        capture_output=True, text=True, check=True,
    )
    assert out.stdout.strip() == "[]"
