"""The committed model-clock digests (``tools/digests.json``) hold.

Every ledger workload runs once at smoke scale per committed seed and must
reproduce its ``model_digest`` exactly: a change anywhere in the model (a
constant, an engine, a same-instant order) fails here, and re-recording needs
``tools/ledger_digests.py --write --reason "..."``.
"""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
TOOL = ROOT / "tools" / "ledger_digests.py"


def _run(tool, *args):
    env = dict(os.environ, PYTHONHASHSEED="0")
    env.pop("PYTHONPATH", None)  # the tool puts its own tree's src first
    return subprocess.run([sys.executable, str(tool), *args], env=env,
                          capture_output=True, text=True, timeout=300)


def _copy_of_tool(tmp_path, digests):
    """The tool in a scratch tree that shares this tree's code, reading
    ``digests`` instead of the committed file."""
    (tmp_path / "tools").mkdir()
    tool = tmp_path / "tools" / TOOL.name
    shutil.copy(TOOL, tool)
    (tmp_path / "tools" / "digests.json").write_text(json.dumps(digests))
    for sub in ("src", "benchmarks"):
        (tmp_path / sub).symlink_to(ROOT / sub, target_is_directory=True)
    return tool


def test_committed_digests_hold():
    proc = _run(TOOL, "--check")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    stored = json.loads((ROOT / "tools" / "digests.json").read_text())
    for seed, scales in stored.items():
        for entries in scales.values():
            assert sorted(entries) == sorted([
                "p2p_eager", "p2p_rndv", "coll_wide", "ib_incast",
                "lossy_stream", "fleet_faults"])
            for name, entry in entries.items():
                assert f"{name:13s} {entry['digest']}" in proc.stdout
    assert proc.stdout.rstrip().endswith("digests: OK")


def test_a_perturbed_digest_fails_the_check(tmp_path):
    stored = json.loads((ROOT / "tools" / "digests.json").read_text())
    entry = dict(stored["20050404"]["0.04"]["ib_incast"])
    real = entry["digest"]
    entry["digest"] = real[:-1] + ("0" if real[-1] != "0" else "1")
    tool = _copy_of_tool(tmp_path, {"20050404": {"0.04": {"ib_incast": entry}}})
    proc = _run(tool, "--check")
    assert proc.returncode == 1
    assert f"DIGEST MOVED (committed {entry['digest']})" in proc.stdout
    assert f"ib_incast     {real}" in proc.stdout


def test_write_refuses_an_empty_reason(tmp_path):
    tool = _copy_of_tool(tmp_path, {})
    proc = _run(tool, "--write", "--reason", "  ")
    assert proc.returncode == 2
    assert "non-empty --reason" in proc.stderr
    assert json.loads((tmp_path / "tools" / "digests.json").read_text()) == {}
