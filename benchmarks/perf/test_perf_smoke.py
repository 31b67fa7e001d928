"""Plumbing check of the performance ledger (numbers are not checked here).

Run explicitly: ``PYTHONPATH=src python -m pytest benchmarks/perf`` — the
tier-1 ``testpaths`` is ``tests/`` and stays so.
"""

import json
import re
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
sys.path.insert(0, str(HERE))

import metrics  # noqa: E402

MANIFEST = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9_.-]+")


def _run(*argv, timeout=120):
    return subprocess.run([sys.executable, str(HERE / "run.py"), *argv],
                          cwd=ROOT, capture_output=True, text=True, timeout=timeout)


def test_manifest_is_the_metric_tables_written_out():
    assert MANIFEST == metrics.manifest()
    assert MANIFEST["run_seconds"] == metrics.RUN_SECONDS
    names = [m["name"] for m in MANIFEST["end_to_end"] + MANIFEST["per_layer"]]
    names += [w["name"] for w in MANIFEST["workloads"]]
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(n) and len(n) <= 64 for n in names)
    assert len(MANIFEST["per_layer"]) <= 128


def test_smoke_run_emits_every_declared_metric_and_no_other(tmp_path):
    out = tmp_path / "smoke.json"
    t0 = time.monotonic()
    done = _run("--smoke", "--out", str(out))
    elapsed = time.monotonic() - t0
    assert done.returncode == 0, done.stdout[-2000:] + done.stderr[-2000:]
    assert elapsed < 30.0, f"smoke run took {elapsed:.1f} s"
    report = json.loads(out.read_text())
    assert sorted(report["workloads"]) == sorted(w["name"] for w in MANIFEST["workloads"])
    end_to_end = {m["name"] for m in MANIFEST["end_to_end"]}
    per_layer = {m["name"] for m in MANIFEST["per_layer"]}
    for name, rec in report["workloads"].items():
        assert rec["failed"] == 0 and rec["op_fail_share"] == 0, (name, rec["errors"])
        assert set(rec["end_to_end"]) == end_to_end, name
        # a workload reports the per-layer metrics it has, never an undeclared one
        assert set(rec["per_layer"]) <= per_layer, name
        assert ("model.paper_err_pct" in rec["per_layer"]) == rec["validated"], name
    assert {n for n, r in report["workloads"].items() if r["validated"]} == {
        "p2p_eager", "p2p_rndv"}


def test_driver_line_has_exactly_the_declared_metrics():
    for trace, declared in ((0, "end_to_end"), (1, "per_layer")):
        done = _run("--workload", "ib_incast", "--seed", "5", "--seconds", "1",
                    "--trace", str(trace), "--smoke")
        assert done.returncode == 0, done.stderr[-2000:]
        line = json.loads(done.stdout.splitlines()[-1])
        assert sorted(line) == ["attempted", "correct", "failed", "metrics"]
        assert line["correct"] is True and line["failed"] == 0 < line["attempted"]
        want = {m["name"]: m["unit"] for m in MANIFEST[declared]}
        assert {n: m["unit"] for n, m in line["metrics"].items()} == want


def test_compare_refuses_runs_of_different_seeds(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    a.write_text(json.dumps({"schema": metrics.SCHEMA, "seed": 1, "smoke": True,
                             "workloads": {}}))
    b.write_text(json.dumps({"schema": metrics.SCHEMA, "seed": 2, "smoke": True,
                             "workloads": {}}))
    done = _run("--compare", str(a), str(b))
    assert done.returncode == 2 and "seed differs" in done.stdout
    assert _run("--compare", str(a), str(a)).returncode == 0
