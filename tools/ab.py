#!/usr/bin/env python3
"""Paired A/B of the perf driver: a parent revision against this tree.

    tools/ab.py --parent REV --workload W --pairs N [--metric M]

Checks ``REV`` out with ``git worktree add`` under the temporary
directory (``$TMPDIR``, /tmp by default), or uses an existing checkout
given with ``--parent-tree``.  Then it runs the driver command
``benchmarks/perf/run.py --workload W --seed 20050404 --seconds 16
--trace 0`` alternately in the parent and in this tree.  Which side runs
first flips every pair, so a host that drifts between speed states hits
both sides alike.  For every end-to-end metric declared in BENCHMARK.json
it prints both medians and quartiles and the number of pairs the change
won.  The worktree is removed on the way out, whatever happens.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

ROOT = Path(__file__).resolve().parents[1]

Metrics = Dict[str, float]


def run_driver(tree: Path, workload: str) -> Tuple[bool, Metrics]:
    """One driver run in ``tree``: (correct, metric -> value).  The
    environment drops PYTHONPATH so each tree measures its own source."""
    command = [sys.executable, "benchmarks/perf/run.py", "--workload", workload,
               "--seed", "20050404", "--seconds", "16", "--trace", "0"]
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run(command, cwd=tree, env=env, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    try:
        line = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        sys.stderr.write(proc.stdout + proc.stderr)
        return False, {}
    metrics = {name: m["value"] for name, m in line["metrics"].items()}
    return proc.returncode == 0 and line["correct"] and line["failed"] == 0, metrics


def run_pairs(run: Callable[[str], Tuple[bool, Metrics]], pairs: int,
              log=print) -> Tuple[List[Metrics], List[Metrics], int]:
    """Alternate ``run("parent")`` and ``run("change")``, flipping the
    order each pair.  Returns both sides' readings and the count of runs
    that were not correct."""
    parent: List[Metrics] = []
    change: List[Metrics] = []
    bad = 0
    for i in range(pairs):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        got = {}
        for side in order:
            ok, metrics = run(side)
            bad += not ok
            got[side] = metrics
        parent.append(got["parent"])
        change.append(got["change"])
        log(f"pair {i + 1}/{pairs} ({order[0]} first): " + "  ".join(
            f"{k} {got['parent'].get(k, float('nan')):.6g}/"
            f"{got['change'].get(k, float('nan')):.6g}"
            for k in ("setup_s", "host_s", "peak_rss_mb")))
    return parent, change, bad


def quartiles(xs: List[float]) -> Tuple[float, float, float]:
    if len(xs) < 2:
        return xs[0], xs[0], xs[0]
    q1, q2, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return q1, q2, q3


def summarize(parent: List[Metrics], change: List[Metrics],
              declared: List[dict]) -> List[dict]:
    """One row per declared metric both sides reported: medians,
    quartiles, relative change of the median and pairs the change won."""
    rows = []
    for spec in declared:
        name = spec["name"]
        pairs = [(p[name], c[name]) for p, c in zip(parent, change)
                 if name in p and name in c]
        if not pairs:
            continue
        ps = [p for p, _ in pairs]
        cs = [c for _, c in pairs]
        lower = spec["better"] == "lower"
        wins = sum((c < p) if lower else (c > p) for p, c in pairs)
        pq, cq = quartiles(ps), quartiles(cs)
        rows.append({
            "name": name, "unit": spec["unit"], "parent": pq, "change": cq,
            "delta_pct": 100.0 * (cq[1] - pq[1]) / pq[1] if pq[1] else 0.0,
            "wins": wins, "pairs": len(pairs),
            "beyond_iqr": abs(cq[1] - pq[1]) > pq[2] - pq[0],
        })
    return rows


def _spread(q: Tuple[float, float, float]) -> str:
    return f"{q[1]:.6g} [{q[0]:.6g}, {q[2]:.6g}]"


def print_table(rows: List[dict]) -> None:
    print(f"{'metric':18s} {'unit':5s} {'parent med [q1, q3]':>32s} "
          f"{'change med [q1, q3]':>32s} {'delta':>8s} {'wins':>6s} >IQR")
    for r in rows:
        print(f"{r['name']:18s} {r['unit']:5s} {_spread(r['parent']):>32s} "
              f"{_spread(r['change']):>32s} {r['delta_pct']:>+7.1f}% "
              f"{r['wins']:>3d}/{r['pairs']:<2d} {'yes' if r['beyond_iqr'] else 'no'}")


def main(argv: Optional[List[str]] = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", required=True, help="git revision to compare against")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--metric", help="report only this end-to-end metric")
    ap.add_argument("--parent-tree", type=Path,
                    help="an existing checkout of the parent to use instead of "
                         "a temporary worktree")
    args = ap.parse_args(argv)
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
    if args.metric:
        declared = [m for m in declared if m["name"] == args.metric]
        if not declared:
            ap.error(f"--metric {args.metric} is not an end-to-end metric")
    worktree: Optional[Path] = None
    try:
        if args.parent_tree is not None:
            parent_tree = args.parent_tree.resolve()
        else:
            worktree = Path(tempfile.mkdtemp(prefix="ab-parent-"))
            subprocess.run(["git", "worktree", "add", "--detach", str(worktree),
                            args.parent], cwd=ROOT, check=True)
            parent_tree = worktree
        trees = {"parent": parent_tree, "change": ROOT}
        parent, change, bad = run_pairs(
            lambda side: run_driver(trees[side], args.workload),
            args.pairs,
        )
    finally:
        if worktree is not None:
            subprocess.run(["git", "worktree", "remove", "--force", str(worktree)],
                           cwd=ROOT, check=False)
    print(f"== {args.workload}: {args.pairs} pairs against {args.parent}, "
          f"{bad} incorrect run(s)")
    print_table(summarize(parent, change, declared))
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
