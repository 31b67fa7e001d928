"""``run.py --compare A.json B.json``: B judged against A, metric by metric.

Host-clock metrics get one of ``same`` / ``better`` / ``worse`` /
``unresolved`` from the bounds in ``BENCHMARK.json``.  Everything on the
model clock (``model_*``, ``model_digest``, ``sim.events`` and every
``<layer>.calls``) must be *exactly* equal: at one seed the model repeats
to the last bit, so any difference is a change of the model, not noise.
Runs whose schema, seed or sizes differ are refused, not compared.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Dict, List

from metrics import CLOCK, LAYERS, SCHEMA

EXACT_PER_LAYER = ["sim.events"] + [f"{layer}.calls" for layer in LAYERS]


def _refusal(a: Dict[str, Any], b: Dict[str, Any]) -> str:
    for key in ("schema", "seed", "smoke"):
        if a.get(key) != b.get(key):
            return f"{key} differs: {a.get(key)!r} vs {b.get(key)!r}"
    if a["schema"] != SCHEMA:
        return f"unknown schema {a['schema']!r} (this is {SCHEMA})"
    if sorted(a["workloads"]) != sorted(b["workloads"]):
        return "the two runs hold different workloads"
    for name, rec in a["workloads"].items():
        other = b["workloads"][name]
        for key in ("sizes", "traced_sizes"):
            if rec.get(key) != other.get(key):
                return f"{name}: {key} differ"
    return ""


def _spread(m: Dict[str, Any]) -> float:
    return (m["q3"] - m["q1"]) / m["value"] if "q1" in m and m["value"] else 0.0


def _verdict(ma: Dict[str, Any], mb: Dict[str, Any], better: str, bound: float) -> str:
    """``worse`` / ``better``: B's median differs from A's by more than the
    bound.  ``unresolved``: the repetitions of either run spread wider than
    the bound, unless every repetition of B reads better than every one of A."""
    sign = 1.0 if better == "lower" else -1.0
    change = sign * (mb["value"] - ma["value"]) / ma["value"]
    if max(_spread(ma), _spread(mb)) > bound:
        sa, sb = ma.get("samples", []), mb.get("samples", [])
        if sa and sb and max(sign * x for x in sb) < min(sign * x for x in sa):
            return "better"
        return "unresolved"
    if change > bound:
        return "worse"
    return "better" if change < -bound else "same"


def _fmt(m: Dict[str, Any]) -> str:
    text = f"{m['value']:.6g}"
    if "q1" in m:
        text += f" [{m['q1']:.4g}, {m['q3']:.4g}]"
    return text


def main(path_a: str, path_b: str, manifest: Path) -> int:
    a, b = (json.loads(Path(p).read_text()) for p in (path_a, path_b))
    refusal = _refusal(a, b)
    if refusal:
        print(f"compare: refusing: {refusal}")
        return 2
    declared = json.loads(Path(manifest).read_text())["end_to_end"]
    bad: List[str] = []
    print(f"{'workload':13s} {'metric':18s} {'verdict':10s} {'change':>8s}  A -> B")
    for name in a["workloads"]:
        ra, rb = a["workloads"][name], b["workloads"][name]
        for spec in declared:
            metric = spec["name"]
            ma, mb = ra["end_to_end"][metric], rb["end_to_end"][metric]
            if CLOCK[metric] == "model":
                verdict = "same" if ma["value"] == mb["value"] else "DIFFERS"
            else:
                verdict = _verdict(ma, mb, spec["better"], spec["bound"])
            change = 100.0 * (mb["value"] - ma["value"]) / ma["value"]
            print(f"{name:13s} {metric:18s} {verdict:10s} {change:+7.2f}%  "
                  f"{_fmt(ma)} -> {_fmt(mb)}")
            if verdict in ("worse", "DIFFERS"):
                bad.append(f"{name} {metric}: {verdict}")
        if ra["model_digest"] != rb["model_digest"]:
            bad.append(f"{name} model_digest: DIFFERS")
        for metric in EXACT_PER_LAYER:
            va, vb = (r["per_layer"][metric]["value"] for r in (ra, rb))
            if va != vb:
                bad.append(f"{name} {metric}: DIFFERS ({va} -> {vb})")
        if rb["failed"]:
            bad.append(f"{name}: {rb['failed']} operations failed in B")
    for line in bad:
        print(f"compare: {line}")
    print("compare: " + ("FAIL" if bad else "no metric worse, model clock identical"))
    return 1 if bad else 0
