"""``tools/ab.py``: paired runs alternate their order, and the summary
reports medians, quartiles and wins in each metric's direction."""

import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
_spec = importlib.util.spec_from_file_location("ab", ROOT / "tools" / "ab.py")
ab = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(ab)


def test_pairs_alternate_which_side_runs_first():
    calls = []

    def run(side):
        calls.append(side)
        return side == "change", {"peak_rss_mb": 100.0 if side == "change" else 240.0}

    parent, change, bad = ab.run_pairs(run, 4, log=lambda _: None)
    assert calls == ["parent", "change", "change", "parent"] * 2
    assert bad == 4  # every parent run reported incorrect
    assert [m["peak_rss_mb"] for m in parent] == [240.0] * 4
    assert [m["peak_rss_mb"] for m in change] == [100.0] * 4


def test_summary_counts_wins_in_the_better_direction():
    parent = [{"host_s": 3.0, "goodput": 10.0}, {"host_s": 3.2, "goodput": 10.0},
              {"host_s": 3.4, "goodput": 9.0}]
    change = [{"host_s": 2.0, "goodput": 11.0}, {"host_s": 3.3, "goodput": 10.0},
              {"host_s": 2.2, "goodput": 12.0}]
    declared = [{"name": "host_s", "unit": "s", "better": "lower"},
                {"name": "goodput", "unit": "MB/s", "better": "higher"},
                {"name": "absent", "unit": "s", "better": "lower"}]
    rows = {r["name"]: r for r in ab.summarize(parent, change, declared)}
    assert set(rows) == {"host_s", "goodput"}
    assert rows["host_s"]["wins"] == 2
    assert rows["host_s"]["parent"] == (3.1, 3.2, 3.3)
    assert rows["host_s"]["change"][1] == 2.2
    assert rows["host_s"]["beyond_iqr"]
    assert rows["goodput"]["wins"] == 2
    assert rows["goodput"]["pairs"] == 3
