"""The determinism pass: each rule fires on its fixture, suppressions
require a justification, exempt modules stay exempt, and the real tree
under ``src/repro`` lints clean."""

import tempfile
from pathlib import Path

from repro.analysis.engine.check import main
from repro.analysis.engine.passes import PASS_RUNNERS
from repro.analysis.engine.project import Project

REPO = Path(__file__).resolve().parents[2]

#: a path that is neither the kernel nor the RNG home
MODEL_PATH = "src/repro/core/example.py"

DETERMINISM_RULES = ("wallclock", "random", "set-iter", "id-order", "pool-escape")


def rules_of(source: str, path: str = MODEL_PATH):
    """Run the determinism pass on ``source`` saved at ``path`` in a
    project rooted at ``src/repro``, so the kernel and RNG-home
    exemptions see the same module path as in the real tree."""
    rel = Path(path).relative_to("src/repro")
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        file = root / rel
        file.parent.mkdir(parents=True, exist_ok=True)
        file.write_text(source, encoding="utf-8")
        project = Project.load([file], root=root)
        return [f.rule for f in PASS_RUNNERS["determinism"](project)]


# ------------------------------------------------------------- wallclock
def test_time_time_flagged():
    assert rules_of("import time\nt = time.time()\n") == ["wallclock"]


def test_perf_counter_from_import_flagged():
    src = "from time import perf_counter\nx = perf_counter()\n"
    assert rules_of(src) == ["wallclock"]


def test_datetime_now_flagged():
    src = "import datetime\nd = datetime.datetime.now()\n"
    assert rules_of(src) == ["wallclock"]


def test_datetime_class_alias_flagged():
    src = "from datetime import datetime as dt\nd = dt.utcnow()\n"
    assert rules_of(src) == ["wallclock"]


def test_sim_now_is_fine():
    assert rules_of("t = sim.now\n") == []


def test_late_import_inside_function_still_binds():
    src = "def f():\n    import time\n    return time.monotonic()\n"
    assert rules_of(src) == ["wallclock"]


# ------------------------------------------------------------- random
def test_stdlib_random_import_flagged():
    assert rules_of("import random\n") == ["random"]


def test_random_import_ok_in_rng_home():
    assert rules_of("import random\n", path="src/repro/sim/rng.py") == []


def test_np_global_rng_flagged():
    src = "import numpy as np\nx = np.random.rand(3)\n"
    assert rules_of(src) == ["random"]


def test_np_random_seed_flagged():
    src = "import numpy as np\nnp.random.seed(0)\n"
    assert rules_of(src) == ["random"]


def test_np_default_rng_unseeded_flagged_seeded_ok():
    bad = "import numpy as np\nr = np.random.default_rng()\n"
    good = "import numpy as np\nr = np.random.default_rng(42)\n"
    assert rules_of(bad) == ["random"]
    assert rules_of(good) == []


# ------------------------------------------------------------- set-iter
def test_for_over_set_literal_flagged():
    assert rules_of("for x in {1, 2, 3}:\n    pass\n") == ["set-iter"]


def test_for_over_set_union_flagged():
    assert rules_of("for x in a & {1, 2}:\n    pass\n") == ["set-iter"]


def test_comprehension_over_set_call_flagged():
    assert rules_of("ys = [x for x in set(items)]\n") == ["set-iter"]


def test_sorted_set_is_fine():
    assert rules_of("for x in sorted({1, 2, 3}):\n    pass\n") == []


# ------------------------------------------------------------- id-order
def test_id_call_flagged():
    assert rules_of("key = id(obj)\n") == ["id-order"]


# ------------------------------------------------------------- pool-escape
def test_pool_handle_consumed_flagged():
    assert rules_of("h = sim.schedule_pooled(0.0, fn, ())\n") == ["pool-escape"]


def test_pool_handle_discarded_ok():
    assert rules_of("sim.schedule_pooled(0.0, fn, ())\n") == []


def test_pool_handle_ok_inside_kernel():
    src = "h = self.schedule_pooled(0.0, fn, ())\n"
    assert rules_of(src, path="src/repro/sim/core.py") == []


# ------------------------------------------------------------- suppressions
def test_suppression_with_reason_honoured():
    src = (
        "import time\n"
        "t = time.time()  # repro-lint: allow[wallclock] -- harness timing\n"
    )
    assert rules_of(src) == []


def test_suppression_without_reason_rejected():
    src = "import time\nt = time.time()  # repro-lint: allow[wallclock]\n"
    assert rules_of(src) == ["wallclock"]


def test_suppression_only_covers_named_rule():
    src = "for x in {1}:\n    pass  # noqa\n"
    allow_wrong = (
        "for x in {1}:  # repro-lint: allow[wallclock] -- wrong rule\n"
        "    pass\n"
    )
    assert rules_of(src) == ["set-iter"]
    assert rules_of(allow_wrong) == ["set-iter"]


# ------------------------------------------------------------- whole tree
def test_src_repro_lints_clean():
    project = Project.load([REPO / "src" / "repro"])
    findings = PASS_RUNNERS["determinism"](project)
    assert findings == [], "\n".join(f.format() for f in findings)


def test_cli_exit_codes(tmp_path, capsys):
    bad = tmp_path / "bad.py"
    bad.write_text("import time\nt = time.time()\n")
    good = tmp_path / "good.py"
    good.write_text("x = 1\n")
    assert main([str(bad), "--passes", "determinism"]) == 1
    assert "wallclock" in capsys.readouterr().out
    assert main([str(good), "--passes", "determinism"]) == 0
    assert "clean" in capsys.readouterr().out
    assert main(["--list-rules"]) == 0
    out = capsys.readouterr().out
    for rule in DETERMINISM_RULES:
        assert rule in out
