"""Start-up cost per rank stays flat as the rank count grows.

``tools/startup_scale.py`` launches an N-rank Elan4 job to rank 0's first
barrier.  Its deterministic columns are pinned here: kernel events per
rank must not grow with N (wiring a peer costs no event, the seed's table
reply is encoded once), and the modelled time of that barrier must not
move at all, since none of that work was modelled time.
"""

import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parents[2] / "tools" / "startup_scale.py"


def _load_tool():
    spec = importlib.util.spec_from_file_location("startup_scale", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_startup_events_per_rank_are_flat_and_the_barrier_time_is_unchanged():
    tool = _load_tool()
    small, large = tool.startup(8), tool.startup(32)
    assert abs(large["events_per_rank"] / small["events_per_rank"] - 1.0) <= 0.05, (
        small["events_per_rank"], large["events_per_rank"])
    # the parent's barrier times, to the last bit
    assert repr(small["sim_now"]) == "417.4423999999997"
    assert repr(large["sim_now"]) == "1457.9859999999992"
