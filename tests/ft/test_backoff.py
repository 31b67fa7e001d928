"""The shared deterministic jittered-backoff helper (repro.sim.backoff)."""

import numpy as np
import pytest

from repro.sim.backoff import JitteredBackoff


def test_validation():
    rng = np.random.default_rng(0)
    with pytest.raises(ValueError):
        JitteredBackoff(rng, 0.0)
    with pytest.raises(ValueError):
        JitteredBackoff(rng, 100.0, factor=0.5)
    with pytest.raises(ValueError):
        JitteredBackoff(rng, 100.0, cap_us=50.0)
    with pytest.raises(ValueError):
        JitteredBackoff(rng, 100.0, jitter_frac=1.5)


def test_delay_bounds_and_growth():
    b = JitteredBackoff(
        np.random.default_rng(1), 100.0, factor=2.0, cap_us=800.0, jitter_frac=0.25
    )
    for attempt in range(8):
        d = b.delay(attempt)
        base = min(100.0 * 2.0**attempt, 800.0)
        assert base <= d <= base * 1.25
    # deep attempts saturate at the cap (plus jitter)
    assert b.delay(20) <= 800.0 * 1.25


def test_same_seed_same_sequence():
    a = JitteredBackoff(np.random.default_rng(42), 50.0, cap_us=400.0)
    b = JitteredBackoff(np.random.default_rng(42), 50.0, cap_us=400.0)
    assert [a.delay(i) for i in range(10)] == [b.delay(i) for i in range(10)]


def test_stateful_next_and_reset():
    b = JitteredBackoff(np.random.default_rng(3), 10.0, cap_us=80.0, jitter_frac=0.0)
    seq = [b.next() for _ in range(5)]
    assert seq == [10.0, 20.0, 40.0, 80.0, 80.0]
    assert b.attempt == 5
    b.reset()
    assert b.attempt == 0
    assert b.next() == 10.0


def test_zero_jitter_is_pure_exponential():
    b = JitteredBackoff(np.random.default_rng(9), 100.0, cap_us=1600.0, jitter_frac=0.0)
    assert [b.delay(i) for i in range(5)] == [100.0, 200.0, 400.0, 800.0, 1600.0]


def test_reliability_channel_uses_shared_helper():
    """PR 1's retransmission backoff and the FT detector/recovery pacing
    are one implementation (no drift between the two formulas)."""
    from repro.core.ptl.elan4 import reliability

    assert reliability.JitteredBackoff is JitteredBackoff
