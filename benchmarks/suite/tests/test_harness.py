"""Probe normalisation and the small statistics helpers."""

import random

import harness


def test_normalisation_recovers_injected_slowdown():
    """A unit of 100 ms on a box that is 1.6x slow half of the time."""
    rng = random.Random(1)
    samples = []
    for i in range(40):
        slow = 1.6 if (i // 5) % 2 else 1.0          # phases of 5 units
        jitter = 1.0 + rng.uniform(-0.01, 0.01)
        samples.append(harness.Sample(
            raw_ms=100.0 * slow * jitter,
            flank_ms=harness.PROBE_REF_MS * slow))
    normalised = harness.median([s.norm_ms for s in samples])
    raw = harness.median([s.raw_ms for s in samples])
    assert abs(normalised - 100.0) < 1.0
    assert raw > 110.0                                # the raw twin drifts
    # and a window that is slow throughout reads the same as a fast one
    slow_only = [s.norm_ms for s in samples if s.flank_ms > 20.0]
    fast_only = [s.norm_ms for s in samples if s.flank_ms < 20.0]
    assert abs(harness.median(slow_only) / harness.median(fast_only) - 1) < 0.02


def test_normalise_is_relative_to_the_committed_reference():
    assert harness.normalise(50.0, harness.PROBE_REF_MS) == 50.0
    assert harness.normalise(80.0, 2 * harness.PROBE_REF_MS) == 40.0


def test_a_timer_inside_a_unit_is_not_scaled():
    """2 ms of batch window + 5 ms of work, on a box that is 1.5x slow."""
    sample = harness.Sample(raw_ms=2.0 + 5.0 * 1.5,
                            flank_ms=harness.PROBE_REF_MS * 1.5, fixed_ms=2.0)
    assert abs(sample.norm_ms - 7.0) < 1e-9


def test_median_and_quantile():
    values = [5.0, 1.0, 4.0, 2.0, 3.0]
    assert harness.median(values) == 3.0
    assert harness.median([]) == 0.0
    assert harness.quantile(values, 0.9) == 5.0
    assert harness.quantile(values, 0.0) == 1.0
    assert harness.quantile([], 0.5) == 0.0


class _ScriptedProbe:
    def __init__(self, values):
        self._values = iter(values)

    def sample(self):
        return next(self._values)


def test_timed_window_flanks_and_failures():
    """Each unit is flanked by the probe values before and after it."""
    calls = []

    def unit(i):
        calls.append(i)
        if i == 1:
            raise ValueError("boom")

    switches = []
    samples = harness.timed_window(
        _ScriptedProbe([10.0, 20.0, 40.0, 40.0]), unit, seconds=0.0,
        min_units=3, traced=lambda i: i % 2 == 0,
        on_trace=lambda on, i: switches.append((on, i)))
    assert calls == [0, 1, 2]
    assert [s.flank_ms for s in samples] == [15.0, 30.0, 40.0]
    assert [s.failed for s in samples] == [False, True, False]
    assert [s.traced for s in samples] == [True, False, True]
    assert [s.scope for s in samples] == [0, 1, 2]
    assert switches[:2] == [(True, 0), (False, 0)]
