"""Noise control and timing for the benchmark suite.

The box this suite runs on is a small shared VM: a fixed kernel's
10-second medians wander by a factor of almost two.  Every timing is
therefore *probe-normalised*: a fixed reference kernel (:class:`Probe`)
runs before and after each unit of work and the unit's time is scaled
by ``PROBE_REF_MS / mean(flanking probes)``.  What is reported is the
median of the normalised samples, never a single sample or a mean.
"""

from __future__ import annotations

import gc
import resource
import statistics
import time
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np
import scipy.fft as sfft

#: Median probe time on the box the benchmark was defined on.  A
#: committed constant, never re-derived per run: normalised times are
#: "milliseconds on a box where the probe takes this long".
PROBE_REF_MS = 14.0

#: Probe executions per sample; the sample is their minimum.
PROBE_REPEATS = 2


class Probe:
    """The reference kernel: FFT-, compute- and scatter-bound parts.

    Inputs are fixed (own seed, independent of ``--seed``) and the
    kernel is single-threaded, so its run time varies only with the
    state of the machine.
    """

    def __init__(self) -> None:
        rng = np.random.default_rng(12345)
        self._grid = rng.standard_normal((8, 54, 54, 54))
        self._a = rng.standard_normal((300, 300))
        self._b = rng.standard_normal((300, 300))
        self._idx = rng.integers(0, 200_000, size=600_000)
        self._table = rng.standard_normal(200_000)
        #: Every sample taken, in order (for ``probe.p50_ms``/``probe.cv``).
        self.history: list[float] = []
        for _ in range(3):
            self._run()

    def _run(self) -> float:
        t0 = time.perf_counter()
        sfft.rfftn(self._grid, axes=(1, 2, 3))
        c = self._a
        for _ in range(4):
            c = c @ self._b
        np.bincount(self._idx, weights=self._table[self._idx],
                    minlength=self._table.size)
        return (time.perf_counter() - t0) * 1e3

    def sample(self) -> float:
        """One probe sample in ms (minimum of ``PROBE_REPEATS`` runs)."""
        value = min(self._run() for _ in range(PROBE_REPEATS))
        self.history.append(value)
        return value


def normalise(raw: float, flank_ms: float) -> float:
    """``raw`` as it would read on a box whose probe takes ``PROBE_REF_MS``."""
    return raw * PROBE_REF_MS / flank_ms


@dataclass
class Sample:
    """One timed unit (or set-up sequence)."""

    raw_ms: float
    flank_ms: float          # mean of the probe samples around it
    traced: bool = False
    failed: bool = False
    scope: int = 0           # unit index (serve: the slice the request ran in)
    fixed_ms: float = 0.0    # part of raw_ms that is a timer, not work
    minflt: float = 0.0      # pages this process touched for the first time

    @property
    def norm_ms(self) -> float:
        """Normalised time; a timer does not run slower on a slow box."""
        return self.fixed_ms + normalise(self.raw_ms - self.fixed_ms,
                                         self.flank_ms)


def median(values: Sequence[float]) -> float:
    return float(statistics.median(values)) if values else 0.0


def quantile(values: Sequence[float], q: float) -> float:
    """Nearest-rank quantile (no interpolation beyond the data)."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return float(ordered[min(len(ordered) - 1, int(q * len(ordered)))])


def timed(probe: Probe, before_ms: float, fn: Callable[[], None],
          traced: bool = False, scope: int = 0) -> tuple[Sample, float]:
    """Time ``fn`` between two probe samples.

    Returns the sample and the trailing probe value, which is the
    leading one of the next call.  Garbage is collected before, never
    inside, the timed call (the caller has disabled automatic GC).
    """
    gc.collect()
    failed = False
    faults = minor_faults()
    t0 = time.perf_counter()
    try:
        fn()
    except Exception as exc:  # a failed unit is counted, not fatal
        print(f"unit failed: {type(exc).__name__}: {exc}", flush=True)
        failed = True
    raw_ms = (time.perf_counter() - t0) * 1e3
    faults = minor_faults() - faults
    after_ms = probe.sample()
    return (Sample(raw_ms, 0.5 * (before_ms + after_ms), traced, failed,
                   scope, minflt=faults), after_ms)


def timed_window(probe: Probe, unit: Callable[[int], None], seconds: float,
                 min_units: int, traced: Callable[[int], bool],
                 on_trace: Callable[[bool, int], None]) -> list[Sample]:
    """Run ``unit(i)`` back to back for ``seconds`` (at least ``min_units``).

    ``traced(i)`` says whether unit ``i`` runs with span recording on;
    ``on_trace(on, i)`` flips the recorder around it.
    """
    samples: list[Sample] = []
    boundary = probe.sample()
    deadline = time.perf_counter() + seconds
    i = 0
    while i < min_units or time.perf_counter() < deadline:
        on = traced(i)
        on_trace(on, i)
        sample, boundary = timed(probe, boundary, lambda: unit(i), on, i)
        on_trace(False, i)
        samples.append(sample)
        i += 1
    return samples


def minor_faults() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt


def children_rss_kb() -> int:
    return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss


def peak_rss_mb(children_before_kb: int) -> float:
    """Peak resident set of this process plus its largest child, MiB.

    ``children_before_kb`` is ``children_rss_kb()`` as it read before
    the workload started: a child reaped earlier (the C compiler of the
    first run in a checkout) does not count unless a worker outgrew it.
    """
    self_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child_kb = children_rss_kb()
    if child_kb <= children_before_kb:
        child_kb = 0
    return (self_kb + child_kb) / 1024.0
