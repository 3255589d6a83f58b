"""Metrics registry: counters, gauges and histograms with exporters.

The registry captures the solver telemetry the paper's evaluation is
built on — Lanczos iteration counts, relative errors ``e_k``, matvec
counts, recovery actions, per-phase times, and the
:mod:`repro.perfmodel` byte/flop estimates — and exports it as

* Prometheus text exposition format (``--metrics out.prom``), and
* a JSON document (``--metrics out.json``).

Like tracing, metrics are **opt-in**: the module-level fast-path
helpers (:func:`inc`, :func:`observe`, :func:`set_gauge`) check one
global and return immediately when no registry is installed, so
instrumented hot loops pay only a guard check.

Metric names follow the Prometheus conventions (snake_case, ``_total``
suffix for counters, base-unit suffixes such as ``_seconds``).
"""

from __future__ import annotations

import json
import math
import re
from bisect import bisect_left
from dataclasses import dataclass, field
from typing import Any, Iterable

from ..errors import ConfigurationError

__all__ = ["Counter", "Gauge", "Histogram", "MetricsRegistry",
           "get_metrics", "set_metrics", "metrics_enabled",
           "inc", "observe", "set_gauge", "record_solver"]

_NAME_RE = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")

#: Default histogram buckets: solver iteration counts and sub-second
#: phase times both land comfortably in a 1 .. 1e3 geometric ladder.
DEFAULT_BUCKETS = (1.0, 2.0, 5.0, 10.0, 25.0, 50.0, 100.0, 250.0,
                   500.0, 1000.0)


def _check_name(name: str) -> str:
    if not _NAME_RE.match(name):
        raise ConfigurationError(
            f"invalid metric name {name!r} (must match "
            "[a-zA-Z_:][a-zA-Z0-9_:]*)")
    return name


def _label_key(labels: dict[str, str]) -> tuple[tuple[str, str], ...]:
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


def _format_labels(key: tuple[tuple[str, str], ...]) -> str:
    if not key:
        return ""
    inner = ",".join(f'{k}="{v}"' for k, v in key)
    return "{" + inner + "}"


@dataclass
class Counter:
    """Monotonically increasing value."""

    value: float = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ConfigurationError(
                f"counters only increase, got inc({amount})")
        self.value += amount


@dataclass
class Gauge:
    """A value that can go up and down (last write wins)."""

    value: float = 0.0

    def set(self, value: float) -> None:
        self.value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        self.value += amount


@dataclass
class Histogram:
    """Cumulative-bucket histogram (Prometheus semantics).

    ``buckets`` are upper bounds; an implicit ``+Inf`` bucket always
    exists.  ``observe`` also tracks sum/count/min/max so the JSON
    export can report summary statistics directly.
    """

    buckets: tuple[float, ...] = DEFAULT_BUCKETS
    counts: list[int] = field(default_factory=list)
    count: int = 0
    sum: float = 0.0
    min: float = math.inf
    max: float = -math.inf

    def __post_init__(self) -> None:
        if list(self.buckets) != sorted(self.buckets):
            raise ConfigurationError(
                f"histogram buckets must be sorted, got {self.buckets}")
        if not self.counts:
            self.counts = [0] * len(self.buckets)

    def observe(self, value: float) -> None:
        value = float(value)
        self.count += 1
        self.sum += value
        self.min = min(self.min, value)
        self.max = max(self.max, value)
        counts = self.counts
        # the buckets are sorted: skip the ones below value unexamined
        for i in range(bisect_left(self.buckets, value), len(counts)):
            counts[i] += 1

    @property
    def mean(self) -> float:
        """Mean observed value (0 when empty)."""
        return self.sum / self.count if self.count else 0.0

    def quantile(self, q: float) -> float | None:
        """Estimated ``q``-quantile, interpolated from the buckets.

        Prometheus-style ``histogram_quantile``: find the bucket the
        target rank falls in and interpolate linearly inside it,
        clamped to the observed ``min``/``max`` (which also bound the
        open-ended first and ``+Inf`` buckets).  Returns ``None`` for
        an empty histogram.
        """
        if not 0.0 <= q <= 1.0:
            raise ConfigurationError(f"quantile must be in [0, 1], got {q}")
        if self.count == 0:
            return None
        target = q * self.count
        previous = 0
        for i, (bound, cumulative) in enumerate(zip(self.buckets,
                                                    self.counts)):
            if cumulative >= target:
                in_bucket = cumulative - previous
                lower = max(self.buckets[i - 1] if i > 0 else self.min,
                            self.min)
                upper = min(bound, self.max)
                if in_bucket == 0 or upper <= lower:
                    return min(max(upper, self.min), self.max)
                frac = (target - previous) / in_bucket
                return min(max(lower + frac * (upper - lower), self.min),
                           self.max)
            previous = cumulative
        # target beyond the last finite bucket: the +Inf bucket
        return self.max


@dataclass
class _Family:
    """All series of one metric name (one per label combination)."""

    name: str
    kind: str
    help: str
    series: dict[tuple[tuple[str, str], ...], Any] = field(
        default_factory=dict)


class MetricsRegistry:
    """Process-local registry of named metric families.

    ``counter`` / ``gauge`` / ``histogram`` create-or-fetch the series
    for a (name, labels) pair, so call sites never need registration
    boilerplate; the first call fixes the metric kind and re-using a
    name with a different kind raises
    :class:`~repro.errors.ConfigurationError`.
    """

    def __init__(self) -> None:
        self._families: dict[str, _Family] = {}

    def _family(self, name: str, kind: str, help: str) -> _Family:
        family = self._families.get(_check_name(name))
        if family is None:
            family = _Family(name=name, kind=kind, help=help)
            self._families[name] = family
        elif family.kind != kind:
            raise ConfigurationError(
                f"metric {name!r} is a {family.kind}, not a {kind}")
        elif help and not family.help:
            family.help = help
        return family

    def counter(self, name: str, help: str = "", **labels: str) -> Counter:
        """The counter series for ``(name, labels)``."""
        family = self._family(name, "counter", help)
        return family.series.setdefault(_label_key(labels), Counter())

    def gauge(self, name: str, help: str = "", **labels: str) -> Gauge:
        """The gauge series for ``(name, labels)``."""
        family = self._family(name, "gauge", help)
        return family.series.setdefault(_label_key(labels), Gauge())

    def histogram(self, name: str, help: str = "",
                  buckets: Iterable[float] | None = None,
                  **labels: str) -> Histogram:
        """The histogram series for ``(name, labels)``."""
        family = self._family(name, "histogram", help)
        key = _label_key(labels)
        if key not in family.series:
            family.series[key] = Histogram(
                buckets=tuple(buckets) if buckets is not None
                else DEFAULT_BUCKETS)
        return family.series[key]

    # -- export ----------------------------------------------------------

    def to_prometheus_text(self) -> str:
        """Prometheus text exposition format (one family per block)."""
        lines: list[str] = []
        for name in sorted(self._families):
            family = self._families[name]
            if family.help:
                lines.append(f"# HELP {name} {family.help}")
            lines.append(f"# TYPE {name} {family.kind}")
            for key in sorted(family.series):
                series = family.series[key]
                if family.kind == "histogram":
                    cumulative = 0
                    for bound, count in zip(series.buckets, series.counts):
                        cumulative = count
                        bkey = key + (("le", f"{bound:g}"),)
                        lines.append(
                            f"{name}_bucket{_format_labels(bkey)} "
                            f"{cumulative}")
                    inf_key = key + (("le", "+Inf"),)
                    lines.append(f"{name}_bucket{_format_labels(inf_key)} "
                                 f"{series.count}")
                    lines.append(f"{name}_sum{_format_labels(key)} "
                                 f"{series.sum:g}")
                    lines.append(f"{name}_count{_format_labels(key)} "
                                 f"{series.count}")
                else:
                    lines.append(f"{name}{_format_labels(key)} "
                                 f"{series.value:g}")
        return "\n".join(lines) + ("\n" if lines else "")

    def to_json(self) -> dict[str, Any]:
        """JSON document mirroring the full registry state."""
        families = []
        for name in sorted(self._families):
            family = self._families[name]
            series_out = []
            for key in sorted(family.series):
                series = family.series[key]
                entry: dict[str, Any] = {"labels": dict(key)}
                if family.kind == "histogram":
                    entry.update(
                        count=series.count, sum=series.sum,
                        mean=series.mean,
                        min=(None if series.count == 0 else series.min),
                        max=(None if series.count == 0 else series.max),
                        p50=series.quantile(0.50),
                        p90=series.quantile(0.90),
                        p99=series.quantile(0.99),
                        buckets=[{"le": b, "count": c} for b, c in
                                 zip(series.buckets, series.counts)])
                else:
                    entry["value"] = series.value
                series_out.append(entry)
            families.append({"name": name, "type": family.kind,
                             "help": family.help, "series": series_out})
        return {"metrics": families}

    def write(self, path):
        """Write to ``path`` (JSON when it ends in ``.json``, else
        Prometheus text); returns the path."""
        from pathlib import Path
        path = Path(path)
        if path.suffix == ".json":
            path.write_text(json.dumps(self.to_json(), indent=2),
                            encoding="utf-8")
        else:
            path.write_text(self.to_prometheus_text(), encoding="utf-8")
        return path


# ----------------------------------------------------------------------
# the process-global registry and its fast-path facades
# ----------------------------------------------------------------------

_REGISTRY: MetricsRegistry | None = None


def get_metrics() -> MetricsRegistry | None:
    """The installed global registry (``None`` when metrics are off)."""
    return _REGISTRY


def set_metrics(registry: MetricsRegistry | None) -> MetricsRegistry | None:
    """Install (or remove) the global registry; returns the previous one."""
    global _REGISTRY
    previous = _REGISTRY
    _REGISTRY = registry
    return previous


def metrics_enabled() -> bool:
    """Whether a global metrics registry is installed."""
    return _REGISTRY is not None


def inc(name: str, amount: float = 1.0, **labels: str) -> None:
    """Increment a counter on the global registry; no-op when disabled."""
    registry = _REGISTRY
    if registry is not None:
        registry.counter(name, **labels).inc(amount)


def observe(name: str, value: float, **labels: str) -> None:
    """Observe into a histogram on the global registry; no-op when off."""
    registry = _REGISTRY
    if registry is not None:
        registry.histogram(name, **labels).observe(value)


def set_gauge(name: str, value: float, **labels: str) -> None:
    """Set a gauge on the global registry; no-op when disabled."""
    registry = _REGISTRY
    if registry is not None:
        registry.gauge(name, **labels).set(value)


def record_solver(method: str, iterations: int, converged: bool,
                  rel_change: float, n_matvecs: int) -> None:
    """Record one iterative square-root solve (the paper's Table II
    quantities: iteration count, relative error ``e_k``, matvecs).

    No-op when metrics are disabled; called by the Lanczos, block
    Lanczos and Chebyshev solvers on every completed solve.
    """
    registry = _REGISTRY
    if registry is None:
        return
    registry.counter("krylov_solves_total", help="iterative sqrt solves",
                     method=method,
                     converged=str(bool(converged)).lower()).inc()
    registry.counter("krylov_matvecs_total",
                     help="operator applications, counted per column",
                     method=method).inc(n_matvecs)
    registry.histogram("krylov_iterations",
                       help="iterations (or polynomial degree) per solve",
                       method=method).observe(iterations)
    if math.isfinite(rel_change):
        registry.histogram(
            "krylov_rel_change",
            help="final relative update e_k of each solve",
            buckets=(1e-8, 1e-7, 1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 1e-1, 1.0),
            method=method).observe(rel_change)
