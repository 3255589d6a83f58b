"""``repro profile`` — a Fig. 5-style phase table from a live run.

Runs a short matrix-free BD simulation with tracing and metrics
enabled, aggregates the per-phase span totals, and prints them next to
the Section IV.D performance-model predictions evaluated with the host
machine description — the measured-vs-modeled comparison of the
paper's Fig. 5, but produced from the *instrumentation* rather than a
bespoke benchmark loop (the profiler dogfoods ``repro.obs``).

The number of operator applications is read off the trace as the
vectors of the ``pme.fft`` spans (the forward FFT runs once per vector
per application), and each per-application model prediction is scaled
by that count.  In a run with forces every mesh pass is a step's drift
apply — the wave-space Brownian noise rides in it, adding no pass — so
the count is the number of steps; the noise-only pass of a force-free
step has no spread, no forward FFT and no real-space term, and is not
counted.  The real-space prediction charges the full
matrix payload per vector, so block (multi-RHS) application typically
measures *below* it — the amortization the paper's reference [24]
exploits.

This module deliberately imports the simulation stack, so it is
imported lazily (by the CLI), never from ``repro.obs.__init__``.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

from ..errors import ConfigurationError
from . import trace as _trace

__all__ = ["PhaseRow", "ProfileReport", "run_profile", "PROFILE_SCHEMA"]

#: Version tag of the ``repro profile --json`` document layout.
PROFILE_SCHEMA = "repro-profile/1"

#: Reciprocal phases in Fig. 5 order, then the real-space term.
PROFILE_PHASES = ["spread", "fft", "influence", "ifft", "interpolate",
                  "real"]

#: Spans of an operator (re)build: the two construct phases, and inside
#: ``construct_real`` the three steps of the real-space build (pairs and
#: separations, the coefficient table, the fused assembly).
BUILD_SPANS = ["pme.construct_p", "pme.construct_real", "pme.find_pairs",
               "pme.real_table", "pme.real_assemble"]


@dataclass
class PhaseRow:
    """One line of the profile table."""

    phase: str
    calls: int
    measured: float
    predicted: float | None

    @property
    def ratio(self) -> float | None:
        """measured / predicted (``None`` without a prediction)."""
        if self.predicted is None or self.predicted == 0.0:
            return None
        return self.measured / self.predicted


@dataclass
class ProfileReport:
    """Aggregated result of :func:`run_profile`."""

    n: int
    K: int
    p: int
    steps: int
    #: Single-vector operator applications (``pme.fft`` span vectors).
    applications: int
    rows: list[PhaseRow]
    #: Seconds per span name, all recorded spans.
    totals: dict[str, float] = field(default_factory=dict)
    #: Span counts per name.
    counts: dict[str, int] = field(default_factory=dict)
    #: This host as :func:`repro.perfmodel.calibrate_host` measured it
    #: (``repro profile --json`` fills it in); ``None`` if not measured.
    machine: Any = None

    def format_table(self) -> str:
        """The Fig. 5-style aligned table."""
        from ..bench.harness import format_table

        table_rows: list[list[Any]] = []
        for row in self.rows:
            predicted = ("-" if row.predicted is None
                         else f"{row.predicted:.4g}")
            ratio = "-" if row.ratio is None else f"{row.ratio:.2f}x"
            table_rows.append([row.phase, row.calls,
                               f"{row.measured:.4g}", predicted, ratio])
        title = (f"repro profile: PME phase breakdown, measured vs "
                 f"Eq. 10 model (n={self.n}, K={self.K}, p={self.p}, "
                 f"{self.applications} reciprocal applications)")
        return format_table(title,
                            ["phase", "calls", "measured (s)",
                             "predicted (s)", "meas/pred"],
                            table_rows)

    def to_json(self) -> dict[str, Any]:
        """The machine-readable profile document (``repro-profile/1``).

        Its ``machine`` is the host :func:`repro.perfmodel.calibrate_host`
        measured — the literal ``perfmodel.SUBSTRATE`` is recorded from.
        """
        return {
            "schema": PROFILE_SCHEMA,
            "n": self.n, "K": self.K, "p": self.p, "steps": self.steps,
            "applications": self.applications,
            "rows": [{"phase": row.phase, "calls": row.calls,
                      "measured": row.measured,
                      "predicted": row.predicted, "ratio": row.ratio}
                     for row in self.rows],
            "totals": dict(self.totals),
            "counts": dict(self.counts),
            "machine": (None if self.machine is None
                        else dataclasses.asdict(self.machine)),
        }

    def write_json(self, path: str | Path) -> Path:
        """Write :meth:`to_json` to ``path``; returns the path."""
        import json

        path = Path(path)
        path.write_text(json.dumps(self.to_json(), indent=2) + "\n",
                        encoding="utf-8")
        return path


def run_profile(n: int = 1000, phi: float = 0.2, steps: int = 5,
                dt: float = 1e-3, lambda_rpy: int = 16,
                e_k: float = 1e-2, e_p: float = 1e-3,
                seed: int = 0) -> ProfileReport:
    """Run a short simulation and aggregate its phase profile.

    The profile is read off the installed global tracer (``repro
    profile`` installs a fresh one; library callers use
    :func:`repro.obs.enable`), so every span it holds counts.
    """
    from ..core.simulation import Simulation
    from ..perfmodel import HOST, PMECostModel
    from ..systems.suspension import make_suspension

    tracer = _trace.get_tracer()
    if tracer is None:
        raise ConfigurationError(
            "run_profile reads the installed tracer: call obs.enable() "
            "first")
    susp = make_suspension(n, phi, seed=seed)
    sim = Simulation(susp, algorithm="matrix-free", dt=dt,
                     lambda_rpy=lambda_rpy, seed=seed + 1, e_k=e_k,
                     target_ep=e_p)
    sim.run(n_steps=steps, record_interval=max(1, steps))
    params = sim.integrator.pme_params
    operator = sim.integrator.operator

    totals = tracer.totals()
    counts = tracer.counts()
    # one batched apply_block pass carries s vectors (span arg
    # ``vectors``); legacy single-vector passes default to 1
    n_apps = sum(int(e.args.get("vectors", 1)) for e in tracer.events
                 if e.name == "pme.fft" and e.phase == "X")

    model = PMECostModel(HOST)
    per_apply = model.breakdown(n, params.K, params.p)
    pair_density = 2.0 * operator.real.n_pairs / max(1, n)
    per_apply["real"] = model.t_real(n, pair_density, n_vectors=1)

    rows = []
    for phase in PROFILE_PHASES:
        name = f"pme.{phase}"
        predicted = per_apply.get(phase)
        rows.append(PhaseRow(
            phase=phase,
            calls=counts.get(name, 0),
            measured=totals.get(name, 0.0),
            predicted=(None if predicted is None
                       else predicted * n_apps)))

    return ProfileReport(n=n, K=params.K, p=params.p, steps=steps,
                         applications=n_apps, rows=rows,
                         totals=totals, counts=counts)
