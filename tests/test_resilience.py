"""Fault-injection tests for the recovery runtime (repro.resilience).

Every recovery path is exercised with deterministic injected faults:
the Lanczos retry -> dense-reference ladder, NaN-force
dt backoff, NaN-displacement block rollback, and checkpoint corruption
fallback.  The soak test at the bottom is the acceptance run: >= 1,000
steps under injected Lanczos non-convergence, NaN forces and one
mid-write checkpoint kill, completing with every injected fault
accounted for in the RecoveryLog.
"""

import numpy as np
import pytest

from repro.core.brownian import CholeskyBrownianGenerator, KrylovBrownianGenerator
from repro.core.checkpoint import load_checkpoint, run_checkpointed
from repro.core.forces import CompositeForce, ConstantForce, RepulsiveHarmonic
from repro.core.integrators import BDStepStats, MatrixFreeBD
from repro.core.simulation import Simulation
from repro.errors import ConfigurationError, ConvergenceError
from repro.krylov.block_lanczos import block_lanczos_sqrt
from repro.krylov.reference import cholesky_displacements, dense_sqrt_apply
from repro.pme.operator import PMEParams
from repro.resilience import (
    FailureKind,
    RecoveryLog,
    StepFailure,
    cholesky_displacements_resilient,
    krylov_displacements_resilient,
    recovery,
)
from repro.resilience.faults import (
    FaultPlan,
    FaultyKrylovGenerator,
    faulty_checkpoint_save,
    install_faults,
)
from repro.systems import make_suspension, random_suspension

pytestmark = pytest.mark.faults

PARAMS = PMEParams(xi=0.9, r_max=3.0, K=16, p=4)


def _spd_problem(d=30, s=2, seed=0):
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((d, d))
    m = a @ a.T + 0.5 * np.eye(d)
    z = rng.standard_normal((d, s))
    return m, z


# ---------------------------------------------------------------------------
# solver diagnostics attached to ConvergenceError (satellite)
# ---------------------------------------------------------------------------

def test_block_lanczos_error_carries_diagnostics():
    m, z = _spd_problem()
    with pytest.raises(ConvergenceError) as exc_info:
        block_lanczos_sqrt(m, z, tol=1e-10, max_iter=2)
    err = exc_info.value
    assert err.iterations == 2
    assert err.n_matvecs == 2 * z.shape[1]
    assert err.residual > 1e-10
    assert err.rel_change == err.residual


# ---------------------------------------------------------------------------
# the degradation ladder (unit level); each rung is reached through
# FaultPlan call indices, not a knob
# ---------------------------------------------------------------------------

def _failing_generator(calls):
    """A Krylov generator whose solves at ``calls`` are forced to fail:
    call 0 is the first attempt, calls 1 and 2 the two Lanczos retries."""
    inner = KrylovBrownianGenerator(kT=0.5, dt=1.0, tol=1e-6, max_iter=2)
    return FaultyKrylovGenerator(inner, FaultPlan(brownian_calls=calls))


def test_ladder_retry_with_grown_budget():
    m, z = _spd_problem()
    gen = KrylovBrownianGenerator(kT=0.5, dt=1.0, tol=1e-6, max_iter=2)
    log = RecoveryLog()
    y, info = krylov_displacements_resilient(gen, m, z, log, step=0)
    ref = dense_sqrt_apply(m, z)
    np.testing.assert_allclose(y, ref, rtol=1e-5)
    assert log.count(action="retry-lanczos") == 1
    assert log.count(action="detect",
                     kind=FailureKind.LANCZOS_NONCONVERGENCE) >= 1
    # the retry loosens then the next tightens back to the original tol
    retries = [e for e in log if e.action == "detect" and e.attempt > 0]
    assert retries[0].detail["tol"] == pytest.approx(1e-6 * 10.0)


def test_ladder_dense_fallback():
    m, z = _spd_problem()
    log = RecoveryLog()
    y, info = krylov_displacements_resilient(
        _failing_generator(calls=(0, 1, 2)), m, z, log, 0)
    # the dense rung samples via the Cholesky factor: a valid Brownian
    # sample with the exact covariance, reproducible from (m, z)
    np.testing.assert_allclose(
        y, cholesky_displacements(0.5 * (m + m.T), z), rtol=1e-10)
    assert [e.action for e in log] == ["detect"] * 3 + ["fallback-cholesky"]
    # the retry schedule: (tol x 10, max_iter x 4), then (tol, max_iter x 16)
    assert [(e.detail["tol"], e.detail["max_iter"]) for e in log.events[1:3]
            ] == [(pytest.approx(1e-5), 8), (pytest.approx(1e-6), 32)]


def test_ladder_dense_fallback_respects_dim_cap(monkeypatch):
    m, z = _spd_problem()
    monkeypatch.setattr(recovery, "DENSE_FALLBACK_MAX_DIM", 10)
    with pytest.raises(StepFailure) as exc_info:
        krylov_displacements_resilient(_failing_generator(calls=(0, 1, 2)),
                                       m, z, RecoveryLog(), 0)
    assert "DENSE_FALLBACK_MAX_DIM=10" in str(exc_info.value)


def test_ladder_escalates_when_exhausted(monkeypatch):
    # every rung of the first block's solve fails: the StepFailure rolls
    # the block back, and the replayed block's solve (call 3) succeeds
    monkeypatch.setattr(recovery, "DENSE_FALLBACK_MAX_DIM", 0)
    susp = random_suspension(16, 0.1, seed=4)
    schedule = FaultPlan(brownian_calls=(0, 1, 2))
    bd = _mf_integrator(susp, schedule)
    final, stats = bd.run(susp.positions, 8)
    assert np.all(np.isfinite(final))
    log = stats.recovery
    assert log.count(action="detect",
                     kind=FailureKind.LANCZOS_NONCONVERGENCE) == 3
    assert log.count(action="rollback",
                     kind=FailureKind.LANCZOS_NONCONVERGENCE) == 1
    assert stats.n_steps == 8
    assert stats.mobility_updates == 3  # the failed block is rebuilt


#: Matvecs per column of the Chebyshev (Fixman) square root that the
#: ladder once ran between the retries and the dense rung (25 bound
#: steps + degree + 1), on the matrix below, by ``tol``.
#: ``benchmarks/reference/tests/test_chebyshev.py::test_ritz_bound_miss``
#: measures these figures and shows that its error at ``tol`` 1e-6
#: exceeds 100 x ``tol``.
CHEBYSHEV_RUNG_MATVECS = {1e-2: 154, 1e-6: 538}


@pytest.fixture(scope="module")
def wide_spectrum():
    """Dense SPD matrix, eigenvalues log-spaced on ``[1e-6, 1]``."""
    rng = np.random.default_rng(0)
    q, _ = np.linalg.qr(rng.standard_normal((600, 600)))
    return (q * np.geomspace(1e-6, 1.0, 600)) @ q.T


@pytest.mark.parametrize("s", [1, 8])
@pytest.mark.parametrize("tol", [1e-2, 1e-6])
def test_last_retry_answers_a_wide_spectrum(wide_spectrum, s, tol):
    # the first solve and the loose retry fail; the last retry, at the
    # production budget, answers with fewer matvecs than the Chebyshev
    # rung and (at tol 1e-6) an error the rung's exceeds
    m = wide_spectrum
    z = np.random.default_rng(1).standard_normal((m.shape[0], s))
    gen = FaultyKrylovGenerator(KrylovBrownianGenerator(kT=0.5, dt=1.0,
                                                        tol=tol),
                                FaultPlan(brownian_calls=(0, 1)))
    log = RecoveryLog()
    y, info = krylov_displacements_resilient(gen, m, z, log, 0)
    assert [e.action for e in log][-1] == "retry-lanczos"
    assert log.events[-1].detail["max_iter"] == 200 * 16
    assert info.converged
    assert info.n_matvecs / s < CHEBYSHEV_RUNG_MATVECS[tol]
    if tol == 1e-6:
        ref = dense_sqrt_apply(m, z)
        assert np.linalg.norm(y - ref) / np.linalg.norm(ref) < 100 * tol


def test_ewald_cholesky_breakdown_falls_back_to_eigh():
    # exactly singular PSD matrix: Cholesky fails, eigh-with-clipping works
    rng = np.random.default_rng(1)
    q, _ = np.linalg.qr(rng.standard_normal((12, 12)))
    w = np.linspace(0.0, 2.0, 12)          # one exactly-zero eigenvalue
    m = (q * w) @ q.T
    m = 0.5 * (m + m.T)
    z = rng.standard_normal((12, 3))
    gen = CholeskyBrownianGenerator(kT=0.5, dt=1.0)
    log = RecoveryLog()
    y = cholesky_displacements_resilient(gen, m, z, log, 0)
    assert np.all(np.isfinite(y))
    assert log.count(action="fallback-eigh") == 1
    assert log.count(kind=FailureKind.CHOLESKY_BREAKDOWN) == 2


# ---------------------------------------------------------------------------
# fault schedule determinism
# ---------------------------------------------------------------------------

def test_fault_schedule_is_deterministic():
    def fire_pattern():
        s = FaultPlan(seed=42, nan_force_rate=0.3)
        return [s.fire("force", "nan") for _ in range(50)]

    first, second = fire_pattern(), fire_pattern()
    assert first == second
    assert any(first)


def test_fault_plan_draws_are_pinned():
    # recorded before the two fault engines merged: neither the per-site
    # substreams nor the process-fault permutation may move
    s = FaultPlan(seed=42, nan_force_rate=0.3)
    pattern = "".join(str(int(s.fire("force", "nan"))) for _ in range(50))
    assert pattern == "00001000100000010100000001011000000110100000000101"

    spec = "seed=13,kill=1,hang=1,slow=1,corrupt=1,slow-per-step=0.5"
    plan = FaultPlan.from_spec(spec)
    faults = plan.assign(list(range(10)), {i: 100 for i in range(10)})
    assert [(f.index, f.kind, f.at_step) for f in faults] == [
        (6, "kill", 31), (1, "hang", 74), (5, "slow", 67),
        (0, "corrupt", 39)]
    assert plan.to_spec() == spec


def test_fault_schedule_explicit_calls_and_counts():
    s = FaultPlan(force_calls=(1, 3))
    hits = [s.fire("force", "nan") for _ in range(5)]
    assert hits == [False, True, False, True, False]
    assert s.count("force") == 2
    assert [f.index for f in s.faults] == [1, 3]


def test_fault_schedule_from_spec():
    s = FaultPlan.from_spec("seed=7,lanczos=0.25,nan-force=0.5,ckpt=kill@3")
    assert s.seed == 7
    assert s.lanczos_failure_rate == 0.25
    assert s.nan_force_rate == 0.5
    assert s.checkpoint_events == {3: "kill"}
    assert FaultPlan.from_spec(s.to_spec()).to_spec() == s.to_spec()
    with pytest.raises(ConfigurationError):
        FaultPlan.from_spec("bogus=1")
    with pytest.raises(ConfigurationError):
        FaultPlan.from_spec("ckpt=explode@1")


# ---------------------------------------------------------------------------
# integrator-level recovery paths
# ---------------------------------------------------------------------------

def _mf_integrator(susp, schedule=None, seed=5, **kwargs):
    bd = MatrixFreeBD(box=susp.box, force_field=kwargs.pop("force_field", None),
                      dt=1e-3, lambda_rpy=4, seed=seed, pme_params=PARAMS,
                      **kwargs)
    if schedule is not None:
        install_faults(bd, schedule)
    return bd


def test_injected_lanczos_failure_recovers_by_retry():
    susp = random_suspension(16, 0.1, seed=1)
    schedule = FaultPlan(brownian_calls=(1,))
    bd = _mf_integrator(susp, schedule)
    final, stats = bd.run(susp.positions, 12)
    assert np.all(np.isfinite(final))
    assert schedule.count("brownian") == 1
    assert stats.recovery.count(
        action="detect", kind=FailureKind.LANCZOS_NONCONVERGENCE) == 1
    assert stats.recovery.count(action="retry-lanczos") == 1


def test_nan_force_triggers_dt_backoff_and_restore():
    susp = random_suspension(16, 0.15, seed=2)
    # force call 3 is step 4's first attempt; its retry at half dt is
    # clean, and DT_RECOVERY_STEPS = 10 clean steps later (step 13) the
    # nominal dt is back
    schedule = FaultPlan(force_calls=(3,))
    bd = _mf_integrator(susp, schedule,
                        force_field=RepulsiveHarmonic(susp.box, susp.fluid))
    final, stats = bd.run(susp.positions, 16)
    assert np.all(np.isfinite(final))
    assert stats.recovery.count(kind=FailureKind.NONFINITE_FORCES,
                                action="detect") == 1
    backoff, = [e for e in stats.recovery if e.action == "dt-backoff"]
    assert (backoff.step, backoff.detail["dt_scale"]) == (4, 0.5)
    restore, = [e for e in stats.recovery if e.action == "restore-dt"]
    assert restore.step == 4 + recovery.DT_RECOVERY_STEPS - 1
    assert bd._dt_scale == 1.0  # fully restored by the end


def test_dt_backoff_retry_reuses_the_steps_wave_noise():
    # force call 1 is step 2's first attempt, mid-block: its retry at
    # half dt reuses the step's half-spectrum draw (scaled like g), so
    # the block ends with the generator where a clean block leaves it
    susp = random_suspension(16, 0.15, seed=2)
    field = RepulsiveHarmonic(susp.box, susp.fluid)
    clean = _mf_integrator(susp, force_field=field)
    clean.run(susp.positions, 4)
    faulty = _mf_integrator(susp, FaultPlan(force_calls=(1,)),
                            force_field=field)
    final, stats = faulty.run(susp.positions, 4)
    assert np.all(np.isfinite(final))
    backoff, = [e for e in stats.recovery if e.action == "dt-backoff"]
    assert backoff.step == 2
    assert faulty.rng.bit_generator.state == clean.rng.bit_generator.state


def test_nan_displacement_block_rolls_back():
    susp = random_suspension(16, 0.1, seed=3)
    schedule = FaultPlan(brownian_nan_calls=(0,))
    bd = _mf_integrator(susp, schedule)
    final, stats = bd.run(susp.positions, 8)
    assert np.all(np.isfinite(final))
    assert stats.recovery.count(action="rollback") == 1
    assert stats.recovery.count(kind=FailureKind.NONFINITE_STATE,
                                action="detect") >= 1
    assert stats.n_steps == 8


def test_rollback_budget_exhaustion_raises():
    susp = random_suspension(12, 0.1, seed=4)
    # poison every displacement block: rollback can never succeed
    schedule = FaultPlan(brownian_nan_calls=tuple(range(50)))
    bd = _mf_integrator(susp, schedule)
    with pytest.raises(StepFailure):
        bd.run(susp.positions, 8)
    # the first block and MAX_ROLLBACKS replays of it
    assert schedule.count("brownian-nan") == recovery.MAX_ROLLBACKS + 1


def test_recovered_run_matches_fault_free_run_statistically():
    """A recovered trajectory stays physical: finite, inside the box scale."""
    susp = random_suspension(16, 0.1, seed=6)
    schedule = FaultPlan(brownian_calls=(0,), force_calls=(5,))
    bd = _mf_integrator(susp, schedule,
                        force_field=RepulsiveHarmonic(susp.box, susp.fluid))
    final, stats = bd.run(susp.positions, 16)
    # displacements stay O(sqrt(2 D dt)) — nothing exploded
    assert np.max(np.abs(final - susp.positions)) < susp.box.length


# ---------------------------------------------------------------------------
# bit-identity guarantees
# ---------------------------------------------------------------------------

def _reference_run(integrator, positions, n_steps):
    """The plain Ermak-McCammon loop, ``dr = M f dt + g`` per step, with
    the mobility rebuilt and the noise block drawn every ``lambda_RPY``
    steps and the step's own noise before its forces — no finite
    checks, no dt scale, no snapshot."""
    n = positions.shape[0]
    wrapped = integrator.box.wrap(positions)
    unwrapped = wrapped.copy()
    stats = BDStepStats()
    step = 0
    while step < n_steps:
        block = min(integrator.lambda_rpy, n_steps - step)
        integrator._prepare(wrapped)
        g = integrator._generate_displacements(block, stats)
        for col in range(block):
            noise = integrator._step_noise()
            f = integrator.force_field.forces(wrapped).reshape(3 * n)
            dr = integrator._displacement(f, g[:, col], noise,
                                          integrator.dt).reshape(n, 3)
            unwrapped += dr
            wrapped = integrator.box.wrap(wrapped + dr)
            step += 1
    return unwrapped


def _forced_simulation(susp, algorithm):
    forces = CompositeForce(RepulsiveHarmonic(susp.box, susp.fluid),
                            ConstantForce(np.array([0.5, -0.25, 1.0])))
    kwargs = {"pme_params": PARAMS} if algorithm == "matrix-free" else {}
    return Simulation(susp, algorithm=algorithm, force_field=forces,
                      dt=1e-3, lambda_rpy=4, seed=3, **kwargs)


def test_zero_fault_recovery_run_is_bit_identical():
    """With no fault, the always-guarded step loop is byte-for-byte the
    plain loop of both algorithms: the guard adds checks, never
    arithmetic."""
    susp = make_suspension(16, 0.1, seed=1)
    for algorithm in ("matrix-free", "ewald"):
        traj, stats = _forced_simulation(susp, algorithm).run(14)
        reference = _reference_run(
            _forced_simulation(susp, algorithm).integrator,
            susp.positions, 14)
        assert traj.positions[-1].tobytes() == reference.tobytes(), algorithm
        assert len(stats.recovery) == 0


def test_interrupted_resumed_run_with_recovery_is_bit_identical(tmp_path):
    """Interrupt + resume == the plain reference loop, bit-exact.

    (Resume-vs-uninterrupted bit-identity of ``run`` itself is covered
    in ``test_checkpoint.py``; here we pin that the guarded loop
    changes nothing about the resumed arithmetic when no fault fires.)
    """
    susp = random_suspension(16, 0.1, seed=7)
    forces = RepulsiveHarmonic(susp.box, susp.fluid)
    path = tmp_path / "ckpt.npz"
    run_checkpointed(path, _mf_integrator(susp, force_field=forces),
                     susp.positions, 8, interval=8)
    bd_resumed = _mf_integrator(susp, force_field=forces, seed=999)
    resumed, stats, step0, _ = run_checkpointed(path, bd_resumed,
                                                susp.positions, 12)
    assert step0 == 8 and len(stats.recovery) == 0

    reference = _reference_run(_mf_integrator(susp, force_field=forces),
                               susp.positions, 12)
    np.testing.assert_array_equal(resumed, reference)


# ---------------------------------------------------------------------------
# checkpoint fault injection
# ---------------------------------------------------------------------------

def test_checkpoint_kill_preserves_previous_checkpoint(tmp_path):
    susp = random_suspension(12, 0.1, seed=8)
    path = tmp_path / "run.ckpt.npz"
    schedule = FaultPlan(checkpoint_events={1: "kill"})
    log = RecoveryLog()
    # writes at steps 4 (ok), 8 (killed mid-write), 12 (ok)
    run_checkpointed(path, _mf_integrator(susp), susp.positions, 12,
                     save=faulty_checkpoint_save(schedule, log=log))
    assert log.count(action="inject-checkpoint-kill") == 1
    assert schedule.count("checkpoint") == 1
    # the atomic writer never tore a file: what survives is valid
    wrapped, unwrapped, step, rng = load_checkpoint(path)
    assert step == 12


def test_checkpoint_truncate_falls_back_to_previous(tmp_path):
    susp = random_suspension(12, 0.1, seed=9)
    path = tmp_path / "run.ckpt.npz"
    schedule = FaultPlan(checkpoint_events={2: "truncate"})
    log = RecoveryLog()
    # write 2 (step 12) truncated
    run_checkpointed(path, _mf_integrator(susp), susp.positions, 12,
                     save=faulty_checkpoint_save(schedule, log=log))
    assert log.count(action="inject-checkpoint-truncate") == 1

    from repro.errors import CheckpointCorruptionError

    with pytest.raises(CheckpointCorruptionError):
        load_checkpoint(path)
    # the rotated previous checkpoint (step 8) still resumes the run
    bd3 = _mf_integrator(susp, seed=999)
    resumed, _, step0, _ = run_checkpointed(path, bd3, susp.positions, 12)
    assert step0 == 8
    assert np.all(np.isfinite(resumed))


# ---------------------------------------------------------------------------
# acceptance soak: >= 1,000 steps under combined injected faults
# ---------------------------------------------------------------------------

def test_soak_1000_steps_with_injected_faults(tmp_path):
    susp = make_suspension(12, 0.1, seed=11)
    sim = Simulation(susp, dt=1e-3, lambda_rpy=10, seed=13,
                     pme_params=PARAMS)
    schedule = FaultPlan(seed=17, lanczos_failure_rate=0.05,
                             nan_force_rate=0.003,
                             checkpoint_events={5: "kill"})
    install_faults(sim.integrator, schedule)
    checkpoint_log = RecoveryLog()
    ckpt = tmp_path / "soak.ckpt.npz"
    traj, stats = sim.run(
        1000, record_interval=100, checkpoint_path=ckpt,
        checkpoint_interval=100,
        save=faulty_checkpoint_save(schedule, log=checkpoint_log))

    # completed without aborting
    assert stats.n_steps == 1000
    assert np.all(np.isfinite(traj.positions))

    # every injected fault is accounted for in the recovery log
    assert schedule.count("brownian") > 0, "soak injected no Lanczos faults"
    assert schedule.count("force") > 0, "soak injected no NaN forces"
    assert stats.recovery.count(
        action="detect", kind=FailureKind.LANCZOS_NONCONVERGENCE
    ) == schedule.count("brownian")
    assert stats.recovery.count(
        action="detect", kind=FailureKind.NONFINITE_FORCES
    ) == schedule.count("force")
    assert checkpoint_log.count(
        action="inject-checkpoint-kill") == schedule.count("checkpoint") == 1

    # every detected failure was answered by a recovery action
    lanczos_recoveries = (stats.recovery.count(action="retry-lanczos")
                          + stats.recovery.count(action="fallback-cholesky"))
    assert lanczos_recoveries >= 1
    assert stats.recovery.count(action="dt-backoff") >= 1

    # the surviving checkpoint is loadable despite the mid-write kill
    wrapped, unwrapped, step, rng = load_checkpoint(ckpt)
    assert step % 100 == 0 and step > 0
