"""Fault-injection tests for the recovery runtime (repro.resilience).

Every recovery path is exercised with deterministic injected faults:
the Lanczos retry -> Chebyshev -> dense-reference ladder, NaN-force
dt backoff, NaN-displacement block rollback, and checkpoint corruption
fallback.  The soak test at the bottom is the acceptance run: >= 1,000
steps under injected Lanczos non-convergence, NaN forces and one
mid-write checkpoint kill, completing with every injected fault
accounted for in the RecoveryLog.
"""

import numpy as np
import pytest

from repro.core.brownian import CholeskyBrownianGenerator, KrylovBrownianGenerator
from repro.core.checkpoint import load_checkpoint, resume
from repro.core.integrators import MatrixFreeBD
from repro.core.simulation import Simulation
from repro.errors import ConfigurationError, ConvergenceError
from repro.krylov.block_lanczos import block_lanczos_sqrt
from repro.krylov.chebyshev import chebyshev_sqrt
from repro.krylov.reference import cholesky_displacements, dense_sqrt_apply
from repro.pme.operator import PMEParams
from repro.resilience import (
    FailureKind,
    RecoveryLog,
    RecoveryPolicy,
    StepFailure,
    cholesky_displacements_resilient,
    krylov_displacements_resilient,
)
from repro.resilience.faults import (
    FaultPlan,
    FaultyForceField,
    faulty_checkpoint_callback,
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
    return m, (lambda v: m @ v), z


# ---------------------------------------------------------------------------
# solver diagnostics attached to ConvergenceError (satellite)
# ---------------------------------------------------------------------------

def test_block_lanczos_error_carries_partial_iterate():
    m, matvec, z = _spd_problem()
    with pytest.raises(ConvergenceError) as exc_info:
        block_lanczos_sqrt(matvec, z, tol=1e-10, max_iter=2)
    err = exc_info.value
    assert err.best_iterate is not None and err.best_iterate.shape == z.shape
    assert err.iterations == 2
    assert err.n_matvecs == 2 * z.shape[1]
    assert err.rel_change == err.residual


def test_chebyshev_error_carries_best_evaluation():
    m, matvec, z = _spd_problem()
    # condition number too large for a degree-8 cap at tight tolerance
    with pytest.raises(ConvergenceError) as exc_info:
        chebyshev_sqrt(matvec, z, 1e-9, 1e3, tol=1e-12, max_degree=8)
    err = exc_info.value
    assert err.best_iterate is not None and err.best_iterate.shape == z.shape
    assert np.all(np.isfinite(err.best_iterate))
    assert err.n_matvecs > 0


# ---------------------------------------------------------------------------
# the degradation ladder (unit level)
# ---------------------------------------------------------------------------

def test_ladder_retry_with_grown_budget():
    m, matvec, z = _spd_problem()
    gen = KrylovBrownianGenerator(kT=0.5, dt=1.0, tol=1e-6, max_iter=2)
    log = RecoveryLog()
    y, info = krylov_displacements_resilient(gen, matvec, z,
                                             RecoveryPolicy(), log, step=0)
    ref = dense_sqrt_apply(m, z)
    np.testing.assert_allclose(y, ref, rtol=1e-5)
    assert log.count(action="retry-lanczos") == 1
    assert log.count(action="detect",
                     kind=FailureKind.LANCZOS_NONCONVERGENCE) >= 1
    # the retry loosens then the next tightens back to the original tol
    retries = [e for e in log if e.action == "detect" and e.attempt > 0]
    assert retries[0].detail["tol"] == pytest.approx(1e-6 * 10.0)


def test_ladder_chebyshev_fallback():
    m, matvec, z = _spd_problem()
    gen = KrylovBrownianGenerator(kT=0.5, dt=1.0, tol=1e-6, max_iter=2)
    log = RecoveryLog()
    policy = RecoveryPolicy(lanczos_retries=0)
    y, info = krylov_displacements_resilient(gen, matvec, z, policy, log, 0)
    np.testing.assert_allclose(y, dense_sqrt_apply(m, z), rtol=1e-4)
    assert [e.action for e in log] == ["detect", "fallback-chebyshev"]


def test_ladder_dense_fallback():
    m, matvec, z = _spd_problem()
    gen = KrylovBrownianGenerator(kT=0.5, dt=1.0, tol=1e-6, max_iter=2)
    log = RecoveryLog()
    policy = RecoveryPolicy(lanczos_retries=0, chebyshev_fallback=False)
    y, info = krylov_displacements_resilient(gen, matvec, z, policy, log, 0)
    # the dense rung samples via the Cholesky factor: a valid Brownian
    # sample with the exact covariance, reproducible from (m, z)
    np.testing.assert_allclose(
        y, cholesky_displacements(0.5 * (m + m.T), z), rtol=1e-10)
    assert log.count(action="fallback-cholesky") == 1


def test_ladder_dense_fallback_respects_dim_cap():
    m, matvec, z = _spd_problem()
    gen = KrylovBrownianGenerator(kT=0.5, dt=1.0, tol=1e-6, max_iter=2)
    policy = RecoveryPolicy(lanczos_retries=0, chebyshev_fallback=False,
                            dense_fallback_max_dim=10)
    with pytest.raises(StepFailure):
        krylov_displacements_resilient(gen, matvec, z, policy,
                                       RecoveryLog(), 0)


def test_ladder_accept_partial_iterate():
    m, matvec, z = _spd_problem()
    # enough iterations to get close (rel_change ~1e-3) but an
    # unreachable tolerance; accept the partial iterate instead
    gen = KrylovBrownianGenerator(kT=0.5, dt=1.0, tol=1e-14, max_iter=8)
    log = RecoveryLog()
    policy = RecoveryPolicy(lanczos_retries=0, chebyshev_fallback=False,
                            cholesky_fallback=False,
                            accept_partial_rel_change=1.0)
    y, info = krylov_displacements_resilient(gen, matvec, z, policy, log, 0)
    assert log.count(action="accept-partial") == 1
    assert info is not None and not info.converged
    ref = dense_sqrt_apply(m, z)
    assert np.linalg.norm(y - ref) / np.linalg.norm(ref) < 0.02


def test_ladder_escalates_when_exhausted():
    m, matvec, z = _spd_problem()
    gen = KrylovBrownianGenerator(kT=0.5, dt=1.0, tol=1e-10, max_iter=2)
    policy = RecoveryPolicy(lanczos_retries=0, chebyshev_fallback=False,
                            cholesky_fallback=False)
    with pytest.raises(StepFailure) as exc_info:
        krylov_displacements_resilient(gen, matvec, z, policy,
                                       RecoveryLog(), 0)
    assert exc_info.value.kind is FailureKind.LANCZOS_NONCONVERGENCE


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
    y = cholesky_displacements_resilient(gen, m, z, RecoveryPolicy(), log, 0)
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

def _mf_integrator(susp, schedule=None, policy=None, seed=5, **kwargs):
    bd = MatrixFreeBD(box=susp.box, force_field=kwargs.pop("force_field", None),
                      dt=1e-3, lambda_rpy=4, seed=seed, pme_params=PARAMS,
                      recovery=policy, **kwargs)
    if schedule is not None:
        install_faults(bd, schedule)
    return bd


def test_injected_lanczos_failure_recovers_by_retry():
    susp = random_suspension(16, 0.1, seed=1)
    schedule = FaultPlan(brownian_calls=(1,))
    bd = _mf_integrator(susp, schedule, RecoveryPolicy())
    final, stats = bd.run(susp.positions, 12)
    assert np.all(np.isfinite(final))
    assert schedule.count("brownian") == 1
    assert stats.recovery.count(
        action="detect", kind=FailureKind.LANCZOS_NONCONVERGENCE) == 1
    assert stats.recovery.count(action="retry-lanczos") == 1


def test_nan_force_triggers_dt_backoff_and_restore():
    susp = random_suspension(16, 0.15, seed=2)
    from repro.core.forces import RepulsiveHarmonic

    schedule = FaultPlan(force_calls=(3,))
    policy = RecoveryPolicy(dt_recovery_steps=2)
    bd = _mf_integrator(susp, schedule, policy,
                        force_field=RepulsiveHarmonic(susp.box, susp.fluid))
    final, stats = bd.run(susp.positions, 12)
    assert np.all(np.isfinite(final))
    assert stats.recovery.count(kind=FailureKind.NONFINITE_FORCES,
                                action="detect") == 1
    assert stats.recovery.count(action="dt-backoff") == 1
    assert stats.recovery.count(action="restore-dt") >= 1
    assert bd._dt_scale == 1.0  # fully restored by the end


def test_nan_displacement_block_rolls_back():
    susp = random_suspension(16, 0.1, seed=3)
    schedule = FaultPlan(brownian_nan_calls=(0,))
    policy = RecoveryPolicy(max_step_attempts=2)
    bd = _mf_integrator(susp, schedule, policy)
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
    policy = RecoveryPolicy(max_step_attempts=2, max_rollbacks=2)
    bd = _mf_integrator(susp, schedule, policy)
    with pytest.raises(StepFailure):
        bd.run(susp.positions, 8)


def test_recovered_run_matches_fault_free_run_statistically():
    """A recovered trajectory stays physical: finite, inside the box scale."""
    susp = random_suspension(16, 0.1, seed=6)
    schedule = FaultPlan(brownian_calls=(0,), force_calls=(5,))
    from repro.core.forces import RepulsiveHarmonic

    bd = _mf_integrator(susp, schedule, RecoveryPolicy(),
                        force_field=RepulsiveHarmonic(susp.box, susp.fluid))
    final, stats = bd.run(susp.positions, 16)
    # displacements stay O(sqrt(2 D dt)) — nothing exploded
    assert np.max(np.abs(final - susp.positions)) < susp.box.length


# ---------------------------------------------------------------------------
# bit-identity guarantees
# ---------------------------------------------------------------------------

def test_zero_fault_recovery_run_is_bit_identical():
    def trajectory(policy):
        susp = make_suspension(16, 0.1, seed=1)
        sim = Simulation(susp, dt=1e-3, lambda_rpy=4, seed=3,
                         recovery=policy, pme_params=PARAMS)
        traj, stats = sim.run(16, record_interval=4)
        return traj, stats

    plain, _ = trajectory(None)
    guarded, stats = trajectory(RecoveryPolicy())
    np.testing.assert_array_equal(plain.positions, guarded.positions)
    np.testing.assert_array_equal(plain.times, guarded.times)
    assert len(stats.recovery) == 0


def test_interrupted_resumed_run_with_recovery_is_bit_identical(tmp_path):
    """Interrupt + resume with a recovery policy == without one, bit-exact.

    (Resume-vs-uninterrupted bit-identity itself is covered in
    ``test_checkpoint.py``; here we pin that enabling recovery changes
    nothing about the resumed arithmetic when no fault fires.)
    """
    from repro.core.checkpoint import checkpoint_callback

    susp = random_suspension(16, 0.1, seed=7)

    def interrupted_run(policy):
        bd_part = _mf_integrator(susp, policy=policy)
        path = tmp_path / f"ckpt-{policy is not None}.npz"
        bd_part.run(susp.positions, 8,
                    callback=checkpoint_callback(path, bd_part, 8))
        bd_resumed = _mf_integrator(susp, policy=policy, seed=999)
        final, stats = resume(path, bd_resumed, 4)
        return final, stats

    plain, _ = interrupted_run(None)
    guarded, stats = interrupted_run(RecoveryPolicy())
    np.testing.assert_array_equal(guarded, plain)
    assert len(stats.recovery) == 0

    # and both agree with the uninterrupted run to rounding
    bd_full = _mf_integrator(susp, policy=RecoveryPolicy())
    full, _ = bd_full.run(susp.positions, 12)
    np.testing.assert_allclose(guarded, full, rtol=0, atol=1e-12)


# ---------------------------------------------------------------------------
# checkpoint fault injection
# ---------------------------------------------------------------------------

def test_checkpoint_kill_preserves_previous_checkpoint(tmp_path):
    susp = random_suspension(12, 0.1, seed=8)
    path = tmp_path / "run.ckpt.npz"
    schedule = FaultPlan(checkpoint_events={1: "kill"})
    log = RecoveryLog()
    bd = _mf_integrator(susp, policy=RecoveryPolicy())
    cb = faulty_checkpoint_callback(path, bd, 4, schedule, log=log)
    # writes at steps 4 (ok), 8 (killed mid-write), 12 (ok)
    bd.run(susp.positions, 12, callback=cb)
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
    bd = _mf_integrator(susp, policy=RecoveryPolicy())
    cb = faulty_checkpoint_callback(path, bd, 4, schedule, log=log)
    bd.run(susp.positions, 12)
    bd2 = _mf_integrator(susp, policy=RecoveryPolicy())
    bd2.run(susp.positions, 12, callback=cb)  # write 2 (step 12) truncated

    from repro.errors import CheckpointCorruptionError

    with pytest.raises(CheckpointCorruptionError):
        load_checkpoint(path)
    # the rotated previous checkpoint (step 8) still resumes the run
    bd3 = _mf_integrator(susp, policy=RecoveryPolicy(), seed=999)
    resumed, _ = resume(path, bd3, 4)
    assert np.all(np.isfinite(resumed))


# ---------------------------------------------------------------------------
# acceptance soak: >= 1,000 steps under combined injected faults
# ---------------------------------------------------------------------------

def test_soak_1000_steps_with_injected_faults(tmp_path):
    from repro.core.forces import RepulsiveHarmonic
    from repro.core.integrators import BDStepStats

    susp = make_suspension(12, 0.1, seed=11)
    policy = RecoveryPolicy(dt_recovery_steps=5)
    sim = Simulation(susp, dt=1e-3, lambda_rpy=10, seed=13,
                     recovery=policy, pme_params=PARAMS)
    schedule = FaultPlan(seed=17, lanczos_failure_rate=0.05,
                             nan_force_rate=0.003,
                             checkpoint_events={5: "kill"})
    install_faults(sim.integrator, schedule)
    stats = BDStepStats()
    ckpt = tmp_path / "soak.ckpt.npz"
    cb = faulty_checkpoint_callback(ckpt, sim.integrator, 100, schedule,
                                    log=stats.recovery)
    traj, stats = sim.run(1000, record_interval=100, extra_callback=cb,
                          stats=stats)

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
    assert stats.recovery.count(
        action="inject-checkpoint-kill") == schedule.count("checkpoint") == 1

    # every detected failure was answered by a recovery action
    lanczos_recoveries = (stats.recovery.count(action="retry-lanczos")
                          + stats.recovery.count(action="fallback-chebyshev")
                          + stats.recovery.count(action="fallback-cholesky"))
    assert lanczos_recoveries >= 1
    assert stats.recovery.count(action="dt-backoff") >= 1

    # the surviving checkpoint is loadable despite the mid-write kill
    wrapped, unwrapped, step, rng = load_checkpoint(ckpt)
    assert step % 100 == 0 and step > 0
