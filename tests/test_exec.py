"""Tests for the execution-context layer (repro.exec).

The headline invariant: for a fixed kernel configuration the pipeline
produces **bit-identical** results with no explicit context (the
process default), on ``serial`` and on ``threads`` at any worker count.
The 8-colour reference schedule (repro.parallel.engine) is bit-identical
across backends too and agrees with the shipped row gather to 1e-12.
"""

import hashlib

import numpy as np
import pytest

from repro import Box
from repro.errors import ConfigurationError
from repro.exec import (
    INLINE,
    ExecutionContext,
    default_context,
    reset_default_context,
)
from repro.pme.operator import PMEOperator, PMEParams

BACKENDS = [("serial", 1), ("threads", 1), ("threads", 2), ("threads", 3)]


def digest(a: np.ndarray) -> str:
    return hashlib.sha256(np.ascontiguousarray(a).tobytes()).hexdigest()


@pytest.fixture
def system():
    box = Box(10.0)
    rng = np.random.default_rng(7)
    r = rng.uniform(0, box.length, size=(150, 3))
    params = PMEParams(xi=1.0, r_max=3.0, K=16, p=4)
    f = rng.standard_normal((3 * r.shape[0], 4))
    return box, r, params, f


# ---------------------------------------------------------------------------
# ExecutionContext basics
# ---------------------------------------------------------------------------

def test_context_defaults_from_config(monkeypatch):
    monkeypatch.setenv("REPRO_BACKEND", "threads")
    monkeypatch.setenv("REPRO_EXEC_WORKERS", "3")
    ctx = ExecutionContext()
    assert ctx.backend == "threads" and ctx.workers == 3
    ctx.close()


def test_serial_context_single_worker():
    ctx = ExecutionContext(backend="serial", workers=8)
    assert ctx.workers == 1
    ctx.close()


def test_unknown_backend_rejected():
    with pytest.raises(ConfigurationError, match="backend"):
        ExecutionContext(backend="gpu")


def test_close_is_idempotent_and_guards_use():
    ctx = ExecutionContext(backend="threads", workers=2)
    ctx.run_tasks([lambda: None])
    ctx.close()
    ctx.close()
    assert ctx.closed
    with pytest.raises(ConfigurationError, match="closed"):
        ctx.run_tasks([lambda: None])


@pytest.mark.parametrize("entry", ["env", "context", "cli", "cli-env"])
def test_processes_backend_rejected(entry, monkeypatch, capsys):
    # the validation that rejects ``gpu`` rejects the removed backend,
    # and names the two that remain
    if entry in ("cli", "cli-env"):
        from repro.cli import main

        argv = ["simulate", "-n", "10", "--steps", "1",
                "--backend", "processes"]
        if entry == "cli-env":      # same ending as the flag: no traceback
            monkeypatch.setenv("REPRO_BACKEND", "processes")
            argv = ["config", "show"]
        with pytest.raises(SystemExit) as usage:      # argparse
            main(argv)
        assert usage.value.code == 2
        message = capsys.readouterr().err
        assert "error:" in message and "Traceback" not in message
    else:
        with pytest.raises(ConfigurationError) as caught:
            if entry == "env":
                from repro.config import get_config

                monkeypatch.setenv("REPRO_BACKEND", "processes")
                get_config()
            else:
                ExecutionContext("processes")
        message = str(caught.value)
    assert "processes" in message
    assert "serial" in message and "threads" in message


def test_proc_pool_requires_processes_backend():
    # id pinned by the tier-1 floor; there is no process pool left to
    # require: the thread pool is the only one a context can own
    from repro.config import BACKENDS as configured

    assert configured == ("serial", "threads")
    with ExecutionContext(backend="threads", workers=2) as ctx:
        assert not hasattr(ctx, "proc_pool")
        assert ctx.thread_pool() is ctx.thread_pool()


def test_run_tasks_is_a_barrier():
    done = []
    with ExecutionContext(backend="threads", workers=4) as ctx:
        ctx.run_tasks([lambda i=i: done.append(i) for i in range(16)])
    assert sorted(done) == list(range(16))


def test_run_ranges_covers_each_index_once_with_no_empty_range():
    # the one place a stage is split: contiguous non-empty ranges that
    # cover [0, n) exactly once, dispatched through run_tasks
    import threading

    for backend, workers in BACKENDS + [("threads", 5)]:
        with ExecutionContext(backend=backend, workers=workers) as ctx:
            for n in (0, 1, 3, 16):
                seen = ctx.run_ranges(lambda lo, hi: (lo, hi), n)
                assert all(hi > lo for lo, hi in seen)
                assert len(seen) == min(n, ctx.workers)
                assert [i for lo, hi in seen for i in range(lo, hi)] \
                    == list(range(n))
    # one worker (and INLINE, what context=None means) runs on the caller
    me = threading.current_thread().name
    for ctx in (ExecutionContext("threads", workers=1), INLINE):
        assert ctx.run_ranges(
            lambda lo, hi: threading.current_thread().name, 8) == [me]
    # ... through run_tasks, stage passed on: what the suite patches
    calls = []
    with ExecutionContext("threads", workers=2) as ctx:
        ctx.run_tasks = lambda tasks, stage: calls.append((len(tasks), stage))
        ctx.run_ranges(lambda lo, hi: None, 8, "fft")
    assert calls == [(2, "fft")]


def test_run_tasks_threads_on_processes_backend():
    # id pinned by the tier-1 floor; thunks run on the context's own
    # ``repro-exec`` threads under ``threads``, inline under ``serial``
    import threading

    thunks = [lambda: threading.current_thread().name] * 4
    with ExecutionContext(backend="threads", workers=2) as ctx:
        names = ctx.run_tasks(thunks)
    assert all(name.startswith("repro-exec") for name in names)
    with ExecutionContext(backend="serial") as ctx:
        assert set(ctx.run_tasks(thunks)) == {threading.current_thread().name}


def test_second_processes_context_exits_clean(tmp_path):
    # id pinned by the tier-1 floor; two successive threads contexts in
    # one interpreter, plus a default context nobody closes, exit with
    # nothing on stderr and no shared-memory segment left behind
    import glob
    import os
    import subprocess
    import sys

    import repro

    script = tmp_path / "two_contexts.py"
    script.write_text(
        "import numpy as np\n"
        "from repro import Box\n"
        "from repro.exec import ExecutionContext\n"
        "from repro.pme.operator import PMEOperator, PMEParams\n"
        "box = Box(10.0)\n"
        "rng = np.random.default_rng(7)\n"
        "r = rng.uniform(0, box.length, size=(100, 3))\n"
        "params = PMEParams(xi=1.0, r_max=3.0, K=16, p=4)\n"
        "f = rng.standard_normal((300, 2))\n"
        "for _ in range(2):\n"
        "    with ExecutionContext('threads', workers=2) as ctx:\n"
        "        PMEOperator(r, box, params, context=ctx).apply_block(f)\n"
        "PMEOperator(r, box, params).apply_block(f)\n")
    before = set(glob.glob("/dev/shm/psm_*"))
    src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    done = subprocess.run([sys.executable, str(script)], capture_output=True,
                          text=True, timeout=120,
                          env={**os.environ, "PYTHONPATH": src,
                               "REPRO_BACKEND": "threads",
                               "REPRO_EXEC_WORKERS": "2"})
    assert done.returncode == 0
    assert done.stderr == ""
    assert set(glob.glob("/dev/shm/psm_*")) <= before


def test_default_context_none_on_serial(monkeypatch, system):
    # id pinned by the tier-1 floor; ``serial`` is never "no context":
    # it is a one-worker context that owns no pool, so an operator built
    # before a reset or a config flip keeps working
    box, r, params, f = system
    monkeypatch.delenv("REPRO_BACKEND", raising=False)
    reset_default_context()
    ctx = default_context()
    assert ctx.backend == "serial" and ctx.workers == 1
    op = PMEOperator(r, box, params)
    assert op.context is ctx
    first = op.apply_block(f)
    reset_default_context()
    monkeypatch.setenv("REPRO_BACKEND", "threads")
    try:
        assert default_context().backend == "threads"
        assert not ctx.closed
        np.testing.assert_array_equal(op.apply_block(f), first)
    finally:
        reset_default_context()


def test_default_context_shared_and_rebuilt(monkeypatch):
    monkeypatch.setenv("REPRO_BACKEND", "threads")
    monkeypatch.setenv("REPRO_EXEC_WORKERS", "2")
    reset_default_context()
    try:
        ctx = default_context()
        assert ctx is not None and ctx.backend == "threads"
        assert default_context() is ctx
        monkeypatch.setenv("REPRO_EXEC_WORKERS", "3")
        rebuilt = default_context()
        assert rebuilt is not ctx and rebuilt.workers == 3
    finally:
        reset_default_context()


# ---------------------------------------------------------------------------
# the headline invariant: bit-identity across backends
# ---------------------------------------------------------------------------

def test_spread_interpolate_digest_bit_identity(system, kernel_mode):
    from repro.parallel.engine import ColoredPMEEngine
    from repro.pme.spread import InterpolationMatrix

    box, r, params, _ = system
    K, p = params.K, params.p
    interp = InterpolationMatrix(r, box, K, p)
    rng = np.random.default_rng(3)
    vals = rng.standard_normal((r.shape[0], 6))
    mesh_in = rng.standard_normal((6, K ** 3))

    # the shipped spreader: one digest with no context and on every
    # backend; a 3-lane operand scatters by particle on one worker and
    # gathers on several, with the same bytes
    vals3 = np.ascontiguousarray(vals[:, :3])
    mesh_ref = interp.spread_batch(vals)
    mesh3_ref = interp.spread_batch(vals3)
    part_ref = interp.interpolate_batch(mesh_in)
    spread_digests, interp_digests = {digest(mesh_ref)}, {digest(part_ref)}
    spread3_digests = {digest(mesh3_ref)}
    for backend, workers in BACKENDS:
        with ExecutionContext(backend=backend, workers=workers) as ctx:
            spread_digests.add(digest(
                interp.spread_batch(vals, context=ctx)))
            spread3_digests.add(digest(
                interp.spread_batch(vals3, context=ctx)))
            interp_digests.add(digest(
                interp.interpolate_batch(mesh_in, context=ctx)))
    assert len(spread_digests) == 1
    assert len(spread3_digests) == 1
    assert len(interp_digests) == 1
    np.testing.assert_array_equal(mesh3_ref, mesh_ref[:3])
    np.testing.assert_allclose(mesh_ref, interp.spread(vals).T, atol=1e-12)
    np.testing.assert_allclose(part_ref, interp.interpolate(mesh_in.T).T,
                               atol=1e-12)

    # the IV.B.2 reference schedule: one digest of its own, same numbers
    spread_digests, interp_digests = set(), set()
    for backend, workers in BACKENDS:
        with ExecutionContext(backend=backend, workers=workers) as ctx:
            engine = ColoredPMEEngine(
                r, box, K, p, weights=interp.weights,
                columns=interp.columns, context=ctx)
            mesh_out = np.empty((6, K ** 3))
            engine.spread_batch(vals, out=mesh_out)
            spread_digests.add(digest(mesh_out))
            part_out = np.empty((6, r.shape[0]))
            engine.interpolate_batch(mesh_in, out=part_out)
            interp_digests.add(digest(part_out))
            np.testing.assert_allclose(mesh_out, mesh_ref, atol=1e-12)
            np.testing.assert_allclose(part_out, part_ref, atol=1e-12)
    assert len(spread_digests) == 1
    assert len(interp_digests) == 1


def test_apply_block_bit_identity_and_legacy_agreement(system, kernel_mode):
    box, r, params, f = system
    legacy = PMEOperator(r, box, params).apply_block(f)
    digests = {digest(legacy)}          # no explicit context: the default
    for backend, workers in BACKENDS:
        with ExecutionContext(backend=backend, workers=workers) as ctx:
            op = PMEOperator(r, box, params, context=ctx)
            u = op.apply_block(f)
            digests.add(digest(u))
            np.testing.assert_array_equal(u, legacy)
    assert len(digests) == 1, "backends disagree bitwise"


def test_noise_carrying_apply_bit_identity(system, kernel_mode):
    # the fused drift + wave-space noise pass of MatrixFreeBD, and the
    # noise-only pass of a force-free step: the same bytes with no
    # context and on every backend, like the apply
    box, r, params, f = system
    rng = np.random.default_rng(8)
    plain = PMEOperator(r, box, params)
    noise = np.stack([plain.influence.white_noise(rng)
                      for _ in range(f.shape[1])], axis=1)
    legacy = (plain.apply_block(f, noise=noise),
              plain.apply_reciprocal(None, noise))
    for backend, workers in BACKENDS:
        with ExecutionContext(backend=backend, workers=workers) as ctx:
            op = PMEOperator(r, box, params, context=ctx)
            for got, want in zip((op.apply_block(f, noise=noise),
                                  op.apply_reciprocal(None, noise)),
                                 legacy):
                assert digest(got) == digest(want), (backend, workers)
    # the fused pass is the drift plus the noise-only pass
    np.testing.assert_allclose(
        legacy[0], plain.apply_block(f) + plain.fluid.mobility0 * legacy[1],
        rtol=0, atol=1e-12 * np.abs(legacy[0]).max())


def test_forward_fft_lanes_independent_of_workers(set_kernel_mode,
                                                  monkeypatch):
    # a worker transforms its lane range with one call per pass, and the
    # bytes are the per-lane transforms': those of np.fft.rfftn forward
    # and of SciPy's stacked c2c + c2r pair inverse, whatever the range
    # (backend, worker count, lane count), the kernel mode or whether
    # np.fft takes out=
    import scipy.fft as sfft

    from repro.pme import operator as pme_operator
    from repro.pme.operator import _irfftn_lanes, _rfftn_lanes

    fft_out = pme_operator._FFT_OUT
    for K in (9, 12, 15, 24, 40):
        for lanes in (3, 7, 24):
            mesh = np.random.default_rng(K + lanes).standard_normal(
                (lanes, K, K, K))
            spec = np.stack([np.fft.rfftn(lane) for lane in mesh])
            inverse = sfft.irfft(sfft.ifftn(spec, axes=(1, 2)), n=K, axis=3)
            for lanes_fft, src, ref in ((_rfftn_lanes, mesh, spec),
                                        (_irfftn_lanes, spec, inverse)):
                out = np.empty_like(ref)
                for arm in (fft_out, False):        # numpy < 2 arm
                    monkeypatch.setattr(pme_operator, "_FFT_OUT", arm)
                    for no_ckernel in (False, True):
                        set_kernel_mode(no_ckernel)
                        for backend, workers in BACKENDS:
                            with ExecutionContext(backend=backend,
                                                  workers=workers) as ctx:
                                out[...] = 0.0
                                lanes_fft(src.copy(), out, ctx)  # eats src
                            assert out.tobytes() == ref.tobytes(), (
                                lanes_fft.__name__, K, lanes, arm,
                                no_ckernel, backend, workers)


def test_parallel_apply_repeatable(system):
    # repeated applications on the same threaded operator are bitwise
    # stable (no scheduling-order dependence)
    box, r, params, f = system
    with ExecutionContext(backend="threads", workers=4) as ctx:
        op = PMEOperator(r, box, params, context=ctx)
        first = op.apply_block(f)
        for _ in range(3):
            np.testing.assert_array_equal(op.apply_block(f), first)


def test_warm_apply_allocates_no_mesh_block(set_kernel_mode):
    # every stage of a pass writes into the cached workspaces: a warm
    # apply_block peaks at its own result, an order below the
    # (lanes, K^3) block the inverse used to return
    import tracemalloc

    from repro import make_suspension
    from repro.sparse import kernel_available

    set_kernel_mode(False)
    if not kernel_available():
        pytest.skip("the SciPy fallback gathers allocate per chunk")
    n, s = 200, 8
    susp = make_suspension(n, 0.2, seed=0)
    params = PMEParams(xi=0.5, r_max=4.0, K=24, p=6)
    f = np.random.default_rng(0).standard_normal((3 * n, s))
    for backend, workers in (("serial", 1), ("threads", 2)):
        with ExecutionContext(backend=backend, workers=workers) as ctx:
            op = PMEOperator(susp.positions, susp.box, params, context=ctx)
            op.apply_block(f)
            op.apply_block(f)
            tracemalloc.start()
            try:
                op.apply_block(f)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert peak < 2 * params.K ** 3 * 16 + f.nbytes, (backend, peak)


def test_apply_reciprocal_leaves_velocities_in_mesh_workspace(system):
    # the inverse FFT writes the lanes the forward FFT consumed: after
    # the call the velocities' mesh field is the "mesh" workspace itself
    box, r, params, f = system
    n, s, K = r.shape[0], f.shape[1], params.K
    op = PMEOperator(r, box, params)
    u = op.apply_reciprocal(f)
    ws = op.cache.workspace(K, 3 * s, n)
    assert set(ws) == {"mesh", "spec", "particle"}
    again = op.interp.interpolate_batch(ws["mesh"])
    np.testing.assert_array_equal(
        again.reshape(3, s, n).transpose(2, 0, 1).reshape(3 * n, s), u)


def test_real_spmm_context_matches_serial(system, set_kernel_mode):
    # row chunks of the C kernel are independent; the SciPy fallback
    # ignores the context: either way the no-context bytes come back
    box, r, params, f = system
    for no_ckernel in (False, True):
        set_kernel_mode(no_ckernel)
        op = PMEOperator(r, box, params)
        serial = op.real.apply_block(f)
        for backend, workers in BACKENDS:
            with ExecutionContext(backend=backend, workers=workers) as ctx:
                np.testing.assert_array_equal(
                    op.real.apply_block(f, context=ctx), serial)


def test_exec_metrics_and_spans_recorded(system):
    from repro import obs

    box, r, params, f = system
    tracer = obs.Tracer()
    registry = obs.MetricsRegistry()
    prev_t = obs.set_tracer(tracer)
    prev_m = obs.set_metrics(registry)
    try:
        with ExecutionContext(backend="threads", workers=2) as ctx:
            op = PMEOperator(r, box, params, context=ctx)
            op.apply_block(f)
        default = default_context()
        PMEOperator(r, box, params).apply_block(f)
    finally:
        obs.set_tracer(prev_t)
        obs.set_metrics(prev_m)
    # the explicit context first, then the default path: both annotated
    for stage in ("pme.spread", "pme.interpolate"):
        first, second = [e.args for e in tracer.events
                         if e.name == stage and e.phase == "X"]
        assert (first["backend"], first["workers"]) == ("threads", 2)
        assert (second["backend"], second["workers"]) == (
            default.backend, default.workers)
    names = {fam["name"] for fam in registry.to_json()["metrics"]}
    assert "exec_tasks_total" in names
    assert "exec_queue_lag_seconds" in names


# ---------------------------------------------------------------------------
# integrator / ensemble integration
# ---------------------------------------------------------------------------

def test_simulation_accepts_context(system):
    from repro.core.simulation import Simulation
    from repro.systems.suspension import make_suspension

    susp = make_suspension(60, 0.1, seed=5)
    params = PMEParams(xi=0.9, r_max=3.0, K=16, p=4)
    with ExecutionContext(backend="threads", workers=2) as ctx:
        sim = Simulation(susp, dt=1e-3, lambda_rpy=4, seed=1,
                         pme_params=params, context=ctx)
        traj, stats = sim.run(4, record_interval=2)
        assert stats.n_steps == 4
        assert sim.integrator.operator.context is ctx


def test_ensemble_soak_1_vs_2_workers_threads(tmp_path, monkeypatch):
    """1-vs-N ensemble workers under the threads backend: same digests."""
    from repro.pme.operator import PMEParams
    from repro.runtime.supervisor import Supervisor
    from repro.runtime.tasks import TaskSpec

    monkeypatch.setenv("REPRO_BACKEND", "threads")
    monkeypatch.setenv("REPRO_EXEC_WORKERS", "2")
    pme = PMEParams(xi=0.9, r_max=3.0, K=16, p=4)
    specs = [TaskSpec(task_id=i, n=40, phi=0.1, n_steps=4, dt=1e-3,
                      lambda_rpy=2, seed=100 + i, system_seed=7, pme=pme)
             for i in range(3)]
    digests = []
    for n_workers in (1, 2):
        d = tmp_path / f"w{n_workers}"
        d.mkdir()
        sup = Supervisor(specs, str(d), n_workers=n_workers)
        result = sup.run()
        assert all(t.state.value == "done" for t in result.manifest.tasks)
        digests.append(result.digests)
    assert digests[0] == digests[1]
