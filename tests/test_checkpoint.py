"""Tests for simulation checkpointing and bit-exact resumption."""

import pathlib

import numpy as np
import pytest

from repro.core.checkpoint import (
    load_checkpoint,
    previous_checkpoint_path,
    run_checkpointed,
    save_checkpoint,
)
from repro.core.integrators import MatrixFreeBD
from repro.core.simulation import Simulation
from repro.errors import CheckpointCorruptionError, ConfigurationError
from repro.pme.operator import PMEParams
from repro.runtime.tasks import positions_digest
from repro.systems import make_suspension, random_suspension

PARAMS = PMEParams(xi=0.9, r_max=4.0, K=24, p=4)


def _integrator(susp, seed=5):
    return MatrixFreeBD(box=susp.box, force_field=None, dt=1e-3,
                        lambda_rpy=4, seed=seed, pme_params=PARAMS)


def test_rng_state_roundtrip(tmp_path):
    rng = np.random.default_rng(123)
    rng.standard_normal(100)       # advance the stream
    path = tmp_path / "c.npz"
    save_checkpoint(path, np.zeros((2, 3)), np.zeros((2, 3)), 7, rng)
    _, _, step, rng2 = load_checkpoint(path)
    assert step == 7
    np.testing.assert_array_equal(rng2.standard_normal(10),
                                  rng.standard_normal(10))


def test_bit_exact_resumption(tmp_path):
    susp = random_suspension(20, 0.1, seed=1)

    # uninterrupted run: 12 steps
    bd_full = _integrator(susp)
    full, _ = bd_full.run(susp.positions, 12)

    # interrupted run: 8 steps, checkpoint, resume 4 (block-aligned:
    # 8 and 12 are multiples of lambda_rpy=4)
    path = tmp_path / "ckpt.npz"
    run_checkpointed(path, _integrator(susp), susp.positions, 8, interval=8)
    bd_resumed = _integrator(susp, seed=999)   # seed replaced on resume
    resumed, stats, step0, _ = run_checkpointed(path, bd_resumed,
                                                susp.positions, 12)

    assert (step0, stats.n_steps) == (8, 4)
    np.testing.assert_array_equal(resumed, full)


def test_graceful_stop_mid_block_resumes_bit_exactly(tmp_path):
    # a stop requested after step 6 of a lambda_rpy=4 run must end the
    # run at the block boundary (step 8): continuing from a mid-block
    # checkpoint would rebuild the mobility and redraw the noise at a
    # step the uninterrupted run does not
    susp = make_suspension(16, 0.1, seed=4)

    def simulation():
        return Simulation(susp, dt=1e-3, lambda_rpy=4, seed=6,
                          pme_params=PARAMS)

    full, _ = simulation().run(12)

    seen = []
    path = tmp_path / "stopped.ckpt.npz"
    _, stats, _, _ = run_checkpointed(
        path, simulation().integrator, susp.positions, 12,
        callback=lambda step, w, u: seen.append(step),
        stop=lambda: seen[-1] >= 6)
    assert stats.stopped_early
    assert stats.n_steps == 8
    assert load_checkpoint(path)[2] == 8

    resumed, _ = simulation().run(12, checkpoint_path=str(path))
    assert positions_digest(resumed.positions[-1]) == \
        positions_digest(full.positions[-1])


def test_graceful_stop_off_the_interval_writes_a_final_checkpoint(tmp_path):
    susp = random_suspension(16, 0.1, seed=5)
    path = tmp_path / "c.npz"
    _, stats, _, _ = run_checkpointed(path, _integrator(susp),
                                      susp.positions, 12, interval=8,
                                      stop=lambda: True)
    assert stats.stopped_early and stats.n_steps == 4
    assert load_checkpoint(path)[2] == 4


def test_a_run_ending_off_the_interval_checkpoints_its_last_step(tmp_path):
    # 10 steps at lambda_rpy=4: checkpoints at 4 and 8, then a final one
    # at 10, so the rerun of the finished run takes no steps
    susp = random_suspension(16, 0.1, seed=5)
    path = tmp_path / "c.npz"
    final, stats, _, _ = run_checkpointed(path, _integrator(susp),
                                          susp.positions, 10)
    assert stats.n_steps == 10
    assert load_checkpoint(path)[2] == 10
    assert load_checkpoint(previous_checkpoint_path(path))[2] == 8

    again, stats, step0, _ = run_checkpointed(path, _integrator(susp),
                                              susp.positions, 10)
    assert (step0, stats.n_steps) == (10, 0)
    assert positions_digest(again) == positions_digest(final)


def test_rerun_on_a_checkpoint_takes_only_the_remaining_steps(tmp_path):
    # a requeued run (the same call on the same checkpoint path) must
    # continue the checkpoint, not restart at step 0 and rotate it away
    susp = make_suspension(16, 0.1, seed=4)

    def simulation():
        return Simulation(susp, dt=1e-3, lambda_rpy=4, seed=6,
                          pme_params=PARAMS)

    full, _ = simulation().run(12)

    path = str(tmp_path / "run.ckpt.npz")
    _, first = simulation().run(12, checkpoint_path=path, stop=lambda: True)
    assert first.stopped_early and first.n_steps == 4

    sim = simulation()
    traj, stats = sim.run(12, checkpoint_path=path)
    assert stats.n_steps == 8 and sim.step == 12
    assert traj.times[0] == pytest.approx(4e-3)
    np.testing.assert_array_equal(traj.positions, full.positions[4:])
    assert positions_digest(traj.positions[-1]) == \
        positions_digest(full.positions[-1])

    # the finished checkpoint leaves nothing to run
    sim = simulation()
    traj, stats = sim.run(12, checkpoint_path=path)
    assert stats.n_steps == 0 and sim.step == 12
    assert positions_digest(traj.positions[-1]) == \
        positions_digest(full.positions[-1])


def test_resume_offsets_callback_steps(tmp_path):
    susp = random_suspension(15, 0.1, seed=2)
    path = tmp_path / "c.npz"
    run_checkpointed(path, _integrator(susp), susp.positions, 4)
    steps = []
    run_checkpointed(path, _integrator(susp), susp.positions, 8,
                     callback=lambda s, w, u: steps.append(s))
    assert steps == [5, 6, 7, 8]


def test_unaligned_interval_warns(tmp_path):
    susp = random_suspension(16, 0.1, seed=3)
    bd = _integrator(susp)
    with pytest.warns(UserWarning, match="lambda_RPY"):
        run_checkpointed(tmp_path / "c.npz", bd, susp.positions, 3,
                         interval=3)


def test_rejects_foreign_file(tmp_path):
    path = tmp_path / "x.npz"
    np.savez(path, nothing=np.ones(2))
    with pytest.raises(ConfigurationError):
        load_checkpoint(path)


def test_interval_validation(tmp_path):
    susp = random_suspension(10, 0.1, seed=4)
    bd = _integrator(susp)
    with pytest.raises(ConfigurationError):
        run_checkpointed(tmp_path / "c.npz", bd, susp.positions, 4,
                         interval=0)


# ---------------------------------------------------------------------------
# corruption detection, atomic writes, rotation and fallback
# ---------------------------------------------------------------------------

def _write_checkpoint(path, step=7, seed=123):
    rng = np.random.default_rng(seed)
    wrapped = rng.random((4, 3))
    save_checkpoint(path, wrapped, wrapped + 1.0, step, rng)
    return path


def test_truncated_checkpoint_raises_corruption(tmp_path):
    path = _write_checkpoint(tmp_path / "c.npz")
    size = path.stat().st_size
    with open(path, "r+b") as fh:
        fh.truncate(size // 2)
    with pytest.raises(CheckpointCorruptionError):
        load_checkpoint(path)


def test_bitflipped_checkpoint_fails_checksum(tmp_path):
    import struct
    import zipfile

    path = _write_checkpoint(tmp_path / "c.npz")
    with zipfile.ZipFile(path) as archive:
        info = archive.getinfo("wrapped.npy")
    raw = bytearray(path.read_bytes())
    # flip one byte inside the wrapped-positions member's data: the
    # deflate stream / zip CRC breaks, or — were the byte to survive
    # decompression — the embedded SHA-256 catches the altered payload
    name_len, extra_len = struct.unpack_from("<HH", raw,
                                             info.header_offset + 26)
    data_start = info.header_offset + 30 + name_len + extra_len
    raw[data_start + info.compress_size // 2] ^= 0xFF
    path.write_bytes(bytes(raw))
    with pytest.raises(CheckpointCorruptionError):
        load_checkpoint(path)


def test_missing_checksum_rejected(tmp_path):
    # a version-2 archive without a checksum member is not a checkpoint
    path = tmp_path / "c.npz"
    np.savez(path, format_version=2, wrapped=np.zeros((2, 3)),
             unwrapped=np.zeros((2, 3)), step=1,
             rng_state=np.frombuffer(b"{}", dtype=np.uint8))
    with pytest.raises(ConfigurationError):
        load_checkpoint(path)


def test_save_is_atomic_on_write_failure(tmp_path, monkeypatch):
    path = _write_checkpoint(tmp_path / "c.npz", step=1)
    before = path.read_bytes()

    def exploding_savez(*args, **kwargs):
        raise OSError("disk full")

    monkeypatch.setattr(np, "savez_compressed", exploding_savez)
    rng = np.random.default_rng(0)
    with pytest.raises(OSError):
        save_checkpoint(path, np.ones((2, 3)), np.ones((2, 3)), 2, rng)
    # the old checkpoint is untouched and no temp files leak
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["c.npz"]
    _, _, step, _ = load_checkpoint(path)
    assert step == 1


def test_callback_rotates_previous_checkpoint(tmp_path):
    susp = random_suspension(16, 0.1, seed=6)
    path = tmp_path / "c.npz"
    run_checkpointed(path, _integrator(susp), susp.positions, 8)
    prev = pathlib.Path(previous_checkpoint_path(path))
    assert path.exists() and prev.exists()
    _, _, latest_step, _ = load_checkpoint(path)
    _, _, prev_step, _ = load_checkpoint(prev)
    assert (latest_step, prev_step) == (8, 4)


def test_fallback_loads_previous_when_latest_corrupt(tmp_path):
    path = tmp_path / "c.npz"
    _write_checkpoint(tmp_path / (path.name + ".prev"), step=4)
    _write_checkpoint(path, step=8)
    with open(path, "r+b") as fh:
        fh.truncate(10)

    # the step-4 checkpoint of a 4-step run is the finished run: its
    # stored unwrapped positions come back unchanged
    stored = load_checkpoint(tmp_path / (path.name + ".prev"))[1]
    bd = _integrator(random_suspension(10, 0.1, seed=3))
    final, stats, step0, _ = run_checkpointed(path, bd, None, 4)
    assert (step0, stats.n_steps) == (4, 0)
    assert final.tobytes() == stored.tobytes()


def test_fallback_starts_at_step_zero_when_both_unusable(tmp_path):
    susp = random_suspension(16, 0.1, seed=6)
    path = tmp_path / "c.npz"
    for p in (tmp_path / (path.name + ".prev"), path):
        _write_checkpoint(p)
        with open(p, "r+b") as fh:
            fh.truncate(10)
    fresh, _ = _integrator(susp).run(susp.positions, 4)
    final, stats, step0, _ = run_checkpointed(path, _integrator(susp),
                                              susp.positions, 4)
    assert (step0, stats.n_steps) == (0, 4)
    assert final.tobytes() == fresh.tobytes()
    assert load_checkpoint(path)[2] == 4


def test_resume_falls_back_to_rotated_checkpoint(tmp_path):
    susp = random_suspension(16, 0.1, seed=9)
    path = tmp_path / "c.npz"
    run_checkpointed(path, _integrator(susp), susp.positions, 8)
    with open(path, "r+b") as fh:       # corrupt the latest (step 8)
        fh.truncate(20)
    bd2 = _integrator(susp, seed=999)
    final, stats, step0, _ = run_checkpointed(path, bd2, susp.positions, 8)
    assert (step0, stats.n_steps) == (4, 4)  # continued step 4 instead
    assert np.all(np.isfinite(final))


def test_version1_checkpoint_still_loads(tmp_path):
    # forward-compat: archives written before checksums were added
    import json

    rng = np.random.default_rng(5)
    state = json.dumps(rng.bit_generator.state)
    path = tmp_path / "old.npz"
    np.savez(path, format_version=1, wrapped=np.zeros((2, 3)),
             unwrapped=np.zeros((2, 3)), step=3,
             rng_state=np.frombuffer(state.encode(), dtype=np.uint8))
    wrapped, unwrapped, step, rng2 = load_checkpoint(path)
    assert step == 3
    np.testing.assert_array_equal(rng2.standard_normal(4),
                                  rng.standard_normal(4))
