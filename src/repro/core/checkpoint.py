"""Simulation checkpointing.

Long production runs (the paper's Fig. 3 trajectories run for 500,000
steps over 10 hours) must survive interruption.  A checkpoint captures
everything needed to continue *bit-exactly*: the current wrapped
positions, the accumulated unwrapped offset, the step count and the
exact NumPy RNG state of the integrator.

Checkpoint writes are **crash-safe**: the archive is written to a
temporary file in the same directory, fsynced, and atomically renamed
over the destination, so a process kill mid-write never corrupts the
previous checkpoint.  Every checkpoint embeds a SHA-256 checksum of
its payload which :func:`load_checkpoint` verifies, raising
:class:`~repro.errors.CheckpointCorruptionError` on truncation or bit
rot; :func:`checkpoint_callback` additionally rotates the previous
checkpoint to ``<path>.prev`` so a corrupt latest file falls back to
the previous good one (:func:`load_checkpoint_with_fallback`).

The integrator state is deliberately *not* pickled: checkpoints are
plain ``.npz`` archives readable across library versions, and the
mobility representation is rebuilt on resume (it is rebuilt every
``lambda_RPY`` steps anyway).
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
import zipfile
import zlib

import numpy as np

from ..errors import CheckpointCorruptionError, ConfigurationError

__all__ = ["save_checkpoint", "load_checkpoint",
           "load_checkpoint_with_fallback", "load_resume_state",
           "previous_checkpoint_path", "resume", "checkpoint_callback",
           "fsync_directory"]

_FORMAT_VERSION = 2


def previous_checkpoint_path(path: str | os.PathLike) -> str:
    """The rotation target for ``path`` (``<path>.prev``)."""
    return str(path) + ".prev"


def fsync_directory(directory: str | os.PathLike) -> bool:
    """Flush a directory's entry table to stable storage.

    An atomic ``os.replace`` makes the *file contents* crash-safe, but
    the rename itself lives in the directory inode — until that is
    fsynced, a power loss can roll the directory back and the renamed
    checkpoint silently vanishes.  Called after every rename
    (:func:`save_checkpoint` and the ``.prev`` rotation in
    :func:`checkpoint_callback`).  Best-effort: returns ``False`` on
    filesystems that refuse ``open``/``fsync`` on directories (some
    network mounts) instead of failing the run.
    """
    try:
        dir_fd = os.open(os.fspath(directory), os.O_RDONLY)
    except OSError:
        return False
    try:
        os.fsync(dir_fd)
        return True
    except OSError:
        return False
    finally:
        os.close(dir_fd)


def _write_durably(path: str | os.PathLike, write, *, prefix: str,
                   mode: str) -> None:
    """Replace ``path`` with what ``write(fh)`` writes, crash-safely.

    The bytes are staged in a temporary file in the destination
    directory, flushed and fsynced, then moved into place with
    :func:`os.replace` (the temporary file is removed on any error), and
    the rename is persisted with :func:`fsync_directory` — without it
    the new file can vanish on power loss between rename and journal
    flush.  The one durable write of checkpoints and campaign manifests.
    """
    path = os.fspath(path)
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=prefix, suffix=".tmp")
    try:
        with os.fdopen(fd, mode) as fh:
            write(fh)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise
    fsync_directory(directory)


def _payload_checksum(wrapped: np.ndarray, unwrapped: np.ndarray,
                      step: int, state: str) -> str:
    """SHA-256 over a canonical serialization of the checkpoint payload."""
    h = hashlib.sha256()
    h.update(np.ascontiguousarray(wrapped).tobytes())
    h.update(np.ascontiguousarray(unwrapped).tobytes())
    h.update(str(int(step)).encode())
    h.update(state.encode())
    return h.hexdigest()


def save_checkpoint(path: str | os.PathLike, wrapped: np.ndarray,
                    unwrapped: np.ndarray, step: int,
                    rng: np.random.Generator) -> None:
    """Write a resumable checkpoint, atomically.

    Parameters
    ----------
    path:
        Output ``.npz`` path.
    wrapped, unwrapped:
        Current wrapped and unwrapped positions, shape ``(n, 3)``.
    step:
        Completed step count.
    rng:
        The integrator's generator; its full bit-generator state is
        serialized so the continued noise stream is identical to an
        uninterrupted run.

    Notes
    -----
    The archive is staged in a temporary file in the destination
    directory, flushed and fsynced, then moved into place with
    :func:`os.replace` — on any crash the destination holds either the
    complete old checkpoint or the complete new one, never a torn
    write.
    """
    wrapped = np.asarray(wrapped, dtype=np.float64)
    unwrapped = np.asarray(unwrapped, dtype=np.float64)
    state = json.dumps(rng.bit_generator.state)
    checksum = _payload_checksum(wrapped, unwrapped, step, state)

    def write(fh) -> None:
        np.savez_compressed(
            fh,
            format_version=_FORMAT_VERSION,
            wrapped=wrapped,
            unwrapped=unwrapped,
            step=int(step),
            rng_state=np.frombuffer(state.encode(), dtype=np.uint8),
            checksum=np.frombuffer(checksum.encode(), dtype=np.uint8),
        )

    _write_durably(path, write, prefix=".ckpt-", mode="wb")


def load_checkpoint(path: str | os.PathLike
                    ) -> tuple[np.ndarray, np.ndarray, int,
                               np.random.Generator]:
    """Read and verify a checkpoint; returns ``(wrapped, unwrapped, step, rng)``.

    Raises
    ------
    CheckpointCorruptionError
        If the file is not a readable archive (truncated mid-write by a
        non-atomic writer, for instance) or its embedded checksum does
        not match the payload (bit rot, partial overwrite).
    ConfigurationError
        If the file is a valid archive but not a repro checkpoint, or
        an unsupported format version.
    FileNotFoundError
        If ``path`` does not exist.
    """
    try:
        data = np.load(path)
    except FileNotFoundError:
        raise
    except (OSError, ValueError, zipfile.BadZipFile, EOFError,
            zlib.error) as exc:
        raise CheckpointCorruptionError(
            f"{path} is unreadable (truncated or corrupt archive): "
            f"{exc}") from exc
    with data:
        try:
            version = int(data["format_version"])
            wrapped = data["wrapped"]
            unwrapped = data["unwrapped"]
            step = int(data["step"])
            raw = bytes(data["rng_state"].tobytes())
            stored_checksum = (bytes(data["checksum"].tobytes()).decode()
                               if version >= 2 else None)
        except KeyError as exc:
            raise ConfigurationError(
                f"{path} is not a repro checkpoint: missing {exc}") from exc
        except (zipfile.BadZipFile, OSError, EOFError, ValueError,
                zlib.error) as exc:
            # zlib.error: a bit flip inside a deflated member breaks
            # the stream before the zip CRC is even checked
            raise CheckpointCorruptionError(
                f"{path} is corrupt (archive member unreadable): "
                f"{exc}") from exc
    if version not in (1, _FORMAT_VERSION):
        raise ConfigurationError(
            f"unsupported checkpoint format version {version}")
    state_json = raw.decode(errors="replace")
    if stored_checksum is not None:
        expected = _payload_checksum(wrapped, unwrapped, step, state_json)
        if stored_checksum != expected:
            raise CheckpointCorruptionError(
                f"{path} failed its integrity check "
                f"(stored {stored_checksum[:12]}..., "
                f"computed {expected[:12]}...)")
    try:
        state = json.loads(state_json)
    except json.JSONDecodeError as exc:
        raise CheckpointCorruptionError(
            f"{path} has an unparseable RNG state: {exc}") from exc
    rng = np.random.default_rng()
    rng.bit_generator.state = state
    return wrapped, unwrapped, step, rng


def load_checkpoint_with_fallback(path: str | os.PathLike
                                  ) -> tuple[np.ndarray, np.ndarray, int,
                                             np.random.Generator, str]:
    """Load ``path``, falling back to its rotated predecessor.

    Returns ``(wrapped, unwrapped, step, rng, used_path)`` where
    ``used_path`` names the file that actually loaded.  The fallback is
    attempted when the latest checkpoint is missing or fails integrity
    verification; if both fail, the *primary* error is raised (with the
    fallback failure attached as context).
    """
    prev = previous_checkpoint_path(path)
    try:
        wrapped, unwrapped, step, rng = load_checkpoint(path)
        return wrapped, unwrapped, step, rng, os.fspath(path)
    except (CheckpointCorruptionError, FileNotFoundError) as primary:
        try:
            wrapped, unwrapped, step, rng = load_checkpoint(prev)
        except (CheckpointCorruptionError, FileNotFoundError,
                ConfigurationError) as secondary:
            raise primary from secondary
        return wrapped, unwrapped, step, rng, prev


def load_resume_state(path: str | os.PathLike
                      ) -> tuple[np.ndarray, np.ndarray, int,
                                 np.random.Generator] | None:
    """The state a run re-started on ``path`` continues from.

    Returns ``(wrapped, unwrapped, step, rng)`` from ``path`` (with the
    ``<path>.prev`` fallback), or ``None`` to start from step 0: when
    there is no checkpoint, and when both rotation generations are
    unusable — then the only deterministic recovery is a fresh start
    (same configuration -> same trajectory).  Shared by
    :meth:`repro.core.simulation.Simulation.run` and the ensemble
    worker.
    """
    try:
        wrapped, unwrapped, step, rng, _used = (
            load_checkpoint_with_fallback(path))
    except (FileNotFoundError, CheckpointCorruptionError,
            ConfigurationError):
        return None
    return wrapped, unwrapped, step, rng


def resume(path: str | os.PathLike, integrator, n_steps: int,
           callback=None, fallback: bool = True):
    """Continue an integrator run from a checkpoint.

    The integrator's RNG is replaced by the checkpointed one and
    propagation restarts from the stored positions.  With the same
    integrator configuration the combined (pre-checkpoint +
    resumed) trajectory is bit-identical to an uninterrupted run —
    tested in ``tests/test_checkpoint.py``.

    With ``fallback=True`` (default) a corrupt or missing latest
    checkpoint falls back to the rotated ``<path>.prev`` written by
    :func:`checkpoint_callback`.

    Returns ``(unwrapped, stats)`` like
    :meth:`repro.core.integrators.BrownianDynamicsBase.run`; the
    returned unwrapped positions continue the stored unwrapped frame.
    """
    if fallback:
        wrapped, unwrapped_start, step0, rng, _used = (
            load_checkpoint_with_fallback(path))
    else:
        wrapped, unwrapped_start, step0, rng = load_checkpoint(path)
    integrator.rng = rng

    shifted_callback = None
    if callback is not None:
        def shifted_callback(step, w, u):
            callback(step0 + step, w, u)

    # continuing the stored unwrapped frame inside the integrator (not
    # re-adding the image offset afterwards) keeps the continuation
    # byte-for-byte identical to an uninterrupted run
    return integrator.run(wrapped, n_steps, callback=shifted_callback,
                          unwrapped0=unwrapped_start)


def checkpoint_callback(path: str | os.PathLike, integrator,
                        interval: int, _save=save_checkpoint):
    """A run callback writing a checkpoint every ``interval`` steps.

    The existing checkpoint is rotated to ``<path>.prev`` before each
    write, so even if the latest file is later found corrupt (bit rot,
    torn copy by an external tool) the run can restart from the
    previous good one via :func:`load_checkpoint_with_fallback`.

    ``_save`` is an internal injection point used by the
    fault-injection harness
    (:func:`repro.resilience.faults.faulty_checkpoint_callback`).

    For *bit-exact* resumption, ``interval`` should be a multiple of
    the integrator's ``lambda_RPY``: the noise for a mobility block is
    drawn all at once, so only block-aligned checkpoints see the RNG in
    a resumable position.  (Non-aligned checkpoints still resume to a
    statistically equivalent trajectory.)

    Usage::

        bd.run(r0, 1000,
               callback=checkpoint_callback("run.ckpt.npz", bd, 100))
    """
    if interval < 1:
        raise ConfigurationError(f"interval must be >= 1, got {interval}")
    if interval % integrator.lambda_rpy != 0:
        import warnings
        warnings.warn(
            f"checkpoint interval {interval} is not a multiple of "
            f"lambda_RPY={integrator.lambda_rpy}; resumed trajectories "
            "will be statistically equivalent but not bit-identical",
            stacklevel=2)
    path = os.fspath(path)

    def callback(step, wrapped, unwrapped):
        if step % interval == 0:
            if os.path.exists(path):
                os.replace(path, previous_checkpoint_path(path))
                # make the rotation durable too: otherwise a power loss
                # after the (durable) new write could resurface a state
                # where <path> vanished but .prev never appeared
                fsync_directory(os.path.dirname(os.path.abspath(path)))
            _save(path, wrapped, unwrapped, step, integrator.rng)

    return callback
