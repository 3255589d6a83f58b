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
rot.  :func:`run_checkpointed`, the one lifecycle of a checkpointed
run, rotates the previous checkpoint to ``<path>.prev`` before each
write and falls back to it when the latest file is unusable.

The integrator state is deliberately *not* pickled: checkpoints are
plain ``.npz`` archives readable across library versions, and the
mobility representation is rebuilt on continuing (it is rebuilt every
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

__all__ = ["save_checkpoint", "load_checkpoint", "previous_checkpoint_path",
           "run_checkpointed", "fsync_directory"]

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
    :func:`run_checkpointed`).  Best-effort: returns ``False`` on
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




def run_checkpointed(path: str | os.PathLike | None,  # noqa: RPR001 - validated by integrator.run
                     integrator, positions, n_steps: int, *,
                     interval: int | None = None,
                     callback=None, stop=None, save=save_checkpoint):
    """Run ``integrator`` to step ``n_steps`` of a checkpointed run.

    The one lifecycle of a checkpointed run (``Simulation.run``, the
    ensemble worker and the ``repro simulate --inject-faults`` drill all
    go through it):

    1. load ``path``, falling back to ``<path>.prev``; when neither is
       usable (missing, corrupt, not a checkpoint), start from
       ``positions`` at step 0 — same configuration, same trajectory;
    2. a checkpoint at or past ``n_steps`` is the finished run: its
       stored unwrapped positions are returned unchanged;
    3. otherwise continue the stored unwrapped frame and RNG to
       ``n_steps``, bit-identical to an uninterrupted run;
    4. every ``interval`` steps, rotate ``path`` to ``<path>.prev`` and
       write ``save(path, wrapped, unwrapped, step, rng)``; a run that
       ends off the interval (at ``n_steps`` or at a graceful ``stop``)
       writes one final checkpoint at its last step, so rerunning a
       finished run takes no steps and an interrupted one continues
       from where it stopped.

    ``path=None`` runs from ``positions`` without checkpoints.

    Parameters
    ----------
    interval:
        Steps between checkpoints, default the integrator's
        ``lambda_RPY``.  Only a multiple of ``lambda_RPY`` continues
        bit-exactly (the noise of a mobility block is drawn at once),
        so another value warns; the continuation is then statistically
        equivalent.  Likewise, continuing a final checkpoint written
        off the interval to a larger ``n_steps`` is statistically
        equivalent to an uninterrupted run, not bit-identical.
    callback:
        ``callback(step, wrapped, unwrapped)`` after every step, before
        that step's checkpoint; ``step`` counts from step 0 of the run,
        not from where it continued.
    stop:
        Forwarded to :meth:`~repro.core.integrators.BrownianDynamicsBase.run`.
    save:
        The checkpoint writer, :func:`save_checkpoint`'s signature.
        The ensemble worker's reports each write to its supervisor; the
        fault drill's (:func:`repro.resilience.faults.faulty_checkpoint_save`)
        corrupts scheduled writes.

    Returns
    -------
    (unwrapped, stats, step0, start):
        The final unwrapped positions, the statistics of the steps
        taken (none for a finished run), the step the run continued
        from and its unwrapped positions there.
    """
    from .integrators import BDStepStats

    state = None
    if path is not None:
        path = os.fspath(path)
        if interval is None:
            interval = integrator.lambda_rpy
        if interval < 1:
            raise ConfigurationError(
                f"interval must be >= 1, got {interval}")
        if interval % integrator.lambda_rpy != 0:
            import warnings
            warnings.warn(
                f"checkpoint interval {interval} is not a multiple of "
                f"lambda_RPY={integrator.lambda_rpy}; continued "
                "trajectories will be statistically equivalent but not "
                "bit-identical", stacklevel=2)
        for candidate in (path, previous_checkpoint_path(path)):
            try:
                state = load_checkpoint(candidate)
                break
            except (FileNotFoundError, CheckpointCorruptionError,
                    ConfigurationError):
                continue
    wrapped, start, step0 = positions, positions, 0
    if state is not None:
        wrapped, start, step0, integrator.rng = state
        if step0 >= n_steps:
            return start, BDStepStats(), step0, start

    def write(step: int, wrapped: np.ndarray, unwrapped: np.ndarray) -> None:
        if os.path.exists(path):
            os.replace(path, previous_checkpoint_path(path))
            # make the rotation durable too: otherwise a power loss
            # after the (durable) new write could resurface a state
            # where <path> vanished but .prev never appeared
            fsync_directory(os.path.dirname(os.path.abspath(path)))
        save(path, wrapped, unwrapped, step, integrator.rng)

    last = {}

    def on_step(step: int, wrapped: np.ndarray,
                unwrapped: np.ndarray) -> None:
        step += step0
        if callback is not None:
            callback(step, wrapped, unwrapped)
        last["wrapped"] = wrapped
        if path is not None and step % interval == 0:
            write(step, wrapped, unwrapped)

    # continuing the stored unwrapped frame inside the integrator (not
    # re-adding the image offset afterwards) keeps the continuation
    # byte-for-byte identical to an uninterrupted run
    final, stats = integrator.run(
        wrapped, n_steps - step0, callback=on_step, stop=stop,
        unwrapped0=None if state is None else start)
    end = step0 + stats.n_steps
    if path is not None and stats.n_steps and end % interval:
        write(end, last["wrapped"], final)
    return final, stats, step0, start
