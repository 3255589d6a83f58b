"""Runtime array contracts for the public entry points of the package.

The static layer (``repro lint``) proves that every public function
*declares* its array contract; this module makes the contract executable.
Decorators validate the named argument (or the return value) according
to the ``REPRO_CHECKS`` environment variable:

``REPRO_CHECKS=0``
    Contracts are disabled entirely — decorated functions run with zero
    per-call validation overhead (one cached environment lookup).
``REPRO_CHECKS=1`` (default)
    Shape/dtype contracts are enforced; ``O(n)`` finiteness scans and
    ``O(d^3)`` SPD factorizations are skipped.
``REPRO_CHECKS=strict``
    Everything: finiteness scans, and — for small operators — symmetric
    positive definiteness of debug mobility matrices (the invariant
    Lanczos needs before taking ``M^(1/2) Z``, paper Section III.B).

All contract violations raise
:class:`~repro.errors.ConfigurationError` so callers have a single
exception type for "you handed the library a malformed array".
"""

from __future__ import annotations

import functools
import inspect
from typing import Any, Callable

import numpy as np

from ..config import get_config
from ..errors import ConfigurationError
from ..utils import validation

__all__ = ["OFF", "BASIC", "STRICT", "check_level", "contract",
           "positions_arg", "force_block_arg", "trajectory_arg",
           "array_arg", "spd_arg", "returns_spd"]

#: Contract levels (ordered).
OFF, BASIC, STRICT = 0, 1, 2

_LEVEL_NAMES = {
    "0": OFF, "off": OFF, "false": OFF, "no": OFF, "none": OFF,
    "1": BASIC, "on": BASIC, "true": BASIC, "yes": BASIC, "basic": BASIC,
    "2": STRICT, "strict": STRICT, "full": STRICT,
}

#: Largest operator dimension ``3n`` for which strict mode runs the
#: ``O(d^3)`` SPD eigenvalue check (debug-sized systems only).
SPD_CHECK_MAX_DIM = 900


def check_level() -> int:
    """The active contract level (re-resolved per call).

    The level comes from :func:`repro.config.get_config`, which
    re-reads the environment fingerprint on every call — cheap enough
    to do on every decorated call, which lets tests and long-running
    processes flip ``REPRO_CHECKS`` without re-importing the package.
    """
    raw = get_config().checks
    try:
        return _LEVEL_NAMES[raw]
    except KeyError:
        raise ConfigurationError(
            f"REPRO_CHECKS must be one of 0, 1, strict; got {raw!r}") from None


def contract(name: str, validate: Callable) -> Callable:
    """Generic argument contract: apply ``validate`` to parameter ``name``.

    ``validate(value, strict)`` is called when checks are enabled and its
    return value replaces the argument (return ``value`` unchanged for
    check-only contracts).  The decorated function exposes the contract
    via the ``__repro_contracts__`` attribute for introspection.
    """

    def decorate(fn: Callable) -> Callable:
        params = list(inspect.signature(fn).parameters)
        try:
            index = params.index(name)
        except ValueError:
            raise ConfigurationError(
                f"@contract: {fn.__qualname__} has no parameter {name!r}"
            ) from None

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            level = check_level()
            if level == OFF:
                return fn(*args, **kwargs)
            strict = level >= STRICT
            if name in kwargs:
                kwargs = dict(kwargs)
                kwargs[name] = validate(kwargs[name], strict)
            elif index < len(args):
                args = list(args)
                args[index] = validate(args[index], strict)
                args = tuple(args)
            return fn(*args, **kwargs)

        existing = getattr(fn, "__repro_contracts__", ())
        wrapper.__repro_contracts__ = (*existing, name)
        return wrapper

    return decorate


# ----------------------------------------------------------------------
# named contracts
# ----------------------------------------------------------------------

def positions_arg(name: str = "positions") -> Callable:
    """Require parameter ``name`` to be an ``(n, 3)`` float64 array.

    The argument is normalized (contiguous float64) in place of the raw
    value; strict mode adds the finiteness scan.
    """

    def validate(value: Any, strict: bool) -> Any:
        return validation.as_positions(value, check_finite=strict)

    return contract(name, validate)


def force_block_arg(name: str = "forces") -> Callable:
    """Require ``name`` to be a ``(3n,)`` vector or non-empty ``(3n, s)`` block.

    Check-only (the argument passes through unchanged — operators call
    :func:`~repro.utils.validation.as_force_block` themselves to learn
    the flat/block shape).  ``n`` is inferred from divisibility by 3.
    """

    def validate(value: Any, strict: bool) -> Any:
        f = np.asarray(value)
        if f.ndim not in (1, 2):
            raise ConfigurationError(
                f"{name} must have shape (3n,) or (3n, s), got {f.shape}")
        if f.shape[0] % 3 != 0:
            raise ConfigurationError(
                f"{name} first dimension must be a multiple of 3 "
                f"(3 components per particle), got {f.shape[0]}")
        if f.ndim == 2 and f.shape[1] == 0:
            raise ConfigurationError(
                f"{name} block has zero vectors (s == 0)")
        if strict and f.size and not np.all(np.isfinite(
                np.asarray(f, dtype=np.float64))):
            raise ConfigurationError(f"{name} contain non-finite values")
        return value

    return contract(name, validate)


def trajectory_arg(name: str = "positions") -> Callable:
    """Require ``name`` to be a ``(T, n, 3)`` float64 trajectory array."""

    def validate(value: Any, strict: bool) -> Any:
        r = np.asarray(value, dtype=np.float64)
        if r.ndim != 3 or r.shape[2] != 3:
            raise ConfigurationError(
                f"{name} must have shape (T, n, 3), got {r.shape}")
        if strict and not np.all(np.isfinite(r)):
            raise ConfigurationError(f"{name} contain non-finite values")
        return r

    return contract(name, validate)


def array_arg(name: str, ndim: tuple[int, ...] = (1, 2)) -> Callable:
    """Require ``name`` to be a float array with one of the given ranks.

    Check-only; used for Krylov starting vectors/blocks where the solver
    performs its own shape-specific handling.
    """

    def validate(value: Any, strict: bool) -> Any:
        z = np.asarray(value)
        if z.ndim not in ndim:
            expected = " or ".join(f"{d}-D" for d in ndim)
            raise ConfigurationError(
                f"{name} must be {expected}, got shape {z.shape}")
        if strict and z.size and not np.all(np.isfinite(
                np.asarray(z, dtype=np.float64))):
            raise ConfigurationError(f"{name} contain non-finite values")
        return value

    return contract(name, validate)


def _check_spd(matrix: np.ndarray, what: str) -> None:
    """Strict-mode SPD gate for debug-sized matrices."""
    m = np.asarray(matrix, dtype=np.float64)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ConfigurationError(
            f"{what} must be a square matrix, got shape {m.shape}")
    if m.shape[0] > SPD_CHECK_MAX_DIM:
        return  # O(d^3) check is debug-only; skip at production sizes
    if not np.allclose(m, m.T, rtol=1e-8, atol=1e-10):
        raise ConfigurationError(f"{what} is not symmetric")
    eigenvalues = np.linalg.eigvalsh(m)
    floor = -1e-10 * max(1.0, float(eigenvalues[-1]))
    if eigenvalues[0] < floor:
        raise ConfigurationError(
            f"{what} is not positive definite "
            f"(min eigenvalue {eigenvalues[0]:.3e}); Lanczos/Cholesky "
            "require an SPD mobility (paper Section III.B)")


def spd_arg(name: str = "mobility") -> Callable:
    """Under ``REPRO_CHECKS=strict``, require ``name`` to be SPD.

    Symmetry and the eigenvalue check run only in strict mode and only
    for matrices up to :data:`SPD_CHECK_MAX_DIM` — this is a debug gate
    for the dense Algorithm 1 path, not a production check.
    """

    def validate(value: Any, strict: bool) -> Any:
        if strict:
            _check_spd(value, name)
        return value

    return contract(name, validate)


def returns_spd(what: str = "returned mobility matrix",
                unless: Callable | None = None) -> Callable:
    """Under ``REPRO_CHECKS=strict``, verify the return value is SPD.

    ``unless`` is an optional predicate receiving the bound instance;
    when it returns ``True`` the check is skipped.  Used for kernel
    variants whose mobility is *legitimately* not positive definite —
    the Oseen tensor loses definiteness at close range, which is the
    very deficiency RPY exists to fix.
    """

    def decorate(fn: Callable) -> Callable:
        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            result = fn(*args, **kwargs)
            if check_level() >= STRICT and not (
                    unless is not None and args and unless(args[0])):
                _check_spd(result, what)
            return result

        existing = getattr(fn, "__repro_contracts__", ())
        wrapper.__repro_contracts__ = (*existing, "return")
        return wrapper

    return decorate
