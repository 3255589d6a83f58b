"""Runtime configuration — the single reader of every ``REPRO_*`` knob.

Historically each subsystem read its own environment variable at its
own call site (``REPRO_NO_CKERNEL`` in the kernel loader,
``REPRO_BENCH_*`` in the bench harness), which made the effective
configuration impossible to inspect and the precedence rules implicit.
This module consolidates them:

* :class:`RuntimeConfig` is a frozen dataclass holding every runtime
  knob, including the execution-backend settings of :mod:`repro.exec`;
* :func:`get_config` resolves ``env > CLI > defaults`` on every call
  (the environment lookup is a handful of dict accesses, so
  long-running processes and tests can flip a variable at runtime and
  the next call sees it);
* :func:`set_cli_overrides` is how ``repro ...`` subcommands inject
  ``--backend``/``--exec-workers`` and friends; environment variables
  still win, so a deployment can pin a knob across an entire campaign
  regardless of what individual commands pass.

``repro config show`` prints the resolved table with per-field
provenance.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, fields
from typing import Any, Iterator, Mapping

__all__ = [
    "RuntimeConfig",
    "ENV_VARS",
    "BACKENDS",
    "get_config",
    "set_cli_overrides",
    "clear_cli_overrides",
    "config_table",
    "available_cpus",
]

#: Supported execution backends (see :mod:`repro.exec`).
BACKENDS = ("serial", "threads")

#: Field name -> environment variable consulted for it.
ENV_VARS: Mapping[str, str] = {
    "no_ckernel": "REPRO_NO_CKERNEL",
    "ckernel_cache": "REPRO_CKERNEL_CACHE",
    "bench_scale": "REPRO_BENCH_SCALE",
    "bench_outdir": "REPRO_BENCH_OUTDIR",
    "backend": "REPRO_BACKEND",
    "exec_workers": "REPRO_EXEC_WORKERS",
}

_TRUTHY = ("1", "true", "yes", "on")


def available_cpus() -> int:
    """CPUs this process may run on (the affinity mask, not the host's)."""
    try:
        return max(1, len(os.sched_getaffinity(0)))
    except (AttributeError, OSError):  # pragma: no cover - non-Linux
        return os.cpu_count() or 1


@dataclass(frozen=True)
class RuntimeConfig:
    """Every runtime knob of the package, resolved.

    Values are stored in their *raw* normalized form; semantic
    validation stays with the consumer (``bench_scale`` enforces
    ``ci|paper``) so error behavior is unchanged — but the
    execution-backend fields are validated here because
    :mod:`repro.exec` is new with this module.
    """

    #: Disable the runtime-compiled C kernels entirely.
    no_ckernel: bool = False
    #: Override directory caching compiled kernel libraries.
    ckernel_cache: str = ""
    #: Benchmark problem sizes: ``"ci"`` or ``"paper"``.
    bench_scale: str = "ci"
    #: Directory receiving ``BENCH_*.json`` records.
    bench_outdir: str = "."
    #: Execution backend: ``"serial"`` or ``"threads"``.
    backend: str = "serial"
    #: Worker count for the threads backend (0 = auto: one per CPU).
    exec_workers: int = 0

    def __post_init__(self) -> None:
        if self.backend not in BACKENDS:
            from .errors import ConfigurationError
            raise ConfigurationError(
                f"backend must be one of {'|'.join(BACKENDS)}, "
                f"got {self.backend!r} (REPRO_BACKEND / --backend)")
        if self.exec_workers < 0:
            from .errors import ConfigurationError
            raise ConfigurationError(
                f"exec_workers must be >= 0 (0 = auto), got "
                f"{self.exec_workers} (REPRO_EXEC_WORKERS / --exec-workers)")

    def resolved_workers(self) -> int:
        """The effective worker count (auto = one per available CPU)."""
        if self.backend == "serial":
            return 1
        return self.exec_workers if self.exec_workers > 0 else available_cpus()

    def as_dict(self) -> dict[str, Any]:
        """Plain-dict view (for ``repro config show --format json``)."""
        return {f.name: getattr(self, f.name) for f in fields(self)}


def _coerce(name: str, raw: str) -> Any:
    """Convert an environment string to the field's python type."""
    if name == "no_ckernel":
        return raw.strip().lower() in _TRUTHY
    if name == "exec_workers":
        try:
            return int(raw)
        except ValueError:
            from .errors import ConfigurationError
            raise ConfigurationError(
                f"{ENV_VARS[name]} must be an integer, got {raw!r}"
            ) from None
    if name in ("bench_scale", "backend"):
        return raw.strip().lower() or getattr(RuntimeConfig, name)
    return raw


#: CLI-provided overrides (field name -> value); env still wins.
_cli_overrides: dict[str, Any] = {}

#: Cache of the last resolution, keyed by the env fingerprint + CLI state.
_cache_key: tuple[Any, ...] | None = None
_cache_value: RuntimeConfig | None = None


def set_cli_overrides(**overrides: Any) -> None:
    """Install CLI-level values (``None`` entries are ignored).

    Precedence is ``env > CLI > defaults``: these apply only where the
    corresponding environment variable is unset.
    """
    unknown = set(overrides) - set(ENV_VARS)
    if unknown:
        raise TypeError(f"unknown config fields: {sorted(unknown)}")
    for name, value in overrides.items():
        if value is None:
            continue
        _cli_overrides[name] = value


def clear_cli_overrides() -> None:
    """Drop all CLI overrides (test helper / CLI re-entry)."""
    _cli_overrides.clear()


def _fingerprint() -> tuple[Any, ...]:
    env = tuple(os.environ.get(var) for var in ENV_VARS.values())
    return env + (tuple(sorted(_cli_overrides.items())),)


def get_config() -> RuntimeConfig:
    """The resolved :class:`RuntimeConfig` (env > CLI > defaults).

    Re-resolves whenever an ``REPRO_*`` variable or a CLI override
    changed since the previous call; otherwise returns the cached
    frozen instance.
    """
    global _cache_key, _cache_value
    key = _fingerprint()
    if key == _cache_key and _cache_value is not None:
        return _cache_value
    values: dict[str, Any] = dict(_cli_overrides)
    for name, var in ENV_VARS.items():
        raw = os.environ.get(var)
        if raw is not None:
            values[name] = _coerce(name, raw)
    config = RuntimeConfig(**values)
    _cache_key, _cache_value = key, config
    return config


def config_table() -> Iterator[tuple[str, str, str, str]]:
    """Rows ``(field, env var, value, source)`` for ``repro config show``."""
    config = get_config()
    for name, var in ENV_VARS.items():
        if os.environ.get(var) is not None:
            source = "env"
        elif name in _cli_overrides:
            source = "cli"
        else:
            source = "default"
        yield name, var, str(getattr(config, name)), source
