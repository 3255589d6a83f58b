"""The table of RPR013: every name a simplification removed from
``src/repro``, with the ``CHANGES.md`` title of the change that removed
it.  A row's pattern is matched on every line of a file under
``src/repro/`` as ``grep -E`` matches it (comments and strings count),
so ``repro.lint`` also bans ``repro-lint`` and ``repro lint``.
"""

from __future__ import annotations

from typing import NamedTuple


class Removed(NamedTuple):
    """``pattern``, removed by ``change``; banned only under ``under``,
    lifted in ``allowed_in`` (paths relative to ``src/repro/``)."""

    pattern: str
    change: str
    under: str = ""
    allowed_in: str = ""


_PAIRS, _PAIRS_FILE = "One pair search", "neighbor/pairs.py"
REMOVED_NAMES: tuple[Removed, ...] = (
    Removed(r"^\s*(from|import)\s+scipy\.spatial", _PAIRS, "", _PAIRS_FILE),
    Removed(r"^\s*from\s+scipy\s+import\s.*\bspatial\b", _PAIRS, "",
            _PAIRS_FILE),
    Removed("backend=", _PAIRS, "neighbor/"),
    *(Removed(name, change) for change, names in (
        ("One spread, one interpolate, one influence",
         "store_p lagrange on_the_fly HybridScheduler interpolation="),
        ("Recovery is always on and has no knobs",
         "RecoveryPolicy safe_mode accept_partial best_iterate "
         "breaker_threshold CircuitBreaker --recover"),
        ("One hydrodynamic kernel, no single-valued options",
         '"oseen" overlap_corrected reorthogonalize keyword_only unless='),
        ("Serve and supervise only what the traffic uses",
         "BackoffPolicy _mobility_waiters progress_poll poll_interval "
         "max_worker_restarts= heartbeat_interval="),
        ("A served simulation's job directory is its result",
         "ResultCache SingleFlight cache_entries cache_ttl "
         "base_retry_after _finalize_job"),
        ("One file format per observability artifact",
         "write_jsonl read_jsonl to_prometheus_text "
         "validate_prometheus_text TraceContext chrome-trace"),
        ("The real-space rebuild keeps its pair list and tabulates the "
         "PSE coefficients",
         "pse_arguments pse_combine coefficient_passes _compiled_coefficients "
         "_pass_constants COEFFICIENT_CHUNK"),
        ("One checkpointed run: continue, checkpoint and stop through one "
         "function",
         "checkpoint.resume load_checkpoint_with_fallback load_resume_state "
         "checkpoint_callback extra_callback"),
        ("One mobility interface: the solvers take apply_block or a matrix",
         "MobilityOperator DenseMobilityMatrix CallableMobility as_mobility "
         "as_linear_operator as_operator"),
        ("Validate once, in the body: the runtime-contract decorators and "
         "REPRO_CHECKS go",
         "lint.contracts positions_arg force_block_arg trajectory_arg "
         "array_arg spd_arg returns_spd check_level __repro_contracts__ "
         "REPRO_CHECKS"),
        ("One square root: the Lanczos retry answers what the Chebyshev "
         "rung answered",
         "chebyshev_sqrt eigenvalue_bounds CHEBYSHEV_BOUND_ITERATIONS "
         "CHEBYSHEV_FAILURE chebyshev-failure fallback-chebyshev "
         "krylov.chebyshev"),
        ("One clock module: timing lives in repro.obs, the benchmark "
         "harness leaves the library",
         "repro.bench repro.utils.timing OverlapError"),
        ("The linter leaves the simulator: one repository tool under "
         "tools/, one way to run it",
         "repro.lint --output-format resolve_selection"),
        ("One execution setting: the worker count decides serial or "
         "threads, and REPRO_BACKEND / --backend go",
         "REPRO_BACKEND --backend"),
    ) for name in names.split()),
)
