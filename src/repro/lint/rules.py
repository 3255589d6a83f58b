"""The built-in physics-aware lint rules (RPR001 .. RPR013).

Each rule encodes an invariant the paper's algorithms depend on but the
Python type system cannot express — see ``docs/static_analysis.md`` for
the rationale of every rule and the paper section it protects.  Rules
are deliberately syntactic (pure AST or source lines, no imports of the
checked code), so the linter can run on broken or dependency-missing
files.
"""

from __future__ import annotations

import ast
import re
from pathlib import Path
from typing import TYPE_CHECKING, Iterator

from . import removed
from .findings import Finding
from .registry import Rule, RuleMeta, register

if TYPE_CHECKING:  # pragma: no cover
    from .engine import FileContext

__all__ = ["VALIDATION_CALLS"]

#: Callee names whose invocation counts as validating ``positions``.
VALIDATION_CALLS = frozenset({"as_positions"})

#: Legacy/global :mod:`numpy.random` attributes that are *not* flagged.
_RNG_ALLOWED = frozenset({
    "default_rng", "Generator", "SeedSequence", "BitGenerator",
    "PCG64", "PCG64DXSM", "Philox", "SFC64", "MT19937",
})

#: Reduced-precision dtypes that indicate drift from the documented
#: float64 contract of every kernel in the package.
_NARROW_DTYPES = frozenset({
    "float32", "float16", "half", "single", "complex64", "csingle",
})


def _last_attr(node: ast.expr) -> str | None:
    """Final component of a ``Name`` / dotted ``Attribute`` callee."""
    if isinstance(node, ast.Attribute):
        return node.attr
    if isinstance(node, ast.Name):
        return node.id
    return None


def _dotted(node: ast.expr) -> str | None:
    """Render ``a.b.c`` attribute chains; ``None`` for anything else."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


def _decorator_names(func: ast.FunctionDef | ast.AsyncFunctionDef
                     ) -> set[str]:
    """Root names of all decorators (``@x``, ``@m.x``, ``@x(...)``)."""
    names: set[str] = set()
    for dec in func.decorator_list:
        target = dec.func if isinstance(dec, ast.Call) else dec
        name = _last_attr(target)
        if name:
            names.add(name)
    return names


def _param_names(func: ast.FunctionDef | ast.AsyncFunctionDef) -> list[str]:
    a = func.args
    return [p.arg for p in (*a.posonlyargs, *a.args, *a.kwonlyargs)]


def _is_stub_body(func: ast.FunctionDef | ast.AsyncFunctionDef) -> bool:
    """True for docstring-only / ``pass`` / ``...`` / raise-only bodies."""
    for stmt in func.body:
        if isinstance(stmt, ast.Pass) or isinstance(stmt, ast.Raise):
            continue
        if isinstance(stmt, ast.Expr) and isinstance(stmt.value, ast.Constant):
            continue  # docstring or Ellipsis
        return False
    return True


@register
class UnvalidatedPositionsRule(Rule):
    """RPR001: a public function takes ``positions`` but never validates it."""

    meta = RuleMeta(
        id="RPR001", name="unvalidated-positions",
        summary="public function takes `positions` but its body neither "
                "calls as_positions nor delegates to super().__init__",
        rationale="Every operator assumes (n, 3) float64 positions "
                  "(paper Section II); an unvalidated entry point turns a "
                  "transposed array into silently wrong physics.")

    def check(self, ctx: "FileContext") -> Iterator[Finding]:
        for func in ast.walk(ctx.tree):
            if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            if func.name.startswith("_") and func.name != "__init__":
                continue
            if "positions" not in _param_names(func):
                continue
            if "abstractmethod" in _decorator_names(func) or _is_stub_body(func):
                continue
            if self._body_validates(func):
                continue
            yield self.finding(
                ctx, func,
                f"function {func.name!r} takes `positions` but never "
                "validates it",
                hint="call as_positions(positions) in the body")

    @staticmethod
    def _body_validates(func: ast.FunctionDef | ast.AsyncFunctionDef) -> bool:
        for node in ast.walk(func):
            if not isinstance(node, ast.Call):
                continue
            callee = _last_attr(node.func)
            if callee in VALIDATION_CALLS:
                return True
            # delegation: super().__init__(positions, ...) — the parent
            # initializer is responsible for validation
            if (callee == "__init__"
                    and isinstance(node.func, ast.Attribute)
                    and isinstance(node.func.value, ast.Call)
                    and _last_attr(node.func.value.func) == "super"):
                forwarded = [a.id for a in node.args
                             if isinstance(a, ast.Name)]
                forwarded += [k.value.id for k in node.keywords
                              if isinstance(k.value, ast.Name)]
                if "positions" in forwarded:
                    return True
        return False


@register
class GlobalRngRule(Rule):
    """RPR002: use of the global NumPy RNG instead of a ``Generator``."""

    meta = RuleMeta(
        id="RPR002", name="global-numpy-rng",
        summary="legacy global numpy RNG call (np.random.rand & friends)",
        rationale="Brownian displacements must be reproducible per seed "
                  "(Section II.C); global-state RNG calls break replay and "
                  "cross-thread determinism.  Use "
                  "np.random.default_rng(seed).")

    def check(self, ctx: "FileContext") -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            dotted = _dotted(node.func)
            if dotted is None:
                continue
            parts = dotted.split(".")
            if (len(parts) == 3 and parts[0] in ("np", "numpy")
                    and parts[1] == "random"
                    and parts[2] not in _RNG_ALLOWED):
                yield self.finding(
                    ctx, node,
                    f"call to global RNG `{dotted}` (shared mutable state)",
                    hint="use an explicit np.random.default_rng(seed) "
                         "Generator")


@register
class UnguardedCholeskyRule(Rule):
    """RPR003: Cholesky on a mobility matrix without an SPD failure guard."""

    meta = RuleMeta(
        id="RPR003", name="unguarded-cholesky",
        summary="np.linalg.cholesky outside a try/except LinAlgError guard",
        rationale="The RPY mobility is SPD only up to round-off and overlap "
                  "regularization (Section II.A); an unguarded factorization "
                  "turns near-singular configurations into raw "
                  "LinAlgError crashes instead of the package's "
                  "NotPositiveDefiniteError diagnostics.")

    def check(self, ctx: "FileContext") -> Iterator[Finding]:
        guarded: set[int] = set()
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Try):
                continue
            if not any(self._handles_linalg_error(h) for h in node.handlers):
                continue
            for stmt in node.body:
                for sub in ast.walk(stmt):
                    guarded.add(id(sub))
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            dotted = _dotted(node.func) or ""
            if not dotted.endswith("linalg.cholesky"):
                continue
            if id(node) in guarded:
                continue
            yield self.finding(
                ctx, node,
                "cholesky factorization without a LinAlgError guard",
                hint="wrap in try/except LinAlgError raising "
                     "NotPositiveDefiniteError, or add a diagonal jitter "
                     "before factorizing")

    @staticmethod
    def _handles_linalg_error(handler: ast.ExceptHandler) -> bool:
        types = ([] if handler.type is None
                 else handler.type.elts if isinstance(handler.type, ast.Tuple)
                 else [handler.type])
        if handler.type is None:
            return True  # bare except technically guards (RPR006 fires)
        for t in types:
            name = _last_attr(t) or ""
            if name in ("LinAlgError", "Exception", "BaseException"):
                return True
        return False


@register
class MissingMinimumImageRule(Rule):
    """RPR004: raw pairwise distances in a periodic-box module."""

    meta = RuleMeta(
        id="RPR004", name="missing-minimum-image",
        summary="pair distance computed from a raw difference in a module "
                "that imports the periodic box",
        rationale="Every pairwise kernel must fold separations with the "
                  "minimum-image convention (Section II.B); "
                  "norm(r[i] - r[j]) without Box.distances/minimum_image "
                  "is wrong for pairs straddling the boundary.")

    def check(self, ctx: "FileContext") -> Iterator[Finding]:
        if not self._module_is_periodic(ctx.tree):
            return
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            dotted = _dotted(node.func) or ""
            if not (dotted.endswith("linalg.norm") or dotted == "norm"):
                continue
            if node.args and self._is_raw_pair_difference(node.args[0]):
                yield self.finding(
                    ctx, node,
                    "distance computed from a raw coordinate difference "
                    "in a periodic-box module",
                    hint="use Box.distances(...) or "
                         "minimum_image(r_i - r_j, L) before taking the norm")

    @staticmethod
    def _is_raw_pair_difference(node: ast.expr) -> bool:
        """True for ``x[i] - x[j]``-style differences of indexed coordinates.

        Plain name differences (residuals like ``u_pme - u_ref``) are
        not pair separations and are left alone.
        """
        if not (isinstance(node, ast.BinOp) and isinstance(node.op, ast.Sub)):
            return False
        return (isinstance(node.left, ast.Subscript)
                or isinstance(node.right, ast.Subscript))

    @staticmethod
    def _module_is_periodic(tree: ast.Module) -> bool:
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom):
                module = node.module or ""
                if module.endswith("geometry.box") or module.endswith("pbc"):
                    return True
                if any(a.name in ("Box", "minimum_image") for a in node.names):
                    return True
        return False


@register
class DtypeDriftRule(Rule):
    """RPR005: reduced-precision dtype in code documented as float64."""

    meta = RuleMeta(
        id="RPR005", name="dtype-drift",
        summary="array created with a reduced-precision dtype "
                "(float32/float16/complex64)",
        rationale="The Ewald error bounds and Lanczos convergence analysis "
                  "(Sections III-IV) assume float64 kernels; silent "
                  "single-precision arrays destroy the tuned e_p/e_k "
                  "accuracy targets.")

    def check(self, ctx: "FileContext") -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            for kw in node.keywords:
                if kw.arg != "dtype":
                    continue
                name = None
                if isinstance(kw.value, ast.Constant) \
                        and isinstance(kw.value.value, str):
                    name = kw.value.value
                else:
                    name = _last_attr(kw.value)
                if name in _NARROW_DTYPES:
                    yield self.finding(
                        ctx, kw.value,
                        f"reduced-precision dtype {name!r} in a float64 "
                        "code base",
                        hint="use np.float64 (the package-wide contract) "
                             "or add an explicit `# noqa: RPR005` with "
                             "justification")


@register
class SwallowedExceptionRule(Rule):
    """RPR006: broad exception handler that swallows ``repro.errors``."""

    meta = RuleMeta(
        id="RPR006", name="swallowed-exception",
        summary="bare `except:` or `except Exception:` that does not "
                "re-raise",
        rationale="ConvergenceError / NotPositiveDefiniteError carry solver "
                  "diagnostics (iterations, residuals); a broad handler "
                  "that swallows them hides the dominant failure mode of "
                  "the stochastic sampler (Section III.B).")

    def check(self, ctx: "FileContext") -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.ExceptHandler):
                continue
            if not self._is_broad(node):
                continue
            if any(isinstance(sub, ast.Raise) for sub in ast.walk(node)):
                continue
            label = ("bare except:" if node.type is None
                     else f"except {_last_attr(node.type)}:")
            yield self.finding(
                ctx, node,
                f"{label} swallows repro.errors diagnostics",
                hint="catch the specific ReproError subclass, or re-raise "
                     "after handling")

    @staticmethod
    def _is_broad(handler: ast.ExceptHandler) -> bool:
        if handler.type is None:
            return True
        name = _last_attr(handler.type)
        return name in ("Exception", "BaseException")


@register
class MutableDefaultRule(Rule):
    """RPR007: mutable default argument."""

    meta = RuleMeta(
        id="RPR007", name="mutable-default-argument",
        summary="function default is a mutable literal or constructor",
        rationale="A mutable default is shared across calls — state leaks "
                  "between nominally independent simulations and breaks "
                  "seeded reproducibility.")

    _MUTABLE_CALLS = frozenset({"list", "dict", "set", "bytearray"})

    def check(self, ctx: "FileContext") -> Iterator[Finding]:
        for func in ast.walk(ctx.tree):
            if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            defaults = list(func.args.defaults) + [
                d for d in func.args.kw_defaults if d is not None]
            for default in defaults:
                if self._is_mutable(default):
                    yield self.finding(
                        ctx, default,
                        f"mutable default argument in {func.name!r}",
                        hint="default to None and create the container "
                             "inside the function body")

    @classmethod
    def _is_mutable(cls, node: ast.expr) -> bool:
        if isinstance(node, (ast.List, ast.Dict, ast.Set,
                             ast.ListComp, ast.DictComp, ast.SetComp)):
            return True
        if isinstance(node, ast.Call):
            return _last_attr(node.func) in cls._MUTABLE_CALLS
        return False


@register
class AssertValidationRule(Rule):
    """RPR008: ``assert`` used for input validation in library code."""

    meta = RuleMeta(
        id="RPR008", name="assert-validation",
        summary="assert statement in library code (stripped under -O)",
        rationale="Assertions disappear under `python -O`, silently "
                  "disabling the very SPD/shape checks that keep long "
                  "simulations honest; raise ConfigurationError instead.")

    def check(self, ctx: "FileContext") -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.Assert):
                yield self.finding(
                    ctx, node,
                    "assert used for validation (removed under python -O)",
                    hint="raise repro.errors.ConfigurationError (or use "
                         "repro.utils.validation.require)")


@register
class DirectWallClockRule(Rule):
    """RPR009: wall-clock read outside the timing/observability layers."""

    meta = RuleMeta(
        id="RPR009", name="direct-wall-clock",
        summary="direct time.perf_counter()/time.time() call outside "
                "repro.utils.timing, repro.obs and the bench harness",
        rationale="Ad-hoc clock reads bypass the Timer/PhaseTimer/tracer "
                  "chokepoints, so the interval never reaches span traces, "
                  "metrics or the Fig. 5 phase profile; route timing "
                  "through repro.utils.timing or an obs span instead.")

    #: ``time.<attr>()`` calls that read a wall/CPU clock.
    _CLOCK_ATTRS = frozenset({
        "time", "perf_counter", "perf_counter_ns", "monotonic",
        "monotonic_ns", "process_time", "process_time_ns",
    })
    #: Unambiguous bare names (``from time import perf_counter``);
    #: bare ``time(...)`` is too common a user symbol to flag.
    _CLOCK_NAMES = _CLOCK_ATTRS - {"time"}

    @staticmethod
    def _exempt(display_path: str) -> bool:
        parts = display_path.replace("\\", "/").split("/")
        filename = parts[-1] if parts else ""
        if filename.startswith("test_") or "tests" in parts:
            return True
        if "bench" in parts or "benchmarks" in parts or "obs" in parts:
            return True
        return filename == "timing.py" and "utils" in parts

    def check(self, ctx: "FileContext") -> Iterator[Finding]:
        if self._exempt(ctx.display_path):
            return
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            dotted = _dotted(node.func)
            bare = isinstance(node.func, ast.Name)
            clock = None
            if dotted and dotted.startswith("time."):
                attr = dotted.split(".", 1)[1]
                if attr in self._CLOCK_ATTRS:
                    clock = dotted
            elif bare and node.func.id in self._CLOCK_NAMES:
                clock = node.func.id
            if clock is not None:
                yield self.finding(
                    ctx, node,
                    f"direct wall-clock call {clock}() outside the "
                    "timing utilities",
                    hint="use repro.utils.timing.Timer/PhaseTimer or an "
                         "obs.span so the interval is observable")


@register
class SwallowedStepFailureRule(Rule):
    """RPR010: broad handler discarding failures outside the taxonomy."""

    meta = RuleMeta(
        id="RPR010", name="swallowed-step-failure",
        summary="bare `except:` or `except Exception:` that neither "
                "re-raises nor routes the failure through the resilience "
                "taxonomy (StepFailure / classify_exception / a recovery "
                "log)",
        rationale="A StepFailure carries the failure kind, step, attempt "
                  "and solver diagnostics the supervisor and recovery "
                  "ladder act on; a broad handler that drops it silently "
                  "turns a classified, retryable fault into a wrong "
                  "answer.  Even a deliberate process/worker boundary "
                  "(where `# noqa: RPR006` is acceptable) must still "
                  "convert the exception with StepFailure.from_exception "
                  "or record it on a RecoveryLog before moving on.")

    #: Call names (last dotted components) that count as routing the
    #: failure through the resilience taxonomy.
    _TAXONOMY_CALLS = frozenset({
        "StepFailure", "from_exception", "classify_exception", "record",
    })

    def check(self, ctx: "FileContext") -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.ExceptHandler):
                continue
            if not self._is_broad(node):
                continue
            if self._compliant(node):
                continue
            label = ("bare except:" if node.type is None
                     else f"except {_last_attr(node.type)}:")
            yield self.finding(
                ctx, node,
                f"{label} drops the failure without re-raising or routing "
                "it through the resilience taxonomy",
                hint="re-raise, wrap with StepFailure.from_exception(...), "
                     "or record the failure on a RecoveryLog")

    @staticmethod
    def _is_broad(handler: ast.ExceptHandler) -> bool:
        if handler.type is None:
            return True
        types = (handler.type.elts if isinstance(handler.type, ast.Tuple)
                 else [handler.type])
        return any(_last_attr(t) in ("Exception", "BaseException")
                   for t in types)

    @classmethod
    def _compliant(cls, handler: ast.ExceptHandler) -> bool:
        for sub in ast.walk(handler):
            if isinstance(sub, ast.Raise):
                return True
            if isinstance(sub, ast.Call):
                name = _last_attr(sub.func)
                if name in cls._TAXONOMY_CALLS:
                    return True
        return False


@register
class AdHocWorkerPoolRule(Rule):
    """RPR011: worker pool constructed outside the execution layer."""

    meta = RuleMeta(
        id="RPR011", name="ad-hoc-worker-pool",
        summary="direct ThreadPoolExecutor / ProcessPoolExecutor / "
                "multiprocessing Pool construction, or a workers= "
                "scipy.fft call, outside repro.exec",
        rationale="The ExecutionContext owns the one thread pool: it sizes "
                  "it against the configured worker budget (so "
                  "ensemble workers don't oversubscribe the machine), "
                  "reuses it across applications instead of paying "
                  "thread start-up per call, and closes it "
                  "deterministically.  A pool constructed elsewhere "
                  "escapes all three guarantees — and so does "
                  "pocketfft's process-global native pool, which a "
                  "scipy.fft call starts when given workers=.")

    #: Constructor names that allocate a worker pool.
    _POOL_NAMES = frozenset({"ThreadPoolExecutor", "ProcessPoolExecutor"})

    @staticmethod
    def _exempt(display_path: str) -> bool:
        parts = display_path.replace("\\", "/").split("/")
        filename = parts[-1] if parts else ""
        if filename.startswith("test_") or "tests" in parts:
            return True
        return "exec" in parts

    @staticmethod
    def _scipy_fft_names(tree: ast.Module) -> tuple[set[str], set[str]]:
        """Names this file binds to the ``scipy.fft`` module, and to
        functions imported from it."""
        modules, functions = {"scipy.fft"}, set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                modules.update(a.asname for a in node.names
                               if a.name == "scipy.fft" and a.asname)
            elif isinstance(node, ast.ImportFrom) and node.module == "scipy":
                modules.update(a.asname or a.name for a in node.names
                               if a.name == "fft")
            elif (isinstance(node, ast.ImportFrom)
                  and node.module == "scipy.fft"):
                functions.update(a.asname or a.name for a in node.names)
        return modules, functions

    def check(self, ctx: "FileContext") -> Iterator[Finding]:
        if self._exempt(ctx.display_path):
            return
        fft_modules, fft_functions = self._scipy_fft_names(ctx.tree)
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            name = _last_attr(node.func)
            dotted = _dotted(node.func)
            if (dotted is not None
                    and any(kw.arg == "workers" for kw in node.keywords)
                    and (dotted in fft_functions
                         or dotted.rpartition(".")[0] in fft_modules)):
                yield self.finding(
                    ctx, node,
                    f"{dotted}(..., workers=) starts pocketfft's own "
                    "thread pool outside repro.exec",
                    hint="leave workers unset and split the transforms "
                         "over ExecutionContext.run_ranges")
                continue
            pool = None
            if name in self._POOL_NAMES:
                pool = name
            elif name == "Pool" and dotted is not None and "." in dotted:
                # multiprocessing.Pool / mp.Pool / ctx.Pool(...)
                pool = dotted
            if pool is not None:
                yield self.finding(
                    ctx, node,
                    f"worker pool {pool}(...) constructed outside "
                    "repro.exec",
                    hint="request workers from an "
                         "repro.exec.ExecutionContext (run_tasks, or "
                         "its one thread_pool) so sizing, reuse and "
                         "shutdown stay centralized")


@register
class BlockingCallInAsyncRule(Rule):
    """RPR012: blocking call inside an ``async def`` of the serve layer."""

    meta = RuleMeta(
        id="RPR012", name="blocking-call-in-async",
        summary="blocking call (time.sleep, sync Connection.recv, "
                "subprocess, blocking file I/O) inside an async def "
                "under src/repro/serve/",
        rationale="The serve event loop multiplexes every client over "
                  "one thread: a single blocking call stalls request "
                  "parsing, batch-window timers and progress streaming "
                  "for all connections at once — the latency SLO dies "
                  "quietly.  CPU-bound and blocking work belongs on the "
                  "ExecutionContext thread pool via "
                  "loop.run_in_executor, or behind the asyncio-native "
                  "equivalent (asyncio.sleep, stream reader/writer).")

    #: Dotted calls that always block the calling thread.
    _BLOCKING_DOTTED = frozenset({
        "time.sleep", "subprocess.run", "subprocess.call",
        "subprocess.check_call", "subprocess.check_output",
        "subprocess.Popen", "os.system",
    })
    #: Bare names (``from time import sleep``; the ``open`` builtin —
    #: file I/O on the loop thread blocks on the filesystem).
    _BLOCKING_BARE = frozenset({"sleep", "open"})
    #: Method names that are synchronous waits on their object
    #: (pipe/socket reads, process joins, blocking Path I/O).
    _BLOCKING_METHODS = frozenset({
        "recv", "recv_bytes", "accept", "wait_for_message",
        "read_text", "read_bytes", "write_text", "write_bytes",
    })

    @staticmethod
    def _applies(display_path: str) -> bool:
        parts = display_path.replace("\\", "/").split("/")
        filename = parts[-1] if parts else ""
        if filename.startswith("test_") or "tests" in parts:
            return False
        return "serve" in parts

    def check(self, ctx: "FileContext") -> Iterator[Finding]:
        if not self._applies(ctx.display_path):
            return
        awaited: set[int] = set()
        for node in ast.walk(ctx.tree):
            if (isinstance(node, ast.Await)
                    and isinstance(node.value, ast.Call)):
                awaited.add(id(node.value))
        for func in ast.walk(ctx.tree):
            if not isinstance(func, ast.AsyncFunctionDef):
                continue
            for call in self._direct_calls(func):
                if id(call) in awaited:
                    continue  # awaited: an async wrapper, not a block
                label = self._blocking_label(call)
                if label is not None:
                    yield self.finding(
                        ctx, call,
                        f"blocking call {label}(...) inside "
                        f"async def {func.name}",
                        hint="run it via loop.run_in_executor(context."
                             "thread_pool(), ...) or use the asyncio-"
                             "native equivalent (asyncio.sleep, "
                             "StreamReader/StreamWriter)")

    @staticmethod
    def _direct_calls(func: ast.AsyncFunctionDef) -> Iterator[ast.Call]:
        """Calls in ``func``'s own body, not in nested ``def``s.

        Nested synchronous functions are almost always executor
        targets — blocking *there* is the point; nested async
        functions are visited by the outer walk on their own.
        """
        stack: list[ast.AST] = list(func.body)
        while stack:
            node = stack.pop()
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            if isinstance(node, ast.Call):
                yield node
            stack.extend(ast.iter_child_nodes(node))

    @classmethod
    def _blocking_label(cls, call: ast.Call) -> str | None:
        dotted = _dotted(call.func)
        if dotted is not None and dotted in cls._BLOCKING_DOTTED:
            return dotted
        if (isinstance(call.func, ast.Name)
                and call.func.id in cls._BLOCKING_BARE):
            return call.func.id
        if isinstance(call.func, ast.Attribute):
            if (call.func.attr in cls._BLOCKING_METHODS
                    and dotted not in cls._BLOCKING_DOTTED):
                return f".{call.func.attr}"
        return None


@register
class RemovedNameRule(Rule):
    """RPR013: a name a simplification removed is back in ``src/repro``."""

    meta = RuleMeta(
        id="RPR013", name="removed-name",
        summary="a name in the table of repro.lint.removed (a removed "
                "option, parallel path or format) appears under src/repro/",
        rationale="Each simplification left one path per job; a removed "
                  "name that comes back, even in a comment, starts a "
                  "second one.")

    _ANY = re.compile("|".join(f"(?:{row.pattern})"
                               for row in removed.REMOVED_NAMES))
    _TABLE = Path(removed.__file__).resolve()

    def check(self, ctx: "FileContext") -> Iterator[Finding]:
        path = Path(ctx.display_path)
        posix = "/" + path.as_posix()
        if "/src/repro/" not in posix or path.resolve() == self._TABLE:
            return
        rel = posix.rsplit("/src/repro/", 1)[1]     # e.g. neighbor/pairs.py
        rows = [row for row in removed.REMOVED_NAMES
                if rel.startswith(row.under) and rel != row.allowed_in]
        for lineno, line in enumerate(ctx.source.splitlines(), start=1):
            if not self._ANY.search(line):
                continue
            for row in rows:
                match = re.search(row.pattern, line)
                if match:
                    yield Finding(
                        path=ctx.display_path, line=lineno,
                        col=match.start(), rule=self.meta.id,
                        message=f"`{match.group()}` was removed by the "
                                f"change \"{row.change}\"",
                        hint="CHANGES.md names what replaced it")
