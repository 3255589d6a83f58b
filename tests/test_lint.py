"""Tests of the static layer: rules RPR001-RPR013, noqa, selection,
CLI, output formats."""

from __future__ import annotations

import json
from pathlib import Path
from textwrap import dedent

import pytest

from repro.errors import ConfigurationError
from repro.lint import (
    REPORT_JSON_SCHEMA,
    all_rules,
    lint_paths,
    lint_source,
    resolve_selection,
)
from repro.lint.cli import format_github, main as lint_main
from repro.lint.findings import Finding

SRC_DIR = Path(__file__).resolve().parent.parent / "src"


def rule_ids(source: str) -> list[str]:
    """Rule ids reported for an in-memory snippet."""
    return [f.rule for f in lint_source(dedent(source), "<snippet>")]


def test_importing_the_package_does_not_load_the_analyser():
    # the numeric core imports nothing from repro.lint, not even to
    # build and apply an operator (CI runs the same check)
    import os
    import subprocess
    import sys

    code = (
        "import sys, numpy as np, repro\n"
        "from repro.geometry.box import Box\n"
        "from repro.pme.operator import PMEOperator, PMEParams\n"
        "r = np.random.default_rng(0).uniform(0, 8.0, (10, 3))\n"
        "op = PMEOperator(r, Box(8.0), PMEParams(xi=0.6, r_max=3.0, K=8, p=4))\n"
        "op.apply_block(np.ones((30, 2)))\n"
        "loaded = [m for m in sys.modules if m.startswith('repro.lint')]\n"
        "assert not loaded, loaded\n"
        "from repro.lint import lint_paths, Finding, all_rules\n"
        "assert 'repro.lint.engine' in sys.modules and all_rules()\n")
    done = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, timeout=120,
                          env={**os.environ, "PYTHONPATH": str(SRC_DIR)})
    assert done.returncode == 0, done.stderr


# ----------------------------------------------------------------------
# the registry itself
# ----------------------------------------------------------------------

def test_at_least_ten_rules_registered():
    rules = all_rules()
    assert len(rules) >= 10
    ids = [r.meta.id for r in rules]
    assert ids == sorted(ids)
    for expected in ([f"RPR00{k}" for k in range(1, 10)]
                     + ["RPR010", "RPR011", "RPR012"]):
        assert expected in ids


def test_every_rule_has_summary_and_rationale():
    for rule in all_rules():
        assert rule.meta.summary
        assert rule.meta.rationale


def test_resolve_selection_prefixes():
    assert resolve_selection(["RPR001"], None) == {"RPR001"}
    everything = resolve_selection(None, None)
    assert resolve_selection(["RPR"], None) == everything
    assert "RPR007" not in resolve_selection(None, ["RPR007"])
    with pytest.raises(ConfigurationError):
        resolve_selection(["RPR9"], None)
    with pytest.raises(ConfigurationError):
        resolve_selection(None, ["XXX1"])


def test_selection_overlapping_select_and_ignore():
    assert resolve_selection(["RPR00"], ["RPR005"]) == (
        {f"RPR00{k}" for k in range(10)} - {"RPR005"})
    assert resolve_selection(["RPR01"], ["RPR01"]) == set()


def test_selection_unknown_prefix_message_names_it():
    with pytest.raises(ConfigurationError, match=r"RPR9.*matches no"):
        resolve_selection(["RPR9"], None)
    with pytest.raises(ConfigurationError, match="--ignore"):
        resolve_selection(None, ["ZZZ"])


def test_rpr000_participates_in_selection(tmp_path):
    bad = tmp_path / "broken.py"
    bad.write_text("def broken(:\n")
    findings, checked = lint_paths([bad])
    assert checked == 1
    assert [f.rule for f in findings] == ["RPR000"]

    only, _ = lint_paths([bad], select=["RPR000"])
    assert [f.rule for f in only] == ["RPR000"]

    none, _ = lint_paths([bad], ignore=["RPR000"])
    assert none == []


def test_rpr000_excluded_by_narrow_select(tmp_path):
    bad = tmp_path / "broken.py"
    bad.write_text("def broken(:\n")
    findings, _ = lint_paths([bad], select=["RPR001"])
    assert findings == []


# ----------------------------------------------------------------------
# RPR001 unvalidated positions
# ----------------------------------------------------------------------

def test_rpr001_flags_unvalidated_positions():
    assert "RPR001" in rule_ids("""
        def displace(positions, dt):
            return positions + dt
    """)


def test_rpr001_accepts_as_positions_call():
    assert "RPR001" not in rule_ids("""
        from repro.utils.validation import as_positions

        def displace(positions, dt):
            r = as_positions(positions)
            return r + dt
    """)


def test_rpr001_flags_decorated_function_without_body_check():
    # only the body counts: a decorator is no validation
    assert "RPR001" in rule_ids("""
        from functools import lru_cache

        @lru_cache
        def displace(positions, dt):
            return positions + dt
    """)


def test_rpr001_skips_private_abstract_and_delegating():
    assert "RPR001" not in rule_ids("""
        from abc import abstractmethod

        def _helper(positions):
            return positions

        class Base:
            @abstractmethod
            def forces(self, positions):
                \"\"\"stub\"\"\"

        class Child(Base):
            def __init__(self, positions, extra):
                super().__init__(positions)
                self.extra = extra
    """)


# ----------------------------------------------------------------------
# RPR002 global RNG
# ----------------------------------------------------------------------

def test_rpr002_flags_global_rng():
    findings = lint_source(dedent("""
        import numpy as np
        z = np.random.rand(3)
        np.random.seed(0)
    """), "<snippet>")
    assert [f.rule for f in findings] == ["RPR002", "RPR002"]
    assert "np.random.rand" in findings[0].message


def test_rpr002_accepts_generator_api():
    assert "RPR002" not in rule_ids("""
        import numpy as np
        rng = np.random.default_rng(42)
        z = rng.standard_normal(3)
    """)


# ----------------------------------------------------------------------
# RPR003 unguarded cholesky
# ----------------------------------------------------------------------

def test_rpr003_flags_bare_cholesky():
    assert "RPR003" in rule_ids("""
        import numpy as np

        def factor(m):
            return np.linalg.cholesky(m)
    """)


def test_rpr003_accepts_guarded_cholesky():
    assert "RPR003" not in rule_ids("""
        import numpy as np

        def factor(m):
            try:
                return np.linalg.cholesky(m)
            except np.linalg.LinAlgError as exc:
                raise RuntimeError("not SPD") from exc
    """)


# ----------------------------------------------------------------------
# RPR004 missing minimum image
# ----------------------------------------------------------------------

def test_rpr004_flags_raw_pair_distance_in_periodic_module():
    assert "RPR004" in rule_ids("""
        import numpy as np
        from repro.geometry.box import Box

        def distances(r, i, j):
            return np.linalg.norm(r[i] - r[j], axis=1)
    """)


def test_rpr004_ignores_modules_without_box():
    assert "RPR004" not in rule_ids("""
        import numpy as np

        def distances(r, i, j):
            return np.linalg.norm(r[i] - r[j], axis=1)
    """)


def test_rpr004_ignores_plain_residual_norms():
    assert "RPR004" not in rule_ids("""
        import numpy as np
        from repro.geometry.box import Box

        def error(u_pme, u_ref):
            return np.linalg.norm(u_pme - u_ref)
    """)


# ----------------------------------------------------------------------
# RPR005 dtype drift
# ----------------------------------------------------------------------

def test_rpr005_flags_reduced_precision_dtypes():
    findings = rule_ids("""
        import numpy as np
        a = np.zeros(3, dtype=np.float32)
        b = np.empty(3, dtype="float32")
    """)
    assert findings.count("RPR005") == 2


def test_rpr005_accepts_float64():
    assert "RPR005" not in rule_ids("""
        import numpy as np
        a = np.zeros(3, dtype=np.float64)
        b = np.zeros(3)
    """)


# ----------------------------------------------------------------------
# RPR006 swallowed exceptions
# ----------------------------------------------------------------------

def test_rpr006_flags_swallowing_handlers():
    findings = rule_ids("""
        def run(op):
            try:
                op()
            except Exception:
                pass
            try:
                op()
            except:
                return None
    """)
    assert findings.count("RPR006") == 2


def test_rpr006_accepts_narrow_or_reraising_handlers():
    assert "RPR006" not in rule_ids("""
        def run(op):
            try:
                op()
            except ValueError:
                pass
            try:
                op()
            except Exception:
                raise
    """)


# ----------------------------------------------------------------------
# RPR007 mutable defaults
# ----------------------------------------------------------------------

def test_rpr007_flags_mutable_defaults():
    findings = rule_ids("""
        def collect(x, out=[]):
            out.append(x)
            return out

        def index(x, table=dict()):
            return table
    """)
    assert findings.count("RPR007") == 2


def test_rpr007_accepts_none_default():
    assert "RPR007" not in rule_ids("""
        def collect(x, out=None):
            out = [] if out is None else out
            out.append(x)
            return out
    """)


# ----------------------------------------------------------------------
# RPR008 assert validation
# ----------------------------------------------------------------------

def test_rpr008_flags_assert():
    assert "RPR008" in rule_ids("""
        def apply(m, f):
            assert f.ndim == 1, "flat vectors only"
            return m @ f
    """)


# ----------------------------------------------------------------------
# RPR009 direct wall-clock reads
# ----------------------------------------------------------------------

def test_rpr009_flags_time_module_clocks():
    findings = rule_ids("""
        import time

        def work():
            t0 = time.perf_counter()
            step()
            return time.perf_counter() - t0
    """)
    assert findings.count("RPR009") == 2


def test_rpr009_flags_imported_clock_name():
    assert "RPR009" in rule_ids("""
        from time import monotonic

        def stamp():
            return monotonic()
    """)


def test_rpr009_ignores_bare_time_call():
    # `time` alone is too common a user symbol (e.g. a parameter) to flag
    assert "RPR009" not in rule_ids("""
        def advance(time):
            return time() + 1
    """)


def test_rpr009_exempts_timing_bench_obs_and_tests():
    snippet = dedent("""
        import time
        T0 = time.perf_counter()
    """)
    for path in ("src/repro/utils/timing.py", "src/repro/obs/trace.py",
                 "src/repro/bench/harness.py", "benchmarks/bench_fig5.py",
                 "tests/test_timing.py"):
        assert all(f.rule != "RPR009"
                   for f in lint_source(snippet, path)), path
    assert any(f.rule == "RPR009"
               for f in lint_source(snippet, "src/repro/pme/spread.py"))


# ----------------------------------------------------------------------
# RPR010 failures dropped outside the resilience taxonomy
# ----------------------------------------------------------------------

def test_rpr010_flags_silently_dropped_failure():
    findings = rule_ids("""
        def boundary():
            try:
                step()
            except Exception:
                result = None
    """)
    assert "RPR010" in findings
    assert "RPR006" in findings  # strictly narrower sibling also fires


def test_rpr010_flags_bare_except_and_tuple_handlers():
    assert "RPR010" in rule_ids("""
        def f():
            try:
                step()
            except:
                pass
    """)
    assert "RPR010" in rule_ids("""
        def f():
            try:
                step()
            except (ValueError, Exception):
                pass
    """)


def test_rpr010_accepts_reraise():
    assert "RPR010" not in rule_ids("""
        def f():
            try:
                step()
            except Exception:
                cleanup()
                raise
    """)


def test_rpr010_accepts_taxonomy_routing():
    # converting to a classified StepFailure at a process boundary
    assert "RPR010" not in rule_ids("""
        from repro.resilience.failures import StepFailure

        def worker_boundary(conn):
            try:
                step()
            except Exception as exc:
                conn.send(StepFailure.from_exception(exc))
    """)
    # recording on a RecoveryLog
    assert "RPR010" not in rule_ids("""
        def f(log):
            try:
                step()
            except Exception as exc:
                log.record(1, classify_exception(exc), "drop")
    """)


def test_rpr010_ignores_narrow_handlers():
    assert "RPR010" not in rule_ids("""
        def f():
            try:
                step()
            except ValueError:
                pass
    """)


def test_rpr010_suppressible_independently_of_rpr006():
    findings = rule_ids("""
        def f():
            try:
                step()
            except Exception:  # noqa: RPR006 - boundary, but untyped
                pass
    """)
    assert "RPR006" not in findings
    assert "RPR010" in findings


# ----------------------------------------------------------------------
# noqa suppression and parse failures
# ----------------------------------------------------------------------

def test_noqa_blanket_and_specific():
    assert rule_ids("""
        import numpy as np
        a = np.random.rand(3)  # noqa
        b = np.random.rand(3)  # noqa: RPR002
    """) == []


def test_noqa_other_rule_does_not_suppress():
    assert "RPR002" in rule_ids("""
        import numpy as np
        a = np.random.rand(3)  # noqa: RPR005
    """)


def test_syntax_error_becomes_rpr000_finding():
    findings = lint_source("def broken(:\n", "bad.py")
    assert len(findings) == 1
    assert findings[0].rule == "RPR000"


# multi-line noqa: any physical line of the statement suppresses

_WRAPPED = """
    import numpy as np

    def workspace(n):
        return np.zeros(
            (n, 3),
            dtype=np.float32,
        ){noqa}
"""


def test_noqa_on_closing_paren_line_suppresses():
    clean = dedent(_WRAPPED.format(noqa="  # noqa: RPR005"))
    assert [f.rule for f in lint_source(clean, "<s>")
            if f.rule == "RPR005"] == []


def test_noqa_for_other_rule_does_not_suppress():
    other = dedent(_WRAPPED.format(noqa="  # noqa: RPR003"))
    assert "RPR005" in [f.rule for f in lint_source(other, "<s>")]


def test_blanket_noqa_mid_statement_suppresses():
    source = dedent("""
        import numpy as np

        def workspace(n):
            return np.zeros(
                (n, 3),  # noqa
                dtype=np.float32,
            )
    """)
    assert [f.rule for f in lint_source(source, "<s>")] == []


def test_noqa_in_function_body_does_not_cover_def_line():
    # compound statements contribute only their header extent
    source = dedent("""
        def displace(positions, dt):
            scale = 1.0  # noqa
            return positions * dt * scale
    """)
    assert "RPR001" in [f.rule for f in lint_source(source, "<s>")]


# ----------------------------------------------------------------------
# the enforceable gate: the package itself lints clean
# ----------------------------------------------------------------------

def test_repo_src_is_lint_clean():
    findings, files_checked = lint_paths([SRC_DIR])
    assert files_checked > 50
    assert findings == []


# ----------------------------------------------------------------------
# CLI: exit codes, select/ignore, formats
# ----------------------------------------------------------------------

SEEDED_VIOLATIONS = dedent("""
    import numpy as np

    def jitter(positions, scale=[]):
        assert scale, "scale required"
        noise = np.random.rand(*positions.shape)
        return positions + np.asarray(noise, dtype=np.float32)
""")


@pytest.fixture
def seeded_file(tmp_path):
    path = tmp_path / "seeded.py"
    path.write_text(SEEDED_VIOLATIONS)
    return path


def test_cli_nonzero_exit_on_seeded_violations(seeded_file, capsys):
    assert lint_main([str(seeded_file)]) == 1
    out = capsys.readouterr().out
    for rule in ("RPR001", "RPR002", "RPR005", "RPR007", "RPR008"):
        assert rule in out


def test_cli_zero_exit_on_clean_file(tmp_path, capsys):
    clean = tmp_path / "clean.py"
    clean.write_text("X = 1\n")
    assert lint_main([str(clean)]) == 0
    assert "no findings" in capsys.readouterr().out


def test_cli_select_restricts_rules(seeded_file, capsys):
    assert lint_main([str(seeded_file), "--select", "RPR002"]) == 1
    out = capsys.readouterr().out
    assert "RPR002" in out
    assert "RPR007" not in out


def test_cli_ignore_can_silence_everything(seeded_file):
    code = lint_main([str(seeded_file),
                      "--ignore", "RPR001,RPR002,RPR005,RPR007,RPR008"])
    assert code == 0


def test_cli_unknown_rule_is_usage_error(seeded_file, capsys):
    assert lint_main([str(seeded_file), "--select", "NOPE"]) == 2
    assert "error" in capsys.readouterr().err


def test_cli_missing_path_is_usage_error(tmp_path, capsys):
    assert lint_main([str(tmp_path / "does_not_exist.py")]) == 2


def test_cli_list_rules(capsys):
    assert lint_main(["--list-rules"]) == 0
    out = capsys.readouterr().out
    assert "RPR001" in out and "RPR009" in out


def _exit_code(argv: list[str]) -> int:
    try:
        return lint_main(argv)
    except SystemExit as exc:      # argparse rejects unknown options
        return int(exc.code)


def test_list_rules_is_the_file_rule_set(tmp_path, capsys):
    assert lint_main(["--list-rules"]) == 0
    listed = [line.split()[0] for line in
              capsys.readouterr().out.splitlines()
              if line and not line[0].isspace()]
    assert listed == [f"RPR{k:03d}" for k in range(1, 14)]

    clean = tmp_path / "clean.py"
    clean.write_text("X = 1\n")
    assert _exit_code([str(clean), "--select", "RPR1"]) == 2
    # the call-graph export option is gone (spelled in two pieces so a
    # grep for leftover uses of it stays empty)
    assert _exit_code([str(clean), "--" + "graph",
                       str(tmp_path / "x.json")]) == 2
    # so is the finding-baseline workflow
    assert _exit_code([str(clean), "--baseline", "check"]) == 2


def _validate_against_schema(doc: dict) -> None:
    """Minimal structural validation against REPORT_JSON_SCHEMA."""
    for key in REPORT_JSON_SCHEMA["required"]:
        assert key in doc
    assert isinstance(doc["version"], int)
    assert isinstance(doc["files_checked"], int)
    assert isinstance(doc["counts"], dict)
    finding_schema = REPORT_JSON_SCHEMA["properties"]["findings"]["items"]
    for finding in doc["findings"]:
        for key in finding_schema["required"]:
            assert key in finding
        assert finding["line"] >= 1
        assert finding["col"] >= 0
        assert finding["rule"].startswith("RPR")


def test_cli_json_output_matches_schema(seeded_file, capsys):
    assert lint_main([str(seeded_file), "--format", "json"]) == 1
    doc = json.loads(capsys.readouterr().out)
    _validate_against_schema(doc)
    assert doc["files_checked"] == 1
    assert sum(doc["counts"].values()) == len(doc["findings"])
    assert doc["counts"]["RPR002"] == 1


def test_format_github_shape_and_escaping():
    finding = Finding(path="src/a.py", line=4, col=2, rule="RPR005",
                      message="bad: a,b\nnext", hint="fix it")
    line = format_github(finding)
    assert line.startswith("::warning file=src/a.py,line=4,col=3,")
    assert "title=RPR005 dtype-drift" in line
    assert "%0A" in line and "\n" not in line
    assert line.endswith("::bad: a,b%0Anext (fix it)")


def test_cli_github_format(tmp_path, capsys):
    target = tmp_path / "code.py"
    target.write_text("import numpy as np\n"
                      "x = np.zeros(3, dtype=np.float32)\n")
    assert lint_main([str(target), "--output-format", "github"]) == 1
    out = capsys.readouterr().out
    assert "::warning file=" in out and "RPR005" in out


def test_repro_cli_lint_subcommand(seeded_file):
    from repro.cli import main as repro_main

    assert repro_main(["lint", str(seeded_file)]) == 1
    assert repro_main(["lint", str(seeded_file), "--select", "RPR006"]) == 0


# ----------------------------------------------------------------------
# RPR011 ad-hoc worker pools outside repro.exec
# ----------------------------------------------------------------------

def test_rpr011_flags_executor_construction():
    findings = rule_ids("""
        from concurrent.futures import ThreadPoolExecutor
        import concurrent.futures as cf

        def run(tasks):
            with ThreadPoolExecutor(max_workers=4) as pool:
                pool.map(lambda t: t(), tasks)
            other = cf.ProcessPoolExecutor(2)
            return other
    """)
    assert findings.count("RPR011") == 2


def test_rpr011_flags_multiprocessing_pool():
    assert "RPR011" in rule_ids("""
        import multiprocessing as mp

        def run():
            return mp.Pool(4)
    """)


def test_rpr011_ignores_unrelated_pool_names():
    # a bare user-defined Pool() is not the multiprocessing one
    assert "RPR011" not in rule_ids("""
        def run(Pool):
            return Pool(4)
    """)


def test_rpr011_exempts_exec_package_and_tests():
    snippet = dedent("""
        from concurrent.futures import ThreadPoolExecutor
        POOL = ThreadPoolExecutor(2)
    """)
    for path in ("src/repro/exec/context.py", "tests/test_exec.py"):
        assert all(f.rule != "RPR011"
                   for f in lint_source(snippet, path)), path
    flagged = [f for f in lint_source(snippet, "src/repro/pme/spread.py")
               if f.rule == "RPR011"]
    assert flagged
    # the hint points at the one pool a context owns
    assert "thread_pool" in flagged[0].hint
    assert "proc_pool" not in flagged[0].hint


def test_rpr011_flags_scipy_fft_workers():
    # workers= starts pocketfft's process-global pool: one more pool
    # the ExecutionContext does not own (every import spelling)
    findings = rule_ids("""
        import scipy.fft
        import scipy.fft as sfft
        from scipy import fft
        from scipy.fft import irfft as c2r

        def inverse(spec, n):
            a = sfft.ifftn(spec, axes=(1, 2), workers=n)
            b = scipy.fft.ifftn(spec, workers=n)
            c = fft.rfftn(spec, workers=-1)
            return c2r(a, axis=3, workers=n), b, c
    """)
    assert findings.count("RPR011") == 4


def test_rpr011_ignores_scipy_fft_without_workers_and_other_workers():
    assert "RPR011" not in rule_ids("""
        import numpy as np
        import scipy.fft as sfft

        def inverse(spec, context, make):
            tmp = sfft.ifftn(spec, axes=(0, 1), overwrite_x=True)
            make(backend="threads", workers=2)
            return np.fft.irfft(tmp, axis=2), context.workers
    """)
    snippet = "import scipy.fft as sfft\nx = sfft.fft([1.0], workers=2)\n"
    assert all(f.rule != "RPR011" for f in
               lint_source(snippet, "src/repro/exec/context.py"))


# ----------------------------------------------------------------------
# RPR012 blocking calls in async serve code
# ----------------------------------------------------------------------

def serve_rule_ids(source: str) -> list[str]:
    """Rule ids for a snippet lint-checked as a serve-layer module."""
    return [f.rule for f in lint_source(dedent(source),
                                        "src/repro/serve/snippet.py")]


def test_rpr012_flags_blocking_calls_in_async_def():
    findings = serve_rule_ids("""
        import time
        import subprocess

        async def handler(conn):
            time.sleep(0.1)
            subprocess.run(["ls"])
            data = conn.recv()
            with open("f.txt") as fh:
                return fh.read(), data
    """)
    assert findings.count("RPR012") == 4


def test_rpr012_ignores_awaited_and_sync_contexts():
    findings = serve_rule_ids("""
        import asyncio
        import time

        def sync_helper():
            time.sleep(0.1)          # sync function: fine

        async def handler(loop, pool):
            await asyncio.sleep(0.1)  # awaited: fine

            def work():
                time.sleep(1.0)       # executor target: fine

            return await loop.run_in_executor(pool, work)
    """)
    assert "RPR012" not in findings


def test_rpr012_only_applies_to_serve_paths():
    snippet = dedent("""
        import time

        async def poll():
            time.sleep(0.5)
    """)
    assert any(f.rule == "RPR012" for f in lint_source(
        snippet, "src/repro/serve/jobs.py"))
    for path in ("src/repro/runtime/worker.py",
                 "tests/serve/test_x.py", "tests/test_serve.py"):
        assert all(f.rule != "RPR012"
                   for f in lint_source(snippet, path)), path


def test_rpr012_serve_package_is_clean():
    findings, files_checked = lint_paths(
        [str(SRC_DIR / "repro" / "serve")])
    assert files_checked >= 7
    assert [f for f in findings if f.rule == "RPR012"] == []


# ----------------------------------------------------------------------
# RPR013 names removed from src/repro
# ----------------------------------------------------------------------

def removed_name_findings(source: str, path: str) -> list[Finding]:
    return [f for f in lint_source(source, path) if f.rule == "RPR013"]


def test_rpr013_flags_every_removed_name_once():
    from repro.lint.removed import REMOVED_NAMES

    changes = (SRC_DIR.parent / "CHANGES.md").read_text(encoding="utf-8")
    assert len(REMOVED_NAMES) == 72     # a row leaves only with its name
    for row in REMOVED_NAMES:
        assert row.change in changes, row.change
        if row.pattern.startswith("^"):
            continue            # the import forms: test_rpr013_path_scopes
        # every other row is a literal name, and counts in a comment
        path = f"src/repro/{row.under or 'core/'}seeded.py"
        found = removed_name_findings(f"x = 1  # {row.pattern}\n", path)
        assert len(found) == 1, row.pattern
        assert f"`{row.pattern}`" in found[0].message
        assert (found[0].line, found[0].col) == (1, 9)


@pytest.mark.parametrize("seed,path,count", [
    ("import scipy.spatial", "src/repro/neighbor/pairs.py", 0),
    ("import scipy.spatial", "/w/src/repro/src/repro/neighbor/pairs.py", 0),
    ("import scipy.spatial", "src/repro/neighbor/cells.py", 1),
    ("from scipy.spatial import cKDTree", "src/repro/pme/realspace.py", 1),
    ("from scipy import spatial", "src/repro/neighbor/pairs.py", 0),
    ("from scipy import sparse, spatial", "src/repro/geometry/box.py", 1),
    ("f(backend='threads')", "src/repro/neighbor/pairs.py", 1),
    ("f(backend='threads')", "src/repro/exec/context.py", 0),
    ("x = 'lagrange'", "benchmarks/reference/pme_variants.py", 0),
    ("x = 'lagrange'", "tests/test_spread.py", 0),
])
def test_rpr013_path_scopes(seed, path, count):
    assert len(removed_name_findings(seed + "\n", path)) == count


def test_rpr013_table_module_does_not_report_itself():
    import repro.lint.removed as removed

    table = Path(removed.__file__)
    findings, checked = lint_paths([table], select=["RPR013"])
    assert checked == 1 and findings == []
    # a copy elsewhere in the package reports every literal it spells
    source = table.read_text(encoding="utf-8")
    flagged = {f.message.split("`")[1] for f in
               removed_name_findings(source, "src/repro/core/copy.py")}
    assert flagged == {row.pattern for row in removed.REMOVED_NAMES
                       if not (row.pattern.startswith("^") or row.under)}

