"""Tests for the consolidated runtime configuration (repro.config).

Precedence contract: ``env > CLI > defaults``.  The resolver re-reads
the environment on every call (fingerprint-cached), so long-running
processes see live flips.
"""

import json

import pytest

from repro import config as config_mod
from repro.cli import main
from repro.config import (
    ENV_VARS,
    RuntimeConfig,
    clear_cli_overrides,
    config_table,
    get_config,
    set_cli_overrides,
)
from repro.errors import ConfigurationError


@pytest.fixture(autouse=True)
def clean_slate(monkeypatch):
    """Each test starts from defaults: no REPRO_* vars, no CLI values."""
    for var in ENV_VARS.values():
        monkeypatch.delenv(var, raising=False)
    clear_cli_overrides()
    yield
    clear_cli_overrides()


# ---------------------------------------------------------------------------
# resolution and precedence
# ---------------------------------------------------------------------------

def test_defaults():
    cfg = get_config()
    assert cfg.exec_workers == 1        # serial, inline
    assert cfg.no_ckernel is False
    assert cfg.ckernel_cache == ""
    # the package's three knobs; the benchmark scripts read their own
    assert list(cfg.as_dict()) == ["no_ckernel", "ckernel_cache",
                                   "exec_workers"]
    assert list(ENV_VARS) == list(cfg.as_dict())


def test_env_beats_defaults(monkeypatch):
    monkeypatch.setenv("REPRO_EXEC_WORKERS", "3")
    monkeypatch.setenv("REPRO_NO_CKERNEL", "yes")
    cfg = get_config()
    assert cfg.exec_workers == 3
    assert cfg.no_ckernel is True


def test_cli_beats_defaults():
    set_cli_overrides(exec_workers=2)
    assert get_config().exec_workers == 2


def test_env_beats_cli(monkeypatch):
    set_cli_overrides(exec_workers=8, ckernel_cache="/from/cli")
    monkeypatch.setenv("REPRO_EXEC_WORKERS", "2")
    cfg = get_config()
    assert cfg.exec_workers == 2                 # env wins
    assert cfg.ckernel_cache == "/from/cli"      # CLI survives where env is unset


def test_none_cli_values_are_ignored():
    set_cli_overrides(exec_workers=None, ckernel_cache="/from/cli")
    cfg = get_config()
    assert cfg.exec_workers == 1
    assert cfg.ckernel_cache == "/from/cli"


def test_unknown_cli_field_rejected():
    with pytest.raises(TypeError, match="unknown config fields"):
        set_cli_overrides(nonsense=1)


def test_live_env_flip_reresolves(monkeypatch):
    assert get_config().exec_workers == 1
    monkeypatch.setenv("REPRO_EXEC_WORKERS", "2")
    assert get_config().exec_workers == 2
    monkeypatch.delenv("REPRO_EXEC_WORKERS")
    assert get_config().exec_workers == 1


def test_resolution_is_cached(monkeypatch):
    monkeypatch.setenv("REPRO_EXEC_WORKERS", "2")
    assert get_config() is get_config()


# ---------------------------------------------------------------------------
# validation
# ---------------------------------------------------------------------------

def test_invalid_backend_rejected():
    # the backend is not a setting: the worker count decides it, and
    # the config takes no backend by keyword or as a CLI value
    with pytest.raises(TypeError, match="backend"):
        RuntimeConfig(backend="threads")
    with pytest.raises(TypeError, match="unknown config fields"):
        set_cli_overrides(backend="threads")


def test_removed_backend_variable_is_ignored(monkeypatch, capsys):
    # REPRO_BACKEND is read by nothing: any value resolves to the
    # defaults, and `repro config show` does not list it
    monkeypatch.setenv("REPRO_BACKEND", "gpu")
    assert get_config() == RuntimeConfig()
    assert main(["config", "show"]) == 0
    assert "REPRO_BACKEND" not in capsys.readouterr().out


def test_negative_workers_rejected():
    with pytest.raises(ConfigurationError, match="exec_workers"):
        RuntimeConfig(exec_workers=-1)


def test_non_integer_workers_rejected(monkeypatch):
    monkeypatch.setenv("REPRO_EXEC_WORKERS", "many")
    with pytest.raises(ConfigurationError, match="integer"):
        get_config()


def test_resolved_workers():
    assert RuntimeConfig().resolved_workers() == 1
    assert RuntimeConfig(exec_workers=3).resolved_workers() == 3
    # 0: one per CPU of the affinity mask
    assert (RuntimeConfig(exec_workers=0).resolved_workers()
            == config_mod.available_cpus())


# ---------------------------------------------------------------------------
# provenance table and `repro config show`
# ---------------------------------------------------------------------------

def test_config_table_provenance(monkeypatch):
    monkeypatch.setenv("REPRO_NO_CKERNEL", "1")
    set_cli_overrides(exec_workers=2)
    sources = {name: source for name, _, _, source in config_table()}
    assert sources == {"no_ckernel": "env", "ckernel_cache": "default",
                       "exec_workers": "cli"}


def test_cli_config_show_table(capsys, monkeypatch):
    monkeypatch.setenv("REPRO_EXEC_WORKERS", "5")
    assert main(["config", "show"]) == 0
    out = capsys.readouterr().out
    assert "REPRO_EXEC_WORKERS" in out
    assert len(out.splitlines()) == 1 + 3     # header + one row per knob
    line = next(ln for ln in out.splitlines()
                if ln.startswith("exec_workers"))
    assert "5" in line and "env" in line


def test_cli_config_show_json(capsys):
    assert main(["config", "show", "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["exec_workers"] == 1
    assert set(payload) == set(ENV_VARS)


def test_cli_backend_flag_feeds_config(tmp_path, capsys):
    # there is no --backend flag: argparse rejects it on every command
    # that took it, and --exec-workers alone selects threads
    from repro.exec import default_context, reset_default_context

    out_file = tmp_path / "traj.npz"
    for command in ("simulate", "ensemble", "profile", "serve"):
        with pytest.raises(SystemExit) as usage:
            main([command, "--backend", "threads"])
        assert usage.value.code == 2
        assert ("unrecognized arguments: --backend threads"
                in capsys.readouterr().err), command
    rc = main(["simulate", "-n", "16", "--steps", "2",
               "--exec-workers", "2", "-o", str(out_file)])
    assert rc == 0
    assert get_config().exec_workers == 2
    try:
        ctx = default_context()
        assert (ctx.backend, ctx.workers) == ("threads", 2)
    finally:
        reset_default_context()


def test_config_module_is_the_single_reader():
    """No src module outside repro.config reads REPRO_* directly."""
    import pathlib

    root = pathlib.Path(config_mod.__file__).parent
    offenders = []
    for path in root.rglob("*.py"):
        if path.name == "config.py":
            continue
        text = path.read_text()
        for var in ENV_VARS.values():
            if f'"{var}"' in text or f"'{var}'" in text:
                offenders.append(f"{path.name}: {var}")
    assert not offenders, offenders
