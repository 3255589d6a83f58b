"""Tests for the consolidated runtime configuration (repro.config).

Precedence contract: ``env > CLI > defaults``.  The resolver re-reads
the environment on every call (fingerprint-cached), so long-running
processes see live flips — the behavior the contracts layer relied on
before the knobs were consolidated here.
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
    assert cfg.backend == "serial"
    assert cfg.exec_workers == 0
    assert cfg.checks == "1"
    assert cfg.no_ckernel is False
    assert cfg.bench_scale == "ci"


def test_env_beats_defaults(monkeypatch):
    monkeypatch.setenv("REPRO_BACKEND", "threads")
    monkeypatch.setenv("REPRO_EXEC_WORKERS", "3")
    monkeypatch.setenv("REPRO_NO_CKERNEL", "yes")
    cfg = get_config()
    assert cfg.backend == "threads"
    assert cfg.exec_workers == 3
    assert cfg.no_ckernel is True


def test_cli_beats_defaults():
    set_cli_overrides(backend="threads", exec_workers=2)
    cfg = get_config()
    assert cfg.backend == "threads"
    assert cfg.exec_workers == 2


def test_env_beats_cli(monkeypatch):
    set_cli_overrides(backend="threads", exec_workers=8)
    monkeypatch.setenv("REPRO_BACKEND", "serial")
    cfg = get_config()
    assert cfg.backend == "serial"       # env wins
    assert cfg.exec_workers == 8         # CLI survives where env is unset


def test_none_cli_values_are_ignored():
    set_cli_overrides(backend=None, exec_workers=4)
    cfg = get_config()
    assert cfg.backend == "serial"
    assert cfg.exec_workers == 4


def test_unknown_cli_field_rejected():
    with pytest.raises(TypeError, match="unknown config fields"):
        set_cli_overrides(nonsense=1)


def test_live_env_flip_reresolves(monkeypatch):
    assert get_config().backend == "serial"
    monkeypatch.setenv("REPRO_BACKEND", "threads")
    assert get_config().backend == "threads"
    monkeypatch.delenv("REPRO_BACKEND")
    assert get_config().backend == "serial"


def test_resolution_is_cached(monkeypatch):
    monkeypatch.setenv("REPRO_BACKEND", "threads")
    assert get_config() is get_config()


# ---------------------------------------------------------------------------
# validation
# ---------------------------------------------------------------------------

def test_invalid_backend_rejected(monkeypatch):
    monkeypatch.setenv("REPRO_BACKEND", "gpu")
    with pytest.raises(ConfigurationError, match="backend"):
        get_config()


def test_negative_workers_rejected():
    with pytest.raises(ConfigurationError, match="exec_workers"):
        RuntimeConfig(exec_workers=-1)


def test_non_integer_workers_rejected(monkeypatch):
    monkeypatch.setenv("REPRO_EXEC_WORKERS", "many")
    with pytest.raises(ConfigurationError, match="integer"):
        get_config()


def test_resolved_workers():
    assert RuntimeConfig(backend="serial", exec_workers=9) \
        .resolved_workers() == 1
    assert RuntimeConfig(backend="threads", exec_workers=3) \
        .resolved_workers() == 3
    assert RuntimeConfig(backend="threads", exec_workers=0) \
        .resolved_workers() >= 1     # auto: one per available CPU


# ---------------------------------------------------------------------------
# provenance table and `repro config show`
# ---------------------------------------------------------------------------

def test_config_table_provenance(monkeypatch):
    monkeypatch.setenv("REPRO_BACKEND", "threads")
    set_cli_overrides(exec_workers=2)
    sources = {name: source for name, _, _, source in config_table()}
    assert sources["backend"] == "env"
    assert sources["exec_workers"] == "cli"
    assert sources["checks"] == "default"


def test_cli_config_show_table(capsys, monkeypatch):
    monkeypatch.setenv("REPRO_EXEC_WORKERS", "5")
    assert main(["config", "show"]) == 0
    out = capsys.readouterr().out
    assert "REPRO_BACKEND" in out and "REPRO_EXEC_WORKERS" in out
    line = next(ln for ln in out.splitlines()
                if ln.startswith("exec_workers"))
    assert "5" in line and "env" in line


def test_cli_config_show_json(capsys):
    assert main(["config", "show", "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["backend"] == "serial"
    assert set(payload) == set(ENV_VARS)


def test_cli_backend_flag_feeds_config(tmp_path, capsys):
    out_file = tmp_path / "traj.npz"
    rc = main(["simulate", "-n", "16", "--steps", "2", "--backend",
               "threads", "--exec-workers", "2", "-o", str(out_file)])
    assert rc == 0
    cfg = get_config()
    assert cfg.backend == "threads" and cfg.exec_workers == 2


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
