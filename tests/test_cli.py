"""Tests for the command-line interface."""

import json

import numpy as np
import pytest

from repro.cli import build_parser, main


def test_info(capsys):
    assert main(["info"]) == 0
    out = capsys.readouterr().out
    assert "repro" in out
    assert "numpy" in out


def test_tune(capsys):
    assert main(["tune", "-n", "500"]) == 0
    out = capsys.readouterr().out
    assert "K=" in out
    assert "alpha=" in out
    # the ranking it came from: one row per candidate cutoff, the
    # machine it was ranked on, the chosen row and the cheapest marked
    assert "ranked on: substrate" in out
    assert "Westmere" not in out
    for column in ("r_max", "build", "recip", "real", "step", "MiB",
                   "e_real", "e_spline", "e_trunc"):
        assert column in out
    assert out.count("<- chosen") == 1
    assert out.count("(cheapest)") == 1
    from repro import Box
    from repro.pme.tuning import candidate_cutoffs
    rows = [line for line in out.splitlines()
            if line.strip()[:1].isdigit()]
    assert len(rows) == len(candidate_cutoffs(
        Box.for_volume_fraction(500, 0.2)))


def test_profile_document_carries_a_calibrated_machine(tmp_path, capsys):
    import json

    from repro.perfmodel import Machine, PMECostModel
    doc = tmp_path / "profile.json"
    rc = main(["profile", "-n", "30", "--phi", "0.1", "--steps", "2",
               "--e-p", "1e-2", "--json", str(doc)])
    assert rc == 0
    out = capsys.readouterr().out
    assert "tuner's ranking model (committed): Machine(" in out
    assert "this host, calibrated: Machine(" in out
    fields = json.loads(doc.read_text())["machine"]
    for key in ("fft_rate_table", "ifft_rate_table"):
        fields[key] = tuple(tuple(row) for row in fields[key])
    machine = Machine(**fields)
    assert machine.spmm_ns_per_block > 0 and machine.pair_build_us > 0
    assert PMECostModel(machine).block_step(1000, 24, 6, 140.0)["total"] > 0


def test_simulate_and_analyze(tmp_path, capsys):
    out_file = tmp_path / "traj.npz"
    rc = main(["simulate", "-n", "25", "--phi", "0.1", "--steps", "6",
               "--record-interval", "2", "--e-p", "1e-2",
               "-o", str(out_file)])
    assert rc == 0
    assert out_file.exists()
    rc = main(["analyze", str(out_file)])
    assert rc == 0
    out = capsys.readouterr().out
    assert "D(tau->0)" in out


def test_simulate_continues_its_checkpoint(tmp_path, capsys):
    from repro.core.trajectory_io import load_trajectory
    from repro.runtime.tasks import positions_digest

    base = ["simulate", "-n", "20", "--phi", "0.1", "--e-p", "1e-2",
            "--lambda-rpy", "4", "--record-interval", "4"]
    ckpt = str(tmp_path / "run.ckpt.npz")
    assert main(base + ["--steps", "16", "-o",
                        str(tmp_path / "full.npz")]) == 0
    assert main(base + ["--steps", "8", "--checkpoint", ckpt, "-o",
                        str(tmp_path / "first.npz")]) == 0
    capsys.readouterr()
    assert main(base + ["--steps", "16", "--checkpoint", ckpt, "-o",
                        str(tmp_path / "rest.npz")]) == 0
    out = capsys.readouterr().out
    assert f"continued {ckpt} from step 8" in out
    assert "ran 8 steps" in out
    full = load_trajectory(tmp_path / "full.npz")
    rest = load_trajectory(tmp_path / "rest.npz")
    assert positions_digest(rest.positions[-1]) == \
        positions_digest(full.positions[-1])


def test_fault_drill_continues_its_checkpoint(tmp_path, capsys):
    # a drill re-run on its checkpoint continues it like any simulate;
    # its fault call indices count from the start of each process
    from repro.core.trajectory_io import load_trajectory
    from repro.runtime.tasks import positions_digest

    base = ["simulate", "-n", "20", "--phi", "0.1", "--e-p", "1e-2",
            "--lambda-rpy", "4"]
    ckpt = str(tmp_path / "drill.ckpt.npz")
    drill = ["--inject-faults", "seed=7,ckpt=kill@1", "--checkpoint", ckpt]
    assert main(base + ["--steps", "16", "-o",
                        str(tmp_path / "full.npz")]) == 0
    # writes at step 4, then at step 8 killed after the rotation: the
    # latest good checkpoint is step 4's, now <ckpt>.prev
    assert main(base + drill + ["--steps", "8", "-o",
                                str(tmp_path / "first.npz")]) == 0
    capsys.readouterr()
    assert main(base + drill + ["--steps", "16", "-o",
                                str(tmp_path / "rest.npz")]) == 0
    out = capsys.readouterr().out
    assert f"continued {ckpt} from step 4" in out
    assert "ran 12 steps" in out
    assert ("injected faults: 1 (force=0, operator=0, brownian=0, "
            "checkpoint=1)") in out
    assert "  checkpoint-corruption    inject-checkpoint-kill x1" in out
    full = load_trajectory(tmp_path / "full.npz")
    rest = load_trajectory(tmp_path / "rest.npz")
    assert positions_digest(rest.positions[-1]) == \
        positions_digest(full.positions[-1])


def test_simulate_ewald_backend(tmp_path):
    out_file = tmp_path / "traj.npz"
    rc = main(["simulate", "-n", "20", "--steps", "4",
               "--algorithm", "ewald", "-o", str(out_file)])
    assert rc == 0
    from repro.core.trajectory_io import load_trajectory
    traj = load_trajectory(out_file)
    assert traj.n_particles == 20


@pytest.mark.parametrize("command, spec, key", [
    ("simulate", "kill=1", "kill"),
    ("ensemble", "lanczos=0.1", "lanczos"),
])
def test_inject_faults_rejects_the_other_levels_keys(tmp_path, command,
                                                     spec, key):
    # simulate injects in-process faults only, ensemble process faults
    # only; each names the key it cannot inject
    from repro.errors import ConfigurationError

    argv = {"simulate": ["simulate", "-n", "20", "--steps", "2",
                         "--e-p", "1e-2", "-o", str(tmp_path / "t.npz")],
            "ensemble": ["ensemble", "-n", "20", "--steps", "2",
                         "--tasks", "1", "--checkpoint-dir",
                         str(tmp_path / "campaign")]}[command]
    with pytest.raises(ConfigurationError, match=f"'{key}'"):
        main(argv + ["--inject-faults", spec])


def test_profile_prints_phase_table(tmp_path, capsys):
    metrics = tmp_path / "m.json"
    rc = main(["profile", "-n", "30", "--phi", "0.1", "--steps", "2",
               "--e-p", "1e-2", "--metrics", str(metrics)])
    assert rc == 0
    out = capsys.readouterr().out
    for phase in ("spread", "fft", "influence", "ifft", "interpolate",
                  "real"):
        assert phase in out
    assert "meas/pred" in out
    # the operator build, and the three steps of its real-space half
    for span in ("construct_p=", "construct_real=", "find_pairs=",
                 "real_table=", "real_assemble="):
        assert span in out
    from repro.obs.schema import validate_metrics_json
    validate_metrics_json(json.loads(metrics.read_text()))


def test_parser_requires_command():
    with pytest.raises(SystemExit):
        build_parser().parse_args([])


def test_subcommands_are_pinned(capsys):
    import argparse

    sub = next(action for action in build_parser()._actions
               if isinstance(action, argparse._SubParsersAction))
    assert list(sub.choices) == [
        "simulate", "ensemble", "profile", "analyze", "tune",
        "config", "serve", "submit", "info"]
    # no `bench` subcommand: benchmarks/suite is the performance gate;
    # no `lint` subcommand: the linter is tools/rprlint, not part of repro
    for argv, name in ((["bench", "compare", "x.json"], "bench"),
                       (["lint", "src"], "lint")):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert f"invalid choice: '{name}'" in capsys.readouterr().err


def test_parser_rejects_unknown_algorithm():
    with pytest.raises(SystemExit):
        build_parser().parse_args(["simulate", "--algorithm", "magic"])


def test_analyze_max_lag(tmp_path, capsys):
    # build a tiny trajectory directly
    from repro import FluidParams, Trajectory
    from repro.core.trajectory_io import save_trajectory
    rng = np.random.default_rng(0)
    traj = Trajectory(times=np.arange(10) * 0.1,
                      positions=np.cumsum(
                          rng.normal(0, 0.1, (10, 5, 3)), axis=0),
                      box_length=10.0, fluid=FluidParams())
    path = tmp_path / "t.npz"
    save_trajectory(path, traj)
    assert main(["analyze", str(path), "--max-lag", "3"]) == 0
    out = capsys.readouterr().out
    assert "D(tau=" in out
