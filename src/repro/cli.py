"""Command-line interface: ``python -m repro <command>``.

The subcommands cover the common workflows:

* ``simulate`` — run a matrix-free (or Ewald) BD simulation of a
  monodisperse suspension and write the trajectory to ``.npz``,
* ``ensemble`` — run a campaign of independent trajectories on a
  supervised multi-process worker pool (crash/hang/slow recovery,
  graceful SIGTERM drain, ``--resume``),
* ``profile``  — short traced run printing the Fig. 5-style phase
  breakdown, measured vs the Section IV.D performance model,
* ``analyze``  — diffusion analysis of a saved trajectory,
* ``tune``     — print the PME parameters the tuner selects for a
  system size / accuracy target (one Table III row),
* ``config``   — ``config show`` prints the resolved ``REPRO_*``
  runtime configuration with provenance,
* ``serve``    — the batched simulation service on a local socket,
* ``submit``   — send one request to a running ``serve`` instance,
* ``info``     — version and machine-model summary.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    """The argument parser (exposed for tests and docs)."""
    from .runtime.supervisor import HANG_TIMEOUT

    parser = argparse.ArgumentParser(
        prog="repro",
        description="Matrix-free hydrodynamic Brownian dynamics "
                    "(Liu & Chow, IPDPS 2014 reproduction)")
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="run a BD simulation")
    sim.add_argument("-n", "--particles", type=int, default=1000)
    sim.add_argument("--phi", type=float, default=0.2,
                     help="volume fraction (default 0.2)")
    sim.add_argument("--steps", type=int, default=1000)
    sim.add_argument("--dt", type=float, default=1e-3)
    sim.add_argument("--algorithm", choices=["matrix-free", "ewald"],
                     default="matrix-free")
    sim.add_argument("--lambda-rpy", type=int, default=16)
    sim.add_argument("--e-k", type=float, default=1e-2,
                     help="Krylov tolerance (matrix-free)")
    sim.add_argument("--e-p", type=float, default=1e-3,
                     help="PME accuracy target (matrix-free)")
    sim.add_argument("--seed", type=int, default=0)
    sim.add_argument("--record-interval", type=int, default=10)
    sim.add_argument("-o", "--output", default="trajectory.npz")
    sim.add_argument("--checkpoint", default=None, metavar="PATH",
                     help="write rotating crash-safe checkpoints to PATH; "
                          "a checkpoint already there is continued "
                          "(not under --inject-faults)")
    sim.add_argument("--checkpoint-interval", type=int, default=None,
                     help="steps between checkpoints "
                          "(default: lambda-rpy, the bit-exact choice)")
    sim.add_argument("--inject-faults", default=None, metavar="SPEC",
                     help="deterministic fault-injection soak, e.g. "
                          "'seed=7,lanczos=0.01,nan-force=0.005,ckpt=kill@3'")
    sim.add_argument("--max-wall-time", type=float, default=None,
                     metavar="SECONDS",
                     help="stop gracefully at the next mobility-block "
                          "boundary once this wall-clock budget is spent "
                          "(also installs SIGTERM/SIGINT handlers); with "
                          "--checkpoint the run is resumable and exits 0")
    _add_obs_arguments(sim)
    _add_exec_arguments(sim)

    ens = sub.add_parser(
        "ensemble",
        help="run an ensemble campaign on a supervised worker pool")
    ens.add_argument("-n", "--particles", type=int, default=100)
    ens.add_argument("--phi", type=float, default=0.2)
    ens.add_argument("--steps", type=int, default=1000,
                     help="BD steps per ensemble member")
    ens.add_argument("--tasks", type=int, default=8,
                     help="number of ensemble members")
    ens.add_argument("--dt", type=float, default=1e-3)
    ens.add_argument("--lambda-rpy", type=int, default=16)
    ens.add_argument("--e-k", type=float, default=1e-2)
    ens.add_argument("--seed", type=int, default=0,
                     help="campaign seed (per-task seeds are derived)")
    ens.add_argument("--workers", type=int, default=2,
                     help="worker-process pool size")
    ens.add_argument("--checkpoint-dir", default="campaign", metavar="DIR",
                     help="directory for per-task checkpoints and the "
                          "campaign manifest (default: campaign/)")
    ens.add_argument("--resume", action="store_true",
                     help="continue the campaign recorded in "
                          "DIR/campaign.json")
    ens.add_argument("--deadline", type=float, default=None,
                     metavar="SECONDS",
                     help="per-task-attempt wall-clock budget; slower "
                          "attempts are killed and retried")
    ens.add_argument("--hang-timeout", type=float, default=HANG_TIMEOUT,
                     metavar="SECONDS",
                     help="heartbeat silence before a worker is declared "
                          "hung (default %(default)g)")
    ens.add_argument("--inject-faults", default=None, metavar="SPEC",
                     help="process-level fault plan, e.g. "
                          "'seed=7,kill=2,hang=1,slow=1,corrupt=1,"
                          "slow-per-step=0.2'")
    _add_obs_arguments(ens)
    _add_exec_arguments(ens)

    prof = sub.add_parser(
        "profile",
        help="traced run with a Fig. 5-style measured-vs-model table")
    prof.add_argument("-n", "--particles", type=int, default=1000)
    prof.add_argument("--phi", type=float, default=0.2)
    prof.add_argument("--steps", type=int, default=5)
    prof.add_argument("--dt", type=float, default=1e-3)
    prof.add_argument("--lambda-rpy", type=int, default=16)
    prof.add_argument("--e-k", type=float, default=1e-2)
    prof.add_argument("--e-p", type=float, default=1e-3)
    prof.add_argument("--seed", type=int, default=0)
    prof.add_argument("--json", default=None, metavar="PATH",
                      help="write the machine-readable profile document "
                           "(repro-profile/1, with this host calibrated)")
    _add_obs_arguments(prof)
    _add_exec_arguments(prof)

    ana = sub.add_parser("analyze", help="analyze a saved trajectory")
    ana.add_argument("trajectory", help="path to a .npz trajectory")
    ana.add_argument("--max-lag", type=int, default=None)

    tune = sub.add_parser("tune", help="select PME parameters")
    tune.add_argument("-n", "--particles", type=int, required=True)
    tune.add_argument("--phi", type=float, default=0.2)
    tune.add_argument("--e-p", type=float, default=1e-3)
    tune.add_argument("-p", "--order", type=int, default=6,
                      help="B-spline order (4, 6 or 8)")

    conf = sub.add_parser(
        "config", help="runtime configuration (REPRO_* knobs)")
    conf_sub = conf.add_subparsers(dest="config_command", required=True)
    cshow = conf_sub.add_parser(
        "show", help="print the resolved configuration with provenance "
                     "(env > CLI > defaults)")
    cshow.add_argument("--format", choices=["table", "json"],
                       default="table")

    serve = sub.add_parser(
        "serve",
        help="run the batched simulation service on a local socket")
    serve.add_argument("--socket", default=None, metavar="PATH",
                       help="listen on a Unix socket at PATH "
                            "(default: TCP)")
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=7321,
                       help="TCP port (0 = ephemeral; default 7321)")
    serve.add_argument("--max-batch", type=int, default=8,
                       help="columns that flush a mobility batch "
                            "immediately (default 8)")
    serve.add_argument("--max-wait", type=float, default=2e-3,
                       metavar="SECONDS",
                       help="longest a mobility batch waits for a "
                            "connection that has not sent; batches "
                            "flush at once when every open connection "
                            "is waiting in one (default 2ms)")
    serve.add_argument("--max-queue", type=int, default=64,
                       help="mobility backlog bound in columns; beyond "
                            "it requests are shed (default 64)")
    serve.add_argument("--max-inflight", type=int, default=8,
                       help="unanswered requests allowed per connection "
                            "(default 8)")
    serve.add_argument("--max-jobs", type=int, default=2,
                       help="concurrent simulate campaigns (default 2)")
    serve.add_argument("--compute-threads", type=int, default=0,
                       help="thread pool size for applies/builds "
                            "(0 = REPRO_EXEC_WORKERS resolution)")
    serve.add_argument("--work-dir", default="serve-jobs",
                       help="checkpoint/manifest directory for served "
                            "simulate jobs; a finished job's directory "
                            "answers its repeats (default serve-jobs/)")
    _add_obs_arguments(serve)
    _add_exec_arguments(serve)

    smt = sub.add_parser(
        "submit", help="send one request to a running serve instance")
    smt.add_argument("--socket", default=None, metavar="PATH",
                     help="connect to a Unix socket at PATH")
    smt.add_argument("--host", default="127.0.0.1")
    smt.add_argument("--port", type=int, default=7321)
    smt.add_argument("--op", choices=["ping", "stats", "simulate",
                                      "mobility-bench"],
                     default="ping")
    smt.add_argument("-n", "--particles", type=int, default=100)
    smt.add_argument("--phi", type=float, default=0.2)
    smt.add_argument("--steps", type=int, default=100)
    smt.add_argument("--seed", type=int, default=0)
    smt.add_argument("--system-seed", type=int, default=0)
    smt.add_argument("--repeats", type=int, default=8,
                     help="mobility-bench: applies to send (default 8)")
    smt.add_argument("--retries", type=int, default=10,
                     help="Retry-After attempts on shed (default 10)")
    smt.add_argument("--timeout", type=float, default=600.0)

    sub.add_parser("info", help="version and environment summary")
    return parser


def _add_exec_arguments(sub_parser: argparse.ArgumentParser) -> None:
    sub_parser.add_argument(
        "--exec-workers", type=int, default=None, metavar="N",
        help="threads running the PME pipeline (1 = serial, 0 = one per "
             "CPU; default: REPRO_EXEC_WORKERS or 1)")


def _add_obs_arguments(sub_parser: argparse.ArgumentParser) -> None:
    sub_parser.add_argument("--trace", default=None, metavar="PATH",
                            help="write a chrome://tracing / Perfetto "
                                 "JSON trace to PATH")
    sub_parser.add_argument("--metrics", default=None, metavar="PATH",
                            help="write metrics as JSON to PATH")


def _obs_wanted(args) -> bool:
    # profile always traces: its table is read off the tracer
    return (args.command == "profile" or args.trace is not None
            or args.metrics is not None)


def _write_obs_outputs(args, merged, registry) -> None:
    """Write the requested trace and metrics files (every command)."""
    if args.trace is not None:
        path = merged.write_chrome_trace(args.trace)
        print(f"trace: {len(merged.events)} events -> {path}")
    if args.metrics is not None:
        path = registry.write(args.metrics)
        print(f"metrics -> {path}")


def _with_obs(args, runner, write_outputs: bool = True) -> int:
    """Run ``runner(args)`` under a fresh tracer/registry if requested.

    The process's own trace is written as a one-track merge;
    ``write_outputs=False`` leaves the export to the runner — the
    ensemble command writes the campaign merge with every worker's
    track instead.
    """
    if not _obs_wanted(args):
        return runner(args)
    from . import obs

    tracer = obs.Tracer()
    registry = obs.MetricsRegistry()
    previous_tracer = obs.set_tracer(tracer)
    previous_registry = obs.set_metrics(registry)
    try:
        code = runner(args)
    finally:
        obs.set_tracer(previous_tracer)
        obs.set_metrics(previous_registry)
    if write_outputs:
        merged = obs.merge_traces([tracer.track_group(args.command)])
        _write_obs_outputs(args, merged, registry)
    return code


def _cmd_simulate(args) -> int:
    return _with_obs(args, _run_simulate)


def _cmd_ensemble(args) -> int:
    return _with_obs(args, _run_ensemble, write_outputs=False)


def _run_simulate(args) -> int:
    from .core.simulation import Simulation
    from .core.trajectory_io import save_trajectory
    from .systems.suspension import make_suspension

    susp = make_suspension(args.particles, args.phi, seed=args.seed)
    print(f"system: n={susp.n}, Phi={susp.volume_fraction:.3f}, "
          f"L={susp.box.length:.2f}")
    kwargs = {}
    if args.algorithm == "matrix-free":
        kwargs = dict(e_k=args.e_k, target_ep=args.e_p)
    sim = Simulation(susp, algorithm=args.algorithm, dt=args.dt,
                     lambda_rpy=args.lambda_rpy, seed=args.seed + 1,
                     **kwargs)

    run_kwargs = dict(n_steps=args.steps,
                      record_interval=args.record_interval,
                      checkpoint_path=args.checkpoint,
                      checkpoint_interval=args.checkpoint_interval)
    schedule = None
    if args.inject_faults is not None:
        from .resilience import RecoveryLog
        from .resilience.faults import (
            FaultPlan,
            faulty_checkpoint_save,
            install_faults,
        )

        schedule = FaultPlan.from_spec(args.inject_faults)
        install_faults(sim.integrator, schedule)
        checkpoint_log = RecoveryLog()
        run_kwargs["save"] = faulty_checkpoint_save(schedule,
                                                    log=checkpoint_log)

    if args.max_wall_time is not None:
        from .obs import now
        from .runtime.signals import GracefulShutdown

        t0 = now()
        with GracefulShutdown() as shutdown:
            run_kwargs["stop"] = lambda: (
                shutdown.triggered
                or now() - t0 >= args.max_wall_time)
            traj, stats = sim.run(**run_kwargs)
        stop_reason = shutdown.signal_name or "wall-time limit"
    else:
        traj, stats = sim.run(**run_kwargs)
    save_trajectory(args.output, traj)
    if sim.step > stats.n_steps:
        print(f"continued {args.checkpoint} from step "
              f"{sim.step - stats.n_steps}")
    print(f"ran {stats.n_steps} steps in {stats.timers.total:.1f} s "
          f"({stats.seconds_per_step * 1e3:.1f} ms/step); "
          f"{traj.n_frames} frames -> {args.output}")
    if stats.stopped_early:
        where = (args.checkpoint if args.checkpoint
                 else "no checkpoint (pass --checkpoint to continue "
                      "bit-exactly)")
        print(f"resumable: stopped gracefully at step {sim.step} "
              f"of {args.steps} ({stop_reason}); checkpoint: {where}")
    if schedule is not None:
        # checkpoint faults join the run's recovery log
        stats.recovery.events += checkpoint_log.events
        print(f"injected faults: {len(schedule.faults)} "
              f"(force={schedule.count('force')}, "
              f"operator={schedule.count('operator')}, "
              f"brownian={schedule.count('brownian')}, "
              f"checkpoint={schedule.count('checkpoint')})")
    if schedule is not None or len(stats.recovery):
        print("recovery log:")
        for line in stats.recovery.summary().splitlines():
            print(f"  {line}")
    return 0


def _run_ensemble(args) -> int:
    import os

    from .resilience.faults import FaultPlan
    from .runtime import (
        MANIFEST_NAME,
        CampaignManifest,
        GracefulShutdown,
        Supervisor,
        TaskState,
        make_ensemble,
    )

    os.makedirs(args.checkpoint_dir, exist_ok=True)
    manifest_path = os.path.join(args.checkpoint_dir, MANIFEST_NAME)
    if args.resume:
        manifest = CampaignManifest.load(manifest_path)
        tasks = manifest.tasks
        counts = manifest.counts()
        print(f"resuming campaign from {manifest_path}: "
              + ", ".join(f"{v} {k}" for k, v in sorted(counts.items())))
    else:
        tasks = make_ensemble(args.tasks, n=args.particles, phi=args.phi,
                              n_steps=args.steps, seed=args.seed,
                              dt=args.dt, lambda_rpy=args.lambda_rpy,
                              e_k=args.e_k)
        print(f"campaign: {len(tasks)} tasks x {args.steps} steps, "
              f"n={args.particles}, Phi={args.phi}, "
              f"{args.workers} workers")
    plan = (FaultPlan.from_spec(args.inject_faults)
            if args.inject_faults else None)
    supervisor = Supervisor(
        tasks, args.checkpoint_dir, n_workers=args.workers,
        deadline=args.deadline, hang_timeout=args.hang_timeout,
        fault_plan=plan)
    with GracefulShutdown() as shutdown:
        report = supervisor.run(shutdown=shutdown)
    print(report.summary())
    if plan is not None:
        for fault in plan.faults:
            print(f"  fault {fault.kind} on task {fault.index} "
                  f"@ step {fault.at_step}: "
                  f"observed={fault.observed or 'NOT OBSERVED'}")
    for record in report.manifest.tasks:
        if record.state is TaskState.QUARANTINED:
            failure = record.failure or {}
            print(f"  quarantined task {record.spec.task_id}: "
                  f"{failure.get('kind')}: {failure.get('message')}")
    print(f"manifest -> {manifest_path}")
    collection = report.collection
    if collection is not None:
        print(f"observability: {collection.summary()}")
        for kind, path in sorted(collection.outputs.items()):
            print(f"  {kind} -> {path}")
        _write_obs_outputs(args, collection.merged, collection.metrics)
    if report.drained:
        print("resumable: campaign drained; continue with "
              f"`repro ensemble --resume --checkpoint-dir "
              f"{args.checkpoint_dir}`")
    return 0


def _cmd_profile(args) -> int:
    return _with_obs(args, _run_profile)


def _run_profile(args) -> int:
    from .obs.profiling import BUILD_SPANS, run_profile

    report = run_profile(
        n=args.particles, phi=args.phi, steps=args.steps, dt=args.dt,
        lambda_rpy=args.lambda_rpy, e_k=args.e_k, e_p=args.e_p,
        seed=args.seed)
    print(report.format_table())
    print("operator build (s): " + ", ".join(
        f"{name[4:]}={report.totals[name]:.4g}" for name in BUILD_SPANS
        if name in report.totals))
    other = {name: total for name, total in sorted(report.totals.items())
             if not name.startswith("pme.")}
    if other:
        print("other spans (s): " + ", ".join(
            f"{name}={total:.4g}" for name, total in other.items()))
    from .perfmodel import SUBSTRATE, calibrate_host
    print(f"tuner's ranking model (committed): {SUBSTRATE!r}")
    if args.json is not None:
        # the literal to commit as perfmodel.machines.SUBSTRATE on
        # another box (with cores=1: the rates are one-core rates)
        report.machine = calibrate_host()
        print(f"this host, calibrated: {report.machine!r}")
        print(f"json -> {report.write_json(args.json)}")
    return 0


def _cmd_analyze(args) -> int:
    from .analysis.diffusion import (
        diffusion_coefficient,
        finite_size_correction,
    )
    from .analysis.dynamics import diffusion_vs_lag
    from .core.trajectory_io import load_trajectory

    traj = load_trajectory(args.trajectory)
    print(f"trajectory: {traj.n_frames} frames, {traj.n_particles} "
          f"particles, box {traj.box_length:.2f}")
    d0 = diffusion_coefficient(traj, lag_frames=1)
    fs = finite_size_correction(traj.fluid.radius / traj.box_length)
    print(f"D(tau->0) = {d0:.4f} (RPY periodic theory "
          f"{fs * traj.fluid.D0:.4f})")
    tau, d = diffusion_vs_lag(traj, max_lag=args.max_lag)
    show = np.unique(np.linspace(0, tau.size - 1, 8).astype(int))
    for i in show:
        print(f"  D(tau={tau[i]:.4g}) = {d[i]:.4f}")
    return 0


def _cmd_tune(args) -> int:
    from .geometry.box import Box
    from .perfmodel import (REFERENCE_KRYLOV_ITERATIONS,
                            REFERENCE_LAMBDA_RPY, SUBSTRATE,
                            SUBSTRATE_COST_TOLERANCE)
    from .pme.tuning import rank_candidates

    box = Box.for_volume_fraction(args.particles, args.phi)
    rows = rank_candidates(args.particles, box, target_ep=args.e_p,
                           p=args.order)
    chosen = next(c.params for c in rows if c.chosen)
    print(f"n={args.particles}  Phi={args.phi}  L={box.length:.2f}")
    print(f"  K={chosen.K}  p={chosen.p}  r_max={chosen.r_max:.2f}  "
          f"alpha={chosen.xi:.4f}")
    print(f"  ranked on: {SUBSTRATE.name}")
    print(f"  modelled block step (ms: rebuild + {REFERENCE_LAMBDA_RPY} "
          f"drift applies + {REFERENCE_KRYLOV_ITERATIONS} block-Lanczos "
          f"passes of {REFERENCE_LAMBDA_RPY} columns),")
    print("  memory (Eq. 11 mesh + BCSR blocks) and error estimates per "
          "candidate cutoff:")
    print(f"  {'r_max':>6} {'alpha':>7} {'K':>4} {'build':>8} {'recip':>9} "
          f"{'real':>8} {'step':>9} {'MiB':>7} {'e_real':>8} "
          f"{'e_spline':>8} {'e_trunc':>8}")
    for c in rows:
        ms = {part: t * 1e3 for part, t in c.cost.items()}
        mark = ("  <- chosen" if c.chosen else "") + (
            "  (cheapest)" if c.cheapest else "")
        print(f"  {c.params.r_max:6.2f} {c.params.xi:7.4f} {c.params.K:4d} "
              f"{ms['build']:8.1f} {ms['reciprocal']:9.1f} "
              f"{ms['real']:8.1f} {ms['total']:9.1f} "
              f"{c.memory_bytes / 2 ** 20:7.1f} {c.errors['real']:8.1e} "
              f"{c.errors['spline']:8.1e} "
              f"{c.errors['recip_truncation']:8.1e}{mark}")
    print(f"  chosen: the smallest cutoff within "
          f"{SUBSTRATE_COST_TOLERANCE:.0%} (the model's validated error) "
          "of the cheapest")
    return 0


def _cmd_info(_args) -> int:
    import numpy
    import scipy

    from . import __version__
    from .perfmodel import HOST

    print(f"repro {__version__} — matrix-free hydrodynamic BD "
          "(Liu & Chow, IPDPS 2014)")
    print(f"numpy {numpy.__version__}, scipy {scipy.__version__}")
    print(f"host model: {HOST.name}, "
          f"B={HOST.stream_bandwidth_gbs:.1f} GB/s")
    return 0


def _cmd_config(args) -> int:
    from . import config as config_mod

    if args.format == "json":
        import json

        print(json.dumps(config_mod.get_config().as_dict(), indent=2))
        return 0
    rows = list(config_mod.config_table())
    widths = [max(len(r[i]) for r in rows + [("field", "env var",
                                              "value", "source")])
              for i in range(4)]
    header = ("field", "env var", "value", "source")
    print("  ".join(h.ljust(w) for h, w in zip(header, widths)))
    for row in rows:
        print("  ".join(c.ljust(w) for c, w in zip(row, widths)))
    return 0


def _cmd_serve(args) -> int:
    return _with_obs(args, _run_serve)


def _run_serve(args) -> int:
    from .serve import ServeSettings, SimulationService

    settings = ServeSettings(
        socket_path=args.socket, host=args.host, port=args.port,
        max_batch=args.max_batch, max_wait=args.max_wait,
        max_queue_columns=args.max_queue,
        max_inflight=args.max_inflight, max_jobs=args.max_jobs,
        compute_threads=args.compute_threads, work_dir=args.work_dir)
    service = SimulationService(settings)
    where = (args.socket if args.socket is not None
             else f"{args.host}:{args.port}")
    print(f"repro serve: listening on {where} "
          f"(max_batch={settings.max_batch}, "
          f"max_wait={settings.max_wait * 1e3:g}ms, "
          f"max_queue={settings.max_queue_columns}); "
          f"SIGTERM/SIGINT drains gracefully")
    service.run_forever()
    stats = service.stats()
    print(f"repro serve: stopped after {stats['requests_total']} "
          f"requests ({stats['batcher']['batches_flushed']} batches, "
          f"cache {stats['cache']['hits']} hits / "
          f"{stats['cache']['misses']} misses)")
    return 0


def _cmd_submit(args) -> int:
    import json

    import numpy as np

    from .serve import ServeClient, SystemSpec

    client = ServeClient(socket_path=args.socket, host=args.host,
                         port=args.port, timeout=args.timeout,
                         max_retries=args.retries)
    spec = SystemSpec(n=args.particles, phi=args.phi,
                      system_seed=args.system_seed)
    with client:
        if args.op == "ping":
            print(json.dumps(client.ping(), indent=2))
        elif args.op == "stats":
            print(json.dumps(client.stats(), indent=2))
        elif args.op == "simulate":
            result = client.simulate(
                spec, steps=args.steps, seed=args.seed,
                on_progress=lambda step, of: print(
                    f"  progress: {step}/{of}"))
            print(json.dumps(result, indent=2))
            return 0 if result.get("state") == "done" else 1
        else:  # mobility-bench
            rng = np.random.default_rng(args.seed)
            for i in range(args.repeats):
                forces = rng.standard_normal(3 * spec.n)
                velocities = client.mobility_apply(spec, forces)
                print(f"  apply {i}: |U| = "
                      f"{float(np.linalg.norm(velocities)):.6e}")
    return 0


def _apply_exec_overrides(args) -> None:
    """Install ``--exec-workers`` as CLI-level config."""
    from . import config as config_mod

    config_mod.set_cli_overrides(
        exec_workers=getattr(args, "exec_workers", None))
    config_mod.get_config()     # resolve now: a bad value is a usage error


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    from .errors import ConfigurationError
    try:
        _apply_exec_overrides(args)
    except ConfigurationError as exc:
        # an invalid REPRO_* value ends like an invalid flag: usage,
        # "repro: error: ..." on stderr, exit code 2
        parser.error(str(exc))
    handlers = {
        "simulate": _cmd_simulate,
        "ensemble": _cmd_ensemble,
        "profile": _cmd_profile,
        "analyze": _cmd_analyze,
        "tune": _cmd_tune,
        "config": _cmd_config,
        "serve": _cmd_serve,
        "submit": _cmd_submit,
        "info": _cmd_info,
    }
    return handlers[args.command](args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
