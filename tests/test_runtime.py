"""Tests of the supervised ensemble runtime (repro.runtime).

Unit layers (retry delay, task specs, manifest, fault
plan, signals, worker logic) run in-process; the integration layers
spawn real worker processes, and the 1,000-step soak (``-m faults``)
injects every process-fault kind and asserts the supervisor accounts
for all of them.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import signal
import threading
import time

import pytest

from repro.errors import ConfigurationError
from repro.pme.operator import PMEParams
from repro.resilience import backoff
from repro.resilience.backoff import retry_delay
from repro.resilience.failures import FailureKind, StepFailure
from repro.resilience.faults import EXPECTED_OBSERVATIONS, FaultPlan
from repro.resilience.recovery import MIN_DT_SCALE, next_dt_scale
from repro.runtime import (
    CampaignManifest,
    GracefulShutdown,
    Supervisor,
    TaskRecord,
    TaskSpec,
    TaskState,
    make_ensemble,
    positions_digest,
)
from repro.runtime.supervisor import MAX_TASK_FAILURES
from repro.runtime.worker import _run_task, failure_report

#: Small-but-real PME parameters keeping worker tasks fast.
PME = PMEParams(xi=0.9, r_max=3.0, K=16, p=4)


def _specs(n_tasks=3, n_steps=30, **kw):
    kw.setdefault("n", 20)
    kw.setdefault("phi", 0.1)
    kw.setdefault("seed", 3)
    kw.setdefault("lambda_rpy", 10)
    return make_ensemble(n_tasks, n_steps=n_steps, pme=PME, **kw)


def _run(tmp_path, specs_or_records, sub="c", **kw):
    d = str(tmp_path / sub)
    os.makedirs(d, exist_ok=True)
    kw.setdefault("hang_timeout", 60.0)
    with pytest.MonkeyPatch.context() as mp:
        # short retry delays keep the fault tests fast; the supervisor
        # reads them in this process
        mp.setattr(backoff, "RETRY_INITIAL", 0.05)
        mp.setattr(backoff, "RETRY_MAX_DELAY", 0.2)
        return Supervisor(specs_or_records, d, **kw).run()


# ----------------------------------------------------------------------
# retry delay and dt-scale decay
# ----------------------------------------------------------------------

def test_backoff_delays_grow_and_cap(monkeypatch):
    monkeypatch.setattr(backoff, "RETRY_INITIAL", 0.5)
    monkeypatch.setattr(backoff, "RETRY_MAX_DELAY", 3.0)
    monkeypatch.setattr(backoff, "RETRY_JITTER", 0.0)
    assert retry_delay(0) == pytest.approx(0.5)
    assert retry_delay(1) == pytest.approx(1.0)
    assert retry_delay(2) == pytest.approx(2.0)
    assert retry_delay(5) == pytest.approx(3.0)  # capped
    with pytest.raises(ConfigurationError):
        retry_delay(-1)


def test_backoff_jitter_is_deterministic_and_bounded():
    for attempt in range(10):
        d1 = retry_delay(attempt, seed=11)
        d2 = retry_delay(attempt, seed=11)
        assert d1 == d2  # replay-identical
        raw = min(backoff.RETRY_INITIAL * backoff.RETRY_FACTOR ** attempt,
                  backoff.RETRY_MAX_DELAY)
        assert abs(d1 - raw) <= backoff.RETRY_JITTER * raw + 1e-12


def test_retry_delay_differs_by_seed():
    # different seeds decorrelate retry storms
    delays = {retry_delay(1, seed=seed) for seed in range(8)}
    assert len(delays) == 8


def test_next_dt_scale_decays_to_floor():
    scale = 1.0
    seen = []
    while (scale := next_dt_scale(scale)) is not None:
        seen.append(scale)
    assert seen == [0.5 ** k for k in range(1, 7)]
    assert seen[-1] == MIN_DT_SCALE
    assert next_dt_scale(MIN_DT_SCALE) is None


# ----------------------------------------------------------------------
# task specs, ensemble derivation, manifest
# ----------------------------------------------------------------------

def test_task_spec_json_roundtrip():
    spec = _specs(1)[0]
    again = TaskSpec.from_json(json.loads(json.dumps(spec.to_json())))
    assert again == spec
    assert again.pme == PME


def test_make_ensemble_seeds_are_deterministic_and_distinct():
    a = make_ensemble(4, n=10, phi=0.1, n_steps=5, seed=9)
    b = make_ensemble(4, n=10, phi=0.1, n_steps=5, seed=9)
    assert a == b
    seeds = {(s.seed, s.system_seed) for s in a}
    assert len(seeds) == 4
    with pytest.raises(ConfigurationError):
        make_ensemble(0, n=10, phi=0.1, n_steps=5)


def test_manifest_roundtrip_and_resumability(tmp_path):
    records = [TaskRecord(spec=s) for s in _specs(2)]
    records[0].state = TaskState.DONE
    records[0].digest = "d" * 64
    manifest = CampaignManifest(tasks=records, fault_spec="seed=1,kill=1",
                                worker_restarts={"worker-death": 2})
    path = tmp_path / "campaign.json"
    manifest.save(path)
    loaded = CampaignManifest.load(path)
    assert loaded.resumable  # one task still pending
    assert loaded.counts() == {"done": 1, "pending": 1}
    assert loaded.fault_spec == "seed=1,kill=1"
    assert loaded.worker_restarts == {"worker-death": 2}
    assert loaded.tasks[0].digest == "d" * 64


def test_manifest_with_safe_mode_key_still_loads(tmp_path):
    # manifests written before the safe-mode reroute was removed carry
    # a per-task "safe_mode" flag; it is ignored on load
    record = TaskRecord(spec=_specs(1)[0])
    path = tmp_path / "campaign.json"
    CampaignManifest(tasks=[record]).save(path)
    data = json.loads(path.read_text())
    data["tasks"][0]["safe_mode"] = True
    path.write_text(json.dumps(data))
    (loaded,) = CampaignManifest.load(path).tasks
    assert loaded.to_json() == record.to_json()


def _manifest_with_kernel(tmp_path, kernel):
    # manifests written while PMEParams had a kernel option carry it in
    # every task's "pme" object
    record = TaskRecord(spec=_specs(1)[0])
    path = tmp_path / "campaign.json"
    CampaignManifest(tasks=[record]).save(path)
    data = json.loads(path.read_text())
    data["tasks"][0]["spec"]["pme"]["kernel"] = kernel
    path.write_text(json.dumps(data))
    return record, path


def test_manifest_with_rpy_kernel_key_still_loads(tmp_path):
    record, path = _manifest_with_kernel(tmp_path, "rpy")
    (loaded,) = CampaignManifest.load(path).tasks
    assert loaded.spec == record.spec
    assert loaded.to_json() == record.to_json()


def test_manifest_with_other_kernel_is_rejected(tmp_path):
    _, path = _manifest_with_kernel(tmp_path, "oseen")
    with pytest.raises(ConfigurationError, match="kernel"):
        CampaignManifest.load(path)


def test_manifest_rejects_unknown_version(tmp_path):
    path = tmp_path / "campaign.json"
    path.write_text(json.dumps({"version": 99, "tasks": []}))
    with pytest.raises(ConfigurationError):
        CampaignManifest.load(path)


# ----------------------------------------------------------------------
# process-fault plan
# ----------------------------------------------------------------------

def test_fault_plan_spec_roundtrip():
    plan = FaultPlan.from_spec(
        "seed=7,kill=2,hang=1,slow-per-step=0.25")
    assert plan.seed == 7
    assert plan.counts == {"kill": 2, "hang": 1}
    assert plan.slow_per_step == 0.25
    again = FaultPlan.from_spec(plan.to_spec())
    assert (again.seed, again.counts, again.slow_per_step) == (
        plan.seed, plan.counts, plan.slow_per_step)


def test_fault_plan_rejects_bad_specs():
    for spec in ("kill", "frobnicate=1", "kill=-1"):
        with pytest.raises(ConfigurationError):
            FaultPlan.from_spec(spec)


def test_fault_plan_assignment_is_deterministic_one_per_task():
    ids = list(range(8))
    steps = {i: 100 for i in ids}
    plan1 = FaultPlan(seed=3, counts={"kill": 2, "corrupt": 1})
    plan2 = FaultPlan(seed=3, counts={"kill": 2, "corrupt": 1})
    f1 = plan1.assign(ids, steps)
    f2 = plan2.assign(ids, steps)
    assert [(f.index, f.kind, f.at_step) for f in f1] == \
           [(f.index, f.kind, f.at_step) for f in f2]
    assert len({f.index for f in f1}) == 3  # one fault per task
    for f in f1:
        assert 1 <= f.at_step < 100


def test_fault_plan_refuses_more_faults_than_tasks():
    plan = FaultPlan(counts={"kill": 3})
    with pytest.raises(ConfigurationError):
        plan.assign([1, 2], {1: 10, 2: 10})


def test_fault_plan_first_attempt_only_and_accounting():
    plan = FaultPlan(seed=0, counts={"hang": 1})
    plan.assign([5], {5: 40})
    assert plan.fault_for(5, attempt=0) is not None
    assert plan.fault_for(5, attempt=1) is None
    assert plan.unaccounted()
    fault = plan.observe(5, "hang-timeout")
    assert fault is not None and fault.accounted()
    assert not plan.unaccounted()


def test_fault_plan_wrong_observation_stays_unaccounted():
    plan = FaultPlan(seed=0, counts={"kill": 1})
    plan.assign([1], {1: 40})
    plan.observe(1, "corrupt-result")  # kill must surface as worker-death
    assert plan.unaccounted()
    assert "worker-death" in EXPECTED_OBSERVATIONS["kill"]


@pytest.mark.parametrize("plan, key", [
    (FaultPlan(lanczos_failure_rate=0.1), "lanczos"),
    (FaultPlan(force_calls=(1,)), "force_calls"),
    (FaultPlan(checkpoint_events={1: "kill"}), "ckpt"),
])
def test_supervisor_rejects_in_process_faults(tmp_path, plan, key):
    with pytest.raises(ConfigurationError, match=repr(key)):
        Supervisor(_specs(1), str(tmp_path), fault_plan=plan)


# ----------------------------------------------------------------------
# graceful-shutdown signals
# ----------------------------------------------------------------------

def test_graceful_shutdown_flags_and_restores():
    seen = []
    before = signal.getsignal(signal.SIGTERM)
    with GracefulShutdown(on_signal=seen.append) as shutdown:
        assert not shutdown.triggered
        os.kill(os.getpid(), signal.SIGTERM)
        assert shutdown.triggered
        assert shutdown.signal_name == "SIGTERM"
        assert seen == ["SIGTERM"]
    assert signal.getsignal(signal.SIGTERM) is before


# ----------------------------------------------------------------------
# worker logic (in-process, stub connection)
# ----------------------------------------------------------------------

class _StubConn:
    def __init__(self):
        self.sent = []

    def send(self, message):
        self.sent.append(message)


class _NeverStop:
    @staticmethod
    def is_set():
        return False


def _worker_messages(tmp_path, spec, fault=None, attempt=0):
    conn = _StubConn()
    os.makedirs(str(tmp_path), exist_ok=True)
    _run_task(conn, _NeverStop(), spec, attempt=attempt, fault=fault,
              checkpoint_dir=str(tmp_path),
              slow_per_step=0.0)
    return conn.sent


def test_worker_completes_task_with_verifiable_digest(tmp_path):
    spec = _specs(1, n_steps=20)[0]
    messages = _worker_messages(tmp_path, spec)
    done = [m for m in messages if m["msg"] == "done"]
    assert len(done) == 1
    assert done[0]["completed_step"] == 20
    assert positions_digest(done[0]["positions"]) == done[0]["digest"]
    ckpts = [m for m in messages if m["msg"] == "checkpoint"]
    assert [m["completed_step"] for m in ckpts] == [10, 20]
    assert os.path.exists(spec.checkpoint_path(str(tmp_path)))


def test_worker_corrupt_fault_breaks_payload_not_digest(tmp_path):
    spec = _specs(1, n_steps=20)[0]
    clean = _worker_messages(tmp_path / "a", spec)
    faulty = _worker_messages(
        tmp_path / "b", spec, fault={"kind": "corrupt", "at_step": 5})
    done_clean = [m for m in clean if m["msg"] == "done"][0]
    done_bad = [m for m in faulty if m["msg"] == "done"][0]
    # the digest is of the TRUE positions; the payload was corrupted
    assert done_bad["digest"] == done_clean["digest"]
    assert positions_digest(done_bad["positions"]) != done_bad["digest"]


def test_worker_resumes_from_checkpoint_bit_exactly(tmp_path):
    spec = _specs(1, n_steps=40)[0]
    full = _worker_messages(tmp_path / "full", spec)
    digest_full = [m for m in full if m["msg"] == "done"][0]["digest"]

    # first 20 steps only, then resume the remaining 20 from disk
    half_spec = TaskSpec.from_json({**spec.to_json(), "n_steps": 20})
    _worker_messages(tmp_path / "part", half_spec)
    resumed = _worker_messages(tmp_path / "part", spec, attempt=1)
    digest_resumed = [m for m in resumed if m["msg"] == "done"][0]["digest"]
    assert digest_resumed == digest_full


def test_failure_report_structure():
    failure = StepFailure(FailureKind.LANCZOS_NONCONVERGENCE, "boom",
                          step=7, diagnostics={"iterations": 3})
    report = failure_report(failure, attempt=2)
    assert report["kind"] == "lanczos-nonconvergence"
    assert report["step"] == 7
    assert report["attempt"] == 2
    assert report["diagnostics"] == {"iterations": 3}
    json.dumps(report)  # manifest-serializable


# ----------------------------------------------------------------------
# supervised campaigns (real worker processes)
# ----------------------------------------------------------------------

def test_campaign_single_vs_multi_worker_bit_identity(tmp_path):
    r1 = _run(tmp_path, _specs(), "w1", n_workers=1)
    r3 = _run(tmp_path, _specs(), "w3", n_workers=3)
    assert r1.manifest.counts() == {"done": 3}
    assert len(r1.digests) == 3
    assert r1.digests == r3.digests
    assert not r1.restarts


def test_thread_share_divides_by_the_workers_spawned(tmp_path, monkeypatch):
    # a campaign spawns min(n_workers, tasks) workers: one task on a
    # two-worker pool runs on one worker, which gets the whole budget
    from repro.runtime import supervisor as supervisor_mod

    monkeypatch.setenv("REPRO_EXEC_WORKERS", "2")
    shares = []
    assign = supervisor_mod._WorkerHandle.assign

    def spy(self, record, fault, **kw):
        shares.append(kw["exec_config"])
        return assign(self, record, fault, **kw)

    monkeypatch.setattr(supervisor_mod._WorkerHandle, "assign", spy)
    report = _run(tmp_path, _specs(1, n_steps=10), n_workers=2)
    assert report.manifest.counts() == {"done": 1}
    assert shares == [{"workers": 2}]      # the count alone: threads/2


def test_campaign_drain_and_resume_bit_identity(tmp_path):
    reference = _run(tmp_path, _specs(2, n_steps=400), "ref", n_workers=2)

    d = str(tmp_path / "drained")
    os.makedirs(d)
    supervisor = Supervisor(_specs(2, n_steps=400), d, n_workers=2,
                            hang_timeout=60.0)
    # drain on observed progress, not on a timer that races the campaign:
    # as soon as some task has one durable lambda_RPY block behind it
    finished = threading.Event()

    def drain_after_first_block():
        while not finished.wait(0.005):
            if any(record.completed_step >= record.spec.lambda_rpy
                   for record in supervisor.records):
                supervisor.request_drain()
                return

    trigger = threading.Thread(target=drain_after_first_block)
    trigger.start()
    try:
        report = supervisor.run()
    finally:
        finished.set()
        trigger.join()
    assert report.drained
    manifest = CampaignManifest.load(os.path.join(d, "campaign.json"))
    assert manifest.drained and manifest.resumable
    # drain stops at lambda_RPY block boundaries
    for record in manifest.tasks:
        assert record.completed_step % record.spec.lambda_rpy == 0
    # ... and short of the end, so the resume below does real work
    assert any(record.completed_step < record.spec.n_steps
               for record in manifest.tasks)

    resumed = Supervisor(manifest.tasks, d, n_workers=2,
                         hang_timeout=60.0).run()
    assert resumed.manifest.counts() == {"done": 2}
    assert resumed.digests == reference.digests


def test_campaign_quarantines_poison_task(tmp_path):
    # an impossible system spec (real-space cutoff larger than half the
    # box) makes the worker fail on every attempt: the 6th failed
    # attempt quarantines the task
    bad = TaskSpec(task_id=0, n=10, phi=0.3, n_steps=20, seed=1,
                   system_seed=1,
                   pme=PMEParams(xi=0.9, r_max=1000.0, K=16, p=4))
    report = _run(tmp_path, [bad], n_workers=1)
    (task,) = report.manifest.tasks
    assert task.state is TaskState.QUARANTINED
    assert task.attempts == MAX_TASK_FAILURES == 6
    assert task.failure is not None and task.failure["kind"]


# ----------------------------------------------------------------------
# the 1,000-step process-fault soak
# ----------------------------------------------------------------------

@pytest.mark.faults
def test_ensemble_soak_all_process_faults_accounted(tmp_path):
    """10 tasks x 100 steps with one fault of every kind injected.

    Every injected fault must be matched to the supervision event that
    detected it, and the campaign must still complete every task.
    """
    specs = _specs(10, n_steps=100, n=16)
    plan = FaultPlan.from_spec(
        "seed=13,kill=1,hang=1,slow=1,corrupt=1,slow-per-step=0.5")
    report = _run(tmp_path, specs, n_workers=3, fault_plan=plan,
                  hang_timeout=2.5, deadline=12.0)

    assert sum(s.n_steps for s in specs) == 1000
    assert report.manifest.counts() == {"done": 10}
    assert len(plan.faults) == 4
    assert plan.unaccounted() == [], (
        f"unaccounted faults: {plan.unaccounted()}; "
        f"restarts: {report.restarts}")
    observed = {f.kind: f.observed for f in plan.faults}
    for kind, reason in observed.items():
        assert reason in EXPECTED_OBSERVATIONS[kind]
    # every fault recovery implies at least one retry or restart
    assert report.restarts  # kill/hang/slow all force a worker death
    manifest = CampaignManifest.load(report_manifest_path(tmp_path))
    assert manifest.counts() == {"done": 10}
    assert sum(manifest.worker_restarts.values()) == len(report.restarts)


def report_manifest_path(tmp_path):
    return os.path.join(str(tmp_path / "c"), "campaign.json")


def test_worker_restart_budget_aborts(tmp_path, monkeypatch):
    # a plan with a kill fault and a restart budget of zero must abort
    from repro.runtime import supervisor as supervisor_mod

    monkeypatch.setattr(supervisor_mod, "MAX_WORKER_RESTARTS", 0)
    specs = _specs(1, n_steps=30)
    plan = FaultPlan(seed=1, counts={"kill": 1})
    with pytest.raises(StepFailure):
        _run(tmp_path, specs, n_workers=1, fault_plan=plan)
    # the manifest still landed on disk for post-mortem
    assert os.path.exists(report_manifest_path(tmp_path))


#: One long task: it is still stepping when its supervisor is killed.
_ORPHAN_TASK = {"n": 64, "n_steps": 1_000_000}


def _supervise_long_task(directory):
    """Body of the spawned supervisor process of the orphan test."""
    Supervisor(_specs(1, **_ORPHAN_TASK), directory, n_workers=1).run()


def _children(pid):
    """Pids of the live processes whose parent is ``pid`` (Linux /proc)."""
    found = []
    for entry in os.listdir("/proc"):
        if entry.isdigit() and _stat_fields(int(entry))[1:2] == [str(pid)]:
            found.append(int(entry))
    return found


def _stat_fields(pid):
    """``state, ppid, ...`` of ``pid`` from /proc (``[]`` once reaped)."""
    try:
        with open(f"/proc/{pid}/stat") as f:
            stat = f.read()
    except OSError:
        return []
    # the command name may hold spaces: the fields follow its last ')'
    return stat.rsplit(")", 1)[1].split()


def _running(pid):
    """Whether ``pid`` exists and has not exited (a zombie has)."""
    return _stat_fields(pid)[:1] not in ([], ["Z"], ["X"])


@pytest.mark.faults
@pytest.mark.skipif(not os.path.isdir("/proc"), reason="reads /proc")
def test_worker_exits_when_its_supervisor_is_killed(tmp_path):
    # a forked worker holds the supervisor's end of its own pipe, so it
    # never sees EOF: only the supervisor's process sentinel can tell it
    # that nobody reads its heartbeats any more
    directory = str(tmp_path / "orphan")
    os.makedirs(directory)
    checkpoint = _specs(1, **_ORPHAN_TASK)[0].checkpoint_path(directory)
    supervisor = multiprocessing.get_context("spawn").Process(
        target=_supervise_long_task, args=(directory,))
    supervisor.start()
    workers = []
    try:
        give_up = time.monotonic() + 120.0
        while not os.path.exists(checkpoint):
            assert supervisor.is_alive() and time.monotonic() < give_up
            time.sleep(0.05)
        workers = _children(supervisor.pid)
        assert workers and all(_running(pid) for pid in workers)
        os.kill(supervisor.pid, signal.SIGKILL)
        supervisor.join(timeout=10.0)
        assert not supervisor.is_alive()
        give_up = time.monotonic() + 10.0
        while (any(_running(pid) for pid in workers)
               and time.monotonic() < give_up):
            time.sleep(0.05)
        assert not [pid for pid in workers if _running(pid)]
    finally:
        for pid in workers:
            if _running(pid):
                os.kill(pid, signal.SIGKILL)
        if supervisor.is_alive():
            supervisor.kill()
            supervisor.join(timeout=10.0)


# ----------------------------------------------------------------------
# cross-process observability collection
# ----------------------------------------------------------------------

def _metric_value(registry, name, **labels):
    return registry.counter(name, **labels).value


def test_traced_campaign_clean(tmp_path):
    """A healthy traced campaign merges into one named timeline."""
    from repro import obs
    from repro.obs.collect import spans_for_task
    from repro.obs.schema import validate_file

    specs = _specs(2, n_steps=10)
    obs.enable()
    try:
        report = _run(tmp_path, specs, n_workers=2)
    finally:
        obs.disable()

    assert report.manifest.counts() == {"done": 2}
    collection = report.collection
    assert collection is not None

    # one process track per participant, supervisor listed first
    doc = collection.merged.to_chrome_trace()
    names = [e["args"]["name"] for e in doc["traceEvents"]
             if e["ph"] == "M" and e["name"] == "process_name"]
    assert names[0] == "supervisor"
    assert set(names) == {"supervisor", "worker-0", "worker-1"}

    # supervisor<->worker correlation through the task id
    correlated = spans_for_task(collection.merged.events,
                                specs[0].task_id)
    assert any(e["name"] == "supervisor.task" for e in correlated)
    assert any(e.get("worker_id") is not None for e in correlated)

    # a clean run counts each BD step exactly once across all workers
    total_steps = sum(s.n_steps for s in specs)
    assert _metric_value(collection.metrics,
                         "bd_steps_total") == total_steps

    # canonical exports landed next to campaign.json and validate
    d = tmp_path / "c"
    for filename in ("campaign-trace.json", "campaign-metrics.json"):
        validate_file(d / filename)


@pytest.mark.faults
def test_traced_fault_campaign_observability(tmp_path):
    """Kill + hang faults under tracing: spools survive SIGKILL, the
    restart/lag metrics carry exact values, and the physics digests
    stay bit-identical to the same campaign run untraced."""
    from collections import Counter

    from repro import obs

    def campaign(sub, traced):
        specs = _specs(3, n_steps=20, n=16)
        plan = FaultPlan.from_spec("seed=13,kill=1,hang=1")
        if traced:
            obs.enable()
        try:
            return _run(tmp_path, specs, sub=sub, n_workers=3,
                        fault_plan=plan, hang_timeout=1.0,
                        deadline=8.0)
        finally:
            if traced:
                obs.disable()

    untraced = campaign("untraced", traced=False)
    traced = campaign("traced", traced=True)

    for report in (untraced, traced):
        assert report.manifest.counts() == {"done": 3}
        assert report.restarts  # the kill and the hang both fired
    # observability must not perturb the physics: recovery schedules
    # and final positions agree bit-for-bit with the untraced run
    assert traced.digests == untraced.digests

    collection = traced.collection
    assert collection is not None

    # restart counters match the supervision log exactly, per reason
    reasons = Counter(r.reason for r in traced.restarts)
    assert reasons.get("worker-death") and reasons.get("hang-timeout")
    for reason, count in reasons.items():
        assert _metric_value(collection.metrics, "worker_restarts_total",
                             reason=reason) == count

    # the heartbeat-lag gauge holds the campaign's running maximum,
    # which the hang fault pushed past the 1 s timeout
    lag = collection.metrics.gauge(
        "supervisor_heartbeat_lag_seconds").value
    assert lag == pytest.approx(traced.max_heartbeat_lag)
    assert lag >= 1.0

    # every restarted (SIGKILLed or hung) worker's spool was recovered
    recovered = {s.worker_id for s in collection.spools}
    assert {r.worker_id for r in traced.restarts} <= recovered
    assert collection.recovered_events > 0

    # aggregated step counter equals the sum over worker snapshots and
    # covers every logical step (checkpoint-resume re-runs may add a
    # few re-counted steps on top)
    snapshot_total = 0.0
    for path in (tmp_path / "traced").glob("obs-worker-*.metrics.json"):
        doc = json.loads(path.read_text(encoding="utf-8"))
        for family in doc["metrics"]:
            if family["name"] == "bd_steps_total":
                snapshot_total += sum(s["value"]
                                      for s in family["series"])
    merged_steps = _metric_value(collection.metrics, "bd_steps_total")
    assert merged_steps == snapshot_total
    assert merged_steps >= sum(
        t.spec.n_steps for t in traced.manifest.tasks)

    # the merged timeline names a distinct track per worker process
    doc = collection.merged.to_chrome_trace()
    names = [e["args"]["name"] for e in doc["traceEvents"]
             if e["ph"] == "M" and e["name"] == "process_name"]
    assert names[0] == "supervisor"
    assert {f"worker-{w}" for w in recovered} <= set(names)


def test_graceful_shutdown_nested_contexts_all_trigger():
    inner_seen, outer_seen = [], []
    before = signal.getsignal(signal.SIGTERM)
    with GracefulShutdown(on_signal=outer_seen.append) as outer:
        with GracefulShutdown(on_signal=inner_seen.append) as inner:
            os.kill(os.getpid(), signal.SIGTERM)
            # one signal trips the whole stack: the inner handler
            # chains delivery to the outer GracefulShutdown
            assert inner.triggered and outer.triggered
            assert inner_seen == ["SIGTERM"]
            assert outer_seen == ["SIGTERM"]
        # inner exit restored the outer handler; a second signal
        # still reaches the (already triggered) outer context
        os.kill(os.getpid(), signal.SIGTERM)
        assert outer_seen == ["SIGTERM", "SIGTERM"]
    assert signal.getsignal(signal.SIGTERM) is before


def test_graceful_shutdown_does_not_invoke_foreign_handlers():
    foreign_calls = []

    def foreign(signum, frame):
        foreign_calls.append(signum)

    before = signal.getsignal(signal.SIGTERM)
    signal.signal(signal.SIGTERM, foreign)
    try:
        with GracefulShutdown() as shutdown:
            os.kill(os.getpid(), signal.SIGTERM)
            assert shutdown.triggered
            # the foreign handler is *restored*, never *chained*
            assert foreign_calls == []
        assert signal.getsignal(signal.SIGTERM) is foreign
        os.kill(os.getpid(), signal.SIGTERM)
        assert foreign_calls == [signal.SIGTERM]
    finally:
        signal.signal(signal.SIGTERM, before)
