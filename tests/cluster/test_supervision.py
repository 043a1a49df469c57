"""Supervision-layer tests: heartbeats, deadlines, and shm hygiene.

DESIGN §13: the process transport's workers are real OS processes, so
their failures are real too — SIGKILL, wedges, SIGSTOP — and none of
them raise a Python exception anywhere.  These tests pin the supervision
contract: heartbeats classify workers ALIVE/SUSPECT/DEAD with real
signals driving the transitions, a SUSPECT (lagging but alive) worker's
task completes exactly once, the hard-death path funnels into the same
re-fork + retry machinery as injected crashes, RetryPolicy.timeout_s is
enforced on a *real* wall clock (the seed's dead code on this
transport), and shared-memory segments stranded by kill -9 are reaped
by the journaled registry on the next startup/recover().
"""

import json
import os
import signal
import subprocess
import sys
import threading
import time

import pytest

from repro.cluster import FakeClock, FaultInjector, PCCluster
from repro.cluster.supervisor import ALIVE, DEAD, SUSPECT, Supervisor
from repro.cluster.transport import _ChildProcess, remote_available
from repro.errors import TaskDeadlineError, WorkerCrashError
from repro.obs import MetricsRegistry
from repro.storage.shm_registry import ShmRegistry, pid_alive, unlink_segment

from test_fault_tolerance import (
    Point,
    expected_sums,
    fast_policy,
    load_points,
    make_cluster,
    run_aggregation,
)

needs_process = pytest.mark.skipif(
    not remote_available(), reason="cloudpickle unavailable"
)

SRC_DIR = os.path.join(os.path.dirname(__file__), "..", "..", "src")


def _wait_until(predicate, timeout=10.0, interval=0.02):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(interval)
    return predicate()


def _dead_pid():
    """A pid guaranteed to name no live process (spawned, then reaped)."""
    proc = subprocess.Popen([sys.executable, "-c", "pass"])
    proc.wait()
    return proc.pid


def make_process_cluster(tmp_path, subdir, policy=None, n_workers=3):
    root = tmp_path / subdir
    root.mkdir(exist_ok=True)
    return PCCluster(
        n_workers=n_workers, page_size=1 << 12, spill_root=str(root),
        retry_policy=policy, transport="process",
    )


# -- the heartbeat state machine, driven by real signals ------------------------------


def test_supervisor_states_follow_real_signals():
    child = _ChildProcess()
    supervisor = Supervisor(
        metrics=MetricsRegistry(), beat_interval_s=0.05, suspect_beats=4,
        dead_after_s=30.0,  # DEAD must not trigger in this test
    )
    try:
        supervisor.watch("w0", child)
        assert _wait_until(lambda: supervisor.vitals("w0").beats > 0)
        vitals = supervisor.vitals("w0")
        assert vitals.state == ALIVE
        assert vitals.pid == child.pid
        assert supervisor.poll() == {"w0": ALIVE}

        os.kill(child.pid, signal.SIGSTOP)
        try:
            # > suspect_beats * interval of silence: lagging, not dead.
            assert _wait_until(
                lambda: supervisor.vitals("w0").state == SUSPECT
            )
        finally:
            os.kill(child.pid, signal.SIGCONT)
        # Beats resume and the worker comes back without intervention.
        assert _wait_until(lambda: supervisor.vitals("w0").state == ALIVE)

        snapshot = supervisor.metrics.snapshot()
        assert snapshot.value("pc_sup_beats_total") > 0
        assert snapshot.value("pc_sup_suspects_total") >= 1
        assert snapshot.value("pc_sup_deaths_total") == 0

        supervisor.unwatch("w0", child)
        assert supervisor.poll() == {}
    finally:
        child.stop()


def test_supervisor_declares_silent_worker_dead_and_kills_it():
    child = _ChildProcess()
    supervisor = Supervisor(
        metrics=MetricsRegistry(), beat_interval_s=0.05, suspect_beats=2,
        dead_after_s=0.4,
    )
    try:
        supervisor.watch("w0", child)
        assert _wait_until(lambda: supervisor.vitals("w0").beats > 0)
        os.kill(child.pid, signal.SIGSTOP)
        # The DEAD verdict SIGKILLs; a stopped process dies from it
        # without ever needing a SIGCONT (SIGKILL is not maskable).
        assert _wait_until(
            lambda: supervisor.enforce("w0", child) is not None
        )
        assert supervisor.state("w0") == DEAD
        assert _wait_until(lambda: not child.healthy())
        snapshot = supervisor.metrics.snapshot()
        assert snapshot.value("pc_sup_deaths_total") == 1
    finally:
        child.stop()


def test_never_beaten_child_is_judged_by_spawn_grace_not_dead_line():
    # A spawned child imports the interpreter's world before its first
    # beat; under load that takes far longer than dead_after_s.  Only
    # the (much longer) spawn grace may condemn a never-beaten child.
    clock = FakeClock()

    class _Importing:
        heartbeat = [0.0] * 5  # zeroed slot: no beat yet
        started_at = 0.0
        pid = 1 << 30

    kills = []
    supervisor = Supervisor(
        metrics=MetricsRegistry(), beat_interval_s=0.05, suspect_beats=2,
        dead_after_s=0.4, spawn_grace_s=10.0, clock=lambda: clock.now,
        kill=lambda pid: kills.append(pid),
    )
    supervisor.watch("w0", _Importing())
    clock.now = 5.0  # way past dead_after_s, still inside the grace
    assert supervisor.vitals("w0").state != DEAD
    assert kills == []
    clock.now = 10.5  # past the grace: the import is genuinely wedged
    assert supervisor.vitals("w0").state == DEAD
    snapshot = supervisor.metrics.snapshot()
    assert snapshot.value("pc_sup_deaths_total") == 1


def test_enforce_kills_at_the_task_deadline_and_marks_timeout():
    child = _ChildProcess()
    kills = []
    supervisor = Supervisor(
        metrics=MetricsRegistry(), beat_interval_s=0.05,
        dead_after_s=30.0, kill=lambda pid: kills.append(pid),
    )
    try:
        supervisor.watch("w0", child)
        # Deadline in the future: no verdict, nothing killed.
        assert supervisor.enforce(
            "w0", child, deadline=time.monotonic() + 60, timeout_s=60.0
        ) is None
        assert kills == []
        # Deadline passed: killed, and the verdict says *timeout*.
        verdict = supervisor.enforce(
            "w0", child, deadline=time.monotonic() - 0.01, timeout_s=0.5
        )
        assert verdict is not None
        reason, deadline_exceeded = verdict
        assert deadline_exceeded is True
        assert "0.500s" in reason
        assert kills == [child.pid]
        snapshot = supervisor.metrics.snapshot()
        assert snapshot.value("pc_sup_deadline_kills_total") == 1
    finally:
        child.stop()


# -- SIGKILL mid-job: real death -> re-fork -> retry -> identical result --------------


@needs_process
def test_sigkilled_backend_recovers_like_an_injected_crash(tmp_path):
    clean = make_cluster(tmp_path, "clean")
    load_points(clean)
    baseline = run_aggregation(clean)
    clean.close()

    cluster = make_process_cluster(
        tmp_path, "killed", policy=fast_policy(FakeClock())
    )
    load_points(cluster)
    victim = cluster.workers[1]
    os.kill(victim.backend.child_pid, signal.SIGKILL)
    result = run_aggregation(cluster)
    assert result == baseline == expected_sums()
    # The real death took the same recovery path an injected crash does.
    assert victim.refork_count >= 1
    snapshot = cluster.metrics()
    assert snapshot.value("pc_faults_backend_crashes_total") >= 1
    # Detect -> re-fork latency landed in the supervision histogram.
    assert snapshot.quantile("pc_sup_recovery_seconds", 0.5) is not None
    assert cluster.supervisor.recovery_quantile(0.99) is not None
    cluster.close()


# -- SUSPECT dispatch: lagging but alive must never double-execute --------------------


@needs_process
def test_dispatch_to_suspect_worker_completes_exactly_once(tmp_path):
    clean = make_cluster(tmp_path, "clean")
    load_points(clean)
    baseline = run_aggregation(clean)
    clean.close()

    cluster = make_process_cluster(tmp_path, "stopped")
    load_points(cluster)
    victim = cluster.workers[0]
    pid = victim.backend.child_pid
    # Freeze the worker — long enough to go heartbeat-stale, well short
    # of the DEAD deadline — while the job runs against it.
    os.kill(pid, signal.SIGSTOP)
    resumer = threading.Timer(0.4, os.kill, args=(pid, signal.SIGCONT))
    resumer.start()
    try:
        result = run_aggregation(cluster)
    finally:
        resumer.join()
        try:
            os.kill(pid, signal.SIGCONT)  # idempotent safety net
        except ProcessLookupError:
            pass
    # An aggregation double-executed on resume would inflate the sums;
    # exact equality proves the task ran exactly once.
    assert result == baseline == expected_sums()
    assert victim.refork_count == 0  # never killed, never re-forked
    snapshot = cluster.metrics()
    assert snapshot.value("pc_sup_deaths_total") == 0
    assert snapshot.value("pc_sup_deadline_kills_total") == 0
    cluster.close()


# -- satellite: RetryPolicy.timeout_s enforced on a real wall clock -------------------


@needs_process
def test_wedged_task_is_killed_at_its_real_deadline(tmp_path):
    # Seed regression: timeout_s only ever fired through the injectable
    # policy clock, which nothing advances on the process transport —
    # the FakeClock here never ticks, so only the *real* wall-clock
    # deadline can declare this timeout.
    clock = FakeClock()
    policy = fast_policy(
        clock, timeout_s=0.5, max_attempts=1,
        blacklist_on_exhaustion=True, min_surviving_workers=1,
    )
    cluster = make_process_cluster(tmp_path, "wedged", policy=policy)
    # The deadline, not heartbeat death, must be what kills the wedge.
    cluster.supervisor.dead_after_s = 60.0
    load_points(cluster)
    victim = cluster.workers[2]
    os.kill(victim.backend.child_pid, signal.SIGSTOP)  # a real wedge
    result = run_aggregation(cluster)
    assert result == expected_sums()
    assert clock.now == 0.0  # the injectable clock never advanced
    assert victim.worker_id in cluster.blacklist
    snapshot = cluster.metrics()
    assert snapshot.value("pc_sup_deadline_kills_total") >= 1
    # The failure was booked as a timeout, not as exhausted retries.
    assert any(
        "task timeout" in (span.detail or "")
        for span in cluster.last_trace.spans(kind="fault")
    )
    cluster.close()


def test_task_deadline_error_is_a_crash_with_timeout_verdict():
    error = TaskDeadlineError("too slow")
    assert isinstance(error, WorkerCrashError)
    assert error.deadline_exceeded is True
    assert getattr(WorkerCrashError("x"), "deadline_exceeded", False) is False


def test_sim_timeout_still_fires_through_injectable_clock(tmp_path,
                                                          schema_of):
    # The sim leg keeps its deterministic clock: backoff sleeps advance
    # FakeClock past timeout_s with no real time passing, and the
    # blacklist reason still reads "task timeout".  (Pinned to the sim
    # transport: on the process one the 5 ms is a real deadline, which a
    # child's first task may overrun.)
    clock = FakeClock()
    injector = FaultInjector().crash_backend("worker-1", times=99)
    policy = fast_policy(
        clock, timeout_s=0.005, max_attempts=5,
        blacklist_on_exhaustion=True,
    )
    cluster = make_cluster(tmp_path, "sim", injector=injector, policy=policy,
                           transport="sim")
    load_points(cluster, schema=schema_of(Point))
    result = run_aggregation(cluster)
    assert result == expected_sums()
    assert "worker-1" in cluster.blacklist
    assert any(
        "task timeout" in (span.detail or "")
        for span in cluster.last_trace.spans(kind="fault")
    )


# -- shm registry: journaled create/unlink + orphan reaping ---------------------------


def test_shm_registry_roundtrip_and_compaction(tmp_path):
    path = str(tmp_path / "shm.registry")
    registry = ShmRegistry(path)
    registry.note_create("seg-a")
    registry.note_create("seg-b")
    registry.note_unlink("seg-a")
    assert registry.live == {"seg-b": os.getpid()}
    registry.compact()
    registry.close()
    # A fresh replay sees exactly the still-live records.
    replayed = ShmRegistry(path)
    assert replayed.live == {"seg-b": os.getpid()}
    # Live owner (this process): sweep must not touch it.
    assert replayed.sweep_orphans() == 0
    replayed.close()


def test_shm_registry_tolerates_torn_final_line(tmp_path):
    path = str(tmp_path / "shm.registry")
    registry = ShmRegistry(path)
    registry.note_create("seg-a")
    registry.close()
    with open(path, "a") as f:
        f.write('{"op": "unlink", "name": "seg-a"')  # killed mid-append
    replayed = ShmRegistry(path)
    # The torn unlink is dropped; over-reporting a create is the safe
    # direction (the sweep's pid check decides what actually happens).
    assert "seg-a" in replayed.live
    replayed.close()


def test_sweep_reaps_segment_stranded_by_kill_minus_nine(tmp_path):
    from multiprocessing import shared_memory

    path = str(tmp_path / "shm.registry")
    # A child process creates + registers a real segment, then dies by
    # SIGKILL — no destructor, no atexit, no resource tracker runs.
    code = (
        "import os, signal, sys\n"
        "sys.path.insert(0, %r)\n"
        "from multiprocessing import shared_memory, resource_tracker\n"
        "from repro.storage.shm_registry import ShmRegistry\n"
        "seg = shared_memory.SharedMemory(create=True, size=4096)\n"
        "resource_tracker.unregister(seg._name, 'shared_memory')\n"
        "registry = ShmRegistry(%r)\n"
        "registry.note_create(seg.name)\n"
        "print(seg.name, flush=True)\n"
        "os.kill(os.getpid(), signal.SIGKILL)\n"
    ) % (SRC_DIR, path)
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True,
        timeout=60,
    )
    name = out.stdout.strip()
    assert name, out.stderr
    # The orphan exists in /dev/shm, stranded by the hard kill...
    probe = shared_memory.SharedMemory(name=name)
    probe.close()
    registry = ShmRegistry(path)
    assert name in registry.live
    assert not pid_alive(registry.live[name])
    # ...until the next startup replays the journal and reaps it.
    assert registry.sweep_orphans() == 1
    with pytest.raises(FileNotFoundError):
        shared_memory.SharedMemory(name=name)
    # Repeated sweeps are clean: the unlink was journaled + compacted.
    assert registry.sweep_orphans() == 0
    assert registry.live == {}
    registry.close()
    assert unlink_segment(name) is False  # already gone


@needs_process
def test_cluster_startup_sweeps_previous_runs_orphans(tmp_path):
    from multiprocessing import resource_tracker, shared_memory

    root = tmp_path / "crashed"
    root.mkdir()
    # Simulate a previous hard-killed run under this spill root: an
    # orphaned segment whose registry record names a pid that no longer
    # exists (the killed "previous master").
    orphan = shared_memory.SharedMemory(create=True, size=4096)
    orphan_name = orphan.name
    resource_tracker.unregister(orphan._name, "shared_memory")
    orphan.close()
    with open(os.path.join(str(root), "shm.registry"), "w") as f:
        f.write(json.dumps(
            {"op": "create", "name": orphan_name, "pid": _dead_pid()}
        ) + "\n")

    cluster = PCCluster(
        n_workers=2, page_size=1 << 12, spill_root=str(root),
        transport="process",
    )
    # __init__ swept before any pool opened: the orphan is gone.
    with pytest.raises(FileNotFoundError):
        shared_memory.SharedMemory(name=orphan_name)
    assert cluster.shm_registry.segments_reaped == 1
    # The cluster itself works normally on the swept root.
    load_points(cluster, n=50)
    assert run_aggregation(cluster) == expected_sums(n=50)
    assert cluster.recover() > 0  # replay + re-sweep: nothing else reaped
    assert cluster.shm_registry.segments_reaped == 1
    assert len(cluster.read("db", "points")) == 50
    cluster.close()
    # A clean shutdown leaves no segment behind to reap later.
    assert cluster.shm_registry.live == {}


# -- columnar recover() crash-tested on the process transport -------------------------


@needs_process
def test_columnar_recover_after_master_crash_on_process_transport(tmp_path):
    pytest.importorskip("numpy")
    from repro.schema import f64, i64

    root = tmp_path / "columnar"
    root.mkdir()
    cluster = PCCluster(
        n_workers=3, page_size=1 << 12, spill_root=str(root),
        transport="process",
    )
    cluster.create_database("db")
    cluster.create_set(
        "db", "points", schema=[("cluster_id", i64), ("x", f64)],
        replication=2,
    )
    with cluster.loader("db", "points") as load:
        for i in range(200):
            load.append(cluster_id=i % 4, x=float(i))
    before = sorted(r.as_tuple() for r in cluster.read("db", "points"))
    assert len(before) == 200

    # Master crash: in-memory DDL + replica map discarded, then rebuilt
    # from the journal — the schema, and with it the layout, must replay.
    applied = cluster.recover()
    assert applied > 0
    meta = cluster.catalog.set_metadata("db", "points")
    assert meta.schema.names() == ["cluster_id", "x"]
    after = sorted(r.as_tuple() for r in cluster.read("db", "points"))
    assert after == before
    cluster.close()
