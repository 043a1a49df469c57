"""One account: every number the runtime reports has one source.

A lifetime count is read from the metrics registry
(``cluster.metrics().value(name, **labels)``), its attribution from the
span the same increment mirrored into; a back-end process's span sits on
the one ``time.monotonic()`` the Supervisor already judges liveness by
(DESIGN §9 "One declaration, two readers", §14 "One clock").  Pinned
here: the two readers agree on values, a ``_total`` never goes down, a
child's span nests in time under the span that awaited it, and one
quantity has one counter.
"""

import time

import pytest

from repro.analysis.sanitizer import sanitize_scope
from repro.cluster import FakeClock, FaultInjector, PCCluster, RetryPolicy
from repro.cluster.supervisor import BEAT_TASK, BEAT_TIME
from repro.cluster.transport import Transport, remote_available
from repro.core import (
    AggregateComp,
    JoinComp,
    ObjectReader,
    SelectionComp,
    Writer,
    lambda_from_member,
    lambda_from_native,
)
from repro.memory import Float64, Int32, Int64, PCObject, String
from repro.obs.metrics import MIRRORED_FAMILIES

needs_process = pytest.mark.skipif(
    not remote_available(), reason="cloudpickle unavailable"
)
TRANSPORTS = ["sim", pytest.param("process", marks=needs_process)]


class Point(PCObject):
    fields = [("pid", Int32), ("cluster_id", Int32), ("x", Float64)]


class Label(PCObject):
    fields = [("cluster_id", Int32), ("label", String)]


class SumX(AggregateComp):
    key_type = Int64
    value_type = Float64

    def get_key_projection(self, arg):
        return lambda_from_member(arg, "cluster_id")

    def get_value_projection(self, arg):
        return lambda_from_member(arg, "x")


class LabelJoin(JoinComp):
    def get_selection(self, label, point):
        return lambda_from_member(label, "cluster_id") == \
            lambda_from_member(point, "cluster_id")

    def get_projection(self, label, point):
        return lambda_from_native(
            [label, point], lambda lab, p: (p.pid, lab.label)
        )


def _cluster(tmp_path, transport, n_points=1200, schema=None, **kwargs):
    """Three workers with a replicated input; pools of four 4 KiB pages
    unless ``worker_memory`` says otherwise (a scan that fits its pool
    is shipped to the back-end process, one that does not is streamed
    front-end side)."""
    clock = FakeClock()
    kwargs.setdefault("retry_policy", RetryPolicy(
        sleep=clock.sleep, clock=clock.clock, transfer_retries=3,
    ))
    kwargs.setdefault("worker_memory", 4 << 12)
    cluster = PCCluster(
        n_workers=3, page_size=1 << 12, spill_root=str(tmp_path),
        transport=transport, **kwargs
    )
    cluster.create_database("db")
    cluster.create_set("db", "points", Point, replication=2, schema=schema)
    with cluster.loader("db", "points") as load:
        for i in range(n_points):
            load.append(Point, pid=i, cluster_id=i % 4, x=float(i))
    cluster.create_set("db", "labels", Label)
    with cluster.loader("db", "labels") as load:
        for c in range(4):
            load.append(Label, cluster_id=c, label="L%d" % c)
    return cluster


def _sums():
    return Writer("db", "sums").set_input(
        SumX().set_input(ObjectReader("db", "points"))
    )


def _join(out="joined"):
    join = LabelJoin().set_input(0, ObjectReader("db", "labels"))
    return Writer("db", out).set_input(
        join.set_input(1, ObjectReader("db", "points"))
    )


def _registries(cluster):
    return [cluster.metrics_registry] + \
        [worker.metrics for worker in cluster.workers]


def _mirrors(cluster):
    """``{span counter: (metric name, labels)}`` for every series of every
    mirrored counter, in any registry: the unlabeled series mirrors as the
    counter's ``trace_name``, a labeled one appends ``.<value>`` per label
    in declaration order."""
    mirrors = {}
    for registry in _registries(cluster):
        for metric in registry.metrics():
            if metric.kind != "counter" or metric.trace_name is None:
                continue
            for key in metric.series() if metric.labelnames else [()]:
                name = metric.trace_name + "".join("." + v for v in key)
                mirrors[name] = (metric.name, dict(zip(metric.labelnames, key)))
    return mirrors


# -- (a) the two readers of one increment agree ---------------------------------------


@pytest.mark.parametrize("transport", TRANSPORTS)
def test_trace_mirrors_sum_to_the_registry_delta(tmp_path, transport,
                                                 schema_of):
    """What "cannot drift" means, on values: over a run of jobs, Σ of a
    trace counter over the job traces equals the ``cluster.metrics()``
    delta of the counter it mirrors."""
    injector = FaultInjector()
    cluster = _cluster(tmp_path, transport, schema=schema_of(Point),
                       fault_injector=injector)
    try:
        cluster.create_set("db", "sums", replication=2)  # replica writes
        # Scripted after loading, so the faults land inside the jobs: a
        # task is retried and a transfer re-sent.
        injector.crash_backend("worker-1", times=1)
        injector.drop_transfer(times=1)
        cluster.broadcast_threshold = 0  # partition join: a row shuffle
        jobs = [_sums(), _join()]
        before = cluster.metrics()
        for job in jobs:
            cluster.execute_computations(job)
        after = cluster.metrics()
        traced = {}
        for trace in cluster.traces(len(jobs)):
            for name, amount in trace.totals().items():
                traced[name] = traced.get(name, 0) + amount

        moved = set()
        for trace_name, (metric, labels) in sorted(_mirrors(cluster).items()):
            delta = after.value(metric, **labels) - \
                before.value(metric, **labels)
            assert traced.get(trace_name, 0) == pytest.approx(delta), \
                (metric, labels, trace_name)
            if delta:
                moved.add(trace_name)
        # The workload spilled, reloaded, shuffled on both wires and
        # between workers, replicated, retried a task and re-sent a
        # transfer.
        assert any(name.startswith("net.link_bytes.") for name in moved)
        assert moved >= {
            "pool.spills", "pool.reloads", "pool.pages_pinned",
            "net.messages", "net.bytes", "net.bytes_zero_copy",
            "net.bytes_rows",
            "net.transfers_dropped", "net.transfer_retries",
            "repl.replica_writes", "faults.backend_crashes",
            "faults.tasks_recovered",
        }
        assert sorted(cluster.read("db", "joined")) == sorted(
            (i, "L%d" % (i % 4)) for i in range(1200)
        )
    finally:
        cluster.close()


@needs_process
def test_every_counter_mirrors_by_the_one_rule(tmp_path, schema_of):
    """A span counter's name is a fact of the metric's name: in every
    registry of a process cluster with profiling and PCSan on, a counter
    ``pc_<family>_<rest>`` reports into the open span as
    ``<family>.<rest>`` (less ``_total``, plus ``.<value>`` per label)
    exactly when its family is listed; no gauge or histogram reports."""
    cluster = _cluster(tmp_path, "process", schema=schema_of(Point),
                       profiling=True)
    try:
        cluster.execute_computations(_sums())  # job-time families
        # PCSan's counters join the cluster's registry as sanitize=True
        # puts them there; enabled after the job, so no shm-backed block
        # is shadowed (a shadow keeps its segment's buffer exported).
        with sanitize_scope(metrics=cluster.metrics_registry):
            metrics = [metric for registry in _registries(cluster)
                       for metric in registry.metrics()]
        expected = {}
        with cluster.tracer.span("probe", kind="job") as probe:
            for metric in metrics:
                labels = dict.fromkeys(metric.labelnames, "v")
                if metric.kind == "gauge":
                    metric.set(metric.value_for(**labels), **labels)
                elif metric.kind == "histogram":
                    metric.observe(0.0, **labels)
                else:
                    metric.inc(0, **labels)
                    prefix, family, rest = metric.name.split("_", 2)
                    if prefix == "pc" and family in MIRRORED_FAMILIES:
                        name = family + "." + rest.removesuffix("_total")
                        expected[name + ".v" * len(labels)] = 0
        assert probe.counters == expected
        families = {metric.name.split("_")[1] for metric in metrics
                    if metric.kind == "counter"}
        assert families >= set(MIRRORED_FAMILIES) | {"engine", "op", "sched"}
    finally:
        cluster.close()


# -- (b) a _total never goes down ------------------------------------------------------


def _assert_no_total_decreased(before, after):
    for name in before.names():
        if not name.endswith("_total"):
            continue
        for labels in before.labels(name):
            assert after.value(name, **labels) >= \
                before.value(name, **labels), (name, labels)
        assert after.value(name) >= before.value(name), name


@pytest.mark.parametrize("transport", TRANSPORTS)
def test_totals_survive_losing_a_worker(tmp_path, transport):
    """``cluster.metrics()`` merges every registry the cluster ever had,
    so a worker's counts outlive the worker: decommission, kill and a
    blacklist-restart each leave every ``*_total`` series where it was
    or higher (a sum over the *active* workers would go down)."""
    injector = FaultInjector()
    cluster = PCCluster(
        n_workers=4, page_size=1 << 12, worker_memory=4 << 12,
        spill_root=str(tmp_path), transport=transport,
        fault_injector=injector, broadcast_threshold=0,
        retry_policy=RetryPolicy(
            sleep=lambda _s: None, max_attempts=2,
            blacklist_on_exhaustion=True,
        ),
    )
    try:
        cluster.create_database("db")
        # Row pages: the premise below is that the points overflow every
        # worker's pool.
        cluster.create_set("db", "points", Point, replication=2)
        with cluster.loader("db", "points") as load:
            for i in range(1200):
                load.append(Point, pid=i, cluster_id=i % 4, x=float(i))
        cluster.create_set("db", "labels", Label, replication=2)
        with cluster.loader("db", "labels") as load:
            for c in range(4):
                load.append(Label, cluster_id=c, label="L%d" % c)
        cluster.create_set("db", "sums", replication=2)
        cluster.execute_computations(_sums())  # scans, so reloads
        loaded = cluster.metrics()
        assert loaded.value("pc_pool_reloads_total", worker="worker-1") > 0

        cluster.decommission_worker("worker-1")
        decommissioned = cluster.metrics()
        _assert_no_total_decreased(loaded, decommissioned)
        assert decommissioned.value(
            "pc_pool_reloads_total", worker="worker-1"
        ) >= loaded.value("pc_pool_reloads_total", worker="worker-1")

        cluster.kill_worker("worker-0")
        killed = cluster.metrics()
        _assert_no_total_decreased(decommissioned, killed)

        # worker-3 dies in the probe stage of a partition join: its
        # table shard is gone, so the job restarts without it.
        injector.crash_backend(
            "worker-3", stage_kind="PipelineJobStage", times=99
        )
        cluster.execute_computations(_join())
        kinds = [stage.kind for stage in cluster.last_job_log]
        assert "WorkerBlacklistedEvent" in kinds
        assert cluster.blacklist == {"worker-0", "worker-1", "worker-3"}
        _assert_no_total_decreased(killed, cluster.metrics())
        assert sorted(cluster.read("db", "joined")) == sorted(
            (i, "L%d" % (i % 4)) for i in range(1200)
        )
    finally:
        cluster.close()


# -- (c) one clock ---------------------------------------------------------------------


def _grafted_tasks(trace):
    """``(stage, coordinator task span, child task span)`` triples."""
    for stage in trace.spans(kind="stage"):
        for task in stage.children:
            for child in task.children:
                if task.kind == "task" and child.kind == "task":
                    yield stage, task, child


@needs_process
def test_child_spans_sit_on_the_clock_liveness_is_judged_by(tmp_path):
    cluster = _cluster(tmp_path, "process", worker_memory=64 << 20)
    try:
        cluster.execute_computations(_sums())
        nested = list(_grafted_tasks(cluster.last_trace))
        assert {task.name for _stage, task, _child in nested} == \
            {w.worker_id for w in cluster.workers}
        for stage, task, child in nested:
            # The child's own monotonic readings, unshifted: it began
            # after the stage that submitted it and ended before the
            # await that received its result returned.
            assert stage.start <= child.start <= child.end <= task.end
        # The assumption spans and liveness share, pinned once: a live
        # child's beat, read raw against this process's clock, is never
        # in the future and never as old as the DEAD deadline.
        supervisor = cluster.supervisor
        for worker in cluster.workers:
            child = worker.backend._child
            staleness = time.monotonic() - child.heartbeat[BEAT_TIME]
            assert 0 <= staleness < supervisor.dead_after_s
    finally:
        cluster.close()


@needs_process
def test_post_mortem_span_of_a_killed_child_obeys_the_same_bounds(tmp_path):
    import os
    import signal
    import threading

    class Slow(SelectionComp):
        def get_projection(self, arg):
            def crawl(p):
                time.sleep(0.002)
                return p
            return lambda_from_native([arg], crawl)

    cluster = _cluster(
        tmp_path, "process", n_points=600, worker_memory=64 << 20,
    )
    try:
        victim = cluster.workers[1].backend
        pid, heartbeat = victim.child_pid, victim._child.heartbeat

        def kill_when_busy():
            deadline = time.monotonic() + 20
            while time.monotonic() < deadline:
                if heartbeat[BEAT_TASK]:
                    os.kill(pid, signal.SIGKILL)
                    return
                time.sleep(0.005)

        killer = threading.Thread(target=kill_when_busy, daemon=True)
        killer.start()
        # Through an aggregation: its pre-aggregation stage is shipped,
        # so the slow projection runs *in the child*.
        agg = SumX().set_input(
            Slow().set_input(ObjectReader("db", "points"))
        )
        cluster.execute_computations(Writer("db", "slow").set_input(agg))
        killer.join(timeout=30)
        assert not killer.is_alive()
        sums = cluster.read("db", "slow", as_pairs=True, comp=agg)
        assert sums == {
            c: float(sum(range(c, 600, 4))) for c in range(4)
        }

        synthesized = [
            (stage, task, child)
            for stage, task, child in _grafted_tasks(cluster.last_trace)
            if child.truncated and "synthesized" in (child.detail or "")
        ]
        assert len(synthesized) == 1
        stage, task, child = synthesized[0]
        assert child.pid == pid and task.truncated
        assert stage.start <= child.start <= child.end <= task.end
    finally:
        cluster.close()


# -- (d) one delay, two counters, one answer -------------------------------------------


def test_sub_millisecond_delays_are_not_truncated_away():
    """Ten 0.4 ms delays are 0.004 s over 10 events — float seconds and
    a count, no whole-millisecond family that truncates each to 0."""
    injector = FaultInjector().delay_transfer(0.0004, times=10)
    network = Transport(fault_injector=injector)
    for _ in range(12):
        network.ship_page("worker-0", "worker-1", b"x" * 64)
    stats = network.metrics.snapshot()
    assert stats.value("pc_net_delay_seconds_total") == pytest.approx(0.004)
    assert stats.value("pc_net_delay_events_total") == 10
    assert "pc_net_delay_ms_total" not in stats.names()

