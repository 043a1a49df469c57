"""Acceptance tests for distributed tracing across process boundaries.

The PR 9 bar (DESIGN §14): on ``transport="process"`` the merged job
trace must contain spans recorded *inside* every back-end child — task
and operator spans carrying the child's real pid, on the one
``time.monotonic()`` a same-host child shares with the coordinator —
and a worker killed mid-task must still contribute evidence: truncated
spans plus a flight-recorder dump, grafted from the error envelope or
synthesized post-mortem from the shared ring.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import ChaosMonkey, PCCluster, RetryPolicy
from repro.cluster.transport import remote_available
from repro.core import AggregateComp, ObjectReader, SelectionComp, \
    Writer, lambda_from_member, lambda_from_native
from repro.errors import ExecutionError
from repro.memory import Float64, Int32, Int64, PCObject
from repro.obs import validate_chrome_trace, to_chrome_trace
from repro.obs.tracer import Span, Trace
from repro.tpch import TpchSpec, customers_per_supplier_pc, \
    load_pc_customers

needs_process = pytest.mark.skipif(
    not remote_available(), reason="cloudpickle unavailable"
)

TPCH_SPEC = TpchSpec(n_customers=30, n_parts=40, n_suppliers=6, seed=11)


def _tpch_cluster(tmp_path, subdir, policy=None, profiling=False):
    root = tmp_path / subdir
    root.mkdir(exist_ok=True)
    cluster = PCCluster(
        n_workers=3, page_size=1 << 14, spill_root=str(root),
        transport="process", retry_policy=policy, profiling=profiling,
    )
    load_pc_customers(cluster, TPCH_SPEC, replication=2)
    return cluster


# -- remote spans in the merged trace ---------------------------------------------


@needs_process
def test_merged_trace_has_spans_from_every_worker_pid(tmp_path):
    cluster = _tpch_cluster(tmp_path, "merge", profiling=True)
    try:
        customers_per_supplier_pc(cluster)
        trace = cluster.last_trace
        child_pids = {w.backend.child_pid for w in cluster.workers}
        remote_pids = {s.pid for s in trace.spans() if s.pid is not None}
        # Every worker's back-end child contributed spans.
        assert remote_pids == child_pids
        assert len(remote_pids) == 3

        remote_tasks = [s for s in trace.spans(kind="task")
                        if s.pid is not None]
        assert remote_tasks
        for task in remote_tasks:
            # Grafted under the coordinator's task span for that dispatch.
            assert task.parent_id is not None
            assert task.end is not None and task.duration_s >= 0
            assert not task.truncated  # clean run: nothing was cut short
        # Operator spans recorded inside the children, with row counts.
        ops = [s for s in trace.spans(kind="op") if s.pid is not None]
        assert ops
        assert any(op.counters.get("op.rows_in", 0) > 0 for op in ops)
        assert {op.name for op in ops} & {"apply", "filter", "hash"}
    finally:
        cluster.close()


def grafted_tasks(trace):
    """``(stage span, coordinator task span, child task span)`` for every
    ``task`` span a back-end process recorded and the scheduler grafted."""
    for stage in trace.spans(kind="stage"):
        for task in stage.children:
            for child in task.children:
                if task.kind == "task" and child.kind == "task":
                    yield stage, task, child


@needs_process
def test_clock_alignment_error_is_bounded_by_the_handshake(tmp_path):
    """The containment this test's name always wanted to pin (the name
    is kept from when an estimated offset and its "error bound" were
    recorded; there is no handshake now, and the error is zero).  One
    clock (DESIGN §14): a child's span is placed at its own
    ``time.monotonic()`` readings, unshifted — so it ends before the
    await that received its result returned, and starts after the stage
    that submitted it began."""
    cluster = _tpch_cluster(tmp_path, "clock", profiling=True)
    try:
        customers_per_supplier_pc(cluster)
        trace = cluster.last_trace
        nested = list(grafted_tasks(trace))
        assert len(nested) >= 3  # every worker shipped at least one task
        for stage, task, child in nested:
            assert child.pid is not None and not child.truncated
            assert stage.start <= child.start <= child.end <= task.end
            for op in child.children:  # the child's operator spans
                assert child.start <= op.start <= op.end <= child.end
        assert "trace.clock_error_s" not in trace.totals()
    finally:
        cluster.close()


@needs_process
def test_remote_counters_still_replay_into_cluster_metrics(tmp_path):
    cluster = _tpch_cluster(tmp_path, "metrics")
    try:
        customers_per_supplier_pc(cluster)
        # Reading vitals publishes each child's heartbeat row counter.
        for worker in cluster.workers:
            cluster.supervisor.vitals(worker.worker_id)
        snapshot = cluster.metrics()
        assert snapshot.value("pc_trace_remote_spans_total") > 0
        rows_series = snapshot.labels("pc_sup_rows_consumed")
        assert {labels["worker"] for labels in rows_series} == {
            w.worker_id for w in cluster.workers
        }
        # And the trace mirrors the graft count on the job span.
        totals = cluster.last_trace.totals()
        assert totals.get("trace.remote_spans", 0) > 0
        assert totals.get("engine.rows_in", 0) > 0
    finally:
        cluster.close()


@needs_process
def test_merged_trace_exports_a_valid_chrome_timeline(tmp_path):
    cluster = _tpch_cluster(tmp_path, "chrome")
    try:
        customers_per_supplier_pc(cluster)
        payload = to_chrome_trace(cluster.last_trace)
        assert validate_chrome_trace(payload) == []
        pids = {e["pid"] for e in payload["traceEvents"] if e["ph"] == "B"}
        assert 0 in pids  # the coordinator track
        assert len(pids) == 4  # plus one track per worker child
    finally:
        cluster.close()


@needs_process
def test_traces_ring_keeps_back_to_back_jobs(tmp_path):
    cluster = _tpch_cluster(tmp_path, "ring")
    try:
        assert cluster.traces() == []
        customers_per_supplier_pc(cluster)
        first = cluster.last_trace
        customers_per_supplier_pc(cluster)
        second = cluster.last_trace
        assert cluster.traces(1) == [second]
        assert cluster.traces(2) == [second, first]  # most recent first
        assert cluster.traces(99)[:2] == [second, first]
        # last_trace stays an alias for traces(1)[0].
        assert cluster.last_trace is cluster.traces(1)[0]
    finally:
        cluster.close()


# -- evidence from failed and killed workers ---------------------------------------


class PointD(PCObject):
    fields = [("pid", Int32), ("x", Float64)]


class SumXD(AggregateComp):
    key_type = Int64
    value_type = Float64

    def get_key_projection(self, arg):
        return lambda_from_member(arg, "pid")

    def get_value_projection(self, arg):
        return lambda_from_member(arg, "x")


@needs_process
def test_user_code_crash_ships_partial_spans_in_the_error_envelope(tmp_path):
    cluster = PCCluster(
        n_workers=3, page_size=1 << 13, spill_root=str(tmp_path),
        transport="process",
        retry_policy=RetryPolicy(max_attempts=2, backoff_base_s=0.01,
                                 backoff_max_s=0.02),
    )
    try:
        cluster.create_database("db")
        cluster.create_set("db", "points", PointD)
        with cluster.loader("db", "points") as load:
            for i in range(64):
                load.append(PointD, pid=i, x=float(i))

        class Exploding(SelectionComp):
            def get_projection(self, arg):
                def boom(p):
                    raise RuntimeError("user code bug")

                return lambda_from_native([arg], boom)

        # Route through an aggregation: the pre-aggregation stage is the
        # shippable portion, so the projection blows up *in the child*.
        writer = Writer("db", "out").set_input(
            SumXD().set_input(
                Exploding().set_input(ObjectReader("db", "points"))
            )
        )
        with pytest.raises(ExecutionError):
            cluster.execute_computations(writer, job_name="doomed")

        trace = cluster.last_trace
        assert trace.root.name == "doomed"
        # The dying task's spans still shipped — truncated, with a pid.
        cut = [s for s in trace.spans() if s.truncated]
        assert cut
        assert any(s.pid is not None for s in cut)
        # Counters accumulated before the exception were not lost: the
        # scan consumed rows before the projection raised.
        assert trace.totals().get("engine.rows_in", 0) > 0
        # The job failed, so the master's flight ring was dumped onto
        # the job span: the crash recovery left its marks there.
        kinds = {event["kind"] for event in trace.root.events}
        assert kinds & {"worker.refork", "sched.retry"}
        # And the export stays loadable with truncated spans in it.
        assert validate_chrome_trace(to_chrome_trace(trace)) == []
    finally:
        cluster.close()


@needs_process
def test_chaos_killed_workers_still_contribute_trace_evidence(tmp_path):
    policy = RetryPolicy(max_attempts=5, backoff_base_s=0.01,
                         backoff_max_s=0.05)
    cluster = _tpch_cluster(tmp_path, "storm", policy=policy)
    baseline = None
    try:
        import time as _time

        monkey = ChaosMonkey(cluster, seed=7, kills=3, stops=1,
                             window_s=1.5)
        # Collected per job: the storm outlasts both bounded rings (the
        # tracer's 16 traces, the master's 256 flight events), which
        # would evict the kill evidence before the asserts.
        traces, master_kinds = [], set()
        with monkey:
            horizon = _time.monotonic() + 2.2
            while _time.monotonic() < horizon:
                result = customers_per_supplier_pc(cluster)
                traces.append(cluster.last_trace)
                master_kinds.update(
                    e["kind"] for e in cluster.flight.snapshot()
                )
                if baseline is None:
                    baseline = result
                assert result == baseline
        assert monkey.counts["kill"] == 3

        # Each completed job still merged spans from real children ...
        merged = [t for t in traces
                  if any(s.pid is not None for s in t.spans())]
        assert merged
        # ... and at least one trace carries kill evidence: a truncated
        # span from a worker that died mid-task, with flight events
        # (the envelope's, or the shared ring's post-mortem dump).
        truncated = [
            span for trace in traces
            for span in trace.spans() if span.truncated
        ]
        assert truncated
        evidence = [s for s in truncated if s.events or s.pid is not None]
        assert evidence
        flight_kinds = {
            event.get("kind")
            for trace in traces
            for span in trace.spans()
            for event in span.events
        }
        assert flight_kinds  # some dump made it into the merged traces
        # Every collected trace still exports a loadable timeline.
        for trace in traces:
            assert validate_chrome_trace(to_chrome_trace(trace)) == []
        # The coordinator's own flight ring saw the storm and recovery.
        assert "chaos.signal" in master_kinds
        assert "worker.refork" in master_kinds
    finally:
        cluster.close()


# -- JSON round trip of remote-span traces (property) -------------------------------


span_kinds = st.sampled_from(["stage", "task", "op"])
counter_names = st.sampled_from(
    ["engine.rows_in", "op.rows_out", "net.bytes", "pool.pages_pinned"]
)
counters = st.dictionaries(counter_names, st.integers(0, 10 ** 9),
                           max_size=3)
event_dicts = st.lists(
    st.fixed_dictionaries({
        "seq": st.integers(1, 99),
        "ts": st.floats(0.0, 5.0, allow_nan=False).map(lambda v: round(v, 6)),
        "pid": st.integers(1, 99999),
        "kind": st.sampled_from(["task.dispatch", "chaos.signal",
                                 "sup.deadline_kill"]),
    }),
    max_size=3,
)


@st.composite
def span_trees(draw, depth=0):
    span = Span(draw(st.sampled_from(["scan", "agg", "task-1", "filter"])),
                kind=draw(span_kinds))
    span.start = draw(st.floats(0.0, 2.0, allow_nan=False)
                      .map(lambda v: round(v, 6)))
    span.end = span.start + draw(st.floats(0.0, 2.0, allow_nan=False)
                                 .map(lambda v: round(v, 6)))
    span.counters = draw(counters)
    span.pid = draw(st.one_of(st.none(), st.integers(1, 99999)))
    span.truncated = draw(st.booleans())
    span.events = draw(event_dicts)
    if depth < 2:
        span.children = draw(
            st.lists(span_trees(depth=depth + 1), max_size=3)
        )
    return span


@settings(max_examples=40, deadline=None)
@given(span_trees())
def test_remote_span_traces_round_trip_through_json(root):
    root.kind = "job"
    original = Trace(root)
    restored = Trace.from_json(original.to_json())

    # The round trip is a fixed point: re-serializing changes nothing.
    assert restored.to_json() == original.to_json()
    assert restored.totals() == original.totals()
    for got, want in zip(restored.root.walk(), original.root.walk()):
        assert got.name == want.name
        assert got.kind == want.kind
        assert got.pid == want.pid
        assert got.truncated == want.truncated
        assert got.counters == want.counters
        assert len(got.events) == len(want.events)
        for g_event, w_event in zip(got.events, want.events):
            assert g_event["kind"] == w_event["kind"]
            assert g_event["seq"] == w_event["seq"]
        assert got.duration_s == round(want.duration_s, 9)
        # Relative offsets survive (start anchored at the root).
        assert got.start == round(want.start - root.start, 9)


@needs_process
def test_trace_context_is_propagated_into_task_specs(tmp_path, schema_of):
    # Only a back-end process reads the spec's trace context (a task the
    # coordinator runs books onto the span already open), so this needs
    # the process transport.
    cluster = PCCluster(n_workers=2, page_size=1 << 12,
                        spill_root=str(tmp_path), transport="process")
    try:
        cluster.create_database("db")
        cluster.create_set("db", "points", PointD, schema=schema_of(PointD))
        with cluster.loader("db", "points") as load:
            for i in range(32):
                load.append(PointD, pid=i, x=float(i))
        seen = []
        from repro.cluster import scheduler as scheduler_mod
        original = scheduler_mod.serialize_task

        def spy(spec):
            if "segment" in spec:  # a task spec, not the job's blob
                seen.append(dict(spec.get("trace_ctx") or {}))
            return original(spec)

        scheduler_mod.serialize_task = spy
        try:
            writer = Writer("db", "kept").set_input(
                SumXD().set_input(ObjectReader("db", "points"))
            )
            cluster.execute_computations(writer, job_name="ctx")
        finally:
            scheduler_mod.serialize_task = original
        assert seen
        trace_ids = {ctx.get("trace_id") for ctx in seen}
        assert trace_ids == {cluster.tracer.trace_id}
        assert all(ctx.get("parent_span_id") is not None for ctx in seen)
    finally:
        cluster.close()
