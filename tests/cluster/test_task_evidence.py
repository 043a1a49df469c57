"""One evidence path: what a task did reads the same wherever it ran.

A task body run by the coordinator and one run by a back-end process
close the same evidence (engine counter deltas + operator records,
DESIGN §14) and :func:`repro.obs.evidence.book_task_evidence` books
both, so every ``pc_engine_*`` / ``pc_op_*`` series is *equal* across
the two transports, ``tracing`` / ``profiling`` mean the same thing in
both processes, and a torn span batch costs the tree, never the
counters.
"""

import os

import numpy as np
import pytest

from repro.cluster import PCCluster, RetryPolicy
from repro.cluster.scheduler import DistributedScheduler
from repro.cluster.transport import remote_available
from repro.cluster.worker import WorkerNode
from repro.core import ObjectReader, SelectionComp, Writer, lambda_from_native
from repro.errors import ExecutionError
from repro.memory import Int32, PCObject
from repro.ml.kmeans_columnar import ColumnarKMeans
from repro.tpch import TpchSpec, customers_per_supplier_pc, \
    load_pc_customers
from repro.tpch.lineitem import load_lineitems, q1_sums, q6_revenue

# (a join over handles: on the process transport the coordinator runs its
# probe tasks — ``unpicklable_spec`` — and build task — ``child_rejected``)
from test_backend_pages import _multiply

needs_process = pytest.mark.skipif(
    not remote_available(), reason="cloudpickle unavailable"
)


def _lineitem_queries(cluster):
    load_lineitems(cluster, 40000, seed=3)
    q6_revenue(cluster)
    q1_sums(cluster, "quantity")


def _tpch_objects(cluster):
    load_pc_customers(
        cluster, TpchSpec(n_customers=30, n_parts=40, n_suppliers=6, seed=11)
    )
    customers_per_supplier_pc(cluster)


def _kmeans_iteration(cluster):
    points = np.random.default_rng(7).integers(-40, 40, size=(6000, 3)) / 8.0
    km = ColumnarKMeans(cluster).load(points)
    km.iterate(km.initialize(4, seed=1))


WORKLOADS = {
    "lineitem": (_lineitem_queries, 1 << 16),
    "tpch_objects": (_tpch_objects, 1 << 14),
    "kmeans": (_kmeans_iteration, 1 << 14),
    "multiply": (_multiply, 1 << 16),
}


def _run(tmp_path, transport, workload, **flags):
    """Run one workload; returns (metrics snapshot, job traces)."""
    body, page_size = WORKLOADS[workload]
    root = tmp_path / ("%s-%s" % (workload, transport))
    root.mkdir()
    cluster = PCCluster(n_workers=2, page_size=page_size,
                        spill_root=str(root), transport=transport, **flags)
    try:
        body(cluster)
        return cluster.metrics(), cluster.traces(16)
    finally:
        cluster.close()


def _by_operator(snapshot, family):
    """``{operator: value}``; a histogram's value is its observation count."""
    out = {}
    series = snapshot.families.get(family, {"series": {}})["series"]
    for labels, value in series.items():
        count = value["count"] if isinstance(value, dict) else value
        out[dict(labels)["operator"]] = count
    return out


def _engine_totals(snapshot):
    return {
        name: snapshot.value(name) for name in snapshot.names()
        if name.startswith("pc_engine_")
    }


@needs_process
@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_signals_are_equal_across_transports(tmp_path, workload):
    sim, sim_traces = _run(tmp_path, "sim", workload, profiling=True)
    proc, proc_traces = _run(tmp_path, "process", workload, profiling=True)

    rows = _by_operator(sim, "pc_op_rows_total")
    assert rows and sum(rows.values()) > 0
    for family in ("pc_op_rows_total", "pc_op_columnar_rows_total",
                   "pc_op_gather_rows_total", "pc_op_seconds"):
        assert _by_operator(proc, family) == _by_operator(sim, family), family
    # A row page's rows go through the kernels as gather rows, a columnar
    # page's as columnar rows (a sanitized block's through neither); the
    # fallbacks, by operator and reason, are the same series on both.
    if workload == "tpch_objects" and os.environ.get("PC_SANITIZE") != "1":
        assert _by_operator(sim, "pc_op_gather_rows_total") \
            == {"apply": 60, "filter": 30}
        assert sim.value("pc_engine_kernel_fallback_total") == 0
    fallbacks = "pc_engine_kernel_fallback_total"
    assert proc.families[fallbacks]["series"] \
        == sim.families[fallbacks]["series"]
    engine = _engine_totals(sim)
    assert engine["pc_engine_rows_in_total"] > 0
    assert engine["pc_engine_rows_out_total"] > 0
    assert _engine_totals(proc) == engine

    for traces in (sim_traces, proc_traces):
        ops = [s for t in traces for s in t.spans(kind="op")]
        assert ops
        for op in ops:
            counters = op.counters
            # An array kernel handles rows the operator was handed.
            assert counters.get("op.%s.columnar_rows" % op.name, 0) \
                <= counters["op.rows_in"]
            # First-to-last is a timeline fact; busy time is the counter.
            assert op.duration_s >= counters["op.wall_ms"] / 1e3
            assert counters["op.calls"] >= 1
        for task in (s for t in traces for s in t.spans(kind="task")):
            busy_ms = sum(
                child.counters["op.wall_ms"] for child in task.children
                if child.kind == "op"
            )
            assert busy_ms / 1e3 <= task.duration_s

    # The same operators, with the same rows, as spans on both sides.
    def span_rows(traces):
        out = {}
        for trace in traces:
            for op in trace.spans(kind="op"):
                seen = out.setdefault(op.name, [0, 0, 0])
                seen[0] += op.counters["op.calls"]
                seen[1] += op.counters["op.rows_in"]
                seen[2] += op.counters["op.rows_out"]
        return out

    assert span_rows(proc_traces) == span_rows(sim_traces)
    assert {name: seen[2] for name, seen in span_rows(sim_traces).items()
            if seen[2]} == rows


class Item(PCObject):
    fields = [("n", Int32)]


def _poisoned(item):
    if item.n == 2500:
        raise ValueError("poisoned item")
    return item.n


class Poisoned(SelectionComp):
    def get_projection(self, arg):
        return lambda_from_native([arg], _poisoned)


@needs_process
def test_failing_body_books_the_same_evidence_on_both_transports(tmp_path,
                                                                 schema_of):
    """A stage that raises mid-scan: the evidence so far travels with the
    error, and booking it is the same one path wherever the task ran."""
    def run(transport):
        root = tmp_path / transport
        root.mkdir()
        cluster = PCCluster(
            n_workers=1, page_size=1 << 12, spill_root=str(root),
            transport=transport, profiling=True,
            retry_policy=RetryPolicy.disabled(),
        )
        try:
            cluster.create_database("db")
            cluster.create_set("db", "items", Item, schema=schema_of(Item))
            with cluster.loader("db", "items") as load:
                for n in range(4000):
                    load.append(Item, n=n)
            with pytest.raises(ExecutionError, match="poisoned item"):
                Writer("db", "out").set_input(
                    Poisoned().set_input(ObjectReader("db", "items"))
                ).execute(cluster)
            assert all(
                task.truncated
                for task in cluster.last_trace.spans(kind="task")
            )
            return cluster.metrics()
        finally:
            cluster.close()

    sim, proc = run("sim"), run("process")
    # Three 1,024-row batches went in, the third holding item 2,500,
    # which raised; the fourth never did.
    assert sim.value("pc_engine_rows_in_total") == 3 * 1024
    assert sim.value("pc_engine_batches_total") == 3
    assert _engine_totals(proc) == _engine_totals(sim)
    # (the selection's apply and its filter saw the third batch; the
    # projection's apply raised inside it)
    assert _by_operator(sim, "pc_op_rows_total") == \
        {"apply": 3 * 1024 + 2 * 1024, "filter": 3 * 1024}
    for family in ("pc_op_rows_total", "pc_op_seconds"):
        assert _by_operator(proc, family) == _by_operator(sim, family), family


def _shipped_evidence(monkeypatch):
    """Collect the evidence of every outcome a back-end process sent the
    coordinator (it carries the child's pid)."""
    shipped = []
    await_result = WorkerNode.await_result

    def spy(self, future):
        outcome = await_result(self, future)
        if outcome is not None and "pid" in outcome[1]:
            shipped.append(outcome[1])
        return outcome

    monkeypatch.setattr(WorkerNode, "await_result", spy)
    return shipped


@needs_process
def test_off_means_off_in_the_child(tmp_path, monkeypatch):
    shipped = _shipped_evidence(monkeypatch)
    sim, _ = _run(tmp_path, "sim", "lineitem",
                  tracing=False, profiling=False)
    proc, traces = _run(tmp_path, "process", "lineitem",
                        tracing=False, profiling=False)
    assert shipped
    for evidence in shipped:
        assert "spans" not in evidence
        assert evidence["ops"] == {}
    assert traces == []
    assert proc.value("pc_trace_remote_spans_total") == 0
    assert "pc_op_seconds" not in proc.names()
    for family in ("pc_engine_rows_in_total", "pc_engine_batches_total",
                   "pc_engine_columnar_rows_total"):
        assert proc.value(family) == sim.value(family) > 0, family


@needs_process
def test_tracing_without_profiling_ships_task_spans_only(
        tmp_path, monkeypatch):
    shipped = _shipped_evidence(monkeypatch)
    sim, sim_traces = _run(tmp_path, "sim", "lineitem", tracing=True)
    proc, proc_traces = _run(tmp_path, "process", "lineitem", tracing=True)
    assert shipped
    for evidence in shipped:
        (span,) = evidence["spans"]
        assert span["kind"] == "task" and span["children"] == []
        assert span["counters"] == {}  # the coordinator books them
        assert evidence["ops"] == {}
    for traces in (sim_traces, proc_traces):
        assert not [s for t in traces for s in t.spans(kind="op")]
    remote_tasks = [s for t in proc_traces for s in t.spans(kind="task")
                    if s.pid is not None]
    assert len(remote_tasks) == len(shipped)
    assert proc.value("pc_trace_remote_spans_total") == len(shipped)
    # Engine counters still reach the trace: booked at home, onto the
    # grafted task span.
    totals = [sum(t.totals().get("engine.rows_in", 0) for t in traces)
              for traces in (sim_traces, proc_traces)]
    assert totals[0] == totals[1] == sim.value("pc_engine_rows_in_total")


def test_torn_span_batch_is_counted_and_costs_no_counters(tmp_path):
    cluster = PCCluster(n_workers=1, page_size=1 << 14,
                        spill_root=str(tmp_path), transport="sim")
    try:
        load_lineitems(cluster, 200, seed=3)
        q6_revenue(cluster)  # any job: the scheduler needs a program
        scheduler = DistributedScheduler(
            cluster, cluster.last_program, cluster.last_plan
        )
        worker = cluster.workers[0]
        rows_before = cluster.metrics().value("pc_engine_rows_in_total")
        torn = {
            "engine": {"rows_in": 7, "batches": 1}, "ops": {}, "pid": 4242,
            # A span payload without its name: Span.from_dict's KeyError.
            "spans": [{"kind": "task", "start_s": 0.0, "duration_s": 0.1}],
            "span_base": 0.0,
        }
        with cluster.tracer.span("job", kind="job"):
            with cluster.tracer.span("worker-0", kind="task") as task:
                scheduler._book(worker, torn)
        assert task.children == []
        assert task.counters["engine.rows_in"] == 7
        assert task.counters["trace.span_graft_failures"] == 1
        snapshot = cluster.metrics()
        assert snapshot.value("pc_trace_span_graft_failures_total") == 1
        assert snapshot.value("pc_trace_remote_spans_total") == 0
        assert snapshot.value(
            "pc_engine_rows_in_total", worker="worker-0"
        ) == rows_before + 7
    finally:
        cluster.close()
