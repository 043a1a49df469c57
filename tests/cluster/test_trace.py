"""Acceptance tests for the job-trace observability layer.

``cluster.execute_computations(...)`` followed by
``cluster.last_trace.to_json()`` must yield a machine-readable trace with
at least one job span, per-stage wall times, buffer-pool counters, and
the network's byte splits (zero-copy vs. rows, per-link).
"""

import json

import pytest

from repro.cluster import PCCluster
from repro.core import (
    AggregateComp,
    JoinComp,
    ObjectReader,
    SelectionComp,
    Writer,
    lambda_from_member,
    lambda_from_native,
)
from repro.errors import ExecutionError
from repro.memory import Float64, Int32, Int64, PCObject, String
from repro.obs import render_trace


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


@pytest.fixture
def cluster(tmp_path, schema_of):
    c = PCCluster(n_workers=3, page_size=1 << 12,
                  spill_root=str(tmp_path))
    c.create_database("db")
    c.create_set("db", "points", Point, schema=schema_of(Point))
    with c.loader("db", "points") as load:
        for i in range(200):
            load.append(Point, pid=i, cluster_id=i % 4, x=float(i))
    return c


def _run_aggregation(cluster):
    agg = SumX().set_input(ObjectReader("db", "points"))
    writer = Writer("db", "sums").set_input(agg)
    cluster.execute_computations(writer, job_name="sum-x")
    return agg


def test_trace_has_job_and_stage_spans_with_wall_times(cluster):
    assert cluster.last_trace is None  # nothing executed yet
    _run_aggregation(cluster)
    trace = cluster.last_trace
    assert trace is not None

    parsed = json.loads(trace.to_json())
    assert parsed["kind"] == "job"
    assert parsed["name"] == "sum-x"
    assert parsed["duration_s"] > 0

    stages = [c for c in parsed["children"] if c["kind"] == "stage"]
    assert len(stages) >= 2  # pre-aggregation + shuffled merge, at least
    assert {s["name"] for s in stages} >= {
        "PipelineJobStage", "AggregationJobStage",
    }
    for stage in stages:
        assert stage["duration_s"] > 0


def test_trace_job_log_and_spans_agree(cluster):
    _run_aggregation(cluster)
    stage_spans = cluster.last_trace.spans(kind="stage")
    assert [s.name for s in stage_spans] == \
        [stage.kind for stage in cluster.last_job_log]
    for stage in cluster.last_job_log:
        assert stage.span is not None
        assert stage.duration_s > 0


def test_trace_rolls_up_pool_and_network_counters(cluster):
    _run_aggregation(cluster)
    totals = cluster.last_trace.totals()

    # Buffer-pool counters: the scan pinned stored pages.
    assert totals["pool.pages_pinned"] > 0

    # Network byte split: the aggregation shuffle ships PC Map pages
    # (zero-copy) and per-link counters attribute them.
    assert totals["net.bytes_zero_copy"] > 0
    assert totals["net.bytes"] >= totals["net.bytes_zero_copy"]
    links = {k: v for k, v in totals.items()
             if k.startswith("net.link_bytes.")}
    assert links
    assert sum(links.values()) == totals["net.bytes"]

    # Engine tuple counts reached the trace too.
    assert totals["engine.rows_in"] >= 200


def test_trace_tasks_attribute_rows_per_worker(cluster):
    _run_aggregation(cluster)
    task_spans = cluster.last_trace.spans(kind="task")
    assert task_spans
    assert {span.name for span in task_spans} <= {
        w.worker_id for w in cluster.workers
    }
    total_rows = sum(
        span.counters.get("engine.rows_in", 0) for span in task_spans
    )
    assert total_rows >= 200  # every loaded point entered a pipeline


def test_trace_captures_row_traffic_for_partitioned_joins(cluster):
    cluster.create_set("db", "labels", Label)
    with cluster.loader("db", "labels") as load:
        for c in range(4):
            load.append(Label, cluster_id=c, label="L%d" % c)

    class LabelJoin(JoinComp):
        def get_selection(self, label, point):
            return lambda_from_member(label, "cluster_id") == \
                lambda_from_member(point, "cluster_id")

        def get_projection(self, label, point):
            return lambda_from_native(
                [label, point], lambda lab, p: (p.pid, lab.label)
            )

    cluster.broadcast_threshold = 0  # force the hash-partitioned path
    join = LabelJoin() \
        .set_input(0, ObjectReader("db", "labels")) \
        .set_input(1, ObjectReader("db", "points"))
    cluster.execute_computations(
        Writer("db", "joined").set_input(join), job_name="label-join"
    )
    totals = cluster.last_trace.totals()
    assert totals["net.bytes_rows"] > 0  # shuffles moved structured rows
    build_stages = [
        s for s in cluster.last_trace.spans(kind="stage")
        if s.name == "BuildHashTableJobStage"
    ]
    assert build_stages
    assert "partition" in build_stages[0].detail


def test_each_execution_yields_a_fresh_trace(cluster):
    _run_aggregation(cluster)
    first = cluster.last_trace
    cluster.execute_computations(
        Writer("db", "sums2").set_input(
            SumX().set_input(ObjectReader("db", "points"))
        ),
    )
    second = cluster.last_trace
    assert second is not first
    assert second.root.name == "job"  # default job name


def test_failed_job_still_leaves_a_partial_trace(cluster):
    class Exploding(SelectionComp):
        def get_projection(self, arg):
            def boom(p):
                raise RuntimeError("user code bug")

            return lambda_from_native([arg], boom)

    writer = Writer("db", "out").set_input(
        Exploding().set_input(ObjectReader("db", "points"))
    )
    with pytest.raises(ExecutionError):
        cluster.execute_computations(writer, job_name="doomed")
    trace = cluster.last_trace
    assert trace is not None
    assert trace.root.name == "doomed"
    assert all(span.end is not None for span in trace.root.walk())
    # Retries were attempted (and traced) before giving up.
    retry_spans = trace.spans(kind="retry")
    assert retry_spans
    assert retry_spans[0].counters.get("retry.backoff_ms", 0) >= 1


def test_render_trace_is_printable(cluster):
    _run_aggregation(cluster)
    text = render_trace(cluster.last_trace)
    assert "job sum-x" in text
    assert "AggregationJobStage" in text
    assert "net.bytes_zero_copy" in text
