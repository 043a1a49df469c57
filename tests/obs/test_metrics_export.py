"""Acceptance tests: cluster-wide metrics after a real TPC-H job.

The ISSUE acceptance bar: a Prometheus-text snapshot taken from
``cluster.metrics()`` after a TPC-H job must contain buffer-pool,
network, scheduler, replication, and per-stage operator-latency
(p50/p95) series — asserted here by exact series name.  Also covers the
JSON export, the terminal renderer and ``cluster.health()``; that a
trace mirror and its counter agree is ``tests/obs/test_one_account.py``.
"""

import json

import pytest

from repro.cluster import PCCluster
from repro.core import ObjectReader, Writer
from repro.tpch import (
    CustomerMultiSelection,
    CustomerSupplierPartGroupBy,
    TpchSpec,
    load_pc_customers,
)

SPEC = TpchSpec(n_customers=40, n_parts=60, n_suppliers=8, seed=3)


@pytest.fixture(scope="module")
def cluster():
    cluster = PCCluster(n_workers=2, page_size=1 << 16, profiling=True)
    load_pc_customers(cluster, SPEC, replication=2)
    # Written to a set, so the job allocates its output pages in the
    # workers' pools (a job that returns its pairs stores none).
    agg = CustomerSupplierPartGroupBy().set_input(
        CustomerMultiSelection().set_input(ObjectReader("tpch", "customers")))
    Writer("tpch", "supplier_info").set_input(agg).execute(cluster)
    result = cluster.read("tpch", "supplier_info", as_pairs=True, comp=agg)
    assert sum(len(v) for v in result.values()) > 0  # the job really ran
    return cluster


@pytest.fixture(scope="module")
def snapshot(cluster):
    return cluster.metrics()


@pytest.fixture(scope="module")
def exposition(snapshot):
    return snapshot.to_prometheus()


def test_prometheus_has_buffer_pool_series(exposition):
    assert "pc_pool_pages_created_total{worker=" in exposition
    assert "pc_pool_pages_pinned_total{worker=" in exposition
    assert "pc_pool_in_memory_bytes{worker=" in exposition
    assert "pc_pool_capacity_bytes{worker=" in exposition


def test_prometheus_has_network_series(exposition):
    assert "pc_net_messages_total " in exposition
    assert "pc_net_bytes_total " in exposition
    assert "pc_net_bytes_zero_copy_total " in exposition
    # per-link breakdown is labeled by endpoint pair
    assert 'pc_net_link_bytes_total{src="' in exposition


def test_prometheus_has_scheduler_series(exposition):
    assert "pc_sched_jobs_total " in exposition
    assert "pc_sched_job_seconds_bucket" in exposition
    assert 'pc_sched_stage_seconds_bucket{le="' in exposition or \
        'pc_sched_stage_seconds_bucket{stage="' in exposition
    assert "pc_sched_stage_cpu_seconds_total{stage=" in exposition
    assert "pc_sched_stages_total{stage=" in exposition


def test_prometheus_has_replication_series(exposition):
    assert "pc_repl_replica_writes_total " in exposition
    # the job wrote replicated pages, so the counter is live
    assert "pc_repl_replica_writes_total 0" not in exposition


def test_prometheus_has_operator_latency_quantiles(exposition):
    # Summary-style series computed from the histogram buckets: the
    # per-operator p50/p95 the perf PRs are judged against.
    assert 'pc_op_seconds{operator="apply",quantile="0.5"}' in exposition
    assert 'pc_op_seconds{operator="apply",quantile="0.95"}' in exposition
    assert 'pc_op_seconds_bucket{operator="apply",le="' in exposition
    assert 'pc_op_seconds_count{operator="apply"}' in exposition


def test_prometheus_has_help_and_type_lines(exposition):
    assert "# TYPE pc_net_messages_total counter" in exposition
    assert "# TYPE pc_pool_in_memory_bytes gauge" in exposition
    assert "# TYPE pc_op_seconds histogram" in exposition


def test_merged_snapshot_sums_worker_registries(cluster, snapshot):
    # The cluster-wide pin total is exactly the sum of per-worker pools.
    pins = [
        w.metrics.snapshot().value("pc_pool_pages_pinned_total")
        for w in cluster.workers
    ]
    assert snapshot.value("pc_pool_pages_pinned_total") == sum(pins) > 0
    # Each worker's series is individually addressable.
    assert snapshot.value(
        "pc_pool_pages_pinned_total", worker=cluster.workers[0].worker_id
    ) == pins[0]


def test_operator_quantiles_are_ordered(snapshot):
    p50 = snapshot.quantile("pc_op_seconds", 0.5, operator="apply")
    p95 = snapshot.quantile("pc_op_seconds", 0.95, operator="apply")
    p99 = snapshot.quantile("pc_op_seconds", 0.99, operator="apply")
    assert p50 is not None
    assert p50 <= p95 <= p99


def test_engine_counters_published_into_worker_registries(snapshot):
    assert snapshot.value("pc_engine_batches_total") > 0
    assert snapshot.value("pc_engine_rows_in_total") > 0


def test_allocator_counters_published(snapshot):
    assert snapshot.value("pc_alloc_blocks_total") > 0
    assert snapshot.value("pc_alloc_allocations_total") > 0


def test_json_export_round_trips(snapshot):
    doc = json.loads(snapshot.to_json())
    assert doc["pc_net_messages_total"]["kind"] == "counter"
    (series,) = doc["pc_net_messages_total"]["series"]
    assert series["value"] == snapshot.value("pc_net_messages_total")
    op = doc["pc_op_seconds"]
    assert op["kind"] == "histogram"
    apply_series = [
        s for s in op["series"] if s["labels"].get("operator") == "apply"
    ]
    assert apply_series and "0.5" in apply_series[0]["quantiles"]


def test_render_metrics_mentions_latency_table(snapshot):
    text = snapshot.render()
    assert "metrics (cluster-wide)" in text
    assert "p50_ms" in text
    assert "pc_op_seconds" in text


def test_cluster_health_is_ok_after_clean_job(cluster):
    statuses = cluster.health()
    assert {s.name for s in statuses} == {
        "buffer-pool-hit-rate",
        "replication-factor-satisfied",
        "no-blacklisted-workers",
        "corruption-healed",
    }
    assert all(s.ok for s in statuses), statuses
    assert cluster.healthy()


def test_trace_totals_agree_with_registry_after_job(cluster):
    """The same increment feeds the trace span and the lifetime counter."""
    before = {
        name: cluster.metrics().value(name)
        for name in ("pc_net_messages_total", "pc_net_bytes_total")
    }
    # Written to a set: a job's result moves nothing between workers.
    agg = CustomerSupplierPartGroupBy().set_input(
        CustomerMultiSelection().set_input(ObjectReader("tpch", "customers")))
    Writer("tpch", "supplier_info_2").set_input(agg).execute(cluster)
    totals = cluster.last_trace.totals()
    after = cluster.metrics()
    assert totals["net.messages"] == \
        after.value("pc_net_messages_total") - before["pc_net_messages_total"]
    assert totals["net.bytes"] == \
        after.value("pc_net_bytes_total") - before["pc_net_bytes_total"]
