"""A job's result is merged by its caller.

An aggregation whose only reader is the job's result has no consuming
stage: each producing task seals its groups as one partition for the
caller — combiner Map pages, or rows for an aggregation without a
``map_type`` — and the caller CRC-checks each page as it arrives, decodes
it once and folds the workers' pairs in worker order.  A page that does
not arrive as its task sealed it is never merged: the task re-runs.  The
pairs are the ones the same aggregation gives written to a set and read
back, value for value and byte for byte.
"""

import numpy as np
import pytest

from repro.cluster import FakeClock, FaultInjector, PCCluster, RetryPolicy
from repro.cluster import scheduler as scheduler_module
from repro.cluster.transport import remote_available
from repro.core import ObjectReader, Writer
from repro.engine.physical import SINK_AGGREGATE, plan_pipelines
from repro.errors import PlanningError
from repro.ml import PCLda
from repro.ml.kmeans_columnar import AssignedSums, ColumnarKMeans
from repro.storage.replication import page_checksum
from repro.tcap.compiler import compile_computations
from repro.tpch import (
    CustomerMultiSelection,
    CustomerSupplierPartGroupBy,
    TopJaccard,
    TpchSpec,
    load_pc_customers,
)

TRANSPORTS = [
    "sim",
    pytest.param("process", marks=pytest.mark.skipif(
        not remote_available(), reason="cloudpickle unavailable")),
]


def _cluster(tmp_path, transport, **kwargs):
    kwargs.setdefault("page_size", 1 << 13)
    kwargs.setdefault("n_workers", 2)
    return PCCluster(transport=transport,
                     spill_root=str(tmp_path / transport), **kwargs)


def _supplier_info():
    return CustomerSupplierPartGroupBy().set_input(
        CustomerMultiSelection().set_input(ObjectReader("tpch", "customers")))


def _top_k():
    return TopJaccard(4, [1, 5, 9, 12]).set_input(
        ObjectReader("tpch", "customers"))


def _canonical(value):
    """``value`` as plain nested tuples that compare equal only when the
    values are byte for byte the same: an ndarray by dtype and bytes, a
    dict by its sorted items (a Map's order is its buckets'), a float by
    its IEEE bytes, and every value by its type."""
    if isinstance(value, np.ndarray):
        return ("ndarray", value.dtype.str, value.shape, value.tobytes())
    if isinstance(value, dict):
        return ("dict", tuple(sorted(
            (_canonical(key), _canonical(item)) for key, item in value.items())))
    if isinstance(value, (list, tuple)):
        return (type(value).__name__, tuple(map(_canonical, value)))
    if isinstance(value, float):
        return (type(value).__name__, np.float64(value).tobytes())
    return (type(value).__name__, value)


def _same_bytes(got, want):
    assert got and _canonical(got) == _canonical(want)


def _written(cluster, make, set_name):
    Writer("tpch", set_name).set_input(make()).execute(cluster)
    return cluster.read("tpch", set_name, as_pairs=True, comp=make())


# -- the plan: no OUTPUT pipeline for a result ----------------------------------------------


def test_a_result_aggregations_pipeline_ends_at_the_caller():
    program = compile_computations([_supplier_info(), _top_k()])
    plan = plan_pipelines(program)
    assert [p.sink_kind for p in plan] == [SINK_AGGREGATE, SINK_AGGREGATE]
    assert all(p.result is not None and p.result.set_name is None for p in plan)
    assert all(p.describe().endswith("-> result of %s" % p.result.computation)
               for p in plan)
    # Written to a set, the same aggregation keeps its consuming pipeline.
    written = plan_pipelines(compile_computations(
        Writer("tpch", "x").set_input(_supplier_info())))
    assert [p.result for p in written] == [None, None]


def test_a_result_read_on_in_the_same_job_is_a_planning_error():
    pairs = _supplier_info()
    reread = CustomerSupplierPartGroupBy().set_input(pairs)
    with pytest.raises(PlanningError, match="more than the job's caller"):
        plan_pipelines(compile_computations([pairs, reread]))


# -- pages that come home corrupt ------------------------------------------------------------


@pytest.mark.parametrize("transport", TRANSPORTS)
def test_a_corrupt_combiner_page_reruns_its_task_and_is_never_merged(
        tmp_path, transport, monkeypatch):
    points = np.random.default_rng(4).integers(-40, 40, size=(600, 3)) / 8.0
    centers = points[:4].copy()

    def step(cluster):
        ColumnarKMeans(cluster).load(points)
        return cluster.execute_computations(AssignedSums(centers).set_input(
            ObjectReader("ml", "points_col")))

    merged = []
    read = scheduler_module.map_page_pairs

    def noting_read(pages, comp, registry, declined):
        merged.extend(page_checksum(data) == checksum
                      for data, checksum, *_sealed in pages)
        return read(pages, comp, registry, declined)

    monkeypatch.setattr(scheduler_module, "map_page_pairs", noting_read)
    # Small pages: both workers hold points.
    with _cluster(tmp_path / "clean", transport, page_size=1 << 12) as clean:
        want = step(clean)
    clean_pages, merged[:] = list(merged), []
    clock = FakeClock()
    injector = FaultInjector().corrupt_transfer(src="worker-1", dst="caller")
    with _cluster(tmp_path / "corrupt", transport, page_size=1 << 12,
                  fault_injector=injector,
                  retry_policy=RetryPolicy(sleep=clock.sleep,
                                           clock=clock.clock)) as cluster:
        got = step(cluster)
        assert injector.counts["transfer_corruptions"] == 1
        assert cluster.fault_metrics.tasks_recovered.value == 1
        # A hand-over to the caller is no network transfer.
        links = cluster.metrics().labels("pc_net_link_bytes_total")
        assert all("caller" not in dict(labels).values() for labels in links)
    # Each worker's pages are merged once, as their task sealed them.
    assert merged == clean_pages and all(merged) and len(merged) == 2
    _same_bytes(got, want)
    assert sum(value[0] for value in got.values()) == len(points)


# -- byte for byte the written set's pairs ---------------------------------------------------


@pytest.mark.parametrize("transport", TRANSPORTS)
def test_nested_map_values_are_the_written_sets(tmp_path, transport):
    with _cluster(tmp_path, transport) as cluster:
        load_pc_customers(cluster, TpchSpec(60, n_parts=40, n_suppliers=6,
                                            seed=11))
        got = cluster.execute_computations(_supplier_info())
        assert any(isinstance(value, dict) and value for value in got.values())
        _same_bytes(got, _written(cluster, _supplier_info, "supplier_info"))


@pytest.mark.parametrize("transport", TRANSPORTS)
def test_row_wire_pairs_are_the_written_sets(tmp_path, transport):
    with _cluster(tmp_path, transport) as cluster:
        load_pc_customers(cluster, TpchSpec(60, n_parts=40, n_suppliers=6,
                                            seed=11))
        assert _top_k().map_type is None
        _same_bytes(cluster.execute_computations(_top_k()),
                    _written(cluster, _top_k, "topk"))


@pytest.mark.parametrize("transport", TRANSPORTS)
def test_lda_two_aggregations_are_the_written_sets(tmp_path, transport):
    rng = np.random.default_rng(3)
    corpus = [(doc, int(word), int(rng.integers(1, 4))) for doc in range(8)
              for word in rng.choice(12, size=4, replace=False)]
    with _cluster(tmp_path, transport, page_size=1 << 16) as cluster:
        lda = PCLda(cluster, n_topics=3, seed=5)
        lda.load(corpus, n_docs=8, dictionary_size=12)
        _writers, doc_agg, word_agg = lda.build_iteration_graph(seed=1)
        returned = cluster.execute_computations([doc_agg, word_agg])
        writers, doc_agg, word_agg = lda.build_iteration_graph(seed=1)
        cluster.execute_computations(writers)
        for got, name, agg in zip(returned, ("doc_counts", "word_counts"),
                                  (doc_agg, word_agg)):
            _same_bytes(got, cluster.read("lda", name, as_pairs=True, comp=agg))


@pytest.mark.parametrize("transport", TRANSPORTS)
def test_a_worker_without_rows_adds_nothing(tmp_path, transport):
    # One 64 KiB page holds every customer: two of three workers hold none.
    with _cluster(tmp_path, transport, n_workers=3,
                  page_size=1 << 16) as cluster:
        load_pc_customers(cluster, TpchSpec(20, n_parts=20, n_suppliers=4,
                                            seed=2))
        empty = [worker for worker in cluster.workers
                 if not worker.storage.get_set("tpch", "customers").page_ids]
        assert empty
        for make, name in ((_supplier_info, "supplier_info"), (_top_k, "topk")):
            _same_bytes(cluster.execute_computations(make()),
                        _written(cluster, make, name))
