"""An aggregation is merged where its pages arrive (Figure 5).

The ``AggregationJobStage`` only moves data: each worker's combiner pages
(or, for an aggregation that declares no PC types, its ``(key, value)``
rows) cross the exchange as they are and are kept, as they arrived, for
the task that reads the aggregation on the receiving worker.  That task
reads each Map out of the arrived bytes and merges — in a back-end
process on the process transport, so the coordinator decodes no Map
during the job.  What is stored, and what is read back, is the same on
both transports; a consuming task that crashes is retried over the same
kept pages.
"""

import pytest

from repro.cluster import FaultInjector, PCCluster, RetryPolicy
from repro.cluster import scheduler as scheduler_module
from repro.cluster.scheduler import DistributedScheduler
from repro.cluster.transport import remote_available
from repro.core import (
    AggregateComp,
    ObjectReader,
    SelectionComp,
    Writer,
    lambda_from_member,
    lambda_from_native,
)
from repro.engine import pipeline
from repro.memory import Float64, Int32, Int64, MapType, PCObject
from repro.tpch import (
    CustomerMultiSelection,
    CustomerSupplierPartGroupBy,
    TpchSpec,
    customers_per_supplier_pc,
    load_pc_customers,
    python_customers,
    reference_top_k,
    top_k_jaccard_pc,
)

PROCESS = pytest.param(
    "process", marks=pytest.mark.skipif(
        not remote_available(), reason="cloudpickle unavailable"
    ),
)
TRANSPORTS = ["sim", PROCESS]


class Point(PCObject):
    fields = [("pid", Int32), ("cluster_id", Int32), ("x", Float64)]


class SumX(AggregateComp):
    """cluster -> Σx: travels, and is stored, as PC Maps."""

    key_type = Int64
    value_type = Float64

    def get_key_projection(self, arg):
        return lambda_from_member(arg, "cluster_id")

    def get_value_projection(self, arg):
        return lambda_from_member(arg, "x")


class KeyTypeOnly(SumX):
    """A declared key and no declared value: not a Map, so the row wire
    and Python-value output."""

    value_type = None


class Doubled(SelectionComp):
    """The pairs of a large sum, the sum doubled."""

    def get_selection(self, arg):
        return lambda_from_native([arg], lambda pair: pair[1] > 5000)

    def get_projection(self, arg):
        return lambda_from_native([arg], lambda pair: (pair[0], 2 * pair[1]))


N_POINTS, N_KEYS = 3000, 37


def _expected():
    sums = {}
    for i in range(N_POINTS):
        sums[i % N_KEYS] = sums.get(i % N_KEYS, 0.0) + float(i)
    return sums


def _points_cluster(tmp_path, transport, **kwargs):
    # Small pages, so a worker's partition rolls over several combiner
    # pages and each message carries more than one.
    cluster = PCCluster(n_workers=3, page_size=1 << 10, spill_root=str(tmp_path),
                        transport=transport, **kwargs)
    cluster.register_type(Point)
    cluster.create_database("db")
    cluster.create_set("db", "points", Point)
    with cluster.loader("db", "points") as load:
        for i in range(N_POINTS):
            load.append(Point, pid=i, cluster_id=i % N_KEYS, x=float(i))
    return cluster


def _sum_into(cluster, out, comp=None):
    agg = (comp or SumX()).set_input(ObjectReader("db", "points"))
    Writer("db", out).set_input(agg).execute(cluster)
    return cluster.read("db", out, as_pairs=True, comp=agg)


def _page_bytes(cluster, key):
    """Every output partition's stored page bytes, by worker."""
    pages = {}
    for worker in cluster.workers:
        page_set = worker.storage.get_set(*key)
        for page_id in page_set.page_ids:
            with page_set.pinned_page(page_id) as page:
                pages.setdefault(worker.worker_id, []).append(page.to_bytes())
    return pages


def _arrived(monkeypatch):
    """``[(comp, what each worker received)]`` of every exchange."""
    seen = []
    exchange = DistributedScheduler._exchange

    def spy(scheduler, held, comp=None):
        received = exchange(scheduler, held, comp)
        seen.append((comp, received))
        return received

    monkeypatch.setattr(DistributedScheduler, "_exchange", spy)
    return seen


# -- the coordinator moves pages, the task merges them -------------------------------------


@pytest.mark.skipif(not remote_available(), reason="cloudpickle unavailable")
def test_the_coordinator_decodes_no_map_while_the_job_runs_on_process(
        tmp_path, monkeypatch):
    decoded = []
    facade, read = MapType.facade, pipeline.map_pairs

    def counting_facade(self, block, offset):
        decoded.append("facade")
        return facade(self, block, offset)

    def counting_read(view):
        decoded.append("map_items")
        return read(view)

    monkeypatch.setattr(MapType, "facade", counting_facade)
    monkeypatch.setattr(pipeline, "map_pairs", counting_read)
    arrived = _arrived(monkeypatch)
    with _points_cluster(tmp_path, "process") as cluster:
        agg = SumX().set_input(ObjectReader("db", "points"))
        Writer("db", "sums").set_input(agg).execute(cluster)
        placements = {span.detail for span in
                      cluster.last_trace.spans(kind="task")
                      if span.pid is None}
        in_job = list(decoded)
        assert cluster.read("db", "sums", as_pairs=True, comp=agg) == \
            _expected()
    assert placements == {"shipped"}
    assert in_job == []
    # The spies see this process's decodes: the client's read made some.
    assert "facade" in decoded and "map_items" in decoded
    # What the exchange handed each worker is page bytes, not pairs.
    ((comp, received),) = arrived
    assert isinstance(comp, SumX)
    pages = [page for into in received for page in into]
    assert len(pages) > len(received)
    assert all(isinstance(page[0], bytes) for page in pages)


@pytest.mark.skipif(not remote_available(), reason="cloudpickle unavailable")
def test_a_merging_task_spec_is_its_arrived_pages_and_a_kibibyte(
        tmp_path, monkeypatch):
    """A customers-per-supplier OUTPUT task is shipped the combiner pages
    its worker received, not 25 KB of merged groups as pickled columns:
    its spec is at most 1 KiB more than those pages.  The query is written
    to a set: a job's result has no merging task (its caller merges)."""
    specs = []
    serialize_task = scheduler_module.serialize_task

    def spy(spec):
        blob = serialize_task(spec)
        if spec.get("source", ("",))[0] == "arrived":
            specs.append((spec["worker_id"], len(blob)))
        return blob

    monkeypatch.setattr(scheduler_module, "serialize_task", spy)
    arrived = _arrived(monkeypatch)
    spec = TpchSpec(n_customers=300, n_parts=200, n_suppliers=20, seed=1)
    with PCCluster(n_workers=2, page_size=1 << 16, transport="process",
                   spill_root=str(tmp_path)) as cluster:
        load_pc_customers(cluster, spec)
        del specs[:], arrived[:]
        Writer("tpch", "suppliers").set_input(CustomerSupplierPartGroupBy().set_input(
            CustomerMultiSelection().set_input(ObjectReader("tpch", "customers")))
        ).execute(cluster)
        workers = [worker.worker_id for worker in cluster.workers]
    ((_comp, received),) = arrived
    page_bytes = {worker: sum(len(page[0]) for page in into)
                  for worker, into in zip(workers, received)}
    assert len(specs) == 2 and min(page_bytes.values()) > 4096
    for worker, size in specs:
        assert size <= page_bytes[worker] + 1024


@pytest.mark.parametrize("transport", TRANSPORTS)
def test_the_merging_task_books_the_merged_keys(tmp_path, transport):
    with _points_cluster(tmp_path, transport) as cluster:
        assert _sum_into(cluster, "sums") == _expected()
        merged = cluster.metrics().value("pc_engine_merged_keys_total")
        spans = cluster.last_trace.spans(kind="task")
    # Every key is merged once, on the worker its hash sends it to.
    assert merged == N_KEYS
    assert sum(span.counters.get("engine.merged_keys", 0)
               for span in spans) == N_KEYS


def test_stored_map_pages_are_byte_equal_on_sim_and_process(tmp_path):
    if not remote_available():
        pytest.skip("cloudpickle unavailable")
    pages = {}
    for transport in ("sim", "process"):
        with _points_cluster(tmp_path / transport, transport) as cluster:
            assert _sum_into(cluster, "sums") == _expected()
            pages[transport] = _page_bytes(cluster, ("db", "sums"))
    assert pages["sim"] == pages["process"]
    assert sum(map(len, pages["sim"].values())) >= 3


def test_row_wire_results_are_equal_on_both_transports(tmp_path):
    spec = TpchSpec(n_customers=80, n_parts=60, n_suppliers=8, seed=5)
    query = sorted(python_customers(spec)[0].part_ids())[:5] + [1, 2, 3]
    expected = reference_top_k(python_customers(spec), 4, query)
    results = {}
    for transport in ["sim"] + (["process"] if remote_available() else []):
        with PCCluster(n_workers=3, page_size=1 << 16, transport=transport,
                       spill_root=str(tmp_path / transport)) as cluster:
            load_pc_customers(cluster, spec)
            results[transport] = top_k_jaccard_pc(cluster, 4, query)
            suppliers, _total = customers_per_supplier_pc(cluster)
            results[transport, "suppliers"] = suppliers
    assert [(round(s, 9), c) for s, c, _p in results["sim"]] == \
        [(round(s, 9), c) for s, c, _p in expected]
    for key in ("process", ("process", "suppliers")):
        if key in results:
            sim_key = "sim" if key == "process" else ("sim", "suppliers")
            assert results[key] == results[sim_key]


# -- one typed-aggregation rule ---------------------------------------------------------------


@pytest.mark.parametrize("transport", TRANSPORTS)
def test_a_declared_key_without_a_value_type_runs_on_the_row_wire(
        tmp_path, transport, monkeypatch):
    arrived = _arrived(monkeypatch)
    with _points_cluster(tmp_path, transport) as cluster:
        assert KeyTypeOnly().map_type is None
        assert _sum_into(cluster, "sums", KeyTypeOnly()) == _expected()
        # Stored as Python values, not as Maps it has no value type for.
        assert sum(map(len, _page_bytes(cluster, ("db", "sums")).values())) \
            == 0
    ((comp, received),) = arrived
    assert all(isinstance(row, tuple) and len(row) == 2
               for into in received for row in into)


# -- a retry, and a second reader ---------------------------------------------------------------


@pytest.mark.parametrize("transport", TRANSPORTS)
def test_a_crashed_merging_task_retries_over_the_same_kept_pages(
        tmp_path, transport, monkeypatch):
    with _points_cluster(tmp_path / "clean", transport) as cluster:
        assert _sum_into(cluster, "sums") == _expected()
        clean = _page_bytes(cluster, ("db", "sums"))

    sources = []
    place, run_output = DistributedScheduler._place, \
        DistributedScheduler._run_output

    def recording_place(scheduler, worker, stages, source, sink):
        sources.append((worker.worker_id, source.described))
        return place(scheduler, worker, stages, source, sink)

    def crash_then_run_output(scheduler, pipeline_):
        # Armed once the pre-aggregation and the exchange are through:
        # the task that merges what arrived on worker-1 crashes once.
        scheduler.faults.crash_backend("worker-1", "PipelineJobStage")
        del sources[:]
        return run_output(scheduler, pipeline_)

    monkeypatch.setattr(DistributedScheduler, "_place", recording_place)
    monkeypatch.setattr(DistributedScheduler, "_run_output",
                        crash_then_run_output)
    with _points_cluster(
        tmp_path / "crash", transport, fault_injector=FaultInjector(),
        retry_policy=RetryPolicy(backoff_base_s=0.0),
    ) as cluster:
        assert _sum_into(cluster, "sums") == _expected()
        assert cluster.fault_injector.counts["backend_crashes"] == 1
        assert cluster.fault_metrics.tasks_recovered.value == 1
        assert _page_bytes(cluster, ("db", "sums")) == clean
    retried = [described for worker_id, described in sources
               if worker_id == "worker-1"]
    assert len(retried) == 2
    assert retried[0][0] == "arrived" and retried[0][2]
    assert retried[1] is retried[0]


@pytest.mark.parametrize("transport", TRANSPORTS)
def test_an_aggregation_read_by_two_pipelines(tmp_path, transport):
    with _points_cluster(tmp_path, transport) as cluster:
        agg = SumX().set_input(ObjectReader("db", "points"))
        cluster.execute_computations([
            Writer("db", "sums").set_input(agg),
            Writer("db", "doubled").set_input(Doubled().set_input(agg)),
        ])
        sums = cluster.read("db", "sums", as_pairs=True, comp=agg)
        doubled = sorted(cluster.read("db", "doubled"))
    assert sums == _expected()
    assert doubled == sorted(
        (key, 2 * value) for key, value in _expected().items() if value > 5000
    )
