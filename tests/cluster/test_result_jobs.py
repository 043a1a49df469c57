"""A job that ends in an aggregation returns its pairs to the caller.

``execute_computations(agg)`` runs the graph with an OUTPUT that has no
set, and no pipeline for it: each producing task seals its groups as one
partition for the caller — combiner Map pages, or rows — and the caller
CRC-checks each page as it arrives, decodes it once and folds the
workers' pairs.  Nothing is stored — no set, no page, no journal record.
What comes back is what ``read(as_pairs=True, comp=agg)`` gives for the
same job written to a set, on both transports, under a crashed, lost or
corrupted producing task too.
"""

import numpy as np
import pytest

from repro.cluster import FakeClock, FaultInjector, PCCluster, RetryPolicy
from repro.cluster.transport import remote_available
from repro.core import AggregateComp, ObjectReader, Writer, lambda_from_native
from repro.engine.interpreter import LocalInterpreter
from repro.engine.local import run_local
from repro.errors import ExecutionError
from repro.ml import PCKMeans, PCLda
from repro.ml.kmeans import GetNewCentroids, PartialCentroids
from repro.ml.kmeans_columnar import AssignedSums, ColumnarKMeans
from repro.tcap.parser import parse_tcap
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


def _written(cluster, agg, set_name):
    """The same aggregation written to a set and read back as pairs."""
    Writer("tpch", set_name).set_input(agg).execute(cluster)
    return cluster.read("tpch", set_name, as_pairs=True, comp=agg)


def _stored_state(cluster):
    """What a job could leave behind: the sets, the journal, the pages."""
    return (
        sorted(meta.qualified_name for meta in cluster.catalog.list_sets()),
        len(cluster.journal.entries()),
        cluster.journal.syncs,
        {(worker.worker_id, meta.qualified_name): list(
            worker.storage.get_set(meta.database, meta.name).page_ids)
         for worker in cluster.workers for meta in cluster.catalog.list_sets()},
        cluster.metrics().value("pc_pool_pages_created_total"),
    )


def _equal_pairs(got, want):
    assert list(got) == list(want) or sorted(got) == sorted(want)
    for key, value in want.items():
        if isinstance(value, np.ndarray):
            assert np.array_equal(got[key], value)
        else:
            assert got[key] == value


@pytest.mark.parametrize("transport", TRANSPORTS)
def test_a_result_job_stores_nothing(tmp_path, transport):
    with _cluster(tmp_path, transport) as cluster:
        load_pc_customers(cluster, TpchSpec(60, n_parts=40, n_suppliers=6,
                                            seed=11))
        before = _stored_state(cluster)
        result = cluster.execute_computations(_supplier_info())
        assert sum(len(customers) for customers in result.values()) > 0
        assert _stored_state(cluster) == before
        assert cluster.execute_computations(_top_k())[0]
        assert _stored_state(cluster) == before
        # The plan's OUTPUT names no set, and prints and parses as such.
        (output,) = [s for s in cluster.last_program.statements
                     if s.op == "OUTPUT"]
        assert output.set_name is None and output.database is None
        assert output.to_text().endswith("'%s');" % output.computation)
        (parsed,) = [s for s in parse_tcap(output.to_text()).statements]
        assert parsed.set_name is None
        assert parsed.computation == output.computation


@pytest.mark.parametrize("transport", TRANSPORTS)
def test_returned_pairs_are_the_written_sets_pairs(tmp_path, transport):
    with _cluster(tmp_path, transport) as cluster:
        load_pc_customers(cluster, TpchSpec(60, n_parts=40, n_suppliers=6,
                                            seed=11))
        # A Map-typed aggregation (nested Map values)...
        _equal_pairs(cluster.execute_computations(_supplier_info()),
                     _written(cluster, _supplier_info(), "supplier_info"))
        # ... and a row-wire one, whose pairs are Python values.
        _equal_pairs(cluster.execute_computations(_top_k()),
                     _written(cluster, _top_k(), "topk"))
        # Several aggregations in one job: a list, in sink order.
        both = cluster.execute_computations([_top_k(), _supplier_info()])
        assert isinstance(both, list) and len(both) == 2
        _equal_pairs(both[0], cluster.read("tpch", "topk", as_pairs=True,
                                           comp=_top_k()))
        _equal_pairs(both[1], cluster.read(
            "tpch", "supplier_info", as_pairs=True, comp=_supplier_info()))


def _corpus(seed=3):
    rng = np.random.default_rng(seed)
    return [(doc, int(word), int(rng.integers(1, 4)))
            for doc in range(8) for word in rng.choice(12, size=4,
                                                       replace=False)]


@pytest.mark.parametrize("transport", TRANSPORTS)
def test_lda_two_aggregations_in_one_job(tmp_path, transport):
    with _cluster(tmp_path, transport, page_size=1 << 16) as cluster:
        lda = PCLda(cluster, n_topics=3, seed=5)
        lda.load(_corpus(), n_docs=8, dictionary_size=12)
        jobs = cluster.metrics().value("pc_sched_jobs_total")
        _writers, doc_agg, word_agg = lda.build_iteration_graph(seed=1)
        returned = cluster.execute_computations([doc_agg, word_agg])
        assert cluster.metrics().value("pc_sched_jobs_total") == jobs + 1
        # The same sweep (same sampling seed), written through the
        # graph's Writers and read back.
        writers, doc_agg, word_agg = lda.build_iteration_graph(seed=1)
        cluster.execute_computations(writers)
        for got, name, agg in zip(returned, ("doc_counts", "word_counts"),
                                  (doc_agg, word_agg)):
            _equal_pairs(got, cluster.read("lda", name, as_pairs=True,
                                           comp=agg))


class ProducingTaskCrasher(FaultInjector):
    """Crashes a worker's first task of the job — its producing task, which
    pre-aggregates its points and seals the groups for the caller: once on
    every worker (``lose=None``; the retries run), or on every attempt on
    worker ``lose``, which is lost once its peers' producing tasks are
    done, so the job restarts on them."""

    def __init__(self, lose=None):
        super().__init__()
        self.lose = lose
        self._tasks = {}

    def should_crash_backend(self, worker_id, stage_kind):
        nth = self._tasks[worker_id] = self._tasks.get(worker_id, 0) + 1
        fired = nth == 1 if self.lose is None else worker_id == self.lose
        self.counts["backend_crashes"] += fired
        return fired


@pytest.mark.parametrize("transport", TRANSPORTS)
@pytest.mark.parametrize("lose", [None, "worker-2"], ids=["retry", "restart"])
def test_a_crashed_producing_task_counts_its_pairs_once(tmp_path, transport,
                                                        lose):
    points = np.random.default_rng(2).integers(-40, 40, size=(400, 3)) / 8.0
    centers = points[:4].copy()

    def step(cluster):
        ColumnarKMeans(cluster).load(points)
        return cluster.execute_computations(AssignedSums(centers).set_input(
            ObjectReader("ml", "points_col")))

    with _cluster(tmp_path / "clean", transport, n_workers=3) as clean:
        want = step(clean)
    clock, injector = FakeClock(), ProducingTaskCrasher(lose)
    policy = RetryPolicy(max_attempts=2, blacklist_on_exhaustion=True,
                         sleep=clock.sleep, clock=clock.clock)
    with _cluster(tmp_path / "faulted", transport, n_workers=3,
                  fault_injector=injector, retry_policy=policy) as cluster:
        got = step(cluster)
        metrics = cluster.metrics()
        kinds = [stage.kind for stage in cluster.last_job_log]
        if lose is None:
            assert injector.counts["backend_crashes"] == 3
            assert metrics.value("pc_faults_tasks_recovered_total") == 3
            assert kinds == ["PipelineJobStage"]
        else:
            assert injector.counts["backend_crashes"] == 2
            assert metrics.value("pc_faults_workers_blacklisted_total") == 1
            # Lost in the producing stage, after its peers' tasks finished;
            # the restart's caller merges the two survivors' pairs.
            assert kinds == ["PipelineJobStage", "WorkerBlacklistedEvent",
                             "PipelineJobStage"]
    _equal_pairs(got, want)
    assert sum(value[0] for value in got.values()) == len(points)


@pytest.mark.parametrize("transport", TRANSPORTS)
def test_kmeans_steps_equal_the_written_sets_steps(tmp_path, transport):
    """Dyadic points: both drivers' steps, returned pairs and all, are
    byte-identical to the same aggregation written and read back."""
    points = np.random.default_rng(7).integers(-40, 40, size=(120, 3)) / 8.0
    with _cluster(tmp_path, transport, page_size=1 << 12) as cluster:
        columnar = ColumnarKMeans(cluster).load(points)
        chunked = PCKMeans(cluster).load(points, chunk_size=32)
        centers = columnar.initialize(4, seed=1)
        for driver, agg in (
            (columnar, AssignedSums(centers).set_input(
                ObjectReader("ml", "points_col"))),
            (chunked, GetNewCentroids().set_input(
                PartialCentroids(centers).set_input(
                    ObjectReader("ml", "points")))),
        ):
            Writer("ml", "sums").set_input(agg).execute(cluster)
            sums = cluster.read("ml", "sums", as_pairs=True, comp=agg)
            cluster.drop_set("ml", "sums")
            want = centers.copy()
            for j, value in sums.items():
                want[int(j)] = value[1:] / value[0]
            step = driver.iterate(centers)
            assert step.tobytes() == want.tobytes()
        assert columnar.iterate(centers).tobytes() \
            == chunked.iterate(centers).tobytes()


def test_writers_and_aggregations_do_not_mix(tmp_path):
    with _cluster(tmp_path, "sim") as cluster:
        load_pc_customers(cluster, TpchSpec(10, n_parts=10, n_suppliers=3,
                                            seed=1))
        jobs = cluster.metrics().value("pc_sched_jobs_total")
        with pytest.raises(ExecutionError, match="not both"):
            cluster.execute_computations([
                _top_k(), Writer("tpch", "x").set_input(_supplier_info())])
        assert cluster.last_program is None
        assert cluster.metrics().value("pc_sched_jobs_total") == jobs
        # A Writer-only graph still returns the job log.
        log = Writer("tpch", "x").set_input(_top_k()).execute(cluster)
        assert [stage.kind for stage in log][-1] == "PipelineJobStage"


def test_local_runs_key_each_result_by_its_aggregation():
    """Two aggregation sinks of one local run stay apart, in the
    pipeline engine and in the reference interpreter alike."""
    class Mod(AggregateComp):
        def __init__(self, modulus):
            super().__init__()
            self.modulus = modulus

        def get_key_projection(self, arg):
            return lambda_from_native([arg], lambda x: x % self.modulus)

        def get_value_projection(self, arg):
            return lambda_from_native([arg], lambda x: 1)

    reader = ObjectReader("d", "s")
    sinks = [Mod(2).set_input(reader), Mod(3).set_input(reader)]
    sources = {("d", "s"): list(range(10))}
    outputs, program, _metrics = run_local(sinks, sources)
    want = {(None, sinks[0].name): {0: 5, 1: 5},
            (None, sinks[1].name): {0: 4, 1: 3, 2: 3}}
    assert {key: dict(pairs) for key, pairs in outputs.items()} == want
    interpreted = LocalInterpreter(program, sources).run()
    assert {key: dict(pairs) for key, pairs in interpreted.items()} == want
