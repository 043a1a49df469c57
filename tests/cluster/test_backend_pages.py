"""Back-ends build the pages (DESIGN §11 "Who builds a page").

Combiner pages and output pages are written by the task that holds the
data — on private blocks, in the back-end process the task was shipped
to — and come home as bytes with a CRC for the coordinator to verify and
adopt; what is constant over a job travels to a child once.  So: a child
killed while it holds sealed pages leaves nothing behind and the retry is
exact; a page corrupted on the way home is never adopted; an output page
rolls inside the child; the simulator and the process transport produce
the same bytes; and a child holds the state of one job only.
"""

import gc
import multiprocessing
import os
import signal
import tempfile

import numpy as np
import pytest

from repro.cluster import FaultInjector, PCCluster
from repro.cluster import scheduler as scheduler_module
from repro.cluster import transport as transport_module
from repro.cluster.transport import remote_available
from repro.cluster.worker import WorkerNode
from repro.core import (
    JoinComp,
    ObjectReader,
    SelectionComp,
    Writer,
    lambda_from_member,
    lambda_from_native,
)
from repro.engine.pipeline import AggregateSink
from repro.memory import Int32, PCObject, String, make_object
from repro.ml.kmeans_columnar import ColumnarKMeans
from repro.storage import corrupt_bytes, page_checksum
from repro.tpch import (
    CustomerMultiSelection,
    CustomerSupplierPartGroupBy,
    TopJaccard,
    TpchSpec,
    load_pc_customers,
)

from test_fault_tolerance import (
    Point as XyPoint,
    expected_sums,
    load_points as load_xy_points,
    run_aggregation,
)
from test_one_placement_path import assert_every_page_is_named_once
from test_placement import handle_multiply
from test_one_write_path import (
    Identity,
    assert_each_point_once,
    load_points,
    output_pages,
    select_into,
)

pytestmark = pytest.mark.skipif(
    not remote_available(), reason="cloudpickle unavailable"
)


def _cluster(tmp_path, transport="process", **kwargs):
    kwargs.setdefault("n_workers", 2)
    kwargs.setdefault("page_size", 1 << 14)
    return PCCluster(spill_root=str(tmp_path), transport=transport, **kwargs)


def _placements(cluster):
    return [span.detail for span in cluster.last_trace.spans(kind="task")
            if span.pid is None]


# -- a back-end that dies holding pages -------------------------------------------------


def _marker():
    """One path for this test process and the back-ends it spawned."""
    child = multiprocessing.parent_process() is not None
    return os.path.join(
        tempfile.gettempdir(),
        "pc-dies-once-%d" % (os.getppid() if child else os.getpid()),
    )


def _die_once():
    """SIGKILL this process — the first time, and only in a back-end."""
    if multiprocessing.parent_process() is None:
        return
    try:
        os.close(os.open(_marker(), os.O_CREAT | os.O_EXCL))
    except FileExistsError:
        return  # another back-end, or an earlier attempt, took the kill
    os.kill(os.getpid(), signal.SIGKILL)


@pytest.fixture
def dies_once():
    if os.path.exists(_marker()):
        os.remove(_marker())
    yield
    assert os.path.exists(_marker()), "no back-end ever got to the kill"
    os.remove(_marker())


class DiesLate(SelectionComp):
    """Identity, but the back-end copying point 1,500 dies on the spot —
    by then its OUTPUT task has sealed pages of earlier points."""

    def get_projection(self, arg):
        def project(point):
            if point.point_id == 1500:
                _die_once()
            return point

        return lambda_from_native([arg], project)


class PointIds(SelectionComp):
    """Plain Python values: they go to the set's Python-output list."""

    def get_projection(self, arg):
        return lambda_from_native([arg], lambda p: (p.point_id, p.label))


class DiesPacked(AggregateSink):
    """The producing task has partitioned and packed its combiner pages
    when its back-end dies."""

    def seal(self):
        super().seal()
        if any(self.state):  # (a worker may hold no page of a small set)
            _die_once()


def _record_job_blobs(monkeypatch):
    """``[(child pid, carried the job blob)]`` for every task put on a
    back-end's queue."""
    puts = []
    submit = transport_module._ChildProcess.submit

    def recording(self, task, backend):
        put = self._tasks.put

        def spy(item):
            puts.append((self.pid, item[1] is not None))
            put(item)

        self._tasks.put = spy
        try:
            return submit(self, task, backend)
        finally:
            del self._tasks.put

    monkeypatch.setattr(transport_module._ChildProcess, "submit", recording)
    return puts


def _assert_nothing_left_behind(cluster, database, set_name):
    assert_every_page_is_named_once(cluster, database, set_name)
    assert cluster.metrics().value("pc_worker_reforks_total") == 1
    assert cluster.metrics().value("pc_faults_tasks_recovered_total") == 1
    cluster.close()
    assert cluster.shm_registry.live == {}


def test_backend_killed_during_an_output_task(tmp_path, dies_once,
                                              monkeypatch):
    puts = _record_job_blobs(monkeypatch)
    cluster = _cluster(tmp_path)
    try:
        load_points(cluster, 2000)
        select_into(cluster, DiesLate(), "copy", page_size=1 << 14)
        assert_each_point_once(cluster, "copy", 2000)
        assert len(output_pages(cluster, "copy")) > 3
        assert set(_placements(cluster)) == {"shipped"}
        # Three back-ends worked for the job — the killed one, its
        # replacement, the peer — and each was sent the job's state
        # once, with its first task.
        assert sorted(carried for _pid, carried in puts) == \
            [False] * (len(puts) - 3) + [True] * 3
        assert len({pid for pid, carried in puts if carried}) == 3
    finally:
        _assert_nothing_left_behind(cluster, "db", "copy")


def test_backend_killed_after_packing_its_combiner_pages(
        tmp_path, dies_once, monkeypatch, schema_of):
    monkeypatch.setattr(scheduler_module, "AggregateSink", DiesPacked)
    cluster = _cluster(tmp_path, page_size=1 << 12)
    try:
        load_xy_points(cluster, n=200, schema=schema_of(XyPoint))
        assert run_aggregation(cluster) == expected_sums()
        assert set(_placements(cluster)) == {"shipped"}
    finally:
        _assert_nothing_left_behind(cluster, "db", "sums")


# -- a page corrupted between the child's seal and adoption -----------------------------


def test_page_corrupted_on_the_way_home_is_retried_never_adopted(
        tmp_path, monkeypatch):
    await_result = WorkerNode.await_result
    flipped = []

    def flip_one_page(self, future):
        outcome = await_result(self, future)
        state = outcome[0] if outcome is not None else None
        if (not flipped and isinstance(state, dict)
                and len(state["pages"]) > 1):
            data, *sealed_with = state["pages"][1]
            state["pages"][1] = (corrupt_bytes(data), *sealed_with)
            flipped.append(page_checksum(corrupt_bytes(data)))
        return outcome

    monkeypatch.setattr(WorkerNode, "await_result", flip_one_page)
    with _cluster(tmp_path) as cluster:
        load_points(cluster, 2000)
        select_into(cluster, Identity(), "copy", page_size=1 << 14)
        assert flipped
        assert_each_point_once(cluster, "copy", 2000)
        metrics = cluster.metrics()
        assert metrics.value("pc_faults_backend_crashes_total") == 1
        assert metrics.value("pc_faults_tasks_recovered_total") == 1
        (retry,) = cluster.last_trace.spans(kind="retry")
        assert "attempt 2" in retry.detail
        # Neither the flipped page nor the healthy one sealed before it
        # stayed: every page of the set is one the catalog recorded,
        # under the checksum its bytes have.
        meta = cluster.catalog.set_metadata("db", "copy")
        recorded = sorted(record.checksum for record in meta.pages.values())
        stored = sorted(
            page_checksum(page.to_bytes())
            for worker in cluster.workers
            for page_set in [worker.storage.get_set("db", "copy")]
            for page_id in page_set.page_ids
            for page in [page_set.pool.pin(page_id)]
            if page_set.pool.unpin(page_id) is None
        )
        assert stored == recorded and flipped[0] not in stored


def test_retried_output_task_undoes_only_its_own_output(tmp_path):
    """Every worker's attempt is built before any is awaited; a sink that
    marked "where my output starts" then would, aborting, take the
    finished peers' Python outputs with it.  The marks are ``finish()``'s.
    """
    injector = FaultInjector().crash_backend("worker-2", times=1)
    with _cluster(tmp_path, n_workers=3, page_size=1 << 12,
                  fault_injector=injector) as cluster:
        load_points(cluster, 300)
        Writer("db", "ids").set_input(
            PointIds().set_input(ObjectReader("db", "points"))
        ).execute(cluster)
        assert injector.counts["backend_crashes"] == 1
        assert sorted(cluster.read("db", "ids")) == \
            [(i, "point-%d" % i) for i in range(300)]


# -- a type the catalog has not seen ----------------------------------------------------


class Tagged(PCObject):
    """Never registered: the first ``make_object`` has to register it."""

    fields = [("point_id", Int32), ("tag", String)]


class Tag(SelectionComp):
    def get_projection(self, arg):
        return lambda_from_native([arg], lambda p: make_object(
            Tagged, point_id=p.point_id, tag="t%d" % p.point_id
        ))


def test_task_needing_an_unregistered_type_is_rerun_front_end(tmp_path):
    """A back-end's registry is a copy: a code it made up would mean
    nothing at home.  The task is rejected, the coordinator — whose
    registration reaches the master catalog — runs it, and the next job
    ships."""
    with _cluster(tmp_path, n_workers=1) as cluster:
        load_points(cluster, 50)
        for placement in ("front-end: child_rejected", "shipped"):
            out = "tagged-%s" % placement[:4]
            Writer("db", out).set_input(
                Tag().set_input(ObjectReader("db", "points"))
            ).execute(cluster)
            assert _placements(cluster) == [placement]
            assert sorted((h.point_id, h.tag) for h in cluster.read("db", out)) \
                == [(i, "t%d" % i) for i in range(50)]


# -- an output page that fills inside the child -----------------------------------------


def test_output_page_rolls_inside_the_child(tmp_path):
    # PR 16's regression (2,000 objects read back as 2,431), now with the
    # writer in the back-end process.
    with _cluster(tmp_path, n_workers=1, page_size=1 << 16) as cluster:
        load_points(cluster, 2000)
        select_into(cluster, Identity(), "copy", page_size=1 << 18)
        assert _placements(cluster) == ["shipped"]
        assert_each_point_once(cluster, "copy", 2000)
        assert len(output_pages(cluster, "copy")) > 1


# -- parity: the simulator runs the same sink bodies ------------------------------------


class Order(PCObject):
    fields = [("oid", Int32), ("dim_id", Int32), ("note", String)]


class Dimension(PCObject):
    fields = [("dim_id", Int32), ("label", String)]


class EvenOrders(SelectionComp):
    """Re-materialised on the output page by a stage."""

    def get_selection(self, arg):
        return lambda_from_native([arg], lambda o: o.oid % 2 == 0)

    def get_projection(self, arg):
        return lambda_from_native([arg], lambda o: make_object(
            Order, oid=o.oid, dim_id=o.dim_id, note=o.note
        ))


class DimensionJoin(JoinComp):
    def get_selection(self, dim, order):
        return lambda_from_member(dim, "dim_id") \
            == lambda_from_member(order, "dim_id")

    def get_projection(self, dim, order):
        return lambda_from_native([dim, order], lambda d, o: (o.oid, d.label))


def _tpch(cluster):
    """The two TPC-H aggregations, each written through a Writer into a
    named set: the Map-typed one leaves Map pages, the row-wire
    ``TopJaccard`` Python values."""
    load_pc_customers(
        cluster, TpchSpec(n_customers=60, n_parts=40, n_suppliers=6, seed=11)
    )
    Writer("tpch", "supplier_info").set_input(
        CustomerSupplierPartGroupBy().set_input(
            CustomerMultiSelection().set_input(
                ObjectReader("tpch", "customers")))
    ).execute(cluster)
    Writer("tpch", "topk").set_input(
        TopJaccard(4, [1, 5, 9, 12]).set_input(
            ObjectReader("tpch", "customers"))
    ).execute(cluster)
    return [("tpch", "supplier_info"), ("tpch", "topk")]


def _etl(cluster):
    cluster.create_database("etl")
    cluster.create_set("etl", "dims", Dimension)
    with cluster.loader("etl", "dims") as load:
        for i in range(20):
            load.append(Dimension, dim_id=i, label="dim#%d" % i)
    cluster.create_set("etl", "orders", Order, replication=2)
    with cluster.loader("etl", "orders") as load:
        for i in range(3000):
            load.append(Order, oid=i, dim_id=i % 20, note="note-%d" % i)
    Writer("etl", "even").set_input(
        EvenOrders().set_input(ObjectReader("etl", "orders"))
    ).execute(cluster)
    join = DimensionJoin() \
        .set_input(0, ObjectReader("etl", "dims")) \
        .set_input(1, ObjectReader("etl", "orders"))
    Writer("etl", "joined").set_input(join).execute(cluster)
    return [("etl", "even"), ("etl", "joined")]


def _multiply(cluster):
    """A join over handles: the probe tasks' specs carry a hash table
    that cannot be pickled and the build task's table cannot come back,
    so the coordinator runs both (``unpicklable_spec``,
    ``child_rejected``) — the same task, the same bytes."""
    rng = np.random.default_rng(7)
    handle_multiply(cluster, rng.normal(size=(48, 40)),
                    rng.normal(size=(40, 32)), 8, "product")
    if cluster.transport.name == "process":
        metrics = cluster.metrics()
        for reason in ("unpicklable_spec", "child_rejected"):
            assert metrics.value(
                "pc_sched_frontend_tasks_total", reason=reason
            ) > 0, reason
    return [("lla", "product")]


def _run_and_dump(tmp_path, transport, jobs, **cluster_args):
    """What the jobs left: every output partition's sealed page bytes, the
    Python outputs, and the bytes the jobs moved between workers."""
    with _cluster(tmp_path / transport, transport, **cluster_args) as cluster:
        before = cluster.metrics().value("pc_net_bytes_total")
        outputs = jobs(cluster)
        shuffled = cluster.metrics().value("pc_net_bytes_total") - before
        # Keyed by the output's position in what the jobs returned.
        pages = {}
        for nth, key in enumerate(outputs):
            for worker in cluster.workers:
                page_set = worker.storage.get_set(*key)
                for page_id in page_set.page_ids:
                    with page_set.pinned_page(page_id) as page:
                        pages.setdefault((nth, worker.worker_id), []).append(
                            page.to_bytes()
                        )
        python = [cluster.python_outputs.get(key) for key in outputs]
        # Handles the jobs' reads left in cycles still export views of the
        # pools' segments; close() must find none (a SharedMemory whose
        # close fails raises from __del__ wherever the collector next runs).
        gc.collect()
        return pages, python, shuffled


@pytest.mark.parametrize("jobs, cluster_args", [
    (_tpch, dict(page_size=1 << 13)),
    (_etl, dict(page_size=1 << 15)),
    (_multiply, dict(page_size=1 << 12)),
], ids=["tpch", "etl", "multiply"])
def test_sim_and_process_leave_the_same_page_bytes(tmp_path, jobs,
                                                   cluster_args):
    sim_pages, sim_python, sim_shuffled = _run_and_dump(
        tmp_path, "sim", jobs, **cluster_args
    )
    pages, python, shuffled = _run_and_dump(
        tmp_path, "process", jobs, **cluster_args
    )
    assert pages == sim_pages
    assert max(len(partition) for partition in pages.values()) > 1
    assert python == sim_python
    assert shuffled == sim_shuffled > 0


# -- job-constant state ships once ------------------------------------------------------


def _record_pickles(monkeypatch):
    """``[(is the job's state, bytes)]`` for everything the scheduler
    pickles for a back-end."""
    pickled = []
    serialize_task = scheduler_module.serialize_task

    def spy(spec):
        blob = serialize_task(spec)
        pickled.append(("program" in spec, len(blob)))
        return blob

    monkeypatch.setattr(scheduler_module, "serialize_task", spy)
    return pickled


def test_kmeans_task_specs_fit_a_kibibyte(tmp_path, monkeypatch):
    """One small job an iteration (the bench's ``kmeans_iter``): what
    does not change over the job is pickled once, and a task spec —
    plan segment, source, sink, trace context — is under 1 KiB (6.4 KB
    when each carried the program and the registry).  The job's result
    has no OUTPUT task: its caller merges the scan tasks' groups."""
    pickled = _record_pickles(monkeypatch)
    points = np.random.default_rng(5).normal(size=(600, 8))
    with _cluster(tmp_path, page_size=1 << 14) as cluster:
        driver = ColumnarKMeans(cluster)
        driver.load(points)
        centers = driver.initialize(8, seed=1)
        jobs = cluster.metrics().value("pc_sched_jobs_total")
        del pickled[:]
        driver.iterate(centers)
        jobs = cluster.metrics().value("pc_sched_jobs_total") - jobs
        assert jobs == 1
        assert [is_job for is_job, _size in pickled].count(True) == jobs
        specs = [size for is_job, size in pickled if not is_job]
        assert len(specs) == 2 * jobs
        # The two scan tasks' specs are envelope alone.
        assert max(specs) <= 1024
        assert set(_placements(cluster)) == {"shipped"}


def test_job_state_is_pickled_once_and_sent_once_per_child(tmp_path,
                                                           monkeypatch,
                                                           schema_of):
    puts = _record_job_blobs(monkeypatch)
    pickled = _record_pickles(monkeypatch)
    with _cluster(tmp_path, page_size=1 << 12) as cluster:
        load_xy_points(cluster, n=200, schema=schema_of(XyPoint))
        assert run_aggregation(cluster) == expected_sums()
        # One job: its state pickled once and sent to each of the two
        # back-ends once, with the first of its two tasks there; a task
        # spec carries neither the program nor the registry.
        assert [is_job for is_job, _size in pickled].count(True) == 1
        job_size = max(size for is_job, size in pickled if is_job)
        assert all(size < job_size for is_job, size in pickled if not is_job)
        pids = [w.backend.child_pid for w in cluster.workers]
        assert sorted(puts) == sorted(
            [(pid, True) for pid in pids] + [(pid, False) for pid in pids]
        )

        # A re-forked back-end is a new incarnation: the next job's state
        # goes to it like to any other, once.
        del puts[:], pickled[:]
        cluster.workers[0].refork_backend()
        cluster.clear_set("db", "sums")
        assert run_aggregation(cluster) == expected_sums()
        assert [is_job for is_job, _size in pickled].count(True) == 1
        assert sorted(carried for _pid, carried in puts) == \
            [False, False, True, True]
        pooled = cluster.workers[1].backend.child_pid

    # The pool hands the first cluster's child to a second one, which
    # runs another program on it: the child is sent that job's state, and
    # works from it — not from the aggregation it held.
    del puts[:]
    with _cluster(tmp_path / "second") as second:
        assert pooled in [w.backend.child_pid for w in second.workers]
        load_points(second, 300)
        select_into(second, Identity(), "copy")
        assert set(_placements(second)) == {"shipped"}
        assert_each_point_once(second, "copy", 300)
        assert puts.count((pooled, True)) == 1
