"""Where task bodies run, and why: the scheduler's one placement decision.

Every worker task is ``run_task(job, spec, pages, registry)`` — called by
the back-end process it was shipped to, or by the coordinator for a
reason from a closed set, counted in
``pc_sched_frontend_tasks_total{reason}``, with the same ``job`` and
``spec`` either way.  The tests pin the exact ``{reason: count}`` of
four jobs on the process transport, the single reason a simulator run
reports (which pickles nothing), and the conditions that used to fall
back silently and now fail loudly.
"""

import pickle

import numpy as np
import pytest

from repro.cluster import PCCluster, RetryPolicy, scheduler, transport
from repro.cluster.transport import ProcessTransport, remote_available
from repro.core import (
    JoinComp,
    ObjectReader,
    SelectionComp,
    Writer,
    lambda_from_member,
    lambda_from_native,
)
from repro.engine import pipeline
from repro.engine.physical import Pipeline, PhysicalPlan
from repro.errors import ExecutionError
from repro.lillinalg import (
    BlockSumAggregate,
    DistributedMatrix,
    encode_block_key,
)
from repro.memory import Int32, PCObject, String
from repro.ml import PCKMeans
from repro.storage import dataset
from repro.tcap.ir import Statement
from repro.tpch import (
    CustomerMultiSelection,
    CustomerSupplierPartGroupBy,
    TpchSpec,
    customers_per_supplier_pc,
    load_pc_customers,
)

needs_process = pytest.mark.skipif(
    not remote_available(), reason="cloudpickle unavailable"
)
TRANSPORTS = [
    "sim",
    pytest.param("process", marks=needs_process),
]
FAMILY = "pc_sched_frontend_tasks_total"
REASONS = ("in_process", "unpicklable_spec", "child_rejected")


def _frontend_tasks(cluster):
    snapshot = cluster.metrics()
    counts = {r: snapshot.value(FAMILY, reason=r) for r in REASONS}
    assert sum(counts.values()) == snapshot.value(FAMILY)  # a closed set
    return {reason: n for reason, n in counts.items() if n}


def _delta(cluster, job):
    before = _frontend_tasks(cluster)
    result = job()
    after = _frontend_tasks(cluster)
    return result, {
        reason: n - before.get(reason, 0) for reason, n in after.items()
        if n != before.get(reason, 0)
    }


JOB_KEYS = {"program", "plan", "profiling", "tracing", "registry"}
SPEC_KEYS = {"worker_id", "segment", "source", "sink", "hash_tables",
             "trace_ctx"}


def _record_task_inputs(monkeypatch, pickles=True):
    """What the scheduler hands ``run_task``: ``(who, job keys, spec
    keys, spec)`` per call the coordinator makes itself and per spec it
    pickles for a back-end (whose ``job`` is the pickled job state; the
    job state's own entry has no spec)."""
    seen = []
    run_task, serialize = scheduler.run_task, scheduler.serialize_task

    def inline(job, spec, pages, registry):
        seen.append(("coordinator", set(job), set(spec), spec))
        return run_task(job, spec, pages, registry)

    def pickled(payload):
        if not pickles:
            raise AssertionError("a simulator job pickled something")
        if "program" in payload:
            seen.append(("job state", set(payload), SPEC_KEYS, None))
        else:
            seen.append(("back-end", JOB_KEYS, set(payload), payload))
        return serialize(payload)

    monkeypatch.setattr(scheduler, "run_task", inline)
    monkeypatch.setattr(scheduler, "serialize_task", pickled)
    return seen


def _holds_plan(value):
    """Whether ``value`` holds a TCAP statement or a physical plan (or
    one of its pipelines), however deep in dicts, lists and tuples."""
    if isinstance(value, (Statement, PhysicalPlan, Pipeline)):
        return True
    if isinstance(value, dict):
        return any(map(_holds_plan, value)) or \
            any(map(_holds_plan, value.values()))
    if isinstance(value, (list, tuple, set)):
        return any(map(_holds_plan, value))
    return False


def _assert_one_task_shape(seen, callers):
    assert {who for who, _job, _spec, _payload in seen} == callers
    for who, job, spec, payload in seen:
        assert (job, spec) == (JOB_KEYS, SPEC_KEYS), who
        # The plan travels with the job's state, once; a spec names its
        # segment of it and holds only what is the task's own.
        assert not _holds_plan(payload), who


def _task_placements(trace):
    return [span.detail for span in trace.spans(kind="task")
            if span.pid is None]


# -- the four jobs -------------------------------------------------------------------


def _tpch_job(cluster):
    """Customers-per-supplier written to a set: every task — the OUTPUT
    stage's, which build the set's Map pages, included — runs in a
    back-end."""
    load_pc_customers(
        cluster, TpchSpec(n_customers=30, n_parts=40, n_suppliers=6, seed=11)
    )

    def in_the_coordinator(*_args):
        raise AssertionError("the coordinator built a Map page")

    with pytest.MonkeyPatch.context() as patch:
        # (This process only: the back-ends import their own.)
        patch.setattr(dataset, "pack_map_pages", in_the_coordinator)
        patch.setattr(pipeline, "pack_map_pages", in_the_coordinator)
        _log, counts = _delta(cluster, lambda: Writer("tpch", "suppliers").set_input(
            CustomerSupplierPartGroupBy().set_input(CustomerMultiSelection().set_input(
                ObjectReader("tpch", "customers")))).execute(cluster))
    assert counts == {}
    placements = _task_placements(cluster.last_trace)
    # The producing stage and the OUTPUT stage, on every worker.
    assert placements == ["shipped"] * (2 * len(cluster.workers))


def _kmeans_job(cluster):
    """A scan the pool cannot pin whole runs on the back-ends, one
    pool-sized window per task."""
    rng = np.random.default_rng(3)
    km = PCKMeans(cluster).load(rng.normal(size=(4000, 8)), chunk_size=32)
    centers = km.initialize(3, seed=1)
    reloads = cluster.metrics().value("pc_pool_reloads_total")
    _centers, counts = _delta(cluster, lambda: km.iterate(centers))
    assert counts == {}
    placements = _task_placements(cluster.last_trace)
    assert set(placements) == {"shipped"}
    tasks = [span.name for span in cluster.last_trace.spans(kind="task")
             if span.pid is None]
    assert all(tasks.count(worker.worker_id) > 1 for worker in cluster.workers)
    assert cluster.metrics().value("pc_pool_reloads_total") > reloads


class HandleMultiply(JoinComp):
    """A's block column against B's block row over the stored blocks
    themselves: the join's hash table holds page handles."""

    def get_selection(self, a, b):
        return lambda_from_member(a, "block_col") == \
            lambda_from_member(b, "block_row")

    def get_projection(self, a, b):
        return lambda_from_native([a, b], lambda ba, bb: (
            encode_block_key(ba.block_row, bb.block_col),
            (ba.get_matrix() @ bb.get_matrix()).reshape(-1),
        ))


def handle_multiply(cluster, a, b, block, out_set):
    """Load ``a`` and ``b`` as MatrixBlock sets and write the block sums
    of a handle join's partial products to ``out_set``; returns the
    aggregation."""
    left = DistributedMatrix.from_numpy(cluster, "lla", a, block, block)
    right = DistributedMatrix.from_numpy(cluster, "lla", b, block, block)
    join = HandleMultiply() \
        .set_input(0, ObjectReader("lla", left.set_name)) \
        .set_input(1, ObjectReader("lla", right.set_name))
    agg = BlockSumAggregate().set_input(join)
    Writer("lla", out_set).set_input(agg).execute(cluster)
    return agg


def _product_bytes(cluster, agg, out_set):
    merged = cluster.read("lla", out_set, as_pairs=True, comp=agg)
    return b"".join(merged[key].tobytes() for key in sorted(merged))


def _multiply_job(cluster):
    """Hash tables of handles cannot be pickled; the result must not care."""
    rng = np.random.default_rng(7)
    a, b = rng.normal(size=(7, 6)), rng.normal(size=(6, 4))

    def multiply(on):
        return _product_bytes(on, handle_multiply(on, a, b, 3, "ab"), "ab")

    product, counts = _delta(cluster, lambda: multiply(cluster))
    workers = len(cluster.workers)
    assert counts == {
        # the probe side: each spec carries the broadcast table of handles
        "unpicklable_spec": workers,
        # the build side: the one worker holding the right matrix's page
        # builds a table of handles, which cannot come back
        "child_rejected": 1,
        # (the OUTPUT stage's Map pages are built by the back-ends)
    }
    reference = PCCluster(n_workers=2, page_size=1 << 16, transport="sim")
    try:
        expected = multiply(reference)
    finally:
        reference.close()
    assert product == expected


def _lillinalg_job(cluster):
    """lilLinAlg joins host rows copied out of the pages, so every task
    of its multiply ships."""
    rng = np.random.default_rng(7)
    a, b = rng.normal(size=(7, 6)), rng.normal(size=(6, 4))
    left = DistributedMatrix.from_numpy(cluster, "lla", a, 3, 3)
    right = DistributedMatrix.from_numpy(cluster, "lla", b, 3, 3)
    product, counts = _delta(
        cluster, lambda: left.multiply(right).to_numpy()
    )
    assert counts == {}
    assert np.allclose(product, a @ b)


@needs_process
@pytest.mark.parametrize("job, cluster_args", [
    (_tpch_job, dict(n_workers=3, page_size=1 << 14)),
    (_kmeans_job, dict(n_workers=2, page_size=1 << 13,
                       worker_memory=6 << 13)),
    (_multiply_job, dict(n_workers=2, page_size=1 << 16)),
    (_lillinalg_job, dict(n_workers=2, page_size=1 << 16)),
], ids=["tpch", "kmeans_small_pool", "handle_multiply", "lillinalg_multiply"])
def test_process_transport_frontend_reasons_are_exact(tmp_path, job,
                                                      cluster_args,
                                                      monkeypatch):
    seen = _record_task_inputs(monkeypatch)
    cluster = PCCluster(spill_root=str(tmp_path), transport="process",
                        **cluster_args)
    try:
        job(cluster)
    finally:
        cluster.close()
    # Whoever calls it and why, the task is the same two dicts.
    callers = {"job state", "back-end"}
    if job is _multiply_job:
        callers.add("coordinator")
    _assert_one_task_shape(seen, callers)


def test_sim_reports_only_in_process(tmp_path, monkeypatch):
    seen = _record_task_inputs(monkeypatch, pickles=False)
    cluster = PCCluster(n_workers=3, page_size=1 << 14,
                        spill_root=str(tmp_path), transport="sim")
    load_pc_customers(
        cluster, TpchSpec(n_customers=30, n_parts=40, n_suppliers=6, seed=11)
    )
    customers_per_supplier_pc(cluster)
    trace = cluster.last_trace
    tasks = trace.spans(kind="task")
    assert _frontend_tasks(cluster) == {"in_process": len(tasks)}
    # Each task span's detail says the same: it is what a trace reader
    # counts (a pc_sched_* counter has no span mirror).
    assert sum(
        span.detail == "front-end: in_process" for span in tasks
    ) == len(tasks)
    assert not any(name.startswith("sched.") for name in trace.totals())
    assert len(seen) == len(tasks)
    _assert_one_task_shape(seen, {"coordinator"})


class Keep(SelectionComp):
    """Every point, as it is: one link of a selection chain."""

    def get_selection(self, arg):
        return lambda_from_member(arg, "x") >= 0.0

    def get_projection(self, arg):
        return lambda_from_native([arg], lambda point: point)


class PointId(Keep):
    def get_projection(self, arg):
        return lambda_from_native([arg], lambda point: point.pid)


@pytest.mark.parametrize("kind", TRANSPORTS)
def test_a_scan_spec_does_not_grow_with_its_stages(tmp_path, kind,
                                                   monkeypatch):
    """One selection and six chained ones over the same pages: each
    worker's scan spec pickles to the same size, for it names its
    segment of the plan instead of carrying the stages.  (Tracing is
    off: trace and span ids are counters, whose pickles grow.)"""
    from test_fault_tolerance import load_points

    seen = _record_task_inputs(monkeypatch, pickles=kind == "process")
    cluster = PCCluster(n_workers=2, page_size=1 << 12, tracing=False,
                        spill_root=str(tmp_path), transport=kind)
    stages, sizes = [], []
    try:
        load_points(cluster, n=100)
        for links in (0, 5):
            query = ObjectReader("db", "points")
            for _link in range(links):
                query = Keep().set_input(query)
            del seen[:]
            Writer("db", "ids%d" % links).set_input(
                PointId().set_input(query)
            ).execute(cluster)
            (scan,) = cluster.last_plan
            stages.append(len(scan.stages))
            sizes.append([
                len(pickle.dumps(payload)) for _who, _job, _spec, payload
                in seen if payload is not None
                and payload["source"][0] == "pages"
            ])
            _assert_one_task_shape(seen, {"coordinator"} if kind == "sim"
                                   else {"job state", "back-end"})
    finally:
        cluster.close()
    assert stages[1] > stages[0]
    assert len(sizes[0]) == 2 and sizes[1] == sizes[0]


# -- what used to fall back silently ----------------------------------------------------


def test_process_transport_without_cloudpickle_raises(monkeypatch):
    monkeypatch.setattr(transport, "cloudpickle", None)
    with pytest.raises(RuntimeError, match="cloudpickle"):
        ProcessTransport()


class Label(PCObject):
    fields = [("key", Int32), ("label", String)]


class Item(PCObject):
    fields = [("key", Int32), ("name", String)]


class LabelJoin(JoinComp):
    def get_selection(self, label, item):
        return lambda_from_member(label, "key") == \
            lambda_from_member(item, "key")

    def get_projection(self, label, item):
        return lambda_from_native(
            [label, item], lambda lab, it: (it.name, lab.label)
        )


@pytest.mark.parametrize("kind", TRANSPORTS)
def test_probe_without_its_hash_table_names_the_join(tmp_path, kind,
                                                     monkeypatch):
    cluster = PCCluster(n_workers=2, page_size=1 << 12,
                        spill_root=str(tmp_path), transport=kind)
    try:
        cluster.create_database("db")
        cluster.create_set("db", "labels", Label)
        cluster.create_set("db", "items", Item)
        with cluster.loader("db", "labels") as load:
            for k in range(4):
                load.append(Label, key=k, label="L%d" % k)
        with cluster.loader("db", "items") as load:
            for k in range(16):
                load.append(Item, key=k % 4, name="i%d" % k)

        # The plan broadcasts the labels' table; no stage builds it.
        monkeypatch.setattr(
            scheduler.DistributedScheduler, "_run_build",
            lambda self, pipeline: None,
        )
        join = LabelJoin() \
            .set_input(0, ObjectReader("db", "labels")) \
            .set_input(1, ObjectReader("db", "items"))
        with pytest.raises(ExecutionError, match="hash table for Join"):
            cluster.execute_computations(
                Writer("db", "joined").set_input(join)
            )
        # A scheduling bug, not a back-end crash: nothing was retried.
        assert cluster.metrics().value("pc_worker_reforks_total") == 0
    finally:
        cluster.close()


@pytest.mark.parametrize("kind", TRANSPORTS)
def test_sink_that_cannot_say_how_to_ship_it_is_an_error(tmp_path, kind,
                                                         monkeypatch,
                                                         schema_of):
    """Every sink is shippable, so there is no placement for one that
    answers ``remote_spec()`` with None: a bug, on either transport."""
    from repro.engine.pipeline import AggregateSink
    from test_fault_tolerance import Point, SumX, load_points

    cluster = PCCluster(n_workers=2, page_size=1 << 12,
                        spill_root=str(tmp_path), transport=kind)
    try:
        load_points(cluster, n=40, schema=schema_of(Point))
        monkeypatch.setattr(AggregateSink, "remote_spec", lambda self: None)
        agg = SumX().set_input(ObjectReader("db", "points"))
        with pytest.raises(ExecutionError, match="AggregateSink.*remote_spec"):
            Writer("db", "sums").set_input(agg).execute(cluster)
        assert _frontend_tasks(cluster) == {}
    finally:
        cluster.close()


@needs_process
def test_failed_await_releases_the_attempts_behind_it(tmp_path, schema_of):
    """A job that dies mid-settle leaves no export pin behind.

    Every worker's scan is pinned and shipped up front; when worker-0's
    await raises, the attempts still pending behind it must drop their
    pins as well, or the pages stay unevictable for the cluster's life.
    """
    from test_fault_tolerance import Point, SumX, load_points

    class Exploding(SumX):
        def get_value_projection(self, arg):
            def boom(point):
                raise RuntimeError("user code bug")

            return lambda_from_native([arg], boom)

    cluster = PCCluster(
        n_workers=3, page_size=1 << 12, spill_root=str(tmp_path),
        transport="process", retry_policy=RetryPolicy.disabled(),
    )
    try:
        load_points(cluster, n=200, schema=schema_of(Point))

        def pins():
            return [w.storage.pool.pinned_pages() for w in cluster.workers]

        before = pins()
        agg = Exploding().set_input(ObjectReader("db", "points"))
        with pytest.raises(ExecutionError, match="worker-0"):
            Writer("db", "sums").set_input(agg).execute(cluster)
        assert pins() == before
    finally:
        cluster.close()
