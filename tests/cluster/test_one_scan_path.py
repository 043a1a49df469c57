"""One scan path: the catalog page map says where a set's pages are, and
``page_items`` is the only page -> objects decode.

There is no map-less set: the front-end scan, the shared-memory export
and the client read all select pages through ``scan_page_copies``, and
the front-end and the back-end process both decode them with
:func:`repro.storage.page.page_items`.  A page no catalog record names
must therefore never survive a failed job.
"""

import pytest

from repro.cluster import FakeClock, FaultInjector, PCCluster, RetryPolicy
from repro.cluster.transport import remote_available
from repro.core import (
    AggregateComp,
    JoinComp,
    ObjectReader,
    SelectionComp,
    Writer,
    lambda_from_member,
    lambda_from_native,
)
from repro.errors import ExecutionError, SetNotFoundError
from repro.memory import (
    Float64,
    Int64,
    MapFacade,
    MapType,
    PCObject,
    make_object,
)
from repro.memory.block import AllocationBlock
from repro.memory.columnar import ColumnarRows
from repro.memory.objects import make_object_on
from repro.schema import Schema, f64, i64
from repro.storage.dataset import pack_map_pages
from repro.storage.page import open_root, page_items
from repro.storage.replication import page_checksum

from test_one_placement_path import assert_every_page_is_named_once
from test_replication import scan_readers

TRANSPORTS = [
    "sim",
    pytest.param(
        "process",
        marks=pytest.mark.skipif(
            not remote_available(), reason="cloudpickle unavailable"
        ),
    ),
]

POINT_SCHEMA = Schema([("pid", i64), ("cid", i64), ("x", f64)])


class Point(PCObject):
    fields = [("pid", Int64), ("cid", Int64), ("x", Float64)]


class Copy(SelectionComp):
    """Every point, rebuilt as a PC object on the output page."""

    def get_projection(self, arg):
        return lambda_from_native([arg], lambda p: make_object(
            Point, pid=p.pid, cid=p.cid, x=p.x
        ))


class SumX(AggregateComp):
    key_type = Int64
    value_type = Float64
    reduce = "sum"

    def get_key_projection(self, arg):
        return lambda_from_member(arg, "cid")

    def get_value_projection(self, arg):
        return lambda_from_member(arg, "x")


def make_cluster(tmp_path, subdir="c", **kwargs):
    root = tmp_path / subdir
    root.mkdir(exist_ok=True)
    kwargs.setdefault("n_workers", 3)
    kwargs.setdefault("page_size", 1 << 16)
    return PCCluster(spill_root=str(root), **kwargs)


def load_points(cluster, n=600, **set_options):
    cluster.create_database("db")
    cluster.create_set("db", "points", Point, **set_options)
    # Small input pages, so every worker holds a share of the set.
    append_points(cluster, n)


def append_points(cluster, n):
    with cluster.loader("db", "points", page_size=1 << 12) as load:
        for i in range(n):
            load.append(Point, pid=i, cid=i % 4, x=float(i))


def expected_sums(n=600):
    sums = {}
    for i in range(n):
        sums[i % 4] = sums.get(i % 4, 0.0) + float(i)
    return sums


def run_sums(cluster):
    agg = SumX().set_input(ObjectReader("db", "points"))
    Writer("db", "sums").set_input(agg).execute(cluster)
    return cluster.read("db", "sums", as_pairs=True, comp=agg)


def fast_policy(**overrides):
    clock = FakeClock()
    return RetryPolicy(sleep=clock.sleep, clock=clock.clock, **overrides)


# -- a failed output stage leaves no pages ---------------------------------------------


@pytest.mark.parametrize("preloaded", [False, True])
def test_failed_output_stage_leaves_no_pages(tmp_path, preloaded, schema_of):
    injector = FaultInjector()
    cluster = make_cluster(
        tmp_path, fault_injector=injector,
        retry_policy=fast_policy(
            max_attempts=2, blacklist_on_exhaustion=False
        ),
    )
    load_points(cluster, schema=schema_of(Point))
    job = Writer("db", "out").set_input(
        Copy().set_input(ObjectReader("db", "points"))
    )
    if preloaded:
        job.execute(cluster)
    else:
        cluster.create_set("db", "out", Point)

    def state():
        partitions = [w.storage.get_set("db", "out") for w in cluster.workers]
        return (
            sorted(h.pid for h in cluster.read("db", "out")),
            cluster.storage_manager.total_objects("db", "out"),
            [list(p.page_ids) for p in partitions],
            [p.object_count for p in partitions],
            [w.storage.pool.in_memory_bytes for w in cluster.workers],
        )

    before = state()
    assert before[0] == (list(range(600)) if preloaded else [])

    # worker-0 and worker-1 finish their share; worker-2 never does.
    injector.crash_backend("worker-2", times=99)
    with pytest.raises(ExecutionError, match="worker-2"):
        job.execute(cluster)

    assert state() == before
    mapped = {
        tuple(replica)
        for record in cluster.catalog.set_metadata("db", "out").pages.values()
        for replica in record.replicas
    }
    for worker in cluster.workers:
        for page_id in worker.storage.get_set("db", "out").page_ids:
            assert (worker.worker_id, page_id) in mapped


@pytest.mark.parametrize("second_fault", [False, True])
def test_output_stage_tells_its_pages_from_copies_landed_mid_job(
        tmp_path, second_fault, schema_of):
    """Losing a worker mid-job lands evacuated and re-replicated copies
    of ``out``'s *recorded* pages in the survivors' partitions, beside
    the pages the first run's sinks wrote: the restart and a later
    failure must not free them, and success must not record them a
    second time."""
    injector = FaultInjector()
    cluster = make_cluster(
        tmp_path, fault_injector=injector,
        retry_policy=fast_policy(
            max_attempts=2, blacklist_on_exhaustion=True,
            min_surviving_workers=2,
        ),
    )
    load_points(cluster, schema=schema_of(Point))
    job = Writer("db", "out").set_input(
        Copy().set_input(ObjectReader("db", "points"))
    )
    job.execute(cluster)
    assert len(cluster.read("db", "out")) == 600

    injector.crash_backend("worker-1", times=99)  # lost: 2 survive
    if second_fault:
        injector.crash_backend("worker-2", times=99)  # below the floor
        with pytest.raises(ExecutionError, match="worker-2"):
            job.execute(cluster)
        expected = list(range(600))
    else:
        job.execute(cluster)
        expected = sorted(2 * list(range(600)))
    assert "worker-1" in cluster.blacklist

    assert sorted(h.pid for h in cluster.read("db", "out")) == expected
    assert cluster.storage_manager.total_objects("db", "out") == len(expected)
    mapped = [
        tuple(replica)
        for record in cluster.catalog.set_metadata("db", "out").pages.values()
        for replica in record.replicas
    ]
    assert len(mapped) == len(set(mapped))
    for worker in cluster.active_workers:
        for page_id in worker.storage.get_set("db", "out").page_ids:
            assert (worker.worker_id, page_id) in mapped


# -- a restart rolls back only what the restarted job wrote ----------------------------


class SelfJoin(JoinComp):
    """Every point joined with itself on ``pid``, rebuilt as a PC object:
    the job builds a hash table before its OUTPUT stage."""

    def get_selection(self, left, right):
        return lambda_from_member(left, "pid") \
            == lambda_from_member(right, "pid")

    def get_projection(self, left, right):
        return lambda_from_native([left, right], lambda p, _q: make_object(
            Point, pid=p.pid, cid=p.cid, x=p.x
        ))


def self_join_into(database, name):
    join = SelfJoin() \
        .set_input(0, ObjectReader("db", "points")) \
        .set_input(1, ObjectReader("db", "points"))
    return Writer(database, name).set_input(join)


@pytest.mark.parametrize("transport", TRANSPORTS)
@pytest.mark.parametrize("second_fault", [False, True])
def test_a_restart_keeps_the_rows_earlier_jobs_wrote(
        tmp_path, transport, second_fault, schema_of):
    """A job that loses a worker restarts, and one that then fails
    below the worker floor gives up: either way the rows an earlier job
    wrote to its output set stay (a restart once cleared the whole set:
    600 rows where 1,200 were due, and 0 after the failure)."""
    injector = FaultInjector()
    with make_cluster(
        tmp_path, transport=transport, fault_injector=injector,
        retry_policy=fast_policy(
            max_attempts=2, blacklist_on_exhaustion=True,
            min_surviving_workers=2,
        ),
    ) as cluster:
        load_points(cluster, schema=schema_of(Point))
        Writer("db", "out").set_input(
            Copy().set_input(ObjectReader("db", "points"))
        ).execute(cluster)
        assert len(cluster.read("db", "out")) == 600

        injector.crash_backend("worker-1", times=99)  # lost: 2 survive
        if second_fault:
            injector.crash_backend("worker-2", times=99)  # below the floor
            with pytest.raises(ExecutionError, match="worker-2"):
                self_join_into("db", "out").execute(cluster)
            expected = list(range(600))
        else:
            self_join_into("db", "out").execute(cluster)
            kinds = [stage.kind for stage in cluster.last_job_log]
            assert "WorkerBlacklistedEvent" in kinds
            expected = sorted(2 * list(range(600)))
        assert cluster.blacklist == {"worker-1"}

        assert sorted(h.pid for h in cluster.read("db", "out")) == expected
        assert cluster.storage_manager.total_objects("db", "out") \
            == len(expected)
        assert_every_page_is_named_once(cluster, "db", "out")


@pytest.mark.skipif(not remote_available(), reason="cloudpickle unavailable")
def test_a_restart_leaves_every_child_idle(tmp_path, schema_of):
    """worker-0 is lost in the probe stage of a partitioned join, while
    its peers' tasks are in flight: they are awaited before the job
    restarts, so every child is idle (poolable) and owes no submit
    instant when the job returns, and no segment outlives the cluster."""
    injector = FaultInjector()
    cluster = make_cluster(
        tmp_path, transport="process", broadcast_threshold=0,
        fault_injector=injector,
        retry_policy=fast_policy(max_attempts=2,
                                 blacklist_on_exhaustion=True),
    )
    with cluster:
        load_points(cluster, schema=schema_of(Point))
        injector.crash_backend("worker-0", stage_kind="PipelineJobStage",
                               times=99)
        self_join_into("db", "out").execute(cluster)
        assert "WorkerBlacklistedEvent" in [
            stage.kind for stage in cluster.last_job_log
        ]
        assert cluster.blacklist == {"worker-0"}
        assert sorted(h.pid for h in cluster.read("db", "out")) \
            == list(range(600))
        leased = list(cluster.transport._leased)
        assert leased
        for child in leased:
            assert child.idle()
            assert child.submit_times == {}
    assert cluster.shm_registry.live == {}


# -- planning a join reads no page -----------------------------------------------------


def _out_of_core(tmp_path, schema, injector=None):
    """Two workers whose three-page pools hold a fraction of 2,400
    points: loading spills, and every scan of the set reloads."""
    cluster = make_cluster(
        tmp_path, n_workers=2, page_size=1 << 12, worker_memory=3 << 12,
        fault_injector=injector,
    )
    load_points(cluster, n=2400, schema=schema)
    assert cluster.metrics().value("pc_pool_spills_total") > 0, \
        "test premise: loading must spill pages"
    return cluster


def test_planning_a_join_fires_no_reload_fault(tmp_path, schema_of):
    """Sizing a join reads the catalog's page records, not the pages: a
    reload fault armed before the job is still armed after it, and an
    unknown input set is the scan's ``SetNotFoundError`` (planned as
    unknown: its side builds, partitioned)."""
    injector = FaultInjector()
    with _out_of_core(tmp_path, schema_of(Point), injector) as cluster:
        injector.fail_page_reload(times=1)
        join = SelfJoin() \
            .set_input(0, ObjectReader("db", "points")) \
            .set_input(1, ObjectReader("db", "no_such_set"))
        with pytest.raises(SetNotFoundError, match="no_such_set"):
            cluster.execute_computations(Writer("db", "out").set_input(join))
        assert injector.counts["reload_failures"] == 0
        assert list(cluster.last_plan.build_sides.values()) == ["right"]
        assert list(cluster.last_plan.join_modes.values()) == ["partition"]


@pytest.mark.parametrize("threshold", [0, 1 << 30])
def test_a_join_over_a_set_larger_than_its_pools_plans_without_reloads(
        tmp_path, threshold, schema_of):
    """Compile, verify and plan move no ``pc_pool_reloads_total``: the
    job's reloads are all its stages', i.e. its scans' (sizing the join
    from the pages once cost as many reloads again as the scans)."""
    with _out_of_core(tmp_path, schema_of(Point)) as cluster:
        cluster.create_set("db", "few", Point)
        with cluster.loader("db", "few") as load:
            for i in range(50):
                load.append(Point, pid=i, cid=i % 4, x=float(i))
        cluster.broadcast_threshold = threshold
        before = cluster.metrics().value("pc_pool_reloads_total")
        join = SelfJoin() \
            .set_input(0, ObjectReader("db", "points")) \
            .set_input(1, ObjectReader("db", "few"))
        cluster.execute_computations(Writer("db", "out").set_input(join))
        assert sorted(h.pid for h in cluster.read("db", "out")) \
            == list(range(50))

        reloads = cluster.metrics().value("pc_pool_reloads_total") - before
        trace = cluster.last_trace
        phases = {
            span.name: span.totals().get("pool.reloads", 0)
            for span in trace.spans("phase")
        }
        assert phases == {"compile": 0, "verify": 0, "plan": 0}
        in_stages = sum(
            span.totals().get("pool.reloads", 0)
            for span in trace.spans("stage")
        )
        assert in_stages == trace.totals()["pool.reloads"] == reloads > 0
        mode = "broadcast" if threshold else "partition"
        (output,) = cluster.last_plan.build_sides
        assert [stage.detail for stage in cluster.last_job_log
                if stage.kind == "BuildHashTableJobStage"] \
            == ["%s join build for %s" % (mode, output)]


# -- page_items: one decode, front-end side and in a back-end process ------------------


def _row_page_bytes(cluster, page_size, pids):
    block = AllocationBlock(page_size, registry=cluster.catalog.registry)
    root = open_root(block)
    for pid in pids:
        handle = make_object_on(
            block, Point, None, pid=pid, cid=pid % 4, x=float(pid)
        )
        root.append(handle)
        handle.release()
    return block.to_bytes()


def _store_page(cluster, database, name, data, count):
    """Land and record one page, as a load block of one page does."""
    replication = cluster.replication
    replication.record_landed(database, name, [
        replication.land_page(database, name, data, count)
    ])


@pytest.mark.parametrize("transport", TRANSPORTS)
def test_page_items_same_objects_front_end_and_back_end(tmp_path, transport):
    page_size = 1 << 12
    cluster = make_cluster(
        tmp_path, n_workers=2, page_size=page_size, transport=transport
    )
    try:
        cluster.register_type(Point)
        cluster.create_database("db")
        # A columnar set still adopts row pages: pages self-describe.
        cluster.create_set("db", "points", schema=POINT_SCHEMA)
        with cluster.loader("db", "points") as load:
            for i in range(100):
                load.append(pid=i, cid=i % 4, x=float(i))
        _store_page(
            cluster, "db", "points",
            _row_page_bytes(cluster, page_size, range(100, 140)), 40,
        )
        _store_page(
            cluster, "db", "points", AllocationBlock(page_size).to_bytes(), 0
        )

        kinds = {"columnar": 0, "row": 0, "rootless": 0}
        front_end = []
        for page_set, page_id in cluster.replication.scan_page_copies(
            "db", "points"
        ):
            with page_set.pinned_page(page_id) as page:
                items = page_items(page.block)
                if isinstance(items, ColumnarRows):
                    kinds["columnar"] += 1
                elif page.block.root()[0] is None:
                    kinds["rootless"] += 1
                    assert len(items) == 0 and list(items) == []
                else:
                    kinds["row"] += 1
                assert len(items) == page_set.page_object_count(page_id)
                front_end.extend((p.pid, p.cid, p.x) for p in items)
        assert kinds["columnar"] >= 1 and kinds["row"] == 1
        assert kinds["rootless"] == 1
        assert sorted(front_end) == [
            (i, i % 4, float(i)) for i in range(140)
        ]
        # The client read and the catalog count are the same decode.
        assert sorted(
            (p.pid, p.cid, p.x) for p in cluster.read("db", "points")
        ) == sorted(front_end)
        assert cluster.storage_manager.total_objects("db", "points") == 140

        # The same pages through a job: the pre-aggregation scan decodes
        # them in the back-end process on the process leg.
        assert run_sums(cluster) == expected_sums(n=140)
        placements = {
            span.detail for span in cluster.last_trace.spans(kind="task")
        }
        if transport == "process":
            assert "shipped" in placements
        else:
            assert placements == {"front-end: in_process"}
    finally:
        cluster.close()


@pytest.mark.parametrize("transport", TRANSPORTS)
def test_page_items_reads_a_map_page_as_its_one_map(tmp_path, transport):
    """The third page kind: a page whose root is a Map — what an
    aggregation ships and stores — is one object, read where it lies,
    and a job scanning such a set gets the Map's pairs."""
    page_size = 1 << 12
    cluster = make_cluster(
        tmp_path, n_workers=2, page_size=page_size, transport=transport
    )
    try:
        comp = SumX()
        map_type = MapType(comp.key_type, comp.value_type)
        cluster.register_type(map_type)
        cluster.create_database("db")
        cluster.create_set("db", "sums")  # as a Writer makes its set
        pairs = [(cid, float(cid) / 2) for cid in range(400)]
        pages = pack_map_pages(map_type, pairs, page_size,
                               cluster.catalog.registry)
        assert len(pages) > 1
        for data, checksum, _allocations, count in pages:
            assert count == 1 and page_checksum(data) == checksum
            _store_page(cluster, "db", "sums", data, count)

        read = []
        for page_set, page_id in cluster.replication.scan_page_copies(
            "db", "sums"
        ):
            with page_set.pinned_page(page_id) as page:
                (view,) = page_items(page.block)
                assert isinstance(view, MapFacade)
                read.extend(view.items())
            assert page_set.page_object_count(page_id) == 1
        assert sorted(read) == pairs
        assert cluster.storage_manager.total_objects("db", "sums") \
            == len(pages)
        assert cluster.read("db", "sums", as_pairs=True, comp=comp) \
            == dict(pairs)

        # A scan of the set folds the pairs, on either transport.
        class SumOfSums(SumX):
            def get_key_projection(self, arg):
                return lambda_from_native([arg], lambda pair: pair[0] % 4)

            def get_value_projection(self, arg):
                return lambda_from_native([arg], lambda pair: pair[1])

        agg = SumOfSums().set_input(ObjectReader("db", "sums"))
        Writer("db", "by_four").set_input(agg).execute(cluster)
        assert cluster.read("db", "by_four", as_pairs=True, comp=agg) == {
            b: sum(v for k, v in pairs if k % 4 == b) for b in range(4)
        }
    finally:
        cluster.close()


# -- a restarted job is the same lowered scan -------------------------------------------


def test_lost_worker_on_a_columnar_set_matches_no_fault_run(tmp_path):
    clean = make_cluster(tmp_path, "clean", page_size=1 << 12)
    load_points(clean, schema=POINT_SCHEMA, replication=2)
    baseline = run_sums(clean)
    assert baseline == expected_sums()
    # Every row went through each of the three lowered operators' kernels.
    clean_rows = clean.metrics().value("pc_engine_columnar_rows_total")
    assert clean_rows == 3 * 600

    # The last worker in stage order: by the time it is lost the others
    # have finished their portions, and the job restarts on them.
    injector = FaultInjector().crash_backend("worker-2", times=99)
    cluster = make_cluster(
        tmp_path, "faulty", page_size=1 << 12, fault_injector=injector,
        retry_policy=fast_policy(
            max_attempts=2, blacklist_on_exhaustion=True
        ),
    )
    load_points(cluster, schema=POINT_SCHEMA, replication=2)
    assert "worker-2" in scan_readers(cluster), \
        "test premise: worker-2 reads some pages"
    finished = sum(
        record.count
        for record in cluster.catalog.set_metadata("db", "points").pages.values()
        if record.replicas[0][0] != "worker-2"
    )

    assert run_sums(cluster) == baseline

    kinds = [stage.kind for stage in cluster.last_job_log]
    assert "WorkerBlacklistedEvent" in kinds
    # The restarted run took the lowered path too, not a per-row one, as
    # did the portions finished before worker-2 was lost.
    assert cluster.metrics().value(
        "pc_engine_columnar_rows_total"
    ) == clean_rows + 3 * finished


# -- unknown and empty sets ---------------------------------------------------------------


def test_unknown_set_raises_and_empty_set_reads_empty(tmp_path, schema_of):
    cluster = make_cluster(tmp_path)
    cluster.create_database("db")
    for database, name in (("db", "nope"), ("bd", "points")):
        with pytest.raises(SetNotFoundError):
            cluster.read(database, name)
        with pytest.raises(SetNotFoundError):
            cluster.storage_manager.total_objects(database, name)
    cluster.create_set("db", "points", Point, schema=schema_of(Point))
    assert cluster.read("db", "points") == []
    assert cluster.read("db", "points", as_pairs=True) == {}
    assert cluster.storage_manager.total_objects("db", "points") == 0
    # A job over the empty set runs and writes nothing.
    assert run_sums(cluster) == {}


def test_decommissioning_a_worker_of_an_empty_set_moves_nothing(tmp_path,
                                                                schema_of):
    cluster = make_cluster(tmp_path)
    cluster.create_database("db")
    cluster.create_set("db", "points", Point, schema=schema_of(Point))
    meta = cluster.catalog.set_metadata("db", "points")
    assert "worker-1" in meta.partitions

    assert cluster.decommission_worker("worker-1", reason="drained") == 0

    meta = cluster.catalog.set_metadata("db", "points")
    assert meta.partitions == ["worker-0", "worker-2"]
    assert len(cluster.storage_manager.partitions("db", "points")) == 2
    assert cluster.read("db", "points") == []
    # Loading afterwards routes around the departed worker.
    append_points(cluster, 300)
    assert cluster.storage_manager.total_objects("db", "points") == 300
    assert "worker-1" not in scan_readers(cluster)
