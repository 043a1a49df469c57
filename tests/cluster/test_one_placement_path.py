"""One placement path (DESIGN §8 "One placement: deliver → adopt → record").

A page copy lands on a worker through one function
(``ReplicationManager._copy``) and a page is recorded through one
(``place_pages``), only after every copy of it has arrived — so a
transfer that runs out of re-sends, wherever it sits in a load, an
OUTPUT stage or a decommission, leaves no page that no catalog record
names, no count the catalog does not have, and no set unreadable.  The
three bugs the forked paths hid are pinned by name; the enumeration at
the end drops (and corrupts) every transfer of the sequence in turn.
"""

import collections
import itertools

import pytest

from repro.cluster import FakeClock, FaultInjector, PCCluster
from repro.core import (
    ObjectReader,
    SelectionComp,
    Writer,
    lambda_from_native,
)
from repro.errors import (
    ExecutionError,
    PageCorruptionError,
    TransferDroppedError,
)
from repro.memory import Float64, PCObject, VectorType, make_object

from test_fault_tolerance import Point, SumX, fast_policy
from test_one_write_path import TRANSPORTS


class Rebuild(SelectionComp):
    """Every point built again, in place on the output page."""

    def get_projection(self, arg):
        return lambda_from_native([arg], lambda p: make_object(
            Point, pid=p.pid, cluster_id=p.cluster_id, x=p.x
        ))


def make_cluster(tmp_path, injector=None, transport="sim", **policy):
    return PCCluster(
        n_workers=3, page_size=1 << 12,
        spill_root=str(tmp_path), transport=transport,
        fault_injector=injector,
        retry_policy=fast_policy(FakeClock(), **policy),
    )


def load(cluster, name="points", n=600, replication=2, schema=None):
    cluster.create_database("db")
    cluster.create_set("db", name, Point, replication=replication,
                       schema=schema)
    with cluster.loader("db", name) as loader:
        for i in range(n):
            loader.append(Point, pid=i, cluster_id=i % 4, x=float(i))


def copy_points(cluster, replication=2, schema=None):
    if ("db", "copy") not in cluster.storage_manager:
        cluster.create_set("db", "copy", Point, replication=replication,
                           schema=schema)
    Writer("db", "copy").set_input(
        Rebuild().set_input(ObjectReader("db", "points"))
    ).execute(cluster)


def partitions(cluster, database, set_name):
    """``[(worker_id, page set)]`` on every attached front end."""
    return [
        (worker.worker_id, worker.storage.get_set(database, set_name))
        for worker in cluster.workers
        if cluster.storage_manager.has_server(worker.worker_id)
    ]


def assert_every_page_is_named_once(cluster, database, set_name):
    """Every page in every partition of the set is named by exactly one
    record's replica, and every replica a record names is there."""
    meta = cluster.catalog.set_metadata(database, set_name)
    named = collections.Counter(
        (worker_id, page_id) for record in meta.pages.values()
        for worker_id, page_id in record.replicas
    )
    held = [
        (worker_id, page_id)
        for worker_id, page_set in partitions(cluster, database, set_name)
        for page_id in page_set.page_ids
    ]
    assert sorted(held) == sorted(named), (
        "strays: %r, named but missing: %r" % (
            sorted(set(held) - set(named)), sorted(set(named) - set(held)),
        )
    )
    assert set(named.values()) <= {1}


def counts(cluster, database, set_name):
    """(what the partitions say they hold, what the catalog recorded)."""
    return (
        sum(len(p) for _w, p in partitions(cluster, database, set_name)),
        cluster.storage_manager.total_objects(database, set_name),
    )


def pool_bytes(cluster):
    return {
        worker.worker_id: cluster.metrics().value(
            "pc_pool_in_memory_bytes", worker=worker.worker_id
        )
        for worker in cluster.workers
    }


def pids(cluster, set_name):
    return sorted(h.pid for h in cluster.read("db", set_name))


# -- bug 1: a replica transfer of a job's output runs out of re-sends -----------------


@pytest.mark.parametrize("transport", TRANSPORTS)
def test_failed_output_replica_transfer_leaves_nothing_behind(
        tmp_path, transport, schema_of):
    # Parent: 10 pages / 600 objects no record names, then 1,200 vs 600.
    injector = FaultInjector()
    with make_cluster(tmp_path, injector, transport) as cluster:
        load(cluster, schema=schema_of(Point))
        cluster.create_set("db", "copy", Point, replication=2,
                           schema=schema_of(Point))
        before = pool_bytes(cluster)
        injector.drop_transfer(times=2)  # the budget is one re-send
        with pytest.raises(TransferDroppedError):
            copy_points(cluster)
        assert_every_page_is_named_once(cluster, "db", "copy")
        assert counts(cluster, "db", "copy") == (0, 0)
        assert cluster.read("db", "copy") == []
        assert pool_bytes(cluster) == before

        copy_points(cluster)
        assert pids(cluster, "copy") == list(range(600))
        assert counts(cluster, "db", "copy") == (600, 600)
        assert_every_page_is_named_once(cluster, "db", "copy")


@pytest.mark.parametrize("transport", TRANSPORTS)
def test_failed_commit_leaves_every_output_set_of_the_job_as_it_was(
        tmp_path, transport, schema_of):
    """A job writes two sets and a replica transfer of the second runs out
    of re-sends: the first keeps none of the job's rows either (recorded
    at the end of its own stage, it once kept all 600)."""
    injector = FaultInjector()
    with make_cluster(tmp_path, injector, transport) as cluster:
        load(cluster, schema=schema_of(Point))
        cluster.create_set("db", "a", Point, replication=1)
        cluster.create_set("db", "b", Point, replication=2)
        injector.drop_transfer(times=2)  # b's first replica copy
        with pytest.raises(TransferDroppedError):
            cluster.execute_computations([
                Writer("db", name).set_input(
                    Rebuild().set_input(ObjectReader("db", "points"))
                ) for name in "ab"
            ])
        for name in "ab":
            assert counts(cluster, "db", name) == (0, 0)
            assert cluster.read("db", name) == []
            assert_every_page_is_named_once(cluster, "db", name)


def test_failed_journal_write_records_no_output_set_of_the_job(tmp_path):
    """A job's pages over all its output sets are journaled as one group:
    when writing the second set's records fails, the first set's are not
    recorded either (one group per set once left "a" naming freed
    pages, and reading it raised ``unknown page id``)."""
    with make_cluster(tmp_path) as cluster:
        load(cluster)
        for name in "ab":
            load(cluster, name, n=50, replication=1)
        before = {name: pids(cluster, name) for name in "ab"}
        append = cluster.journal.append

        def refuse_b(*records):
            if any(r.get("set") == "b" and r["op"] == "record_page"
                   for r in records):
                raise OSError("journal device full")
            append(*records)

        cluster.journal.append = refuse_b
        with pytest.raises(OSError, match="journal device full"):
            cluster.execute_computations([
                Writer("db", name).set_input(
                    Rebuild().set_input(ObjectReader("db", "points"))
                ) for name in "ab"
            ])
        cluster.journal.append = append
        for name in "ab":
            assert pids(cluster, name) == before[name]
            assert counts(cluster, "db", name) == (50, 50)
            assert_every_page_is_named_once(cluster, "db", name)


# -- bug 2: the loader's second copy fails ---------------------------------------------


def test_failed_loader_replica_leaves_no_page_anywhere(tmp_path, schema_of):
    # Parent: page 1 stays adopted on worker-0 (64 objects), catalog 0.
    injector = FaultInjector().drop_transfer(
        src="client", dst="worker-1", times=2
    )
    with make_cluster(tmp_path, injector) as cluster:
        with pytest.raises(TransferDroppedError):
            load(cluster, schema=schema_of(Point))
        assert [
            (worker_id, page_set.page_ids, len(page_set))
            for worker_id, page_set in partitions(cluster, "db", "points")
            if page_set.page_ids or len(page_set)
        ] == []
        assert counts(cluster, "db", "points") == (0, 0)


# -- bug 3: decommission evacuates before it detaches ---------------------------------


def _two_sole_copy_sets(cluster, schema):
    for name in "ab":
        load(cluster, name, replication=1, schema=schema)


def test_failed_evacuation_leaves_the_worker_in_place(tmp_path, schema_of):
    # Parent: worker gone, both reads raise ReplicationError, retry = 0.
    injector = FaultInjector()
    with make_cluster(tmp_path, injector) as cluster:
        _two_sole_copy_sets(cluster, schema_of(Point))
        injector.drop_transfer(times=2)
        with pytest.raises(TransferDroppedError):
            cluster.decommission_worker("worker-1")
        assert "worker-1" in [w.worker_id for w in cluster.active_workers]
        for name in "ab":
            assert pids(cluster, name) == list(range(600))
            assert_every_page_is_named_once(cluster, "db", name)

        assert cluster.decommission_worker("worker-1") > 0
        assert "worker-1" not in [w.worker_id for w in cluster.active_workers]
        for name in "ab":
            assert pids(cluster, name) == list(range(600))
            assert_every_page_is_named_once(cluster, "db", name)


def test_failed_evacuation_under_a_restart_loses_nothing(tmp_path,
                                                         schema_of):
    """The scheduler decommissions a worker that exhausted its attempts;
    the evacuation's transfer fails: the job does, nothing else."""
    injector = FaultInjector().crash_backend("worker-1", times=2)
    with make_cluster(tmp_path, injector, max_attempts=2,
                      blacklist_on_exhaustion=True) as cluster:
        _two_sole_copy_sets(cluster, schema_of(Point))
        injector.drop_transfer(src="worker-1", times=2)
        agg = SumX().set_input(ObjectReader("db", "a"))
        with pytest.raises(TransferDroppedError):
            Writer("db", "sums").set_input(agg).execute(cluster)
        assert "worker-1" in [w.worker_id for w in cluster.active_workers]
        for name in "ab":
            assert pids(cluster, name) == list(range(600))
            assert_every_page_is_named_once(cluster, "db", name)


# -- a batch no page can hold ------------------------------------------------------------


def test_a_batch_no_empty_page_takes_is_cut_in_half(tmp_path, schema_of):
    # Parent: "what the stages allocate for one batch of 200 rows does not
    # fit on an empty 4096-byte output page (...): lower batch_size or
    # raise the set's page_size".
    with PCCluster(n_workers=1, page_size=1 << 12,
                   spill_root=str(tmp_path), transport="sim") as cluster:
        load(cluster, n=200, replication=1, schema=schema_of(Point))
        copy_points(cluster, replication=1, schema=schema_of(Point))
        assert pids(cluster, "copy") == list(range(200))
        assert counts(cluster, "db", "copy") == (200, 200)
        assert_every_page_is_named_once(cluster, "db", "copy")


class Blob(PCObject):
    fields = [("values", VectorType(Float64))]


class Bloat(SelectionComp):
    """Every point as a Blob larger than an empty 4 KiB page."""

    def get_projection(self, arg):
        return lambda_from_native(
            [arg], lambda p: make_object(Blob, values=[p.x] * 600)
        )


def test_a_row_no_empty_page_takes_names_the_page_size(tmp_path, schema_of):
    with PCCluster(n_workers=1, page_size=1 << 12,
                   spill_root=str(tmp_path), transport="sim") as cluster:
        load(cluster, n=200, replication=1, schema=schema_of(Point))
        cluster.create_set("db", "blobs", Blob, replication=1)
        with pytest.raises(ExecutionError) as failure:
            Writer("db", "blobs").set_input(
                Bloat().set_input(ObjectReader("db", "points"))
            ).execute(cluster)
        message = str(failure.value)
        assert "one row" in message and "4096-byte" in message
        assert "page_size" in message and "batch_size" not in message
        assert counts(cluster, "db", "blobs") == (0, 0)
        assert_every_page_is_named_once(cluster, "db", "blobs")


# -- every transfer of the sequence, dropped and corrupted in turn --------------------


_SETS = ("points", "copy")


def _steps(replication):
    return [
        lambda cluster: load(cluster, n=200, replication=replication),
        lambda cluster: copy_points(cluster, replication),
        lambda cluster: cluster.decommission_worker("worker-1"),
    ]


def _spy_on_transfers(cluster, on_transfer):
    ship_page = cluster.transport.ship_page

    def spy(src, dst, data, checksum=None):
        on_transfer(src, dst)
        return ship_page(src, dst, data, checksum=checksum)

    cluster.transport.ship_page = spy


def _reads(cluster):
    """What each set reads (a set not created yet is not there)."""
    return {
        name: pids(cluster, name)
        for name in _SETS if ("db", name) in cluster.storage_manager
    }


def _assert_consistent(cluster, reads):
    for name, read in reads.items():
        assert_every_page_is_named_once(cluster, "db", name)
        held, recorded = counts(cluster, "db", name)
        assert recorded == len(read)
        # The tally of a partition is what was loaded or written there:
        # a copy that stands in for a departed primary is not counted.
        if cluster.storage_manager.has_server("worker-1"):
            assert held == recorded


def _run_with_fault(tmp_path, replication, k, arm):
    """Run the steps with ``arm(injector, src, dst)`` called as transfer
    ``k`` starts.  Returns whether a step raised."""
    injector = FaultInjector()
    seen = itertools.count()

    def on_transfer(src, dst):
        if next(seen) == k:
            arm(injector, src, dst)

    with make_cluster(tmp_path, injector) as cluster:
        _spy_on_transfers(cluster, on_transfer)
        for nth, step in enumerate(_steps(replication)):
            before = _reads(cluster)
            try:
                step(cluster)
            except (TransferDroppedError, PageCorruptionError):
                after = _reads(cluster)
                _assert_consistent(cluster, after)
                if nth:
                    # (a failed load keeps the pages placed before the
                    # one that failed; every other step is all or nothing)
                    assert {n: after[n] for n in before} == before
                    assert all(after[n] == [] for n in set(after) - set(before))
                return True
            _assert_consistent(cluster, _reads(cluster))
        assert list(_reads(cluster).values()) == [list(range(200))] * 2
        return False


@pytest.fixture(scope="module")
def fault_points(request):
    """Says how many fault points the module enumerated (the ROADMAP's
    crash-point enumeration)."""
    enumerated = []
    yield enumerated
    capture = request.config.pluginmanager.getplugin("capturemanager")
    with capture.global_and_fixture_disabled():
        print("\n%d placement fault points enumerated (%d transfers, each "
              "dropped and corrupted)" % (2 * sum(enumerated), sum(enumerated)))


@pytest.mark.parametrize("replication", [1, 2, 3])
def test_every_transfer_can_fail_without_leaving_a_stray(
        tmp_path, replication, fault_points):
    transfers = []
    with make_cluster(tmp_path / "clean") as cluster:
        _spy_on_transfers(cluster, lambda src, dst: transfers.append((src, dst)))
        for step in _steps(replication):
            step(cluster)
            _assert_consistent(cluster, _reads(cluster))
    assert len(transfers) > 3 * replication
    fault_points.append(len(transfers))
    faults = {
        "drop": lambda injector, src, dst:
            injector.drop_transfer(src, dst, times=2),
        "corrupt": lambda injector, src, dst:
            injector.corrupt_transfer(src, dst, times=2),
    }
    for kind, arm in faults.items():
        raised = [
            _run_with_fault(tmp_path / ("%s-%d" % (kind, k)), replication, k, arm)
            for k in range(len(transfers))
        ]
        assert all(raised), (kind, raised)
