"""A load block commits once (DESIGN §8 "Replica map").

Each page a loader seals lands as it seals — shipped under its CRC and
adopted on its primary and ring replicas — and the block's page records
are journaled as one ``record_pages`` group, one write and one sync, at
``flush()`` and at the end of the ``with``.  The pages become readable
then, not one by one; a body that raises still records the pages sealed
before the raise, and a page whose landing failed leaves no copy behind.
"""

import numpy as np
import pytest

from repro.cluster import FaultInjector, PCCluster, RetryPolicy
from repro.cluster.faults import DROP
from repro.errors import TransferDroppedError
from repro.memory import Float64, Int32, PCObject
from repro.memory.columnar import ColumnarPage
from repro.schema import Schema

PAGE_SIZE = 1 << 12


class Point(PCObject):
    fields = [("pid", Int32), ("cluster_id", Int32), ("x", Float64)]


class _DropNth(FaultInjector):
    """Drops the ``n``-th page transfer counted from :meth:`arm`."""

    def __init__(self, n):
        super().__init__()
        self.n = n
        self.transfers = None

    def arm(self):
        self.transfers = 0

    def on_transfer(self, src, dst, nbytes):
        if self.transfers is not None:
            self.transfers += 1
            if self.transfers == self.n:
                self.counts["transfer_drops"] += 1
                return DROP, 0.0
        return super().on_transfer(src, dst, nbytes)


def _cluster(tmp_path, **kwargs):
    return PCCluster(n_workers=3, page_size=PAGE_SIZE,
                     spill_root=str(tmp_path / "c"), **kwargs)


def _create(cluster, schema_of, replication=1):
    cluster.register_type(Point)
    cluster.create_database("db")
    cluster.create_set("db", "points", Point, replication=replication,
                       schema=schema_of(Point))


def _fill(load, start, stop, by_columns=False):
    """Load rows ``start`` .. ``stop - 1`` (``by_columns``: one
    ``append_columns`` call, which only a columnar loader has)."""
    pids = np.arange(start, stop)
    if by_columns:
        load.append_columns(pid=pids, cluster_id=pids % 4, x=pids / 4.0)
        return
    for pid in range(start, stop):
        load.append(Point, pid=pid, cluster_id=pid % 4, x=pid / 4.0)


def _rows_for(pages, schema_of):
    """Rows that fill about ``pages`` pages of the set's layout."""
    schema = schema_of(Point)
    if schema is None:
        return pages * 96  # a row-page Point takes ~40 bytes
    return pages * ColumnarPage.capacity_for(schema, PAGE_SIZE) + 7


def _records(cluster):
    meta = cluster.catalog.set_metadata("db", "points")
    return {uid: record.to_record() for uid, record in meta.pages.items()}


def _pids(cluster):
    rows = cluster.read("db", "points")
    if cluster.catalog.set_metadata("db", "points").schema is None:
        rows = [row.deref() for row in rows]
    return sorted(row.pid for row in rows)


@pytest.mark.parametrize("layout, by_columns", [
    ("row", False), ("columnar", False), ("columnar", True),
])
def test_a_load_block_costs_one_journal_sync(tmp_path, layout, by_columns):
    schema_of = Schema.from_class if layout == "columnar" else \
        (lambda cls: None)
    rows = _rows_for(40, schema_of)
    with _cluster(tmp_path) as cluster:
        _create(cluster, schema_of, replication=2)
        syncs = cluster.journal.syncs
        written = cluster.journal.records_written
        with cluster.loader("db", "points") as load:
            _fill(load, 0, rows, by_columns)
        assert load.pages_shipped >= 40
        # One group for the whole block, one record per page, as before.
        assert cluster.journal.syncs == syncs + 1
        assert cluster.journal.records_written == \
            written + load.pages_shipped
        group = cluster.journal.entries()[-load.pages_shipped:]
        assert {entry["op"] for entry in group} == {"record_page"}
        assert cluster.storage_manager.total_objects("db", "points") == rows
        print("%d pages, %d journal sync(s)"
              % (load.pages_shipped, cluster.journal.syncs - syncs))

        records = _records(cluster)
        cluster.recover()
        assert _records(cluster) == records
        assert _pids(cluster) == list(range(rows))


def test_pages_of_an_open_block_are_readable_after_flush(tmp_path,
                                                         schema_of):
    rows = _rows_for(5, schema_of)
    with _cluster(tmp_path) as cluster:
        _create(cluster, schema_of)
        total = cluster.storage_manager.total_objects
        with cluster.loader("db", "points") as load:
            _fill(load, 0, rows)
            assert load.pages_shipped >= 4
            assert total("db", "points") == 0
            assert cluster.read("db", "points") == []
            load.flush()
            assert total("db", "points") == rows
            assert _pids(cluster) == list(range(rows))
            syncs = cluster.journal.syncs
            load.flush()  # nothing landed since the last: no sync
            assert cluster.journal.syncs == syncs
            _fill(load, rows, 2 * rows)
            assert total("db", "points") == rows
        assert total("db", "points") == 2 * rows
        assert cluster.journal.syncs == syncs + 1
        assert _pids(cluster) == list(range(2 * rows))


def test_a_transfer_fault_on_page_k_keeps_the_pages_before_it(tmp_path,
                                                              schema_of):
    k = 5
    # Two copies a page, the primary's first: transfer 2k is page k's
    # ring replica, so page k's primary copy has landed when it fails.
    injector = _DropNth(2 * k)
    cluster = _cluster(tmp_path, fault_injector=injector,
                       retry_policy=RetryPolicy.disabled())
    try:
        _create(cluster, schema_of, replication=2)
        syncs = cluster.journal.syncs
        injector.arm()
        with pytest.raises(TransferDroppedError):
            with cluster.loader("db", "points") as load:
                _fill(load, 0, _rows_for(2 * k, schema_of))
        assert injector.counts["transfer_drops"] == 1
        assert load.pages_shipped == k - 1
        assert cluster.journal.syncs == syncs + 1
        meta = cluster.catalog.set_metadata("db", "points")
        assert len(meta.pages) == k - 1
        # Every copy a partition holds is named by a record: page k's
        # primary copy was freed with its failed placement.
        held = sorted(
            (worker.worker_id, page_id) for worker in cluster.workers
            for page_id in worker.storage.get_set("db", "points").page_ids
        )
        named = sorted(tuple(replica) for record in meta.pages.values()
                       for replica in record.replicas)
        assert held == named and len(held) == 2 * (k - 1)
        loaded = sum(record.count for record in meta.pages.values())
        assert sum(len(worker.storage.get_set("db", "points"))
                   for worker in cluster.workers) == loaded
        assert _pids(cluster) == list(range(loaded))

        records = _records(cluster)
        cluster.recover()
        assert _records(cluster) == records
    finally:
        cluster.close()
    assert cluster.shm_registry.live == {}


# -- a loaded page books what building it cost ---------------------------------------------


@pytest.fixture(params=[1, 2, 3], ids=lambda k: "replication=%d" % k)
def loaded(request, tmp_path):
    """A cluster that has only loaded a row-page set with ``replication``
    copies of each page, and the allocations its loader made per page."""
    cluster = _cluster(tmp_path)
    made, land_page = [], cluster.replication.land_page

    def noting_land(database, name, data, count, source="client", allocations=0):
        made.append(allocations)
        return land_page(database, name, data, count, source=source,
                         allocations=allocations)

    cluster.replication.land_page = noting_land
    cluster.register_type(Point)
    cluster.create_database("db")
    cluster.create_set("db", "points", Point, replication=request.param)
    with cluster.loader("db", "points") as load:
        _fill(load, 0, 600)
    yield cluster, made
    cluster.close()


def test_a_loaded_page_books_its_loaders_allocations_once(loaded):
    cluster, made = loaded
    assert len(made) > 1 and all(made)
    # Every page's allocations are booked on the copy readers count; the
    # replicas book none, whatever the replication factor.
    assert cluster.metrics().value("pc_alloc_allocations_total") == sum(made)
    assert _pids(cluster) == list(range(600))
