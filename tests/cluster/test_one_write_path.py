"""One write path: one writer turns objects into row pages.

The loader, a task's ``private_page_writer`` and both OUTPUT sinks
record objects through :class:`repro.storage.dataset.RowPageWriter`: a
page that fills while an object is being recorded is sealed, and *that
one object* is retried on the next page.  Only a page filling while user *stages* run
(nothing of the batch recorded yet) makes the engine roll the page and
re-run the batch.  A page with nothing recorded on it is freed, never
stored.
"""

import sys

import pytest

from repro.cluster import PCCluster
from repro.cluster.transport import remote_available
from repro.core import (
    ObjectReader,
    SelectionComp,
    Writer,
    lambda_from_native,
)
from repro.memory import (
    Float64,
    Int32,
    PCObject,
    String,
    VectorType,
    make_object,
    use_allocation_block,
)
from repro.storage.dataset import RowPageWriter, private_page_writer
from repro.storage.page import page_items

TRANSPORTS = [
    "sim",
    pytest.param(
        "process",
        marks=pytest.mark.skipif(
            not remote_available(), reason="cloudpickle unavailable"
        ),
    ),
]


class DataPoint(PCObject):
    fields = [("point_id", Int32), ("label", String),
              ("features", VectorType(Float64))]


class Identity(SelectionComp):
    """Every object as it is: the sink deep-copies it off the input page."""


class KeepNothing(SelectionComp):
    def get_selection(self, arg):
        return lambda_from_native([arg], lambda p: False)


class Rebuild(SelectionComp):
    """Every point rebuilt in place on the output page, by a *stage*."""

    def get_projection(self, arg):
        return lambda_from_native([arg], lambda p: make_object(
            DataPoint, point_id=p.point_id, label=p.label,
            features=list(p.features),
        ))


def make_cluster(tmp_path, transport, n_workers=1, **kwargs):
    return PCCluster(n_workers=n_workers, page_size=1 << 16,
                     spill_root=str(tmp_path), transport=transport, **kwargs)


def load_points(cluster, n):
    cluster.register_type(DataPoint)
    cluster.create_database("db")
    cluster.create_set("db", "points", DataPoint)
    with cluster.loader("db", "points") as load:
        for i in range(n):
            load.append(DataPoint, point_id=i, label="point-%d" % i,
                        features=[float(i), i / 2.0, i / 4.0])


def select_into(cluster, comp, out, page_size=None):
    if page_size is not None:
        cluster.create_set("db", out, DataPoint, page_size=page_size)
    Writer("db", out).set_input(
        comp.set_input(ObjectReader("db", "points"))
    ).execute(cluster)


def output_pages(cluster, out):
    """``[object count]`` of every page of ``db.out``, over all workers."""
    counts = []
    for worker in cluster.workers:
        page_set = worker.storage.get_set("db", out)
        counts.extend(
            page_set.page_object_count(page_id)
            for page_id in page_set.page_ids
        )
    return counts


def assert_each_point_once(cluster, out, n):
    handles = cluster.read("db", out)
    assert len(handles) == n
    assert sorted(h.point_id for h in handles) == list(range(n))
    assert cluster.storage_manager.total_objects("db", out) == n
    point = next(h for h in handles if h.point_id == n - 1)
    assert point.label == "point-%d" % (n - 1)
    assert list(point.features) == [n - 1.0, (n - 1) / 2.0, (n - 1) / 4.0]


# -- an output page that fills mid-batch -----------------------------------------------


@pytest.mark.parametrize("transport", TRANSPORTS)
def test_page_filling_mid_batch_records_each_object_once(tmp_path, transport):
    # Parent: 2,431 objects read back (431 twice) — consume recorded half
    # a batch, the engine sealed the page and re-ran the whole batch.
    with make_cluster(tmp_path, transport) as cluster:
        load_points(cluster, 2000)
        select_into(cluster, Identity(), "copy", page_size=1 << 18)
        assert_each_point_once(cluster, "copy", 2000)
        assert len(output_pages(cluster, "copy")) > 1


@pytest.mark.parametrize("transport", TRANSPORTS)
@pytest.mark.parametrize("n, page_size", [(300, 1 << 12), (2000, 1 << 14)])
def test_small_output_pages_roll_instead_of_killing_the_job(
        tmp_path, transport, n, page_size):
    # Parent: "retries exhausted ... allocation of N bytes does not fit".
    with make_cluster(tmp_path, transport) as cluster:
        load_points(cluster, n)
        select_into(cluster, Identity(), "copy", page_size=page_size)
        assert_each_point_once(cluster, "copy", n)
        pages = output_pages(cluster, "copy")
        assert len(pages) > 3 and sum(pages) == n and min(pages) > 0


@pytest.mark.parametrize("transport", TRANSPORTS)
def test_page_filling_in_a_stage_reruns_the_batch_once(tmp_path, transport):
    # The roll happens while user code allocates: nothing of the batch is
    # recorded yet, so the engine seals the page (a zombie page: it keeps
    # the failed attempt's objects as dead space) and re-runs the batch.
    # (Parent: a batch's objects had to fit one page, so this test set
    # 100 rows a batch; now the first cut an empty page refuses halves.)
    with make_cluster(tmp_path, transport) as cluster:
        load_points(cluster, 2000)
        select_into(cluster, Rebuild(), "rebuilt", page_size=1 << 16)
        assert_each_point_once(cluster, "rebuilt", 2000)
        pages = output_pages(cluster, "rebuilt")
        zombies = cluster.metrics().value("pc_engine_zombie_pages_total")
        # Every page but the last was sealed by a stage-phase roll, and
        # the engine counted each roll once.
        assert zombies == len(pages) - 1 > 0
        assert cluster.metrics().value("pc_engine_pages_written_total") \
            == len(pages)


def clean_page_bytes(registry, points):
    """The bytes of a page on which ``points`` — ``(point_id, label,
    features)`` — are rebuilt in place and recorded, and nothing else."""
    writer = private_page_writer(1 << 12, registry)
    with use_allocation_block(writer.block):
        handles = [
            make_object(DataPoint, point_id=point_id, label=label,
                        features=features)
            for point_id, label, features in points
        ]
    for handle in handles:
        writer.append_object(handle)
    del handles
    writer.flush()
    [(data, _checksum, _allocations, _count)] = writer.sealed
    return len(data)


@pytest.mark.parametrize("transport", TRANSPORTS)
def test_zombie_pages_are_the_kept_pages_with_dead_space(tmp_path, transport):
    # Parent: every roll counted a zombie page, also one that sealed a page
    # with nothing recorded on it (freed, not kept) — which each cut an
    # empty page refuses now does.
    with make_cluster(tmp_path, transport, n_workers=2) as cluster:
        load_points(cluster, 300)
        select_into(cluster, Rebuild(), "rebuilt", page_size=1 << 12)
        assert_each_point_once(cluster, "rebuilt", 300)
        registry = cluster.catalog.registry
        dead = 0
        for worker in cluster.workers:
            page_set = worker.storage.get_set("db", "rebuilt")
            for page_id in page_set.page_ids:
                with page_set.pinned_page(page_id) as page:
                    points = [
                        (p.point_id, str(p.label), list(p.features))
                        for p in page_items(page.block)
                    ]
                    used = len(page.block.to_bytes())
                dead += used > clean_page_bytes(registry, points)
        zombies = cluster.metrics().value("pc_engine_zombie_pages_total")
        print("%s: %d zombie pages of %d" % (
            transport, zombies, len(output_pages(cluster, "rebuilt"))))
        assert zombies == dead > 0


@pytest.mark.filterwarnings("error::pytest.PytestUnraisableExceptionWarning")
@pytest.mark.parametrize("transport", TRANSPORTS)
def test_a_full_page_is_sealed_with_no_exception_in_flight(
        tmp_path, transport, monkeypatch):
    # Parent: the loader sealed a full page inside ``except
    # BlockFullError``, whose live traceback still held views into the
    # page being sealed.
    in_flight = []
    retire = RowPageWriter._retire

    def spy(writer, count):
        in_flight.append(sys.exc_info()[0])
        return retire(writer, count)

    monkeypatch.setattr(RowPageWriter, "_retire", spy)
    with make_cluster(tmp_path, transport) as cluster:
        load_points(cluster, 2000)
        assert_each_point_once(cluster, "points", 2000)
    assert len(in_flight) > 3 and set(in_flight) == {None}


# -- counters ------------------------------------------------------------------------------


def test_pages_written_counts_the_pages_this_sink_sealed(tmp_path):
    # Parent: each write added the partition's running total (1, 3, 6).
    with make_cluster(tmp_path, "sim") as cluster:
        load_points(cluster, 50)
        written = []
        for _ in range(3):
            select_into(cluster, Identity(), "appended")
            written.append(
                cluster.metrics().value("pc_engine_pages_written_total")
            )
        assert written == [1, 2, 3]
        assert cluster.storage_manager.total_objects("db", "appended") == 150


# -- no empty output pages ----------------------------------------------------------------


@pytest.mark.parametrize("transport", TRANSPORTS)
def test_a_selection_that_keeps_nothing_stores_no_page(tmp_path, transport):
    # Parent: one empty 64 KiB page stored, checksummed and recorded.
    with make_cluster(tmp_path, transport, n_workers=3) as cluster:
        load_points(cluster, 100)
        select_into(cluster, KeepNothing(), "none")
        assert cluster.read("db", "none") == []
        assert cluster.storage_manager.total_objects("db", "none") == 0
        assert output_pages(cluster, "none") == []
        assert cluster.catalog.set_metadata("db", "none").pages == {}
        assert cluster.metrics().value("pc_engine_pages_written_total") == 0
