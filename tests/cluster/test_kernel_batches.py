"""Kernel batches span pages: a marked columnar scan into a sink that
writes no page runs its kernels ``ARRAY_BATCH_ROWS`` rows at a time.

Each page's columns are copied into the batch as the page arrives (its
pin ends when the next one is asked for), so a batch fills across page
boundaries — a page may be split between two batches — and a task's
batch count is ⌈task rows ÷ ARRAY_BATCH_ROWS⌉, whatever the sink.  A
sink that writes pages takes each batch in cuts of what its output page
holds.  Values are dyadic, so float sums are exact on both paths and
equality is equality.

The two named bugs are the grouped-sum kernel's accumulator: it summed
at the column's width, so an ``Int32`` sum wrapped where the object path
raises, and a ``Float32`` sum rounded at every addition where the object
path adds Python floats.  Bugs 15 and 16 are the same gap one width up
and in arithmetic: an ``Int64`` sum has nothing wider to accumulate in,
and ``v + v`` on an ``Int32`` column wraps before the comparison.  Both
are live, so their tests are strict ``xfail`` until one numeric
contract covers every executor.
"""

import math

import numpy as np
import pytest

from repro.cluster import PCCluster
from repro.cluster.transport import remote_available
from repro.core import (
    AggregateComp,
    ObjectReader,
    SelectionComp,
    Writer,
    lambda_from_member,
    lambda_from_native,
)
from repro.engine import vectors
from repro.engine.pipeline import object_batches
from repro.engine.vectors import ARRAY_BATCH_ROWS, OBJECT_BATCH_ROWS
from repro.errors import ExecutionError
from repro.memory import Float32, Float64, Int32, Int64, PCObject, make_object
from repro.memory.columnar import ColumnarPage, ColumnarRows, DetachedRow
from repro.schema import Schema, f32, f64, i32, i64

TRANSPORTS = [
    "sim",
    pytest.param(
        "process",
        marks=pytest.mark.skipif(
            not remote_available(), reason="cloudpickle unavailable"
        ),
    ),
]

SCHEMA = Schema([("k", i64), ("x", f64)])
ROWS = 2 * ARRAY_BATCH_ROWS + 5000


class Reading(PCObject):
    fields = [("k", Int64), ("x", Float64)]


class SumByK(AggregateComp):
    key_type = Int64
    value_type = Float64
    reduce = "sum"

    def get_key_projection(self, arg):
        return lambda_from_member(arg, "k")

    def get_value_projection(self, arg):
        return lambda_from_member(arg, "x")


class Rebuild(SelectionComp):
    """The low readings, each built again in place on the output page
    while the stage runs: the field it writes after ``make_object``
    dereferences the new object (one that waits in the writer's window
    allocates nothing in the stage, so no cut would halve)."""

    def get_selection(self, arg):
        return lambda_from_member(arg, "x") < 64.0

    def get_projection(self, arg):
        def rebuild(r):
            reading = make_object(Reading, k=r.k)
            reading.deref().x = r.x
            return reading

        return lambda_from_native([arg], rebuild)


def make_cluster(tmp_path, subdir, transport, **kwargs):
    root = tmp_path / subdir
    root.mkdir(exist_ok=True)
    return PCCluster(n_workers=2, page_size=1 << 12, spill_root=str(root),
                     transport=transport, **kwargs)


def load(cluster, n=ROWS):
    cluster.create_database("db")
    cluster.create_set("db", "readings", schema=SCHEMA)
    index = np.arange(n)
    with cluster.loader("db", "readings") as loader:
        # Dyadic values: every partial sum is exact in float64.
        loader.append_columns(k=index % 7, x=(index % 1000) / 8.0)


def page_rows(cluster, worker_id):
    """The row count of each page a worker's scan reads, in scan order."""
    return [
        len(items) for items in cluster.replication.scan_pages(
            "db", "readings", worker_id=worker_id,
        )
    ]


def scan_tasks(cluster):
    """``{worker id: task span}`` of the job's first stage: the scan."""
    stage = cluster.last_trace.spans(kind="stage")[0]
    return {
        task.name: task for task in stage.walk() if task.kind == "task"
    }


def sum_by_k(cluster, columnar):
    agg = SumByK().set_input(ObjectReader("db", "readings"))
    cluster.execute_computations(
        Writer("db", "sums").set_input(agg), columnar=columnar
    )
    return cluster.read("db", "sums", as_pairs=True, comp=agg)


def as_bytes(sums):
    keys = sorted(sums)
    return np.array(keys).tobytes() + np.array(
        [sums[key] for key in keys], dtype=np.float64
    ).tobytes()


@pytest.mark.parametrize("transport", TRANSPORTS)
def test_coalesced_aggregation_equals_the_object_path(tmp_path, transport):
    results = {}
    for columnar in (True, False):
        with make_cluster(tmp_path, str(columnar), transport) as cluster:
            load(cluster)
            results[columnar] = sum_by_k(cluster, columnar)
            if not columnar:
                continue
            for worker in cluster.workers:
                pages = page_rows(cluster, worker.worker_id)
                assert len(pages) > 1
                task = scan_tasks(cluster)[worker.worker_id]
                rows = task.counters["engine.rows_in"]
                assert rows == sum(pages) > ARRAY_BATCH_ROWS
                assert task.counters["engine.batches"] == \
                    math.ceil(rows / ARRAY_BATCH_ROWS)
            assert cluster.metrics().value(
                "pc_engine_kernel_fallback_total") == 0
    index = np.arange(ROWS)
    expected = {
        key: float(((index % 1000) / 8.0)[index % 7 == key].sum())
        for key in range(7)
    }
    assert results[True] == results[False] == expected
    assert as_bytes(results[True]) == as_bytes(results[False])


def stored_pages(cluster, set_name):
    """``{worker id: [page bytes]}`` of a set, in page order."""
    pages = {}
    for worker in cluster.workers:
        page_set = worker.storage.get_set("db", set_name)
        for page_id in page_set.page_ids:
            with page_set.pinned_page(page_id) as page:
                pages.setdefault(worker.worker_id, []).append(
                    page.block.to_bytes()
                )
    return pages


@pytest.mark.parametrize("transport", TRANSPORTS)
def test_page_writing_pipeline_cuts_kernel_batches(tmp_path, transport):
    # Parent: a page-writing pipeline sliced each page at ``batch_size``,
    # which this test set to 16 (a coalesced batch overflowed a 4 KiB
    # output page).  Now the sink takes the kernel batches in cuts, halved
    # until an empty page takes one: the cuts, the pages and the zombie
    # pages are the object path's, whose 1,024-row batches cut the same.
    written = {}
    for columnar in (True, False):
        with make_cluster(tmp_path, str(columnar), transport) as cluster:
            load(cluster)
            cluster.create_set("db", "low", Reading)
            cluster.execute_computations(Writer("db", "low").set_input(
                Rebuild().set_input(ObjectReader("db", "readings"))
            ), columnar=columnar)
            tasks = scan_tasks(cluster)
            cuts = {}
            for worker in cluster.workers:
                counters = tasks[worker.worker_id].counters
                rows = sum(page_rows(cluster, worker.worker_id))
                assert counters["engine.rows_in"] == rows > ARRAY_BATCH_ROWS
                cuts[worker.worker_id] = counters["engine.batches"]
                assert cuts[worker.worker_id] > \
                    math.ceil(rows / OBJECT_BATCH_ROWS)
            written[columnar] = (
                cuts, stored_pages(cluster, "low"),
                cluster.metrics().value("pc_engine_zombie_pages_total"),
                sorted((h.k, h.x) for h in cluster.read("db", "low")),
            )
    assert written[True] == written[False]
    index = np.arange(ROWS)
    x = (index % 1000) / 8.0
    assert written[True][3] == sorted(zip((index % 7)[x < 64.0].tolist(),
                                          x[x < 64.0].tolist()))


def _page(start, count, page_size=1 << 12):
    index = np.arange(start, start + count)
    return ColumnarPage.build(
        SCHEMA, {"k": index % 7, "x": index / 8.0}, page_size
    ).rows()


def test_a_row_page_mid_scan_flushes_the_rows_held(monkeypatch):
    # A columnar set can hold a row page (pages self-describe), so a
    # marked scan can meet a page of plain rows: the columnar rows held
    # so far go first, the plain rows before any later page's, so row
    # order is kept.
    plain = [DetachedRow(("k", "x"), (index % 7, index / 8.0))
             for index in range(100, 130)]
    pages = [_page(0, 60), _page(60, 40), plain, _page(130, 50)]
    monkeypatch.setattr(vectors, "ARRAY_BATCH_ROWS", 48)
    batches = list(object_batches(pages, "rows", columnar=True))
    columns = [batch.column("rows") for batch in batches]
    assert [len(column) for column in columns] == [48, 48, 4, 30, 48, 2]
    assert all(isinstance(columns[i], ColumnarRows) for i in (0, 1, 2, 4))
    assert columns[3] == plain
    rows = [row for column in columns for row in column]
    assert [row.as_tuple() for row in rows] == [
        (index % 7, index / 8.0) for index in range(180)
    ]


def test_pages_split_between_batches_and_a_full_page_stays_a_view(
        monkeypatch):
    pages = [_page(0, 5), _page(5, 7), _page(12, 3), _page(15, 5),
             _page(20, 2)]
    monkeypatch.setattr(vectors, "ARRAY_BATCH_ROWS", 5)
    batches = [
        batch.column("rows")
        for batch in object_batches(pages, "rows", columnar=True)
    ]
    assert [len(batch) for batch in batches] == [5, 5, 5, 5, 2]
    assert [row.as_tuple()[1] * 8 for batch in batches for row in batch] \
        == list(range(22))
    # A page that fills a batch with nothing held goes through as it is
    # (whole, or sliced); rows held across a page boundary are copies.
    assert batches[0] is pages[0] and batches[3] is pages[3]
    assert batches[1].page is pages[1].page
    assert batches[2].page is None and batches[4].page is None


def test_copied_rows_reify_as_the_page_rows_do():
    page = _page(0, 12)
    copied = ColumnarRows.copied({
        name: page.column(name).copy() for name in page.names()
    })
    assert copied.reify() == page.reify()
    assert [type(row) for row in copied.reify()] == [DetachedRow] * 12
    assert copied.mask(copied.column("k") == 3).reify() == \
        page.mask(page.column("k") == 3).reify()
    assert copied[5] == page[5] and copied[-1] == page[-1]
    assert copied.slice(2, 4).reify() == page.slice(2, 4).reify()


# -- bug 13: an Int32 sum wrapped on the kernel path --------------------------------

# -- bug 14: a Float32 sum rounded at every addition on the kernel path -------------


def _sum_column(tmp_path, columnar, value_type, dtype, values):
    class Summed(AggregateComp):
        key_type = Int64
        reduce = "sum"

        def get_key_projection(self, arg):
            return lambda_from_member(arg, "k")

        def get_value_projection(self, arg):
            return lambda_from_member(arg, "v")

    Summed.value_type = value_type
    with PCCluster(n_workers=1, page_size=1 << 16, transport="sim",
                   spill_root=str(tmp_path / str(columnar))) as cluster:
        cluster.create_database("db")
        cluster.create_set("db", "values",
                           schema=Schema([("k", i64), ("v", dtype)]))
        with cluster.loader("db", "values") as loader:
            loader.append_columns(k=np.zeros(len(values), np.int64),
                                  v=values)
        agg = Summed().set_input(ObjectReader("db", "values"))
        try:
            cluster.execute_computations(
                Writer("db", "out").set_input(agg), columnar=columnar
            )
        except ExecutionError as error:
            return "raised: %s" % str(error).rsplit(": ", 1)[-1]
        return cluster.read("db", "out", as_pairs=True, comp=agg)


def test_int32_sum_overflow_agrees_across_paths(tmp_path):
    values = np.full(3, 1 << 30, dtype=np.int32)
    kernel = _sum_column(tmp_path, True, Int32, i32, values)
    assert kernel == _sum_column(tmp_path, False, Int32, i32, values)
    assert kernel.startswith("raised: ")  # 3 x 2^30 is no Int32


def test_float32_sum_agrees_across_paths(tmp_path):
    values = np.full(16384, 0.1, dtype=np.float32)
    kernel = _sum_column(tmp_path, True, Float32, f32, values)
    assert kernel == _sum_column(tmp_path, False, Float32, f32, values)
    assert kernel[0] == pytest.approx(1638.4, abs=1e-3)


# -- bug 15: an Int64 sum wraps on the kernel path (no wider accumulator) -----------

# -- bug 16: Int32 arithmetic in a selection wraps on the kernel path ---------------


@pytest.mark.xfail(strict=True, reason="ROADMAP item 13")
def test_int64_sum_overflow_agrees_across_paths(tmp_path):
    values = np.full(3, 1 << 62, dtype=np.int64)
    kernel = _sum_column(tmp_path, True, Int64, i64, values)
    assert kernel == _sum_column(tmp_path, False, Int64, i64, values)
    assert kernel.startswith("raised: ")  # 3 x 2^62 is no Int64


def _doubled_positive(tmp_path, columnar, values):
    class DoubledPositive(SelectionComp):
        def get_selection(self, arg):
            v = lambda_from_member(arg, "v")
            return (v + v) > 0

        def get_projection(self, arg):
            return lambda_from_member(arg, "v")

    with PCCluster(n_workers=1, page_size=1 << 16, transport="sim",
                   spill_root=str(tmp_path / str(columnar))) as cluster:
        cluster.create_database("db")
        cluster.create_set("db", "values", schema=Schema([("v", i32)]))
        with cluster.loader("db", "values") as loader:
            loader.append_columns(v=values)
        selection = DoubledPositive().set_input(ObjectReader("db", "values"))
        cluster.execute_computations(
            Writer("db", "out").set_input(selection), columnar=columnar
        )
        return sorted(cluster.read("db", "out"))


@pytest.mark.xfail(strict=True, reason="ROADMAP item 13")
def test_int32_arithmetic_in_a_selection_agrees_across_paths(tmp_path):
    values = np.full(3, 1 << 30, dtype=np.int32)
    kernel = _doubled_positive(tmp_path, True, values)
    assert kernel == _doubled_positive(tmp_path, False, values)
    assert kernel == [1 << 30] * 3  # 2^31 > 0 in exact arithmetic
