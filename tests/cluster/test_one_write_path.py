"""One write path: one writer turns objects into row pages.

The loader, a task's ``private_page_writer`` and both OUTPUT sinks
record objects through :class:`repro.storage.dataset.RowPageWriter`: a
page that fills while an object is being recorded is sealed, and *that
one object* is retried on the next page.  Only a page filling while user *stages* run
(nothing of the batch recorded yet) makes the engine roll the page and
re-run the batch.  A page with nothing recorded on it is freed, never
stored.  An object a stage makes for a Writer waits in the writer's
window and is written as the loader writes its records, unless it
escapes (a ``PendingObject``): then it is built in place, and reads back
as the reference interpreter's.
"""

import sys

import pytest

from repro.cluster import PCCluster
from repro.cluster.transport import remote_available
from repro.core import (
    MultiSelectionComp,
    ObjectReader,
    SelectionComp,
    Writer,
    lambda_from_native,
)
from repro.engine import LocalInterpreter
from repro.memory import (
    AllocationBlock,
    Float64,
    Handle,
    Int32,
    PCObject,
    String,
    TypeRegistry,
    VectorType,
    make_object,
    make_object_on,
    use_allocation_block,
)
from repro.memory.objects import ESCAPE_REASONS
from repro.memory.scatter import FALLBACK_REASONS
from repro.storage.dataset import RowPageWriter, private_page_writer
from repro.tcap import compile_computations
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
    """Every point rebuilt by a *stage*: each record waits in the output
    writer's window and is written with its page's others."""

    def get_projection(self, arg):
        return lambda_from_native([arg], lambda p: make_object(
            DataPoint, point_id=p.point_id, label=p.label,
            features=list(p.features),
        ))


class RebuildInStage(SelectionComp):
    """Every point rebuilt in place on the output page, by a *stage*: the
    field it writes after ``make_object`` dereferences the new object, so
    it is built while the stage runs."""

    def get_projection(self, arg):
        def rebuild(p):
            point = make_object(DataPoint, point_id=p.point_id, label=p.label)
            point.deref().features = list(p.features)
            return point

        return lambda_from_native([arg], rebuild)


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
        select_into(cluster, RebuildInStage(), "rebuilt", page_size=1 << 16)
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
        select_into(cluster, RebuildInStage(), "rebuilt", page_size=1 << 12)
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


# -- a stage's objects are written as the loader writes them ----------------------------


def records_of(page_set):
    """The records ``append(DataPoint, record)`` takes for the points of
    ``page_set``, in page order, and its pages' bytes."""
    records, pages = [], []
    for page_id in page_set.page_ids:
        with page_set.pinned_page(page_id) as page:
            records.extend(
                dict(point_id=p.point_id, label=str(p.label),
                     features=list(p.features))
                for p in page_items(page.block)
            )
            pages.append(page.to_bytes())
    return records, pages


def extended(registry, page_size, records):
    """The pages ``RowPageWriter.extend`` writes for DataPoint ``records``."""
    writer = private_page_writer(page_size, registry)
    writer.extend(DataPoint, records)
    writer.flush()
    return [data for data, _checksum, _allocations, _count in writer.sealed]


def object_builds(cluster):
    """``{reason: count}`` of ``pc_engine_kernel_fallback_total{operator=
    "object_build"}``: why objects were built object by object."""
    metrics = cluster.metrics()
    return {
        labels["reason"]: metrics.value("pc_engine_kernel_fallback_total",
                                        **labels)
        for labels in metrics.labels("pc_engine_kernel_fallback_total")
        if labels["operator"] == "object_build"
    }


@pytest.mark.parametrize("transport", TRANSPORTS)
def test_a_stage_writes_the_pages_extend_writes(tmp_path, transport):
    # Parent: each object was built in the stage on the output page, its
    # root grown a slot at a time, and pages rolled while the stage ran.
    with make_cluster(tmp_path, transport, n_workers=2) as cluster:
        load_points(cluster, 2000)
        select_into(cluster, Rebuild(), "rebuilt", page_size=1 << 14)
        assert_each_point_once(cluster, "rebuilt", 2000)
        assert cluster.metrics().value("pc_engine_zombie_pages_total") == 0
        assert object_builds(cluster) == {}
        written = 0
        for worker in cluster.workers:
            records, pages = records_of(worker.storage.get_set("db", "rebuilt"))
            assert pages == extended(cluster.catalog.registry, 1 << 14, records)
            written += len(pages)
        assert written > 2


class Wrapped(PCObject):
    fields = [("tag", Int32), ("point", DataPoint)]


class Project(SelectionComp):
    """Every point through ``project``."""

    def __init__(self, project):
        super().__init__()
        self.project = project

    def get_projection(self, arg):
        return lambda_from_native([arg], self.project)


class ProjectMany(MultiSelectionComp):
    """Every point through ``project``, which returns a list."""

    def __init__(self, project):
        super().__init__()
        self.project = project

    def get_projection(self, arg):
        return lambda_from_native([arg], self.project)


class KeepTagged(SelectionComp):
    """The second of each ``(tag, object)`` whose tag is a multiple of 3:
    the FILTER reads the tag, not the object."""

    def get_selection(self, arg):
        return lambda_from_native([arg], lambda pair: pair[0] % 3 == 0)

    def get_projection(self, arg):
        return lambda_from_native([arg], lambda pair: pair[1])


def fields_of(p):
    return dict(point_id=p.point_id, label=p.label, features=list(p.features))


def read_after_making(p):
    point = make_object(DataPoint, **fields_of(p))
    if point.point_id != p.point_id:  # a field read builds it
        raise ValueError("the object read back another point")
    return point


def tagged(p):
    return p.point_id, make_object(DataPoint, **fields_of(p))


def bloated(p):
    return make_object(DataPoint, point_id=p.point_id, label=p.label,
                       features=[float(p.point_id)] * 600)


def assigned(p):
    inner = make_object(DataPoint, **fields_of(p))
    return make_object(Wrapped, tag=p.point_id, point=inner)


#: case -> (the computation over a source, the output set's page size,
#: why objects were built object by object)
ESCAPES = {
    "dereferenced": (lambda source: Project(read_after_making).set_input(
        source), 1 << 16, {"dereferenced"}),
    # The record holding a pending object is declined as a reference, and
    # the pending object built beside it when it is assigned.
    "assigned": (lambda source: Project(assigned).set_input(source),
                 1 << 16, {"reference", "assigned"}),
    "returned_twice": (lambda source: ProjectMany(lambda p: [
        make_object(DataPoint, **fields_of(p))] * 2).set_input(source),
        1 << 16, {"returned_twice"}),
    "dropped_by_a_later_filter": (lambda source: KeepTagged().set_input(
        Project(tagged).set_input(source)), 1 << 16, set()),
    "a_handle_field": (lambda source: Project(lambda p: make_object(
        Wrapped, tag=p.point_id, point=p)).set_input(source), 1 << 16,
        {"reference"}),
    "one_per_page": (lambda source: Project(bloated).set_input(source),
                     1 << 13, {"one_per_page"}),
}


def read_back(value):
    """A stored point or ``Wrapped`` as host values."""
    if isinstance(value, Handle):
        value = value.deref()
    if isinstance(value, Wrapped):
        return value.tag, read_back(value.point)
    return value.point_id, str(value.label), tuple(value.features)


def interpreted(make_comp, n):
    """What the reference interpreter writes for ``make_comp(source)``
    over the ``n`` points ``load_points`` loads."""
    registry = TypeRegistry()  # the default one may know another DataPoint
    sources = AllocationBlock(1 << 20, registry=registry)
    points = [
        make_object_on(sources, DataPoint, point_id=i, label="point-%d" % i,
                       features=[float(i), i / 2.0, i / 4.0])
        for i in range(n)
    ]
    program = compile_computations(Writer("db", "out").set_input(
        make_comp(ObjectReader("db", "points"))))
    with use_allocation_block(AllocationBlock(1 << 22, registry=registry)):
        outputs = LocalInterpreter(program, {("db", "points"): points}).run()
        return sorted(read_back(value) for value in outputs[("db", "out")])


@pytest.mark.parametrize("transport", TRANSPORTS)
@pytest.mark.parametrize("case", sorted(ESCAPES))
def test_an_escaped_object_reads_back_as_the_interpreter_writes_it(
        tmp_path, transport, case):
    make_comp, page_size, reasons = ESCAPES[case]
    expected = interpreted(make_comp, 60)
    assert expected
    with make_cluster(tmp_path, transport, n_workers=2) as cluster:
        cluster.register_type(Wrapped)
        load_points(cluster, 60)
        cluster.create_set("db", "out", DataPoint, page_size=page_size)
        Writer("db", "out").set_input(
            make_comp(ObjectReader("db", "points"))).execute(cluster)
        assert sorted(map(read_back, cluster.read("db", "out"))) == expected
        assert set(object_builds(cluster)) == reasons
        assert reasons <= set(FALLBACK_REASONS + ESCAPE_REASONS)
        if case == "dropped_by_a_later_filter":
            # The dropped ones were never written: each page is the
            # loader's for the records kept on it.
            for worker in cluster.workers:
                records, pages = records_of(worker.storage.get_set("db", "out"))
                assert pages == extended(cluster.catalog.registry, page_size,
                                         records)
