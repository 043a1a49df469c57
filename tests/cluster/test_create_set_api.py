"""The unified ``create_set`` surface: one keyword set, one columnar opt-in.

``create_set(db, name, cls, *, page_size, replication, schema)`` is the
one DDL entry point; the drifted storage-layer ``type_name`` keyword and
the old ``layout`` keyword are plain TypeErrors.  A set is columnar iff
it was created with a schema (``Schema.from_class(cls)`` derives one, or
names the field that rules it out), the catalog is the only holder of
that declaration, and it survives the catalog journal
(``cluster.recover()``) — journals written when create_set records also
carried a ``"layout"`` key included.
"""

import json
import os

import numpy as np
import pytest

from repro.cluster import PCCluster
from repro.cluster.cluster import ClusterLoader, ColumnarClusterLoader
from repro.errors import TypeRegistrationError
from repro.memory import Float64, Int64, PCObject, String, VectorType
from repro.schema import Schema, f64, i64

FIXTURES = os.path.join(os.path.dirname(__file__), "fixtures")


class Reading(PCObject):
    # All fields fixed-stride primitives: Schema.from_class derives one.
    fields = [("sensor", Int64), ("value", Float64)]


class Tagged(PCObject):
    # The string field keeps this class on the row path.
    fields = [("label", String), ("value", Float64)]


class Chunk(PCObject):
    fields = [("data", VectorType(Float64))]


@pytest.fixture
def cluster(tmp_path):
    cluster = PCCluster(n_workers=2, page_size=1 << 12,
                        spill_root=str(tmp_path))
    cluster.create_database("db")
    return cluster


def _meta(cluster, name):
    return cluster.catalog.set_metadata("db", name)


# -- keywords -----------------------------------------------------------------


def test_type_name_keyword_is_gone(cluster):
    # The storage-layer spelling had one release of deprecation; cls= (a
    # class or a registered name) is the surface.
    cluster.register_type(Reading)
    with pytest.raises(TypeError, match="type_name"):
        cluster.create_set("db", "readings", type_name="Reading")
    assert ("db", "readings") not in cluster.storage_manager


def test_layout_keyword_is_gone(cluster):
    # schema= is the one columnar opt-in: nothing else can ask for one.
    with pytest.raises(TypeError, match="layout"):
        cluster.create_set("db", "readings", Reading, layout="columnar")
    assert ("db", "readings") not in cluster.storage_manager


def test_cls_takes_a_class_or_a_registered_name(cluster):
    cluster.create_set("db", "readings", Reading)
    cluster.create_set("db", "by_name", cls="Reading")
    assert _meta(cluster, "by_name").schema is None
    with cluster.loader("db", "by_name") as load:
        load.append(Reading, sensor=1, value=2.0)
    assert cluster.read("db", "by_name")[0].value == 2.0


def test_unknown_keyword_is_a_type_error(cluster):
    with pytest.raises(TypeError, match="typo_kwarg"):
        cluster.create_set("db", "readings", Reading, typo_kwarg=1)


# -- the schema is the layout -------------------------------------------------


def test_schema_implies_columnar_and_field_lists_coerce(cluster):
    cluster.create_set("db", "points", schema=[("x", "f8"), ("n", i64)])
    meta = _meta(cluster, "points")
    assert meta.schema == Schema([("x", f64), ("n", i64)])
    assert cluster._layout_of("db", "points") is meta.schema
    assert not hasattr(meta, "layout")


def test_schema_from_class_makes_a_primitive_class_columnar(cluster):
    cluster.create_set("db", "readings", Reading,
                       schema=Schema.from_class(Reading))
    meta = _meta(cluster, "readings")
    assert meta.type_name == "Reading"
    assert meta.schema.names() == ["sensor", "value"]
    assert isinstance(cluster.loader("db", "readings"), ColumnarClusterLoader)


@pytest.mark.parametrize("cls, field", [
    (Tagged, "Tagged.label is a string"),
    (Chunk, "Chunk.data is a vector<float64>"),
])
def test_schema_from_class_names_the_field_that_is_not_fixed_stride(
        cluster, cls, field):
    # A None here would have made ``schema=Schema.from_class(cls)`` a
    # silent row set.
    with pytest.raises(TypeRegistrationError, match=field):
        Schema.from_class(cls)


def test_a_set_without_a_schema_is_row_whatever_the_environment_says(
        cluster, monkeypatch):
    monkeypatch.setenv("PC_LAYOUT", "columnar")  # no longer read
    cluster.create_set("db", "readings", Reading)
    assert _meta(cluster, "readings").schema is None
    assert cluster._layout_of("db", "readings") is Reading
    assert isinstance(cluster.loader("db", "readings"), ClusterLoader)


def test_the_catalog_alone_holds_a_sets_declaration(cluster):
    cluster.create_set("db", "readings", Reading,
                       schema=Schema.from_class(Reading))
    for worker in cluster.workers:
        partition = worker.storage.get_set("db", "readings")
        for copy in ("type_name", "layout", "schema"):
            assert not hasattr(partition, copy)
    with pytest.raises(TypeError):
        cluster.workers[0].storage.create_set("db", "other", "Reading",
                                              schema=None)


# -- the columnar loader ------------------------------------------------------


def test_columnar_loader_accepts_rows_and_columns(cluster):
    cluster.create_set("db", "points", schema=[("x", f64), ("n", i64)])
    with cluster.loader("db", "points") as load:
        load.append(x=1.5, n=1)
        load.append_columns(x=np.asarray([2.5, 3.5]), n=[2, 3])
    assert sorted(r.as_tuple() for r in cluster.read("db", "points")) == [
        (1.5, 1), (2.5, 2), (3.5, 3)
    ]


def test_an_extend_call_site_loads_either_layout_unedited(cluster, schema_of):
    cluster.create_set("db", "readings", Reading, schema=schema_of(Reading))
    records = [{"sensor": i % 7, "value": i / 4.0} for i in range(900)]
    with cluster.loader("db", "readings") as load:
        load.extend(Reading, iter(records))
    columnar = _meta(cluster, "readings").schema is not None
    assert columnar == (schema_of(Reading) is not None)
    assert load.objects_loaded == 900 and load.pages_shipped > 1
    rows = cluster.read("db", "readings")
    if not columnar:
        rows = [row.deref() for row in rows]
    assert sorted((row.sensor, row.value) for row in rows) == sorted(
        (record["sensor"], record["value"]) for record in records)


def test_columnar_loader_rejects_a_row_missing_a_column(cluster):
    from repro.errors import StorageError

    cluster.create_set("db", "points", schema=[("a", f64), ("b", f64)])
    with cluster.loader("db", "points") as load:
        with pytest.raises(StorageError, match="missing"):
            load.append(a=1.0)
        load.append(a=2.0, b=20.0)
        load.append(a=3.0, b=30.0)
    # The rejected row left no column a row longer than the others.
    assert load.objects_loaded == 2
    assert sorted(r.as_tuple() for r in cluster.read("db", "points")) == [
        (2.0, 20.0), (3.0, 30.0)
    ]


# -- journal replay -----------------------------------------------------------


def test_layout_and_schema_survive_recovery(cluster):
    cluster.create_set("db", "points", schema=[("x", f64), ("n", i64)])
    with cluster.loader("db", "points") as load:
        load.append_columns(x=[0.5, 1.5], n=[1, 2])

    applied = cluster.recover()  # simulated master restart

    assert applied > 0
    meta = _meta(cluster, "points")
    assert meta.schema == Schema([("x", f64), ("n", i64)])
    # Reads still decode columnar pages and the loader is still columnar.
    assert sorted(r.as_tuple() for r in cluster.read("db", "points")) == [
        (0.5, 1), (1.5, 2)
    ]
    with cluster.loader("db", "points") as load:
        load.append(x=2.5, n=3)
    assert len(cluster.read("db", "points")) == 3


def _scan(cluster, name):
    rows = cluster.read("db", name)
    if cluster.catalog.set_metadata("db", name).schema is None:
        rows = [row.deref() for row in rows]
    return sorted((row.sensor, row.value) for row in rows)


def test_create_set_records_with_a_layout_key_still_replay(cluster):
    """``create_set`` records as the catalog wrote them while a
    ``"layout"`` key still stood beside the schema — a row set and a
    columnar one (the fixture) — replay to the same sets: replay reads
    the schema and ignores the key."""
    with open(os.path.join(FIXTURES, "create_set_with_layout.jsonl")) as f:
        old = {record["set"]: record for record in map(json.loads, f)}
    assert {name: r["layout"] for name, r in old.items()} == \
        {"rows": "row", "cols": "columnar"}
    cluster.create_set("db", "rows", Reading)
    cluster.create_set("db", "cols", Reading,
                       schema=Schema.from_class(Reading))
    records = [{"sensor": i % 5, "value": i / 2.0} for i in range(300)]
    for name in old:
        with cluster.loader("db", name) as load:
            load.extend(Reading, records)
    scans = {name: _scan(cluster, name) for name in old}

    # Today's records are the old ones less the key; put the old ones in.
    with open(cluster.journal.path) as f:
        journal = [json.loads(line) for line in f]
    for index, record in enumerate(journal):
        if record["op"] == "create_set":
            was = old[record["set"]]
            assert record == {k: v for k, v in was.items() if k != "layout"}
            journal[index] = was
    cluster.journal.close()
    with open(cluster.journal.path, "w") as f:
        f.writelines(json.dumps(record, sort_keys=True) + "\n"
                     for record in journal)

    assert cluster.recover() == len(journal)
    assert _meta(cluster, "rows").schema is None
    assert _meta(cluster, "cols").schema == Schema.from_class(Reading)
    assert {name: _scan(cluster, name) for name in old} == scans
    assert isinstance(cluster.loader("db", "rows"), ClusterLoader)
    assert isinstance(cluster.loader("db", "cols"), ColumnarClusterLoader)


def test_record_page_records_without_a_size_still_replay(cluster):
    """A ``record_page`` record as the catalog wrote it before page
    records carried their sealed size (the fixture) replays; the planner
    then sizes its set as unknown, so a join with it builds from the
    right input and partitions — and returns the same rows."""
    from repro.core import JoinComp, ObjectReader, Writer, \
        lambda_from_member, lambda_from_native

    class SensorJoin(JoinComp):
        def get_selection(self, left, right):
            return lambda_from_member(left, "sensor") == \
                lambda_from_member(right, "sensor")

        def get_projection(self, left, right):
            return lambda_from_native(
                [left, right], lambda a, b: (a.sensor, a.value, b.value)
            )

    with open(os.path.join(FIXTURES, "record_page_without_size.jsonl")) as f:
        (old,) = map(json.loads, f)
    few = [{"sensor": i, "value": i / 4.0} for i in range(3)]
    rows = [{"sensor": i % 5, "value": i / 2.0} for i in range(40)]
    for name, records in (("few", few), ("rows", rows)):
        cluster.create_set("db", name, Reading)
        with cluster.loader("db", name) as load:
            load.extend(Reading, records)
    expected = sorted(
        (a["sensor"], a["value"], b["value"])
        for a in few for b in rows if a["sensor"] == b["sensor"]
    )

    def join_into(name):
        join = SensorJoin() \
            .set_input(0, ObjectReader("db", "few")) \
            .set_input(1, ObjectReader("db", "rows"))
        cluster.execute_computations(Writer("db", name).set_input(join))
        plan = cluster.last_plan
        assert sorted(cluster.read("db", name)) == expected
        return list(plan.build_sides.values()), list(plan.join_modes.values())

    # Sized: the smaller left input builds, broadcast.
    assert join_into("sized") == (["left"], ["broadcast"])

    # Today's record is the old one plus its size; put the old one in.
    with open(cluster.journal.path) as f:
        journal = [json.loads(line) for line in f]
    (index,) = [
        index for index, record in enumerate(journal)
        if record["op"] == "record_page" and record["set"] == "rows"
    ]
    assert {k: v for k, v in journal[index].items() if k != "size"} == old
    journal[index] = old
    cluster.journal.close()
    with open(cluster.journal.path, "w") as f:
        f.writelines(json.dumps(record, sort_keys=True) + "\n"
                     for record in journal)

    assert cluster.recover() == len(journal)
    assert cluster.catalog.set_bytes("db", "rows") is None
    assert cluster.catalog.set_bytes("db", "few") > 0
    assert join_into("unsized") == (["right"], ["partition"])
