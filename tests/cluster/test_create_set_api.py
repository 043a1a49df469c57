"""The unified ``create_set`` surface: one keyword set, layout-aware.

``create_set(db, name, cls, *, page_size, replication, layout, schema)``
is the one DDL entry point; the drifted storage-layer ``type_name``
keyword is a plain TypeError now.  Schemas imply
``layout="columnar"``, ``PC_LAYOUT=columnar`` turns derivable classes
columnar by default, contradictory combinations fail loudly, and the
chosen layout survives the catalog journal (``cluster.recover()``).
"""

import numpy as np
import pytest

from repro.cluster import PCCluster
from repro.errors import CatalogError
from repro.memory import Float64, Int64, PCObject, String, VectorType
from repro.schema import Schema, f64, i64


class Reading(PCObject):
    # All fields fixed-stride primitives: columnar-derivable.
    fields = [("sensor", Int64), ("value", Float64)]


class Tagged(PCObject):
    # The string field keeps this class on the row path.
    fields = [("label", String), ("value", Float64)]


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


def test_cls_takes_a_class_or_a_registered_name(cluster):
    cluster.create_set("db", "readings", Reading)
    cluster.create_set("db", "by_name", cls="Reading")
    assert _meta(cluster, "by_name").layout == "row"
    with cluster.loader("db", "by_name") as load:
        load.append(Reading, sensor=1, value=2.0)
    assert cluster.read("db", "by_name")[0].value == 2.0


def test_unknown_keyword_is_a_type_error(cluster):
    with pytest.raises(TypeError, match="typo_kwarg"):
        cluster.create_set("db", "readings", Reading, typo_kwarg=1)


# -- layout resolution --------------------------------------------------------


def test_schema_implies_columnar_and_field_lists_coerce(cluster):
    cluster.create_set("db", "points", schema=[("x", "f8"), ("n", i64)])
    meta = _meta(cluster, "points")
    assert meta.layout == "columnar"
    assert meta.schema == Schema([("x", f64), ("n", i64)])


def test_columnar_layout_derives_schema_from_primitive_cls(cluster):
    cluster.create_set("db", "readings", Reading, layout="columnar")
    meta = _meta(cluster, "readings")
    assert meta.layout == "columnar"
    assert meta.schema.names() == ["sensor", "value"]


def test_columnar_layout_without_derivable_schema_fails(cluster):
    with pytest.raises(CatalogError, match="needs a schema"):
        cluster.create_set("db", "tagged", Tagged, layout="columnar")
    with pytest.raises(CatalogError, match="needs a schema"):
        cluster.create_set("db", "bare", layout="columnar")


def test_row_layout_rejects_a_schema(cluster):
    with pytest.raises(CatalogError, match="layout='row'"):
        cluster.create_set("db", "points", layout="row",
                           schema=[("x", f64)])


def test_pc_layout_env_turns_derivable_sets_columnar(cluster, monkeypatch):
    monkeypatch.setenv("PC_LAYOUT", "columnar")
    cluster.create_set("db", "readings", Reading)
    cluster.create_set("db", "tagged", Tagged)
    assert _meta(cluster, "readings").layout == "columnar"
    # Non-derivable classes silently keep the row layout.
    assert _meta(cluster, "tagged").layout == "row"


def test_vector_fields_stay_on_the_row_path(cluster, monkeypatch):
    class Chunk(PCObject):
        fields = [("data", VectorType(Float64))]

    monkeypatch.setenv("PC_LAYOUT", "columnar")
    cluster.create_set("db", "chunks", Chunk)
    assert _meta(cluster, "chunks").layout == "row"


# -- the columnar loader ------------------------------------------------------


def test_columnar_loader_accepts_rows_and_columns(cluster):
    cluster.create_set("db", "points", schema=[("x", f64), ("n", i64)])
    with cluster.loader("db", "points") as load:
        load.append(x=1.5, n=1)
        load.append_columns(x=np.asarray([2.5, 3.5]), n=[2, 3])
    assert sorted(r.as_tuple() for r in cluster.read("db", "points")) == [
        (1.5, 1), (2.5, 2), (3.5, 3)
    ]


@pytest.mark.parametrize("layout", ["row", "columnar"])
def test_an_extend_call_site_loads_either_layout_unedited(cluster, layout):
    cluster.create_set("db", "readings", Reading, layout=layout)
    records = [{"sensor": i % 7, "value": i / 4.0} for i in range(900)]
    with cluster.loader("db", "readings") as load:
        load.extend(Reading, iter(records))
    assert _meta(cluster, "readings").layout == layout
    assert load.objects_loaded == 900 and load.pages_shipped > 1
    rows = cluster.read("db", "readings")
    if layout == "row":
        rows = [row.deref() for row in rows]
    assert sorted((row.sensor, row.value) for row in rows) == sorted(
        (record["sensor"], record["value"]) for record in records)


def test_columnar_loader_rejects_missing_and_built_objects(cluster):
    from repro.errors import StorageError

    cluster.create_set("db", "points", schema=[("x", f64)])
    load = cluster.loader("db", "points")
    with pytest.raises(StorageError, match="missing"):
        load.append(y=1.0)
    with pytest.raises(StorageError, match="fixed-stride columns"):
        load.append_built(lambda block: None)
    load.discard()


# -- journal replay -----------------------------------------------------------


def test_layout_and_schema_survive_recovery(cluster):
    cluster.create_set("db", "points", schema=[("x", f64), ("n", i64)])
    with cluster.loader("db", "points") as load:
        load.append_columns(x=[0.5, 1.5], n=[1, 2])

    applied = cluster.recover()  # simulated master restart

    assert applied > 0
    meta = _meta(cluster, "points")
    assert meta.layout == "columnar"
    assert meta.schema == Schema([("x", f64), ("n", i64)])
    # Reads still decode columnar pages and the loader is still columnar.
    assert sorted(r.as_tuple() for r in cluster.read("db", "points")) == [
        (0.5, 1), (1.5, 2)
    ]
    with cluster.loader("db", "points") as load:
        load.append(x=2.5, n=3)
    assert len(cluster.read("db", "points")) == 3
