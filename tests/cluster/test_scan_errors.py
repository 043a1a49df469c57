"""Unknown-name lookups must fail loudly, not return empty results.

The seed code's scan path (now ``PCCluster.read``) (and the join-planning size probe)
swallowed every exception, so a typo'd database or set name silently
produced ``[]`` — and downstream "my aggregate is empty" confusion.
"""

import pytest

from repro.cluster import PCCluster
from repro.core import ObjectReader, SelectionComp, Writer, \
    lambda_from_member
from repro.errors import SetNotFoundError, StorageError
from repro.memory import Float64, Int32, PCObject


class Point(PCObject):
    fields = [("pid", Int32), ("x", Float64)]


@pytest.fixture
def cluster(tmp_path, schema_of):
    c = PCCluster(n_workers=2, page_size=1 << 12, spill_root=str(tmp_path))
    c.create_database("db")
    c.create_set("db", "points", Point, schema=schema_of(Point))
    with c.loader("db", "points") as load:
        for i in range(10):
            load.append(Point, pid=i, x=float(i))
    return c


def test_read_unknown_set_raises_storage_error(cluster):
    with pytest.raises(StorageError):
        cluster.read("db", "poinst")  # typo'd set name


def test_read_unknown_database_raises_storage_error(cluster):
    with pytest.raises(SetNotFoundError):
        cluster.read("bd", "points")  # typo'd database name


def test_read_as_pairs_propagates_unknown_set(cluster):
    with pytest.raises(StorageError):
        cluster.read("db", "no_such_set", as_pairs=True)


def test_read_known_set_still_works(cluster):
    assert sorted(h.pid for h in cluster.read("db", "points")) == \
        list(range(10))


def test_python_value_outputs_still_gathered_after_execution(cluster):
    class Small(SelectionComp):
        def get_selection(self, arg):
            return lambda_from_member(arg, "x") < 3.0

        def get_projection(self, arg):
            from repro.core import lambda_from_native

            return lambda_from_native([arg], lambda p: p.pid)

    writer = Writer("db", "small").set_input(
        Small().set_input(ObjectReader("db", "points"))
    )
    cluster.execute_computations(writer)
    assert sorted(cluster.read("db", "small")) == [0, 1, 2]


def test_unknown_join_source_keeps_default_build_side(cluster):
    """The join planner sizes an input over a set the catalog does not
    know as unknown: the default (right) side builds and its table is
    partitioned, nothing crashes — the scan reports the miss."""
    from repro.core import JoinComp, lambda_from_native
    from repro.engine import plan_joins
    from repro.tcap.compiler import compile_computations

    class PidJoin(JoinComp):
        def get_selection(self, a, b):
            return lambda_from_member(a, "pid") == \
                lambda_from_member(b, "pid")

        def get_projection(self, a, b):
            return lambda_from_native([a, b], lambda x, y: (x.pid, y.pid))

    join = PidJoin() \
        .set_input(0, ObjectReader("db", "points")) \
        .set_input(1, ObjectReader("db", "never_loaded"))
    program = compile_computations(Writer("db", "out").set_input(join))
    sides, modes = plan_joins(
        program, set_bytes=cluster.catalog.set_bytes,
        broadcast_threshold=cluster.broadcast_threshold,
    )
    assert set(sides.values()) == {"right"}
    assert set(modes.values()) == {"partition"}
