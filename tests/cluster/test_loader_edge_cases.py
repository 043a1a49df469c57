"""Edge-case tests for the client-side bulk loader (ClusterLoader)."""

import pytest

from repro.cluster import PCCluster
from repro.errors import StorageError
from repro.memory import Float64, Int32, PCObject, String, VectorType


class Wide(PCObject):
    fields = [("pid", Int32), ("name", String), ("xs", VectorType(Float64))]


@pytest.fixture
def cluster(tmp_path):
    return PCCluster(n_workers=2, page_size=1 << 12,
                     spill_root=str(tmp_path))


def _setup(cluster):
    cluster.create_database("db")
    cluster.create_set("db", "wide", Wide)


def test_object_larger_than_empty_page_raises(cluster):
    _setup(cluster)
    with pytest.raises(StorageError, match="does not fit"):
        with cluster.loader("db", "wide") as load:
            # ~16 KB of vector payload can never fit a 4 KB page; this
            # must fail fast, not retry forever.
            load.append(Wide, pid=0, name="big", xs=[1.0] * 2048)


def test_flush_on_unused_loader_is_a_noop(cluster):
    _setup(cluster)
    with cluster.loader("db", "wide") as load:
        pass  # never appended anything
    assert load.pages_shipped == 0
    assert load.objects_loaded == 0
    assert cluster.metrics().value("pc_net_messages_total") == 0
    assert cluster.storage_manager.total_objects("db", "wide") == 0

    # Explicit double-flush after the context exit is also a no-op.
    load.flush()
    assert load.pages_shipped == 0


def test_partial_page_ships_exactly_once(cluster):
    _setup(cluster)
    with cluster.loader("db", "wide") as load:
        for i in range(3):  # far less than one page's worth
            load.append(Wide, pid=i, name="n%d" % i, xs=[float(i)])
        load.flush()  # ships the partial page...
        shipped_after_flush = load.pages_shipped
        load.flush()  # ...and flushing again must not re-ship it
    assert shipped_after_flush == 1
    assert load.pages_shipped == 1  # context-exit flush shipped nothing new
    assert cluster.metrics().value("pc_net_messages_total") == 1
    assert cluster.storage_manager.total_objects("db", "wide") == 3
    values = sorted(h.pid for h in cluster.read("db", "wide"))
    assert values == [0, 1, 2]


def test_loading_resumes_after_a_flush(cluster):
    _setup(cluster)
    with cluster.loader("db", "wide") as load:
        load.append(Wide, pid=0, name="a", xs=[0.0])
        load.flush()
        load.append(Wide, pid=1, name="b", xs=[1.0])
    assert load.pages_shipped == 2
    assert cluster.storage_manager.total_objects("db", "wide") == 2
