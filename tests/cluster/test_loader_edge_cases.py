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


# -- one write window ------------------------------------------------------------------


def _shipping(cluster):
    """Note the bytes of every page ``cluster`` stores from the client."""
    shipped = []
    land_page = cluster.replication.land_page

    def recording_land(database, name, data, count, source="client",
                       allocations=0):
        shipped.append((bytes(data), count))
        return land_page(database, name, data, count, source=source,
                         allocations=allocations)

    cluster.replication.land_page = recording_land
    return shipped


def _rows(n):
    return [{"pid": i, "name": "row-%d" % i, "xs": [i / 4.0] * (1 + i % 5)}
            for i in range(n)]


@pytest.mark.parametrize("calls", [2, 3, 8])
def test_consecutive_extend_calls_ship_the_pages_of_one_call(tmp_path,
                                                             calls):
    rows = _rows(600)
    shipped = {}
    for n in (1, calls):
        with PCCluster(n_workers=2, page_size=1 << 12,
                       spill_root=str(tmp_path / str(n))) as cluster:
            _setup(cluster)
            shipped[n] = _shipping(cluster)
            with cluster.loader("db", "wide") as load:
                step = -(-len(rows) // n)
                for start in range(0, len(rows), step):
                    load.extend(Wide, rows[start:start + step])
            assert sorted(h.pid for h in cluster.read("db", "wide")) \
                == list(range(len(rows)))
    assert len(shipped[1]) > 3
    assert shipped[calls] == shipped[1]


def test_objects_loaded_counts_the_window_and_pages_shipped_sealed_pages(
        cluster):
    _setup(cluster)
    shipped = _shipping(cluster)
    with cluster.loader("db", "wide") as load:
        load.extend(Wide, _rows(5))  # less than a window: nothing written
        assert (load.objects_loaded, load.pages_shipped, shipped) \
            == (5, 0, [])
        load.extend(Wide, _rows(200))  # pages fill and are sealed
        assert load.objects_loaded == 205
        assert load.pages_shipped == len(shipped) > 0
        assert sum(count for _data, count in shipped) < 205
    assert load.pages_shipped == len(shipped)
    assert sum(count for _data, count in shipped) == 205
    assert cluster.storage_manager.total_objects("db", "wide") == 205


def test_a_raising_body_discards_the_window_and_the_open_page(cluster):
    _setup(cluster)
    shipped = _shipping(cluster)
    with pytest.raises(RuntimeError):
        with cluster.loader("db", "wide") as load:
            load.extend(Wide, _rows(3))
            load.block  # the window is written onto the open page
            load.extend(Wide, _rows(2))  # and two more wait in the window
            raise RuntimeError("the body failed")
    assert (load.objects_loaded, load.objects_discarded) == (5, 5)
    assert load.pages_shipped == 0 and shipped == []
    assert cluster.storage_manager.total_objects("db", "wide") == 0


def test_a_refused_record_is_named_by_its_position(cluster):
    _setup(cluster)
    rows = _rows(40)
    rows[33]["xs"] = [1.0] * 2048  # no empty 4 KB page takes it
    with cluster.loader("db", "wide") as load:
        with pytest.raises(StorageError) as refused:
            load.extend(Wide, rows)  # the window is written at 32, 64, ...
            load.flush()
        assert refused.value.position == 33
    assert load.objects_loaded == 40
    assert sorted(h.pid for h in cluster.read("db", "wide")) \
        == [i for i in range(40) if i != 33]
