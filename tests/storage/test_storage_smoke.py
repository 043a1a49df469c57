"""Smoke tests for the storage substrate: pool, page sets, managers."""

import pytest

from repro.catalog import CatalogManager, LocalCatalog
from repro.errors import BufferPoolExhaustedError, SetNotFoundError
from repro.memory import (
    Float64,
    Int32,
    PCObject,
    String,
    TypeRegistry,
    VectorType,
)
from repro.memory.block import AllocationBlock
from repro.storage import (
    BufferPool,
    DistributedStorageManager,
    LocalStorageServer,
)


# ``Point`` is another layout elsewhere in the suite: a test that writes
# one on its own pool gives the pool a registry of its own.
class Point(PCObject):
    fields = [("pid", Int32), ("name", String), ("xs", VectorType(Float64))]


def test_writer_rolls_pages_and_scan_reads_back(tmp_path, write_pages):
    pool = BufferPool(1 << 22, page_size=1 << 13, spill_dir=str(tmp_path))
    server = LocalStorageServer("w0", 1 << 22, page_size=1 << 13,
                                registry=TypeRegistry(),
                                spill_dir=str(tmp_path / "s"))
    page_set = server.create_set("db", "points")
    write_pages(page_set, Point, (
        {"pid": i, "name": "p%d" % i, "xs": [float(i)] * 8}
        for i in range(500)
    ))
    assert len(page_set) == 500
    assert len(page_set.page_ids) > 1  # small pages forced a roll

    seen = [h.pid for h in page_set.scan_objects()]
    assert seen == list(range(500))
    # an unrelated pool is untouched
    assert pool.metrics.snapshot().value("pc_pool_pages_created_total") == 0


def test_spill_and_reload_roundtrip(tmp_path, write_pages):
    server = LocalStorageServer(
        "w0", capacity_bytes=1 << 15, page_size=1 << 13,
        registry=TypeRegistry(), spill_dir=str(tmp_path),
    )
    page_set = server.create_set("db", "pts")
    write_pages(page_set, Point, (
        {"pid": i, "name": "x" * 20, "xs": [1.0] * 16} for i in range(400)
    ))
    # Pool can hold 4 pages; the set is bigger, so scans must reload spills.
    assert server.pool.metrics.snapshot().value("pc_pool_spills_total") > 0
    total = sum(1 for _ in page_set.scan_objects())
    assert total == 400
    assert server.pool.metrics.snapshot().value("pc_pool_reloads_total") > 0


def test_pool_exhaustion_when_everything_pinned(tmp_path):
    pool = BufferPool(1 << 14, page_size=1 << 13, spill_dir=str(tmp_path))
    empty = AllocationBlock(1 << 13).to_bytes()  # adopted pages stay pinned
    pool.adopt_page(empty)
    pool.adopt_page(empty)
    with pytest.raises(BufferPoolExhaustedError):
        pool.adopt_page(empty)


def test_distributed_manager_partitions_over_workers(tmp_path):
    catalog = CatalogManager()
    catalog.register_type(Point)
    manager = DistributedStorageManager(catalog)
    for i in range(3):
        manager.attach_server(
            LocalStorageServer("w%d" % i, 1 << 22,
                               spill_dir=str(tmp_path / str(i)))
        )
    manager.create_database("db")
    manager.create_set("db", "pts", "Point")
    targets = [manager.next_target("db", "pts") for _ in range(6)]
    assert targets == ["w0", "w1", "w2", "w0", "w1", "w2"]
    assert len(manager.partitions("db", "pts")) == 3
    manager.drop_set("db", "pts")
    with pytest.raises(SetNotFoundError):
        manager.next_target("db", "pts")


def test_page_bytes_move_between_workers(tmp_path, write_pages):
    """A sealed page's bytes adopted by another worker read identically."""
    catalog = CatalogManager()
    catalog.register_type(Point)
    alice = LocalStorageServer("a", 1 << 22, registry=LocalCatalog(catalog).registry,
                               spill_dir=str(tmp_path / "a"))
    bob_catalog = LocalCatalog(catalog)
    bob = LocalStorageServer("b", 1 << 22, registry=bob_catalog.registry,
                             spill_dir=str(tmp_path / "b"))
    src = alice.create_set("db", "s")
    write_pages(src, Point, (
        {"pid": i, "name": "n%d" % i, "xs": [float(i)]} for i in range(10)
    ))
    dst = bob.create_set("db", "s")
    for page_id in src.page_ids:
        with src.pinned_page(page_id) as page:
            dst.adopt_page_bytes(page.to_bytes())
    values = [(h.pid, h.name) for h in dst.scan_objects()]
    assert values == [(i, "n%d" % i) for i in range(10)]
    # Bob's process had never seen Point: the catalog fetch path fired.
    assert bob_catalog.fetches >= 1
