"""Regression tests for buffer-pool spill/reload accounting.

The seed code's ``_reload`` made room for the spill file's byte count
(an allocation block's *used prefix*) but then charged the budget for
the full reconstituted page — so a pool under pressure could silently
hold more resident bytes than its capacity.  These tests pin the fixed
invariants under a tight budget.
"""

import pytest

from repro.errors import BufferPoolExhaustedError
from repro.memory import Float64, Int32, PCObject, TypeRegistry, VectorType
from repro.memory.block import AllocationBlock
from repro.memory.objects import make_object_on
from repro.storage import BufferPool, LocalStorageServer


class Tiny(PCObject):
    fields = [("pid", Int32), ("xs", VectorType(Float64))]


PAGE = 1 << 12
#: ``Tiny`` is another layout elsewhere in the suite: its type code here
#: comes from a registry of this module's own
REGISTRY = TypeRegistry()


def _light_page(pool):
    """Adopt a page holding one small object, so its used-prefix is tiny
    but real; it stays pinned."""
    block = AllocationBlock(PAGE, registry=REGISTRY)
    handle = make_object_on(block, Tiny, pid=1, xs=[1.0, 2.0])
    block.set_root(handle.offset, handle.type_code)
    return pool.adopt_page(block.to_bytes())


def _resident_bytes(pool):
    return sum(p.size for p in pool._pages.values() if p.in_memory)


def test_reload_respects_the_memory_budget(tmp_path):
    # Capacity of 2.5 pages: A spilled, B pinned, C unpinned-resident.
    pool = BufferPool(PAGE * 2 + PAGE // 2, page_size=PAGE,
                      registry=REGISTRY, spill_dir=str(tmp_path))
    page_a = _light_page(pool)
    pool.unpin(page_a.page_id, dirty=True)
    _light_page(pool)                 # B stays pinned
    page_c = _light_page(pool)        # evicts A to make room
    pool.unpin(page_c.page_id, dirty=True)
    assert not page_a.in_memory
    assert pool.metrics.snapshot().value("pc_pool_spills_total") >= 1

    # Reloading A must evict C: its spill file is ~100 bytes, but the
    # page it reconstitutes into occupies a full PAGE of budget.
    pool.pin(page_a.page_id)
    assert page_a.in_memory
    assert pool.in_memory_bytes <= pool.capacity_bytes
    assert pool.in_memory_bytes == _resident_bytes(pool)
    assert not page_c.in_memory


def test_reload_raises_rather_than_overcommit_when_all_pinned(tmp_path):
    pool = BufferPool(PAGE * 2 + PAGE // 2, page_size=PAGE,
                      registry=REGISTRY, spill_dir=str(tmp_path))
    page_a = _light_page(pool)
    pool.unpin(page_a.page_id, dirty=True)
    _light_page(pool)
    _light_page(pool)  # C evicts A; both B and C stay pinned

    with pytest.raises(BufferPoolExhaustedError):
        pool.pin(page_a.page_id)
    # The failed reload must not corrupt the books.
    assert pool.in_memory_bytes == _resident_bytes(pool)
    assert pool.in_memory_bytes <= pool.capacity_bytes


def test_spill_reload_churn_keeps_accounting_exact(tmp_path, write_pages):
    """Scan a set much larger than the pool; the budget never drifts."""
    server = LocalStorageServer(
        "w0", capacity_bytes=PAGE * 3, page_size=PAGE, registry=REGISTRY,
        spill_dir=str(tmp_path),
    )
    page_set = server.create_set("db", "pts")
    write_pages(page_set, Tiny, (
        {"pid": i, "xs": [float(i)] * 24} for i in range(300)
    ))
    pool = server.pool
    assert pool.metrics.snapshot().value("pc_pool_spills_total") > 0

    for _ in range(3):  # repeated scans force reload churn
        assert sum(1 for _ in page_set.scan_objects()) == 300
        assert pool.in_memory_bytes == _resident_bytes(pool)
        assert pool.in_memory_bytes <= pool.capacity_bytes
    assert pool.metrics.snapshot().value("pc_pool_reloads_total") > 0

    # A reloaded-then-evicted-again page costs the budget exactly once.
    before = pool.in_memory_bytes
    spilled_id = next(
        pid for pid, p in pool._pages.items() if not p.in_memory
    )
    pool.pin(spilled_id)
    pool.unpin(spilled_id)
    assert pool.in_memory_bytes == _resident_bytes(pool)
    assert abs(pool.in_memory_bytes - before) <= PAGE
