"""Per-set replacement in the buffer pool (DESIGN §17).

A named set larger than the pool is evicted most-recently-used, so a
cyclic scan keeps the pages that fit; sets that fit and anonymous pages
stay least-recently-used.  Every test runs on both page residencies.
"""

import gc
import glob

import pytest

from repro.cluster.faults import FaultInjector
from repro.errors import (
    BufferPoolExhaustedError,
    PageCorruptionError,
    PageReloadError,
)
from repro.memory.block import AllocationBlock
from repro.storage import BufferPool, buffer_pool
from repro.storage.shm_registry import ShmRegistry

PAGE = 1 << 12
#: an empty page's bytes: what ``_load`` adopts
EMPTY = AllocationBlock(PAGE).to_bytes()
BIG = ("db", "big")


@pytest.fixture(params=["mem", "shm"])
def residency(request):
    return request.param


def _pool(tmp_path, frames, residency, **kwargs):
    return BufferPool(frames * PAGE, page_size=PAGE,
                      spill_dir=str(tmp_path / "spill"),
                      residency=residency, **kwargs)


def _load(pool, count, set_key):
    """``count`` sealed pages of ``set_key``, written in order."""
    pages = []
    for _ in range(count):
        page = pool.adopt_page(EMPTY, set_key=set_key)
        pool.unpin(page.page_id, dirty=True)
        pages.append(page)
    return pages


def _count(pool, what):
    """The pool's lifetime ``pc_pool_<what>_total``."""
    return pool.metrics.snapshot().value("pc_pool_%s_total" % what)


def _touch(pool, page):
    pool.pin(page.page_id)
    pool.unpin(page.page_id)


def _scan(pool, pages):
    """One catalog-order pass; returns the reloads it cost."""
    before = _count(pool, "reloads")
    for page in pages:
        _touch(pool, page)
    return _count(pool, "reloads") - before


def _engine_pass(pool, pages, frames):
    """One job's access pattern (the scheduler's scan windows): a set
    larger than the pool is cut into the fewest windows of at most
    ``frames - 1`` pages, sizes within one page; the window with the
    fewest pages to reload runs first, each page CRC-checked (pinned and
    unpinned), then the whole window pinned for the task and released."""
    before = _count(pool, "reloads")
    count = 1 if len(pages) <= frames else -(-len(pages) // max(1, frames - 1))
    bounds = [len(pages) * index // count for index in range(count + 1)]
    windows = [pages[start:stop] for start, stop in zip(bounds, bounds[1:])]
    for window in sorted(windows, key=lambda window: sum(
            not pool.resident(page.page_id) for page in window)):
        for page in window:
            _touch(pool, page)
            pool.pin(page.page_id)
        for page in window:
            pool.unpin(page.page_id)
    return _count(pool, "reloads") - before


def _victims(pool, pages, accesses):
    """Indices of ``pages`` in the order the accesses evicted them."""
    victims = []
    resident = {i for i, page in enumerate(pages) if page.in_memory}
    for index in accesses:
        pool.pin(pages[index].page_id)
        resident.add(index)
        for i in sorted(resident):
            if not pages[i].in_memory:
                resident.discard(i)
                victims.append(i)
        pool.unpin(pages[index].page_id)
    return victims


# -- (a) the oversized set keeps what fits -----------------------------------------

@pytest.mark.parametrize("n_pages,frames", [(6, 1), (4, 3), (9, 4), (25, 8)])
def test_oversized_set_reloads_only_what_does_not_fit(
        tmp_path, residency, n_pages, frames):
    pool = _pool(tmp_path, frames, residency)
    try:
        pages = _load(pool, n_pages, BIG)
        _engine_pass(pool, pages, frames)
        for _ in range(3):
            assert _engine_pass(pool, pages, frames) == n_pages - frames
        assert pool.in_memory_bytes <= pool.capacity_bytes
    finally:
        pool.close()


@pytest.mark.parametrize("n_pages,frames", [(6, 1), (4, 3), (9, 4)])
def test_plain_cycle_over_an_oversized_set_never_floods(
        tmp_path, residency, n_pages, frames):
    # Without windows the resident window drifts by a page a pass, so a
    # pass costs N - C reloads, or one more when it wraps;
    # least-recently-used would reload all N every time.
    pool = _pool(tmp_path, frames, residency)
    try:
        pages = _load(pool, n_pages, BIG)
        _scan(pool, pages)
        for _ in range(2 * n_pages):
            assert n_pages - frames <= _scan(pool, pages) \
                <= n_pages - frames + 1
    finally:
        pool.close()


# -- (b) a set that fits is evicted exactly as before -------------------------------

def test_set_that_fits_keeps_the_parent_commits_lru_order(
        tmp_path, residency):
    pool = _pool(tmp_path, 3, residency)
    try:
        # Three frames, a three-page set (equal to capacity, so not
        # oversized) and two anonymous pages competing for them.
        pages = _load(pool, 3, ("db", "fits")) + _load(pool, 2, None)
        assert [i for i, p in enumerate(pages) if not p.in_memory] == [0, 1]
        accesses = [0, 1, 2, 3, 0, 4, 1, 1, 3, 2, 0, 4, 4, 2, 1, 3, 0, 2]
        # Recorded at the parent commit (plain LRU), load evictions
        # [0, 1] included.
        assert [0, 1] + _victims(pool, pages, accesses) == \
            [0, 1, 2, 3, 4, 0, 1, 2, 3, 0, 4, 1, 3, 0, 4, 2, 1]
        assert pool.metrics.snapshot().value("pc_pool_oversized_sets") == 0
    finally:
        pool.close()


def test_anonymous_pages_cycle_through_a_smaller_pool_in_lru_order(
        tmp_path, residency):
    # bench/probes.py's storage.reload_ms probe: three anonymous pages
    # through two frames must miss on every pin, however many bytes
    # they add up to.
    pool = _pool(tmp_path, 2, residency)
    try:
        pages = _load(pool, 3, None)
        before = _count(pool, "reloads")
        for index in range(60):
            _touch(pool, pages[index % 3])
        assert _count(pool, "reloads") - before == 60
    finally:
        pool.close()


# -- (c) an oversized scan leaves a resident set alone ------------------------------

def test_scanning_an_oversized_set_does_not_evict_a_resident_one(
        tmp_path, residency):
    pool = _pool(tmp_path, 4, residency)
    try:
        small = _load(pool, 2, ("db", "small"))
        big = _load(pool, 6, BIG)
        _scan(pool, small)  # bring it back after the load pushed it out
        assert all(page.in_memory for page in small)
        for _ in range(4):
            assert _scan(pool, big) <= 6 - 2 + 1
            assert all(page.in_memory for page in small)
        assert _scan(pool, small) == 0
        assert pool.metrics.snapshot().value("pc_pool_oversized_sets") == 1
    finally:
        pool.close()


# -- (d) pins still win -------------------------------------------------------------

def test_pinned_pages_of_an_oversized_set_are_never_victims(
        tmp_path, residency):
    pool = _pool(tmp_path, 3, residency)
    try:
        pages = _load(pool, 5, BIG)
        held = pages[:3]
        for page in held:
            pool.pin(page.page_id)
        with pytest.raises(BufferPoolExhaustedError) as raised:
            pool.pin(pages[3].page_id)
        assert str(raised.value) == (
            "need %d bytes but all %d bytes are pinned" % (PAGE, 3 * PAGE)
        )
        assert all(page.in_memory for page in held)
        assert pool.in_memory_bytes == 3 * PAGE
        pool.unpin(held[0].page_id)
        pool.pin(pages[3].page_id)  # the one unpinned page made room
        assert not held[0].in_memory
        assert held[1].in_memory and held[2].in_memory
    finally:
        pool.close()


# -- (e) a set that shrinks goes back to LRU ----------------------------------------

def test_set_freed_back_under_capacity_returns_to_lru(tmp_path, residency):
    pool = _pool(tmp_path, 3, residency)
    try:
        pages = _load(pool, 4, BIG)
        assert pool.metrics.snapshot().value("pc_pool_oversized_sets") == 1
        pool.free_page(pages.pop().page_id)
        assert pool.metrics.snapshot().value("pc_pool_oversized_sets") == 0
        _scan(pool, pages)  # all three resident, unpinned oldest first
        extra = _load(pool, 1, None)
        # LRU takes the page touched longest ago, not the latest one.
        assert [page.in_memory for page in pages] == [False, True, True]
        assert extra[0].in_memory
    finally:
        pool.close()


# -- (f) every check on the reload path still runs ----------------------------------

def test_corrupt_spill_file_still_fails_its_crc(tmp_path, residency):
    injector = FaultInjector()
    pool = _pool(tmp_path, 2, residency, fault_injector=injector)
    try:
        pages = _load(pool, 4, BIG)
        victim = next(page for page in pages if not page.in_memory)
        injector.corrupt_page(victim.page_id)
        resident = pool.in_memory_bytes
        for _ in range(2):  # sticky: the damage is in the file
            with pytest.raises(PageCorruptionError):
                pool.pin(victim.page_id)
        assert _count(pool, "checksum_failures") == 2
        assert pool.in_memory_bytes == resident  # nothing evicted for it
    finally:
        pool.close()


def test_failed_reload_leaves_the_spill_file_retryable(tmp_path, residency):
    injector = FaultInjector()
    pool = _pool(tmp_path, 2, residency, fault_injector=injector)
    try:
        pages = _load(pool, 4, BIG)
        victim = next(page for page in pages if not page.in_memory)
        injector.fail_page_reload(victim.page_id)
        with pytest.raises(PageReloadError):
            pool.pin(victim.page_id)
        assert _count(pool, "reload_failures") == 1
        pool.pin(victim.page_id)
        assert victim.in_memory and victim.pin_count == 1
        assert pool.in_memory_bytes <= pool.capacity_bytes
    finally:
        pool.close()


# -- the budget: room first, segment second -----------------------------------------

def _segments(pool):
    return glob.glob("/dev/shm/%s-*" % pool._shm_prefix)


def test_exhausted_reload_and_adopt_create_no_segment(tmp_path):
    registry = ShmRegistry(str(tmp_path / "shm.registry"))
    pool = _pool(tmp_path, 2, "shm", shm_registry=registry)
    try:
        pages = _load(pool, 3, BIG)
        sealed = pages[1].to_bytes()
        for page in pages[1:]:
            pool.pin(page.page_id)
        live = registry.live
        assert len(_segments(pool)) == len(live) == 2
        with pytest.raises(BufferPoolExhaustedError):
            pool.pin(pages[0].page_id)
        with pytest.raises(BufferPoolExhaustedError):
            pool.adopt_page(sealed, set_key=BIG)
        # No segment was created for either, and the journal has no
        # create record waiting for an unlink.
        assert len(_segments(pool)) == 2
        assert registry.live == live
        assert pool.in_memory_bytes == 2 * PAGE
        for page in pages[1:]:
            pool.unpin(page.page_id)
        pool.pin(pages[0].page_id)  # same segment name, no collision
    finally:
        pool.close()
    assert _segments(pool) == []
    assert registry.live == {}


# -- (g) the graveyard --------------------------------------------------------------

def test_close_after_graveyard_churn_leaves_nothing_mapped(tmp_path):
    # Finalize earlier tests' garbage first.  A dead pool's segment whose
    # views are still exported raises BufferError from ``__del__`` when
    # it is collected; if that happens while a frame below holds a block
    # of *this* pool, pytest keeps the unraisable's traceback — and so
    # the block's view — until the test ends, and one segment stays
    # mapped (the PC_SANITIZE=1 flake: cycles defer the collection).
    gc.collect()
    registry = ShmRegistry(str(tmp_path / "shm.registry"))
    pool = _pool(tmp_path, 4, "shm", shm_registry=registry)
    pages = _load(pool, 60, BIG)
    # A streaming scan's batch of handles: each keeps its page's block,
    # and so the evicted segment's mapping, alive until the batch dies.
    batch = []
    for page in pages:
        batch.append(pool.pin(page.page_id).block)
        pool.unpin(page.page_id)
    graveyard = pool.metrics.snapshot().value("pc_pool_graveyard_segments")
    assert graveyard >= 60 - 4
    assert len(pool.parked_segments()) == graveyard
    assert pool.in_memory_bytes <= pool.capacity_bytes
    del batch
    _touch(pool, pages[0])
    pool.close()
    # Under PCSan a block and its shadow form a cycle, so a dropped
    # block's view dies at the next collection; close() can be repeated.
    gc.collect()
    pool.close()
    assert pool.metrics.snapshot().value("pc_pool_graveyard_segments") == 0
    assert pool.metrics.snapshot().value("pc_pool_shm_segments") == 0
    assert _segments(pool) == []
    assert registry.live == {}


@pytest.mark.filterwarnings("error::pytest.PytestUnraisableExceptionWarning")
def test_a_pool_finalized_under_a_live_view_parks_its_segment(tmp_path):
    # Parent: the finalizer of a pool that went while a block of its own
    # still exported a segment (the two in one garbage cycle, say)
    # dropped the segment, and ``SharedMemory.__del__`` raised
    # BufferError into whatever ran next.  Now it parks the segment in
    # the graveyard, the process's, for the pools left to close.
    gc.collect()
    pool = _pool(tmp_path, 4, "shm")
    page = _load(pool, 1, BIG)[0]
    block = pool.pin(page.page_id).block
    pool._finalizer()  # what the collector runs when the pool goes
    assert len(pool.parked_segments()) == 1
    del block
    gc.collect()  # (under PCSan a block and its shadow are a cycle)
    _pool(tmp_path, 1, "shm").close()  # another pool's sweep closes it
    assert pool.parked_segments() == []


def test_graveyard_retries_are_bounded_per_drop(tmp_path, monkeypatch):
    from multiprocessing import shared_memory

    # The graveyard is the process's: retire what earlier tests parked, so
    # this pool's segments are the whole queue.
    gc.collect()
    buffer_pool._sweep_graveyard()
    pool = _pool(tmp_path, 2, "shm")
    try:
        pages = _load(pool, 200, BIG)
        closes = []
        close = shared_memory.SharedMemory.close
        monkeypatch.setattr(
            shared_memory.SharedMemory, "close",
            lambda shm: (closes.append(1), close(shm))[1],
        )
        evictions = _count(pool, "evictions")
        batch = []
        for page in pages:
            batch.append(pool.pin(page.page_id).block)
            pool.unpin(page.page_id)
        drops = _count(pool, "evictions") - evictions
        # Every drop closes its own segment and retries four parked
        # ones; a retry of all of them would be ~100 per drop here.
        # (Under PCSan collected load-time segments close here too.)
        assert drops >= 198 and len(closes) <= 10 * drops
        parked = pool.parked_segments()
        assert len(parked) >= 198
        del batch
        gc.collect()
        # With the views dead the segments go four per drop, longest
        # untried first.
        evictions = _count(pool, "evictions")
        for page in pages:
            if _count(pool, "evictions") - evictions > len(parked) // 4:
                break
            _touch(pool, page)
        assert not any(shm in buffer_pool._GRAVEYARD for shm in parked)
    finally:
        pool.close()
