"""The buffer pool: pinned in-memory pages, spilled by a per-set policy.

Each worker's local storage server manages a buffer pool (Appendix D.1)
used for buffering and caching datasets.  Pages are pinned while a
computation reads or writes them; unpinned pages are eligible for
eviction.  Evicted dirty pages are written to the *user-level file system*
(a spill directory), evicted clean pages are simply dropped and re-read
on demand.  Because a page's bytes are its authoritative representation,
spilling and re-loading is a straight byte copy either way — the storage
half of the paper's zero-cost data movement.

Which unpinned page goes first is decided per set (DESIGN §17).  A named
set whose pages on this pool add up to more than the pool's capacity
cannot be kept resident by any policy, and every read of a stored set is
a catalog-order scan, so the page such a scan just finished with is the
one it will need again last: it re-enters the eviction order at the cold
end (evict-most-recent), and the scan keeps the pages that fit instead
of flooding the pool.  Sets that fit, and anonymous pages, are evicted
least-recently-used.

Under ``shm`` residency a page lives in a *frame*, a named shared-memory
segment: an evicted page's frame is mapped again by the next page, unless
a view still exports the evicted page's mapping (then the frame is
retired, and the view keeps reading its own bytes).
"""

from __future__ import annotations

import atexit
import mmap
import os
import tempfile
import weakref
from collections import OrderedDict, deque

from repro.errors import (
    BufferPoolExhaustedError,
    PageCorruptionError,
    PageReloadError,
    StorageError,
)
from repro.memory import layout
from repro.memory.block import AllocationBlock
from repro.obs import MetricsRegistry, Tracer
from repro.storage.page import DEFAULT_PAGE_SIZE, Page
from repro.storage.replication import corrupt_bytes, page_checksum


def _release_segments(pages, segments, free, shm_registry=None):
    """Retire every frame a pool left behind: its resident pages' and its
    free ones.

    Module-level so ``weakref.finalize`` can run it after the pool itself
    is gone.  Blocks are detached first so their memoryviews over the
    mappings die and the frames can actually unmap; a frame whose mapping
    is still exported (a facade somewhere keeps a view alive — perhaps
    one the collector found in the same cycle as the pool) is unlinked
    anyway so the kernel reclaims it once the last mapping drops, and
    parked in the graveyard for the pools still alive to close.
    """
    for page in pages.values():
        if page.shm is not None:
            page.block = None
            page.shm = None
    for frame in list(segments.values()) + free:
        _retire_frame(frame, shm_registry)
    segments.clear()
    del free[:]


def _retire_frame(frame, shm_registry):
    """Unlink a frame's segment, then close its mapping or park it."""
    try:
        frame.shm.unlink()
    except (FileNotFoundError, OSError):
        pass
    if shm_registry is not None:
        shm_registry.note_unlink(frame.name)
    # The descriptor and SharedMemory's own mapping, which nothing exports.
    frame.shm.close()
    _close_or_park(frame)


def _close_or_park(frame):
    """Close a retired frame's mapping, or park it while a view exports it.

    A parked frame must stay referenced: dropping it would drop a
    mapping some view still reads.
    """
    try:
        frame.close()
    except BufferError:
        _GRAVEYARD.append(frame)


class _Frame:
    """A named shared-memory segment that pages are mapped into, one at a time.

    ``shm`` keeps the segment's name and descriptor for the frame's whole
    life; each page that lands in the frame maps it afresh (:meth:`map`).
    When that page is evicted and its mapping closes cleanly — no view
    exports it any more — the frame is free for the next page: a reload
    maps it again, with no ``shm_open``, ``ftruncate``, unlink, journal
    record or resource-tracker message.  A mapping a view still exports
    cannot be handed on: its frame is retired (:func:`_retire_frame`).
    """

    __slots__ = ("shm", "mapping")

    def __init__(self, shm):
        self.shm, self.mapping = shm, None

    @property
    def name(self):
        return self.shm.name

    @property
    def size(self):
        return self.shm.size

    def map(self, block_size):
        """A fresh mapping of the segment, sliced to ``block_size``."""
        # SharedMemory keeps the descriptor open; mapping it again needs
        # no shm_open, and SharedMemory's own buffer is never exported.
        self.mapping = mmap.mmap(self.shm._fd, self.shm.size)
        return memoryview(self.mapping)[:block_size]

    def close(self):
        """Close the current mapping; ``BufferError`` while a view exports it."""
        if self.mapping is not None:
            self.mapping.close()
            self.mapping = None


def _sweep_graveyard(limit=None):
    """Close parked frames whose exported views have died.

    Each parked frame holds a mapping of an unlinked segment.  A batch
    of handles over evicted pages keeps every one of their mappings
    alive until it dies, so retrying all of them on every drop is
    quadratic in the scan: ``limit`` bounds how many are retried,
    longest-untried first.  Once views die their frames go ``limit``
    per drop while at most one arrives, so the graveyard never holds
    more than were exported at one time.  ``None`` retries all.
    """
    retries = len(_GRAVEYARD) if limit is None \
        else min(limit, len(_GRAVEYARD))
    for _ in range(retries):
        frame = _GRAVEYARD.popleft()
        try:
            frame.close()
        except BufferError:  # pcsan: disable=PC005
            _GRAVEYARD.append(frame)  # still exported somewhere


#: The graveyard: frames of unlinked segments still mapped by an exported view,
#: longest untried first.  One for the process, so what a pool could not
#: close before it went away is retired by the sweeps of the pools left.
_GRAVEYARD = deque()


#: Pools with shared-memory residency still open in this process; the
#: interpreter-exit hook drops their segments so a *clean* exit (including
#: an uncaught exception unwinding the stack) never strands /dev/shm
#: entries.  Hard kills are covered by the ShmRegistry startup sweep.
_LIVE_SHM_POOLS = weakref.WeakSet()


@atexit.register
def _atexit_release_pools():
    for pool in list(_LIVE_SHM_POOLS):
        try:
            pool.close()
        except Exception:  # noqa: BLE001 - interpreter is going down
            pass
    _sweep_graveyard()


#: Parked segments retried per dropped block.  Retrying all of them on
#: every drop is quadratic in a scan that parks hundreds; a fixed few,
#: longest-untried first, still retires a segment within ``len / 4``
#: drops of its last view dying.
_GRAVEYARD_RETRIES_PER_DROP = 4


class BufferPool:
    """Fixed-budget page cache with pinning and spill.

    Victims are taken least-recently-used, except that the pages of a
    named set too large for the pool are taken most-recently-used (see
    the module docstring): the choice is made from the pool's own tally
    of bytes per set, not from an argument.
    """

    def __init__(self, capacity_bytes, page_size=DEFAULT_PAGE_SIZE,
                 registry=None, spill_dir=None, tracer=None,
                 fault_injector=None, metrics=None, residency="mem",
                 shm_registry=None):
        if capacity_bytes < page_size:
            raise StorageError("buffer pool smaller than one page")
        if residency not in ("mem", "shm"):
            raise StorageError("unknown page residency %r" % (residency,))
        self.capacity_bytes = capacity_bytes
        self.page_size = page_size
        self.registry = registry
        self.tracer = tracer or Tracer()
        self.fault_injector = fault_injector
        #: "mem" backs pages with private bytearrays; "shm" backs them
        #: with named POSIX shared-memory segments so a back-end *process*
        #: can attach to a sealed page by name (zero-copy hand-off).
        self.residency = residency
        #: crash-safety journal (repro.storage.shm_registry.ShmRegistry):
        #: every named segment's create/unlink is recorded so a later run
        #: can reap what a hard-killed process stranded.
        self.shm_registry = shm_registry
        self._shm_segments = {}  # page_id -> the _Frame it is mapped in
        #: frames no page holds, each of them cleanly unmapped; with the
        #: resident pages they never add up to more than the budget
        self._free_frames = []
        self._next_frame = 1
        self._shm_prefix = "pc%d-%s" % (os.getpid(), os.urandom(3).hex())
        self._pages = {}  # page_id -> Page
        self._finalizer = weakref.finalize(
            self, _release_segments, self._pages, self._shm_segments,
            self._free_frames, shm_registry,
        )
        if residency == "shm":
            _LIVE_SHM_POOLS.add(self)
        self._lru = OrderedDict()  # page_id -> None, next victim first
        #: set_key -> block bytes of that set's pages on this pool,
        #: resident or spilled; a set above ``capacity_bytes`` is scanned
        #: evict-most-recent (see ``unpin``).
        self._set_bytes = {}
        self._next_page_id = 1
        self._in_memory_bytes = 0
        #: lifetime high-water mark of in-memory bytes (the pool's own
        #: ``pc_pool_peak_bytes``; nothing else writes it).
        self.peak_in_memory_bytes = 0
        if spill_dir is None:
            self._spill_dir = tempfile.mkdtemp(prefix="pc-spill-")
        else:
            os.makedirs(spill_dir, exist_ok=True)
            self._spill_dir = spill_dir
        self._spilled = {}  # page_id -> file path
        self._spill_checksums = {}  # page_id -> CRC32 of the spill file
        # Statistics live in the metrics registry; each pc_pool_* counter
        # mirrors into the active span by name (one increment, two readers).
        self.metrics = metrics if metrics is not None else \
            MetricsRegistry(tracer=self.tracer)
        self._c_pages_created = self.metrics.counter(
            "pc_pool_pages_created_total",
            help="Pages allocated or adopted into the buffer pool",
        )
        self._c_pins = self.metrics.counter(
            "pc_pool_pages_pinned_total",
            help="Pin operations (page touches)",
        )
        self._c_evictions = self.metrics.counter(
            "pc_pool_evictions_total",
            help="Evictions under memory pressure",
        )
        self._c_spills = self.metrics.counter(
            "pc_pool_spills_total",
            help="Dirty/unspilled pages written to the spill directory",
        )
        self._c_reloads = self.metrics.counter(
            "pc_pool_reloads_total",
            help="Spilled pages read back on demand",
        )
        self._c_reload_failures = self.metrics.counter(
            "pc_pool_reload_failures_total",
            help="Injected/real I/O faults reloading spilled pages",
        )
        self._c_checksum_failures = self.metrics.counter(
            "pc_pool_checksum_failures_total",
            help="Spilled pages failing their CRC32 on reload",
        )
        self._g_in_memory = self.metrics.gauge(
            "pc_pool_in_memory_bytes",
            help="Bytes currently resident in the pool",
        )
        self._g_capacity = self.metrics.gauge(
            "pc_pool_capacity_bytes", help="Pool byte budget",
        )
        self._g_pages = self.metrics.gauge(
            "pc_pool_pages", help="Pages known to the pool (any state)",
        )
        self._g_peak = self.metrics.gauge(
            "pc_pool_peak_bytes",
            help="Lifetime high-water mark of resident bytes",
        )
        self._g_shm = self.metrics.gauge(
            "pc_pool_shm_segments",
            help="Shared-memory segments currently backing resident pages",
        )
        self._g_graveyard = self.metrics.gauge(
            "pc_pool_graveyard_segments",
            help="Segments unlinked but still mapped because a handle "
                 "exports a view over them (memory beyond the budget)",
        )
        self._g_oversized = self.metrics.gauge(
            "pc_pool_oversized_sets",
            help="Named sets larger than the pool, evicted "
                 "most-recently-used instead of LRU",
        )
        self.metrics.on_collect(self._collect_gauges)

    def _collect_gauges(self):
        self._g_in_memory.set(self._in_memory_bytes)
        self._g_capacity.set(self.capacity_bytes)
        self._g_pages.set(len(self._pages))
        self._g_peak.set(self.peak_in_memory_bytes)
        self._g_shm.set(len(self._shm_segments))
        self._g_graveyard.set(len(self.parked_segments()))
        self._g_oversized.set(sum(
            1 for nbytes in self._set_bytes.values()
            if nbytes > self.capacity_bytes
        ))

    def _grow_resident(self, nbytes):
        self._in_memory_bytes += nbytes
        if self._in_memory_bytes > self.peak_in_memory_bytes:
            self.peak_in_memory_bytes = self._in_memory_bytes

    @property
    def reloads(self):
        """Kept for the frozen ``bench/probes.py``; everything else reads
        ``pc_pool_reloads_total`` off a metrics snapshot."""
        return self._c_reloads.value

    # -- shared-memory backing ----------------------------------------------------

    def _frame_for(self, page_id, block_size):
        """A frame for one page's block, mapped: a free one of its size,
        else a new named segment.  Returns ``(frame, buffer)``, the
        buffer sliced to exactly ``block_size`` (the kernel may round
        the segment up to whole VM pages)."""
        from multiprocessing import shared_memory

        frame = next((free for free in self._free_frames
                      if free.size == block_size), None)
        if frame is not None:
            self._free_frames.remove(frame)
        else:
            name = "%s-%d" % (self._shm_prefix, self._next_frame)
            self._next_frame += 1
            if self.shm_registry is not None:
                # Journaled *before* the segment exists (WAL discipline):
                # the registry must always be a superset of what is in
                # /dev/shm, so a kill between the two lines over-reports,
                # never leaks.
                self.shm_registry.note_create(name)
            frame = _Frame(shared_memory.SharedMemory(
                name=name, create=True, size=block_size,
            ))
        # Free frames give way to resident pages: together they stay
        # within the budget.
        while self._free_frames and self._in_memory_bytes + block_size + sum(
                free.size for free in self._free_frames) > self.capacity_bytes:
            _retire_frame(self._free_frames.pop(0), self.shm_registry)
        self._shm_segments[page_id] = frame
        return frame, frame.map(block_size)

    def _reconstitute_page(self, page_id, data, set_key):
        """Page from shipped/spilled bytes, honoring the residency mode.

        The caller has already made room for the block (its size is the
        first field of ``data``'s header), so the pool never holds a
        segment it has no budget for.
        """
        if self.residency != "shm":
            return Page.from_bytes(
                page_id, data, registry=self.registry, set_key=set_key,
                metrics=self.metrics,
            )
        block_size = layout.unpack_block_header(data)[0]
        frame, buf = self._frame_for(page_id, block_size)
        try:
            buf[: len(data)] = data
            block = AllocationBlock.from_buffer(
                buf, registry=self.registry, metrics=self.metrics,
            )
        except BaseException:
            # Don't leak the named segment.
            self._shm_segments.pop(page_id, None)
            del buf
            _retire_frame(frame, self.shm_registry)
            raise
        page = Page(page_id, block, set_key=set_key)
        page.shm = frame
        return page

    def parked_segments(self):
        """This pool's segments in the graveyard, longest untried first."""
        mine = self._shm_prefix + "-"
        return [frame for frame in _GRAVEYARD if frame.name.startswith(mine)]

    def _drop_block(self, page, evicted=False):
        """Detach a page's block and unmap its frame: an evicted page's
        frame is free for the next page once its mapping closes; a freed
        page's — or one a view still exports (a facade somewhere reads
        it; parked, and closed once the view dies) — is retired."""
        page.block = None
        frame = page.shm
        if frame is None:
            return
        page.shm = None
        self._shm_segments.pop(page.page_id, None)
        _sweep_graveyard(_GRAVEYARD_RETRIES_PER_DROP)
        if evicted:
            try:
                frame.close()
            except BufferError:  # pcsan: disable=PC005
                pass  # still exported: retired below
            else:
                self._free_frames.append(frame)
                return
        _retire_frame(frame, self.shm_registry)

    def close(self):
        """Release every shared-memory segment this pool still owns."""
        for page in self._pages.values():
            if page.shm is not None:
                size = page.size
                self._drop_block(page)
                self._in_memory_bytes -= size
        while self._free_frames:
            _retire_frame(self._free_frames.pop(), self.shm_registry)
        _sweep_graveyard()

    # -- page lifecycle -----------------------------------------------------------

    def adopt_page(self, data, set_key=None, allocations=0):
        """Install bytes that arrived from the network as a pinned page
        (built elsewhere by ``allocations`` object allocations)."""
        page_id = self._next_page_id
        self._next_page_id += 1
        # The shipped bytes are a used-prefix; the reconstituted block
        # occupies its full declared size, so budget for that, not for
        # len(data) — and before the block (a named segment, under shm
        # residency) exists.
        self._make_room(layout.unpack_block_header(data)[0])
        page = self._reconstitute_page(page_id, data, set_key)
        page.block.book_allocations(allocations)
        self._install(page)
        return page

    def _install(self, page):
        """Book a just-built page: pinned once, resident, in its set's tally."""
        page.pin_count = 1
        self._pages[page.page_id] = page
        self._grow_resident(page.nbytes)
        if page.set_key is not None:
            self._set_bytes[page.set_key] = \
                self._set_bytes.get(page.set_key, 0) + page.nbytes
        self._c_pages_created.inc()

    def pin(self, page_id):
        """Pin a page, reloading it from spill if necessary."""
        page = self._pages.get(page_id)
        if page is None:
            raise StorageError("unknown page id %d" % page_id)
        if not page.in_memory:
            self._reload(page)
        page.pin_count += 1
        self._lru.pop(page_id, None)
        self._c_pins.inc()
        return page

    def unpin(self, page_id, dirty=False):
        """Release one pin; the page becomes evictable at zero pins."""
        page = self._pages.get(page_id)
        if page is None:
            raise StorageError("unknown page id %d" % page_id)
        if page.pin_count <= 0:
            raise StorageError("unpin of unpinned page %d" % page_id)
        if dirty:
            page.dirty = True
        page.pin_count -= 1
        if page.pin_count == 0:
            self._lru[page_id] = None
            # Anonymous pages are in no set and so never oversized.
            if self._set_bytes.get(page.set_key, 0) > self.capacity_bytes:
                # The set cannot stay resident and is only ever read by
                # a catalog-order scan, which needs this page again
                # after every other one: evict it first, so the scan
                # keeps what fits.
                self._lru.move_to_end(page_id, last=False)

    def resident(self, page_id):
        """Whether ``page_id``'s bytes are in memory: pinning it costs no
        reload."""
        page = self._pages.get(page_id)
        return page is not None and page.in_memory

    def pinned_pages(self):
        """``{page_id: pin_count}`` for every currently pinned page.

        PCSan snapshots this before a job and diffs it afterwards to
        detect pin leaks (pages pinned during the job and never unpinned).
        """
        return {
            page_id: page.pin_count
            for page_id, page in self._pages.items()
            if page.pin_count > 0
        }

    def free_page(self, page_id):
        """Drop a page entirely (its set was cleared or it was temporary)."""
        page = self._pages.pop(page_id, None)
        if page is None:
            return
        block = getattr(page, "block", None)
        shadow = getattr(block, "_san", None) if block is not None else None
        if shadow is not None:
            shadow.retire("page %d freed" % page_id)
        self._lru.pop(page_id, None)
        if page.set_key is not None:
            remaining = self._set_bytes[page.set_key] - page.nbytes
            if remaining:
                self._set_bytes[page.set_key] = remaining
            else:
                del self._set_bytes[page.set_key]
        if page.in_memory:
            self._in_memory_bytes -= page.size
            self._drop_block(page)
        self._spill_checksums.pop(page_id, None)
        path = self._spilled.pop(page_id, None)
        if path is not None and os.path.exists(path):
            os.unlink(path)

    # -- eviction / spill ------------------------------------------------------------

    def _make_room(self, needed):
        while self._in_memory_bytes + needed > self.capacity_bytes:
            if not self._lru:
                raise BufferPoolExhaustedError(
                    "need %d bytes but all %d bytes are pinned"
                    % (needed, self._in_memory_bytes)
                )
            victim_id, _none = self._lru.popitem(last=False)
            self._evict(self._pages[victim_id])

    def _evict(self, page):
        self._c_evictions.inc()
        if page.dirty or page.page_id not in self._spilled:
            path = os.path.join(self._spill_dir, "page-%d" % page.page_id)
            data = page.to_bytes()
            with open(path, "wb") as f:
                f.write(data)
            self._spilled[page.page_id] = path
            self._spill_checksums[page.page_id] = page_checksum(data)
            self._c_spills.inc()
            page.dirty = False
        self._in_memory_bytes -= page.size
        self._drop_block(page, evicted=True)

    def _reload(self, page):
        path = self._spilled.get(page.page_id)
        if path is None:
            raise StorageError(
                "page %d is neither in memory nor spilled" % page.page_id
            )
        if (
            self.fault_injector is not None
            and self.fault_injector.should_fail_reload(page.page_id)
        ):
            # The spill file is untouched, so a later pin can retry the
            # reload — inside a job the scheduler's stage retry does.
            self._c_reload_failures.inc()
            raise PageReloadError(
                "injected I/O fault reloading spilled page %d" % page.page_id
            )
        # Guard against re-entrancy: if the page still sits in the LRU
        # (pin_count 0, bytes dropped), _make_room below could pick it as
        # its own eviction victim — double-decrementing the budget and
        # crashing on to_bytes() of a block-less page.
        self._lru.pop(page.page_id, None)
        with open(path, "rb") as f:
            data = f.read()
        if (
            self.fault_injector is not None
            and self.fault_injector.should_corrupt_page(page.page_id)
        ):
            # A corrupted spill file is *sticky*: write the damage back so
            # a plain retry keeps failing until the replication layer
            # heals the copy from a healthy replica.
            data = corrupt_bytes(data)
            with open(path, "wb") as f:
                f.write(data)
        expected = self._spill_checksums.get(page.page_id)
        if expected is not None and page_checksum(data) != expected:
            self._c_checksum_failures.inc()
            raise PageCorruptionError(
                "spilled page %d failed its CRC32 check on reload"
                % page.page_id
            )
        # Spill files hold a block's used-prefix, which can be far
        # smaller than the block it reconstitutes into; budget the real
        # in-memory footprint, not the file size, and evict for it
        # before the block exists.
        self._make_room(page.nbytes)
        reloaded = self._reconstitute_page(page.page_id, data, page.set_key)
        page.block = reloaded.block
        page.shm = reloaded.shm
        self._grow_resident(page.nbytes)
        self._c_reloads.inc()

    # -- introspection ------------------------------------------------------------------

    @property
    def in_memory_bytes(self):
        return self._in_memory_bytes
