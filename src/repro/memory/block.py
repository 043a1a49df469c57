"""Allocation blocks: the page-as-a-heap allocator.

An :class:`AllocationBlock` wraps a ``bytearray`` and hands out object
allocations from it (Section 6.1 / 6.4 of the paper).  Blocks come in three
flavours, mirroring the paper exactly:

* the single **active** block of a thread, receiving all ``make_object``
  calls;
* **inactive, managed** blocks: previously-active blocks still holding
  reachable objects; they are reference counted and are reclaimed as a
  whole once their active-object counter drops to zero;
* **inactive, un-managed** blocks: pages loaded from storage or the
  network; no reference counting happens on them, the execution engine
  (buffer pool) owns their lifetime.

Three *allocator policies* (Appendix B) control what "deallocate" means
inside a block:

* ``LIGHTWEIGHT_REUSE`` (default): freed space goes into power-of-two
  freelist buckets and is handed out again;
* ``NO_REUSE``: classic region allocation — freed space is abandoned, the
  bump pointer only moves forward;
* ``RECYCLING``: layered on lightweight reuse; freed *fixed-length* objects
  are kept on per-type-code recycle lists and handed back verbatim to the
  next ``make_object`` of the same type.

The bytes of the block are the only authoritative object representation:
:meth:`AllocationBlock.to_bytes` / :meth:`AllocationBlock.from_bytes`
implement the paper's zero-cost data movement — a straight memory copy
with no per-object work.
"""

from __future__ import annotations

import itertools
import struct
import zlib

from repro.analysis.sanitizer import current_sanitizer
from repro.errors import BlockFullError, DanglingHandleError
from repro.memory import layout
from repro.memory.layout import (
    ALLOC_STATE,
    ALLOC_STATE_OFFSET,
    BLOCK_HEADER_SIZE,
    OBJECT_HEADER,
    OBJECT_HEADER_SIZE,
    REFCOUNT_FREED,
    REFCOUNT_UNIQUE,
)

#: Allocator policies (block level, Appendix B).
LIGHTWEIGHT_REUSE = 0
NO_REUSE = 1
RECYCLING = 2

_POLICY_NAMES = {
    LIGHTWEIGHT_REUSE: "lightweight-reuse",
    NO_REUSE: "no-reuse",
    RECYCLING: "recycling",
}

#: Per-object policies (Appendix B).
FULL_REF_COUNT = "full_ref_count"
NO_REF_COUNT = "no_ref_count"
UNIQUE_OWNERSHIP = "unique_ownership"

_FREE_CHUNK = struct.Struct("<qQ")  # next free chunk offset (-1 = end), size
_FREE_NEXT = struct.Struct("<q")  # the record's first field alone

_block_ids = itertools.count(1)


def _chunk_size(payload_size):
    """Bytes an object with ``payload_size`` payload bytes occupies.

    At least 24, so a freed object can hold both its tombstone
    (refcount/typecode) and the freelist record that follows them.
    """
    total = (OBJECT_HEADER_SIZE + payload_size + 7) & ~7
    return total if total > 24 else 24


def _bucket_for(total):
    """The freelist size class of a ``total``-byte chunk."""
    bucket = total.bit_length() - 1
    return bucket if bucket > 4 else 4


class AllocationBlock:
    """A contiguous region of bytes that PC objects are allocated into."""

    __slots__ = (
        "buf",
        "block_id",
        "size",
        "policy",
        "managed",
        "on_empty",
        "_free_buckets",
        "_free_mask",
        "_recycle_lists",
        "registry",
        "freed_bytes",
        "alloc_count",
        "free_count",
        "metrics",
        "_m_allocs",
        "_m_frees",
        "_san",
        "__weakref__",
    )

    def __init__(self, size, policy=LIGHTWEIGHT_REUSE, registry=None,
                 managed=True, buf=None, on_empty=None, metrics=None):
        if buf is None:
            if size < BLOCK_HEADER_SIZE + OBJECT_HEADER_SIZE:
                raise ValueError("block size %d too small" % size)
            buf = bytearray(size)
            layout.pack_block_header(buf, size, BLOCK_HEADER_SIZE, 0, policy)
            layout.write_handle_slot(buf, layout.ROOT_HANDLE_OFFSET, None, 0)
        self.buf = buf
        self.block_id = next(_block_ids)
        self.size = size
        self.policy = policy
        #: managed blocks maintain refcounts / active-object counters; pages
        #: arriving from storage or network are un-managed (Section 6.4).
        self.managed = managed
        #: callback fired when the active-object count of a managed block
        #: falls to zero (the whole-block reclamation of Section 6.4).
        self.on_empty = on_empty
        self._free_buckets = [-1] * 64  # head offsets of per-size freelists
        #: bit b is set exactly when ``_free_buckets[b] != -1``, so finding
        #: the first non-empty size class is one shift and mask, not a scan.
        self._free_mask = 0
        self._recycle_lists = {}  # type code -> [offsets]
        self.registry = registry
        self.freed_bytes = 0
        self.alloc_count = 0
        self.free_count = 0
        # Optional *aggregate* allocator metrics (a MetricsRegistry).  The
        # per-block counters above stay exact plain ints — stats() is the
        # per-block view, the registry sums allocator work pool-wide.
        self.metrics = metrics
        if metrics is not None:
            self._m_allocs = metrics.counter(
                "pc_alloc_allocations_total",
                help="Objects allocated across all blocks").child()
            self._m_frees = metrics.counter(
                "pc_alloc_frees_total",
                help="Objects freed across all blocks").child()
            metrics.counter(
                "pc_alloc_blocks_total",
                help="Allocation blocks created").inc()
        else:
            self._m_allocs = None
            self._m_frees = None
        # PCSan: blocks created while the sanitizer is active carry a
        # shadow (generations, poison map, shadow refcounts); otherwise
        # every hook site below is one `is not None` test.
        san = current_sanitizer()
        self._san = san.watch_block(self) if san is not None else None

    # -- introspection ------------------------------------------------------

    @property
    def used(self):
        """Current bump-pointer position."""
        return layout.read_used(self.buf)

    @property
    def active_objects(self):
        """Number of live reference-counted objects on this block."""
        return layout.read_active_objects(self.buf)

    @property
    def bump_only(self):
        """True while the next allocations are bumps of the pointer: no
        free chunk can be handed out (``RECYCLING`` may hand out a
        recycled slot at any time)."""
        return self.policy == NO_REUSE or (
            self.policy == LIGHTWEIGHT_REUSE and not self._free_mask
        )

    @property
    def policy_name(self):
        """Human-readable allocator policy name."""
        return _POLICY_NAMES[self.policy]

    def __repr__(self):
        return "<AllocationBlock #%d %s used=%d/%d objects=%d>" % (
            self.block_id,
            self.policy_name,
            self.used,
            self.size,
            self.active_objects,
        )

    # -- root handle --------------------------------------------------------

    def set_root(self, offset, type_code):
        """Record the block's root object so shipped pages are self-describing."""
        layout.write_handle_slot(
            self.buf, layout.ROOT_HANDLE_OFFSET, offset, type_code
        )

    def root(self):
        """Return ``(offset, type_code)`` of the root object, or (None, 0)."""
        return layout.read_handle_slot(self.buf, layout.ROOT_HANDLE_OFFSET)

    # -- allocation ---------------------------------------------------------

    def allocate(self, payload_size, type_code, refcount=0):
        """Allocate an object with ``payload_size`` bytes of payload.

        Returns the absolute offset of the object header.  Raises
        :class:`BlockFullError` when the request does not fit — the caller
        (typically the execution engine) reacts by retiring the page.
        """
        total = _chunk_size(payload_size)
        buf = self.buf
        policy = self.policy
        offset = None
        if policy == RECYCLING:
            recycled = self._recycle_lists.get(type_code)
            if recycled:
                offset = recycled.pop()
                # Recycled slots are exact-fit by construction (fixed-length
                # objects only join a recycle list).
        if offset is None and policy != NO_REUSE and self._free_mask:
            offset = self._take_from_freelist(total)
        used, active = ALLOC_STATE.unpack_from(buf, ALLOC_STATE_OFFSET)
        if offset is None:
            if used + total > self.size:
                raise BlockFullError(total, self.size - used)
            offset = used
            used += total
        if self.managed and refcount >= 0:
            active += 1
        ALLOC_STATE.pack_into(buf, ALLOC_STATE_OFFSET, used, active)
        if self._san is not None:
            # Verify the reused chunk's poison survived (wild-write check)
            # before the header/zeroing below overwrites it.
            self._san.on_alloc(offset, type_code, refcount)
        OBJECT_HEADER.pack_into(buf, offset, refcount, type_code, payload_size)
        # Zero the payload: recycled/reused space may hold stale bytes and
        # handle slots must start out null.
        start = offset + OBJECT_HEADER_SIZE
        buf[start:start + payload_size] = bytes(payload_size)
        self.alloc_count += 1
        if self._m_allocs is not None:
            self._m_allocs.inc()
        return offset

    def bump(self, total, objects):
        """Take ``total`` bytes at the bump pointer for ``objects``
        reference-counted objects the caller lays out and writes itself
        (a planned build, :mod:`repro.memory.scatter`): what
        :meth:`allocate` does to ``used``, ``active_objects`` and the
        allocation counts, once for all of them."""
        buf = self.buf
        used, active = ALLOC_STATE.unpack_from(buf, ALLOC_STATE_OFFSET)
        if used + total > self.size:
            raise BlockFullError(total, self.size - used)
        if self.managed:
            active += objects
        ALLOC_STATE.pack_into(buf, ALLOC_STATE_OFFSET, used + total, active)
        self.book_allocations(objects)

    def _take_from_freelist(self, total):
        """Pop a free chunk large enough for ``total`` bytes, or None.

        Size class b holds chunks of [2**b, 2**(b+1)) bytes.  Only the
        request's own class can hold a chunk that is too small, so that
        list is walked first-fit; the head of any higher class fits, and
        ``_free_mask`` names the lowest non-empty one directly.

        Free-chunk records live 8 bytes into the chunk so the freed
        object's tombstone (refcount + type code) stays intact for
        dangling-handle detection.
        """
        bucket = _bucket_for(total)
        higher = self._free_mask >> bucket
        if not higher:
            return None
        buf = self.buf
        heads = self._free_buckets
        if higher & 1:
            prev = None
            head = heads[bucket]
            while head != -1:
                nxt, chunk_size = _FREE_CHUNK.unpack_from(buf, head + 8)
                if chunk_size >= total:
                    if prev is None:
                        self._set_head(bucket, nxt)
                    else:
                        _FREE_NEXT.pack_into(buf, prev + 8, nxt)
                    self.freed_bytes -= chunk_size
                    return head
                prev, head = head, nxt
        higher &= ~1
        if not higher:
            return None
        bucket += (higher & -higher).bit_length() - 1
        head = heads[bucket]
        nxt, chunk_size = _FREE_CHUNK.unpack_from(buf, head + 8)
        self._set_head(bucket, nxt)
        self.freed_bytes -= chunk_size
        return head

    def _set_head(self, bucket, head):
        """Repoint a size class at ``head``, keeping ``_free_mask`` in step."""
        self._free_buckets[bucket] = head
        if head == -1:
            self._free_mask &= ~(1 << bucket)
        else:
            self._free_mask |= 1 << bucket

    # -- deallocation -------------------------------------------------------

    def free_object(self, offset, recycle_type_code=None):
        """Release the storage of the object at ``offset``.

        The caller is responsible for having already released embedded
        handles (see :func:`repro.memory.objects.destroy_object`).  What
        happens to the bytes depends on the block policy.
        """
        refcount, type_code, payload_size = layout.read_object_header(
            self.buf, offset
        )
        if refcount == REFCOUNT_FREED:
            raise DanglingHandleError(
                "object at offset %d was already freed" % offset
            )
        total = _chunk_size(payload_size)
        layout.write_refcount(self.buf, offset, REFCOUNT_FREED)
        self.free_count += 1
        if self._m_frees is not None:
            self._m_frees.inc()
        if self.managed and refcount >= 0:
            remaining = self.active_objects - 1
            layout.write_active_objects(self.buf, remaining)
            if remaining == 0 and self.on_empty is not None:
                self.on_empty(self)
        if self._san is not None:
            # Poison past the tombstone + freelist record; bumps the
            # offset's generation so stale handles fail deref.
            self._san.on_free(offset, total)
        if self.policy == NO_REUSE:
            self.freed_bytes += total
            return
        if self.policy == RECYCLING and recycle_type_code is not None:
            self._recycle_lists.setdefault(recycle_type_code, []).append(offset)
            return
        self._add_to_freelist(offset, total)

    def _add_to_freelist(self, offset, total):
        bucket = _bucket_for(total)
        # The record sits past the 8-byte tombstone; every chunk is at
        # least 24 bytes (see allocate), so the record always fits.
        _FREE_CHUNK.pack_into(
            self.buf, offset + 8, self._free_buckets[bucket], total
        )
        self._set_head(bucket, offset)
        self.freed_bytes += total

    # -- refcount plumbing ---------------------------------------------------

    def refcount_of(self, offset):
        """Raw refcount field of the object at ``offset``."""
        return layout.read_refcount(self.buf, offset)

    def retain(self, offset):
        """Increment the refcount of the object at ``offset``.

        Un-managed blocks, uncounted objects, and uniquely-owned objects
        are left untouched, mirroring Section 6.5: a block is only managed
        by its home thread, so cross-thread copies never touch counters.
        """
        if not self.managed:
            return
        refcount = layout.read_refcount(self.buf, offset)
        if refcount == REFCOUNT_FREED:
            raise DanglingHandleError(
                "retain of freed object at offset %d" % offset
            )
        if refcount < 0:
            return
        if self._san is not None:
            self._san.on_refcount(offset, refcount, refcount + 1)
        layout.write_refcount(self.buf, offset, refcount + 1)

    def release(self, offset):
        """Decrement the refcount; returns True when it hit zero.

        The caller is expected to destroy the object (releasing embedded
        handles first) when this returns True.
        """
        if not self.managed:
            return False
        refcount = layout.read_refcount(self.buf, offset)
        if refcount == REFCOUNT_FREED:
            raise DanglingHandleError(
                "release of freed object at offset %d" % offset
            )
        if refcount == REFCOUNT_UNIQUE:
            return True
        if refcount < 0:
            return False
        if refcount == 0:
            raise DanglingHandleError(
                "refcount underflow at offset %d" % offset
            )
        if self._san is not None:
            self._san.on_refcount(offset, refcount, refcount - 1)
        refcount -= 1
        layout.write_refcount(self.buf, offset, refcount)
        return refcount == 0

    # -- zero-cost movement ---------------------------------------------------

    def to_bytes(self):
        """The block's entire representation as immutable bytes.

        This is the paper's zero-cost data movement: no per-object work,
        just one memory copy of the occupied prefix (plus header).
        """
        if self._san is not None:
            self._san.on_seal()
        return bytes(self.buf[: self.used])

    def checksum(self):
        """The CRC32 of :meth:`to_bytes`, computed in place over the
        occupied prefix — nothing is copied."""
        with memoryview(self.buf) as whole, whole[: self.used] as prefix:
            return zlib.crc32(prefix) & 0xFFFFFFFF

    @classmethod
    def from_bytes(cls, data, registry=None, managed=False, metrics=None):
        """Reconstitute a block shipped from another process.

        The returned block is *un-managed* by default — exactly the
        "inactive, un-managed" category of Section 6.4: pages arriving
        from disk or network are owned by the buffer pool, not the object
        model.
        """
        block_size, used, active, policy = layout.unpack_block_header(data)
        buf = bytearray(block_size)
        buf[: len(data)] = data
        block = cls(
            block_size,
            policy=policy,
            registry=registry,
            managed=managed,
            buf=buf,
            metrics=metrics,
        )
        return block

    @classmethod
    def from_buffer(cls, buf, registry=None, managed=False, metrics=None):
        """Wrap an existing writable buffer *without copying it*.

        This is how a back-end process attaches to a sealed page that
        lives in shared memory: the buffer (a ``memoryview`` over the
        mapped segment) becomes the block's storage verbatim, so the page
        is readable with zero (de)serialization.  The caller must hand in
        a buffer whose length equals the block size in its header.
        """
        block_size, _used, _active, policy = layout.unpack_block_header(buf)
        if len(buf) != block_size:
            raise ValueError(
                "buffer length %d does not match block size %d"
                % (len(buf), block_size)
            )
        return cls(
            block_size,
            policy=policy,
            registry=registry,
            managed=managed,
            buf=buf,
            metrics=metrics,
        )

    def book_allocations(self, count):
        """Count allocator work done on this block's bytes before they
        were reconstituted here — a page a task built on a private block,
        adopted by the pool whose metrics this block reports to."""
        self.alloc_count += count
        if self._m_allocs is not None:
            self._m_allocs.inc(count)

    def stats(self):
        """Allocator statistics, used by the ablation benchmarks."""
        return {
            "block_id": self.block_id,
            "policy": self.policy_name,
            "size": self.size,
            "used": self.used,
            "freed_bytes": self.freed_bytes,
            "active_objects": self.active_objects,
            "alloc_count": self.alloc_count,
            "free_count": self.free_count,
        }
