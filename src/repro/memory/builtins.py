"""Built-in PC object types: String, Array, Vector, and Map.

These are the generic container types of Section 6.1.  Every instantiation
(``VectorType(Float64)``, ``MapType(String, Int32)``, ...) is registered as
its own type code, mirroring C++ template instantiation: the element
accessors of each instantiation are specialized closures with no per-object
dispatch.

Layouts (all little-endian, offsets relative to the object's payload):

* ``String``  — ``uint32 length`` + UTF-8 bytes.  Strings deliberately do
  *not* cache their hash value (Section 8.4.3 calls this out as a PC design
  choice that keeps them small at some CPU cost).
* ``Array<T>`` — ``capacity`` tightly packed element slots; the capacity is
  implied by the payload size.  Arrays back vectors and map buckets and are
  never recycled (they are the paper's variable-length internal type).
* ``Vector<T>`` — ``uint64 count`` + handle to a backing ``Array<T>``.
* ``Map<K,V>`` — ``uint64 count`` + handle to a bucket ``Array``; open
  addressing with linear probing over
  ``(occupied:u8, pad:7, hash:u64, K slot, V slot)`` entries.
"""

from __future__ import annotations

import struct
from functools import lru_cache
from itertools import islice

import numpy as np

from repro.errors import BlockFullError, ObjectModelError
from repro.memory import layout
from repro.memory.handle import Handle
from repro.memory.layout import (
    HANDLE_STRUCT,
    OBJECT_HEADER,
    OBJECT_HEADER_SIZE,
    align8,
)
from repro.memory.objects import (
    ObjectTypeDescriptor,
    as_descriptor,
    copy_handle_slot,
    release_reference,
)
from repro.memory.types import numpy_dtype_for

_U32 = struct.Struct("<I")
_U64 = struct.Struct("<Q")
_FNV_OFFSET = 0xCBF29CE484222325
_FNV_PRIME = 0x100000001B3
_HASH_MASK = (1 << 64) - 1


@lru_cache(maxsize=1 << 16)
def _string_hash(value):
    """FNV-1a over the UTF-8 bytes of ``value``.

    The loop runs in the interpreter, one step per byte, and an
    aggregation hashes the same few thousand keys on every op — hence
    the (bounded) memo.
    """
    h = _FNV_OFFSET
    for byte in value.encode("utf-8"):
        h ^= byte
        h = (h * _FNV_PRIME) & _HASH_MASK
    return h


def stable_hash(value):
    """A deterministic 64-bit hash usable across processes and runs.

    Python's built-in ``hash`` for strings is randomized per process; PC
    hashes must stay valid when a page full of hashed entries is shipped to
    another (simulated) process, so strings use FNV-1a instead.
    """
    if isinstance(value, str):
        return _string_hash(value)
    if isinstance(value, bool):
        return int(value)
    if isinstance(value, (int, np.integer)):
        return int(value) & _HASH_MASK
    if isinstance(value, (float, np.floating)):
        return hash(float(value)) & _HASH_MASK
    if isinstance(value, tuple):
        h = _FNV_OFFSET
        for item in value:
            h ^= stable_hash(item)
            h = (h * _FNV_PRIME) & _HASH_MASK
        return h
    raise ObjectModelError("unhashable PC map key: %r" % (value,))


# Building a container from a host value follows one rule — size once,
# write once: the backing array or bucket table is allocated a single time
# from ``len(value)``, primitive runs are encoded with one codec call, and
# everything that does not depend on the value (type codes, element
# writers) is resolved once per build through ``builder()`` /
# ``slot_writer()``, not once per allocation.


# ---------------------------------------------------------------------------
# String
# ---------------------------------------------------------------------------

class StringType(ObjectTypeDescriptor):
    """UTF-8 string object.  Slots decode straight to Python ``str``."""

    name = "string"
    FIXED_CODE = 1

    def facade(self, block, offset):
        payload = offset + OBJECT_HEADER_SIZE
        length = _U32.unpack_from(block.buf, payload)[0]
        start = payload + 4
        return bytes(block.buf[start:start + length]).decode("utf-8")

    def _slot_value(self, block, target_offset, type_code):
        return self.facade(block, target_offset)

    def builder(self, block):
        code = self.type_code(block)
        allocate = block.allocate
        buf = block.buf

        def build(value):
            if not isinstance(value, str):
                raise ObjectModelError("expected str, got %r" % (value,))
            encoded = value.encode("utf-8")
            length = len(encoded)
            offset = allocate(4 + length, code)
            start = offset + OBJECT_HEADER_SIZE + 4
            _U32.pack_into(buf, start - 4, length)
            buf[start:start + length] = encoded
            return offset

        return build

    def allocate_value(self, block, value):
        return self.builder(block)(value)


String = StringType()


# ---------------------------------------------------------------------------
# Array<T>
# ---------------------------------------------------------------------------

class ArrayType(ObjectTypeDescriptor):
    """Raw element storage backing vectors and map buckets."""

    def __init__(self, elem):
        self.elem = as_descriptor(elem)
        self.name = "array<%s>" % self.elem.name

    def facade(self, block, offset):
        return ArrayFacade(block, offset, self)

    def dependents(self):
        return [self.elem]

    def allocate_value(self, block, capacity):
        payload = capacity * self.elem.slot_size
        return block.allocate(payload, self.type_code(block))

    def capacity_of(self, block, offset):
        """Number of element slots, derived from the payload size."""
        payload_size = layout.read_object_header(block.buf, offset)[2]
        return payload_size // self.elem.slot_size

    def destroy_payload(self, block, payload_offset, payload_size):
        if not self.elem.is_object_type:
            return
        slot = payload_offset
        end = payload_offset + payload_size
        while slot < end:
            target, _code = layout.read_handle_slot(block.buf, slot)
            if target is not None:
                release_reference(block, target)
            slot += self.elem.slot_size
        # Null every slot so a recycled/zombie array cannot double-release.
        block.buf[payload_offset:end] = bytes(payload_size)

    def rewrite_handles(self, src_block, src_payload, dst_block, dst_payload,
                        payload_size, memo):
        if not self.elem.is_object_type:
            return
        step = self.elem.slot_size
        for delta in range(0, payload_size - payload_size % step, step):
            copy_handle_slot(src_block, src_payload + delta,
                             dst_block, dst_payload + delta, memo)


def _move_handle(buf, src_slot, dst_slot):
    """Re-encode one handle slot at ``dst_slot`` of the same block.

    The target stays put, so only the slot-relative delta changes and no
    refcount traffic is needed; the source slot is left as it was.
    """
    delta, code = HANDLE_STRUCT.unpack_from(buf, src_slot)
    if delta:
        HANDLE_STRUCT.pack_into(
            buf, dst_slot, delta + src_slot - dst_slot, code
        )


def _link_backing(block, slot, new_offset, code, old_offset):
    """Point a container's backing-store ``slot`` at ``new_offset``.

    The caller has moved the live slots over and zeroed the old store,
    so releasing it cannot release the transferred targets.
    """
    block.retain(new_offset)
    HANDLE_STRUCT.pack_into(block.buf, slot, new_offset - slot, code)
    if old_offset is not None:
        release_reference(block, old_offset)


class ArrayFacade:
    """Typed element view over an Array<T> object (internal helper)."""

    __slots__ = ("pc_block", "pc_offset", "descriptor")

    def __init__(self, block, offset, descriptor):
        self.pc_block = block
        self.pc_offset = offset
        self.descriptor = descriptor

    def _slot(self, index):
        return (
            self.pc_offset
            + OBJECT_HEADER_SIZE
            + index * self.descriptor.elem.slot_size
        )

    def __len__(self):
        return self.descriptor.capacity_of(self.pc_block, self.pc_offset)

    def __getitem__(self, index):
        return self.descriptor.elem.read_slot(self.pc_block, self._slot(index))

    def __setitem__(self, index, value):
        self.descriptor.elem.write_slot(self.pc_block, self._slot(index), value)


# ---------------------------------------------------------------------------
# Vector<T>
# ---------------------------------------------------------------------------

# Vector and Map payloads alike: ``uint64 count`` + the handle slot of the
# backing array / bucket table.
_COUNT = 0
_BACKING = 8
_CONTAINER_HEADER = struct.Struct("<QqI")


def _container_state(buf, payload, unit):
    """``(count, backing, capacity)`` of the Vector or Map at ``payload``.

    ``backing`` is the offset of the backing array / bucket table object
    (None before the first insert) and ``capacity`` how many ``unit``-byte
    slots or entries it holds.  Callers read this once per operation and
    address elements from it, not once per element.
    """
    count, delta, _code = _CONTAINER_HEADER.unpack_from(buf, payload)
    if not delta:
        return count, None, 0
    backing = payload + _BACKING + delta
    return count, backing, OBJECT_HEADER.unpack_from(buf, backing)[2] // unit


class VectorType(ObjectTypeDescriptor):
    """Growable sequence of ``T`` stored entirely on one block."""

    def __init__(self, elem):
        self.elem = as_descriptor(elem)
        self.name = "vector<%s>" % self.elem.name
        self.array_type = ArrayType(self.elem)
        self.fixed_payload = align8(_BACKING + layout.HANDLE_SLOT_SIZE)

    def facade(self, block, offset):
        return VectorFacade(block, offset, self)

    def dependents(self):
        return [self.elem, self.array_type]

    def _slot_value(self, block, target_offset, type_code):
        return self.facade(block, target_offset)

    def builder(self, block):
        code = self.type_code(block)
        allocate = block.allocate
        fixed_payload = self.fixed_payload
        extend = self.extender(block)

        def build(value):
            offset = allocate(fixed_payload, code)
            if value is not None:
                extend(offset, value)
            return offset

        return build

    def allocate_value(self, block, value):
        return self.builder(block)(value)

    def extender(self, block):
        """``extend(offset, values)``: append to the vector at ``offset``.

        One pass: the backing array is (re)allocated at most once — at
        exactly the needed size when the vector has none yet — and the
        values land in it as one run.  Numeric numpy input is blitted
        straight into the page (the write-side counterpart of
        :meth:`VectorFacade.as_numpy`), so filling a MatrixBlock never
        loops in Python.  If an element allocation faults on a full
        block, the elements written so far stay appended.
        """
        elem = self.elem
        slot_size = elem.slot_size
        buf = block.buf
        dtype = numpy_dtype_for(elem)
        array_code = self.array_type.type_code(block)
        write = elem.slot_writer(block) if elem.is_object_type else None

        def extend(offset, values):
            blit = dtype is not None and isinstance(values, np.ndarray)
            if blit:
                values = np.ascontiguousarray(values, dtype=dtype).reshape(-1)
            elif not isinstance(values, (list, tuple)):
                values = list(values)
            added = len(values)
            if not added:
                return
            payload = offset + OBJECT_HEADER_SIZE
            count, array, capacity = _container_state(buf, payload, slot_size)
            if count + added > capacity:
                array = self.regrow(
                    block, payload, array, count,
                    max(capacity * 2, count + added), array_code,
                )
            start = array + OBJECT_HEADER_SIZE + count * slot_size
            written = 0
            try:
                if blit:
                    buf[start:start + added * slot_size] = values.tobytes()
                    written = added
                elif write is None:
                    elem.write_run(buf, start, values)
                    written = added
                else:
                    for value in values:
                        write(start + written * slot_size, value)
                        written += 1
            finally:
                _U64.pack_into(buf, payload, count + written)

        return extend

    def regrow(self, block, payload, old_array, count, capacity, array_code):
        """Move ``count`` elements into a new ``capacity``-slot backing array.

        Returns the new array's offset; the vector at ``payload`` points
        at it and the old array (if any) is released.
        """
        buf = block.buf
        slot_size = self.elem.slot_size
        new_array = block.allocate(capacity * slot_size, array_code)
        if old_array is not None:
            src = old_array + OBJECT_HEADER_SIZE
            dst = new_array + OBJECT_HEADER_SIZE
            nbytes = count * slot_size
            if self.elem.is_object_type:
                for at in range(0, nbytes, slot_size):
                    _move_handle(buf, src + at, dst + at)
            else:
                buf[dst:dst + nbytes] = buf[src:src + nbytes]
            buf[src:src + nbytes] = bytes(nbytes)
        _link_backing(block, payload + _BACKING, new_array, array_code,
                      old_array)
        return new_array

    def destroy_payload(self, block, payload_offset, payload_size):
        slot = payload_offset + _BACKING
        target, _code = layout.read_handle_slot(block.buf, slot)
        if target is not None:
            release_reference(block, target)
            layout.write_handle_slot(block.buf, slot, None, 0)

    def rewrite_handles(self, src_block, src_payload, dst_block, dst_payload,
                        payload_size, memo):
        copy_handle_slot(src_block, src_payload + _BACKING,
                         dst_block, dst_payload + _BACKING, memo)


class VectorFacade:
    """List-like view over a Vector<T> living on a block."""

    __slots__ = ("pc_block", "pc_offset", "descriptor")

    def __init__(self, block, offset, descriptor):
        self.pc_block = block
        self.pc_offset = offset
        self.descriptor = descriptor

    # -- internals -------------------------------------------------------------

    def _state(self):
        return _container_state(
            self.pc_block.buf, self.pc_offset + OBJECT_HEADER_SIZE,
            self.descriptor.elem.slot_size,
        )

    def _element_slot(self, index):
        """The slot of element ``index`` (negative counts from the end)."""
        count, array, _capacity = self._state()
        if index < 0:
            index += count
        if not 0 <= index < count:
            raise IndexError("vector index %d out of range (%d)" % (index, count))
        return (
            array + OBJECT_HEADER_SIZE + index * self.descriptor.elem.slot_size
        )

    def _regrow(self, array, count, capacity, minimum):
        """Amortised growth: at least double, never below four slots."""
        descriptor = self.descriptor
        block = self.pc_block
        return descriptor.regrow(
            block, self.pc_offset + OBJECT_HEADER_SIZE, array, count,
            max(4, capacity * 2, minimum),
            descriptor.array_type.type_code(block),
        )

    # -- sequence protocol -------------------------------------------------------

    def __len__(self):
        return _U64.unpack_from(
            self.pc_block.buf,
            self.pc_offset + OBJECT_HEADER_SIZE + _COUNT,
        )[0]

    def __getitem__(self, index):
        return self.descriptor.elem.read_slot(
            self.pc_block, self._element_slot(index)
        )

    def __setitem__(self, index, value):
        self.descriptor.elem.write_slot(
            self.pc_block, self._element_slot(index), value
        )

    def __iter__(self):
        count, array, _capacity = self._state()
        if not count:
            return iter(())
        elem = self.descriptor.elem
        start = array + OBJECT_HEADER_SIZE
        if not elem.is_object_type:
            return iter(elem.read_run(self.pc_block.buf, start, count))
        block = self.pc_block
        read = elem.read_slot
        return (
            read(block, slot)
            for slot in range(start, start + count * elem.slot_size,
                              elem.slot_size)
        )

    def reserve(self, capacity):
        """Ensure room for ``capacity`` elements without reallocation.

        Writers reserve their root vector's slots *before* filling a page
        with objects, so recording an object never needs an allocation on
        an already-full page.
        """
        count, array, current = self._state()
        if current < capacity:
            self._regrow(array, count, current, capacity)

    def append(self, value):
        """Append ``value``, growing the backing array if needed."""
        count, array, capacity = self._state()
        if count >= capacity:
            array = self._regrow(array, count, capacity, count + 1)
        elem = self.descriptor.elem
        elem.write_slot(
            self.pc_block,
            array + OBJECT_HEADER_SIZE + count * elem.slot_size, value,
        )
        _U64.pack_into(
            self.pc_block.buf, self.pc_offset + OBJECT_HEADER_SIZE, count + 1
        )

    def extend(self, values):
        """Append every item of ``values`` (see :meth:`VectorType.extender`)."""
        self.descriptor.extender(self.pc_block)(self.pc_offset, values)

    def to_list(self):
        """Decode the whole vector into a Python list."""
        return list(self)

    def as_numpy(self):
        """A zero-copy numpy view over the element bytes.

        This is the reproduction of ``Eigen::Map`` over raw page memory
        (Section 8.3.1): the returned array aliases the block's bytes, so
        writes through it mutate the page with no copying.
        """
        elem = self.descriptor.elem
        dtype = numpy_dtype_for(elem)
        if dtype is None:
            raise ObjectModelError(
                "as_numpy requires a numeric element type, not %s" % elem.name
            )
        count, array, _capacity = self._state()
        if not count:
            return np.empty(0, dtype=dtype)
        start = array + OBJECT_HEADER_SIZE
        view = memoryview(self.pc_block.buf)[
            start:start + count * elem.slot_size
        ]
        return np.frombuffer(view, dtype=dtype)

    def __repr__(self):
        preview = ", ".join(repr(v) for v in list(self)[:6])
        if len(self) > 6:
            preview += ", ..."
        return "Vector<%s>[%s]" % (self.descriptor.elem.name, preview)


# ---------------------------------------------------------------------------
# Map<K, V>
# ---------------------------------------------------------------------------

_ENTRY_FLAGS = struct.Struct("<BxxxxxxxQ")  # occupied flag + stored hash


class MapBucketsType(ObjectTypeDescriptor):
    """The bucket array backing a Map instantiation (internal)."""

    def __init__(self, key, val):
        self.key = as_descriptor(key)
        self.val = as_descriptor(val)
        self.name = "mapbuckets<%s,%s>" % (self.key.name, self.val.name)
        self.entry_size = align8(16 + self.key.slot_size + self.val.slot_size)
        self.key_offset = 16
        self.val_offset = 16 + self.key.slot_size
        #: entry-relative offsets of the slots that hold handles
        self.handle_offsets = tuple(
            delta
            for descriptor, delta in ((self.key, self.key_offset),
                                      (self.val, self.val_offset))
            if descriptor.is_object_type
        )

    def facade(self, block, offset):
        return Handle(block, offset, self.type_code(block))

    def dependents(self):
        return [self.key, self.val]

    def allocate_value(self, block, nbuckets):
        return block.allocate(
            nbuckets * self.entry_size, self.type_code(block)
        )

    def _each_occupied(self, buf, payload_offset, payload_size):
        end = payload_offset + payload_size - payload_size % self.entry_size
        for entry in range(payload_offset, end, self.entry_size):
            if buf[entry]:
                yield entry

    def probe(self, block, table, capacity, key, key_hash):
        """Locate ``key`` in the ``capacity`` entries starting at ``table``.

        Returns ``(entry_offset, found)``; when not found, ``entry_offset``
        is the insertion slot (None if every entry is taken).
        """
        buf = block.buf
        entry_size = self.entry_size
        index = key_hash % capacity
        for _probe in range(capacity):
            entry = table + index * entry_size
            occupied, stored_hash = _ENTRY_FLAGS.unpack_from(buf, entry)
            if not occupied:
                return entry, False
            if stored_hash == key_hash and _keys_equal(
                self.key.read_slot(block, entry + self.key_offset), key
            ):
                return entry, True
            index += 1
            if index == capacity:
                index = 0
        return None, False

    def release_entry(self, block, entry):
        """Drop (and null) the references one entry's handle slots hold."""
        for delta in self.handle_offsets:
            slot = entry + delta
            target, _code = layout.read_handle_slot(block.buf, slot)
            if target is not None:
                layout.write_handle_slot(block.buf, slot, None, 0)
                release_reference(block, target)

    def destroy_payload(self, block, payload_offset, payload_size):
        for entry in self._each_occupied(block.buf, payload_offset,
                                         payload_size):
            self.release_entry(block, entry)
        block.buf[payload_offset:payload_offset + payload_size] = bytes(
            payload_size
        )

    def rewrite_handles(self, src_block, src_payload, dst_block, dst_payload,
                        payload_size, memo):
        moved = dst_payload - src_payload
        for entry in self._each_occupied(src_block.buf, src_payload,
                                         payload_size):
            for delta in self.handle_offsets:
                copy_handle_slot(src_block, entry + delta,
                                 dst_block, entry + delta + moved, memo)


class MapType(ObjectTypeDescriptor):
    """Open-addressing hash map stored entirely on one block.

    PC implements aggregation with exactly this structure: per-thread Maps
    are built on output pages, shipped whole (zero serialization), and
    merged at the receiver (Section 3, Appendix D.2).
    """

    #: Grow the bucket array when count / capacity exceeds this.
    LOAD_FACTOR = 0.7

    @classmethod
    def table_capacity(cls, n):
        """The bucket count of a table sized for ``n`` pairs — the least
        that holds them under :attr:`LOAD_FACTOR`: the one size rule of
        the inserter and the planner (:mod:`repro.memory.scatter`)."""
        return int(n / cls.LOAD_FACTOR) + 1

    def __init__(self, key, val):
        self.key = as_descriptor(key)
        self.val = as_descriptor(val)
        self.name = "map<%s,%s>" % (self.key.name, self.val.name)
        self.buckets_type = MapBucketsType(self.key, self.val)
        self.fixed_payload = align8(_BACKING + layout.HANDLE_SLOT_SIZE)

    def facade(self, block, offset):
        return MapFacade(block, offset, self)

    def dependents(self):
        return [self.key, self.val, self.buckets_type]

    def _slot_value(self, block, target_offset, type_code):
        return self.facade(block, target_offset)

    def builder(self, block):
        code = self.type_code(block)
        allocate = block.allocate
        fixed_payload = self.fixed_payload
        insert = self.inserter(block)

        def build(value):
            offset = allocate(fixed_payload, code)
            if value:
                pairs = value.items() if isinstance(value, dict) else value
                _stored, full = insert(offset, pairs)
                if full is not None:
                    raise full
            return offset

        return build

    def allocate_value(self, block, value):
        return self.builder(block)(value)

    def inserter(self, block):
        """``insert(offset, pairs, declined=None) -> (stored, full)`` for
        maps on ``block``.

        Inserts or overwrites every ``(key, value)`` pair, in order, into
        the map at ``offset`` in one pass: the bucket table is sized once
        for all of ``pairs`` (growing by doubling only if the block has
        no room for that), and key/value writers are resolved once.  An
        empty map is first built as far as it can be by the planner
        (:func:`repro.memory.scatter.scatter_map`: the same bytes, laid
        out at once and written as arrays; ``declined(reason)`` hears why
        it took none), and the per-pair pass continues from there.

        A full block stops the pass: ``full`` is then the
        :class:`BlockFullError`, ``stored`` says how many leading pairs
        are in the map, and the map is consistent — every entry is
        either wholly inserted (slots first, occupied flag last) or
        absent.  ``full`` is None when every pair went in.
        """
        from repro.memory.scatter import scatter_map

        buckets = self.buckets_type
        buf = block.buf
        entry_size = buckets.entry_size
        key_at = buckets.key_offset
        val_at = buckets.val_offset
        write_key = buckets.key.slot_writer(block)
        write_val = buckets.val.slot_writer(block)
        overwrite_val = buckets.val.write_slot
        probe = buckets.probe
        buckets_code = buckets.type_code(block)
        load = self.LOAD_FACTOR

        def grow(payload, table, capacity, needed):
            # Sized for every pair at once; doubled when the block has
            # no room for that (a fresh map's: sized for one pair).
            doubled = capacity * 2 or self.table_capacity(1)
            exact = self.table_capacity(needed)
            if exact > doubled:
                try:
                    return self.rehash(block, payload, table, capacity,
                                       exact, buckets_code), exact
                except BlockFullError:
                    pass
            return self.rehash(block, payload, table, capacity,
                               doubled, buckets_code), doubled

        def insert(offset, pairs, declined=None):
            if not hasattr(pairs, "__len__"):
                pairs = list(pairs)
            payload = offset + OBJECT_HEADER_SIZE
            count, table, capacity = _container_state(
                buf, payload, entry_size
            )
            stored = 0
            if table is None and len(pairs):
                stored = scatter_map(block, self, payload, pairs, declined)
                if stored == len(pairs):
                    return stored, None
                if stored:
                    count, table, capacity = _container_state(
                        buf, payload, entry_size
                    )
            limit = int(capacity * load)
            entry = None
            try:
                for key, value in islice(pairs, stored, None):
                    if count >= limit:
                        table, capacity = grow(
                            payload, table, capacity,
                            count + len(pairs) - stored,
                        )
                        limit = int(capacity * load)
                    key_hash = stable_hash(key)
                    entry, found = probe(
                        block, table + OBJECT_HEADER_SIZE, capacity,
                        key, key_hash,
                    )
                    if found:
                        overwrite_val(block, entry + val_at, value)
                    else:
                        write_key(entry + key_at, key)
                        write_val(entry + val_at, value)
                        _ENTRY_FLAGS.pack_into(buf, entry, 1, key_hash)
                        count += 1
                        _U64.pack_into(buf, payload, count)
                    stored += 1
            except BlockFullError as full:
                if entry is not None and not buf[entry]:
                    # The entry being written got its key but not its
                    # value: hand the key back so the slots stay null.
                    buckets.release_entry(block, entry)
                # Handed back without its traceback: the frames it holds
                # hold the block, and the caller's frame holds it.
                return stored, full.with_traceback(None)
            return stored, None

        return insert

    def rehash(self, block, payload, old_table, old_capacity, capacity,
               buckets_code):
        """Move every entry into a new ``capacity``-entry bucket table.

        Returns the new table's offset; the map at ``payload`` points at
        it and the old table (if any) is released.
        """
        buf = block.buf
        buckets = self.buckets_type
        entry_size = buckets.entry_size
        new_table = block.allocate(capacity * entry_size, buckets_code)
        if old_table is not None:
            old_start = old_table + OBJECT_HEADER_SIZE
            old_size = old_capacity * entry_size
            new_start = new_table + OBJECT_HEADER_SIZE
            for entry in buckets._each_occupied(buf, old_start, old_size):
                stored_hash = _ENTRY_FLAGS.unpack_from(buf, entry)[1]
                index = stored_hash % capacity
                while buf[new_start + index * entry_size]:
                    index += 1
                    if index == capacity:
                        index = 0
                new_entry = new_start + index * entry_size
                buf[new_entry:new_entry + entry_size] = buf[
                    entry:entry + entry_size
                ]
                for delta in buckets.handle_offsets:
                    _move_handle(buf, entry + delta, new_entry + delta)
            buf[old_start:old_start + old_size] = bytes(old_size)
        _link_backing(block, payload + _BACKING, new_table, buckets_code,
                      old_table)
        return new_table

    def destroy_payload(self, block, payload_offset, payload_size):
        slot = payload_offset + _BACKING
        target, _code = layout.read_handle_slot(block.buf, slot)
        if target is not None:
            release_reference(block, target)
            layout.write_handle_slot(block.buf, slot, None, 0)

    def rewrite_handles(self, src_block, src_payload, dst_block, dst_payload,
                        payload_size, memo):
        copy_handle_slot(src_block, src_payload + _BACKING,
                         dst_block, dst_payload + _BACKING, memo)


class MapFacade:
    """Dict-like view over a Map<K,V> living on a block."""

    __slots__ = ("pc_block", "pc_offset", "descriptor")

    def __init__(self, block, offset, descriptor):
        self.pc_block = block
        self.pc_offset = offset
        self.descriptor = descriptor

    def _state(self):
        return _container_state(
            self.pc_block.buf, self.pc_offset + OBJECT_HEADER_SIZE,
            self.descriptor.buckets_type.entry_size,
        )

    def __len__(self):
        return _U64.unpack_from(
            self.pc_block.buf, self.pc_offset + OBJECT_HEADER_SIZE + _COUNT
        )[0]

    def _value_slot(self, key):
        """The value slot of the entry holding ``key``, or None."""
        _count, table, capacity = self._state()
        if table is None:
            return None
        buckets = self.descriptor.buckets_type
        entry, found = buckets.probe(
            self.pc_block, table + OBJECT_HEADER_SIZE, capacity,
            key, stable_hash(key),
        )
        return entry + buckets.val_offset if found else None

    # -- dict protocol -----------------------------------------------------------

    def put(self, key, value):
        """Insert or overwrite ``key`` with ``value``."""
        _stored, full = self.descriptor.inserter(self.pc_block)(
            self.pc_offset, ((key, value),)
        )
        if full is not None:
            raise full

    def fill(self, pairs, declined=None):
        """Insert leading ``pairs`` until they are all in or the block is full.

        Returns how many were stored — the map then holds exactly that
        prefix, so a sink can seal the page and carry on with the rest on
        the next one.  Raises :class:`BlockFullError` only when not even
        the first pair fits.  ``declined(reason)`` is told why an empty
        map was built pair by pair instead of planned
        (:data:`repro.memory.scatter.FALLBACK_REASONS`).
        """
        stored, full = self.descriptor.inserter(self.pc_block)(
            self.pc_offset, pairs, declined
        )
        if full is not None and not stored:
            raise full
        return stored

    def get(self, key, default=None):
        """Return the value stored for ``key`` or ``default``."""
        slot = self._value_slot(key)
        if slot is None:
            return default
        return self.descriptor.val.read_slot(self.pc_block, slot)

    def __contains__(self, key):
        return self._value_slot(key) is not None

    def __getitem__(self, key):
        slot = self._value_slot(key)
        if slot is None:
            raise KeyError(key)
        return self.descriptor.val.read_slot(self.pc_block, slot)

    def __setitem__(self, key, value):
        self.put(key, value)

    def items(self):
        """Iterate ``(key, value)`` pairs in bucket order."""
        _count, table, capacity = self._state()
        if table is None:
            return
        block = self.pc_block
        buckets = self.descriptor.buckets_type
        read_key = buckets.key.read_slot
        read_val = buckets.val.read_slot
        key_at = buckets.key_offset
        val_at = buckets.val_offset
        for entry in buckets._each_occupied(
            block.buf, table + OBJECT_HEADER_SIZE,
            capacity * buckets.entry_size,
        ):
            yield read_key(block, entry + key_at), read_val(block, entry + val_at)

    def keys(self):
        """Iterate keys in bucket order."""
        for key, _value in self.items():
            yield key

    def values(self):
        """Iterate values in bucket order."""
        for _key, value in self.items():
            yield value

    def to_dict(self):
        """Decode the whole map into a Python dict (values stay facades)."""
        return dict(self.items())

    def __repr__(self):
        return "Map<%s,%s>(%d entries)" % (
            self.descriptor.key.name,
            self.descriptor.val.name,
            len(self),
        )


def _keys_equal(stored, probe):
    if isinstance(stored, float) or isinstance(probe, float):
        return float(stored) == float(probe)
    return stored == probe


# ---------------------------------------------------------------------------
# AnyObject: Handle<Object> slots
# ---------------------------------------------------------------------------

class AnyObjectType(ObjectTypeDescriptor):
    """Slot type for handles to objects of *any* PC type.

    This is ``Handle<Object>`` in the paper: a container like the
    per-page root ``Vector<Handle<Object>>`` stores handles whose concrete
    type is only discovered at dereference time via the object header's
    type code (dynamic dispatch, Section 6.3).
    """

    name = "object"
    FIXED_CODE = 2

    def facade(self, block, offset):
        code = layout.read_object_header(block.buf, offset)[1]
        return Handle(block, offset, code)

    def allocate_value(self, block, value):
        raise ObjectModelError(
            "cannot allocate a value of unknown type; pass a Handle"
        )


AnyObject = AnyObjectType()
