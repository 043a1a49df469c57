"""Scatter writes: a Map, or a page of object trees, built from host
values, planned once and written as arrays — the write half of
:mod:`repro.memory.gather`, in two phases.  **Plan**: lay out every
object the per-object build would allocate, in its order — on a
bump-only block one run of the bump pointer (a Map's table sized as
its inserter sizes it, bucket positions from the same linear probe over
the same ``stable_hash``).  **Scatter**: write the run into a fresh
image with one ``numpy`` assignment per word size and one byte scatter
(primitives through ``PrimitiveType.write_run``: the same casters and
range checks), copy it onto the page in one slice, and move ``used`` /
``active_objects`` and the allocation counts once.

The per-object page is the oracle.  What the plan does not cover it
declines before writing anything (:data:`FALLBACK_REASONS`); a host
value the per-object build rejects is left to it, so it raises where it
always did; a run that does not fit is planned up to its longest prefix
of whole pairs (:func:`scatter_map`) or trees (:func:`plan_objects`).
A plan holds offsets and bytes, never the block (DESIGN §16).
"""

from __future__ import annotations

import struct
from itertools import chain

import numpy as np

from repro.errors import ObjectModelError
from repro.memory import layout
from repro.memory.block import _chunk_size
from repro.memory.builtins import (
    _BACKING,
    MapType,
    StringType,
    VectorType,
    _container_state,
    _keys_equal,
    _string_hash,
    stable_hash,
)
from repro.memory.handle import Handle
from repro.memory.layout import HANDLE_SLOT_SIZE, OBJECT_HEADER_SIZE
from repro.memory.objects import ClassDescriptor
from repro.memory.types import PrimitiveType, numpy_dtype_for, registry_of

#: Why a Map build took the per-pair path, or a tree the per-object one
#: — the closed set of ``pc_engine_kernel_fallback_total{operator=
#: "map_build" | "object_build", reason}``.
FALLBACK_REASONS = (
    "not_bump_only",   # a free chunk or a recycled slot could be handed out
    "repeated_key",    # a key repeats under ``_keys_equal``: an overwrite
    "reference",       # a handle or facade: a link or deep copy, no build
    "uncovered_type",  # a declared type, or a host value's, not planned
    "one_per_page",    # a tree that fills a page alone: built object by object
)

#: What the per-pair path raises for a host value it rejects; a plan
#: that meets one leaves the build to that path.
_REJECTED = (struct.error, TypeError, ValueError, OverflowError,
             ObjectModelError)

_HEADER = OBJECT_HEADER_SIZE
_COUNT = struct.Struct("<Q")
#: a handle slot's delta as two 4-byte words, low first
_HALVES = np.array([0, 4])
#: pairs measured before the budget is first checked; windows double
_FIRST_WINDOW = 256
#: host values a ``Vector<primitive>`` slot takes as they are
_SEQUENCES = {list, tuple, type(None)}
#: one embedded handle, as ``layout.HANDLE_STRUCT`` packs it
_SLOT = np.dtype([("delta", "<i8"), ("code", "<u4")])
#: the slots ``VectorFacade.reserve`` gives an empty vector at least
_RESERVE_MIN = 4


class _Decline(Exception):
    reason = property(lambda self: self.args[0])


def scatter_map(block, map_type, payload, pairs, declined=None):
    """Write the leading ``pairs`` into the empty ``map_type`` Map whose
    payload starts at ``payload``; returns how many went in.

    0 means nothing was written and the per-pair path builds it all —
    because no pair fits, a host value is one that path rejects, or the
    plan declined, in which case ``declined(reason)`` is told why.
    """
    try:
        if not block.bump_only:
            raise _Decline("not_bump_only")
        shape = _MapShape(map_type, block)
        plan = _Plan(block.used, 1 if block.managed else 0)
        stored, table = plan.map_body(shape, pairs, len(pairs),
                                      block.size - block.used)
    except _Decline as decline:
        if declined is not None:
            declined(decline.reason)
        return 0
    except _REJECTED:
        return 0
    if stored:
        plan.scatter(block)
        _COUNT.pack_into(block.buf, payload, stored)
        layout.write_handle_slot(block.buf, payload + _BACKING, table,
                                 shape.buckets_code)
    return stored


def plan_objects(block, cls, records):
    """Measure ``records`` — host-value trees of the ``PCObject`` class
    ``cls``, each the dict ``make_object_on(block, cls, record)`` takes —
    for a page of ``block``'s registry: their :class:`ObjectPlan`."""
    return ObjectPlan(block, cls, records)


class ObjectPlan:
    """A window of trees measured for one page.

    The leading ``covered`` records are planned; the next, if any, is
    not — ``reason`` says why (:data:`FALLBACK_REASONS`), or is None when
    it holds a host value the per-object path rejects.  A record lays
    out as ``make_object_on`` builds it: the object, then each field's
    tree in the dict's key order, depth first; a vector before its
    exactly sized array, the array before its elements.
    """

    def __init__(self, block, cls, records):
        self.shape = _Records(cls.pc_descriptor, registry_of(block))
        self.covered, self.reason, self._measured = _leading(
            self._measure, records)

    def _measure(self, records):
        if None in records:  # ``make_object_on(block, cls, None)``: empty
            raise _Decline("uncovered_type")
        return self.shape.measure(records)

    def fit(self, room, start=0):
        """How many covered records from ``start`` on a fresh page with
        ``room`` bytes free takes, its empty root reserved for that many."""
        if not self.covered:
            return 0
        ends = np.cumsum(self._measured[1][start:])
        roots = _chunks(HANDLE_SLOT_SIZE * np.maximum(
            np.arange(1, len(ends) + 1), _RESERVE_MIN))
        return int((roots + ends <= room).sum())

    def capacity(self, room):
        """Records of the covered ones' mean size a fresh page takes."""
        need = int(self._measured[1].sum()) + HANDLE_SLOT_SIZE * self.covered
        return self.covered * room // max(need, 1)

    def write(self, block, root, stored):
        """Reserve ``root`` (``block``'s empty root vector) for the
        leading ``stored`` records, write them — one plan, one scatter,
        from what was measured of them — and list them in it, as
        ``root.append`` would."""
        data, sizes = self._measured
        if stored < self.covered:
            data, sizes = self.shape.take(data, stored), sizes[:stored]
        root.reserve(stored)
        plan = _Plan(block.used, 1 if block.managed else 0)
        ends = np.cumsum(sizes)
        starts = plan.base + ends - sizes
        plan.cursor += int(ends[-1])
        self.shape.fill(plan, data, starts)
        plan.scatter(block)
        payload = root.pc_offset + _HEADER
        first = _container_state(block.buf, payload, HANDLE_SLOT_SIZE)[1] \
            + _HEADER
        entries = np.zeros(stored, _SLOT)
        entries["delta"] = starts - first - HANDLE_SLOT_SIZE * np.arange(stored)
        entries["code"] = self.shape.code
        block.buf[first:first + entries.nbytes] = entries.tobytes()
        _COUNT.pack_into(block.buf, payload, stored)


def _leading(measure, records):
    """``(covered, reason, measured)``: how many leading ``records``
    ``measure`` takes, why not the next one, and what it made of those.
    A window it refuses is searched from the front — probes that double
    while they pass — so a refused first record costs one probe more."""
    good, bad, probe, step = 0, len(records) + 1, len(records), 1
    measured = failure = None
    while bad - good > 1:
        try:
            measured = measure(records[:probe])
        except (_Decline,) + _REJECTED as error:
            bad, failure, step = probe, error, 1
        else:
            good, step = probe, step * 2
        probe = min(good + step, bad - 1)
    reason = failure.reason if isinstance(failure, _Decline) else None
    return good, reason, measured


# -- shapes: what a plan needs of a descriptor, resolved once per build ----------


def _reject(value):
    """Decline a value no shape plans (None is the caller's to allow)."""
    if isinstance(value, Handle) or hasattr(value, "pc_block"):
        raise _Decline("reference")  # a pending object's too: it escapes
    raise _Decline("uncovered_type")


def _chunks(payloads):
    """:func:`~repro.memory.block._chunk_size` of every payload size of
    at least one byte (no such chunk is under the 24-byte minimum)."""
    return (payloads + _HEADER + 7) // 8 * 8


def _lengths(data):
    """``len`` of every item, -1 for None."""
    try:
        return np.fromiter(map(len, data), np.int64, len(data))
    except TypeError:  # a None among them
        return np.fromiter((-1 if item is None else len(item)
                            for item in data), np.int64, len(data))


class _Leaf:
    take = staticmethod(lambda data, n: data[:n])  # the first n values


class _Primitive:
    """A primitive slot: the value is encoded in place, no object.
    ``fill`` returns the slots' bytes."""

    def __init__(self, descriptor):
        self.descriptor = descriptor
        self.width = descriptor.slot_size

    def measure(self, values):
        return values, np.zeros(len(values), np.int64)

    def fill(self, plan, data, offsets):
        buf = bytearray(len(data) * self.width)
        self.descriptor.write_run(buf, 0, data)
        return bytes(buf)


class _Strings(_Leaf):
    """A String slot: one object per value — a key's, or a value's
    (None: a null slot).  ``fill`` returns ``(targets, code)``, a
    target 0 where the slot stays null."""

    def __init__(self, descriptor, block):
        self.code = descriptor.type_code(block)

    def measure(self, values):
        if set(map(type, values)) <= {str}:
            data = [value.encode("utf-8") for value in values]
        else:
            data = [value.encode("utf-8") if isinstance(value, str) else
                    None if value is None else _reject(value)
                    for value in values]
        lengths = _lengths(data)
        return data, _chunks(4 + lengths) * (lengths >= 0)

    def fill(self, plan, data, offsets):
        lengths = _lengths(data)
        present = lengths >= 0
        if not present.all():
            offsets = offsets * present
            data = [item for item in data if item is not None]
        strings, lengths = offsets[present], lengths[present]
        plan.objects(strings, self.code, 4 + lengths)
        plan.words32(strings + _HEADER, lengths)
        plan.run(strings + _HEADER + 4, lengths, b"".join(data))
        return offsets, self.code


class _Vectors(_Leaf):
    """A ``Vector<primitive>`` slot: the vector, then — when it is not
    empty — its exactly sized array, as ``VectorType.extender`` builds
    it (None: a null slot)."""

    def __init__(self, descriptor, block):
        self.elem = descriptor.elem
        self.dtype = numpy_dtype_for(self.elem)
        self.code = descriptor.type_code(block)
        self.array_code = descriptor.array_type.type_code(block)
        self.payload = descriptor.fixed_payload
        self.box = _chunk_size(self.payload)

    def _prepare(self, value):
        if value is None or isinstance(value, (list, tuple)):
            return value
        if isinstance(value, np.ndarray):
            if self.dtype is None:
                return list(value)
            return np.ascontiguousarray(value, dtype=self.dtype).reshape(-1)
        return _reject(value)

    def _sequences(self, values):
        if set(map(type, values)) <= _SEQUENCES:
            return list(values)
        return list(map(self._prepare, values))

    def _sizes(self, counts):
        """Each vector's bytes with its array's (count -1: a null slot)."""
        arrays = _chunks(counts * self.elem.slot_size) * (counts > 0)
        return (self.box + arrays) * (counts >= 0)

    def measure(self, values):
        data = self._sequences(values)
        return data, self._sizes(_lengths(data))

    def fill(self, plan, data, offsets):
        offsets, arrays, counts = self._containers(plan, _lengths(data),
                                                   offsets)
        nbytes = counts * self.elem.slot_size
        plan.run(arrays + _HEADER, nbytes, self._encode(
            [item for item in data if item is not None and len(item)]
        ))
        return offsets, self.code

    def _containers(self, plan, counts, offsets):
        """Lay out the vectors at ``offsets`` and their arrays; returns
        the offsets (0 for a null slot), the arrays and their counts."""
        present = counts >= 0
        if not present.all():
            offsets = offsets * present
        vectors, counts = offsets[present], counts[present]
        plan.objects(vectors, self.code, self.payload)
        plan.words64(vectors + _HEADER, counts.view(np.uint64))
        filled = counts > 0
        arrays, counts = vectors[filled] + self.box, counts[filled]
        plan.handles(vectors[filled] + _HEADER + _BACKING, arrays,
                     self.array_code)
        plan.objects(arrays, self.array_code, counts * self.elem.slot_size)
        return offsets, arrays, counts

    def _encode(self, runs):
        """The element bytes of ``runs``, in order: host sequences
        through one ``write_run``, numpy input blitted as the extender
        blits it."""
        if np.ndarray not in set(map(type, runs)):
            return self._write(list(chain.from_iterable(runs)))
        pieces, pending = [], []
        for run in runs:
            if isinstance(run, np.ndarray):
                pieces += [self._write(pending), run.tobytes()]
                pending = []
            else:
                pending.extend(run)
        pieces.append(self._write(pending))
        return b"".join(pieces)

    def _write(self, values):
        buf = bytearray(len(values) * self.elem.slot_size)
        if values:
            self.elem.write_run(buf, 0, values)
        return bytes(buf)


class _MapShape:
    """A ``Map`` the plan covers: primitive or String keys; values
    primitive, String, ``Vector<primitive>`` or a covered Map."""

    def __init__(self, map_type, block):
        buckets = map_type.buckets_type
        #: ``n`` pairs -> the table's bucket count, the inserter's rule
        self.capacity = map_type.table_capacity
        self.code = map_type.type_code(block)
        self.buckets_code = buckets.type_code(block)
        self.entry_size = buckets.entry_size
        self.key_at = buckets.key_offset
        self.val_at = buckets.val_offset
        self.payload = map_type.fixed_payload
        self.box = _chunk_size(self.payload)
        self.key = _slot_shape(map_type.key, block)
        if not isinstance(self.key, (_Primitive, _Strings)):
            raise _Decline("uncovered_type")
        self.val = _slot_shape(map_type.val, block)

    def stored_key(self, key):
        """``key`` as it reads back out of its slot (what ``probe``
        compares a later key with)."""
        if isinstance(self.key, _Strings):
            return key
        scratch = bytearray(self.key.width)
        self.key.descriptor.write_run(scratch, 0, [key])
        return self.key.descriptor.read_run(scratch, 0, 1)[0]


def _slot_shape(descriptor, block):
    if isinstance(descriptor, PrimitiveType):
        return _Primitive(descriptor)
    if isinstance(descriptor, StringType):
        return _Strings(descriptor, block)
    if isinstance(descriptor, VectorType) and \
            isinstance(descriptor.elem, PrimitiveType):
        return _Vectors(descriptor, block)
    if isinstance(descriptor, MapType):
        return _MapShape(descriptor, block)
    raise _Decline("uncovered_type")


class _Records:
    """A ``PCObject`` class's slot: one object per value, a dict of its
    fields (None: a null slot).  A field's shape is resolved the first
    time a record sets it.  ``fill`` returns ``(targets, code)``."""

    def __init__(self, descriptor, registry):
        self.registry = registry
        self.code = descriptor.type_code(registry)
        self.payload = descriptor.fixed_payload
        self.box = _chunk_size(self.payload)
        self.accessors = descriptor.cls.pc_fields
        self.fields = {}  # name -> (payload-relative slot, shape)

    def _field(self, name):
        field = self.fields.get(name)
        if field is None:
            accessor = self.accessors.get(name)
            if accessor is None:  # ``setattr`` on the facade: not a field
                raise _Decline("uncovered_type")
            field = self.fields[name] = (
                _HEADER + accessor.byte_offset,
                _tree_slot(accessor.pc_type, self.registry),
            )
        return field

    def measure(self, values):
        rows, records = None, values
        if not set(map(type, values)) <= {dict}:
            rows = [i for i, value in enumerate(values) if value is not None]
            records = [values[i] if isinstance(values[i], dict)
                       else _reject(values[i]) for i in rows]
        sizes = np.full(len(records), self.box, np.int64)
        fields = []
        for keys, index, columns in _key_groups(records):
            running = sizes[index].copy()
            for name, column in zip(keys, columns):
                at, shape = self._field(name)
                data, size = shape.measure(column)
                if isinstance(shape, _Primitive):
                    fields.append((at, shape, index, shape.fill(
                        None, data, None), None))
                    continue
                fields.append((at, shape, index, data, running.copy()))
                running += size
            sizes[index] = running
        if rows is None:
            return (None, fields), sizes
        rows = np.array(rows, np.int64)
        spread = np.zeros(len(values), np.int64)
        spread[rows] = sizes
        return (rows, fields), spread

    def take(self, data, n):
        rows, fields = data
        if rows is not None:
            rows = rows[:np.searchsorted(rows, n)]
            n = len(rows)
        kept = []
        for at, shape, index, field_data, rel in fields:
            if not isinstance(index, slice):
                index = index[:np.searchsorted(index, n)]
            m = n if isinstance(index, slice) else len(index)
            kept.append((at, shape, index, shape.take(field_data, m)
                         if rel is not None else field_data[:m * shape.width],
                         None if rel is None else rel[:m]))
        return rows, kept

    def fill(self, plan, data, offsets):
        rows, fields = data
        objects = offsets if rows is None else offsets[rows]
        plan.objects(objects, self.code, self.payload)
        for at, shape, index, field_data, rel in fields:
            mine = objects[index]
            if rel is None:
                plan.slots(mine + at, field_data, shape.width)
                continue
            targets, code = shape.fill(plan, field_data, mine + rel)
            linked = targets != 0
            plan.handles((mine + at)[linked], targets[linked], code)
        if rows is None:
            return offsets, self.code
        targets = np.zeros(len(offsets), np.int64)
        targets[rows] = objects
        return targets, self.code


class _RecordVectors(_Vectors):
    """A ``Vector<Class>`` slot: the vector, then — when it is not empty
    — its exactly sized array of handles, then each element's tree in
    order (a None element: a null handle), as ``VectorType.extender``
    builds it (None: a null slot)."""

    def __init__(self, descriptor, registry):
        super().__init__(descriptor, registry)
        self.trees = _Records(descriptor.elem, registry)

    def measure(self, values):
        data = self._sequences(values)
        counts = _lengths(data)
        trees, sizes = self.trees.measure(list(chain.from_iterable(
            value for value in data if value)))
        owners = np.repeat(np.arange(len(data)), np.maximum(counts, 0))
        totals = np.bincount(owners, sizes, len(data)).astype(np.int64)
        return (counts, trees, sizes), self._sizes(counts) + totals

    def take(self, data, n):
        counts, trees, sizes = data
        k = int(np.maximum(counts[:n], 0).sum())
        return counts[:n], self.trees.take(trees, k), sizes[:k]

    def fill(self, plan, data, offsets):
        counts, trees, sizes = data
        offsets, arrays, counts = self._containers(plan, counts, offsets)
        # the elements' trees follow the array, back to back
        starts = np.cumsum(sizes) - sizes
        firsts = np.cumsum(counts) - counts
        targets, code = self.trees.fill(plan, trees, np.repeat(
            arrays + _chunks(counts * HANDLE_SLOT_SIZE) - starts[firsts],
            counts) + starts)
        slots = np.repeat(arrays + _HEADER - firsts * HANDLE_SLOT_SIZE,
                          counts) + HANDLE_SLOT_SIZE * np.arange(len(sizes))
        linked = targets != 0
        plan.handles(slots[linked], targets[linked], code)
        return offsets, self.code


def _tree_slot(descriptor, registry):
    """The shape of a class field's slot: a map's, bar maps, or a tree."""
    if isinstance(descriptor, ClassDescriptor):
        return _Records(descriptor, registry)
    if isinstance(descriptor, VectorType) and \
            isinstance(descriptor.elem, ClassDescriptor):
        return _RecordVectors(descriptor, registry)
    if isinstance(descriptor, MapType):
        raise _Decline("uncovered_type")
    return _slot_shape(descriptor, registry)


def _key_groups(records):
    """``(keys, index, columns)`` per key order among ``records`` (dicts):
    the keys, which records have that order (a slice when all do), and
    their values, one tuple per key."""
    if not records:
        return []
    first = tuple(records[0])
    if all(map(first.__eq__, map(tuple, records))):
        return [(first, slice(None), list(zip(*map(dict.values, records))))]
    groups = {}
    for i, record in enumerate(records):
        groups.setdefault(tuple(record), []).append(i)
    return [(keys, np.array(index, np.int64),
             list(zip(*(records[i].values() for i in index))))
            for keys, index in groups.items()]


def _hashes(shape, keys):
    """``stable_hash`` of every key — declining a key that repeats under
    ``_keys_equal`` (the per-pair path would overwrite its value)."""
    hashes = list(map(
        _string_hash if isinstance(shape.key, _Strings) else stable_hash, keys
    ))
    if len(set(hashes)) < len(hashes):
        held = {}
        for key, key_hash in zip(keys, hashes):
            stored = held.setdefault(key_hash, [])
            if any(_keys_equal(earlier, key) for earlier in stored):
                raise _Decline("repeated_key")
            stored.append(shape.stored_key(key))
    return hashes


def _probe(hashes, capacity):
    """Each entry's bucket: ``MapBucketsType.probe``'s linear probe,
    inserting in order into an empty table."""
    taken = bytearray(capacity)
    positions = []
    for key_hash in hashes:
        index = key_hash % capacity
        while taken[index]:
            index += 1
            if index == capacity:
                index = 0
        taken[index] = 1
        positions.append(index)
    return positions


# -- the plan ---------------------------------------------------------------------


class _Plan:
    """One build's layout, from ``base`` (the bump pointer) to
    ``cursor``, at absolute offsets: object headers, handle slots, 8- and
    4-byte words and byte runs, each kind a list of array chunks that
    :meth:`scatter` turns into words at once.  Every word's position is
    a multiple of its size: objects start on 8 bytes, and so do a
    table's entries."""

    def __init__(self, base, refcount):
        self.base = self.cursor = base
        self.refcount = refcount
        self.heads = []  # (offsets, type code, payload sizes)
        self.links = []  # (handle slots, the targets' type code, targets)
        self.w64 = []    # (positions, values)
        self.w32 = []    # (positions, values below 2**32)
        self.runs = []   # (positions, lengths, their bytes joined)

    def _mark(self):
        return (self.cursor,) + tuple(map(len, (
            self.heads, self.links, self.w64, self.w32, self.runs)))

    def _rollback(self, mark):
        self.cursor = mark[0]
        for kind, length in zip((self.heads, self.links, self.w64, self.w32,
                                 self.runs), mark[1:]):
            del kind[length:]

    def objects(self, offsets, code, payloads):
        self.heads.append((offsets, code, payloads))

    def handles(self, slots, targets, code):
        """Handle slots at ``slots`` (one alignment) pointing at
        ``targets``: a slot-relative ``int64`` and the type code."""
        if len(slots) and int(slots[0]) % 4:  # behind a 1- or 2-byte key
            records = np.zeros(len(slots), _SLOT)
            records["delta"], records["code"] = targets - slots, code
            self.run(slots, np.full(len(slots), 12), records.tobytes())
        else:
            self.links.append((slots, code, targets))

    def words64(self, positions, values):
        self.w64.append((positions, values))

    def words32(self, positions, values):
        self.w32.append((positions, values))

    def run(self, positions, lengths, data):
        self.runs.append((positions, lengths, data))

    def slots(self, positions, data, width):
        """Primitive slots ``width`` bytes wide at ``positions`` (one
        alignment): their encoded bytes, as words where it allows."""
        if not len(positions):
            return
        aligned = int(positions[0])
        if width == 8 and aligned % 8 == 0:
            self.words64(positions, np.frombuffer(data, "<u8"))
        elif width % 4 == 0 and aligned % 4 == 0:
            self.words32(
                (positions[:, None] + np.arange(0, width, 4)).reshape(-1),
                np.frombuffer(data, "<u4"),
            )
        else:
            self.run(positions, np.full(len(positions), width), data)

    # -- walking ------------------------------------------------------------

    def map_body(self, shape, pairs, n, budget=None):
        """Lay out the table for ``n`` pairs and the leading ``pairs``
        that fit in ``budget`` bytes (all of them: None); returns
        ``(pairs laid out, table offset)`` — ``(0, None)``, and nothing
        laid out, when there are none."""
        size = shape.capacity(n) * shape.entry_size
        chunk = _chunk_size(size)
        if budget is not None and chunk > budget:
            return 0, None
        table = self.cursor
        self.cursor += chunk
        if not isinstance(pairs, list):
            pairs = list(pairs)
        rest = None if budget is None else budget - chunk
        walk = self._nested_pairs if isinstance(shape.val, _MapShape) \
            else self._leaf_pairs
        keys, key_fill, val_fill = walk(shape, pairs, rest)
        if not keys:
            self.cursor = table
            return 0, None
        self.objects(np.array([table], np.int64), shape.buckets_code, size)
        hashes = _hashes(shape, keys)
        first, step = table + _HEADER, shape.entry_size
        entries = np.array([first + index * step for index in
                            _probe(hashes, size // step)], np.int64)
        self.words64(entries, np.ones(len(keys), np.uint64))
        self.words64(entries + 8, np.array(hashes, np.uint64))
        for at, side, fill in ((shape.key_at, shape.key, key_fill),
                               (shape.val_at, shape.val, val_fill)):
            if isinstance(side, _Primitive):
                self.slots(entries + at, fill, side.width)
                continue
            targets, code = fill
            linked = targets != 0
            if not linked.all():
                targets, entries = targets[linked], entries[linked]
            self.handles(entries + at, targets, code)
        return len(keys), table

    def _leaf_pairs(self, shape, pairs, budget):
        """Pairs whose values hold no map: measured — in doubling
        windows, until the budget is spent — then laid out at once."""
        if isinstance(shape.key, _Primitive) and \
                isinstance(shape.val, _Primitive):
            keys = [key for key, _value in pairs]  # in place: all fit
            return keys, shape.key.fill(self, keys, None), shape.val.fill(
                self, [value for _key, value in pairs], None)
        keys, key_data, val_data, key_sizes, sizes = [], [], [], [], []
        start, spent = 0, 0
        step = len(pairs) if budget is None else _FIRST_WINDOW
        while start < len(pairs) and (budget is None or spent <= budget):
            window = pairs[start:start + step]
            window_keys = [key for key, _value in window]
            data, key_size = shape.key.measure(window_keys)
            values, val_size = shape.val.measure(
                [value for _key, value in window])
            keys += window_keys
            key_data += data
            val_data += values
            key_sizes.append(key_size)
            sizes.append(key_size + val_size)
            spent += int(sizes[-1].sum())
            start += step
            step *= 2
        if not keys:
            return [], None, None
        sizes = np.concatenate(sizes)
        ends = np.cumsum(sizes)
        stored = len(sizes) if budget is None else int((ends <= budget).sum())
        if not stored:
            return [], None, None
        starts = self.cursor + ends[:stored] - sizes[:stored]
        self.cursor += int(ends[stored - 1])
        key_fill = shape.key.fill(self, key_data[:stored], starts)
        val_fill = shape.val.fill(self, val_data[:stored], starts
                                  + np.concatenate(key_sizes)[:stored])
        return keys[:stored], key_fill, val_fill

    def _nested_pairs(self, shape, pairs, budget):
        """Pairs whose values are maps, one at a time: a pair that does
        not fit is rolled back and ends the run."""
        start = self.cursor
        inner = shape.val
        keys, key_data, key_offsets, maps, counts, tables = \
            [], [], [], [], [], []
        for key, value in pairs:
            mark = self._mark()
            data, key_size = shape.key.measure([key])
            key_offset = self.cursor
            self.cursor += int(key_size[0])
            offset = count = table = 0
            if isinstance(value, dict):
                offset = self.cursor
                self.cursor += inner.box
                count, table = self.map_body(inner, value.items(), len(value))
            elif value is not None:
                _reject(value)
            if budget is not None and self.cursor - start > budget:
                self._rollback(mark)
                break
            keys.append(key)
            key_data += data
            key_offsets.append(key_offset)
            maps.append(offset)
            counts.append(count)
            tables.append(table or 0)
        if not keys:
            return [], None, None
        key_fill = shape.key.fill(self, key_data,
                                  np.array(key_offsets, np.int64))
        maps, counts, tables = (np.array(column, np.int64)
                                for column in (maps, counts, tables))
        built, linked = maps != 0, tables != 0
        self.objects(maps[built], inner.code, inner.payload)
        self.words64(maps[built] + _HEADER, counts[built].view(np.uint64))
        self.handles(maps[linked] + _HEADER + _BACKING, tables[linked],
                     inner.buckets_code)
        return keys, key_fill, (maps, inner.code)

    # -- scattering ---------------------------------------------------------

    def scatter(self, block):
        """Write the planned run onto ``block`` and account for it."""
        base, total = self.base, self.cursor - self.base
        offsets, codes, payloads = _columns(self.heads)
        heads = np.empty((len(offsets), 2), np.uint32)  # refcount, code
        heads[:, 0], heads[:, 1] = self.refcount, codes
        self.w64 += [(offsets, heads.view(np.uint64).reshape(-1)),
                     (offsets + 8, payloads.view(np.uint64))]
        if self.links:
            slots, link_codes, targets = _columns(self.links)
            self.w32 += [
                ((slots[:, None] + _HALVES).reshape(-1),
                 (targets - slots).view(np.uint32)),
                (slots + 8, link_codes),
            ]
        image = np.zeros(total, np.uint8)  # chunks are 8-byte multiples
        for size, words in ((8, self.w64), (4, self.w32)):
            if words:
                image.view("<u%d" % size)[
                    (np.concatenate([p for p, _v in words]) - base) // size
                ] = np.concatenate([v for _p, v in words])
        data = b"".join(d for _p, _n, d in self.runs)
        if data:
            image[_run_bytes(self.runs, base)] = np.frombuffer(data, np.uint8)
        block.bump(total, len(offsets))
        # The bytes past the bump pointer are zero on every block (fresh,
        # reconstituted or a new shm segment), as the image's gaps are.
        block.buf[base:base + total] = memoryview(image)
        shadow = block._san
        if shadow is not None:
            for offset, code in zip(offsets.tolist(), codes.tolist()):
                shadow.on_alloc(offset, code, 0)
                if block.managed:
                    shadow.on_refcount(offset, 0, 1)


def _columns(chunks):
    """``(positions, code, values)`` chunks as three arrays: a chunk's
    one type code, and a scalar third column, spread over its rows."""
    return (np.concatenate([chunk[0] for chunk in chunks]),
            np.concatenate([np.full(len(chunk[0]), chunk[1], np.int64)
                            for chunk in chunks]),
            np.concatenate([np.full(len(chunk[0]), chunk[2], np.int64)
                            if isinstance(chunk[2], int) else chunk[2]
                            for chunk in chunks]))


def _run_bytes(runs, base):
    """The position past ``base`` of every byte of ``(positions, lengths,
    _)`` runs, in order: a running sum of steps of one that jumps at each
    run's start, in 32 bits (a page is under 2 GiB)."""
    positions = np.concatenate([p for p, _n, _d in runs]) - base
    lengths = np.concatenate([n for _p, n, _d in runs])
    filled = lengths > 0
    positions, lengths = positions[filled], lengths[filled]
    ends = np.cumsum(lengths)
    steps = np.ones(int(ends[-1]), np.int32)
    steps[ends[:-1]] = positions[1:] - (positions[:-1] + lengths[:-1] - 1)
    steps[0] = positions[0]
    return np.cumsum(steps, out=steps)
