"""Gather reads: the objects of one class on one row page, and the Maps
of a Map page, read as arrays.

All objects of a class on a page share one layout, so "field ``f`` of
``n`` objects" is ``n`` loads at ``offset + const`` — one ``numpy``
gather over the page seen as 32-bit words — instead of ``n`` times
``Handle.deref`` → header unpack → registry lookup → facade →
accessor → ``struct.unpack_from``.  :class:`ObjectRows` is that batch:
the :class:`~repro.memory.columnar.RowBatch` of the row layout, with the
three nested reads a row page allows on top (:meth:`ObjectRows.strings`,
:meth:`ObjectRows.objects`, :meth:`ObjectRows.elements`), each of which
is again one gather per hop, whatever the number of rows.
:func:`map_pairs` reads every ``Map``, ``Vector`` and ``String`` under
a Map page's Map (an aggregation's combiner and output pages) with one
gather per nesting level, into the host values
:func:`repro.memory.scatter.scatter_map` writes.

Both read through one reader, :class:`_Page`, which reads values at
byte positions, resolves handle slots to targets on the page and on a
word, decodes Strings and lays out Vector elements after every count
and capacity check.  A row read is *typed*: it makes, for the whole
vector at once, the checks ``deref`` makes per object — the slot is not
null, the target is not freed, its *header* type code is the expected
class (exactly: a subclass may override the method a kernel stands in
for).  A Map read is not: the entry path reads a null slot as None and
no code.  Whatever a read cannot serve raises one
:class:`GatherIneligible`; the caller then takes the object (or entry)
path, which gives its result or raises its exception at its row.
Iterating or indexing an :class:`ObjectRows` reads nothing: it yields
the very handles the page's root vector yields.

No ``numpy`` view of the page is kept: each read takes its own
``frombuffer`` view and returns copies, so nothing here pins a
shared-memory segment past the call (DESIGN §12, §17).
"""

from __future__ import annotations

import numpy as np

from repro.errors import ObjectModelError, UnknownTypeCodeError
from repro.memory.builtins import (
    _BACKING,
    AnyObjectType,
    MapFacade,
    MapType,
    StringType,
    VectorFacade,
    VectorType,
)
from repro.memory.columnar import RowBatch
from repro.memory.handle import Handle
from repro.memory.layout import (
    BLOCK_HEADER_SIZE,
    OBJECT_HEADER_SIZE,
    REFCOUNT_FREED,
)
from repro.memory.objects import ClassDescriptor, PCObject
from repro.memory.types import numpy_dtype_for, registry_of

#: Why a batch of a marked stage, or a Map page read, took the object
#: path instead — the closed set of ``pc_engine_kernel_fallback_total
#: {reason}`` for TCAP operators and ``map_read`` (a Map build's are
#: ``repro.memory.scatter``'s).  The first two are the engine's (the
#: batch carries no array column; a kernel returned something other than
#: a column of the batch's length), the rest a gather's;
#: ``uncovered_type`` is a Map type :func:`map_pairs` does not read.
FALLBACK_REASONS = (
    "not_array_batch", "bad_kernel_result", "mixed_types",
    "null_or_dangling", "sanitizer", "unaligned", "uncovered_type",
)


class GatherIneligible(ObjectModelError):
    """This batch cannot be read as arrays; ``reason`` says why."""

    def __init__(self, reason):
        if reason not in FALLBACK_REASONS:
            raise ValueError("unknown fallback reason %r" % (reason,))
        super().__init__("batch takes the object path: %s" % reason)
        self.reason = reason


_HEADER = OBJECT_HEADER_SIZE
_PAIR = np.arange(2)
#: the payload bytes a Vector or Map read needs: its count and the
#: handle slot of its backing array / bucket table
_CONTAINER = _BACKING + 12


def row_class(registry, type_name):
    """The :class:`PCObject` class ``registry`` holds as ``type_name``,
    or None (also when there is no registry)."""
    if registry is None or not type_name:
        return None
    code = registry.code_for_name(type_name)
    if code is None:
        return None
    cls = getattr(registry.lookup(code), "cls", None)
    if isinstance(cls, type) and issubclass(cls, PCObject):
        return cls
    return None


def _dtype_of(pc_type, byte_offset=0):
    """The dtype a word gather can read a ``pc_type`` at ``byte_offset``
    as — a four- or eight-byte primitive on a word boundary — or None."""
    if pc_type.slot_size in (4, 8) and byte_offset % 4 == 0:
        return numpy_dtype_for(pc_type)
    return None


def column_names(cls):
    """The fields of ``cls`` that :meth:`ObjectRows.column` serves."""
    return frozenset(
        accessor.name for accessor in cls.pc_accessors
        if _dtype_of(accessor.pc_type, accessor.byte_offset) is not None
    )


def _spans(starts, counts, step):
    """``starts[i] + j * step`` for ``j < counts[i]``, run after run."""
    firsts = np.cumsum(counts) - counts
    return np.repeat(starts - firsts * step, counts) \
        + np.arange(int(counts.sum()), dtype=np.int64) * step


def _with_nulls(values, null):
    """``values``, one per live slot, with None at every ``null`` slot."""
    if not null.any():
        return values
    live = iter(values)
    return [None if empty else next(live) for empty in null.tolist()]


class _Page:
    """The one reader of a page's words, for one read.

    A *typed* reader (a row page's) declines a null slot and checks
    that every target is live and holds exactly its declared type code;
    an untyped one (a Map page's) reads a null slot as target 0 and
    checks no code.  Both check that every target's header, and the
    payload bytes the read takes of it, lie on the page, on a word.
    """

    __slots__ = ("block", "buf", "words", "size", "typed")

    def __init__(self, block, typed=False):
        self.block = block
        self.typed = typed
        buf = self.buf = block.buf
        self.words = np.frombuffer(buf, dtype="<u4", count=len(buf) // 4)
        self.size = len(self.words) * 4

    def read(self, positions, dtype):
        """The four- or eight-byte values at byte ``positions``."""
        if (positions & 3).any():
            raise GatherIneligible("unaligned")
        index = positions >> 2
        if dtype[-1] == "8":
            return self.words[index[:, None] + _PAIR].view(dtype)[:, 0]
        return self.words[index].view(dtype)

    def targets(self, slots, need, pc_type, nulls=False):
        """``(targets, null)`` of the handle slots at byte ``slots``,
        declared ``pc_type``, whose first ``need`` payload bytes the
        read takes (:meth:`check`)."""
        delta = self.read(slots, "<i8")
        return self.check(slots + delta, delta == 0, need, pc_type, nulls)

    def check(self, targets, null, need, pc_type, nulls=False):
        """``(targets, null)`` once every target passed: a ``null`` one
        declines (``null_or_dangling``) unless the reader is untyped or
        ``nulls`` says it may be null, and reads as target 0."""
        live = targets
        if null.any():
            if self.typed and not nulls:
                raise GatherIneligible("null_or_dangling")
            targets[null] = 0
            live = targets[~null]
        if not len(live):
            return targets, null
        if live.min() < BLOCK_HEADER_SIZE or (live & 3).any() \
                or live.max() > self.size - _HEADER - need:
            raise GatherIneligible("null_or_dangling")
        if self.typed:
            index = live >> 2
            if (self.words[index].view("<i4") == REFCOUNT_FREED).any():
                raise GatherIneligible("null_or_dangling")
            if (self.words[index + 1] != pc_type.type_code(self.block)).any():
                raise GatherIneligible("mixed_types")
        return targets, null

    def strings(self, slots, pc_type):
        """The Strings at the handle slots ``slots``, decoded once per
        distinct target, None per null slot.  A String that runs off the
        page is cut short, as the entry path's ``StringType.facade``
        cuts it; one that is not UTF-8 declines (``null_or_dangling``)."""
        targets, null = self.targets(slots, 4, pc_type)
        starts = targets[~null] + _HEADER + 4
        spans = dict(zip(starts.tolist(),
                         (starts + self.read(starts - 4, "<u4")).tolist()))
        buf = self.buf
        try:
            text = {start: str(buf[start:end], "utf-8")
                    for start, end in spans.items()}
        except UnicodeDecodeError:
            raise GatherIneligible("null_or_dangling") from None
        return _with_nulls([text[start] for start in starts.tolist()], null)

    def vectors(self, vector, slots):
        """``(positions, counts, null)`` of the ``vector`` Vectors at the
        handle slots ``slots``: where their elements lie, Vector after
        Vector, and how many each holds (a null slot's, none).  Every
        count is at most its backing array's capacity, a null backing
        holds none, and every element lies on the page — or the read
        declines (``null_or_dangling``)."""
        targets, null = self.targets(slots, _CONTAINER, vector)
        payloads = targets[~null] + _HEADER
        counts = self.read(payloads, "<i8")
        arrays, empty = self.targets(payloads + _BACKING, 0,
                                     vector.array_type, nulls=True)
        step = vector.elem.slot_size
        capacity = self.read(arrays + 8, "<i8") // step
        capacity[empty] = 0
        if ((counts < 0) | (counts > capacity) | (
                counts > (self.size - arrays - _HEADER) // step)).any():
            raise GatherIneligible("null_or_dangling")
        return _spans(arrays + _HEADER, counts, step), counts, null


def root_rows(items, type_name):
    """A row page's root vector ``items`` as :class:`ObjectRows` of the
    class registered as ``type_name`` — or ``items`` itself when it is
    no root vector (a rootless page) or holds no object of that class.

    The class is found the way ``deref`` finds one, from the type codes
    on the page: a worker's registry learns a type by meeting its code.
    """
    if not isinstance(items, VectorFacade):
        return items
    block = items.pc_block
    count, array, _capacity = items._state()
    slots = (array or 0) + _HEADER + 12 * np.arange(count, dtype=np.int64)
    page = _Page(block)
    delta = page.read(slots, "<i8")
    codes = page.read(slots + 8, "<u4")
    targets, null = slots + delta, delta == 0
    targets[null] = -1
    registry = registry_of(block)
    for code in set(codes[~null].tolist()):
        try:
            descriptor = registry.lookup(code)
        except UnknownTypeCodeError:
            return items  # the object path raises this at its row
        if isinstance(descriptor, ClassDescriptor) \
                and descriptor.name == type_name:
            return ObjectRows(block, targets, descriptor.cls, codes)
    return items


class ObjectRows(RowBatch):
    """The objects of class ``cls`` at ``offsets`` of one row page.

    ``codes`` are the type codes of the handle slots the offsets were
    read from (the handles this batch yields carry them; by default the
    class's own) and an offset of -1 is a null slot.  A batch built
    from a root vector is unchecked until its first array read; one a
    hop returned was checked by that hop.
    """

    __slots__ = ("block", "offsets", "cls", "codes", "_checked")
    path = "gather_rows"

    def __init__(self, block, offsets, cls, codes=None, checked=False):
        self.block = block
        self.offsets = offsets
        self.cls = cls
        self.codes = codes
        self._checked = checked

    # -- the object path's view -----------------------------------------------

    def __len__(self):
        return len(self.offsets)

    def __iter__(self):
        block = self.block
        if self.codes is None:
            # asked the way an allocation asks: a worker's registry that
            # has not met the type yet learns the cluster-wide code here
            codes = [self.cls.pc_descriptor.type_code(block)] * len(self)
        else:
            codes = self.codes.tolist()
        return (
            Handle(block, offset, code) if offset >= 0 else None
            for offset, code in zip(self.offsets.tolist(), codes)
        )

    def __getitem__(self, index):
        if isinstance(index, slice):
            start, stop, step = index.indices(len(self))
            if step != 1:
                raise ObjectModelError("row batches slice by step 1")
            return self.slice(start, stop)
        index = range(len(self))[index]
        return next(iter(self.slice(index, index + 1)))

    def reify(self):
        return list(self)

    def _select(self, selector):
        return ObjectRows(
            self.block, self.offsets[selector], self.cls,
            None if self.codes is None else self.codes[selector],
            self._checked,
        )

    def slice(self, start, stop):
        """Rows ``[start:stop)`` of this batch as a new batch."""
        return self._select(slice(start, stop))

    def mask(self, keep):
        """The rows where boolean ``keep`` is True, as a new batch."""
        return self._select(np.asarray(keep, dtype=bool))

    # -- array reads -----------------------------------------------------------

    def _page(self):
        """The page's typed reader, once this batch passed the root
        hop's checks."""
        if getattr(self.block, "_san", None) is not None:
            # PCSan tracks handles, generations and derefs one by one.
            raise GatherIneligible("sanitizer")
        page = _Page(self.block, typed=True)
        if not self._checked:
            descriptor = self.cls.pc_descriptor
            page.check(self.offsets, self.offsets < 0,
                       descriptor.fixed_payload, descriptor)
            self._checked = True
        return page

    def _field(self, name, kind):
        accessor = self.cls.pc_fields.get(name)
        if accessor is None or not isinstance(accessor.pc_type, kind):
            raise ObjectModelError(
                "%s.%s is not a %s field"
                % (self.cls.__name__, name, kind.__name__)
            )
        return accessor.pc_type, self.offsets + _HEADER + accessor.byte_offset

    def _rows(self, page, slots, cls):
        """The ``cls`` objects at the handle slots ``slots``, checked."""
        descriptor = cls.pc_descriptor
        targets, _null = page.targets(slots, descriptor.fixed_payload,
                                      descriptor)
        return ObjectRows(self.block, targets, cls, checked=True)

    def column(self, name):
        """Field ``name`` of every row as one ndarray (KeyError unless
        it is one of :func:`column_names`)."""
        accessor = self.cls.pc_fields.get(name)
        dtype = accessor and _dtype_of(accessor.pc_type, accessor.byte_offset)
        if dtype is None:
            raise KeyError(name)
        return self._page().read(
            self.offsets + _HEADER + accessor.byte_offset, dtype
        )

    def strings(self, name):
        """``String`` field ``name`` of every row, as a list of ``str``
        — decoded once per distinct target."""
        page = self._page()
        pc_type, slots = self._field(name, StringType)
        return page.strings(slots, pc_type)

    def objects(self, name):
        """The objects field ``name`` (declared a ``PCObject`` class)
        points at, one per row, as a child batch."""
        page = self._page()
        pc_type, slots = self._field(name, ClassDescriptor)
        return self._rows(page, slots, pc_type.cls)

    def elements(self, name, cls=None):
        """Every element of ``Vector`` field ``name``, rows in order:
        ``(elements, parent)`` with ``parent[i]`` the row element ``i``
        belongs to.  Primitive elements come as one ndarray; objects as
        a child batch of the vector's declared class — of ``cls`` for a
        ``Vector<AnyObject>``, which declares none.
        """
        page = self._page()
        vector, slots = self._field(name, VectorType)
        positions, counts, _null = page.vectors(vector, slots)
        parent = np.repeat(np.arange(len(counts)), counts)
        elem = vector.elem
        if not elem.is_object_type:
            dtype = _dtype_of(elem)
            if dtype is None:
                raise GatherIneligible("unaligned")
            return page.read(positions, dtype), parent
        if isinstance(elem, ClassDescriptor):
            cls = elem.cls
        elif not isinstance(elem, AnyObjectType) or cls is None:
            raise ObjectModelError(
                "elements(%r): name the element class of a %s"
                % (name, vector.name)
            )
        return self._rows(page, positions, cls), parent

    def __repr__(self):
        return "<ObjectRows %d x %s>" % (len(self), self.cls.__name__)


# -- Map pages ---------------------------------------------------------------------

#: A Map whose entries and page objects number fewer is read entry by
#: entry (:func:`_host`): a gather's fixed cost per nesting level is more
#: than what so few cost one by one.  The measured break-even, in these
#: units, is ~110 for ``Map<Int64, Float64>``, ~120 for ``Map<Int64,
#: Vector<Float64>>`` and ~230 for ``Map<String, Map<String,
#: Vector<Int32>>>`` (EXPERIMENTS.md, "Map-page gathers").
MAP_GATHER_MIN_SIZE = 128


def map_pairs(view):
    """The ``(key, value)`` pairs of the stored ``Map`` ``view``, in
    bucket order — ``view.items()`` — as host values: what
    ``scatter_map`` takes for the declared type, a ``dict`` per nested
    Map, a ``list`` per Vector, a ``str`` per String, an ``int`` or
    ``float`` per primitive and None per null slot.

    The Maps, Vectors and Strings under ``view`` are read level by
    level, one gather per level for all of them, by an untyped
    :class:`_Page`.  A type it does not cover (``uncovered_type``: a key
    that is not a four- or eight-byte primitive or a String, a value
    that is none of those nor a Vector or Map of covered types) or a
    handle, count, capacity or String the entry path would not read as
    it is (``null_or_dangling``) raises :class:`GatherIneligible` before
    anything is returned; the entry path then gives its pairs or raises
    its exception.  A sanitized block is read all the same: the entry
    path of a covered Map makes no handle, so PCSan checks nothing
    there either.
    """
    _cover(view.descriptor)
    if len(view) + view.pc_block.active_objects < MAP_GATHER_MIN_SIZE:
        return [(key, _host(value)) for key, value in view.items()]
    keys, values, _counts = _entries(
        _Page(view.pc_block), view.descriptor,
        np.array([view.pc_offset + _HEADER], np.int64))
    return list(zip(keys, values))


def _host(value):
    """A value the entry path read, in the form :func:`map_pairs` gives."""
    if isinstance(value, MapFacade):
        return {key: _host(item) for key, item in value.items()}
    if isinstance(value, VectorFacade):
        if value.descriptor.elem.is_object_type:
            return list(map(_host, value))
        return list(value)
    return value


def _cover(descriptor, key=False):
    """Raise ``uncovered_type`` unless :func:`map_pairs` reads a
    ``descriptor`` slot (a Map key's, with ``key``)."""
    if isinstance(descriptor, StringType) or _dtype_of(descriptor) is not None:
        return
    if not key and isinstance(descriptor, VectorType):
        return _cover(descriptor.elem)
    if not key and isinstance(descriptor, MapType):
        _cover(descriptor.key, key=True)
        return _cover(descriptor.val)
    raise GatherIneligible("uncovered_type")


def _runs(items, counts):
    """``items`` cut into consecutive runs of ``counts``, as lists."""
    ends = np.cumsum(counts).tolist()
    return [items[start:end] for start, end in zip([0] + ends, ends)]


def _values(page, descriptor, slots):
    """The host values of the ``descriptor`` slots at ``slots``."""
    if isinstance(descriptor, StringType):
        return page.strings(slots, descriptor)
    if isinstance(descriptor, VectorType):
        positions, counts, null = page.vectors(descriptor, slots)
        elements = _values(page, descriptor.elem, positions)
        return _with_nulls(_runs(elements, counts), null)
    if isinstance(descriptor, MapType):
        targets, null = page.targets(slots, _CONTAINER, descriptor)
        keys, values, counts = _entries(page, descriptor,
                                        targets[~null] + _HEADER)
        return _with_nulls([
            dict(zip(run_keys, run_values)) for run_keys, run_values in
            zip(_runs(keys, counts), _runs(values, counts))
        ], null)
    return page.read(slots, _dtype_of(descriptor)).tolist()


def _entries(page, map_type, payloads):
    """``(keys, values, counts)``: the occupied entries of the Maps
    whose payloads start at ``payloads``, Map after Map, each in bucket
    order, and how many each Map holds."""
    buckets = map_type.buckets_type
    tables, empty = page.targets(payloads + _BACKING, 0, buckets, nulls=True)
    sizes = page.read(tables + 8, "<i8")
    sizes[empty] = 0
    if ((sizes < 0) | (sizes > page.size - tables - _HEADER)).any():
        raise GatherIneligible("null_or_dangling")
    capacity = sizes // buckets.entry_size
    entries = _spans(tables + _HEADER, capacity, buckets.entry_size)
    occupied = page.read(entries, "<u4") & 0xFF != 0
    counts = np.bincount(
        np.repeat(np.arange(len(capacity)), capacity)[occupied],
        minlength=len(capacity))
    entries = entries[occupied]
    return (_values(page, buckets.key, entries + buckets.key_offset),
            _values(page, buckets.val, entries + buckets.val_offset),
            counts)
