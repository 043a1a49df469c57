"""Gather reads: the objects of one class on one row page, read as arrays.

All objects of a class on a page share one layout, so "field ``f`` of
``n`` objects" is ``n`` loads at ``offset + const`` — one ``numpy``
gather over the page seen as 32-bit words — instead of ``n`` times
``Handle.deref`` → header unpack → registry lookup → facade →
accessor → ``struct.unpack_from``.  :class:`ObjectRows` is that batch:
the :class:`~repro.memory.columnar.RowBatch` of the row layout, with the
three nested reads a row page allows on top (:meth:`ObjectRows.strings`,
:meth:`ObjectRows.objects`, :meth:`ObjectRows.elements`), each of which
is again one gather per hop, whatever the number of rows.

Every hop makes, for the whole vector at once, the checks ``deref``
makes per object — the slot is not null, the target is not freed, the
target's *header* type code is the expected class (exactly: a subclass
may override the method a kernel stands in for) — and whatever a hop
cannot serve raises one :class:`GatherIneligible`: the engine then runs
the batch down the object path, which gives the object path's result or
raises its exception at its row.  Iterating or indexing an
:class:`ObjectRows` needs none of this: it yields the very handles the
page's root vector yields.

No ``numpy`` view of the page is kept: each read takes its own
``frombuffer`` view and returns copies, so nothing here pins a
shared-memory segment past the call (DESIGN §12, §17).
"""

from __future__ import annotations

import numpy as np

from repro.errors import ObjectModelError, UnknownTypeCodeError
from repro.memory.builtins import (
    AnyObjectType,
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

#: Why a batch of a marked stage took the object path instead — the
#: closed set of ``pc_engine_kernel_fallback_total{reason}`` for TCAP
#: operators (a Map build's are ``repro.memory.scatter``'s).  The first
#: two are the engine's (the batch carries no array column; a kernel
#: returned something other than a column of the batch's length), the
#: rest a gather's.
FALLBACK_REASONS = (
    "not_array_batch", "bad_kernel_result", "mixed_types",
    "null_or_dangling", "sanitizer", "unaligned",
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


def _words(block):
    """The page as little-endian 32-bit words (a view for one read)."""
    buf = block.buf
    return np.frombuffer(buf, dtype="<u4", count=len(buf) // 4)


def _aligned(positions):
    if len(positions) and (positions & 3).any():
        raise GatherIneligible("unaligned")
    return positions >> 2


def _read(words, positions, dtype):
    """The four- or eight-byte values at byte ``positions``."""
    index = _aligned(positions)
    if np.dtype(dtype).itemsize == 4:
        return words[index].view(dtype)
    return words[index[:, None] + _PAIR].view(dtype)[:, 0]


def _read_handles(words, slots):
    """``(targets, codes, null)`` of the handle slots at byte ``slots``."""
    index = _aligned(slots)
    delta = _read(words, slots, "<i8")
    return slots + delta, words[index + 2], delta == 0


def _check(words, targets, null, code):
    """The checks of ``Handle.deref``, for every target at once."""
    if not len(targets):
        return
    if null.any() or targets.min() < BLOCK_HEADER_SIZE \
            or targets.max() + _HEADER > len(words) * 4:
        raise GatherIneligible("null_or_dangling")
    index = _aligned(targets)
    if (words[index].view("<i4") == REFCOUNT_FREED).any():
        raise GatherIneligible("null_or_dangling")
    if (words[index + 1] != code).any():
        raise GatherIneligible("mixed_types")


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
    targets, codes, null = _read_handles(_words(block), slots)
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
            codes = [self._code(self.cls.pc_descriptor)] * len(self)
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

    def _code(self, descriptor):
        """The type code of ``descriptor`` on this page (asked the way an
        allocation asks: a worker's registry that has not met the type
        yet learns the cluster-wide code here)."""
        return descriptor.type_code(self.block)

    def _page(self):
        """The page's words, once this batch passed the root hop's checks."""
        if getattr(self.block, "_san", None) is not None:
            # PCSan tracks handles, generations and derefs one by one.
            raise GatherIneligible("sanitizer")
        words = _words(self.block)
        if not self._checked:
            _check(words, self.offsets, self.offsets < 0,
                   self._code(self.cls.pc_descriptor))
            self._checked = True
        return words

    def _field(self, name, kind):
        accessor = self.cls.pc_fields.get(name)
        if accessor is None or not isinstance(accessor.pc_type, kind):
            raise ObjectModelError(
                "%s.%s is not a %s field"
                % (self.cls.__name__, name, kind.__name__)
            )
        return accessor.pc_type, self.offsets + _HEADER + accessor.byte_offset

    def _targets(self, words, slots, pc_type):
        """The checked targets of handle ``slots`` declared ``pc_type``."""
        targets, _codes, null = _read_handles(words, slots)
        _check(words, targets, null, self._code(pc_type))
        return targets

    def column(self, name):
        """Field ``name`` of every row as one ndarray (KeyError unless
        it is one of :func:`column_names`)."""
        accessor = self.cls.pc_fields.get(name)
        dtype = accessor and _dtype_of(accessor.pc_type, accessor.byte_offset)
        if dtype is None:
            raise KeyError(name)
        return _read(
            self._page(), self.offsets + _HEADER + accessor.byte_offset, dtype
        )

    def strings(self, name):
        """``String`` field ``name`` of every row, as a list of ``str``
        — decoded once per distinct target."""
        words = self._page()
        pc_type, slots = self._field(name, StringType)
        targets = self._targets(words, slots, pc_type)
        lengths = _read(words, targets + _HEADER, "<u4").tolist()
        targets = targets.tolist()
        buf = self.block.buf
        decoded = {}
        for target, length in zip(targets, lengths):
            if target not in decoded:
                start = target + _HEADER + 4
                decoded[target] = str(buf[start:start + length], "utf-8")
        return [decoded[target] for target in targets]

    def objects(self, name):
        """The objects field ``name`` (declared a ``PCObject`` class)
        points at, one per row, as a child batch."""
        words = self._page()
        pc_type, slots = self._field(name, ClassDescriptor)
        return ObjectRows(
            self.block, self._targets(words, slots, pc_type), pc_type.cls,
            checked=True,
        )

    def elements(self, name, cls=None):
        """Every element of ``Vector`` field ``name``, rows in order:
        ``(elements, parent)`` with ``parent[i]`` the row element ``i``
        belongs to.  Primitive elements come as one ndarray; objects as
        a child batch of the vector's declared class — of ``cls`` for a
        ``Vector<AnyObject>``, which declares none.
        """
        words = self._page()
        vector, slots = self._field(name, VectorType)
        payloads = self._targets(words, slots, vector) + _HEADER
        counts = _read(words, payloads, "<i8")
        arrays, _codes, null = _read_handles(words, payloads + 8)
        filled = counts > 0
        elem = vector.elem
        _check(words, arrays[filled], null[filled],
               self._code(vector.array_type))
        capacity = _read(words, arrays[filled] + 8, "<i8") // elem.slot_size
        if (counts < 0).any() or (capacity < counts[filled]).any():
            raise GatherIneligible("null_or_dangling")
        parent = np.repeat(np.arange(len(counts)), counts)
        first = np.cumsum(counts) - counts
        within = np.arange(len(parent)) - first[parent]
        positions = arrays[parent] + _HEADER + within * elem.slot_size
        if not elem.is_object_type:
            dtype = _dtype_of(elem)
            if dtype is None:
                raise GatherIneligible("unaligned")
            return _read(words, positions, dtype), parent
        if isinstance(elem, ClassDescriptor):
            cls = elem.cls
        elif not isinstance(elem, AnyObjectType) or cls is None:
            raise ObjectModelError(
                "elements(%r): name the element class of a %s"
                % (name, vector.name)
            )
        targets, _codes, null = _read_handles(words, positions)
        _check(words, targets, null, self._code(cls.pc_descriptor))
        return ObjectRows(self.block, targets, cls, checked=True), parent

    def __repr__(self):
        return "<ObjectRows %d x %s>" % (len(self), self.cls.__name__)
