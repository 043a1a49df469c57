"""Columnar (struct-of-arrays) page layout for fixed-stride types.

A :class:`ColumnarPage` stores a batch of rows column-major inside an
ordinary :class:`~repro.memory.block.AllocationBlock`: one raw allocation
per column, plus a *columnar root* object whose payload records the row
count and each column's name, dtype, and payload offset.  Because the root
travels in the block's root-handle slot like any other page root, the
page keeps every zero-cost-movement property of the row layout —
``to_bytes``/``from_bytes`` shipping, CRC checks, buffer-pool spill, and
zero-copy :meth:`~repro.memory.block.AllocationBlock.from_buffer`
attachment from a process-backed worker's shared-memory mapping.

Column data is exposed as ``numpy.frombuffer`` views that alias the page
bytes — the read side of the paper's ``Eigen::Map`` trick (Section 8.3.1),
applied to whole sets instead of single matrix objects.  The views are
marked read-only: sealed pages are immutable.

Two small row-compatible facades bridge back to the object path:
:class:`ColumnarRows` (a sliceable batch of rows, consumed whole by the
vectorized kernels in :mod:`repro.engine.kernels`) and :class:`RowView`
(a per-row facade with schema-named attributes, used wherever an operator
falls back to per-row execution).
"""

from __future__ import annotations

import struct
from collections import deque

import numpy as np

from repro.errors import ObjectModelError, StorageError
from repro.memory.block import AllocationBlock
from repro.memory.layout import (
    BLOCK_HEADER_SIZE,
    OBJECT_HEADER_SIZE,
    REFCOUNT_UNCOUNTED,
    align8,
)
from repro.memory.objects import ObjectTypeDescriptor
from repro.memory.typecodes import simple_code
from repro.memory.types import NUMPY_DTYPES

#: root payload header: column count, reserved, row count
_ROOT_HEADER = struct.Struct("<IIQ")
#: per-column record: payload offset, dtype string, name length (+ name)
_COL_RECORD = struct.Struct("<Q8sH")


class ColumnarRootType(ObjectTypeDescriptor):
    """The root object of a columnar page: its self-describing directory."""

    name = "columnar_root"

    #: A shipped page's root slot must identify the layout with no
    #: registration handshake (see ObjectTypeDescriptor.FIXED_CODE).
    FIXED_CODE = 3

    def facade(self, block, offset):
        return ColumnarPage._parse(block, offset)

    def allocate_value(self, block, value):
        raise ObjectModelError(
            "columnar roots are built by ColumnarPage.build(), "
            "not allocated directly"
        )


ColumnarRoot = ColumnarRootType()


class ColumnarPage:
    """A sealed struct-of-arrays page; columns are zero-copy numpy views."""

    __slots__ = ("block", "count", "_names", "_dtypes", "_offsets")

    def __init__(self, block, names, dtypes, offsets, count):
        self.block = block
        self.count = count
        self._names = names
        self._dtypes = dtypes
        self._offsets = offsets

    # -- construction -------------------------------------------------------

    @classmethod
    def build(cls, schema, columns, page_size, registry=None):
        """Lay ``columns`` (name -> array-like, equal lengths) onto a page.

        The page is built exactly-sized: column allocations hold the given
        rows and nothing more, so ``to_bytes`` ships only occupied bytes.
        """
        names = schema.names()
        arrays = []
        count = None
        for name, descriptor in schema:
            dtype = NUMPY_DTYPES[descriptor.name]
            arr = np.ascontiguousarray(columns[name], dtype=dtype).reshape(-1)
            if count is None:
                count = len(arr)
            elif len(arr) != count:
                raise ObjectModelError(
                    "ragged columnar build: column %r has %d rows, "
                    "expected %d" % (name, len(arr), count)
                )
            arrays.append((name, dtype, arr))
        block = AllocationBlock(page_size, registry=registry, managed=False)
        dtypes = []
        offsets = []
        for name, dtype, arr in arrays:
            offset = block.allocate(
                arr.nbytes, simple_code(arr.itemsize),
                refcount=REFCOUNT_UNCOUNTED,
            )
            start = offset + OBJECT_HEADER_SIZE
            block.buf[start:start + arr.nbytes] = arr.tobytes()
            dtypes.append(dtype)
            offsets.append(start)
        payload = _ROOT_HEADER.pack(len(arrays), 0, count)
        for (name, dtype, _arr), start in zip(arrays, offsets):
            encoded = name.encode("utf-8")
            payload += _COL_RECORD.pack(
                start, dtype.encode("ascii").ljust(8, b"\0"), len(encoded)
            ) + encoded
        root_code = ColumnarRoot.type_code(block)
        root_offset = block.allocate(
            len(payload), root_code, refcount=REFCOUNT_UNCOUNTED
        )
        start = root_offset + OBJECT_HEADER_SIZE
        block.buf[start:start + len(payload)] = payload
        block.set_root(root_offset, root_code)
        return cls(block, names, dtypes, offsets, count)

    @classmethod
    def attach(cls, block):
        """The page's columnar view, or None when ``block`` is row-layout."""
        offset, code = block.root()
        if offset is None or code != ColumnarRootType.FIXED_CODE:
            return None
        return cls._parse(block, offset)

    @classmethod
    def _parse(cls, block, root_offset):
        buf = block.buf
        cursor = root_offset + OBJECT_HEADER_SIZE
        ncols, _reserved, count = _ROOT_HEADER.unpack_from(buf, cursor)
        cursor += _ROOT_HEADER.size
        names, dtypes, offsets = [], [], []
        for _ in range(ncols):
            start, dtype, name_len = _COL_RECORD.unpack_from(buf, cursor)
            cursor += _COL_RECORD.size
            names.append(bytes(buf[cursor:cursor + name_len]).decode("utf-8"))
            dtypes.append(dtype.rstrip(b"\0").decode("ascii"))
            offsets.append(start)
            cursor += name_len
        return cls(block, names, dtypes, offsets, count)

    @staticmethod
    def capacity_for(schema, page_size):
        """Rows of ``schema`` that fit on a page of ``page_size`` bytes."""
        root_payload = _ROOT_HEADER.size + sum(
            _COL_RECORD.size + len(name.encode("utf-8"))
            for name in schema.names()
        )
        fixed = BLOCK_HEADER_SIZE + max(
            align8(OBJECT_HEADER_SIZE + root_payload), 24
        )
        per_column = len(schema) * (OBJECT_HEADER_SIZE + 8)
        available = page_size - fixed - per_column
        return max(available // schema.row_stride, 0)

    # -- access -------------------------------------------------------------

    def names(self):
        """Column names in schema order."""
        return list(self._names)

    def column(self, name):
        """Zero-copy read-only numpy view over column ``name``."""
        try:
            index = self._names.index(name)
        except ValueError:
            raise KeyError(name) from None
        view = np.frombuffer(
            self.block.buf, dtype=self._dtypes[index], count=self.count,
            offset=self._offsets[index],
        )
        view.flags.writeable = False
        return view

    def rows(self):
        """All rows of the page as one :class:`ColumnarRows` batch."""
        return ColumnarRows(self)

    def __len__(self):
        return self.count

    def __repr__(self):
        return "<ColumnarPage %d rows x [%s]>" % (
            self.count, ", ".join(self._names)
        )


class ColumnarPageWriter:
    """The one way rows become columnar pages.

    What :meth:`append` and :meth:`append_columns` take is held as arrays
    of the schema's dtypes — each call's values converted once, all or
    none (:meth:`~repro.schema.Schema.column_array`), so a value its
    column cannot hold raises :class:`StorageError` at the call that
    gave it, with nothing of that call held.  A page of ``capacity``
    rows is built whenever that many are held, and one of the rest at
    :meth:`flush`; a page's rows are read from the held arrays by
    offset, so what is left is never copied again.
    ``seal_page(page)`` takes each built :class:`ColumnarPage` and
    returns its name, kept in :attr:`sealed`.
    """

    def __init__(self, schema, page_size, seal_page, registry=None):
        self.schema = schema
        self.page_size = page_size
        self.capacity = ColumnarPage.capacity_for(schema, page_size)
        if self.capacity < 1:
            raise StorageError(
                "no row of %r fits on a %d-byte page" % (schema, page_size)
            )
        self._seal_page = seal_page
        self._registry = registry
        self._names = schema.names()
        self._rows = []  # append's one-record arrays, not yet a chunk
        self._chunks = deque()  # name -> array, in arrival order
        self._offset = 0  # rows of the first chunk already on a page
        self._held = 0
        #: what ``seal_page`` returned for every page sealed so far.
        self.sealed = []
        #: rows accepted so far, a later :meth:`discard` included.
        self.appended = 0

    def append(self, type_or_class=None, init=None, **fields):
        """Hold one row; the keywords name exactly the schema columns.

        ``type_or_class`` is accepted (and ignored) so row-loader call
        sites can switch a set to columnar without edits — the schema
        already fixes the row type.
        """
        if fields.keys() != set(self._names):
            # Checked before anything is held: a partial row would shift
            # every later row of the columns it reached.
            raise StorageError(
                "columnar append takes exactly the schema columns %r; "
                "missing %r, unknown %r" % (
                    self._names, sorted(set(self._names) - fields.keys()),
                    sorted(fields.keys() - set(self._names)),
                )
            )
        self._rows.append(self.schema.row_array(fields))
        self._held += 1
        self.appended += 1
        self._write()

    def extend(self, cls, records):
        """Hold each record as :meth:`append` does."""
        for record in records:
            self.append(cls, **record)

    def append_columns(self, **columns):
        """Hold many rows at once from equal-length per-column values."""
        lengths = {len(columns[name]) for name in self._names
                   if name in columns}
        if columns.keys() != set(self._names) or len(lengths) != 1:
            raise StorageError(
                "append_columns needs equal-length values for exactly the "
                "schema columns %r" % (self._names,)
            )
        arrays = {name: self.schema.column_array(name, columns[name])
                  for name in self._names}
        count = lengths.pop()
        self._fold()
        if count:
            self._chunks.append(arrays)
        self._held += count
        self.appended += count
        self._write()

    def _fold(self):
        """Make the rows :meth:`append` holds one chunk, in order."""
        if self._rows:
            rows = np.concatenate(self._rows)
            self._chunks.append({name: rows[name] for name in self._names})
            self._rows = []

    def _take(self, take):
        """The next ``take`` held rows, name -> array: views into the
        first chunk when it holds them, else copied across chunks."""
        parts = []
        while take:
            chunk = self._chunks[0]
            size = len(chunk[self._names[0]])
            stop = min(size, self._offset + take)
            parts.append({name: column[self._offset:stop]
                          for name, column in chunk.items()})
            take -= stop - self._offset
            self._offset = stop
            if stop == size:
                self._chunks.popleft()
                self._offset = 0
        if len(parts) == 1:
            return parts[0]
        return {name: np.concatenate([part[name] for part in parts])
                for name in self._names}

    def _write(self, final=False):
        """Build and seal a page of every ``capacity`` rows held and,
        ``final``, one of the rest."""
        while self._held >= self.capacity or (final and self._held):
            self._fold()
            take = min(self._held, self.capacity)
            columns = self._take(take)
            # Taken before it is sealed: a page whose seal raises is lost
            # with the error, and what is held stays consistent.
            self._held -= take
            self.sealed.append(self._seal_page(ColumnarPage.build(
                self.schema, columns, self.page_size, registry=self._registry,
            )))

    def flush(self):
        """Seal everything held (the final partial page last)."""
        self._write(final=True)

    def discard(self):
        """Drop the rows held, unsealed; returns how many."""
        dropped, self._held = self._held, 0
        self._rows, self._chunks, self._offset = [], deque(), 0
        return dropped


class RowView:
    """Per-row facade over a columnar page (the object-path bridge).

    Attribute access is schema-named, mirroring the field accessors of a
    row-layout PCObject facade, so per-row fallback operators run on
    columnar rows unchanged.  Like any facade it aliases page memory —
    ``pc_block`` marks it as page-backed for the transport reject checks.
    """

    __slots__ = ("pc_page", "pc_row")

    def __init__(self, page, row):
        object.__setattr__(self, "pc_page", page)
        object.__setattr__(self, "pc_row", row)

    @property
    def pc_block(self):
        return self.pc_page.block

    def __getattr__(self, name):
        try:
            column = self.pc_page.column(name)
        except KeyError:
            raise AttributeError(name) from None
        return column[self.pc_row].item()

    def field_names(self):
        """Schema column names, mirroring PCObject.field_names()."""
        return self.pc_page.names()

    def as_tuple(self):
        """The row's values as a plain tuple, in schema order."""
        return tuple(
            self.pc_page.column(name)[self.pc_row].item()
            for name in self.pc_page.names()
        )

    def detach(self):
        """This row copied out of page memory (no block references)."""
        return DetachedRow(self.pc_page.names(), self.as_tuple())

    def __eq__(self, other):
        if isinstance(other, (RowView, DetachedRow)):
            other = other.as_tuple()
        if isinstance(other, tuple):
            return self.as_tuple() == other
        return NotImplemented

    def __hash__(self):
        return hash(self.as_tuple())

    def __repr__(self):
        parts = ", ".join(
            "%s=%r" % (name, value)
            for name, value in zip(self.pc_page.names(), self.as_tuple())
        )
        return "RowView(%s)" % parts


class DetachedRow:
    """A row copied out of page memory: plain values, schema-named attrs.

    What a :class:`RowView` becomes when it must outlive its page — a
    stored python output, a collect result pickled across a process
    boundary.  Same attribute surface and tuple equality; no ``pc_block``
    and no page references, so transport reject checks let it through.
    """

    __slots__ = ("_names", "_values")

    def __init__(self, names, values):
        object.__setattr__(self, "_names", tuple(names))
        object.__setattr__(self, "_values", tuple(values))

    def __getattr__(self, name):
        if name.startswith("_"):
            raise AttributeError(name)
        try:
            index = self._names.index(name)
        except ValueError:
            raise AttributeError(name) from None
        return self._values[index]

    def field_names(self):
        """Schema column names, mirroring PCObject.field_names()."""
        return list(self._names)

    def as_tuple(self):
        """The row's values as a plain tuple, in schema order."""
        return self._values

    def detach(self):
        """Already detached; returns self."""
        return self

    def __eq__(self, other):
        if isinstance(other, (RowView, DetachedRow)):
            other = other.as_tuple()
        if isinstance(other, tuple):
            return self._values == other
        return NotImplemented

    def __lt__(self, other):
        if isinstance(other, (RowView, DetachedRow)):
            other = other.as_tuple()
        if isinstance(other, tuple):
            return self._values < other
        return NotImplemented

    def __hash__(self):
        return hash(self._values)

    def __repr__(self):
        parts = ", ".join(
            "%s=%r" % (name, value)
            for name, value in zip(self._names, self._values)
        )
        return "DetachedRow(%s)" % parts


class RowBatch:
    """The rows of one page as the array path carries them: what flows
    through a marked pipeline in place of a list of objects.

    Kernels consume the batch whole — ``column(name)`` is one array per
    fixed-width field — and narrow it with ``slice`` / ``mask``; a
    per-row fallback operator iterates it, or takes ``reify()``, and
    sees what the object path would have.  ``path`` names the counter
    the rows a kernel served are booked under.
    """

    __slots__ = ()
    path = None

    def reify(self):
        """The rows as the object path's plain list."""
        raise NotImplementedError


class ColumnarRows(RowBatch):
    """A batch of columnar rows, optionally index-selected: the rows of
    one columnar page, or of several pages' columns copied into arrays
    this batch owns (:meth:`copied`, a kernel batch).

    Per-row fallback operators iterate it and get :class:`RowView`
    facades over a page's rows, :class:`DetachedRow` s over copied ones;
    reified, the rows detach either way: they keep their schema-named
    attribute surface but hold copied values, so they are free to
    outlive the page and to cross a process boundary.
    """

    __slots__ = ("page", "_indices", "_columns")
    path = "columnar_rows"

    def __init__(self, page, indices=None, columns=None):
        #: the page the rows are views of; None when ``columns`` holds
        #: them (name -> owned array, schema order)
        self.page = page
        self._indices = indices
        self._columns = columns

    @classmethod
    def copied(cls, columns):
        """A batch over ``columns`` (name -> array, schema order, equal
        lengths), arrays no page owns."""
        return cls(None, columns=columns)

    def __len__(self):
        if self._indices is not None:
            return len(self._indices)
        if self.page is not None:
            return self.page.count
        for column in self._columns.values():
            return len(column)
        return 0

    def column(self, name):
        """Column values for the selected rows (a view when unfiltered)."""
        if self.page is not None:
            column = self.page.column(name)
        else:
            column = self._columns[name]
        if self._indices is None:
            return column
        return column[self._indices]

    def names(self):
        """Column names in schema order."""
        if self.page is not None:
            return self.page.names()
        return list(self._columns)

    def _row_index(self, index):
        length = len(self)
        if index < 0:
            index += length
        if not 0 <= index < length:
            raise IndexError(
                "row index %d out of range (%d)" % (index, length)
            )
        if self._indices is None:
            return index
        return int(self._indices[index])

    def __getitem__(self, index):
        if isinstance(index, slice):
            start, stop, step = index.indices(len(self))
            if step != 1:
                raise ObjectModelError("columnar batches slice by step 1")
            return self.slice(start, stop)
        row = self._row_index(index)
        if self.page is None:
            return DetachedRow(self.names(), (
                column[row].item() for column in self._columns.values()
            ))
        return RowView(self.page, row)

    def __iter__(self):
        if self.page is None:
            yield from self.reify()
            return
        for index in range(len(self)):
            yield RowView(self.page, self._row_index(index))

    def _select(self, indices):
        return ColumnarRows(self.page, indices, self._columns)

    def slice(self, start, stop):
        """Rows ``[start:stop)`` of this batch as a new batch."""
        if self._indices is None:
            return self._select(np.arange(start, min(stop, len(self))))
        return self._select(self._indices[start:stop])

    def mask(self, keep):
        """The rows where boolean ``keep`` is True, as a new batch."""
        keep = np.asarray(keep, dtype=bool)
        if self._indices is None:
            return self._select(np.nonzero(keep)[0])
        return self._select(self._indices[keep])

    def reify(self):
        names = self.names()
        columns = [self.column(name).tolist() for name in names]
        return [DetachedRow(names, values) for values in zip(*columns)]

    def __repr__(self):
        return "<ColumnarRows %d of %r>" % (
            len(self), self.page if self.page is not None
            else "copied [%s]" % ", ".join(self._columns),
        )
