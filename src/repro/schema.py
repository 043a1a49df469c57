"""Declarative column schemas: the one way to opt a set into columnar layout.

A :class:`Schema` names the fixed-stride columns of a set and is passed to
``cluster.create_set(..., schema=...)``; a set is columnar iff it was
created with one.  It is the
client-facing contract behind :class:`repro.memory.columnar.ColumnarPage`:
every column is a primitive (fixed-width) PC type, so a page can store the
set struct-of-arrays style and expose each column as a zero-copy numpy
view.

Schemas can be written out explicitly::

    from repro.schema import Schema, f64, i32

    schema = Schema([("x", f64), ("y", f64), ("flag", i32)])

or derived from a registered :class:`~repro.memory.objects.PCObject`
subclass whose fields are all primitives::

    schema = Schema.from_class(TaxiRide)

Schemas serialize to plain dicts (:meth:`Schema.to_dict` /
:meth:`Schema.from_dict`) so the catalog can journal them and workers can
reconstruct them without shipping descriptor objects.
"""

from __future__ import annotations

import numpy as np

from repro.errors import StorageError, TypeRegistrationError
from repro.memory.types import (
    NUMPY_DTYPES,
    Float32,
    Float64,
    Int8,
    Int16,
    Int32,
    Int64,
    UInt32,
    UInt64,
    primitive_by_name,
)

#: Short dtype aliases for schema declarations (numpy-flavoured names).
f32 = Float32
f64 = Float64
i8 = Int8
i16 = Int16
i32 = Int32
i64 = Int64
u32 = UInt32
u64 = UInt64

_ALIASES = {
    "f4": Float32, "f8": Float64,
    "i1": Int8, "i2": Int16, "i4": Int32, "i8": Int64,
    "u4": UInt32, "u8": UInt64,
}


def _as_primitive(spec):
    """Normalize a column type spec into a primitive descriptor."""
    if isinstance(spec, str):
        if spec in _ALIASES:
            return _ALIASES[spec]
        return primitive_by_name(spec)
    name = getattr(spec, "name", None)
    if name in NUMPY_DTYPES:
        return spec
    raise TypeRegistrationError(
        "columnar schemas require fixed-stride numeric columns; "
        "%r is not one" % (spec,)
    )


class Schema:
    """An ordered list of ``(name, primitive type)`` columns."""

    __slots__ = ("fields", "row_dtype")

    def __init__(self, fields):
        seen = set()
        normalized = []
        for name, spec in fields:
            if name in seen:
                raise TypeRegistrationError(
                    "duplicate column %r in schema" % (name,)
                )
            seen.add(name)
            normalized.append((name, _as_primitive(spec)))
        if not normalized:
            raise TypeRegistrationError("a schema needs at least one column")
        self.fields = tuple(normalized)
        #: one row as a packed numpy record, a field per column
        self.row_dtype = np.dtype([
            (name, NUMPY_DTYPES[descriptor.name])
            for name, descriptor in normalized
        ])

    # -- derivation ---------------------------------------------------------

    @classmethod
    def from_class(cls, pc_class):
        """Derive a schema from a PCObject subclass of all-primitive fields.

        Raises :class:`TypeRegistrationError` naming the first field that
        is not fixed-stride numeric: such a class cannot be laid out
        columnar, and its set is created without a schema (row pages).
        """
        fields = []
        for accessor in getattr(pc_class, "pc_accessors", ()):
            if NUMPY_DTYPES.get(accessor.pc_type.name) is None:
                raise TypeRegistrationError(
                    "%s.%s is a %s, not a fixed-stride numeric column"
                    % (pc_class.__name__, accessor.name,
                       accessor.pc_type.name)
                )
            fields.append((accessor.name, accessor.pc_type))
        return cls(fields)

    # -- introspection ------------------------------------------------------

    def names(self):
        """Column names in declaration order."""
        return [name for name, _t in self.fields]

    def dtype_of(self, name):
        """The numpy dtype string of column ``name``."""
        for field_name, descriptor in self.fields:
            if field_name == name:
                return NUMPY_DTYPES[descriptor.name]
        raise KeyError(name)

    @property
    def row_stride(self):
        """Bytes one row occupies across all columns."""
        return sum(descriptor.slot_size for _n, descriptor in self.fields)

    def __len__(self):
        return len(self.fields)

    def __iter__(self):
        return iter(self.fields)

    def __eq__(self, other):
        if not isinstance(other, Schema):
            return NotImplemented
        return self.to_dict() == other.to_dict()

    def __hash__(self):
        return hash(tuple((n, t.name) for n, t in self.fields))

    # -- values -------------------------------------------------------------

    def column_array(self, name, values):
        """``values`` as column ``name`` holds them: a new 1-d array of its
        dtype, each value what ``np.array(values.tolist(), dtype)`` makes
        of it, so a cast never wraps.  A value the dtype cannot hold
        raises :class:`StorageError` naming the column."""
        dtype = self.row_dtype[name]
        try:
            if type(values) is np.ndarray and values.dtype.kind in "biuf":
                array = _cast_as_listed(values, dtype)
            else:
                array = np.array(values.tolist() if hasattr(values, "tolist")
                                 else values, dtype=dtype)
            if array.ndim != 1:
                raise ValueError("the values are %d-dimensional" % array.ndim)
        except (OverflowError, ValueError, TypeError) as error:
            raise StorageError("column %r (%s) cannot hold the values: %s"
                               % (name, dtype, error)) from None
        return array

    def row_array(self, fields):
        """One row — ``fields`` maps every column to its value — as a
        one-record array of :attr:`row_dtype`, each value converted as
        :meth:`column_array` converts it."""
        row = tuple(fields[name] for name in self.names())
        try:
            return np.array([row], dtype=self.row_dtype)
        except (OverflowError, ValueError, TypeError):
            for name, value in zip(self.names(), row):
                self.column_array(name, [value])  # raises naming the column
            raise

    # -- wire format --------------------------------------------------------

    def to_dict(self):
        """A plain-dict form suitable for the catalog journal."""
        return {"columns": [[n, t.name] for n, t in self.fields]}

    @classmethod
    def from_dict(cls, data):
        """Rebuild a schema journaled by :meth:`to_dict` (or None)."""
        if not data:
            return None
        return cls([
            (name, primitive_by_name(type_name))
            for name, type_name in data["columns"]
        ])

    def __repr__(self):
        return "Schema([%s])" % ", ".join(
            "(%r, %s)" % (n, t.name) for n, t in self.fields
        )


def _cast_as_listed(values, dtype):
    """A numeric array cast to ``dtype`` as its ``tolist()`` values would
    convert one by one: to a float column through float64 (a Python int
    becomes a double first); to an integer column truncated toward zero,
    raising unless every value is finite and in the column's range."""
    if dtype.kind == "f":
        return values.astype(np.float64).astype(dtype, copy=False)
    if values.dtype.kind == "f":
        if not np.isfinite(values).all():
            raise ValueError("NaN or infinity is no integer")
        values = np.trunc(values)
    info = np.iinfo(dtype)
    if values.size and not (info.min <= values.min().item()
                            and values.max().item() <= info.max):
        raise OverflowError("a value is outside [%d, %d]"
                            % (info.min, info.max))
    return values.astype(dtype)
