"""The PCType descriptor protocol and primitive type descriptors.

A *type descriptor* knows how values of one type are stored inside an
allocation block.  Two kinds exist:

* **inline types** (primitives): the value's bytes live directly in the
  field or element slot;
* **object types** (strings, containers, ``PCObject`` subclasses): the slot
  holds a 12-byte embedded handle and the value itself is a separately
  allocated object on the same block.

The protocol is what PC's C++ binding achieves with template
metaprogramming: every container instantiation (``Vector[Float64]``,
``Map[PCString, Int32]`` ...) is its own registered descriptor with its own
type code, so fully "compiled" element accessors exist per instantiation.
"""

from __future__ import annotations

import struct
from functools import partial

from repro.errors import TypeRegistrationError
from repro.memory.typecodes import default_registry, simple_code


def registry_of(block):
    """The registry that governs type codes for ``block``."""
    return block.registry if block.registry is not None else default_registry()


class PCType:
    """Base descriptor.  Subclasses fill in the slot codec.

    Attributes
    ----------
    name:
        Registry name; container instantiations embed their parameters
        (``Vector<float64>``), mirroring C++ template instantiation names.
    slot_size:
        Bytes this type occupies inline as a field or container element.
    is_object_type:
        True when values are page-allocated objects referenced by handles.
    fixed_payload:
        Payload size for object types whose payload never varies (these are
        the only objects eligible for the recycling allocator policy);
        ``None`` for variable-length types.
    """

    name = "?"
    slot_size = 0
    is_object_type = False
    fixed_payload = None

    def type_code(self, block_or_registry):
        """The type code for this descriptor under the relevant registry."""
        raise NotImplementedError

    def read_slot(self, block, offset):
        """Decode the value stored in the slot at ``offset``."""
        raise NotImplementedError

    def write_slot(self, block, offset, value):
        """Encode ``value`` into the slot at ``offset``."""
        raise NotImplementedError

    def slot_writer(self, block):
        """``write(offset, value)`` for still-zeroed slots of ``block``.

        What a container build calls once and then applies per element;
        object types override it to skip the old-target bookkeeping.
        """
        return partial(self.write_slot, block)

    def dependents(self):
        """Descriptors this type's on-page layout refers to.

        Used by the catalog to register a type's whole closure: a real
        ``.so`` carries the template instantiations a class uses, so
        registering ``Customer`` must also make ``vector<order>`` et al.
        resolvable cluster-wide.
        """
        return []

    def __repr__(self):
        return "<pc-type %s>" % self.name


class PrimitiveType(PCType):
    """A fixed-width value stored inline (int, float, bool...).

    Primitives are the paper's "simple types": no virtual functions, a
    ``memmove`` suffices, and their type code encodes their size.
    """

    def __init__(self, name, fmt, caster=None):
        self.name = name
        self._codec = struct.Struct("<" + fmt)
        self.slot_size = self._codec.size
        self._caster = caster

    def type_code(self, block_or_registry):
        return simple_code(self.slot_size)

    def read_slot(self, block, offset):
        return self._codec.unpack_from(block.buf, offset)[0]

    def write_slot(self, block, offset, value):
        if self._caster is not None:
            value = self._caster(value)
        self._codec.pack_into(block.buf, offset, value)

    def _run_format(self, count):
        return "<%d%s" % (count, self._codec.format[1:])

    def read_run(self, buf, offset, count):
        """Decode ``count`` consecutive slots with one codec call."""
        return struct.unpack_from(self._run_format(count), buf, offset)

    def write_run(self, buf, offset, values):
        """Encode the sequence ``values`` into consecutive slots at once.

        Each value goes through the same caster as :meth:`write_slot`.
        """
        count = len(values)
        if self._caster is not None:
            values = map(self._caster, values)
        struct.pack_into(self._run_format(count), buf, offset, *values)

    # ``struct.Struct`` objects refuse to pickle, but primitive
    # descriptors ride inside every registry shipped to a back-end
    # process (they become container element descriptors the first time
    # a Vector<float64> et al. is registered mid-job).  Swap the codec
    # for its format string in transit and rebuild it on arrival.

    def __getstate__(self):
        state = dict(self.__dict__)
        state["_codec"] = self._codec.format
        return state

    def __setstate__(self, state):
        self.__dict__.update(state)
        self._codec = struct.Struct(state["_codec"])


class BoolType(PrimitiveType):
    """One-byte boolean."""

    def __init__(self):
        super().__init__("bool", "B")

    def read_slot(self, block, offset):
        return bool(super().read_slot(block, offset))

    def write_slot(self, block, offset, value):
        super().write_slot(block, offset, 1 if value else 0)

    def read_run(self, buf, offset, count):
        return tuple(map(bool, super().read_run(buf, offset, count)))

    def write_run(self, buf, offset, values):
        super().write_run(buf, offset, [1 if v else 0 for v in values])


Int8 = PrimitiveType("int8", "b", caster=int)
Int16 = PrimitiveType("int16", "h", caster=int)
Int32 = PrimitiveType("int32", "i", caster=int)
Int64 = PrimitiveType("int64", "q", caster=int)
UInt32 = PrimitiveType("uint32", "I", caster=int)
UInt64 = PrimitiveType("uint64", "Q", caster=int)
Float32 = PrimitiveType("float32", "f", caster=float)
Float64 = PrimitiveType("float64", "d", caster=float)
Bool = BoolType()

_PRIMITIVES_BY_NAME = {
    t.name: t
    for t in (Int8, Int16, Int32, Int64, UInt32, UInt64, Float32, Float64, Bool)
}


def primitive_by_name(name):
    """Look up a primitive descriptor by its registry name."""
    try:
        return _PRIMITIVES_BY_NAME[name]
    except KeyError as missing:
        raise TypeRegistrationError(
            "unknown primitive type %r" % name
        ) from missing


#: numpy dtype strings for primitives, used for the zero-copy
#: ``numpy.frombuffer`` views that play the role of ``Eigen::Map`` over raw
#: page bytes (Section 8.3.1).
NUMPY_DTYPES = {
    "int8": "i1",
    "int16": "i2",
    "int32": "i4",
    "int64": "i8",
    "uint32": "u4",
    "uint64": "u8",
    "float32": "f4",
    "float64": "f8",
}


def numpy_dtype_for(descriptor):
    """The numpy dtype string matching ``descriptor``, or None."""
    return NUMPY_DTYPES.get(descriptor.name)
