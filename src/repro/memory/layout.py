"""Byte-level layout constants and codecs for the PC object model.

Everything the object model stores lives inside a ``bytearray`` owned by an
allocation block.  This module defines the on-page formats:

* the **block header** at offset 0 of every allocation block;
* the **object header** preceding every allocated PC object;
* the 12-byte **embedded handle** slot (relative offset + type code) that is
  the on-page representation of a ``Handle``.

Offsets inside embedded handles are *relative to the slot itself*, the
paper's "offset pointer" (Section 6.2): as long as a handle and its target
travel together on one block, copying the block's bytes anywhere — another
process, disk, the network — leaves every handle valid.
"""

from __future__ import annotations

import struct

# ---------------------------------------------------------------------------
# Block header
# ---------------------------------------------------------------------------

BLOCK_MAGIC = b"PCBK"

#: magic(4s) version(I) block_size(Q) used(Q) active_objects(Q) policy(I)
_BLOCK_HEADER = struct.Struct("<4sIQQQI")

#: The root handle slot sits right after the fixed header fields, so a page
#: shipped to another process can find its contents (typically a
#: ``Vector[Handle[Object]]``) without side-channel metadata.
ROOT_HANDLE_OFFSET = _BLOCK_HEADER.size

HANDLE_STRUCT = struct.Struct("<qI")  # relative offset (q), type code (I)
HANDLE_SLOT_SIZE = HANDLE_STRUCT.size  # 12 bytes

# ---------------------------------------------------------------------------
# Object header
# ---------------------------------------------------------------------------

#: refcount(i) type_code(I) payload_size(Q)
OBJECT_HEADER = struct.Struct("<iIQ")
OBJECT_HEADER_SIZE = OBJECT_HEADER.size  # 16 bytes

#: Sentinel refcounts for the per-object allocation policies (Appendix B).
REFCOUNT_UNCOUNTED = -1  # ObjectPolicy.no_ref_count
REFCOUNT_UNIQUE = -2  # ObjectPolicy.unique_ownership
REFCOUNT_FREED = -3  # written when the object is deallocated

ALIGNMENT = 8


def align8(n):
    """Round ``n`` up to the next multiple of 8."""
    return (n + ALIGNMENT - 1) & ~(ALIGNMENT - 1)


BLOCK_HEADER_SIZE = align8(ROOT_HANDLE_OFFSET + HANDLE_SLOT_SIZE)


def pack_block_header(buf, block_size, used, active_objects, policy):
    """Write the fixed block header fields into ``buf``."""
    _BLOCK_HEADER.pack_into(
        buf, 0, BLOCK_MAGIC, 1, block_size, used, active_objects, policy
    )


def unpack_block_header(buf):
    """Return ``(block_size, used, active_objects, policy)`` from ``buf``."""
    magic, version, block_size, used, active, policy = _BLOCK_HEADER.unpack_from(
        buf, 0
    )
    if magic != BLOCK_MAGIC:
        raise ValueError("buffer does not contain a PC allocation block")
    if version != 1:
        raise ValueError("unsupported block version %d" % version)
    return block_size, used, active, policy


# Field offsets for in-place updates without re-packing the whole header.
_USED_OFFSET = struct.calcsize("<4sIQ")
_ACTIVE_OFFSET = struct.calcsize("<4sIQQ")
_U64 = struct.Struct("<Q")

#: ``used`` and ``active_objects`` sit side by side, so the allocator reads
#: and rewrites both with one codec call (same bytes as the two fields).
ALLOC_STATE = struct.Struct("<QQ")
ALLOC_STATE_OFFSET = _USED_OFFSET


def read_used(buf):
    """Read the bump-pointer field of the block header."""
    return _U64.unpack_from(buf, _USED_OFFSET)[0]


def write_active_objects(buf, count):
    """Update the active-object counter of the block header in place."""
    _U64.pack_into(buf, _ACTIVE_OFFSET, count)


def read_active_objects(buf):
    """Read the active-object counter of the block header."""
    return _U64.unpack_from(buf, _ACTIVE_OFFSET)[0]


def write_handle_slot(buf, slot_offset, target_offset, type_code):
    """Encode an embedded handle at ``slot_offset``.

    ``target_offset`` is the absolute offset of the target object within the
    same block, or ``None`` for a null handle.  The stored delta is relative
    to the slot, so the encoding is position independent.
    """
    if target_offset is None:
        HANDLE_STRUCT.pack_into(buf, slot_offset, 0, 0)
    else:
        HANDLE_STRUCT.pack_into(
            buf, slot_offset, target_offset - slot_offset, type_code
        )


def read_handle_slot(buf, slot_offset):
    """Decode an embedded handle; returns ``(target_offset, type_code)``.

    ``target_offset`` is ``None`` for a null handle.
    """
    delta, type_code = HANDLE_STRUCT.unpack_from(buf, slot_offset)
    if delta == 0:
        return None, 0
    return slot_offset + delta, type_code


def read_object_header(buf, offset):
    """Return ``(refcount, type_code, payload_size)`` at ``offset``."""
    return OBJECT_HEADER.unpack_from(buf, offset)


_I32 = struct.Struct("<i")


def write_refcount(buf, offset, refcount):
    """Rewrite only the refcount field of an object header."""
    _I32.pack_into(buf, offset, refcount)


def read_refcount(buf, offset):
    """Read only the refcount field of an object header."""
    return _I32.unpack_from(buf, offset)[0]
