"""PC objects: composite types, allocation, destruction, deep copy.

This module hosts the generic object-model machinery:

* :class:`PCObject` — the base class every complex user type descends from,
  with declarative field layout (the Python stand-in for the paper's
  requirement that complex types descend from PC's ``Object``);
* the thread-local *active allocation block* and :func:`make_object`
  (Section 6.4: each thread has exactly one active block receiving all
  allocations) — or, in a stage that feeds a page writer, the writer's
  window, where a new object waits as a :class:`PendingObject`;
* reference-count release, recursive destruction, and the recursive
  deep-copy that enforces the paper's no-dangling-handles invariant: an
  embedded handle may never point outside its own block, so assigning a
  foreign handle into a slot deep-copies the target into the slot's block.
"""

from __future__ import annotations

import threading
from functools import partial

from repro.errors import (
    NoActiveBlockError,
    TypeRegistrationError,
)
from repro.memory import layout
from repro.memory.block import (
    FULL_REF_COUNT,
    LIGHTWEIGHT_REUSE,
    NO_REF_COUNT,
    UNIQUE_OWNERSHIP,
    AllocationBlock,
)
from repro.memory.handle import Handle
from repro.memory.layout import (
    HANDLE_SLOT_SIZE,
    HANDLE_STRUCT,
    OBJECT_HEADER,
    OBJECT_HEADER_SIZE,
    REFCOUNT_UNCOUNTED,
    REFCOUNT_UNIQUE,
)
from repro.memory.typecodes import TypeRegistry, default_registry
from repro.memory.types import PCType, registry_of

_POLICY_INITIAL_REFCOUNT = {
    FULL_REF_COUNT: 0,
    NO_REF_COUNT: REFCOUNT_UNCOUNTED,
    UNIQUE_OWNERSHIP: REFCOUNT_UNIQUE,
}


# ---------------------------------------------------------------------------
# Generic reference-count / destroy / deep-copy machinery
# ---------------------------------------------------------------------------

def release_reference(block, offset):
    """Drop one reference to the object at ``offset``; destroy at zero."""
    if block.release(offset):
        destroy_object(block, offset)


def destroy_object(block, offset):
    """Destroy the object at ``offset``: release children, free storage."""
    _refcount, code, payload_size = OBJECT_HEADER.unpack_from(
        block.buf, offset
    )
    descriptor = registry_of(block).lookup(code)
    descriptor.destroy_payload(
        block, offset + OBJECT_HEADER_SIZE, payload_size
    )
    recycle = code if descriptor.fixed_payload is not None else None
    block.free_object(offset, recycle_type_code=recycle)


def deep_copy_object(src_block, src_offset, dst_block, memo=None):
    """Recursively copy the object at ``src_offset`` into ``dst_block``.

    Returns the new object's offset (refcount 0 — the caller stores a
    reference and retains).  ``memo`` preserves sharing and breaks cycles:
    two handles to one source object become two handles to one copy.
    """
    if memo is None:
        memo = {}
    key = (id(src_block), src_offset)
    if key in memo:
        return memo[key]
    refcount, code, payload_size = layout.read_object_header(
        src_block.buf, src_offset
    )
    initial = 0
    if refcount in (REFCOUNT_UNCOUNTED, REFCOUNT_UNIQUE):
        initial = refcount
    new_offset = dst_block.allocate(payload_size, code, refcount=initial)
    memo[key] = new_offset
    src_start = src_offset + OBJECT_HEADER_SIZE
    dst_start = new_offset + OBJECT_HEADER_SIZE
    dst_block.buf[dst_start:dst_start + payload_size] = (
        src_block.buf[src_start:src_start + payload_size]
    )
    descriptor = registry_of(src_block).lookup(code)
    descriptor.rewrite_handles(
        src_block, src_start, dst_block, dst_start, payload_size, memo
    )
    return new_offset


def copy_handle_slot(src_block, src_slot, dst_block, dst_slot, memo):
    """Deep-copy the target of one handle slot and point ``dst_slot`` at it."""
    target, _code = layout.read_handle_slot(src_block.buf, src_slot)
    if target is None:
        layout.write_handle_slot(dst_block.buf, dst_slot, None, 0)
        return
    copied = deep_copy_object(src_block, target, dst_block, memo)
    code = layout.read_object_header(dst_block.buf, copied)[1]
    dst_block.retain(copied)
    layout.write_handle_slot(dst_block.buf, dst_slot, copied, code)


class ObjectTypeDescriptor(PCType):
    """Shared slot semantics for all object (handle-referenced) types.

    Assigning into a slot applies the paper's cross-block rule: a handle
    physically located on block *B* may only reference an object on *B*;
    foreign targets are deep-copied in (Section 6.4).
    """

    is_object_type = True
    slot_size = HANDLE_SLOT_SIZE

    #: Built-ins that ship with PC pin a well-known code, so their bytes
    #: mean the same thing in every registry with no registration
    #: handshake; every other type takes the registry's next free code.
    FIXED_CODE = None

    def type_code(self, block_or_registry):
        registry = _registry_from(block_or_registry)
        code = registry.code_for_name(self.name)
        if code is None:
            code = registry.register(self.name, self, code=self.FIXED_CODE)
        return code

    # -- to be provided by concrete descriptors ------------------------------

    def facade(self, block, offset):
        """The typed view over the object at ``offset``."""
        raise NotImplementedError

    def allocate_value(self, block, value):
        """Allocate ``value`` (a host-language value) as a new object."""
        raise NotImplementedError

    def builder(self, block):
        """``build(value) -> offset``: :meth:`allocate_value` on ``block``.

        A container build calls this once and ``build`` once per element,
        so whatever does not depend on the value (type codes, the block's
        allocator) is resolved once per build, not once per allocation.
        """
        return partial(self.allocate_value, block)

    def destroy_payload(self, block, payload_offset, payload_size):
        """Release embedded handles before the object's storage is freed."""

    def rewrite_handles(self, src_block, src_payload, dst_block, dst_payload,
                        payload_size, memo):
        """Fix embedded handle slots after a raw payload copy."""

    # -- slot codec -----------------------------------------------------------

    def _slot_value(self, block, target_offset, type_code):
        return Handle(block, target_offset, type_code)

    def read_slot(self, block, offset):
        target, code = layout.read_handle_slot(block.buf, offset)
        if target is None:
            return None
        return self._slot_value(block, target, code)

    def write_slot(self, block, offset, value):
        buf = block.buf
        old_delta = HANDLE_STRUCT.unpack_from(buf, offset)[0]
        self.slot_writer(block)(offset, value)
        if value is None:
            HANDLE_STRUCT.pack_into(buf, offset, 0, 0)
        if old_delta:
            release_reference(block, offset + old_delta)

    def slot_writer(self, block):
        """``write(offset, value)`` for slots of ``block`` that hold null.

        Fresh storage is zeroed, so a container under construction fills
        its slots through this: no old target to read and release, and
        the element :meth:`builder` is made once for the whole run.
        ``value`` is None (the slot stays null), a handle or facade (a
        foreign target is deep-copied in), or a host value to allocate.
        """
        buf = block.buf
        retain = block.retain
        build = self.builder(block)

        def write(offset, value):
            if value is None:
                return
            if isinstance(value, PendingObject):  # built beside its holder
                value = value.built("assigned", block)
            ref = _as_reference(value)
            if ref is None:
                target = build(value)
            elif ref[0] is block:
                target = ref[1]
            else:
                target = deep_copy_object(ref[0], ref[1], block)
            code = OBJECT_HEADER.unpack_from(buf, target)[1]
            retain(target)
            HANDLE_STRUCT.pack_into(buf, offset, target - offset, code)

        return write


def _as_reference(value):
    """Extract ``(block, offset)`` from a Handle or facade, else None."""
    if isinstance(value, Handle):
        if value.is_null:
            return None
        return value.block, value.offset
    block = getattr(value, "pc_block", None)
    offset = getattr(value, "pc_offset", None)
    if block is not None and offset is not None:
        return block, offset
    return None


# ---------------------------------------------------------------------------
# Composite (user) types
# ---------------------------------------------------------------------------

class _FieldAccessor:
    """Python descriptor translating attribute access into slot codecs."""

    __slots__ = ("name", "pc_type", "byte_offset")

    def __init__(self, name, pc_type, byte_offset):
        self.name = name
        self.pc_type = pc_type
        self.byte_offset = byte_offset

    def _slot(self, instance):
        return instance.pc_offset + OBJECT_HEADER_SIZE + self.byte_offset

    def __get__(self, instance, owner=None):
        if instance is None:
            return self
        return self.pc_type.read_slot(instance.pc_block, self._slot(instance))

    def __set__(self, instance, value):
        self.pc_type.write_slot(instance.pc_block, self._slot(instance), value)


class ClassDescriptor(ObjectTypeDescriptor):
    """The PCType descriptor for one PCObject subclass."""

    def __init__(self, cls):
        self.cls = cls
        self.name = cls.__name__
        self.fixed_payload = cls.pc_payload_size
        #: the name and the field layout: two classes of one name share
        #: a type code only when this is the same for both
        self.signature = "%s(%s)" % (self.name, ", ".join(
            "%s %s" % (a.name, a.pc_type.name) for a in cls.pc_accessors))

    def type_code(self, block_or_registry):
        registry = _registry_from(block_or_registry)
        code = registry.code_for_signature(self.signature)
        if code is None:  # TypeRegistrationError if another layout has the name
            code = registry.register(self.name, self)
        return code

    def facade(self, block, offset):
        return self.cls._from_location(block, offset)

    def dependents(self):
        return [a.pc_type for a in self.cls.pc_accessors]

    def allocate_value(self, block, value):
        if isinstance(value, dict):
            offset = allocate_composite(block, self.cls)
            view = self.facade(block, offset)
            for key, item in value.items():
                setattr(view, key, item)
            return offset
        raise TypeRegistrationError(
            "cannot coerce %r into a %s" % (value, self.name)
        )

    def destroy_payload(self, block, payload_offset, payload_size):
        for accessor in self.cls.pc_accessors:
            if accessor.pc_type.is_object_type:
                slot = payload_offset + accessor.byte_offset
                target, _code = layout.read_handle_slot(block.buf, slot)
                if target is not None:
                    release_reference(block, target)

    def rewrite_handles(self, src_block, src_payload, dst_block, dst_payload,
                        payload_size, memo):
        for accessor in self.cls.pc_accessors:
            if accessor.pc_type.is_object_type:
                copy_handle_slot(
                    src_block, src_payload + accessor.byte_offset,
                    dst_block, dst_payload + accessor.byte_offset, memo,
                )


def _registry_from(block_or_registry):
    if block_or_registry is None:
        return default_registry()
    if isinstance(block_or_registry, TypeRegistry):
        return block_or_registry
    return registry_of(block_or_registry)


class PCObjectMeta(type):
    """Collects ``fields`` declarations and computes the byte layout."""

    def __new__(mcls, name, bases, namespace):
        cls = super().__new__(mcls, name, bases, namespace)
        inherited = []
        for base in bases:
            inherited.extend(getattr(base, "pc_accessors", []))
        own_specs = namespace.get("fields", [])
        accessors = list(inherited)
        offset = accessors[-1].byte_offset + accessors[-1].pc_type.slot_size \
            if accessors else 0
        seen = {a.name for a in accessors}
        for spec in own_specs:
            field_name, field_type = spec
            if field_name in seen:
                raise TypeRegistrationError(
                    "duplicate field %r in %s" % (field_name, name)
                )
            descriptor = as_descriptor(field_type)
            accessor = _FieldAccessor(field_name, descriptor, offset)
            offset += descriptor.slot_size
            accessors.append(accessor)
            setattr(cls, field_name, accessor)
            seen.add(field_name)
        # Re-install inherited accessors so subclasses resolve them without
        # walking the MRO into a stale parent layout.
        for accessor in inherited:
            setattr(cls, accessor.name, accessor)
        cls.pc_accessors = accessors
        cls.pc_fields = {accessor.name: accessor for accessor in accessors}
        cls.pc_payload_size = layout.align8(offset) if offset else 0
        cls.pc_descriptor = ClassDescriptor(cls)
        return cls


class PCObject(metaclass=PCObjectMeta):
    """Base class for complex PC types.

    Subclasses declare their layout with a ``fields`` list::

        class DataPoint(PCObject):
            fields = [("dims", Int32), ("data", VectorType(Float64))]

    Instances are *facades*: lightweight views over bytes living on an
    allocation block.  They are created by :func:`make_object` (allocation)
    or by dereferencing a handle, never detached from a block.
    """

    fields = []

    __slots__ = ("pc_block", "pc_offset")

    def __init__(self):
        raise TypeError(
            "PC objects are created with make_object(), not instantiated"
        )

    @classmethod
    def _from_location(cls, block, offset):
        instance = object.__new__(cls)
        instance.pc_block = block
        instance.pc_offset = offset
        return instance

    @classmethod
    def type_code(cls, block_or_registry=None):
        """This class' type code under the given registry."""
        return cls.pc_descriptor.type_code(block_or_registry)

    def handle(self):
        """A non-owning handle to this object."""
        code = layout.read_object_header(self.pc_block.buf, self.pc_offset)[1]
        return Handle(self.pc_block, self.pc_offset, code)

    def field_names(self):
        """Names of this object's declared fields, in layout order."""
        return [a.name for a in self.pc_accessors]

    def __repr__(self):
        parts = ", ".join(
            "%s=%r" % (a.name, getattr(self, a.name))
            for a in self.pc_accessors[:4]
        )
        suffix = ", ..." if len(self.pc_accessors) > 4 else ""
        return "%s(%s%s)" % (type(self).__name__, parts, suffix)


def as_descriptor(field_type):
    """Normalize a field spec entry into a PCType descriptor."""
    if isinstance(field_type, PCType):
        return field_type
    if isinstance(field_type, type) and issubclass(field_type, PCObject):
        return field_type.pc_descriptor
    raise TypeRegistrationError("invalid field type %r" % (field_type,))


def allocate_composite(block, cls):
    """Allocate a zeroed instance of ``cls`` on ``block``; returns offset."""
    code = cls.pc_descriptor.type_code(block)
    return block.allocate(cls.pc_payload_size, code)


# ---------------------------------------------------------------------------
# The active allocation block (thread local)
# ---------------------------------------------------------------------------

_active = threading.local()


def _stack():
    if not hasattr(_active, "stack"):
        _active.stack = []
    return _active.stack


def _current_target():
    stack = _stack()
    if not stack:
        raise NoActiveBlockError(
            "no active allocation block; call make_allocation_block() first"
        )
    return stack[-1]


def current_allocation_block():
    """The thread's active allocation block (a page writer's open page,
    while the writer is the active target)."""
    target = _current_target()
    return target if isinstance(target, AllocationBlock) else target.block


def make_allocation_block(size, policy=LIGHTWEIGHT_REUSE, registry=None,
                          managed=True, on_empty=None):
    """Create a block and make it the thread's active allocation block.

    This is the paper's ``makeObjectAllocatorBlock``: the previously active
    block (if any) becomes inactive-managed and keeps living as long as it
    holds reachable objects.
    """
    block = AllocationBlock(
        size, policy=policy, registry=registry, managed=managed,
        on_empty=on_empty,
    )
    _stack().append(block)
    return block


class use_allocation_block:
    """Context manager installing ``block`` as the active allocation block
    — or a page writer (``RowPageWriter``) as the active target, whose
    window :func:`make_object` puts a ``PCObject`` class's record in."""

    def __init__(self, block):
        self.block = block

    def __enter__(self):
        _stack().append(self.block)
        return self.block

    def __exit__(self, exc_type, exc, tb):
        _stack().pop()
        return False


def pop_allocation_block():
    """Remove the current active block from the stack (it becomes inactive)."""
    stack = _stack()
    if stack:
        stack.pop()


def make_object(type_or_class, init=None, policy=FULL_REF_COUNT, **fields):
    """Allocate a new PC object on the active block; returns an owning Handle.

    ``type_or_class`` is either a :class:`PCObject` subclass (optionally
    with ``**fields`` initializers) or a container/string descriptor with a
    single ``value`` to encode.  ``policy`` selects the per-object
    allocation policy of Appendix B.

    When the active target is a page writer (a stage feeding a sink that
    writes row pages), a ``PCObject`` class's record — ``init`` (a dict
    or None) updated with ``fields``, the default policy — allocates
    nothing: it is returned as a :class:`PendingObject`, for the writer to
    write with the rest of its page.  Anything else is built on the
    writer's open page.
    """
    target = _current_target()
    if isinstance(target, AllocationBlock):
        return make_object_on(target, type_or_class, init, policy=policy,
                              **fields)
    if policy == FULL_REF_COUNT and isinstance(type_or_class, type) and \
            issubclass(type_or_class, PCObject) and \
            (init is None or isinstance(init, dict)):
        return PendingObject(target, type_or_class,
                             fields if init is None else {**init, **fields})
    return make_object_on(target.block, type_or_class, init, policy=policy,
                          **fields)


#: Why a stage's pending object was built object by object: with
#: ``repro.memory.scatter.FALLBACK_REASONS``, the closed set of
#: ``pc_engine_kernel_fallback_total{operator="object_build", reason}``.
ESCAPE_REASONS = ("dereferenced", "assigned", "returned_twice")


class PendingObject:
    """A ``PCObject`` record :func:`make_object` returned while a page
    writer was the active target: it stands for the object it will be.

    The sink the stage feeds hands its record to the writer's window
    (:meth:`take`, in output order), which writes it with its page's
    others — one plan and one scatter — so nothing is allocated per
    object, and one that never reaches the sink (a later FILTER dropped
    it) is never written.  It *escapes* — is built object by object
    (``make_object_on``), ``writer.declined(reason)`` hearing why — when
    it is dereferenced (``deref``, a field read or any other handle
    attribute: ``"dereferenced"``, on the writer's open page), assigned
    into an object (``"assigned"``, on that object's block) or returned
    again after its record was taken (``"returned_twice"``, on the page
    that lists it).  An escaped one is recorded as a handle is.  The
    window writes the record as it was taken: a later change to it, or
    to an object built from it after, is not written.
    """

    __slots__ = ("writer", "cls", "record", "handle", "taken")

    #: a probe for a page-backed value (``hasattr(value, "pc_block")``)
    #: finds one without building it
    pc_block = None

    def __init__(self, writer, cls, record):
        self.writer, self.cls, self.record = writer, cls, record
        self.handle, self.taken = None, False

    def take(self):
        """The record, for the window — once, and only while nothing was
        built of it (else None: it is recorded as its handle)."""
        if self.handle is not None or self.taken:
            return None
        self.taken = True
        return self.record

    def built(self, reason, block=None):
        """The object's handle, built the first time it is asked for —
        on ``block``, or the writer's open page — and ``declined`` told
        why: ``reason``, or ``"returned_twice"`` once its record was
        taken (the sink records it again, as it records a handle)."""
        if self.handle is None:
            # It is this object's handle, and lives as long as it — the
            # batch that holds it, as the handle make_object returns.
            self.handle = make_object_on(  # pcsan: disable=PC001
                block or self.writer.block, self.cls, self.record)
            self.writer.declined("returned_twice" if self.taken else reason)
        return self.handle

    def deref(self):
        return self.built("dereferenced").deref()

    def __getattr__(self, name):
        # ``pending.field`` reads as ``handle.field`` does; dunder probes
        # (copy, pickle) fail as on a handle, building nothing.
        if name.startswith("__") and name.endswith("__"):
            raise AttributeError(name)
        return getattr(self.built("dereferenced"), name)


def make_object_on(block, type_or_class, init=None, policy=FULL_REF_COUNT,
                   **fields):
    """Like :func:`make_object` but targeting an explicit block."""
    initial = _POLICY_INITIAL_REFCOUNT[policy]
    if isinstance(type_or_class, type) and issubclass(type_or_class, PCObject):
        cls = type_or_class
        code = cls.pc_descriptor.type_code(block)
        offset = block.allocate(cls.pc_payload_size, code, refcount=initial)
        view = cls._from_location(block, offset)
        if init is not None:
            if not isinstance(init, dict):
                raise TypeRegistrationError(
                    "positional initializer for a composite must be a dict"
                )
            fields = {**init, **fields}
        for name, item in fields.items():
            setattr(view, name, item)
    else:
        descriptor = as_descriptor(type_or_class)
        if fields:
            raise TypeRegistrationError(
                "field initializers are only valid for composite types"
            )
        offset = descriptor.allocate_value(block, init)
        if initial != 0:
            layout.write_refcount(block.buf, offset, initial)
            if block.managed and initial < 0:
                # allocate() counted it as refcounted; undo.
                layout.write_active_objects(
                    block.buf, layout.read_active_objects(block.buf) - 1
                )
        code = layout.read_object_header(block.buf, offset)[1]
        if policy == FULL_REF_COUNT:
            block.retain(offset)
        owns = policy in (FULL_REF_COUNT, UNIQUE_OWNERSHIP)
        return Handle(block, offset, code, owns_ref=owns)
    if policy == FULL_REF_COUNT:
        block.retain(offset)
    owns = policy in (FULL_REF_COUNT, UNIQUE_OWNERSHIP)
    return Handle(block, offset, code, owns_ref=owns)
