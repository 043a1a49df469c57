"""Edge-case tests for the object model: handles, policies, errors."""

import pytest

from repro.errors import (
    BlockFullError,
    DanglingHandleError,
    NullHandleError,
    ObjectModelError,
    TypeRegistrationError,
)
from repro.memory import (
    AllocationBlock,
    Bool,
    Float64,
    Handle,
    Int8,
    Int16,
    Int32,
    Int64,
    NO_REF_COUNT,
    PCObject,
    RECYCLING,
    String,
    TypeRegistry,
    UInt32,
    UInt64,
    UNIQUE_OWNERSHIP,
    VectorType,
    make_object_on,
    stable_hash,
)
from repro.memory.layout import align8
from repro.memory.objects import PCObjectMeta


class Tiny(PCObject):
    fields = [("x", Int32)]


class AllPrimitives(PCObject):
    fields = [
        ("a", Int8), ("b", Int16), ("c", Int32), ("d", Int64),
        ("e", UInt32), ("f", UInt64), ("g", Float64), ("h", Bool),
    ]


def test_all_primitive_field_types_roundtrip():
    block = AllocationBlock(1 << 16)
    handle = make_object_on(
        block, AllPrimitives,
        a=-5, b=-1000, c=-100000, d=-(2 ** 40), e=4_000_000_000,
        f=2 ** 60, g=3.5, h=True,
    )
    view = handle.deref()
    assert (view.a, view.b, view.c, view.d) == (-5, -1000, -100000,
                                                -(2 ** 40))
    assert (view.e, view.f, view.g, view.h) == (4_000_000_000, 2 ** 60,
                                                3.5, True)


def test_null_handle_behaviour():
    null = Handle.null()
    assert null.is_null
    assert not null
    with pytest.raises(NullHandleError):
        null.deref()
    null.release()  # no-op, never raises
    assert null.copy().is_null


def test_dangling_handle_detected_after_release():
    block = AllocationBlock(1 << 16)
    handle = make_object_on(block, Tiny, x=1)
    alias = Handle(block, handle.offset, handle.type_code)
    handle.release()
    with pytest.raises(DanglingHandleError):
        alias.deref()


def test_handle_copy_keeps_object_alive():
    block = AllocationBlock(1 << 16)
    first = make_object_on(block, Tiny, x=7)
    second = first.copy()
    first.release()
    assert second.deref().x == 7  # still alive through the copy
    second.release()
    assert block.active_objects == 0


def test_no_ref_count_objects_are_never_reclaimed():
    block = AllocationBlock(1 << 16)
    before = block.active_objects
    handle = make_object_on(block, Tiny, x=1, policy=NO_REF_COUNT)
    assert block.active_objects == before  # not counted
    handle.release()
    # Storage is not reclaimed; the object is still readable via offset.
    assert block.refcount_of is not None


def test_unique_ownership_frees_on_release():
    block = AllocationBlock(1 << 16)
    handle = make_object_on(block, Tiny, x=3, policy=UNIQUE_OWNERSHIP)
    offset = handle.offset
    handle.release()
    alias = Handle(block, offset, Tiny.type_code(block))
    with pytest.raises(DanglingHandleError):
        alias.deref()


def test_recycling_reuses_exact_slots():
    block = AllocationBlock(1 << 16, policy=RECYCLING)
    first = make_object_on(block, Tiny, x=1)
    offset = first.offset
    first.release()
    second = make_object_on(block, Tiny, x=2)
    assert second.offset == offset  # recycled verbatim
    assert second.deref().x == 2


def test_block_full_reports_sizes():
    block = AllocationBlock(4096)
    with pytest.raises(BlockFullError) as excinfo:
        while True:
            make_object_on(block, Tiny, x=0)
    assert excinfo.value.requested > 0
    assert excinfo.value.available < excinfo.value.requested


def test_vector_index_errors_and_negative_indexing():
    block = AllocationBlock(1 << 16)
    handle = make_object_on(block, VectorType(Int32), [10, 20, 30])
    view = handle.deref()
    assert view[-1] == 30
    with pytest.raises(IndexError):
        view[3]
    with pytest.raises(IndexError):
        view[-4]
    view[-2] = 99
    assert view.to_list() == [10, 99, 30]


def test_string_values_with_unicode():
    block = AllocationBlock(1 << 16)
    text = "héllo ∑ 世界"
    handle = make_object_on(block, String, text)
    assert handle.deref() == text

    moved = AllocationBlock.from_bytes(block.to_bytes())
    assert String.facade(moved, handle.offset) == text


def test_string_type_rejects_non_strings():
    block = AllocationBlock(1 << 16)
    with pytest.raises(ObjectModelError):
        make_object_on(block, String, 42)


def test_stable_hash_is_deterministic_and_typed():
    assert stable_hash("abc") == stable_hash("abc")
    assert stable_hash(5) == 5
    assert stable_hash((1, "a")) == stable_hash((1, "a"))
    assert stable_hash(True) == 1
    with pytest.raises(ObjectModelError):
        stable_hash(object())


def test_stable_hash_values_are_pinned():
    # Hashes live inside shipped and stored Map pages, so the memo in
    # front of the string loop must never change a value: these are the
    # FNV-1a results PR 12 produced.  Asked twice — computed, then memoised.
    pinned = {
        "": 0xCBF29CE484222325,
        "a": 0xAF63DC4C8601EC8C,
        "Supplier#000000001": 0xB6C2D5A06FD21CDD,
        "caf\u00e9": 0x48E8823ACFA40D89,
        ("a", 1): 0x1CA0AE15B8311B5E,
        -1: 0xFFFFFFFFFFFFFFFF,
    }
    for _ in range(2):
        for value, expected in pinned.items():
            assert stable_hash(value) == expected
    from repro.memory.builtins import _string_hash

    assert _string_hash.cache_info().maxsize == 1 << 16  # bounded


def test_align8():
    assert align8(0) == 0
    assert align8(1) == 8
    assert align8(8) == 8
    assert align8(9) == 16


class Base(PCObject):
    fields = [("a", Int32)]

    def describe(self):
        return "base"


class Derived(Base):
    fields = [("b", Int32)]

    def describe(self):
        return "derived"


def test_inheritance_layout_and_dynamic_dispatch():
    block = AllocationBlock(1 << 16)
    handle = make_object_on(block, Derived, a=1, b=2)
    # A handle typed at the base still dispatches to the subclass.
    as_base = Handle(block, handle.offset, Base.type_code(block))
    view = as_base.deref()
    assert type(view).__name__ == "Derived"
    assert view.describe() == "derived"
    assert (view.a, view.b) == (1, 2)


def test_two_classes_of_one_name_share_a_code_only_with_one_layout():
    def twin(*fields):
        return PCObjectMeta("Twin", (PCObject,), {"fields": list(fields)})

    registry = TypeRegistry()
    first, other, same = twin(("x", Float64)), twin(("x", Int32)), \
        twin(("x", Float64))
    code = first.type_code(registry)
    assert same.type_code(registry) == code
    block = AllocationBlock(1 << 12, registry=registry)
    with pytest.raises(TypeRegistrationError) as raised:
        make_object_on(block, other, x=1)
    assert "Twin(x float64)" in str(raised.value)
    assert "Twin(x int32)" in str(raised.value)
    with pytest.raises(TypeRegistrationError):
        registry.register("Twin", other.pc_descriptor)
    handle = make_object_on(block, same, x=2.5)
    assert type(handle.deref()) is first and handle.deref().x == 2.5


def test_same_object_identity():
    block = AllocationBlock(1 << 16)
    a = make_object_on(block, Tiny, x=1)
    b = Handle(block, a.offset, a.type_code)
    c = make_object_on(block, Tiny, x=1)
    assert a.same_object(b)
    assert not a.same_object(c)
    assert Handle.null().same_object(Handle.null())
