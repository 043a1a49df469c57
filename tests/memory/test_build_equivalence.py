"""Single-pass container builds against the element-at-a-time builds.

``allocate_value`` sizes a container's backing store once from the host
value and writes it in one pass; ``put`` / ``append`` grow it as they go.
Both must describe the same value, however it is then moved: decoded in
place, shipped as bytes, or deep-copied to another block — and dropping
the last handle must give every byte's worth of objects back.
"""

from hypothesis import given, settings
from hypothesis import strategies as st
import pytest

from repro.errors import BlockFullError
from repro.memory import (
    AllocationBlock,
    Bool,
    Float64,
    Int32,
    MapFacade,
    MapType,
    String,
    VectorFacade,
    VectorType,
    deep_copy_object,
    make_object_on,
)

_BLOCK_SIZE = 1 << 18

_ints = st.integers(min_value=-(1 << 31), max_value=(1 << 31) - 1)
_text = st.text(max_size=12)
_int_lists = st.lists(_ints, max_size=9)
_parts = st.dictionaries(_text, _int_lists, max_size=12)

#: (descriptor, strategy of host values it encodes)
_CASES = [
    (String, _text),
    (VectorType(Int32), _int_lists),
    (VectorType(Bool), st.lists(st.booleans(), max_size=9)),
    (VectorType(Float64), st.lists(
        st.floats(allow_nan=False, width=64), max_size=9)),
    (VectorType(String), st.lists(_text, max_size=9)),
    (VectorType(VectorType(Int32)), st.lists(_int_lists, max_size=6)),
    (MapType(Int32, Float64), st.dictionaries(
        _ints, st.floats(allow_nan=False, width=64), max_size=20)),
    (MapType(String, VectorType(Int32)), _parts),
    (MapType(String, MapType(String, VectorType(Int32))),
     st.dictionaries(_text, _parts, max_size=6)),
]

_typed_values = st.sampled_from(_CASES).flatmap(
    lambda case: st.tuples(st.just(case[0]), case[1])
)


def decode(value):
    if isinstance(value, MapFacade):
        return {key: decode(item) for key, item in value.items()}
    if isinstance(value, VectorFacade):
        return [decode(item) for item in value]
    return value


def _view(descriptor, block, offset):
    return decode(descriptor.facade(block, offset))


def _build_piecewise(block, descriptor, value):
    """The same value through ``append`` / ``put``, one element a call."""
    if descriptor is String:
        return make_object_on(block, descriptor, value)
    handle = make_object_on(block, descriptor, None)
    view = handle.deref()
    if isinstance(view, VectorFacade):
        for item in value:
            view.append(item)
    else:
        for key, item in value.items():
            view.put(key, item)
    return handle


@settings(max_examples=150, deadline=None)
@given(typed=_typed_values)
def test_one_pass_build_matches_value_and_piecewise_build(typed):
    descriptor, value = typed
    block = AllocationBlock(_BLOCK_SIZE)
    start = block.active_objects

    handle = make_object_on(block, descriptor, value)
    assert _view(descriptor, block, handle.offset) == value

    piecewise = _build_piecewise(block, descriptor, value)
    assert _view(descriptor, block, piecewise.offset) == value

    block.set_root(handle.offset, handle.type_code)
    arrived = AllocationBlock.from_bytes(block.to_bytes())
    offset, code = arrived.root()
    assert code == handle.type_code
    assert _view(descriptor, arrived, offset) == value

    other = AllocationBlock(_BLOCK_SIZE)
    copied = deep_copy_object(block, handle.offset, other)
    assert _view(descriptor, other, copied) == value

    handle.release()
    piecewise.release()
    assert block.active_objects == start


def test_vector_build_takes_exactly_the_slots_it_needs():
    block = AllocationBlock(_BLOCK_SIZE)
    three = make_object_on(block, VectorType(Int32), [1, 2, 3]).deref()
    assert three._state()[2] == 3
    three.append(4)  # growth stays amortised: at least double
    assert three._state()[2] == 6
    assert list(three) == [1, 2, 3, 4]


def test_map_build_allocates_its_table_once():
    value = {"k%d" % i: i for i in range(100)}
    block = AllocationBlock(_BLOCK_SIZE)
    before = block.alloc_count
    built = make_object_on(block, MapType(String, Int32), value).deref()
    # the map, one table sized for all 100 entries, 100 key strings
    assert block.alloc_count - before == 102
    assert block.freed_bytes == 0
    assert 100 <= built._state()[2] * MapType.LOAD_FACTOR
    assert decode(built) == value


# -- a block that fills mid-build ------------------------------------------------------

_NESTED = MapType(String, MapType(String, VectorType(Int32)))


def _nested_pairs(n):
    return [
        ("shop-%02d" % s,
         {"buyer-%02d" % b: [s, b, s * b] for b in range(6)})
        for s in range(n)
    ]


def test_fill_stops_at_a_full_block_with_a_consistent_prefix():
    pairs = _nested_pairs(40)
    block = AllocationBlock(1 << 12)
    view = make_object_on(block, _NESTED, None).deref()

    stored = view.fill(pairs)

    assert 0 < stored < len(pairs)
    assert len(view) == stored
    assert decode(view) == dict(pairs[:stored])
    # Nothing half-written is reachable, and the map still works: every
    # stored key is found, the first rejected one is not.
    assert all(key in view for key, _value in pairs[:stored])
    assert pairs[stored][0] not in view
    arrived = AllocationBlock.from_bytes(block.to_bytes())
    assert decode(_NESTED.facade(arrived, view.pc_offset)) == \
        dict(pairs[:stored])


def test_fill_raises_only_when_not_even_one_pair_fits():
    block = AllocationBlock(1 << 9)
    view = make_object_on(block, _NESTED, None).deref()
    with pytest.raises(BlockFullError):
        view.fill(_nested_pairs(3))
    assert len(view) == 0 and decode(view) == {}


def test_a_nested_build_that_overflows_leaves_the_outer_map_intact():
    block = AllocationBlock(1 << 11)
    view = make_object_on(block, _NESTED, None).deref()
    view.put("small", {"b": [1]})
    huge = {"buyer-%03d" % b: list(range(8)) for b in range(200)}
    with pytest.raises(BlockFullError):
        view.put("huge", huge)
    assert len(view) == 1
    assert decode(view) == {"small": {"b": [1]}}
    assert "huge" not in view
