"""Single-pass container builds against the element-at-a-time builds.

``allocate_value`` sizes a container's backing store once from the host
value and writes it in one pass; ``put`` / ``append`` grow it as they go.
Both must describe the same value, however it is then moved: decoded in
place, shipped as bytes, or deep-copied to another block — and dropping
the last handle must give every byte's worth of objects back.

A Map built from host values on a bump-only block is planned and
scattered (``repro.memory.scatter``); the oracle is the per-object build
of the same input on a ``RECYCLING`` block, which the planner declines
and whose allocations are otherwise the same bumps: the pages, the
allocation counts and the sanitizer's shadow must be the same.

A page of host-value trees that ``RowPageWriter`` writes from its window
— ``append`` and ``extend`` alike — is held to the same oracle, page by
page: its root reserved for the page's count, then ``make_object_on``
once per record.  What is left over is built the way the writer builds
any other object, ``make_object_on`` once per record on pages that roll
when one fills, and must end the same way.
"""

import gc
import itertools
import struct

from hypothesis import example, given, settings
from hypothesis import strategies as st
import numpy as np
import pytest

from repro.analysis.sanitizer import current_sanitizer, sanitize_scope
from repro.errors import BlockFullError, StorageError
from repro.memory import (
    LIGHTWEIGHT_REUSE,
    OBJECT_HEADER_SIZE,
    RECYCLING,
    AllocationBlock,
    Bool,
    Float64,
    Handle,
    Int32,
    MapFacade,
    MapType,
    PCObject,
    String,
    VectorFacade,
    VectorType,
    deep_copy_object,
    make_object_on,
)
from repro.memory.layout import ALLOC_STATE, ALLOC_STATE_OFFSET
from repro.memory.objects import PCObjectMeta
from repro.memory.scatter import FALLBACK_REASONS, scatter_map
from repro.memory.typecodes import TypeRegistry
from repro.storage.dataset import RowPageWriter, _place_new, pack_map_pages
from repro.storage.page import open_root, page_items
from repro.tpch.generator import TpchSpec, _customer_records
from repro.tpch.schema import Customer

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


# -- planned builds write the per-object page ------------------------------------------

#: the block header's policy field: the one byte range the oracle's
#: ``RECYCLING`` block differs in by construction
_POLICY = ALLOC_STATE_OFFSET + ALLOC_STATE.size


def _page(block):
    data = block.to_bytes()
    return (data[:_POLICY] + data[_POLICY + 4:], block.alloc_count,
            block.active_objects, block.freed_bytes)


def _planned_and_oracle(build, size):
    """``build(block)`` on a block the planner takes and on the
    per-object oracle: each one's page, counts and outcome."""
    runs = []
    for policy in (LIGHTWEIGHT_REUSE, RECYCLING):
        block = AllocationBlock(size, policy=policy)
        try:
            outcome = build(block)
        except Exception as error:  # the same error, at the same point
            outcome = (type(error), str(error))
        runs.append((_page(block), outcome))
    return runs


def _make(descriptor, value):
    return lambda block: make_object_on(block, descriptor, value).offset


def _fill(descriptor, pairs):
    return lambda block: make_object_on(block, descriptor, None).deref() \
        .fill(pairs)


_INT32_MAX = (1 << 31) - 1


@settings(max_examples=200, deadline=None)
@given(typed=_typed_values, size=st.integers(min_value=1 << 8,
                                             max_value=1 << 13))
@example(typed=(MapType(String, VectorType(Int32)), {}), size=1 << 12)
@example(typed=(MapType(String, VectorType(Int32)), {"": []}), size=1 << 12)
@example(typed=(MapType(String, VectorType(Int32)), {"one": [1]}),
         size=1 << 12)
@example(typed=(_NESTED, {"Ünïcødé": {"日本": [1], "ß": []}, "": {}}),
         size=1 << 12)
@example(typed=(MapType(String, VectorType(Int32)),
                {"max": [_INT32_MAX], "min": [-_INT32_MAX, -_INT32_MAX - 1]}),
         size=1 << 12)
@example(typed=(MapType(String, VectorType(Int32)),
                {"ok": [1], "over": [_INT32_MAX + 1]}), size=1 << 12)
@example(typed=(MapType(Int32, Float64), {1: 1.0, _INT32_MAX + 1: 2.0}),
         size=1 << 12)
@example(typed=(MapType(String, VectorType(Int32)), {"f": [1.7, -2.9]}),
         size=1 << 12)
@example(typed=(MapType(String, VectorType(Float64)),
                {"a": np.arange(3.0), "b": np.zeros(0), "c": [0.5]}),
         size=1 << 12)
@example(typed=(MapType(String, VectorType(Int32)),
                {"i": np.arange(4), "f": np.array([1.7, -2.9]), "l": [3]}),
         size=1 << 12)
def test_a_planned_build_writes_the_per_object_page(typed, size):
    descriptor, value = typed
    planned, oracle = _planned_and_oracle(_make(descriptor, value), size)
    assert planned == oracle
    if isinstance(descriptor, MapType):
        pairs = list(value.items())
        planned, oracle = _planned_and_oracle(_fill(descriptor, pairs), size)
        assert planned == oracle


_MAPS = [case for case in _CASES if isinstance(case[0], MapType)]


@settings(max_examples=60, deadline=None)
@given(typed=st.sampled_from(_MAPS).flatmap(
    lambda case: st.tuples(st.just(case[0]), case[1])))
def test_every_map_the_aggregations_declare_is_planned_whole(typed):
    descriptor, value = typed
    block = AllocationBlock(_BLOCK_SIZE)
    view = make_object_on(block, descriptor, None).deref()
    declined = []
    pairs = list(value.items())
    assert scatter_map(block, descriptor, view.pc_offset + OBJECT_HEADER_SIZE,
                       pairs, declined.append) == len(pairs)
    assert declined == []
    assert decode(view) == value


_NAN = float("nan")


@pytest.mark.parametrize("descriptor, pairs, reason", [
    (MapType(Float64, Float64), [(0.0, 1.0), (-0.0, 2.0)], "repeated_key"),
    (MapType(Int32, Float64), [(1, 1.0), (1.0, 2.0), (True, 3.0)],
     "repeated_key"),
    (MapType(String, String), [("k", "a"), ("k", "b")], "repeated_key"),
    # one NaN object twice: one hash, keys unequal — two entries, planned
    (MapType(Float64, Float64), [(_NAN, 1.0), (_NAN, 2.0)], None),
    (MapType(String, VectorType(String)), [("k", ["v"])], "uncovered_type"),
], ids=["zeros", "one", "string", "nan", "vector-of-strings"])
def test_a_declined_build_is_the_per_pair_build(descriptor, pairs, reason):
    planned, oracle = _planned_and_oracle(_fill(descriptor, pairs), _BLOCK_SIZE)
    assert planned == oracle
    block = AllocationBlock(_BLOCK_SIZE)
    view = make_object_on(block, descriptor, None).deref()
    declined = []
    stored = scatter_map(block, descriptor, view.pc_offset + OBJECT_HEADER_SIZE,
                         pairs, declined.append)
    assert declined == ([reason] if reason else [])
    assert set(declined) <= set(FALLBACK_REASONS)
    assert stored == (0 if reason else len(pairs))


def test_a_reused_block_is_declined():
    block = AllocationBlock(_BLOCK_SIZE)
    make_object_on(block, String, "freed").release()
    view = make_object_on(block, _NESTED, None).deref()
    declined = []
    assert view.fill(_nested_pairs(3), declined.append) == 3
    assert declined == ["not_bump_only"]


def _straddles(descriptor, pairs, sizes):
    """The outcome of filling ``pairs`` on a block of every size, checked
    against the oracle on the way."""
    outcomes = set()
    for size in sizes:
        planned, oracle = _planned_and_oracle(_fill(descriptor, pairs), size)
        assert planned == oracle, size
        outcomes.add(planned[1])
    return outcomes


def test_a_run_straddling_the_block_end_stops_where_the_per_pair_path_does():
    pairs = _nested_pairs(8)
    stored = _straddles(_NESTED, pairs, range(1 << 8, 10 << 10, 40))
    assert set(range(1, len(pairs) + 1)) <= stored


def test_a_long_run_is_measured_in_windows_and_still_stops_there():
    pairs = [(i, None if i % 7 == 0 else list(range(i % 5)))
             for i in range(700)]
    stored = _straddles(MapType(Int32, VectorType(Int32)), pairs,
                        range(33 << 10, 70 << 10, 1300))
    # past the first window of pairs measured, short of the last pair
    assert any(isinstance(n, int) and 256 < n < 700 for n in stored)
    assert 700 in stored


def test_a_planned_build_leaves_the_per_object_shadow():
    with sanitize_scope():
        shadows = []
        for policy in (LIGHTWEIGHT_REUSE, RECYCLING):
            block = AllocationBlock(_BLOCK_SIZE, policy=policy)
            handle = make_object_on(block, _NESTED, dict(_nested_pairs(5)))
            live = dict(block._san.live)
            built = (live, dict(block._san.refcounts), _page(block)[0])
            handle.release()
            shadows.append(built)
            # releasing the map poisons every one of its objects
            assert block._san.live == {}
            assert set(block._san.poisoned) == set(live)
        assert shadows[0] == shadows[1]


@pytest.mark.skipif(current_sanitizer() is not None,
                    reason="a watched block and its shadow refer to each "
                    "other by design")
def test_combiner_pages_leave_no_block_for_the_cyclic_collector():
    def blocks():
        return {id(obj) for obj in gc.get_objects()
                if isinstance(obj, AllocationBlock)}

    before = blocks()
    gc.disable()
    try:
        for _ in range(50):
            assert pack_map_pages(_NESTED, _nested_pairs(4), 1 << 12, None)
        assert blocks() - before == set()
    finally:
        gc.enable()


# -- a page of planned object trees is the per-object page ---------------------------

_serial = itertools.count()

#: a generated class's leaf fields: (descriptor, host values)
_LEAVES = [
    (Int32, _ints),
    (Float64, st.floats(allow_nan=False, width=64)),
    (Bool, st.booleans()),
    (String, st.none() | _text),
    (VectorType(Int32), st.none() | _int_lists),
]


@st.composite
def _tree_classes(draw, depth=2):
    """A generated ``PCObject`` class over the five field kinds the
    planner covers — primitive, ``String``, ``Vector<primitive>``,
    ``Handle<Class>``, ``Vector<Class>`` — and a strategy of its records:
    all its fields in declared order, or any subset in any order."""
    fields = []
    for index in range(draw(st.integers(1, 5))):
        kind = draw(st.integers(0, len(_LEAVES) + (1 if depth else -1)))
        if kind < len(_LEAVES):
            descriptor, values = _LEAVES[kind]
        else:
            child, records = draw(_tree_classes(depth - 1))
            descriptor, values = (child, st.none() | records)
            if kind > len(_LEAVES):
                descriptor = VectorType(child)
                values = st.none() | st.lists(st.none() | records, max_size=3)
        fields.append(("f%d" % index, descriptor, values))
    cls = PCObjectMeta("Tree%d" % next(_serial), (PCObject,), {
        "fields": [(name, descriptor) for name, descriptor, _v in fields]})
    picks = st.just(list(range(len(fields)))) | st.lists(
        st.sampled_from(range(len(fields))), unique=True)
    return cls, picks.flatmap(lambda picked: st.tuples(
        *(fields[i][2] for i in picked)
    ).map(lambda drawn: dict(zip((fields[i][0] for i in picked), drawn))))


def _writer(size, registry, seal, declined=None):
    return RowPageWriter(
        lambda: (AllocationBlock(size, registry=registry), None), seal,
        declined)


def _extended(cls, records, size, registry, one_by_one=False):
    """What the writer does with ``records`` — one ``extend``, or one
    ``append`` each: its pages ``[(count, page)]``, its outcome and the
    reasons it was told."""
    pages, declined = [], []

    def seal(block, _token, count):
        if count:
            pages.append((count, _page(block)))

    try:
        with _writer(size, registry, seal, declined.append) as writer:
            if one_by_one:
                for record in records:
                    writer.append(cls, record)
            else:
                writer.extend(cls, records)
    except Exception as error:  # the same error, at the same record
        return pages, (type(error), str(error)), declined
    return pages, None, declined


def _rolled(cls, records, size, registry):
    """``records`` built object by object — ``make_object_on`` once per
    record, a page rolled when one fills and the record retried once on
    a fresh one, as the writer records any other object: the pages and
    how it ended."""
    pages, block = [], None

    def seal():
        if block is not None and len(root):
            pages.append((len(root), _page(block)))

    try:
        for record in records:
            for fresh in (False, True):
                if block is None:
                    block = AllocationBlock(size, registry=registry)
                    root = open_root(block)
                    root.reserve(1)
                try:
                    _place_new(root, block, make_object_on, cls, record)
                    break
                except BlockFullError:
                    if fresh:
                        raise StorageError(
                            "a single object (one row) does not fit on an "
                            "empty %d-byte page: raise the set's page_size"
                            % size) from None
                    seal()
                    block = None
    except Exception as error:
        return pages, (type(error), str(error))
    seal()
    return pages, None


def _per_object(cls, records, counts, size, registry):
    """The oracle: each page built object by object — its root reserved
    for its count, then ``make_object_on`` once per record — and how
    building the records left over ends (:func:`_rolled`)."""
    pages, rest = [], list(records)
    for count in counts:
        block = AllocationBlock(size, registry=registry)
        root = open_root(block)
        root.reserve(count)
        for record in rest[:count]:
            _place_new(root, block, make_object_on, cls, record)
        del rest[:count]
        pages.append((count, _page(block)))
    return pages, _rolled(cls, rest, size, registry)[1]


def _extend_is_per_object(cls, records, size, one_by_one=False):
    registry = TypeRegistry()
    pages, outcome, declined = _extended(cls, records, size, registry,
                                         one_by_one)
    assert set(declined) <= {"one_per_page"}
    counts = [count for count, _page in pages]
    if outcome is None:  # each page of one tree was told, no other
        assert len(declined) == counts.count(1)
    assert (pages, outcome) == _per_object(cls, records, counts, size,
                                           registry)
    return counts, outcome


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_extend_writes_the_per_object_pages(data):
    cls, records = data.draw(_tree_classes())
    _extend_is_per_object(cls, data.draw(st.lists(records, max_size=10)),
                          data.draw(st.integers(1 << 9, 1 << 13)))


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_append_per_record_ships_the_pages_extend_ships(data):
    cls, records = data.draw(_tree_classes())
    records = data.draw(st.lists(records, max_size=40))
    size = data.draw(st.integers(1 << 9, 1 << 13))
    registry = TypeRegistry()
    appended = _extended(cls, records, size, registry, one_by_one=True)
    assert appended == _extended(cls, records, size, registry)
    _extend_is_per_object(cls, records, size, one_by_one=True)


class _Leaf(PCObject):
    fields = [("flag", Bool), ("text", String), ("value", Float64)]


class _Mixed(PCObject):
    fields = [("id", Int32), ("name", String), ("ints", VectorType(Int32)),
              ("child", _Leaf), ("kids", VectorType(_Leaf))]


_MIXED = [
    {"id": 1, "name": None, "ints": [], "child": None, "kids": []},
    {"id": 2, "ints": None, "kids": [None, {}]},
    {},
    {"kids": [{"text": "é"}], "name": "Ünïcødé 日本 ß",
     "child": {"flag": True, "text": "", "value": -0.0}},
    {"id": _INT32_MAX, "ints": [_INT32_MAX, -_INT32_MAX, -_INT32_MAX - 1]},
    {"id": -_INT32_MAX, "name": "x" * 40, "ints": list(range(9)),
     "kids": [{"value": 2.5}, {"flag": True, "text": "kid"}]},
]


@pytest.mark.parametrize("size", [640, 900, 1 << 12])
def test_nulls_empty_vectors_and_non_ascii_text_are_the_per_object_page(size):
    counts, outcome = _extend_is_per_object(_Mixed, _MIXED * 3, size)
    assert outcome is None and sum(counts) == 18


def test_an_out_of_range_int32_raises_what_the_per_object_build_raises():
    with pytest.raises(struct.error) as direct:
        make_object_on(AllocationBlock(1 << 12), _Mixed, {"id": 1 << 31})
    _counts, outcome = _extend_is_per_object(
        _Mixed, _MIXED + [{"id": 1 << 31}] + _MIXED, 1 << 12)
    assert outcome == (struct.error, str(direct.value))


def test_a_page_boundary_falls_after_every_record():
    records = [dict(record, id=i)
               for i, record in enumerate(_MIXED[::-1] * 7)]
    ends = set()
    for size in range(320, 10 << 10, 32):
        counts, outcome = _extend_is_per_object(_Mixed, records, size)
        if outcome is None:  # else the oracle raised the same
            ends.update(itertools.accumulate(counts[:-1]))
    assert ends == set(range(1, len(records)))


def test_a_record_no_empty_page_takes_raises_the_storage_error():
    huge = {"id": 1, "ints": list(range(400))}
    _counts, outcome = _extend_is_per_object(_Mixed, _MIXED + [huge],
                                             1 << 10)
    assert outcome[0] is StorageError
    with pytest.raises(StorageError) as direct:
        with _writer(1 << 10, None, lambda *_: None) as writer:
            writer.append(_Mixed, huge)
    assert outcome[1] == str(direct.value)
    assert direct.value.position == 0


class _Chunk(PCObject):
    fields = [("id", Int32), ("values", VectorType(Float64))]


def test_a_tree_that_fills_a_page_alone_is_built_object_by_object():
    records = [{"id": i, "values": [i / 8.0] * (300 + i % 3)}
               for i in range(40)]
    registry = TypeRegistry()
    pages, outcome, declined = _extended(_Chunk, records, 1 << 12, registry)
    assert outcome is None
    assert [count for count, _page in pages] == [1] * 40
    assert declined == ["one_per_page"] * 40
    assert set(declined) <= set(FALLBACK_REASONS)
    assert pages == _per_object(_Chunk, records, [1] * 40, 1 << 12,
                                registry)[0]


def test_an_error_names_its_record_and_leaves_the_rest_in_the_window():
    records = [dict(record, id=i) for i, record in enumerate(_MIXED * 2)]
    records[7]["id"] = 1 << 31
    sealed = []

    def seal(block, _token, count):
        if count:
            sealed.append([handle.deref().id for handle in page_items(block)])

    writer = _writer(1 << 12, None, seal)
    for record in records:  # under a window: nothing is written yet
        writer.append(_Mixed, record)
    assert sealed == [] and writer.appended == len(records)
    with pytest.raises(struct.error) as error:
        writer.flush()
    assert error.value.position == 7
    # the records before it are on a page, sealed before its build was
    # tried; it is on none; the ones after it wait for the next flush
    assert sealed == [list(range(7))]
    writer.flush()
    assert sealed == [list(range(7)), list(range(8, 12))]
    assert writer.appended == len(records)


def test_tpch_customers_are_planned_whole():
    records = list(_customer_records(TpchSpec(90, n_parts=40,
                                              n_suppliers=6, seed=3)))
    counts, outcome = _extend_is_per_object(Customer, records, 1 << 15)
    assert outcome is None and sum(counts) == 90 and len(counts) > 3


def test_extend_leaves_the_per_object_shadow():
    records = list(_customer_records(TpchSpec(6, n_parts=20, n_suppliers=4)))
    with sanitize_scope():
        registry, sealed = TypeRegistry(), []
        with _writer(1 << 16, registry, lambda block, *_: sealed.append(
                block)) as writer:
            writer.extend(Customer, records)
        oracle = AllocationBlock(1 << 16, registry=registry)
        root = open_root(oracle)
        root.reserve(len(records))
        for record in records:
            _place_new(root, oracle, make_object_on, Customer, record)
        (planned,) = sealed
        for block in (planned, oracle):
            assert len(block._san.live) == block.alloc_count
        assert dict(planned._san.live) == dict(oracle._san.live)
        assert dict(planned._san.refcounts) == dict(oracle._san.refcounts)
        assert _page(planned) == _page(oracle)


def _read_mixed(view):
    kids, child = view.kids, view.child
    return (view.id, view.name, None if view.ints is None else list(view.ints),
            None if kids is None else len(kids),
            None if child is None else child.deref().text)


def _read_mixed_plain(record):
    kids, child = record.get("kids"), record.get("child")
    if isinstance(child, Handle):
        child = {"text": child.deref().text}
    return (record.get("id", 0), record.get("name"), record.get("ints"),
            None if kids is None else len(kids),
            None if child is None else child.get("text", ""))


def _load(records, size=1 << 12, first=None):
    """``records`` through ``extend`` (after ``first`` through ``append``):
    the reasons it was told and the rows of the pages, read back."""
    declined, rows = [], []

    def seal(block, _token, count):
        rows.extend(_read_mixed(handle.deref()) for handle in
                    page_items(AllocationBlock.from_bytes(block.to_bytes())))

    with _writer(size, None, seal, declined.append) as writer:
        if first is not None:
            writer.append(_Mixed, first)
        writer.extend(_Mixed, records)
    return declined, rows


def test_a_record_holding_a_handle_is_declined_once_and_deep_copied():
    elsewhere = AllocationBlock(1 << 12)
    leaf = make_object_on(elsewhere, _Leaf, flag=True, text="linked")
    records = [dict(record, id=i) for i, record in enumerate(_MIXED * 4)]
    records[9]["child"] = leaf
    declined, rows = _load(records, first={"id": -1})
    assert declined == ["reference"]
    assert rows == [_read_mixed_plain(record)
                    for record in [{"id": -1}] + records]
    assert rows[10][4] == "linked"


class _Tagged(PCObject):
    fields = [("id", Int32), ("tags", VectorType(String))]


def test_an_uncovered_field_type_is_declined_per_record_and_appended():
    records = [{"id": i, "tags": ["t%d" % j for j in range(i % 4)]}
               for i in range(40)]
    registry = TypeRegistry()
    pages, outcome, declined = _extended(_Tagged, records, 1 << 10,
                                         registry)
    assert outcome is None and declined == ["uncovered_type"] * 40
    assert set(declined) <= set(FALLBACK_REASONS)
    assert (pages, None) == _rolled(_Tagged, records, 1 << 10, registry)


class _P3(PCObject):
    fields = [("x", Float64), ("y", Float64), ("z", Float64)]


def test_a_writer_that_mixes_records_and_objects_fills_its_pages():
    registry = TypeRegistry()
    elsewhere = AllocationBlock(1 << 16, registry=registry)
    points = [make_object_on(elsewhere, _P3, x=i, y=i, z=i)
              for i in range(60)]

    def load(mixed):
        counts, declined = [], []

        def seal(_block, _token, count):
            if count:
                counts.append(count)

        with _writer(1 << 16, registry, seal, declined.append) as writer:
            for i, point in enumerate(points):
                writer.append(_P3, x=i / 2, y=0.0, z=1.0)
                if mixed:
                    writer.append_object(point)
                else:
                    writer.append(_P3, x=i / 4, y=1.0, z=0.0)
        return counts, declined

    records, declined = load(False)
    assert records == [120] and declined == []
    counts, declined = load(True)
    assert sum(counts) == 120 and len(counts) <= len(records)
    assert declined == []
