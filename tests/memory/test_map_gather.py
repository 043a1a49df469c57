"""Map-page gathers (DESIGN §12): a stored Map read as arrays.

:func:`~repro.memory.gather.map_pairs` reads a Map and every Map, Vector
and String under it one nesting level at a time, into the host values
``scatter_map`` writes.  It must give, pair for pair and in bucket
order, what the entry path (``MapFacade.items()``, each value decoded
recursively) gives; met with a type it does not cover or a handle,
count or capacity it cannot trust, it must step aside before returning
anything, so that the entry path gives its result or raises its
exception — and ``map_items``, the one reader both aggregation readers
use, counts the step aside as a ``map_read`` fallback.
"""

import struct
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.analysis.sanitizer import sanitize_scope
from repro.core import AggregateComp
from repro.engine.pipeline import map_items
from repro.errors import BlockFullError
from repro.memory import (
    AllocationBlock,
    Bool,
    Float32,
    Float64,
    Int32,
    Int64,
    MapFacade,
    MapType,
    PCObject,
    String,
    UInt32,
    UInt64,
    VectorFacade,
    VectorType,
    gather,
    make_object_on,
)
from repro.memory.gather import FALLBACK_REASONS, GatherIneligible, map_pairs
from repro.memory.layout import HANDLE_STRUCT, OBJECT_HEADER_SIZE
from repro.obs.evidence import kernel_fallbacks
from repro.obs.metrics import MetricsRegistry
from repro.storage.dataset import pack_map_pages
from repro.storage.page import page_items

_BLOCK_SIZE = 1 << 18

#: (descriptor, strategy of the host values it encodes)
_LEAVES = [
    (Int32, st.integers(-(1 << 31), (1 << 31) - 1)),
    (Int64, st.integers(-(1 << 63), (1 << 63) - 1)),
    (UInt32, st.integers(0, (1 << 32) - 1)),
    (UInt64, st.integers(0, (1 << 64) - 1)),
    (Float32, st.floats(width=32)),
    (Float64, st.floats()),
    (String, st.text(max_size=8)),
]
_KEYS = [(Int32, _LEAVES[0][1]), (Int64, _LEAVES[1][1]),
         (UInt64, _LEAVES[3][1]), (Float64, st.floats(allow_nan=False)),
         (String, _LEAVES[-1][1])]


def _slot(descriptor, values):
    """A slot's values: an object type's may be None (a null slot)."""
    return st.none() | values if descriptor.is_object_type else values


@st.composite
def _value_types(draw, depth=2):
    """``(descriptor, values)`` of a Map value, nested at most ``depth``
    containers deep."""
    kind = draw(st.sampled_from(
        ["leaf", "vector", "map"] if depth else ["leaf"]))
    if kind == "leaf":
        return draw(st.sampled_from(_LEAVES))
    elem, values = draw(_value_types(depth - 1))
    if kind == "vector":
        return VectorType(elem), st.lists(_slot(elem, values), max_size=5)
    key, keys = draw(st.sampled_from(_KEYS))
    return MapType(key, elem), st.dictionaries(
        keys, _slot(elem, values), max_size=5)


@st.composite
def _maps(draw):
    """A Map type and a host value of it."""
    key, keys = draw(st.sampled_from(_KEYS))
    val, values = draw(_value_types())
    pairs = draw(st.dictionaries(keys, _slot(val, values), max_size=12))
    return MapType(key, val), pairs


def decode(value):
    """The entry path's value, decoded recursively into host values."""
    if isinstance(value, MapFacade):
        return {key: decode(item) for key, item in value.items()}
    if isinstance(value, VectorFacade):
        return [decode(item) for item in value]
    return value


def entry_pairs(view):
    return [(key, decode(value)) for key, value in view.items()]


def same(a, b):
    """Equal, NaN for NaN and -0.0 apart from 0.0, order included."""
    return repr(a) == repr(b)


def gathered(view):
    """:func:`map_pairs` of ``view`` with the gather taken whatever its
    size (the entry-by-entry read of small Maps is ``_host``)."""
    with mock.patch.object(gather, "MAP_GATHER_MIN_SIZE", 0):
        return map_pairs(view)


def _page_views(descriptor, pairs, page_size):
    """The Map of every page ``pairs`` roll over, packed as an
    aggregation packs its combiner and output pages."""
    return [
        page_items(AllocationBlock.from_bytes(data))[0]
        for data, _crc, _allocations, _count in
        pack_map_pages(descriptor, list(pairs), page_size, None)
    ]


_NESTED = MapType(String, MapType(String, VectorType(Int32)))


@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(typed=_maps(), page_size=st.sampled_from([1 << 9, 1 << 11, 1 << 16]))
@example(typed=(_NESTED, {}), page_size=1 << 16)
@example(typed=(_NESTED, {"": {}, "e": {"v": []}, "n": None,
                          "m": {"null": None}}), page_size=1 << 16)
@example(typed=(_NESTED, {"Ünïcødé": {"日本": [1], "ß": []}, "€": {}}),
         page_size=1 << 16)
@example(typed=(MapType(Int64, VectorType(Float64)),
                {0: [float("nan"), float("inf"), -float("inf"), -0.0, 0.0]}),
         page_size=1 << 16)
@example(typed=(MapType(Float64, Float32),
                {-0.0: -0.0, 1.5: float("nan"), 2.5: float("-inf")}),
         page_size=1 << 16)
@example(typed=(MapType(String, VectorType(String)),
                {"a": [None, "", "ä"], "b": None, "c": []}),
         page_size=1 << 16)
@example(typed=(_NESTED, {"s%d" % i: {"c%d" % j: list(range(j))
                                      for j in range(4)} for i in range(12)}),
         page_size=1 << 9)
def test_map_pairs_equals_the_entry_path(typed, page_size):
    descriptor, value = typed
    block = AllocationBlock(_BLOCK_SIZE)
    view = make_object_on(block, descriptor, value).deref()
    expected = entry_pairs(view)
    assert same(gathered(view), expected)
    assert same(map_pairs(view), expected)
    # the same pairs rolled over pages as small as one pair needs
    try:
        views = _page_views(descriptor, value.items(), page_size)
    except BlockFullError:  # a page too small for a single pair
        return
    for page in views:
        assert same(gathered(page), entry_pairs(page))


@settings(max_examples=100, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(typed=_maps())
@example(typed=(_NESTED, {"s%d" % i: {"c%d" % j: list(range(j))
                                      for j in range(5)} for i in range(9)}))
@example(typed=(MapType(Int64, VectorType(Float64)),
                {0: [float("nan"), -0.0], 1: [], 2: None}))
def test_repacking_the_decoded_pairs_reproduces_the_page(typed):
    """Re-packed from what :func:`map_pairs` reads off a page, a Map is
    the page its original host values make, byte for byte — the host
    form loses nothing the page holds.  Both are packed in the order
    the Maps were read in: a Map's bucket order is not its insertion
    order, and the page of the original values in their own order lays
    its objects out in another order."""
    descriptor, value = typed
    (view,) = _page_views(descriptor, value.items(), 1 << 18) or [None]
    if view is None:  # no pairs: no page
        return
    decoded = gathered(view)
    assert len(decoded) == len(value)
    original = _in_order(value, dict(decoded))
    assert _bytes(descriptor, decoded) == _bytes(descriptor,
                                                 list(original.items()))


def _in_order(original, decoded):
    """The ``original`` host value with every dict in ``decoded``'s key
    order (the bucket order each Map was read in)."""
    if isinstance(decoded, dict):
        return {key: _in_order(original[key], item)
                for key, item in decoded.items()}
    if isinstance(decoded, list):
        return [_in_order(*items) for items in zip(original, decoded)]
    return original


def _bytes(descriptor, pairs):
    ((data, *_sealed),) = pack_map_pages(descriptor, pairs, 1 << 18, None)
    return data


def test_map_pairs_keeps_bucket_order():
    block = AllocationBlock(_BLOCK_SIZE)
    view = make_object_on(block, MapType(Int64, Float64),
                          {i * 7919: float(i) for i in range(200)}).deref()
    assert gathered(view) == list(view.items())


# -- what it does not read ---------------------------------------------------------------


class Point(PCObject):
    fields = [("x", Float64)]


@pytest.mark.parametrize("descriptor", [
    MapType(Int64, Bool),
    MapType(Int64, Point),
    MapType(Int64, VectorType(Bool)),
    MapType(Bool, Int64),
    MapType(Int64, MapType(VectorType(Int32), Int32)),
])
def test_an_uncovered_type_declines_before_reading(descriptor):
    block = AllocationBlock(_BLOCK_SIZE)
    view = make_object_on(block, descriptor, None).deref()
    with pytest.raises(GatherIneligible) as raised:
        gathered(view)
    assert raised.value.reason == "uncovered_type"
    assert "uncovered_type" in FALLBACK_REASONS


def _declined(registry):
    """A ``map_items`` ``declined(reason)`` that counts into
    ``registry`` as the client's read counts into the master's."""
    fallbacks = kernel_fallbacks(registry)
    return lambda reason: fallbacks.inc(operator="map_read", reason=reason)


class Flags(AggregateComp):
    key_type = Int32
    value_type = Bool


def test_an_uncovered_value_type_counts_one_map_read_and_decodes():
    registry = MetricsRegistry()
    block = AllocationBlock(_BLOCK_SIZE)
    value = {i: i % 3 == 0 for i in range(300)}
    view = make_object_on(block, MapType(Int32, Bool), value).deref()
    assert dict(map_items(view, Flags(), _declined(registry))) == value
    assert registry.snapshot().value(
        "pc_engine_kernel_fallback_total", operator="map_read",
        reason="uncovered_type") == 1


# -- handles the entry path would read otherwise -----------------------------------------


def _supplier_page():
    block = AllocationBlock(_BLOCK_SIZE)
    value = {"s%d" % i: {"c%d" % j: list(range(j % 4 + 1))
                         for j in range(30)} for i in range(8)}
    return make_object_on(block, _NESTED, value).deref()


def _outcome(read):
    try:
        return "ok", repr(read())
    except Exception as error:  # the same error, at the same point
        return type(error), str(error)


def _first_value_slot(view, depth):
    """The value handle slot of the first occupied entry, ``depth`` Maps
    down."""
    for _ in range(depth + 1):
        descriptor = view.descriptor.buckets_type
        _count, table, capacity = view._state()
        for entry in range(table + OBJECT_HEADER_SIZE,
                           table + OBJECT_HEADER_SIZE
                           + capacity * descriptor.entry_size,
                           descriptor.entry_size):
            if view.pc_block.buf[entry]:
                break
        slot = entry + descriptor.val_offset
        inner = descriptor.val.read_slot(view.pc_block, slot)
        if not isinstance(inner, MapFacade):
            return slot
        view = inner
    return slot


@pytest.mark.parametrize("depth", [0, 1])
@pytest.mark.parametrize("target", [
    "past_the_end", "before_the_header", "negative", "unaligned",
])
def test_a_bad_handle_declines_and_the_entry_path_reads_it(depth, target):
    view = _supplier_page()
    slot = _first_value_slot(view, depth)
    buf = view.pc_block.buf
    delta, code = HANDLE_STRUCT.unpack_from(buf, slot)
    size = len(buf)
    delta = {
        "past_the_end": size - slot + 64,
        "before_the_header": 8 - slot,
        "negative": -slot - 4096,
        "unaligned": delta + 2,
    }[target]
    HANDLE_STRUCT.pack_into(buf, slot, delta, code)
    with pytest.raises(GatherIneligible) as raised:
        map_pairs(view)
    assert raised.value.reason == "null_or_dangling"
    registry = MetricsRegistry()
    assert _outcome(lambda: map_items(view, None, _declined(registry))) == \
        _outcome(lambda: list(view.items()))
    assert registry.snapshot().value(
        "pc_engine_kernel_fallback_total", operator="map_read",
        reason="null_or_dangling") == 1


@pytest.mark.parametrize("field", ["count", "capacity"])
def test_a_vector_count_past_its_capacity_declines(field):
    view = _supplier_page()
    vector = _first_value_slot(view, 1)
    buf = view.pc_block.buf
    delta, _code = HANDLE_STRUCT.unpack_from(buf, vector)
    payload = vector + delta + OBJECT_HEADER_SIZE
    if field == "count":
        struct.pack_into("<q", buf, payload, -1)
    else:
        array_delta, _code = HANDLE_STRUCT.unpack_from(buf, payload + 8)
        struct.pack_into("<Q", buf, payload + 8 + array_delta + 8, 0)
    with pytest.raises(GatherIneligible) as raised:
        map_pairs(view)
    assert raised.value.reason == "null_or_dangling"


@pytest.mark.parametrize("length", [1 << 30, 1 << 31])
def test_a_string_that_runs_off_the_page_reads_as_the_entry_path_reads_it(
        length):
    view = _supplier_page()
    _count, table, _capacity = view._state()
    buckets = view.descriptor.buckets_type
    entry = next(entry for entry in range(
        table + OBJECT_HEADER_SIZE, len(view.pc_block.buf),
        buckets.entry_size) if view.pc_block.buf[entry])
    slot = entry + buckets.key_offset
    delta, _code = HANDLE_STRUCT.unpack_from(view.pc_block.buf, slot)
    struct.pack_into("<I", view.pc_block.buf,
                     slot + delta + OBJECT_HEADER_SIZE, length)
    registry = MetricsRegistry()
    assert _outcome(lambda: [
        (key, decode(value))
        for key, value in map_items(view, None, _declined(registry))
    ]) == _outcome(lambda: entry_pairs(view))


def test_a_sanitized_block_is_gathered_too():
    """The entry path of a covered Map makes no handle, so PCSan has
    nothing to check there: the gather does not step aside."""
    with sanitize_scope():
        view = _supplier_page()
        assert view.pc_block._san is not None
        registry = MetricsRegistry()
        assert same(map_items(view, None, _declined(registry)), entry_pairs(view))
        assert registry.snapshot().value(
            "pc_engine_kernel_fallback_total") == 0


def test_a_small_map_is_read_entry_by_entry_in_host_values():
    block = AllocationBlock(_BLOCK_SIZE)
    view = make_object_on(block, MapType(Int64, VectorType(Float64)),
                          {i: [float(i)] * 3 for i in range(8)}).deref()
    assert len(view) + block.active_objects < gather.MAP_GATHER_MIN_SIZE
    assert map_pairs(view) == [(i, [float(i)] * 3) for i in range(8)]


class Sums(AggregateComp):
    key_type = Int64
    value_type = VectorType(Float32)


def test_a_numeric_vector_decodes_from_a_facade_a_list_or_an_ndarray():
    block = AllocationBlock(_BLOCK_SIZE)
    facade = make_object_on(block, VectorType(Float32), [1.5, -0.0]).deref()
    for stored in (facade, [1.5, -0.0], np.array([1.5, -0.0])):
        decoded = Sums().decode_value(stored)
        assert decoded.dtype == np.float32
        assert repr(decoded.tolist()) == "[1.5, -0.0]"
    # a copy, never a view of the page
    assert Sums().decode_value(facade).base is None
    # any other value type: as read
    assert Flags().decode_value(True) is True
