"""Gather reads (DESIGN §12): the array path over row pages.

An :class:`~repro.memory.gather.ObjectRows` is the objects of one class
on one row page.  Read as arrays it must give, row for row, what the
object path gives; met with a row it does not serve — a freed object, a
null slot, a foreign class, a sanitized block, an unaligned slot — it
must step aside (one counted fallback, by reason) so that the object
path gives its result, or raises its exception at its row.
"""

import os
import struct

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.analysis.sanitizer import sanitize_scope
from repro.core import (
    MultiSelectionComp,
    ObjectReader,
    Writer,
    lambda_from_native,
)
from repro.engine import PipelineEngine, plan_pipelines, vectors
from repro.engine.pipeline import object_batches
from repro.errors import DanglingHandleError
from repro.memory import (
    AllocationBlock,
    Float32,
    Float64,
    Int8,
    Int32,
    Int64,
    PCObject,
    String,
    TypeRegistry,
    UInt32,
    VectorType,
    make_object_on,
    use_allocation_block,
)
from repro.memory.builtins import AnyObject
from repro.memory.gather import (
    FALLBACK_REASONS,
    GatherIneligible,
    ObjectRows,
    column_names,
    root_rows,
)
from repro.memory.layout import HANDLE_STRUCT, OBJECT_HEADER_SIZE
from repro.memory.objects import PCObjectMeta
from repro.storage.buffer_pool import BufferPool
from repro.storage.page import open_root, page_items
from repro.tcap import compile_computations
from repro.tcap.optimizer import mark_columnar, optimize
from repro.tpch.generator import TpchSpec, _customer_records
from repro.tpch.queries import CustomerMultiSelection
from repro.tpch.schema import Customer, LineItem, Order, Supplier

#: tier-1 also runs under PCSan, where every block is sanitized and a
#: marked stage takes the object path (reason ``sanitizer``).
SANITIZED = os.environ.get("PC_SANITIZE") == "1"
needs_plain = pytest.mark.skipif(
    SANITIZED, reason="under PCSan every gather steps aside"
)


def customer_page(n=12, size=1 << 18, seed=5):
    """A row page of ``n`` Customer trees; returns ``(block, root vector)``."""
    block = AllocationBlock(size)
    root = open_root(block)
    root.reserve(n + 4)
    spec = TpchSpec(n, n_parts=30, n_suppliers=4, seed=seed)
    for record in _customer_records(spec):
        handle = make_object_on(block, Customer, record)
        root.append(handle)
        handle.release()
    return block, page_items(block)


def run_explode(block, marked=True, rows=None):
    """The customers-per-supplier projection over the page, through the
    engine — ``rows`` to a batch, if given; returns ``(pieces or the
    exception raised, engine metrics)``."""
    program = compile_computations(Writer("db", "out").set_input(
        CustomerMultiSelection().set_input(ObjectReader("db", "customers"))
    ))
    optimize(program)
    if marked:
        assert mark_columnar(program, lambda db, name: Customer) == 4
    engine = PipelineEngine(
        program, plan_pipelines(program), lambda scan: page_items(block),
    )
    with pytest.MonkeyPatch.context() as patch:
        if rows is not None:
            patch.setattr(vectors, "OBJECT_BATCH_ROWS", rows)
        try:
            outcome = engine.run()[("db", "out")]
        except Exception as error:  # noqa: BLE001 - compared with the other path's
            outcome = error
    return outcome, engine.metrics


def assert_parity(block, reason, rows=None):
    """Marked and unmarked runs agree — on the result, or on the
    exception and its message (which names the row's offset) — and the
    marked one counted one fallback per batch under ``reason``."""
    expected, plain = run_explode(block, marked=False, rows=rows)
    outcome, metrics = run_explode(block, rows=rows)
    assert plain.kernel_fallbacks == {} and plain.gather_rows == 0
    if isinstance(expected, Exception):
        assert type(outcome) is type(expected)
        assert str(outcome) == str(expected)
    else:
        assert outcome == expected
    if SANITIZED:
        reason = "sanitizer"
    if reason is None:
        assert metrics.kernel_fallbacks == {}
        assert metrics.gather_rows == 3 * metrics.rows_in > 0
    else:
        assert set(metrics.kernel_fallbacks) == {("apply", reason)}
    return outcome


# -- the object path's view ----------------------------------------------------------


def test_rows_yield_the_handles_of_the_root_vector():
    block, root = customer_page()
    rows = root_rows(root, "Customer")
    assert isinstance(rows, ObjectRows) and rows.cls is Customer
    assert len(rows) == len(root) == 12
    handles = list(root)

    def same(batch, expected):
        assert len(batch) == len(expected)
        assert all(a.same_object(b) and a.type_code == b.type_code
                   for a, b in zip(batch, expected))
        assert all(a.same_object(b) for a, b in zip(batch.reify(), expected))

    same(rows, handles)
    same(rows.slice(3, 7), handles[3:7])
    same(rows[5:], handles[5:])
    same(rows.slice(8, 100), handles[8:])
    keep = np.arange(12) % 3 == 0
    same(rows.mask(keep), handles[::3])
    same(rows.mask(keep).slice(1, 3), handles[3:9:3])
    assert rows[4].same_object(handles[4])
    assert rows[-1].same_object(handles[-1])
    with pytest.raises(IndexError):
        rows[12]


def test_a_page_without_the_class_stays_a_root_vector():
    block, root = customer_page(3)
    assert root_rows(root, "Order") is root
    assert root_rows((), "Customer") == ()
    empty = AllocationBlock(1 << 12)
    assert len(root_rows(open_root(empty), "Customer")) == 0


@needs_plain
def test_batch_kernels_equal_the_methods_row_for_row():
    block, root = customer_page(40)
    rows = root_rows(root, "Customer")
    views = [handle.deref() for handle in root]
    batch = Customer.supplier_parts_batch(rows)
    assert batch == [view.supplier_parts() for view in views]
    # dict and list order included
    assert [list(d.items()) for d in batch] \
        == [list(view.supplier_parts().items()) for view in views]
    assert Customer.part_ids_batch(rows) == [v.part_ids() for v in views]
    assert rows.column("cust_key").tolist() == [v.cust_key for v in views]
    assert rows.strings("market_segment") \
        == [v.market_segment for v in views]
    orders, customer_of = rows.elements("orders", Order)
    assert len(orders) == sum(len(v.orders) for v in views)
    assert customer_of.tolist() == [
        row for row, v in enumerate(views) for _ in v.orders
    ]
    items, _order_of = orders.elements("line_items", LineItem)
    assert items.objects("part").cls.__name__ == "Part"
    assert column_names(Customer) == {"cust_key", "acct_bal"}
    with pytest.raises(KeyError):
        rows.column("name")


# -- error parity, through the engine -----------------------------------------------


def test_clean_page_is_all_gather_rows():
    block, _root = customer_page()
    pieces = assert_parity(block, None)
    assert len(pieces) > 12
    assert_parity(block, None, rows=5)


def test_freed_customer_raises_at_its_row():
    block, root = customer_page()
    block.free_object(root[7].offset)
    outcome = assert_parity(block, "null_or_dangling")
    assert isinstance(outcome, DanglingHandleError)
    assert str(root[7].offset) in str(outcome)
    # Batches before the freed row's still gather.
    _outcome, metrics = run_explode(block, rows=4)
    if not SANITIZED:
        assert metrics.kernel_fallbacks == {("apply", "null_or_dangling"): 1}
        assert metrics.gather_rows == 3 * 4 + 2 * 4


def test_freed_line_item_raises_at_its_row():
    block, root = customer_page()
    order = next(iter(root[3].deref().orders)).deref()
    block.free_object(next(iter(order.line_items)).offset)
    assert isinstance(assert_parity(block, "null_or_dangling"),
                      DanglingHandleError)


def test_null_orders_slot_raises_what_the_walk_raises():
    block, root = customer_page()
    with use_allocation_block(block):
        bare = make_object_on(block, Customer, cust_key=99, name="bare")
        root.append(bare)
    assert bare.deref().orders is None
    assert isinstance(assert_parity(block, "null_or_dangling"), TypeError)


def test_empty_line_items_vector_is_served():
    block, root = customer_page()
    with use_allocation_block(block):
        order = make_object_on(block, Order, order_key=1, line_items=[])
        idle = make_object_on(block, Customer, cust_key=77, name="idle",
                              orders=[order])
        none = make_object_on(block, Customer, cust_key=78, name="none",
                              orders=[])
        root.append(idle)
        root.append(none)
    assert idle.deref().supplier_parts() == {}
    assert_parity(block, None)
    if not SANITIZED:
        assert Customer.part_ids_batch(root_rows(root, "Customer"))[-2:] \
            == [set(), set()]


class VipCustomer(Customer):
    fields = [("tier", Int32)]

    def supplier_parts(self):
        return {"vip": [self.tier]}


def test_subclass_instance_among_customers_keeps_its_override():
    block, root = customer_page()
    with use_allocation_block(block):
        root.append(make_object_on(block, VipCustomer, cust_key=5,
                                   name="vip", tier=3, orders=[]))
    pieces = assert_parity(block, "mixed_types")
    assert ("vip", {"vip": [3]}) in pieces


def _slot(handle, cls, name):
    """The byte offset of field ``name`` of the ``cls`` object ``handle``
    points at."""
    return handle.offset + OBJECT_HEADER_SIZE + cls.pc_fields[name].byte_offset


def _first_line_item(root, row):
    order = next(iter(root[row].deref().orders))
    return next(iter(order.deref().line_items))


def test_a_vector_that_runs_off_the_page_declines():
    block, root = customer_page()
    buf = block.buf
    slot = _slot(root[7], Customer, "orders")
    payload = slot + HANDLE_STRUCT.unpack_from(buf, slot)[0] \
        + OBJECT_HEADER_SIZE
    array = payload + 8 + HANDLE_STRUCT.unpack_from(buf, payload + 8)[0]
    count = 100_000
    struct.pack_into("<Q", buf, payload, count)
    struct.pack_into("<Q", buf, array + 8, count * HANDLE_STRUCT.size)
    assert count * HANDLE_STRUCT.size > block.size
    assert isinstance(assert_parity(block, "null_or_dangling"), struct.error)


def test_a_string_that_is_not_utf8_declines():
    block, root = customer_page()
    buf = block.buf
    slot = _slot(_first_line_item(root, 3).deref().supplier.handle(),
                 Supplier, "name")
    text = slot + HANDLE_STRUCT.unpack_from(buf, slot)[0] \
        + OBJECT_HEADER_SIZE + 4
    buf[text] = 0xFF
    assert isinstance(assert_parity(block, "null_or_dangling"),
                      UnicodeDecodeError)


@pytest.mark.parametrize(
    "target", ["past_the_end", "before_the_header", "negative", "unaligned"])
def test_a_bad_handle_on_a_row_page_declines(target):
    block, root = customer_page()
    buf = block.buf
    slot = _slot(_first_line_item(root, 3), LineItem, "part")
    delta, code = HANDLE_STRUCT.unpack_from(buf, slot)
    delta = {
        "past_the_end": block.size - slot + 64,
        "before_the_header": 8 - slot,
        "negative": -slot - 4096,
        "unaligned": delta + 2,
    }[target]
    HANDLE_STRUCT.pack_into(buf, slot, delta, code)
    assert_parity(block, "null_or_dangling")


class Holder(PCObject):
    fields = [("tag", Int32), ("values", VectorType(Int64))]


@needs_plain
def test_vector_that_fills_its_page_exactly():
    block = AllocationBlock(1 << 12)
    root = open_root(block)
    root.reserve(2)
    first = make_object_on(block, Holder, tag=1, values=[4, 5])
    last = make_object_on(block, Holder, tag=2)
    root.append(first)
    root.append(last)
    # vector object: header + count + handle slot; array: header + slots
    room = (block.size - block.used - 40 - 16) // 8
    last.deref().values = list(range(room))
    assert block.used == block.size
    rows = root_rows(root, "Holder")
    values, parent = rows.elements("values")
    assert values.tolist() == [4, 5] + list(range(room))
    assert parent.tolist() == [0, 0] + [1] * room
    assert values.dtype == np.int64 and rows.column("tag").tolist() == [1, 2]


class Odd(PCObject):
    fields = [("flag", Int8), ("label", String), ("n", Int32)]


@needs_plain
def test_unaligned_slots_are_ineligible_not_misread():
    block = AllocationBlock(1 << 12)
    root = open_root(block)
    root.append(make_object_on(block, Odd, flag=1, label="x", n=7))
    rows = root_rows(root, "Odd")
    assert column_names(Odd) == frozenset()
    with pytest.raises(GatherIneligible) as raised:
        rows.strings("label")
    assert raised.value.reason == "unaligned"


def test_reasons_are_a_closed_set():
    assert GatherIneligible("sanitizer").reason in FALLBACK_REASONS
    with pytest.raises(ValueError):
        GatherIneligible("because")


# -- the sanitizer ---------------------------------------------------------------------


def test_sanitized_block_takes_the_object_path():
    with sanitize_scope():
        block, root = customer_page()
        rows = root_rows(root, "Customer")
        with pytest.raises(GatherIneligible) as raised:
            rows.column("cust_key")
        assert raised.value.reason == "sanitizer"
        expected, _plain = run_explode(block, marked=False)
        outcome, metrics = run_explode(block)
        assert outcome == expected
        assert metrics.kernel_fallbacks == {("apply", "sanitizer"): 1}


def _explode_under_a_freed_page(pool):
    """Run the kernelized stage over a batch whose page is freed under
    it (the bug); returns ``(outcome, engine metrics)``."""
    page = pool.adopt_page(customer_page(6, pool.page_size)[0].to_bytes())
    program = compile_computations(Writer("db", "out").set_input(
        CustomerMultiSelection().set_input(ObjectReader("db", "customers"))
    ))
    optimize(program)
    mark_columnar(program, lambda db, name: Customer)
    plan = plan_pipelines(program)
    engine = PipelineEngine(program, plan, None)
    pipeline = plan.pipelines[0]

    def batches():
        for batch in object_batches(
            [page_items(page.block)], pipeline.source.column,
            columnar=pipeline.source.array_rows,
        ):
            pool.unpin(page.page_id)
            pool.free_page(page.page_id)
            yield batch

    try:
        engine.run_stages(pipeline.stages, batches(),
                          engine._make_sink(pipeline))
        return None, engine.metrics
    except DanglingHandleError as error:
        return error, engine.metrics


def test_use_after_free_in_a_kernelized_stage_is_reported_by_pcsan():
    with sanitize_scope() as san:
        outcome, metrics = _explode_under_a_freed_page(
            BufferPool(1 << 20, page_size=1 << 16)
        )
        assert isinstance(outcome, DanglingHandleError)
        assert "retired" in str(outcome)
        assert san.c_dangling_derefs.value == 1
        assert metrics.kernel_fallbacks == {("apply", "sanitizer"): 1}


# -- parity as a property ---------------------------------------------------------------

_PRIMITIVES = {"i4": Int32, "i8": Int64, "u4": UInt32, "f4": Float32,
               "f8": Float64}
_VALUES = {
    "i4": st.integers(-2 ** 31, 2 ** 31 - 1),
    "i8": st.integers(-2 ** 63, 2 ** 63 - 1),
    "u4": st.integers(0, 2 ** 32 - 1),
    "f4": st.floats(width=32, allow_nan=False),
    "f8": st.floats(allow_nan=False),
    "str": st.sampled_from(["", "a", "shared", "répété", "x" * 40]),
}
_LEAF_KINDS = sorted(_VALUES)
_NODE_KINDS = _LEAF_KINDS + ["leaf", "vec:i4", "vec:f8", "vec:leaf"]


def _field_type(kind, leaf):
    if kind == "str":
        return String
    if kind == "leaf":
        return leaf
    if kind == "vec:leaf":
        return VectorType(AnyObject)
    if kind.startswith("vec:"):
        return VectorType(_PRIMITIVES[kind[4:]])
    return _PRIMITIVES[kind]


def _make_classes(leaf_kinds, node_kinds):
    """A two-level schema: ``Node`` rows whose ``leaf`` / ``vec:leaf``
    fields point at ``Leaf`` objects."""
    leaf = PCObjectMeta("Leaf", (PCObject,), {"fields": [
        ("f%d" % i, _field_type(kind, None))
        for i, kind in enumerate(leaf_kinds)
    ]})
    node = PCObjectMeta("Node", (PCObject,), {"fields": [
        ("f%d" % i, _field_type(kind, leaf))
        for i, kind in enumerate(node_kinds)
    ]})
    return leaf, node


def _value(kind, leaf_kinds):
    if kind == "leaf":
        return st.tuples(*(_VALUES[k] for k in leaf_kinds))
    if kind == "vec:leaf":
        return st.lists(_value("leaf", leaf_kinds), max_size=3)
    if kind.startswith("vec:"):
        return st.lists(_VALUES[kind[4:]], max_size=4)
    return _VALUES[kind]


@st.composite
def schemas_and_rows(draw):
    leaf_kinds = draw(st.lists(st.sampled_from(_LEAF_KINDS), min_size=1,
                               max_size=4))
    node_kinds = draw(st.lists(st.sampled_from(_NODE_KINDS), min_size=1,
                               max_size=6))
    rows = draw(st.lists(
        st.tuples(*(_value(kind, leaf_kinds) for kind in node_kinds)),
        max_size=6,
    ))
    return leaf_kinds, node_kinds, rows


def _build(block, cls, kinds, values, leaf, leaf_kinds):
    fields = {}
    for i, (kind, value) in enumerate(zip(kinds, values)):
        if kind == "leaf":
            value = _build(block, leaf, leaf_kinds, value, None, None)
        elif kind == "vec:leaf":
            value = [_build(block, leaf, leaf_kinds, item, None, None)
                     for item in value]
        fields["f%d" % i] = value
    return make_object_on(block, cls, **fields)


def _walk(view, kinds, leaf_kinds):
    """``fn``: one row read field by field down the object path."""
    out = []
    for i, kind in enumerate(kinds):
        value = getattr(view, "f%d" % i)
        if kind == "leaf":
            value = _walk(value.deref(), leaf_kinds, None)
        elif kind == "vec:leaf":
            value = [_walk(item.deref(), leaf_kinds, None) for item in value]
        elif kind.startswith("vec:"):
            value = list(value)
        out.append(value)
    return tuple(out)


def _walk_batch(rows, kinds, leaf_kinds, leaf):
    """``kernel``: every row at once, against ``ObjectRows`` only."""
    columns = []
    for i, kind in enumerate(kinds):
        name = "f%d" % i
        if kind == "str":
            column = rows.strings(name)
        elif kind == "leaf":
            column = _walk_batch(rows.objects(name), leaf_kinds, None, None)
        elif kind.startswith("vec:"):
            items, parent = rows.elements(name, leaf)
            if kind == "vec:leaf":
                items = _walk_batch(items, leaf_kinds, None, None)
            else:
                items = items.tolist()
            column = [[] for _ in range(len(rows))]
            for row, item in zip(parent.tolist(), items):
                column[row].append(item)
        else:
            column = rows.column(name).tolist()
        columns.append(column)
    return list(zip(*columns)) if len(rows) else []


# The directed seeds (the ROADMAP's whole-plan generator): the generator's
# shrunk cases, by what they pin down.
@example((["i4"], ["i4"], []))  # an empty set
@example((["str"], ["str"], [("shared",)]))  # a one-row page
@example((["str"], ["str", "leaf", "leaf"],
          [("shared", ("shared",), ("shared",))] * 3))  # repeated targets
@example((["i8"], ["i4", "i8", "vec:f8"],
          [(1, -2 ** 63, []), (2, 2 ** 63 - 1, [0.5, -0.0])]))  # i8 on a
# four-byte boundary; an empty vector beside a filled one
@example((["f4", "str"], ["vec:leaf", "vec:leaf"],
          [([], [(1.5, "")]), ([(2.5, "a"), (3.5, "a")], [])]))
@settings(max_examples=60, deadline=None)
@given(schemas_and_rows())
def test_kernel_over_rows_equals_fn_over_handles(case):
    if SANITIZED:
        return
    leaf_kinds, node_kinds, data = case
    leaf, node = _make_classes(leaf_kinds, node_kinds)
    block = AllocationBlock(1 << 16, registry=TypeRegistry())
    root = open_root(block)
    root.reserve(len(data) + 1)
    for values in data:
        handle = _build(block, node, node_kinds, values, leaf, leaf_kinds)
        root.append(handle)
        handle.release()
    expected = [_walk(h.deref(), node_kinds, leaf_kinds) for h in root]
    rows = root_rows(root, "Node")
    if not data:
        assert len(rows) == 0
        return
    assert _walk_batch(rows, node_kinds, leaf_kinds, leaf) == expected
    half = len(data) // 2
    assert _walk_batch(rows.slice(half, len(data)), node_kinds, leaf_kinds,
                       leaf) == expected[half:]


def test_a_list_is_a_kernel_result_and_a_scalar_is_not():
    """``lambda_from_native(kernel=...)`` may return an object column;
    anything but a column of the batch's length is a counted fallback."""
    block, _root = customer_page(5)

    def run(kernel):
        class Names(MultiSelectionComp):
            def get_projection(self, arg):
                return lambda_from_native(
                    [arg], lambda customer: [customer.name], kernel=kernel
                )

        program = compile_computations(Writer("db", "out").set_input(
            Names().set_input(ObjectReader("db", "customers"))
        ))
        optimize(program)
        mark_columnar(program, lambda db, name: Customer)
        engine = PipelineEngine(program, plan_pipelines(program),
                                lambda scan: page_items(block))
        return engine.run()[("db", "out")], engine.metrics

    expected = ["customer#%d" % i for i in range(5)]
    names, metrics = run(lambda rows: [[str(len(rows))]] * len(rows))
    assert names == ["5"] * 5 and metrics.kernel_fallbacks == {}
    for bad in (lambda rows: len(rows), lambda rows: [["x"]],
                lambda rows: (["x"],) * len(rows)):
        names, metrics = run(bad)
        assert names == expected
        assert metrics.kernel_fallbacks == {("apply", "bad_kernel_result"): 1}
