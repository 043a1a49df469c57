"""Tests for physical planning and the vectorized pipeline engine.

The key property: for every computation graph, the pipelined engine and
the reference interpreter produce identical results, optimized or not.
"""

import pytest

from repro.core import (
    AggregateComp,
    JoinComp,
    MultiSelectionComp,
    ObjectReader,
    SelectionComp,
    Writer,
    lambda_from_member,
    lambda_from_method,
    lambda_from_native,
)
from repro.engine import LocalInterpreter, plan_pipelines, run_local, vectors
from repro.engine.physical import SINK_AGGREGATE, SINK_HASH_BUILD
from repro.memory.types import Float64, Int64
from repro.tcap import compile_computations


class Order:
    def __init__(self, order_id, customer, total):
        self.order_id = order_id
        self.customer = customer
        self.total = total

    def getCustomer(self):
        return self.customer


class Customer:
    def __init__(self, name, region):
        self.name = name
        self.region = region


ORDERS = [Order(i, "c%d" % (i % 5), 10.0 * i) for i in range(57)]
CUSTOMERS = [Customer("c%d" % i, "r%d" % (i % 2)) for i in range(5)]


class BigOrders(SelectionComp):
    def get_selection(self, arg):
        return lambda_from_member(arg, "total") > 100.0

    def get_projection(self, arg):
        return lambda_from_member(arg, "order_id")


class OrderCustomerJoin(JoinComp):
    def get_selection(self, cust, order):
        return lambda_from_member(cust, "name") == \
            lambda_from_method(order, "getCustomer")

    def get_projection(self, cust, order):
        return lambda_from_native(
            [cust, order], lambda c, o: (c.region, o.total)
        )


class TotalByRegion(AggregateComp):
    key_type = Int64
    value_type = Float64

    def get_key_projection(self, arg):
        return lambda_from_native([arg], lambda pair: pair[0])

    def get_value_projection(self, arg):
        return lambda_from_native([arg], lambda pair: pair[1])


def _graph():
    reader_c = ObjectReader("db", "customers")
    reader_o = ObjectReader("db", "orders")
    join = OrderCustomerJoin().set_input(0, reader_c).set_input(1, reader_o)
    agg = TotalByRegion().set_input(join)
    return Writer("db", "by_region").set_input(agg)


SOURCES = {("db", "orders"): ORDERS, ("db", "customers"): CUSTOMERS}


def test_pipeline_engine_matches_interpreter_on_join_aggregate():
    program = compile_computations(_graph())
    expected = LocalInterpreter(program, SOURCES).run()
    outputs, _program, metrics = run_local(_graph(), SOURCES)
    assert dict(outputs[("db", "by_region")]) == dict(
        expected[("db", "by_region")]
    )
    assert metrics.batches > 0


@pytest.mark.parametrize("rows", [1, 3, 7, 1024])
def test_batch_rows_do_not_change_results(rows, monkeypatch):
    monkeypatch.setattr(vectors, "OBJECT_BATCH_ROWS", rows)
    outputs, _p, _m = run_local(_graph(), SOURCES)
    result = dict(outputs[("db", "by_region")])
    totals = {}
    for customer in CUSTOMERS:
        for order in ORDERS:
            if order.customer == customer.name:
                totals[customer.region] = totals.get(customer.region, 0.0) \
                    + order.total
    assert result == totals


def test_plan_shapes_for_join_aggregate():
    program = compile_computations(_graph())
    plan = plan_pipelines(program)
    sink_kinds = [p.sink_kind for p in plan]
    assert SINK_HASH_BUILD in sink_kinds
    assert SINK_AGGREGATE in sink_kinds
    # Build pipelines must run before the probe pipeline that needs them.
    built = set()
    for pipeline in plan:
        for kind, name in pipeline.depends_on():
            if kind == "hash_table":
                assert name in built
        if pipeline.sink_kind == SINK_HASH_BUILD:
            built.add(pipeline.sink.output)


def test_build_side_override_changes_plan():
    program = compile_computations(_graph())
    default_plan = plan_pipelines(program)
    join_out = next(
        name for name in default_plan.build_sides
    )
    flipped = plan_pipelines(
        compile_computations(_graph()),
        build_side_overrides={join_out: "left"},
    )
    # Both plans execute to the same answer.
    outputs_a, _p, _m = run_local(_graph(), SOURCES)
    outputs_b, _p2, _m2 = run_local(
        _graph(), SOURCES, build_side_overrides={join_out: "left"}
    )
    assert dict(outputs_a[("db", "by_region")]) == dict(
        outputs_b[("db", "by_region")]
    )
    assert flipped.build_sides != default_plan.build_sides


def test_selection_only_pipeline(monkeypatch):
    monkeypatch.setattr(vectors, "OBJECT_BATCH_ROWS", 8)
    reader = ObjectReader("db", "orders")
    writer = Writer("db", "big").set_input(BigOrders().set_input(reader))
    outputs, _p, metrics = run_local(writer, SOURCES)
    expected = [o.order_id for o in ORDERS if o.total > 100.0]
    assert outputs[("db", "big")] == expected
    assert metrics.batches == (len(ORDERS) + 7) // 8


def test_multi_consumer_materializes():
    """One selection feeding two writers forces a materialization cut."""
    reader = ObjectReader("db", "orders")
    sel = BigOrders().set_input(reader)
    writer_a = Writer("db", "a").set_input(sel)
    writer_b = Writer("db", "b").set_input(sel)
    outputs, program, _m = run_local([writer_a, writer_b], SOURCES)
    assert outputs[("db", "a")] == outputs[("db", "b")]
    plan = plan_pipelines(program)
    assert any(p.sink_kind == "materialize" for p in plan)


def test_flatten_through_pipeline(monkeypatch):
    monkeypatch.setattr(vectors, "OBJECT_BATCH_ROWS", 10)

    class Explode(MultiSelectionComp):
        def get_projection(self, arg):
            return lambda_from_native(
                [arg], lambda o: [o.order_id] * (o.order_id % 3)
            )

    reader = ObjectReader("db", "orders")
    writer = Writer("db", "x").set_input(Explode().set_input(reader))
    outputs, _p, _m = run_local(writer, SOURCES)
    expected = []
    for order in ORDERS:
        expected.extend([order.order_id] * (order.order_id % 3))
    assert outputs[("db", "x")] == expected
