"""Property-based differential tests: pipelined engine vs interpreter.

For randomly generated predicates, projections, join keys, and rows per
batch, the optimized vectorized pipeline engine must agree exactly with
the unoptimized reference interpreter — the strongest statement that
TCAP optimization and physical planning preserve semantics.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    AggregateComp,
    JoinComp,
    ObjectReader,
    SelectionComp,
    Writer,
    lambda_from_member,
    lambda_from_native,
)
from repro.engine import LocalInterpreter, run_local, vectors
from repro.memory.types import Int64
from repro.tcap import compile_computations


class Row:
    def __init__(self, key, value):
        self.key = key
        self.value = value

    def getKey(self):
        return self.key


rows = st.lists(
    st.tuples(st.integers(0, 8), st.integers(-50, 50)), max_size=60
).map(lambda pairs: [Row(k, v) for k, v in pairs])

thresholds = st.integers(-40, 40)
batch_rows = st.sampled_from([1, 3, 17, 1024])


def run_in_batches_of(rows, graph, sources, **kwargs):
    """``run_local`` with ``rows`` rows to a batch (the engine constant
    patched: a hypothesis example cannot take a function-scoped fixture)."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(vectors, "OBJECT_BATCH_ROWS", rows)
        return run_local(graph, sources, **kwargs)


def _mk_selection(threshold):
    class Sel(SelectionComp):
        def get_selection(self, arg):
            return lambda_from_member(arg, "value") > threshold

        def get_projection(self, arg):
            return lambda_from_native([arg], lambda r: (r.key, r.value))

    return Sel()


@settings(max_examples=40, deadline=None)
@given(rows, thresholds, batch_rows)
def test_selection_engine_matches_interpreter(data, threshold, per_batch):
    def graph():
        return Writer("db", "out").set_input(
            _mk_selection(threshold).set_input(ObjectReader("db", "xs"))
        )

    sources = {("db", "xs"): data}
    reference = LocalInterpreter(
        compile_computations(graph()), sources
    ).run().get(("db", "out"), [])
    outputs, _p, _m = run_in_batches_of(per_batch, graph(), sources)
    assert outputs.get(("db", "out"), []) == reference
    assert reference == [
        (r.key, r.value) for r in data if r.value > threshold
    ]


class KeyJoin(JoinComp):
    def get_selection(self, left, right):
        return lambda_from_member(left, "key") == \
            lambda_from_native([right], lambda r: r.getKey())

    def get_projection(self, left, right):
        return lambda_from_native(
            [left, right], lambda a, b: (a.key, a.value, b.value)
        )


@settings(max_examples=30, deadline=None)
@given(rows, rows, batch_rows, st.booleans())
def test_join_engine_matches_interpreter(left, right, per_batch, flip):
    def graph():
        join = KeyJoin()
        join.set_input(0, ObjectReader("db", "l"))
        join.set_input(1, ObjectReader("db", "r"))
        return Writer("db", "out").set_input(join)

    sources = {("db", "l"): left, ("db", "r"): right}
    program = compile_computations(graph())
    reference = sorted(
        LocalInterpreter(program, sources).run().get(("db", "out"), [])
    )
    overrides = None
    if flip:
        from repro.tcap.ir import JoinStmt

        join_stmt = next(
            s for s in program.statements if isinstance(s, JoinStmt)
        )
        overrides = {join_stmt.output: "left"}
    outputs, _p, _m = run_in_batches_of(
        per_batch, graph(), sources, build_side_overrides=overrides,
    )
    assert sorted(outputs.get(("db", "out"), [])) == reference
    expected = sorted(
        (a.key, a.value, b.value)
        for a in left for b in right if a.key == b.key
    )
    assert reference == expected


class SumByKey(AggregateComp):
    key_type = Int64
    value_type = Int64

    def get_key_projection(self, arg):
        return lambda_from_member(arg, "key")

    def get_value_projection(self, arg):
        return lambda_from_member(arg, "value")


@settings(max_examples=30, deadline=None)
@given(rows, batch_rows)
def test_aggregation_engine_matches_interpreter(data, per_batch):
    def graph():
        return Writer("db", "out").set_input(
            SumByKey().set_input(ObjectReader("db", "xs"))
        )

    sources = {("db", "xs"): data}
    reference = dict(
        LocalInterpreter(compile_computations(graph()), sources)
        .run().get(("db", "out"), [])
    )
    outputs, _p, _m = run_in_batches_of(per_batch, graph(), sources)
    assert dict(outputs.get(("db", "out"), [])) == reference
    expected = {}
    for row in data:
        expected[row.key] = expected.get(row.key, 0) + row.value
    assert reference == expected
