"""The static plan verifier: structural checks, type propagation over
columnar schemas, mark-consistency, and no false positives on compiled
programs."""

import pytest

from repro.core import (
    AggregateComp,
    JoinComp,
    ObjectReader,
    SelectionComp,
    Writer,
    lambda_from_member,
    lambda_from_method,
    lambda_from_native,
)
from repro.errors import PlanTypeError
from repro.memory import Float64, Int32, PCObject, String
from repro.memory.types import Int64
from repro.schema import Schema, f64, i64
from repro.tcap import compile_computations, parse_tcap, verify_program
from repro.tcap.ir import (
    ApplyStmt,
    FilterStmt,
    HashStmt,
    OutputStmt,
    ScanStmt,
    TcapProgram,
)
from repro.tcap.optimizer.columnar import mark_columnar

SCHEMA = Schema([("x", f64), ("y", f64), ("label", i64)])


def layout_of(database, set_name):
    return SCHEMA if (database, set_name) == ("db", "pts") else None


def scan(output="A", column="in", set_name="pts"):
    return ScanStmt(output, column, "db", set_name, "C")


def att_access(att, output="B", input_name="A", apply_col="in",
               new_column="v", info=None):
    merged = {"type": "attAccess", "attName": att}
    merged.update(info or {})
    return ApplyStmt(output, input_name, [apply_col], [apply_col],
                     new_column, "C", "s1", merged)


# -- structural checks --------------------------------------------------------


def test_dangling_input_is_rejected():
    program = TcapProgram([att_access("x")])
    with pytest.raises(PlanTypeError, match="before any statement"):
        verify_program(program)


def test_missing_column_is_rejected():
    program = TcapProgram([
        scan(),
        ApplyStmt("B", "A", ["nope"], ["in"], "v", "C", "s1",
                  {"type": "self"}),
    ])
    with pytest.raises(PlanTypeError, match="missing column"):
        verify_program(program)


def test_duplicate_producer_is_rejected():
    program = TcapProgram([scan(), scan()])
    with pytest.raises(PlanTypeError, match="produced twice"):
        verify_program(program)


def test_self_consumption_is_rejected():
    program = TcapProgram([
        scan(),
        ApplyStmt("A", "A", ["in"], ["in"], "v", "C", "s1",
                  {"type": "self"}),
    ])
    with pytest.raises(PlanTypeError, match="its own output"):
        verify_program(program)


def test_duplicate_output_column_is_rejected():
    program = TcapProgram([
        scan(),
        ApplyStmt("B", "A", ["in"], ["in"], "in", "C", "s1",
                  {"type": "self"}),
    ])
    with pytest.raises(PlanTypeError, match="appears twice"):
        verify_program(program)


# -- type propagation over a columnar schema ----------------------------------


def test_unknown_schema_column_fails_at_verify():
    program = TcapProgram([scan(), att_access("radius")])
    with pytest.raises(PlanTypeError, match="radius"):
        verify_program(program, layout_of=layout_of)


def test_known_schema_column_types_flow():
    program = TcapProgram([scan(), att_access("x")])
    types = verify_program(program, layout_of=layout_of)
    assert types["B"]["v"] == ("num", "f8")
    assert types["B"]["in"][0] == "rows"


def test_comparison_arity_is_checked():
    program = TcapProgram([
        scan(),
        att_access("x"),
        ApplyStmt("D", "B", ["v"], [], "cmp", "C", "s2",
                  {"type": "comparison", "op": ">"}),
    ])
    with pytest.raises(PlanTypeError, match="takes exactly 2"):
        verify_program(program, layout_of=layout_of)


def test_comparison_on_row_batch_is_rejected():
    program = TcapProgram([
        scan(),
        att_access("x"),
        ApplyStmt("D", "B", ["in", "v"], [], "cmp", "C", "s2",
                  {"type": "comparison", "op": ">"}),
    ])
    with pytest.raises(PlanTypeError, match="scalar operands"):
        verify_program(program, layout_of=layout_of)


def test_filter_mask_must_not_be_rows():
    program = TcapProgram([
        scan(),
        FilterStmt("F", "A", "in", ["in"], "C"),
    ])
    with pytest.raises(PlanTypeError, match="FILTER mask"):
        verify_program(program, layout_of=layout_of)


def test_error_carries_the_offending_statement_text():
    program = TcapProgram([scan(), att_access("radius")])
    with pytest.raises(PlanTypeError) as excinfo:
        verify_program(program, layout_of=layout_of)
    assert "APPLY" in str(excinfo.value)  # the .to_text() rendering
    assert excinfo.value.statement is program.statements[1]


# -- mark-consistency ---------------------------------------------------------


def test_marked_but_opaque_statement_is_rejected():
    stmt = HashStmt("H", "A", "in", ["in"], "h", "C",
                    {"columnar": "1"})
    program = TcapProgram([scan(), stmt])
    with pytest.raises(PlanTypeError, match="always opaque"):
        verify_program(program, layout_of=layout_of)


def test_marked_ineligible_apply_is_rejected():
    program = TcapProgram([
        scan(column="in"),
        att_access("x", info={"columnar": "1"}),
    ])
    program.statements[0].info["columnar"] = "1"
    # attAccess over the marked scan is fine...
    verify_program(program, layout_of=layout_of)
    # ...but a methodCall claiming to be columnar is not.
    bad = TcapProgram([
        scan(),
        ApplyStmt("B", "A", ["in"], ["in"], "v", "C", "s1",
                  {"type": "methodCall", "methodName": "getX",
                   "columnar": "1"}),
    ])
    bad.statements[0].info["columnar"] = "1"
    with pytest.raises(PlanTypeError, match="marks it not columnar"):
        verify_program(bad, layout_of=layout_of)


def test_marked_scan_of_row_set_is_rejected():
    stmt = scan(set_name="rows_only")
    stmt.info["columnar"] = "1"
    program = TcapProgram([stmt])
    with pytest.raises(PlanTypeError,
                       match="marks this statement columnar; mark_columnar "
                             "marks it not columnar"):
        verify_program(program, layout_of=layout_of)


def test_mark_columnar_output_always_verifies():
    program = TcapProgram([
        scan(),
        att_access("x"),
        ApplyStmt("D", "B", ["v", "v"], ["in"], "cmp", "C", "s2",
                  {"type": "comparison", "op": ">"}),
        FilterStmt("F", "D", "cmp", ["in"], "C"),
        OutputStmt("F", "in", "db", "out", "C"),
    ])
    marked = mark_columnar(program, layout_of)
    assert marked > 0
    verify_program(program, layout_of=layout_of)


# -- row-layout scans: marked when a kernel reads their rows ------------------


class _Point(PCObject):
    fields = [("pid", Int32), ("tag", String), ("w", Float64)]

    def getW(self):
        return self.w


def row_layout_of(database, set_name):
    if (database, set_name) == ("db", "pts"):
        return _Point
    return layout_of("db", "pts") if set_name == "cols" else None


def _row_program(first):
    return TcapProgram([
        scan(), first,
        OutputStmt(first.output, first.new_column, "db", "out", "C"),
    ])


def test_row_scan_is_marked_when_a_kernel_reads_its_rows():
    program = _row_program(att_access("pid"))
    assert mark_columnar(program, row_layout_of) == 2
    scan_stmt = program.statements[0]
    assert scan_stmt.info == {"columnar": "1", "gather": "_Point"}
    assert scan_stmt.array_rows == "_Point"
    verify_program(program, layout_of=row_layout_of)
    # Unmarked it is the object path's, and batches as it always did.
    assert scan().array_rows is False
    columnar = scan(set_name="cols")
    assert mark_columnar(TcapProgram([columnar]), row_layout_of) == 1
    assert columnar.array_rows is True


@pytest.mark.parametrize("first", [
    att_access("tag"),  # a String: no gather serves it as a column
    att_access("w"),  # eight bytes, four into the payload: served
    ApplyStmt("B", "A", ["in"], ["in"], "v", "C", "s1",
              {"type": "methodCall", "methodName": "getW"}),
    HashStmt("B", "A", "in", ["in"], "v", "C"),
], ids=["string", "f64", "method", "hash"])
def test_row_scan_is_marked_only_for_a_statement_that_reads_it(first):
    program = _row_program(first)
    later = att_access("pid", output="D", new_column="p")
    program.statements.insert(2, later)
    eligible = first.info.get("attName") == "w"
    assert mark_columnar(program, row_layout_of) == (3 if eligible else 0)
    # ... and so does every later consumer of the same scan: no batch of
    # it will carry an array column.
    assert ("columnar" in later.info) == eligible
    assert program.statements[0].array_rows == ("_Point" if eligible
                                                else False)
    verify_program(program, layout_of=row_layout_of)


def test_a_row_scan_is_typed_by_the_class_the_oracle_answers():
    """The verifier types a scan from ``layout_of`` alone — the oracle
    :func:`mark_columnar` asks — so a row set's class checks attribute
    and method names with no catalog in sight."""
    for info, message in (
        ({"type": "attAccess", "attName": "wx"}, "'wx', which is not a "
                                                 "column of the input rows"),
        ({"type": "methodCall", "methodName": "getX"},
         "'getX', which _Point does not define"),
    ):
        program = _row_program(
            ApplyStmt("B", "A", ["in"], ["in"], "v", "C", "s1", info)
        )
        with pytest.raises(PlanTypeError, match=message):
            verify_program(program, layout_of=row_layout_of)
        verify_program(program)  # no oracle: the scan is untyped
    types = verify_program(_row_program(att_access("w")),
                           layout_of=row_layout_of)
    assert types["B"]["v"] == ("num", "f8")


#: the rejection of a row scan marked although no kernel reads its rows
NOT_MARKED = "gathering _Point; mark_columnar marks it not columnar"


def _selection_then(reader):
    """The shape a (multi-)selection compiles to: a constant mask, the
    filter, then ``reader`` over the rows that passed."""
    return TcapProgram([
        scan(),
        ApplyStmt("B", "A", ["in"], ["in"], "mask", "C", "s1",
                  {"type": "constant", "value": True}),
        FilterStmt("F", "B", "mask", ["in"], "C"),
        reader,
        OutputStmt("G", "v", "db", "out", "C"),
    ])


def test_row_scan_mark_waits_for_the_statement_that_reads_the_rows():
    """Eligible statements the rows merely pass (a constant mask, its
    filter) do not mark the scan: a kernel has to read the rows."""
    read = _selection_then(att_access("pid", output="G", input_name="F"))
    assert mark_columnar(read, row_layout_of) == 4
    assert read.statements[0].array_rows == "_Point"
    verify_program(read, layout_of=row_layout_of)
    # No kernel waits at the end (a native lambda that declared none —
    # the k-means chunk walk): nothing is marked, the scan batches as it
    # always did.
    opaque = _selection_then(
        ApplyStmt("G", "F", ["in"], [], "v", "C", "s2",
                  {"type": "nativeLambda"})
    )
    assert mark_columnar(opaque, row_layout_of) == 0
    assert all("columnar" not in s.info for s in opaque.statements)
    verify_program(opaque, layout_of=row_layout_of)
    # ... and marks on the way to no kernel are rejected.
    for statement in opaque.statements[:3]:
        statement.info["columnar"] = "1"
    opaque.statements[0].info["gather"] = "_Point"
    with pytest.raises(PlanTypeError, match=NOT_MARKED):
        verify_program(opaque, layout_of=row_layout_of)
    dropped = TcapProgram(opaque.statements[:2])
    dropped.statements[1].copy_columns = []
    with pytest.raises(PlanTypeError, match=NOT_MARKED):
        verify_program(dropped, layout_of=row_layout_of)


def test_marked_row_scan_must_name_its_class_and_reach_a_kernel_marked():
    program = _row_program(att_access("pid"))
    mark_columnar(program, row_layout_of)
    text = program.to_text()
    scan_stmt, first = program.statements[:2]
    scan_stmt.info["gather"] = "Other"
    with pytest.raises(PlanTypeError,
                       match="gathering Other; mark_columnar marks it "
                             "columnar gathering _Point"):
        verify_program(program, layout_of=row_layout_of)
    scan_stmt.info["gather"] = "_Point"
    # A strict subset of mark_columnar's marks is rejected too.
    del first.info["columnar"]
    with pytest.raises(PlanTypeError) as excinfo:
        verify_program(program, layout_of=row_layout_of)
    assert excinfo.value.statement is first
    assert "plan marks this statement not columnar; mark_columnar marks " \
        "it columnar\n" in str(excinfo.value)
    del scan_stmt.info["columnar"]
    first.info["columnar"] = "1"
    with pytest.raises(PlanTypeError,
                       match="not columnar gathering _Point; mark_columnar "
                             "marks it columnar gathering _Point"):
        verify_program(program, layout_of=row_layout_of)
    # The re-derivation runs on a copy: the plan's marks are its own.
    scan_stmt.info["columnar"] = "1"
    verify_program(program, layout_of=row_layout_of)
    assert program.to_text() == text


# -- compiled programs verify unchanged ---------------------------------------


class _Sel(SelectionComp):
    def get_selection(self, arg):
        return lambda_from_method(arg, "getSalary") > 50_000

    def get_projection(self, arg):
        return lambda_from_member(arg, "name")


class _Join(JoinComp):
    def get_selection(self, a, b):
        return lambda_from_member(a, "k") == lambda_from_member(b, "k")

    def get_projection(self, a, b):
        return lambda_from_native([a, b], lambda x, y: (x, y))


class _Agg(AggregateComp):
    key_type = Int64
    value_type = Int64

    def get_key_projection(self, arg):
        return lambda_from_native([arg], lambda p: p[0])

    def get_value_projection(self, arg):
        return lambda_from_native([arg], lambda p: 1)


def test_compiled_selection_program_verifies():
    sel = _Sel().set_input(ObjectReader("db", "emps"))
    program = compile_computations(Writer("db", "out").set_input(sel))
    types = verify_program(program)
    assert types.columns_typed() > 0


def test_compiled_join_aggregate_program_verifies():
    join = _Join()
    join.set_input(0, ObjectReader("db", "a"))
    join.set_input(1, ObjectReader("db", "b"))
    agg = _Agg().set_input(join)
    program = compile_computations(Writer("db", "out").set_input(agg))
    verify_program(program)


def test_parsed_text_program_verifies_structurally():
    join = _Join()
    join.set_input(0, ObjectReader("db", "a"))
    join.set_input(1, ObjectReader("db", "b"))
    program = compile_computations(Writer("db", "out").set_input(join))
    parsed = parse_tcap(program.to_text())
    verify_program(parsed)  # no catalog, no oracle: structure only
