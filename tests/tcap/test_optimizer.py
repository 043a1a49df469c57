"""Tests for the TCAP optimizer, mirroring the Section 7 examples.

Every optimization must preserve semantics: each test compares the
optimized program's output (via the reference interpreter) against the
naive program's output.
"""

import copy

from repro.core import (
    JoinComp,
    ObjectReader,
    SelectionComp,
    Writer,
    lambda_from_member,
    lambda_from_method,
    lambda_from_native,
)
from repro.engine.interpreter import LocalInterpreter
from repro.tcap import compile_computations
from repro.tcap.ir import ApplyStmt, FilterStmt, JoinStmt
from repro.tcap.optimizer import optimize
from repro.tcap.verify import verify_program


class Emp:
    calls = 0

    def __init__(self, name, salary, supervisor):
        self.name = name
        self.salary = salary
        self.supervisor = supervisor

    def getSalary(self):
        Emp.calls += 1
        return self.salary

    def getSupervisor(self):
        return self.supervisor


class Sup:
    def __init__(self, name, region):
        self.name = name
        self.region = region


class SalaryBand(SelectionComp):
    """The paper's redundant-method-call example (Section 7)."""

    def get_selection(self, arg):
        return (lambda_from_method(arg, "getSalary") > 50_000) & (
            lambda_from_method(arg, "getSalary") < 100_000
        )

    def get_projection(self, arg):
        return lambda_from_member(arg, "name")


class SupervisorJoin(JoinComp):
    """The paper's pushdown example: salary predicate + key equality."""

    def get_selection(self, sup, emp):
        key_match = lambda_from_member(sup, "name") == \
            lambda_from_method(emp, "getSupervisor")
        well_paid = lambda_from_method(emp, "getSalary") > 50_000
        return key_match & well_paid

    def get_projection(self, sup, emp):
        return lambda_from_native(
            [sup, emp], lambda s, e: (s.region, e.name)
        )


def _outputs(program, sources):
    return LocalInterpreter(program, copy.deepcopy(sources)).run()


EMPS = [
    Emp("low", 30_000, "ann"),
    Emp("mid", 60_000, "ann"),
    Emp("mid2", 80_000, "bob"),
    Emp("high", 200_000, "bob"),
]
SUPS = [Sup("ann", "west"), Sup("bob", "east")]


def _selection_graph():
    reader = ObjectReader("db", "emps")
    writer = Writer("db", "out")
    writer.set_input(SalaryBand().set_input(reader))
    return writer


def test_redundant_method_call_is_eliminated():
    program = compile_computations(_selection_graph())
    naive_calls = program.to_text().count("getSalary")
    assert naive_calls == 2
    optimize(program)
    assert program.to_text().count("getSalary") == 1


def test_optimized_selection_preserves_semantics_and_saves_calls():
    sources = {("db", "emps"): EMPS}
    naive = compile_computations(_selection_graph())
    expected = _outputs(naive, sources)

    optimized = compile_computations(_selection_graph())
    optimize(optimized)
    Emp.calls = 0
    actual = _outputs(optimized, sources)
    optimized_calls = Emp.calls
    assert actual == expected

    Emp.calls = 0
    _outputs(naive, sources)
    naive_calls = Emp.calls
    # One getSalary per row instead of two.
    assert optimized_calls == len(EMPS)
    assert naive_calls == 2 * len(EMPS)


def _join_graph():
    reader_s = ObjectReader("db", "sups")
    reader_e = ObjectReader("db", "emps")
    join = SupervisorJoin().set_input(0, reader_s).set_input(1, reader_e)
    return Writer("db", "out").set_input(join)


def test_filter_pushed_below_join():
    program = compile_computations(_join_graph())
    optimize(program)
    statements = program.statements
    join_index = next(
        i for i, s in enumerate(statements) if isinstance(s, JoinStmt)
    )
    # Some filter now sits above (before) the join, carrying the pushed
    # salary predicate.
    pushed = [
        s for s in statements[:join_index] if isinstance(s, FilterStmt)
    ]
    assert pushed, "salary filter was not pushed below the join"
    salary_applies_before_join = [
        s
        for s in statements[:join_index]
        if isinstance(s, ApplyStmt) and s.info.get("methodName") == "getSalary"
    ]
    assert salary_applies_before_join


def test_pushdown_preserves_join_semantics():
    sources = {("db", "emps"): EMPS, ("db", "sups"): SUPS}
    naive = compile_computations(_join_graph())
    expected = sorted(_outputs(naive, sources)[("db", "out")])

    optimized = compile_computations(_join_graph())
    optimize(optimized)
    actual = sorted(_outputs(optimized, sources)[("db", "out")])
    assert actual == expected == [("east", "high"), ("east", "mid2"),
                                  ("west", "mid")]


def test_optimizer_reaches_fixpoint_and_validates():
    program = compile_computations(_join_graph())
    optimize(program)
    assert program.validate()
    before = program.to_text()
    optimize(program)
    assert program.to_text() == before  # idempotent at the fixpoint


class NativeKeyJoin(JoinComp):
    """A member key on one side, an opaque one on the other."""

    def get_selection(self, sup, emp):
        return lambda_from_member(sup, "name") == \
            lambda_from_native([emp], lambda e: e.supervisor)

    def get_projection(self, sup, emp):
        return lambda_from_native(
            [sup, emp], lambda s, e: (s.region, e.name)
        )


def test_rename_onto_a_carried_column_names_it_once():
    # A directed seed of the ROADMAP's whole-plan generator.  The member
    # access repeated after the join collapses onto the one before it,
    # whose column the join already carries: renaming used to leave it
    # twice in the next copy list, and the verifier rejected a plan that
    # executed correctly.
    def graph():
        join = NativeKeyJoin().set_input(0, ObjectReader("db", "sups"))
        join.set_input(1, ObjectReader("db", "emps"))
        return Writer("db", "out").set_input(join)

    sources = {("db", "emps"): EMPS, ("db", "sups"): SUPS}
    optimized = compile_computations(graph())
    optimize(optimized)
    for statement in optimized.statements:
        columns = statement.output_columns()
        assert len(set(columns)) == len(columns), statement.to_text()
    verify_program(optimized)
    assert sorted(_outputs(optimized, sources)[("db", "out")]) == sorted(
        _outputs(compile_computations(graph()), sources)[("db", "out")]
    ) == [("east", "high"), ("east", "mid2"), ("west", "low"),
          ("west", "mid")]
