"""Static type verification of compiled TCAP plans.

A TCAP program that names a column its scan's schema does not have, or
compares a whole row batch against a number, compiles fine and then
dies mid-job inside a worker — after pages were pinned, partial sink
output written, and (on the process transport) real OS processes did
real work.  :func:`verify_program` runs at submit time instead: it
propagates column *types* through every statement against the catalog
and raises :class:`repro.errors.PlanTypeError` before the scheduler
ships anything.

Column types form a tiny lattice, written here as tagged tuples:

``("rows", names, schema_or_cls)``
    elements are structured rows — a columnar scan's facades (the
    frozenset of schema column names) or objects of a registered
    ``PCObject`` class (checked through its ``pc_accessors``);
``("num", dtype)``   numeric scalars (``dtype`` may be None);
``("bool", None)``   booleans (comparison/connective outputs);
``("pair", None)``   aggregation key/value pairs (``pairUp``);
``("obj", cls)``     objects of a known class without accessors;
``("any", None)``    statically unknown — checks pass it through.

Three families of checks:

* **structural** — every consumed vector list is produced before use,
  consumed columns exist, no vector list is produced twice, a join's
  output columns do not collide;
* **type propagation** — ``attAccess`` names a real column/accessor,
  ``methodCall`` a real method, comparisons/arithmetic/connectives and
  filter masks are not applied to whole row batches, a ``sum``
  aggregate's value column is summable;
* **kernel-mark consistency** — ``HASH`` / ``JOIN`` / ``FLATTEN`` /
  ``OUTPUT`` are never marked; and, given the layout oracle, the marks
  (``columnar``, ``gather``) of a marked plan are re-derived rather than
  shadowed: :func:`repro.tcap.optimizer.columnar.mark_columnar` runs on
  an unmarked copy of the plan, and every statement must carry exactly
  the mark it derives — so a plan edited after marking can neither
  smuggle a row-path term into a kernel stage nor drop a mark its
  neighbours rely on.

The checks are deliberately one-sided: the verifier only rejects what
it can *prove* inconsistent, and types it cannot resolve (unknown
classes, native lambdas) degrade to ``any`` rather than to errors —
an un-verifiable plan must run exactly as it did before this module
existed.
"""

from __future__ import annotations

import copy

from repro.errors import PlanTypeError
from repro.memory.gather import row_class
from repro.memory.types import NUMPY_DTYPES
from repro.tcap.ir import (
    AggregateStmt,
    ApplyStmt,
    FilterStmt,
    FlattenStmt,
    HashStmt,
    JoinStmt,
    OutputStmt,
    ScanStmt,
    _columns_consumed,
)
from repro.tcap.optimizer.columnar import mark_columnar

ROWS = "rows"
NUM = "num"
BOOL = "bool"
PAIR = "pair"
OBJ = "obj"
ANY = "any"

_ANY = (ANY, None)
_BOOL = (BOOL, None)
_PAIR = (PAIR, None)

#: APPLY kinds taking exactly two operands, none of which may be a
#: whole row batch.
_BINARY_KINDS = {
    "comparison", "equalityCheck", "arithmetic", "bool_and", "bool_or",
}


def _kind(ctype):
    return ctype[0]


def _is_rows(ctype):
    return ctype[0] == ROWS


def _field_type(cls, att_name, registry):
    """The ctype of ``cls.att_name``, via its ``pc_accessors``."""
    for accessor in getattr(cls, "pc_accessors", ()):
        if accessor.name != att_name:
            continue
        pc_type = accessor.pc_type
        dtype = NUMPY_DTYPES.get(getattr(pc_type, "name", None))
        if dtype is not None:
            return (NUM, dtype)
        field_cls = row_class(registry, getattr(pc_type, "name", None))
        if field_cls is not None:
            return _object_ctype(field_cls)
        return _ANY
    return _ANY


def _object_ctype(cls):
    if getattr(cls, "pc_accessors", None):
        names = frozenset(a.name for a in cls.pc_accessors)
        return (ROWS, names, cls)
    return (OBJ, cls)


def _has_attribute(cls, name):
    """Can ``getattr(instance_of_cls, name)`` statically succeed?

    Instance attributes of plain classes are invisible, so only
    ``pc_accessors``-bearing classes are checked strictly; a class
    with ``__getattr__`` can answer anything.
    """
    if hasattr(cls, name) or hasattr(cls, "__getattr__"):
        return True
    accessors = getattr(cls, "pc_accessors", None)
    if accessors is not None:
        return name in {a.name for a in accessors}
    return False


class PlanTypes:
    """The verifier's result: per-vector-list column types."""

    def __init__(self):
        self.env = {}  # vlist name -> {column name -> ctype}

    def columns_typed(self):
        return sum(len(columns) for columns in self.env.values())

    def __getitem__(self, vlist):
        return self.env[vlist]


def verify_program(program, layout_of=None, registry=None):
    """Type-check ``program``; raises :class:`PlanTypeError` on failure.

    ``layout_of(db, set)`` types scans: it returns the Schema of
    columnar sets and the class of row sets declared with one (the same
    oracle :func:`mark_columnar` used); ``registry`` resolves the classes
    of object-typed fields.  Both are optional — a bare text plan still
    gets the structural checks and the never-marked check of the opaque
    statements; without ``layout_of`` scans are untyped and the marks
    cannot be re-derived.  Returns a :class:`PlanTypes`.
    """
    types = PlanTypes()
    env = types.env
    for statement in program.statements:
        _check_structure(statement, env)
        if isinstance(statement, ScanStmt):
            _scan(statement, env, layout_of)
        elif isinstance(statement, ApplyStmt):
            _apply(statement, env, registry, program)
        elif isinstance(statement, FilterStmt):
            _filter(statement, env)
        elif isinstance(statement, HashStmt):
            _hash(statement, env)
            _no_mark(statement)
        elif isinstance(statement, JoinStmt):
            _join(statement, env)
            _no_mark(statement)
        elif isinstance(statement, FlattenStmt):
            _flatten(statement, env)
            _no_mark(statement)
        elif isinstance(statement, AggregateStmt):
            _aggregate(statement, env, program)
        elif isinstance(statement, OutputStmt):
            _no_mark(statement)
        else:
            raise PlanTypeError(
                "unknown statement type %r" % type(statement).__name__,
                statement,
            )
    if layout_of is not None:
        _rederive_marks(program, layout_of)
    return types


# -- structural checks --------------------------------------------------------


def _check_structure(statement, env):
    for input_name in statement.input_names():
        if input_name == statement.output and not isinstance(
            statement, OutputStmt
        ):
            raise PlanTypeError(
                "%s consumes its own output %r" %
                (statement.op, input_name), statement,
            )
        if input_name not in env:
            raise PlanTypeError(
                "%s consumes %r before any statement produces it"
                % (statement.op, input_name), statement,
            )
    for input_name, columns in _columns_consumed(statement).items():
        missing = set(columns) - set(env[input_name])
        if missing:
            raise PlanTypeError(
                "%s consumes missing column%s %s of %r (it has %s)" % (
                    statement.op, "s" if len(missing) > 1 else "",
                    ", ".join(sorted(missing)), input_name,
                    ", ".join(sorted(env[input_name])),
                ), statement,
            )
    if not isinstance(statement, OutputStmt) and statement.output in env:
        raise PlanTypeError(
            "vector list %r is produced twice" % statement.output,
            statement,
        )
    seen = set()
    for column in statement.output_columns():
        if column in seen:
            raise PlanTypeError(
                "output column %r appears twice" % column, statement,
            )
        seen.add(column)


# -- per-statement type propagation -------------------------------------------


def _scan(statement, env, layout_of):
    """A scan's rows, typed by the oracle :func:`mark_columnar` asks:
    a Schema's columns, a class's accessors, else untyped (no oracle,
    or a not-yet-created set)."""
    layout = None
    if layout_of is not None:
        layout = layout_of(statement.database, statement.set_name)
    if isinstance(layout, type):
        ctype = _object_ctype(layout)
    elif layout is not None:
        ctype = (ROWS, frozenset(layout.names()), layout)
    else:
        ctype = _ANY
    env[statement.output] = {statement.column: ctype}


def _copy(env, statement, columns):
    source = env[statement.input_name]
    return {name: source[name] for name in columns}


def _row_field(ctype, att_name, registry, statement):
    """Type of ``row.att_name`` for a rows-typed operand."""
    names = ctype[1]
    if att_name not in names:
        raise PlanTypeError(
            "attAccess names %r, which is not a column of the input "
            "rows (schema has: %s)" % (att_name, ", ".join(sorted(names))),
            statement,
        )
    carrier = ctype[2]
    dtype_of = getattr(carrier, "dtype_of", None)
    if dtype_of is not None:  # a Schema
        try:
            return (NUM, dtype_of(att_name))
        except Exception:
            return _ANY
    if isinstance(carrier, type):  # a PCObject class
        return _field_type(carrier, att_name, registry)
    return _ANY


def _apply(statement, env, registry, program):
    out = _copy(env, statement, statement.copy_columns)
    inputs = [
        env[statement.input_name][name]
        for name in statement.apply_columns
    ]
    kind = statement.info.get("type")
    new_type = _ANY
    if kind == "attAccess":
        _arity(statement, inputs, 1)
        operand = inputs[0]
        att_name = statement.info.get("attName", "")
        if _is_rows(operand):
            new_type = _row_field(operand, att_name, registry, statement)
        elif _kind(operand) == OBJ:
            if not _has_attribute(operand[1], att_name):
                raise PlanTypeError(
                    "attAccess names %r, which %s does not define"
                    % (att_name, operand[1].__name__), statement,
                )
    elif kind == "methodCall":
        _arity(statement, inputs, 1)
        operand = inputs[0]
        method = statement.info.get("methodName", "")
        cls = operand[2] if _is_rows(operand) and isinstance(
            operand[2], type
        ) else operand[1] if _kind(operand) == OBJ else None
        if cls is not None and not _has_attribute(cls, method):
            raise PlanTypeError(
                "methodCall names %r, which %s does not define"
                % (method, cls.__name__), statement,
            )
    elif kind == "self":
        _arity(statement, inputs, 1)
        new_type = inputs[0]
    elif kind == "constant":
        value = statement.info.get("value")
        if isinstance(value, bool):
            new_type = _BOOL
        elif isinstance(value, (int, float)):
            new_type = (NUM, None)
    elif kind in _BINARY_KINDS:
        _arity(statement, inputs, 2)
        for operand in inputs:
            _not_batch(statement, operand, kind)
        if kind in ("comparison", "equalityCheck", "bool_and",
                    "bool_or"):
            new_type = _BOOL
        elif all(_kind(op) == NUM for op in inputs):
            new_type = (NUM, None)
    elif kind == "bool_not":
        _arity(statement, inputs, 1)
        _not_batch(statement, inputs[0], kind)
        new_type = _BOOL
    elif kind == "pairUp":
        _arity(statement, inputs, 2)
        new_type = _PAIR
    # nativeLambda and unknown kinds: output stays ``any``.
    out[statement.new_column] = new_type
    env[statement.output] = out


def _arity(statement, inputs, expected):
    if len(inputs) != expected:
        raise PlanTypeError(
            "%s term reads %d column%s; it takes exactly %d" % (
                statement.info.get("type"), len(inputs),
                "" if len(inputs) == 1 else "s", expected,
            ), statement,
        )


def _not_batch(statement, operand, kind):
    if _is_rows(operand) or _kind(operand) == PAIR:
        raise PlanTypeError(
            "%s term applied to a whole %s column; it needs scalar "
            "operands (did the plan skip the attAccess?)"
            % (kind, "row" if _is_rows(operand) else "pair"),
            statement,
        )


def _filter(statement, env):
    mask = env[statement.input_name][statement.bool_column]
    if _is_rows(mask) or _kind(mask) == PAIR:
        raise PlanTypeError(
            "FILTER mask column %r holds %s values, not booleans"
            % (statement.bool_column,
               "row" if _is_rows(mask) else "pair"), statement,
        )
    env[statement.output] = _copy(env, statement, statement.copy_columns)


def _hash(statement, env):
    out = _copy(env, statement, statement.copy_columns)
    out[statement.new_column] = (NUM, None)
    env[statement.output] = out


def _join(statement, env):
    out = {}
    for input_name, columns in (
        (statement.left_input, statement.left_columns),
        (statement.right_input, statement.right_columns),
    ):
        for name in columns:
            if name in out:
                raise PlanTypeError(
                    "JOIN output column %r comes from both sides"
                    % name, statement,
                )
            out[name] = env[input_name][name]
    env[statement.output] = out


def _flatten(statement, env):
    seq = env[statement.input_name][statement.seq_column]
    if _kind(seq) in (NUM, BOOL):
        raise PlanTypeError(
            "FLATTEN over scalar column %r (%s); it needs sequences"
            % (statement.seq_column, _kind(seq)), statement,
        )
    out = _copy(env, statement, statement.copy_columns)
    out[statement.new_column] = _ANY
    env[statement.output] = out


def _aggregate(statement, env, program):
    source = env[statement.input_name]
    comp = program.computations.get(statement.computation)
    if getattr(comp, "reduce", None) == "sum":
        value = source[statement.value_column]
        if _is_rows(value) or _kind(value) in (PAIR, BOOL):
            raise PlanTypeError(
                "AGGREGATE sums value column %r, which holds %s "
                "values" % (statement.value_column, _kind(value)),
                statement,
            )
    key = source[statement.key_column]
    if _kind(key) == PAIR:
        raise PlanTypeError(
            "AGGREGATE key column %r holds pair values"
            % statement.key_column, statement,
        )
    env[statement.output] = {"key": _ANY, "val": (NUM, None)
                             if getattr(comp, "reduce", None) == "sum"
                             else _ANY}


# -- kernel marks ---------------------------------------------------------------

#: the ``info`` keys :func:`mark_columnar` writes
_MARK_KEYS = ("columnar", "gather")


def _mark_of(statement):
    return statement.info.get("columnar") == "1", statement.info.get("gather")


def _mark_text(statement):
    columnar, gather = _mark_of(statement)
    text = "columnar" if columnar else "not columnar"
    return text + (" gathering %s" % gather if gather else "")


def _no_mark(statement):
    if _mark_of(statement)[0]:
        raise PlanTypeError(
            "statement is marked columnar, but %s is always opaque to the "
            "array engine" % statement.op, statement,
        )


def _rederive_marks(program, layout_of):
    """Reject the first statement whose mark is not the one
    :func:`mark_columnar` derives on an unmarked copy of ``program``.

    The copy's statements get fresh ``info`` dicts; ``program`` itself is
    never touched, so its TCAP text stays byte-identical.
    """
    if not any(any(_mark_of(s)) for s in program.statements):
        return
    derived = copy.copy(program)
    derived.statements = []
    for statement in program.statements:
        clone = copy.copy(statement)
        clone.info = {key: value for key, value in statement.info.items()
                      if key not in _MARK_KEYS}
        derived.statements.append(clone)
    mark_columnar(derived, layout_of)
    for statement, clone in zip(program.statements, derived.statements):
        if _mark_of(statement) != _mark_of(clone):
            raise PlanTypeError(
                "the plan marks this statement %s; mark_columnar marks it %s"
                % (_mark_text(statement), _mark_text(clone)), statement,
            )
