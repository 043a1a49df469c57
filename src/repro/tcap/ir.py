"""The TCAP intermediate language (Sections 5.2 and 7).

TCAP (pronounced "tee-cap") is the functional, domain-specific language PC
compiles every computation graph into.  A TCAP program is a DAG of small,
atomic operations over *vector lists* — named bundles of equal-length
columns.  Each statement consumes one (or two, for JOIN) vector lists and
produces a new one, shallow-copying the columns it keeps and appending any
columns it computes.

The statement forms follow the paper's concrete syntax, e.g.::

    WDNm_1(dep,emp,sup,nm1) <= APPLY(In(dep), In(dep,emp,sup),
        'Join_2212', 'att_acc_1',
        [('type', 'attAccess'), ('attName', 'deptName')]);

plus SCAN / HASH / JOIN / FLATTEN / AGGREGATE / OUTPUT forms for the ends
of pipelines.  The key-value ``info`` map on each statement is
informational only at execution time but drives the rule-based optimizer
(redundant-call elimination matches on ``methodName``, pushdown matches on
conjunct structure, ...).
"""

from __future__ import annotations

from repro.errors import TcapError


def _cols(names):
    return "(" + ",".join(names) + ")"


def _info_text(info):
    return "[" + ", ".join(
        "('%s', '%s')" % (key, value) for key, value in info.items()
    ) + "]"


class Statement:
    """Base class for TCAP statements."""

    #: statement keyword in the concrete syntax
    op = "?"

    def __init__(self, output, computation, info=None):
        self.output = output
        self.computation = computation
        self.info = dict(info or {})

    def output_columns(self):
        """Names of the columns in the produced vector list."""
        raise NotImplementedError

    def input_names(self):
        """Names of the vector lists this statement consumes."""
        raise NotImplementedError

    def to_text(self):
        raise NotImplementedError

    def __repr__(self):
        return self.to_text()


class ScanStmt(Statement):
    """``Out(col) <= SCAN('db', 'set', 'Comp')`` — read a stored set."""

    op = "SCAN"

    def __init__(self, output, column, database, set_name, computation,
                 info=None):
        super().__init__(output, computation, info)
        self.column = column
        self.database = database
        self.set_name = set_name

    @property
    def array_rows(self):
        """How ``mark_columnar`` marked this scan, for whoever batches
        its pages: False (unmarked — objects go through row by row), True
        (a columnar set's pages go through whole), or the name of the
        class whose objects on a row page are gathered as arrays."""
        return self.info.get("columnar") == "1" and \
            self.info.get("gather", True)

    def output_columns(self):
        return [self.column]

    def input_names(self):
        return []

    def to_text(self):
        return "%s%s <= SCAN('%s', '%s', '%s');" % (
            self.output, _cols([self.column]), self.database, self.set_name,
            self.computation,
        )


class ApplyStmt(Statement):
    """The paper's five-tuple APPLY: run one compiled stage over columns.

    ``new_column`` is appended to the shallow-copied ``copy_columns``.
    """

    op = "APPLY"

    def __init__(self, output, input_name, apply_columns, copy_columns,
                 new_column, computation, stage, info=None):
        super().__init__(output, computation, info)
        self.input_name = input_name
        self.apply_columns = list(apply_columns)
        self.copy_columns = list(copy_columns)
        self.new_column = new_column
        self.stage = stage

    def output_columns(self):
        return self.copy_columns + [self.new_column]

    def input_names(self):
        return [self.input_name]

    def to_text(self):
        return "%s%s <= APPLY(%s%s, %s%s, '%s', '%s', %s);" % (
            self.output, _cols(self.output_columns()),
            self.input_name, _cols(self.apply_columns),
            self.input_name, _cols(self.copy_columns),
            self.computation, self.stage, _info_text(self.info),
        )


class FilterStmt(Statement):
    """Keep the rows whose boolean column is true."""

    op = "FILTER"

    def __init__(self, output, input_name, bool_column, copy_columns,
                 computation, info=None):
        super().__init__(output, computation, info)
        self.input_name = input_name
        self.bool_column = bool_column
        self.copy_columns = list(copy_columns)

    def output_columns(self):
        return list(self.copy_columns)

    def input_names(self):
        return [self.input_name]

    def to_text(self):
        return "%s%s <= FILTER(%s(%s), %s%s, '%s', %s);" % (
            self.output, _cols(self.output_columns()),
            self.input_name, self.bool_column,
            self.input_name, _cols(self.copy_columns),
            self.computation, _info_text(self.info),
        )


class HashStmt(Statement):
    """Compute the hash of a key column (prelude to JOIN partitioning)."""

    op = "HASH"

    def __init__(self, output, input_name, key_column, copy_columns,
                 new_column, computation, info=None):
        super().__init__(output, computation, info)
        self.input_name = input_name
        self.key_column = key_column
        self.copy_columns = list(copy_columns)
        self.new_column = new_column

    def output_columns(self):
        return self.copy_columns + [self.new_column]

    def input_names(self):
        return [self.input_name]

    def to_text(self):
        return "%s%s <= HASH(%s(%s), %s%s, '%s', %s);" % (
            self.output, _cols(self.output_columns()),
            self.input_name, self.key_column,
            self.input_name, _cols(self.copy_columns),
            self.computation, _info_text(self.info),
        )


class JoinStmt(Statement):
    """Hash join of two vector lists on their hash columns.

    The physical choice between a broadcast join and a full hash-partition
    join is *not* encoded here — the physical planner decides from set
    statistics (Section 8.3.2's two-gigabyte rule), keeping TCAP fully
    declarative.
    """

    op = "JOIN"

    def __init__(self, output, left_input, left_hash, left_columns,
                 right_input, right_hash, right_columns, computation,
                 info=None):
        super().__init__(output, computation, info)
        self.left_input = left_input
        self.left_hash = left_hash
        self.left_columns = list(left_columns)
        self.right_input = right_input
        self.right_hash = right_hash
        self.right_columns = list(right_columns)

    def output_columns(self):
        return self.left_columns + self.right_columns

    def input_names(self):
        return [self.left_input, self.right_input]

    def to_text(self):
        return "%s%s <= JOIN(%s(%s), %s%s, %s(%s), %s%s, '%s', %s);" % (
            self.output, _cols(self.output_columns()),
            self.left_input, self.left_hash,
            self.left_input, _cols(self.left_columns),
            self.right_input, self.right_hash,
            self.right_input, _cols(self.right_columns),
            self.computation, _info_text(self.info),
        )


class FlattenStmt(Statement):
    """Expand a column of sequences into one row per element.

    This is how MultiSelectionComp's set-valued projection reaches TCAP;
    copied columns are replicated for every produced element.
    """

    op = "FLATTEN"

    def __init__(self, output, input_name, seq_column, copy_columns,
                 new_column, computation, info=None):
        super().__init__(output, computation, info)
        self.input_name = input_name
        self.seq_column = seq_column
        self.copy_columns = list(copy_columns)
        self.new_column = new_column

    def output_columns(self):
        return self.copy_columns + [self.new_column]

    def input_names(self):
        return [self.input_name]

    def to_text(self):
        return "%s%s <= FLATTEN(%s(%s), %s%s, '%s', %s);" % (
            self.output, _cols(self.output_columns()),
            self.input_name, self.seq_column,
            self.input_name, _cols(self.copy_columns),
            self.computation, _info_text(self.info),
        )


class AggregateStmt(Statement):
    """Grouped aggregation of a value column by a key column."""

    op = "AGGREGATE"

    def __init__(self, output, input_name, key_column, value_column,
                 computation, info=None):
        super().__init__(output, computation, info)
        self.input_name = input_name
        self.key_column = key_column
        self.value_column = value_column

    def output_columns(self):
        return ["key", "val"]

    def input_names(self):
        return [self.input_name]

    def to_text(self):
        return "%s(key,val) <= AGGREGATE(%s(%s), %s(%s), '%s', %s);" % (
            self.output,
            self.input_name, self.key_column,
            self.input_name, self.value_column,
            self.computation, _info_text(self.info),
        )


class OutputStmt(Statement):
    """Write a column of objects (or aggregate pairs) to a stored set —
    or, with no set (``set_name`` None), hand an aggregation's pairs to
    the program that ran the job (its *result*)."""

    op = "OUTPUT"

    def __init__(self, input_name, column, database, set_name, computation,
                 info=None):
        super().__init__("OUT_" + computation, computation, info)
        self.input_name = input_name
        self.column = column
        self.database = database
        self.set_name = set_name

    @property
    def target(self):
        """Where the rows go: ``database.set``, or ``result of <comp>``."""
        if self.set_name is None:
            return "result of %s" % self.computation
        return "%s.%s" % (self.database, self.set_name)

    def output_columns(self):
        return []

    def input_names(self):
        return [self.input_name]

    def to_text(self):
        target = () if self.set_name is None else (self.database, self.set_name)
        return "OUTPUT(%s(%s), %s);" % (
            self.input_name, self.column,
            ", ".join("'%s'" % name for name in (*target, self.computation)),
        )


class TcapProgram:
    """A TCAP program: ordered statements plus the compiled stage library.

    ``stages`` maps ``(computation_name, stage_name)`` to the vectorized
    callable implementing that pipeline stage (the compiled code the
    paper's template metaprogramming produces).  ``computations`` maps
    computation names back to the originating Computation objects so the
    engine can reach aggregation ``combine`` hooks and reader/writer
    endpoints.
    """

    def __init__(self, statements=None, stages=None, computations=None,
                 kernels=None):
        self.statements = list(statements or [])
        self.stages = dict(stages or {})
        self.computations = dict(computations or {})
        #: ``(computation_name, stage_name)`` -> whole-batch kernel for
        #: stages whose lambda term carries a columnar implementation
        #: (see ``lambda_from_native(kernel=...)``).
        self.kernels = dict(kernels or {})

    def append(self, statement):
        self.statements.append(statement)
        return statement

    def stage_fn(self, computation, stage):
        """The compiled stage callable registered for an APPLY."""
        try:
            return self.stages[(computation, stage)]
        except KeyError:
            raise TcapError(
                "no compiled stage %s.%s (text-only TCAP programs cannot "
                "be executed)" % (computation, stage)
            ) from None

    def to_text(self):
        """Render the program in the paper's concrete syntax."""
        return "\n".join(statement.to_text() for statement in self.statements)

    def validate(self):
        """Check that every consumed vector list and column exists."""
        produced = {}
        for statement in self.statements:
            for input_name in statement.input_names():
                if input_name not in produced:
                    raise TcapError(
                        "%s consumes %r before it is produced"
                        % (statement.op, input_name)
                    )
            needed = _columns_consumed(statement)
            for input_name, columns in needed.items():
                missing = set(columns) - set(produced[input_name])
                if missing:
                    raise TcapError(
                        "%s consumes missing columns %s of %r"
                        % (statement.op, sorted(missing), input_name)
                    )
            if not isinstance(statement, OutputStmt):
                produced[statement.output] = statement.output_columns()
        return True

    def __len__(self):
        return len(self.statements)

    def __repr__(self):
        return "<TcapProgram %d statements>" % len(self.statements)


def _columns_consumed(statement):
    """Map input vector-list name -> columns the statement reads."""
    if isinstance(statement, ScanStmt):
        return {}
    if isinstance(statement, ApplyStmt):
        return {
            statement.input_name:
                statement.apply_columns + statement.copy_columns
        }
    if isinstance(statement, FilterStmt):
        return {
            statement.input_name:
                [statement.bool_column] + statement.copy_columns
        }
    if isinstance(statement, HashStmt):
        return {
            statement.input_name:
                [statement.key_column] + statement.copy_columns
        }
    if isinstance(statement, FlattenStmt):
        return {
            statement.input_name:
                [statement.seq_column] + statement.copy_columns
        }
    if isinstance(statement, JoinStmt):
        consumed = {
            statement.left_input:
                [statement.left_hash] + statement.left_columns
        }
        right = [statement.right_hash] + statement.right_columns
        if statement.right_input in consumed:
            consumed[statement.right_input] += right
        else:
            consumed[statement.right_input] = right
        return consumed
    if isinstance(statement, AggregateStmt):
        return {
            statement.input_name:
                [statement.key_column, statement.value_column]
        }
    if isinstance(statement, OutputStmt):
        return {statement.input_name: [statement.column]}
    raise TcapError("unknown statement type %r" % type(statement).__name__)
