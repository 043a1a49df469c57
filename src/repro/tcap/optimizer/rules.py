"""Rule-based TCAP optimizations (Section 7).

The paper implements these in Prolog as transformations fired iteratively
until the plan stops improving; here each rule is a function taking a
:class:`~repro.tcap.ir.TcapProgram` and returning True when it changed the
program.  The rewriter in :mod:`repro.tcap.optimizer` runs the rule list
to a fixpoint.

Implemented rules, in firing order:

1. ``split_and_filter`` — normalize ``FILTER`` over an ``&&`` column into
   two cascaded filters, so conjuncts can be pushed independently.
2. ``eliminate_redundant_applies`` — the paper's redundant-method-call
   rule: two APPLYs of the same (pure) ``methodCall``/``attAccess`` over
   the same data column, one an ancestor of the other, collapse into one;
   the computed column is carried through the intervening statements.
3. ``push_filter_below_join`` — the paper's selection pushdown: a filter
   whose predicate reads columns from only one side of an upstream join
   moves below that join input (before its HASH), shrinking join inputs.
4. ``eliminate_dead_columns`` — drop copied columns no downstream
   statement reads.
5. ``eliminate_dead_statements`` — drop statements whose outputs nothing
   consumes.
"""

from __future__ import annotations

import itertools

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

_fresh = itertools.count(1)


def _fresh_name(prefix):
    return "%s_opt%d" % (prefix, next(_fresh))


# ---------------------------------------------------------------------------
# Program-shape helpers
# ---------------------------------------------------------------------------

def _producers(program):
    """Map vlist name -> producing statement."""
    return {
        s.output: s
        for s in program.statements
        if not isinstance(s, OutputStmt)
    }

def _consumers(program):
    """Map vlist name -> list of consuming statements."""
    consumers = {}
    for statement in program.statements:
        for name in statement.input_names():
            consumers.setdefault(name, []).append(statement)
    return consumers


def _column_creators(program):
    """Map column name -> the statement that first creates it."""
    creators = {}
    for statement in program.statements:
        if isinstance(statement, ScanStmt):
            creators.setdefault(statement.column, statement)
        elif isinstance(statement, (ApplyStmt, HashStmt, FlattenStmt)):
            creators.setdefault(statement.new_column, statement)
        elif isinstance(statement, AggregateStmt):
            creators.setdefault("key", statement)
            creators.setdefault("val", statement)
    return creators


def _rename_inputs(statement, old_vlist, new_vlist, col_map=None):
    """Point ``statement`` at ``new_vlist`` instead of ``old_vlist``."""
    col_map = col_map or {}

    def rename_col(c):
        return col_map.get(c, c)

    def rename_cols(columns):
        # A carried list names a column once: the one renamed onto may
        # already sit in it (eliminate_redundant_applies carries the
        # surviving column along the path before it renames).
        return list(dict.fromkeys(rename_col(c) for c in columns))

    if isinstance(statement, ApplyStmt):
        if statement.input_name == old_vlist:
            statement.input_name = new_vlist
        statement.apply_columns = [rename_col(c) for c in statement.apply_columns]
        statement.copy_columns = rename_cols(statement.copy_columns)
    elif isinstance(statement, FilterStmt):
        if statement.input_name == old_vlist:
            statement.input_name = new_vlist
        statement.bool_column = rename_col(statement.bool_column)
        statement.copy_columns = rename_cols(statement.copy_columns)
    elif isinstance(statement, HashStmt):
        if statement.input_name == old_vlist:
            statement.input_name = new_vlist
        statement.key_column = rename_col(statement.key_column)
        statement.copy_columns = rename_cols(statement.copy_columns)
    elif isinstance(statement, FlattenStmt):
        if statement.input_name == old_vlist:
            statement.input_name = new_vlist
        statement.seq_column = rename_col(statement.seq_column)
        statement.copy_columns = rename_cols(statement.copy_columns)
    elif isinstance(statement, JoinStmt):
        if statement.left_input == old_vlist:
            statement.left_input = new_vlist
        if statement.right_input == old_vlist:
            statement.right_input = new_vlist
        statement.left_hash = rename_col(statement.left_hash)
        statement.right_hash = rename_col(statement.right_hash)
        statement.left_columns = rename_cols(statement.left_columns)
        statement.right_columns = rename_cols(statement.right_columns)
    elif isinstance(statement, AggregateStmt):
        if statement.input_name == old_vlist:
            statement.input_name = new_vlist
        statement.key_column = rename_col(statement.key_column)
        statement.value_column = rename_col(statement.value_column)
    elif isinstance(statement, OutputStmt):
        if statement.input_name == old_vlist:
            statement.input_name = new_vlist
        statement.column = rename_col(statement.column)


# ---------------------------------------------------------------------------
# Rule 1: split && filters
# ---------------------------------------------------------------------------

def split_and_filter(program):
    """Turn ``FILTER(b1 && b2)`` into ``FILTER(b1); FILTER(b2)``."""
    consumers = _consumers(program)
    for index, statement in enumerate(program.statements):
        if not isinstance(statement, FilterStmt):
            continue
        producer = None
        for candidate in program.statements:
            if (
                isinstance(candidate, ApplyStmt)
                and candidate.output == statement.input_name
            ):
                producer = candidate
                break
        if producer is None or producer.info.get("type") != "bool_and":
            continue
        if len(producer.apply_columns) != 2:
            continue
        # Only safe when the && column and the && vlist feed this filter
        # exclusively.
        if len(consumers.get(producer.output, [])) != 1:
            continue
        left_col, right_col = producer.apply_columns
        mid_vlist = _fresh_name("Flt")
        carried = [c for c in producer.copy_columns if c != left_col]
        if right_col not in carried:
            carried.append(right_col)
        first = FilterStmt(
            mid_vlist, producer.input_name, left_col, carried,
            statement.computation, info={"pushed": "split"},
        )
        second = FilterStmt(
            statement.output, mid_vlist, right_col,
            list(statement.copy_columns),
            statement.computation, info=dict(statement.info),
        )
        position = program.statements.index(producer)
        program.statements[position] = first
        program.statements[index] = second
        return True
    return False


# ---------------------------------------------------------------------------
# Rule 2: redundant methodCall / attAccess elimination
# ---------------------------------------------------------------------------

def _path_between(program, ancestor_vlist, descendant_vlist):
    """Statements on the unique producer chain ancestor -> descendant.

    Returns None when no such chain exists or it crosses an AGGREGATE
    (values cannot be carried through an aggregation).
    """
    producers = _producers(program)
    path = []
    current = descendant_vlist
    while current != ancestor_vlist:
        statement = producers.get(current)
        if statement is None or isinstance(statement, (ScanStmt, AggregateStmt)):
            return None
        path.append(statement)
        if isinstance(statement, JoinStmt):
            # Follow whichever side leads to the ancestor.
            for side in (statement.left_input, statement.right_input):
                if _reaches(producers, side, ancestor_vlist):
                    current = side
                    break
            else:
                return None
        else:
            current = statement.input_names()[0]
    path.reverse()
    return path


def _reaches(producers, vlist, target):
    while True:
        if vlist == target:
            return True
        statement = producers.get(vlist)
        if statement is None or not statement.input_names():
            return False
        if isinstance(statement, JoinStmt):
            return _reaches(producers, statement.left_input, target) or \
                _reaches(producers, statement.right_input, target)
        vlist = statement.input_names()[0]


def _carry_column(path, column, on_side_of=None):
    """Add ``column`` to the copied columns of every statement on ``path``."""
    for statement in path:
        if isinstance(statement, JoinStmt):
            if column not in statement.left_columns and \
                    column not in statement.right_columns:
                if on_side_of == "right":
                    statement.right_columns.append(column)
                else:
                    statement.left_columns.append(column)
        elif isinstance(statement, (ApplyStmt, FilterStmt, HashStmt,
                                    FlattenStmt)):
            if column not in statement.output_columns():
                statement.copy_columns.append(column)


def eliminate_redundant_applies(program):
    """Collapse a repeated pure methodCall/attAccess (Section 7, rule 1)."""
    applies = [
        s for s in program.statements
        if isinstance(s, ApplyStmt)
        and s.info.get("type") in ("methodCall", "attAccess")
    ]
    for first, second in itertools.combinations(applies, 2):
        if first.computation != second.computation:
            continue
        if first.info != second.info:
            continue
        if first.apply_columns != second.apply_columns:
            continue
        path = _path_between(program, first.output, second.input_name)
        if path is None:
            continue
        # The first APPLY's result must survive along the whole path; find
        # which join side carries it when the path crosses a join.
        producers = _producers(program)
        side = None
        for statement in path:
            if isinstance(statement, JoinStmt):
                side = "left" if _reaches(
                    producers, statement.left_input, first.output
                ) else "right"
        _carry_column(path, first.new_column, on_side_of=side)
        # Drop the second APPLY: its consumers read from its input vlist
        # and see the first APPLY's column instead.
        program.statements.remove(second)
        col_map = {second.new_column: first.new_column}
        for statement in program.statements:
            _rename_inputs(statement, second.output, second.input_name, col_map)
        return True
    return False


# ---------------------------------------------------------------------------
# Rule 3: push filters below joins
# ---------------------------------------------------------------------------

def _apply_closure(program, bool_column, stop_at_join):
    """The APPLY statements transitively computing ``bool_column``.

    Returns ``(closure_statements, base_columns)`` where base columns are
    the columns read from outside the closure, or None when the closure
    leaves APPLY territory (e.g. a HASH or FLATTEN column).
    """
    creators = _column_creators(program)
    closure = []
    base = set()
    pending = [bool_column]
    seen = set()
    while pending:
        column = pending.pop()
        if column in seen:
            continue
        seen.add(column)
        creator = creators.get(column)
        if creator is None:
            return None
        if isinstance(creator, (ScanStmt,)):
            base.add(column)
            continue
        if not isinstance(creator, ApplyStmt):
            return None
        position_creator = program.statements.index(creator)
        if position_creator < stop_at_join:
            # Created before the join: it is a base column carried through.
            base.add(column)
            continue
        closure.append(creator)
        if creator.info.get("type") == "constant":
            # A constant APPLY's input column is only a row-count
            # reference, not a data dependency; it rebinds freely.
            continue
        pending.extend(creator.apply_columns)
    return closure, base


def push_filter_below_join(program):
    """Move a one-sided post-join filter below the join (Section 7, rule 2)."""
    producers = _producers(program)
    for filt in [s for s in program.statements if isinstance(s, FilterStmt)]:
        if filt.info.get("pushed") == "below-join":
            continue
        # Find the nearest JOIN above the filter along the producer chain.
        join = None
        current = filt.input_name
        while True:
            statement = producers.get(current)
            if statement is None or isinstance(statement, ScanStmt):
                break
            if isinstance(statement, JoinStmt):
                join = statement
                break
            if isinstance(statement, (AggregateStmt, FlattenStmt)):
                break
            current = statement.input_names()[0]
        if join is None:
            continue
        join_position = program.statements.index(join)
        result = _apply_closure(program, filt.bool_column, join_position)
        if result is None:
            continue
        closure, base = result
        if not closure:
            continue
        sides = []
        if base and base <= set(join.left_columns):
            sides.append("left")
        if base and base <= set(join.right_columns):
            sides.append("right")
        if not sides:
            continue
        side = sides[0]
        # Do not push a predicate that rechecks the join key equality
        # itself: its base columns appear on one side only because the key
        # column was copied, but removing it would change semantics if it
        # reads both sides.  (A strictly one-sided predicate reads columns
        # carried from one input, which is exactly the paper's condition.)
        hash_stmt = producers.get(
            join.left_input if side == "left" else join.right_input
        )
        if not isinstance(hash_stmt, HashStmt):
            continue
        source_vlist = hash_stmt.input_name
        source_stmt = producers.get(source_vlist)
        if source_stmt is None:
            continue
        source_columns = source_stmt.output_columns()
        if not base <= set(source_columns):
            continue

        # Clone the closure (in original program order) onto the pre-hash
        # vlist, then filter, then re-point the HASH at the filtered list.
        ordered = [s for s in program.statements if s in closure]
        insert_at = program.statements.index(hash_stmt)
        current_vlist = source_vlist
        current_columns = list(source_columns)
        col_map = {}
        new_statements = []
        for original in ordered:
            new_col = _fresh_name(original.new_column)
            out_vlist = _fresh_name(original.output)
            stage = original.stage + "_pushed%d" % next(_fresh)
            if original.info.get("type") == "constant":
                inputs = [current_columns[0]]
            else:
                inputs = [col_map.get(c, c) for c in original.apply_columns]
            cloned = ApplyStmt(
                out_vlist, current_vlist, inputs,
                list(current_columns), new_col,
                original.computation, stage, info=dict(original.info),
            )
            program.stages[(original.computation, stage)] = program.stages[
                (original.computation, original.stage)
            ]
            new_statements.append(cloned)
            col_map[original.new_column] = new_col
            current_vlist = out_vlist
            current_columns = cloned.output_columns()
        pushed_filter = FilterStmt(
            _fresh_name("Flt"), current_vlist,
            col_map[filt.bool_column], list(source_columns),
            filt.computation, info={"pushed": "below-join"},
        )
        new_statements.append(pushed_filter)
        program.statements[insert_at:insert_at] = new_statements
        hash_stmt.input_name = pushed_filter.output

        # Remove the original filter: consumers read its input directly.
        program.statements.remove(filt)
        for statement in program.statements:
            _rename_inputs(statement, filt.output, filt.input_name)
        return True
    return False


# ---------------------------------------------------------------------------
# Rules 4-5: dead code
# ---------------------------------------------------------------------------

def eliminate_dead_columns(program):
    """Drop copied columns nothing downstream reads."""
    needed = {}  # vlist -> set of columns read by consumers
    for statement in program.statements:
        for vlist, columns in _columns_consumed(statement).items():
            needed.setdefault(vlist, set()).update(columns)
    changed = False
    for statement in program.statements:
        keep = needed.get(statement.output, set())
        if isinstance(statement, (ApplyStmt, HashStmt, FlattenStmt,
                                  FilterStmt)):
            before = list(statement.copy_columns)
            statement.copy_columns = [c for c in before if c in keep]
            changed |= statement.copy_columns != before
        elif isinstance(statement, JoinStmt):
            before = (list(statement.left_columns),
                      list(statement.right_columns))
            statement.left_columns = [
                c for c in statement.left_columns if c in keep
            ]
            statement.right_columns = [
                c for c in statement.right_columns if c in keep
            ]
            changed |= (statement.left_columns,
                        statement.right_columns) != before
    return changed


def eliminate_dead_statements(program):
    """Drop statements whose output nothing consumes."""
    consumed = set()
    for statement in program.statements:
        consumed.update(statement.input_names())
    changed = False
    for statement in list(program.statements):
        if isinstance(statement, OutputStmt):
            continue
        if statement.output not in consumed:
            program.statements.remove(statement)
            changed = True
    return changed


def eliminate_noop_applies(program):
    """Remove APPLYs whose computed column nothing downstream reads.

    Dead-column pruning drops the column from *copies* but the stage would
    still execute — and a pushed-down ``getSalary`` filter must not leave
    a vestigial post-join ``getSalary`` call running.  Such an APPLY is
    deleted and its consumers rewired to its input vector list.
    """
    needed = {}
    for statement in program.statements:
        for vlist, columns in _columns_consumed(statement).items():
            needed.setdefault(vlist, set()).update(columns)
    for statement in list(program.statements):
        if not isinstance(statement, ApplyStmt):
            continue
        used = needed.get(statement.output, set())
        if statement.new_column in used:
            continue
        program.statements.remove(statement)
        for other in program.statements:
            _rename_inputs(other, statement.output, statement.input_name)
        return True
    return False


DEFAULT_RULES = [
    split_and_filter,
    eliminate_redundant_applies,
    push_filter_below_join,
    eliminate_dead_columns,
    eliminate_noop_applies,
    eliminate_dead_statements,
]
