"""Columnar-eligibility marking: lower pure subgraphs onto array kernels.

:func:`mark_columnar` is an annotation pass, not a rewrite rule: it walks
the program once in statement order, tracking which vector lists still
carry array-typed columns, and stamps ``info["columnar"] = "1"`` on every
statement the kernel library (:mod:`repro.engine.kernels`) can execute
whole-batch.  The first ineligible statement on a chain is the *fallback
boundary*: its output vector list leaves the tracked set, the engine
reifies the batch there, and everything downstream runs on the ordinary
object path.

Eligibility rules:

* ``SCAN`` of a set created with a ``schema=`` (the schema comes from
  the catalog via the ``layout_of`` callback) — or of a row-layout
  set whose declared type is a ``PCObject`` class, *when a kernel reads
  its rows*: the rows are tagged with the fields a gather serves
  (:func:`repro.memory.gather.column_names`) and the scan's mark — with
  that of every eligible statement its rows pass on the way — stays
  open until a marked ``APPLY`` reads the rows as arrays
  (:func:`reads_rows`: then all are marked, and the scan's mark names
  the class, ``info["gather"]``) or the rows reach an ineligible
  statement (then none is).  A row scan no kernel waits for stays
  unmarked, so it batches exactly as it always did;
* ``APPLY`` of *transparent* terms over tracked columns — attribute
  access naming a schema column, identity (self), constants,
  comparisons, arithmetic, boolean connectives — plus
  ``nativeLambda`` terms that declared a
  whole-batch kernel (``lambda_from_native(kernel=...)``; the kernel
  must satisfy the PCSan PC003 purity discipline);
* ``FILTER`` whose mask column is array-typed;
* ``AGGREGATE`` whose computation declares ``reduce = "sum"`` over
  numeric key/value columns.

``HASH``/``JOIN``/``FLATTEN``, method calls, and un-kernelized native
lambdas are opaque to the array engine and always start a fallback
boundary.
"""

from __future__ import annotations

from repro.memory.gather import column_names
from repro.tcap.ir import AggregateStmt, ApplyStmt, FilterStmt, ScanStmt

#: APPLY info types executable as ufuncs over numeric columns.
_NUMERIC_KINDS = (
    "comparison", "equalityCheck", "arithmetic", "bool_and", "bool_or",
)

#: the numeric-column tag; rows columns are tagged with their schema names
_NUM = "num"


def _is_rows(tag):
    return isinstance(tag, frozenset)


def _mark(statement):
    statement.info["columnar"] = "1"


def scan_tag(layout):
    """``(rows tag, gathered class name)`` of a scan over a set whose
    ``layout_of`` answer is ``layout``: a Schema (columnar pages: every
    column, no class), a ``PCObject`` class (row pages: the fields a
    gather serves), or None (no tag)."""
    if layout is None:
        return None, None
    if isinstance(layout, type):
        return column_names(layout), layout.__name__
    return frozenset(layout.names()), None


def reads_rows(statement, tags):
    """Does ``statement`` — eligible over the column ``tags`` of its
    input — read a rows column as arrays (an ``attAccess``, a kernel)?"""
    return (
        isinstance(statement, ApplyStmt)
        and statement.info.get("type") in ("attAccess", "nativeLambda")
        and any(_is_rows(tags.get(name)) for name in statement.apply_columns)
    )


class _OpenScan:
    """A row scan whose mark is still open, with the eligible statements
    its rows have passed (``held``) and the vector lists they are on."""

    def __init__(self, scan, gathered):
        self.scan = scan
        self.gathered = gathered
        self.held = []
        self.vlists = [scan.output]

    def mark(self):
        """A kernel reads the rows: mark the scan and what was held."""
        self.scan.info["gather"] = self.gathered
        for statement in [self.scan] + self.held:
            _mark(statement)
        return 1 + len(self.held)


def mark_columnar(program, layout_of):
    """Annotate ``program`` in place; returns the number of marked stmts.

    ``layout_of(database, set_name)`` returns the set's
    :class:`repro.schema.Schema` when it is stored columnar, the
    ``PCObject`` class of a row-layout set declared with one, else None.
    """
    marked = 0
    col_tags = {}  # vlist name -> {column name -> _NUM | frozenset(schema)}
    open_scans = {}  # vlist name -> the _OpenScan whose rows it carries
    for statement in program.statements:
        if isinstance(statement, ScanStmt):
            tag, gathered = scan_tag(
                layout_of(statement.database, statement.set_name)
            )
            if tag is None:
                continue
            col_tags[statement.output] = {statement.column: tag}
            if gathered is None:
                _mark(statement)
                marked += 1
            else:
                open_scans[statement.output] = _OpenScan(statement, gathered)
            continue
        out_tags = _output_tags(program, statement, col_tags)
        waiting = [open_scans[name] for name in statement.input_names()
                   if name in open_scans]
        if waiting and out_tags is not None and not reads_rows(
            statement, col_tags[statement.input_name]
        ):
            if any(map(_is_rows, out_tags.values())):
                # Eligible, and the rows go on unread: the marks wait.
                waiting[0].held.append(statement)
                waiting[0].vlists.append(statement.output)
                open_scans[statement.output] = waiting[0]
                col_tags[statement.output] = out_tags
                continue
            out_tags = None  # the rows end here, unread
        for row_scan in waiting:
            for vlist in row_scan.vlists:
                open_scans.pop(vlist, None)
                if out_tags is None:
                    # No kernel read the rows: their pages go through row
                    # by row, and nothing on their way was worth a mark.
                    col_tags.pop(vlist, None)
            if out_tags is not None:
                marked += row_scan.mark()
        if out_tags is None:
            # HASH / JOIN / FLATTEN / OUTPUT, or a term with no array
            # form: the fallback boundary, output vlist untracked.
            continue
        _mark(statement)
        marked += 1
        if not isinstance(statement, AggregateStmt):
            # (grouped results materialize as plain lists either way, so
            # an aggregate's output is never tracked downstream)
            col_tags[statement.output] = out_tags
    return marked


def _output_tags(program, statement, col_tags):
    """The tags of ``statement``'s output columns when it is eligible
    over ``col_tags``, else None."""
    tags = col_tags.get(getattr(statement, "input_name", None))
    if tags is None:
        return None
    if isinstance(statement, ApplyStmt):
        out_tag = _apply_output_tag(program, statement, tags)
        if out_tag is None:
            return None
        out_tags = {name: tags[name] for name in statement.copy_columns}
        out_tags[statement.new_column] = out_tag
        return out_tags
    if isinstance(statement, FilterStmt):
        if tags.get(statement.bool_column) != _NUM:
            return None
        return {name: tags[name] for name in statement.copy_columns}
    if isinstance(statement, AggregateStmt):
        comp = program.computations.get(statement.computation)
        if (
            tags.get(statement.key_column) == _NUM
            and tags.get(statement.value_column) == _NUM
            and getattr(comp, "reduce", None) == "sum"
        ):
            return {}
    return None


def _apply_output_tag(program, statement, tags):
    """The produced column's tag when the APPLY is eligible, else None."""
    info = statement.info
    kind = info.get("type")
    inputs = [tags.get(name) for name in statement.apply_columns]
    if kind == "attAccess":
        if len(inputs) == 1 and _is_rows(inputs[0]) \
                and info.get("attName") in inputs[0]:
            return _NUM
        return None
    if kind == "self":
        # Identity: the produced column is whatever came in (rows or num).
        if len(inputs) == 1 and inputs[0] is not None:
            return inputs[0]
        return None
    if kind == "constant":
        if isinstance(info.get("value"), (bool, int, float)):
            return _NUM
        return None
    if kind in _NUMERIC_KINDS:
        if len(inputs) == 2 and all(tag == _NUM for tag in inputs):
            return _NUM
        return None
    if kind == "bool_not":
        if len(inputs) == 1 and inputs[0] == _NUM:
            return _NUM
        return None
    if kind == "nativeLambda":
        has_kernel = (statement.computation, statement.stage) in \
            getattr(program, "kernels", {})
        if info.get("kernelized") == "1" and has_kernel \
                and all(tag is not None for tag in inputs):
            return _NUM
        return None
    return None
