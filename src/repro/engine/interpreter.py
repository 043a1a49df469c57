"""A reference executor for TCAP programs.

This interpreter runs a TCAP program one statement at a time over whole,
materialized columns.  It is deliberately simple: no pipelining, no pages,
no partitioning.  It exists (a) as the semantic reference the vectorized
pipeline engine is differentially tested against, and (b) as the local
execution path for small inputs.

Sources and sinks are plain Python mappings from ``(database, set)`` to
lists of objects, so the interpreter is usable without any storage stack.
"""

from __future__ import annotations

from repro.errors import ExecutionError
from repro.memory.builtins import stable_hash
from repro.tcap.ir import (
    AggregateStmt,
    ApplyStmt,
    FilterStmt,
    FlattenStmt,
    HashStmt,
    JoinStmt,
    OutputStmt,
    ScanStmt,
)


class LocalInterpreter:
    """Executes a compiled TcapProgram over in-memory inputs."""

    def __init__(self, program, sources):
        self.program = program
        self.sources = dict(sources)
        self.env = {}  # vlist name -> {column: list}
        self.outputs = {}  # (db, set) -> list

    def run(self):
        """Execute every statement; returns ``{(db, set): [objects]}``."""
        for statement in self.program.statements:
            self._execute(statement)
        return self.outputs

    # -- dispatch -----------------------------------------------------------------

    def _execute(self, statement):
        handler = self._HANDLERS.get(type(statement))
        if handler is None:
            raise ExecutionError(
                "interpreter cannot execute %r" % type(statement).__name__
            )
        handler(self, statement)

    def _vlist(self, name):
        try:
            return self.env[name]
        except KeyError as missing:
            raise ExecutionError(
                "vector list %r not materialized" % name
            ) from missing

    # -- statement handlers ---------------------------------------------------------

    def _scan(self, statement):
        key = (statement.database, statement.set_name)
        if key not in self.sources:
            raise ExecutionError("no source bound for set %s.%s" % key)
        self.env[statement.output] = {
            statement.column: list(self.sources[key])
        }

    def _apply(self, statement):
        vlist = self._vlist(statement.input_name)
        fn = self.program.stage_fn(statement.computation, statement.stage)
        inputs = [vlist[column] for column in statement.apply_columns]
        produced = fn(*inputs)
        out = {column: vlist[column] for column in statement.copy_columns}
        out[statement.new_column] = list(produced)
        self.env[statement.output] = out

    def _filter(self, statement):
        vlist = self._vlist(statement.input_name)
        mask = vlist[statement.bool_column]
        out = {}
        for column in statement.copy_columns:
            values = vlist[column]
            out[column] = [v for v, keep in zip(values, mask) if keep]
        self.env[statement.output] = out

    def _hash(self, statement):
        vlist = self._vlist(statement.input_name)
        keys = vlist[statement.key_column]
        out = {column: vlist[column] for column in statement.copy_columns}
        out[statement.new_column] = [stable_hash(k) for k in keys]
        self.env[statement.output] = out

    def _join(self, statement):
        left = self._vlist(statement.left_input)
        right = self._vlist(statement.right_input)
        build = {}
        right_cols = [right[c] for c in statement.right_columns]
        for row_index, hash_value in enumerate(right[statement.right_hash]):
            build.setdefault(hash_value, []).append(row_index)
        out = {c: [] for c in statement.output_columns()}
        left_cols = [left[c] for c in statement.left_columns]
        for row_index, hash_value in enumerate(left[statement.left_hash]):
            for match in build.get(hash_value, ()):
                for name, column in zip(statement.left_columns, left_cols):
                    out[name].append(column[row_index])
                for name, column in zip(statement.right_columns, right_cols):
                    out[name].append(column[match])
        self.env[statement.output] = out

    def _flatten(self, statement):
        vlist = self._vlist(statement.input_name)
        sequences = vlist[statement.seq_column]
        out = {c: [] for c in statement.output_columns()}
        copies = [vlist[c] for c in statement.copy_columns]
        for row_index, seq in enumerate(sequences):
            for item in seq:
                out[statement.new_column].append(item)
                for name, column in zip(statement.copy_columns, copies):
                    out[name].append(column[row_index])
        self.env[statement.output] = out

    def _aggregate(self, statement):
        vlist = self._vlist(statement.input_name)
        comp = self.program.computations[statement.computation]
        groups = {}
        keys = vlist[statement.key_column]
        values = vlist[statement.value_column]
        for key, value in zip(keys, values):
            if key in groups:
                groups[key] = comp.combine(groups[key], value)
            else:
                groups[key] = value
        self.env[statement.output] = {
            "key": list(groups.keys()),
            "val": list(groups.values()),
        }

    def _output(self, statement):
        vlist = self._vlist(statement.input_name)
        key = (statement.database, statement.set_name or statement.computation)
        self.outputs.setdefault(key, []).extend(vlist[statement.column])

    _HANDLERS = {
        ScanStmt: _scan,
        ApplyStmt: _apply,
        FilterStmt: _filter,
        HashStmt: _hash,
        JoinStmt: _join,
        FlattenStmt: _flatten,
        AggregateStmt: _aggregate,
        OutputStmt: _output,
    }
