"""The TCAP compiler: computation graphs + lambda terms -> TCAP programs.

PC's TCAP compiler calls the user-supplied lambda term construction
functions once per Computation (never per datum!) and flattens the
returned term trees into a DAG of atomic TCAP operations (Section 5).
Each lambda node becomes one APPLY whose compiled stage function is the
node's specialized executor — the Python analogue of the pipeline stages
C++ template metaprogramming generates (Section 5.3).

Joins compile naively, exactly as the paper describes (Section 7): key
extraction + HASH + JOIN, with *every* selection conjunct (re)checked
after the join.  Making the plan good is the optimizer's job — selection
pushdown, redundant-call elimination and dead-column pruning live in
:mod:`repro.tcap.optimizer`.
"""

from __future__ import annotations

import itertools
from collections import defaultdict

from repro.errors import TcapError
from repro.core.computation import (
    AggregateComp,
    Computation,
    JoinComp,
    MultiSelectionComp,
    ObjectReader,
    SelectionComp,
    Writer,
    computation_graph,
)
from repro.core.lambdas import Arg
from repro.tcap.ir import (
    AggregateStmt,
    ApplyStmt,
    FilterStmt,
    FlattenStmt,
    HashStmt,
    JoinStmt,
    OutputStmt,
    ScanStmt,
    TcapProgram,
)

_STAGE_SLUGS = {
    "attAccess": "att_acc",
    "methodCall": "method_call",
    "nativeLambda": "native_lambda",
    "constant": "const",
    "self": "self",
}

_COLUMN_PREFIXES = {
    "attAccess": "att",
    "methodCall": "mt",
    "nativeLambda": "nat",
    "constant": "cn",
    "==": "bl",
    "!=": "bl",
    "<": "bl",
    "<=": "bl",
    ">": "bl",
    ">=": "bl",
    "&&": "bl",
    "||": "bl",
    "!": "bl",
    "+": "ar",
    "-": "ar",
    "*": "ar",
    "/": "ar",
}


class TcapCompiler:
    """Compiles a graph of Computations into a :class:`TcapProgram`."""

    def __init__(self):
        self.program = TcapProgram()
        self._vlist_counter = itertools.count(1)
        self._col_counters = defaultdict(itertools.count)
        self._stage_counters = defaultdict(itertools.count)

    # -- public entry point ---------------------------------------------------------

    def compile(self, sinks):
        """Compile all computations feeding ``sinks``: Writers, or
        aggregations whose pairs are the job's result (an OUTPUT with
        no set)."""
        sinks = [sinks] if isinstance(sinks, Computation) else list(sinks)
        results = [sink.name for sink in sinks
                   if isinstance(sink, AggregateComp)]
        outputs = {}  # computation name -> (vlist, column)
        for comp in computation_graph(sinks):
            self.program.computations[comp.name] = comp
            if isinstance(comp, ObjectReader):
                outputs[comp.name] = self._compile_scan(comp)
            elif isinstance(comp, Writer):
                self._compile_output(comp, outputs)
            elif isinstance(comp, JoinComp):
                outputs[comp.name] = self._compile_join(comp, outputs)
            elif isinstance(comp, MultiSelectionComp):
                outputs[comp.name] = self._compile_multi_selection(
                    comp, outputs
                )
            elif isinstance(comp, AggregateComp):
                outputs[comp.name] = self._compile_aggregate(comp, outputs)
                if comp.name in results:
                    self.program.append(OutputStmt(
                        *outputs[comp.name], None, None, comp.name
                    ))
            elif isinstance(comp, SelectionComp):
                outputs[comp.name] = self._compile_selection(comp, outputs)
            else:
                raise TcapError(
                    "cannot compile computation type %r"
                    % type(comp).__name__
                )
        self.program.validate()
        return self.program

    # -- naming helpers ----------------------------------------------------------------

    def _new_vlist(self, comp):
        return "%s_v%d" % (comp.name, next(self._vlist_counter))

    def _new_col(self, prefix):
        return "%s%d" % (prefix, next(self._col_counters[prefix]))

    def _new_stage(self, comp, slug):
        return "%s_%d" % (slug, next(self._stage_counters[comp.name]) + 1)

    def _register_stage(self, comp, stage_name, fn):
        self.program.stages[(comp.name, stage_name)] = fn

    # -- lambda term flattening -----------------------------------------------------------

    def _emit_term(self, comp, term, vlist, columns, arg_cols):
        """Flatten ``term`` into APPLY statements.

        ``arg_cols`` maps input index -> column holding that input's
        objects.  Returns ``(vlist, columns, result_column)``.  Shared
        sub-terms (the same LambdaTerm object appearing twice) compile
        once.
        """
        done = {}  # term_id -> column

        for node in term.walk():
            if node.term_id in done:
                continue
            if node.kind == "self":
                done[node.term_id] = arg_cols[node.arg_indices[0]]
                continue
            if node.arg_indices:
                inputs = [arg_cols[i] for i in node.arg_indices]
            else:
                inputs = [done[child.term_id] for child in node.children]
            executor = node.executor()
            if node.kind == "constant":
                value = node.info["value"]
                reference = columns[0]
                inputs = [reference]

                def executor(col, _value=value):
                    return [_value] * len(col)

            new_col = self._new_col(_COLUMN_PREFIXES.get(node.kind, "c"))
            stage = self._new_stage(
                comp, _STAGE_SLUGS.get(node.kind, node.kind)
            )
            out_vlist = self._new_vlist(comp)
            statement = ApplyStmt(
                out_vlist, vlist, inputs, list(columns), new_col,
                comp.name, stage, info=dict(node.info),
            )
            self.program.append(statement)
            self._register_stage(comp, stage, executor)
            if getattr(node, "kernel", None) is not None:
                self.program.kernels[(comp.name, stage)] = node.kernel
            vlist = out_vlist
            columns = statement.output_columns()
            done[node.term_id] = new_col

        return vlist, columns, done[term.term_id]

    def _emit_filter(self, comp, vlist, columns, bool_col, keep_columns):
        out_vlist = self._new_vlist(comp)
        statement = FilterStmt(
            out_vlist, vlist, bool_col, list(keep_columns), comp.name
        )
        self.program.append(statement)
        return out_vlist, statement.output_columns()

    # -- per-computation compilation ----------------------------------------------------------

    def _compile_scan(self, comp):
        column = self._new_col("in")
        vlist = self._new_vlist(comp)
        self.program.append(
            ScanStmt(vlist, column, comp.database, comp.set_name, comp.name)
        )
        return vlist, column

    def _compile_output(self, comp, outputs):
        upstream = comp.upstream()[0]
        vlist, column = outputs[upstream.name]
        self.program.append(
            OutputStmt(vlist, column, comp.database, comp.set_name, comp.name)
        )

    def _input_of(self, comp, outputs, index=0):
        upstream = comp.upstream()[index]
        return outputs[upstream.name]

    def _compile_selection(self, comp, outputs):
        vlist, column = self._input_of(comp, outputs)
        arg_cols = {0: column}
        columns = [column]
        selection = comp.get_selection(Arg(0))
        vlist, columns, bool_col = self._emit_term(
            comp, selection, vlist, columns, arg_cols
        )
        vlist, columns = self._emit_filter(
            comp, vlist, columns, bool_col, [column]
        )
        projection = comp.get_projection(Arg(0))
        vlist, columns, out_col = self._emit_term(
            comp, projection, vlist, columns, arg_cols
        )
        return vlist, out_col

    def _compile_multi_selection(self, comp, outputs):
        vlist, column = self._input_of(comp, outputs)
        arg_cols = {0: column}
        columns = [column]
        selection = comp.get_selection(Arg(0))
        vlist, columns, bool_col = self._emit_term(
            comp, selection, vlist, columns, arg_cols
        )
        vlist, columns = self._emit_filter(
            comp, vlist, columns, bool_col, [column]
        )
        projection = comp.get_projection(Arg(0))
        vlist, columns, seq_col = self._emit_term(
            comp, projection, vlist, columns, arg_cols
        )
        out_col = self._new_col("fl")
        out_vlist = self._new_vlist(comp)
        self.program.append(
            FlattenStmt(
                out_vlist, vlist, seq_col, [], out_col, comp.name,
                info={"type": "flatten"},
            )
        )
        return out_vlist, out_col

    def _compile_aggregate(self, comp, outputs):
        vlist, column = self._input_of(comp, outputs)
        arg_cols = {0: column}
        columns = [column]
        key_term = comp.get_key_projection(Arg(0))
        vlist, columns, key_col = self._emit_term(
            comp, key_term, vlist, columns, arg_cols
        )
        value_term = comp.get_value_projection(Arg(0))
        vlist, columns, val_col = self._emit_term(
            comp, value_term, vlist, columns, arg_cols
        )
        out_vlist = self._new_vlist(comp)
        self.program.append(
            AggregateStmt(
                out_vlist, vlist, key_col, val_col, comp.name,
                info={"type": "aggregate"},
            )
        )
        # Downstream consumers see (key, value) pairs as their objects.
        pair_col = self._new_col("pair")
        pair_vlist = self._new_vlist(comp)
        stage = self._new_stage(comp, "pair_up")
        self.program.append(
            ApplyStmt(
                pair_vlist, out_vlist, ["key", "val"], [], pair_col,
                comp.name, stage, info={"type": "pairUp"},
            )
        )
        self._register_stage(
            comp, stage, lambda keys, vals: list(zip(keys, vals))
        )
        return pair_vlist, pair_col

    def _compile_join(self, comp, outputs):
        arity = comp.arity
        args = [Arg(i) for i in range(arity)]
        selection = comp.get_selection(*args)
        conjuncts = list(selection.conjuncts())

        equality_links = []  # (i, j, term_i, term_j, conjunct)
        residual = []
        for conjunct in conjuncts:
            if conjunct.is_equality and len(conjunct.children) == 2:
                left, right = conjunct.children
                left_deps = left.depends_on()
                right_deps = right.depends_on()
                if (
                    len(left_deps) == 1
                    and len(right_deps) == 1
                    and left_deps != right_deps
                ):
                    (i,) = left_deps
                    (j,) = right_deps
                    equality_links.append((i, j, left, right, conjunct))
                    continue
            residual.append(conjunct)

        input_locs = [
            self._input_of(comp, outputs, index) for index in range(arity)
        ]
        # Self-joins: if the same upstream feeds two input slots, alias the
        # later slot through an identity APPLY so column names stay unique.
        seen_cols = set()
        for index, (in_vlist, in_col) in enumerate(input_locs):
            if in_col in seen_cols:
                alias_col = self._new_col("al")
                alias_vlist = self._new_vlist(comp)
                stage = self._new_stage(comp, "self")
                self.program.append(
                    ApplyStmt(
                        alias_vlist, in_vlist, [in_col], [], alias_col,
                        comp.name, stage, info={"type": "self"},
                    )
                )
                self._register_stage(comp, stage, lambda col: list(col))
                input_locs[index] = (alias_vlist, alias_col)
                in_col = alias_col
            seen_cols.add(in_col)

        # Left-deep join order over the inputs as given; the logical
        # optimizer is free to improve on it later.
        joined = {0}
        vlist, first_col = input_locs[0]
        columns = [first_col]
        arg_cols = {0: first_col}
        remaining = list(range(1, arity))
        # Track used links by identity: lambda terms overload ==, so tuple
        # membership tests would misfire.
        used_link_ids = set()

        while remaining:
            pick = None
            for position, j in enumerate(remaining):
                for link in equality_links:
                    if id(link) in used_link_ids:
                        continue
                    i_dep, j_dep = link[0], link[1]
                    if (i_dep in joined and j_dep == j) or (
                        j_dep in joined and i_dep == j
                    ):
                        pick = (position, j, link)
                        break
                if pick:
                    break
            if pick is None:
                # No equality links this input: cartesian join on a
                # constant key.
                position, j = 0, remaining[0]
                link = None
            else:
                position, j, link = pick
            remaining.pop(position)

            right_vlist, right_col = input_locs[j]
            right_columns = [right_col]
            right_args = {j: right_col}

            if link is not None:
                used_link_ids.add(id(link))
                i_dep, j_dep, left_term, right_term, conjunct = link
                if i_dep in joined:
                    probe_term, build_term = left_term, right_term
                else:
                    probe_term, build_term = right_term, left_term
                vlist, columns, left_key = self._emit_term(
                    comp, probe_term, vlist, columns, arg_cols
                )
                right_vlist, right_columns, right_key = self._emit_term(
                    comp, build_term, right_vlist, right_columns, right_args
                )
                # Equality over hashed keys is rechecked post-join, so a
                # hash collision can never leak a bogus tuple (Section 7).
                residual.append(conjunct)
            else:
                left_key = self._new_col("cn")
                vlist, columns = self._emit_constant_key(
                    comp, vlist, columns, left_key
                )
                right_key = self._new_col("cn")
                right_vlist, right_columns = self._emit_constant_key(
                    comp, right_vlist, right_columns, right_key
                )

            vlist, columns = self._emit_hash_join(
                comp, vlist, columns, left_key,
                right_vlist, right_columns, right_key,
            )
            joined.add(j)
            arg_cols[j] = right_col

        # Equality links that did not serve as a hash key are ordinary
        # post-join predicates.
        for link in equality_links:
            if id(link) not in used_link_ids:
                residual.append(link[4])

        # All conjuncts (including key equalities) checked after the join;
        # the optimizer pushes what it can below the join.
        if residual:
            bool_cols = []
            for conjunct in residual:
                vlist, columns, bool_col = self._emit_term(
                    comp, conjunct, vlist, columns, arg_cols
                )
                bool_cols.append(bool_col)
            combined = bool_cols[0]
            for bool_col in bool_cols[1:]:
                new_col = self._new_col("bl")
                stage = self._new_stage(comp, "&&")
                out_vlist = self._new_vlist(comp)
                statement = ApplyStmt(
                    out_vlist, vlist, [combined, bool_col], list(columns),
                    new_col, comp.name, stage, info={"type": "bool_and"},
                )
                self.program.append(statement)
                self._register_stage(
                    comp, stage,
                    lambda a, b: [bool(x) and bool(y) for x, y in zip(a, b)],
                )
                vlist = out_vlist
                columns = statement.output_columns()
                combined = new_col
            keep = [arg_cols[i] for i in range(arity)]
            vlist, columns = self._emit_filter(
                comp, vlist, columns, combined, keep
            )

        projection = comp.get_projection(*args)
        vlist, columns, out_col = self._emit_term(
            comp, projection, vlist, columns, arg_cols
        )
        return vlist, out_col

    def _emit_constant_key(self, comp, vlist, columns, new_col):
        stage = self._new_stage(comp, "const")
        out_vlist = self._new_vlist(comp)
        statement = ApplyStmt(
            out_vlist, vlist, [columns[0]], list(columns), new_col,
            comp.name, stage, info={"type": "constant", "value": 0},
        )
        self.program.append(statement)
        self._register_stage(comp, stage, lambda col: [0] * len(col))
        return out_vlist, statement.output_columns()

    def _emit_hash_join(self, comp, left_vlist, left_columns, left_key,
                        right_vlist, right_columns, right_key):
        left_hash = self._new_col("hash")
        hashed_left = self._new_vlist(comp)
        self.program.append(
            HashStmt(
                hashed_left, left_vlist, left_key, list(left_columns),
                left_hash, comp.name, info={"type": "hashLeft"},
            )
        )
        right_hash = self._new_col("hash")
        hashed_right = self._new_vlist(comp)
        self.program.append(
            HashStmt(
                hashed_right, right_vlist, right_key, list(right_columns),
                right_hash, comp.name, info={"type": "hashRight"},
            )
        )
        out_vlist = self._new_vlist(comp)
        statement = JoinStmt(
            out_vlist,
            hashed_left, left_hash, list(left_columns),
            hashed_right, right_hash, list(right_columns),
            comp.name, info={"type": "hashJoin"},
        )
        self.program.append(statement)
        return out_vlist, statement.output_columns()


def compile_computations(sinks):
    """Convenience wrapper: compile ``sinks`` into a TcapProgram."""
    return TcapCompiler().compile(sinks)
