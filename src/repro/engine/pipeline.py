"""Pipelined, vectorized execution of physical plans (Appendix C).

The :class:`PipelineEngine` executes the pipelines produced by
:func:`repro.engine.physical.plan_pipelines` on one worker.  Vector-list
batches are pushed through each pipeline's stages; sinks collect results:

* hash-table sinks build the join tables probe pipelines consume;
* aggregation sinks pre-aggregate into a per-pipeline hash map (the
  paper's per-thread ``Map`` on an output page);
* output sinks either collect Python values (local mode) or allocate PC
  objects in place on output-set pages (cluster mode), rolling to a fresh
  page on the out-of-memory fault and counting the resulting zombie pages.

Batches are processed with the current output page installed as the
active allocation block, so user code calling ``make_object`` inside a
native lambda allocates directly on the output page — the paper's
"data should be constructed where it is ultimately needed".
"""

from __future__ import annotations

import numpy as np

from repro.errors import BlockFullError, ExecutionError
from repro.engine import kernels
from repro.memory.builtins import MapFacade, stable_hash
from repro.memory.columnar import ColumnarRows
from repro.memory.handle import Handle
from repro.memory.objects import use_allocation_block
from repro.engine.physical import (
    SINK_AGGREGATE,
    SINK_HASH_BUILD,
    SINK_MATERIALIZE,
    SINK_OUTPUT,
    SOURCE_SCAN,
)
from repro.engine.vectors import DEFAULT_BATCH_SIZE, VectorList, batches_of
from repro.tcap.ir import (
    ApplyStmt,
    FilterStmt,
    FlattenStmt,
    HashStmt,
    JoinStmt,
)


class EngineMetrics:
    """Plain counters, exact per engine instance (tests and the Figure
    4/5 benches assert per-run values).

    What an engine counted reaches ``pc_engine_*`` and the trace as task
    evidence (:meth:`PipelineEngine.take_evidence`), never from here.
    """

    FIELDS = ("batches", "rows_in", "rows_out", "stage_invocations",
              "pages_written", "zombie_pages", "pre_aggregated_keys",
              "probe_matches", "columnar_rows")

    def __init__(self):
        for name in self.FIELDS:
            setattr(self, name, 0)

    def as_dict(self):
        return {name: getattr(self, name) for name in self.FIELDS}


#: Operator names in task evidence (``pc_op_*{operator=...}``, ``op`` spans).
_OPERATOR_NAMES = {
    ApplyStmt: "apply",
    FilterStmt: "filter",
    HashStmt: "hash",
    FlattenStmt: "flatten",
    JoinStmt: "join",
}


class PipelineEngine:
    """Executes a physical plan over one worker's data."""

    def __init__(self, program, plan, scan_reader, batch_size=None,
                 output_sink_factory=None, metrics=None, profiler=None):
        """``scan_reader(scan_stmt)`` yields the objects of a stored set
        (None when every ``run_stages`` call is handed its batches);
        ``output_sink_factory(output_stmt)`` builds the sink for OUTPUT
        statements (defaults to collecting Python lists).  With a
        ``profiler`` (:class:`repro.obs.evidence.OperatorRecorder`) every
        TCAP operator application is measured into the task's evidence.
        """
        self.program = program
        self.plan = plan
        self.scan_reader = scan_reader
        self.batch_size = batch_size or DEFAULT_BATCH_SIZE
        self.metrics = metrics or EngineMetrics()
        self.profiler = profiler
        self._closed = self.metrics.as_dict()  # counters at the last close
        self.hash_tables = {}  # join output vlist -> {hash: [row tuples]}
        self.store = {}  # materialized vlist -> {column: list}
        self.outputs = {}  # (db, set) -> list (when using the default sink)
        self._sink_factory = output_sink_factory or self._default_sink

    # -- public ------------------------------------------------------------------

    def run(self):
        """Execute every pipeline in dependency order."""
        for pipeline in self.plan:
            self._run_pipeline(pipeline)
        return self.outputs

    # -- pipeline execution --------------------------------------------------------

    def _run_pipeline(self, pipeline):
        sink = self._make_sink(pipeline)
        self.run_stages(
            pipeline.stages, self._source_batches(pipeline), sink
        )
        sink.finish()

    def run_stages(self, stages, batches, sink):
        """The one task body: push ``batches`` through ``stages`` into
        ``sink``.

        Every execution of user stages goes through here — a local
        pipeline, a scheduler task the coordinator runs itself, and a
        task a back-end process runs (``repro.cluster.procworker``).  The
        sink is left un-finished: the caller decides whether its state is
        stored (``finish()``) or handed elsewhere first.
        """
        for batch in batches:
            self.metrics.batches += 1
            self.metrics.rows_in += len(batch)
            self._process_batch(stages, batch, sink)

    def take_evidence(self):
        """Close the evidence of the task that just ran (or failed).

        Plain data: the counter increases since the previous close and
        the operator records of the recorder behind ``profiler`` (none
        without one).  :func:`repro.obs.evidence.book_task_evidence`
        books it — here when the coordinator ran the body, after the trip
        home when a back-end process did.
        """
        counters = self.metrics.as_dict()
        closed, self._closed = self._closed, counters
        return {
            "engine": {
                name: counters[name] - closed[name] for name in counters
            },
            "ops": self.profiler.drain() if self.profiler is not None
            else {},
        }

    def _process_batch(self, stages, batch, sink):
        """Push one batch through all stages into the sink.

        An allocation fault while the *stages* run (user code allocating
        in place on a page-backed sink's page) rolls the output page and
        re-runs the batch from the top: nothing of the batch is recorded
        yet, the objects the failed attempt left on the sealed page are
        dead space, and the sealed page — which may hold earlier batches'
        rows — is the paper's zombie output page.  A page-writing sink's
        ``consume`` never raises one: its writer rolls per object.
        """
        for attempt in range(3):
            block = sink.allocation_block()
            try:
                if block is not None:
                    with use_allocation_block(block):
                        current = self._apply_stages(stages, batch)
                        if current is not None:
                            sink.consume(current)
                else:
                    current = self._apply_stages(stages, batch)
                    if current is not None:
                        sink.consume(current)
                if current is not None:
                    self.metrics.rows_out += len(current)
                return
            except BlockFullError:
                if attempt == 2:
                    raise
                sink.roll_page()
                self.metrics.zombie_pages += 1

    def _apply_stages(self, stages, batch):
        """Run all stages; returns None when a stage empties the batch."""
        current = batch
        for stage in stages:
            self.metrics.stage_invocations += 1
            current = self._apply_stage(stage, current)
            if len(current) == 0:
                return None
        return current

    def _apply_stage(self, stage, batch):
        if self.profiler is not None:
            return self.profiler.operator(
                _OPERATOR_NAMES.get(type(stage), type(stage).__name__),
                self._apply_stage_inner, stage, batch,
            )
        return self._apply_stage_inner(stage, batch)

    def _apply_stage_inner(self, stage, batch):
        if stage.info.get("columnar") == "1":
            result = self._apply_columnar(stage, batch)
            if result is not None:
                return result
        # Fallback boundary: operators past this point run per-row, so any
        # array columns are lowered back to plain Python values first.
        batch = kernels.reify(batch)
        if isinstance(stage, ApplyStmt):
            fn = self.program.stage_fn(stage.computation, stage.stage)
            inputs = [batch.column(c) for c in stage.apply_columns]
            produced = fn(*inputs)
            out = batch.shallow_copy(stage.copy_columns)
            return out.with_column(stage.new_column, list(produced))
        if isinstance(stage, FilterStmt):
            mask = batch.column(stage.bool_column)
            return VectorList({
                name: [v for v, keep in zip(batch.column(name), mask) if keep]
                for name in stage.copy_columns
            })
        if isinstance(stage, HashStmt):
            keys = batch.column(stage.key_column)
            out = batch.shallow_copy(stage.copy_columns)
            return out.with_column(
                stage.new_column, [stable_hash(k) for k in keys]
            )
        if isinstance(stage, FlattenStmt):
            out = {c: [] for c in stage.output_columns()}
            copies = [batch.column(c) for c in stage.copy_columns]
            for row, seq in enumerate(batch.column(stage.seq_column)):
                for item in seq:
                    out[stage.new_column].append(item)
                    for name, column in zip(stage.copy_columns, copies):
                        out[name].append(column[row])
            return VectorList(out)
        if isinstance(stage, JoinStmt):
            return self._probe(stage, batch)
        raise ExecutionError("unknown stage %r" % type(stage).__name__)

    def _apply_columnar(self, stage, batch):
        """Try the whole-batch kernel for a columnar-marked stage.

        Returns None when the batch is not actually array-typed (orphan
        replays, post-fallback segments) — the caller then takes the
        per-row path, which is always correct.
        """
        if isinstance(stage, ApplyStmt):
            result = kernels.apply_kernel(self, stage, batch)
        elif isinstance(stage, FilterStmt):
            result = kernels.filter_kernel(stage, batch)
        else:
            result = None
        if result is not None:
            self._note_columnar(
                _OPERATOR_NAMES.get(type(stage), type(stage).__name__),
                len(batch),
            )
        return result

    def _note_columnar(self, operator, rows):
        self.metrics.columnar_rows += rows
        if self.profiler is not None:
            self.profiler.columnar(operator, rows)

    def hash_table(self, output):
        """The built hash table of join ``output``; raises when missing."""
        table = self.hash_tables.get(output)
        if table is None:
            raise ExecutionError("hash table for %s was not built" % output)
        return table

    def stored(self, vlist_name):
        """The materialized columns of ``vlist_name``; raises when missing."""
        columns = self.store.get(vlist_name)
        if columns is None:
            raise ExecutionError(
                "vector list %r was not materialized" % vlist_name
            )
        return columns

    def _probe(self, stage, batch):
        table = self.hash_table(stage.output)
        (_hash, built_columns), (probe_hash, probe_columns) = join_sides(
            self.plan, stage
        )
        out = {c: [] for c in stage.output_columns()}
        probe_cols = [batch.column(c) for c in probe_columns]
        for row, hash_value in enumerate(batch.column(probe_hash)):
            for built_row in table.get(hash_value, ()):
                self.metrics.probe_matches += 1
                for name, column in zip(probe_columns, probe_cols):
                    out[name].append(column[row])
                for name, value in zip(built_columns, built_row):
                    out[name].append(value)
        return VectorList(out)

    # -- sources ---------------------------------------------------------------------

    def _source_batches(self, pipeline):
        if pipeline.source_kind == SOURCE_SCAN:
            scan = pipeline.source
            yield from object_batches(
                [self.scan_reader(scan)], scan.column, self.batch_size,
                columnar=scan.info.get("columnar") == "1",
            )
            return
        yield from batches_of(self.stored(pipeline.source), self.batch_size)

    # -- sinks -----------------------------------------------------------------------

    def _make_sink(self, pipeline):
        if pipeline.sink_kind == SINK_HASH_BUILD:
            return HashBuildSink(self, pipeline.sink)
        if pipeline.sink_kind == SINK_AGGREGATE:
            return AggregateSink(self, pipeline.sink)
        if pipeline.sink_kind == SINK_MATERIALIZE:
            return MaterializeSink(self, pipeline.sink)
        if pipeline.sink_kind == SINK_OUTPUT:
            return self._sink_factory(pipeline.sink)
        raise ExecutionError("unknown sink kind %r" % pipeline.sink_kind)

    def _default_sink(self, output_stmt):
        return ListOutputSink(self, output_stmt)


def object_batches(pages, column, batch_size, columnar=False):
    """Batch scanned pages into single-column vector lists.

    ``pages`` yields one sequence of stored objects per page
    (:func:`~repro.storage.page.page_items`); the engine's local scan
    source, the scheduler's (whole scans and orphan re-runs) and the
    back-end process's all batch here.  Stored aggregation Maps are
    expanded into their pairs.  A columnar page's items are one
    :class:`~repro.memory.columnar.ColumnarRows`: with ``columnar`` set
    it is sliced into array batches the kernels consume whole, otherwise
    it goes through per row like any other page.
    """
    chunk = []
    for items in pages:
        if columnar and isinstance(items, ColumnarRows):
            if chunk:
                yield VectorList({column: chunk})
                chunk = []
            for start in range(0, len(items), batch_size):
                yield VectorList(
                    {column: items.slice(start, start + batch_size)}
                )
            continue
        for item in items:
            expanded = _expand_aggregate_object(item)
            if expanded is None:
                chunk.append(item)
            else:
                chunk.extend(expanded)
            if len(chunk) >= batch_size:
                yield VectorList({column: chunk})
                chunk = []
    if chunk:
        yield VectorList({column: chunk})


def _expand_aggregate_object(item):
    """Expand a stored aggregation Map into its (key, value) pairs.

    Aggregation results are stored as PC Map objects (Appendix D.2); a
    downstream computation scanning such a set consumes the pairs.
    Returns None when ``item`` is not an aggregation map.
    """
    if isinstance(item, MapFacade):
        return list(item.items())
    if isinstance(item, Handle) and not item.is_null:
        view = item.deref()
        if isinstance(view, MapFacade):
            return list(view.items())
    return None


def combine_into(groups, pairs, combine):
    """Fold ``(key, value)`` pairs into ``groups``, in order: a key held
    already takes ``combine(held, value)`` — or, with ``combine=None``,
    just the later value."""
    for key, value in pairs:
        if combine is not None and key in groups:
            groups[key] = combine(groups[key], value)
        else:
            groups[key] = value
    return groups


def hash_rows_into(table, rows):
    """Bucket ``rows`` — tuples ``(hash, *values)`` — by their hash:
    ``table[hash]`` gains the ``values`` tuple, in order."""
    for row in rows:
        table.setdefault(row[0], []).append(row[1:])
    return table


def join_sides(plan, join):
    """``(build, probe)`` for ``join``: each side's ``(hash column,
    carried columns)``, by which side the plan builds the table from."""
    left = (join.left_hash, join.left_columns)
    right = (join.right_hash, join.right_columns)
    if plan.build_sides.get(join.output, "right") == "right":
        return right, left
    return left, right


class Sink:
    """Base pipe sink."""

    def __init__(self, engine):
        self.engine = engine

    def allocation_block(self):
        """The output page block stages should allocate onto, if any."""
        return None

    def roll_page(self):
        raise BlockFullError(0, 0)  # sinks without pages cannot recover

    def consume(self, batch):
        raise NotImplementedError

    def remote_spec(self):
        """``(sink_class, argument)``: a back-end process can fill
        ``sink_class(engine, argument)`` and send its ``state`` for this
        sink to ``finish()`` — None if the sink must stay front-end side
        (it writes worker-local pages or merges into coordinator state)."""
        return None

    def finish(self):
        """Flush at end of pipeline."""

    def abort(self):
        """Undo any *durable* half-effects of a failed attempt.

        Called by the scheduler's retry machinery after a back-end crash,
        before the task is re-dispatched into a fresh sink.  Sinks whose
        state is engine-transient (discarded with the re-forked back-end)
        need do nothing; page-writing sinks roll their partial pages back.
        """


class HashBuildSink(Sink):
    """Builds the hash table for a join's build side."""

    def __init__(self, engine, join_stmt):
        super().__init__(engine)
        self.join = join_stmt
        (self.hash_column, self.columns), _probe = join_sides(
            engine.plan, join_stmt
        )
        self.state = {}  # hash -> [row tuples]

    def remote_spec(self):
        return HashBuildSink, self.join

    def consume(self, batch):
        batch = kernels.reify(batch)
        hash_rows_into(self.state, zip(
            batch.column(self.hash_column),
            *(batch.column(c) for c in self.columns),
        ))

    def finish(self):
        self.engine.hash_tables[self.join.output] = self.state


class AggregateSink(Sink):
    """Pre-aggregates (key, value) pairs — the paper's producing stage.

    With ``merge=True`` the finished groups are combined into whatever the
    engine's store already holds for this output instead of overwriting
    it — the mode the scheduler uses when a surviving worker absorbs a
    lost peer's orphaned scan pages after its own portion completed.
    """

    def __init__(self, engine, agg_stmt, merge=False):
        super().__init__(engine)
        self.statement = agg_stmt
        self.comp = engine.program.computations[agg_stmt.computation]
        self.state = {}  # key -> combined value
        self.merge = merge

    def remote_spec(self):
        return None if self.merge else (AggregateSink, self.statement)

    def consume(self, batch):
        keys = batch.column(self.statement.key_column)
        values = batch.column(self.statement.value_column)
        if (
            self.statement.info.get("columnar") == "1"
            and isinstance(keys, np.ndarray)
            and isinstance(values, np.ndarray)
        ):
            # Declared-sum aggregation over array columns: one grouped
            # bincount per batch instead of a per-row combine loop.
            kernels.aggregate_sum(self.state, keys, values)
            self.engine._note_columnar("aggregate", len(batch))
            return
        combine_into(
            self.state,
            zip(kernels.reify_column(keys), kernels.reify_column(values)),
            self.comp.combine,
        )

    def finish(self):
        groups = self.state
        self.engine.metrics.pre_aggregated_keys += len(groups)
        existing = (
            self.engine.store.get(self.statement.output)
            if self.merge else None
        )
        if existing:
            groups = combine_into(
                dict(zip(existing["key"], existing["val"])), groups.items(),
                self.comp.combine,
            )
        self.engine.store[self.statement.output] = {
            "key": list(groups.keys()),
            "val": list(groups.values()),
        }


class MaterializeSink(Sink):
    """Materializes a multi-consumer vector list.

    ``merge=True`` appends the finished columns to the store's existing
    entry instead of replacing it (see :class:`AggregateSink`).  With
    ``vlist_name=None`` the sink only *collects*: ``finish()`` stores
    nothing and the caller reads ``state`` (the scheduler's shuffle
    inputs).
    """

    def __init__(self, engine, vlist_name, merge=False):
        super().__init__(engine)
        self.vlist_name = vlist_name
        self.state = None  # column name -> values, once a batch arrived
        self.merge = merge

    def remote_spec(self):
        return None if self.merge else (MaterializeSink, self.vlist_name)

    def consume(self, batch):
        batch = kernels.reify(batch)
        if self.state is None:
            self.state = {name: [] for name in batch.names()}
        for name in self.state:
            self.state[name].extend(batch.column(name))

    def finish(self):
        if self.vlist_name is None:
            return
        columns = self.state or {}
        existing = (
            self.engine.store.get(self.vlist_name) if self.merge else None
        )
        if existing:
            merged = {name: list(vals) for name, vals in existing.items()}
            for name, vals in columns.items():
                merged.setdefault(name, []).extend(vals)
            columns = merged
        self.engine.store[self.vlist_name] = columns


class ListOutputSink(Sink):
    """Local-mode output: collect Python values."""

    def __init__(self, engine, output_stmt):
        super().__init__(engine)
        self.statement = output_stmt

    def consume(self, batch):
        key = (self.statement.database, self.statement.set_name)
        self.engine.outputs.setdefault(key, []).extend(
            kernels.reify_column(batch.column(self.statement.column))
        )
