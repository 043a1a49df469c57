"""Pipelined, vectorized execution of physical plans (Appendix C).

The :class:`PipelineEngine` executes the pipelines produced by
:func:`repro.engine.physical.plan_pipelines` on one worker.  Vector-list
batches are pushed through each pipeline's stages; sinks collect results:

* hash-table sinks build the join tables probe pipelines consume;
* aggregation sinks pre-aggregate into a per-pipeline hash map (the
  paper's per-thread ``Map`` on an output page);
* output sinks either collect Python values (local mode) or write PC
  objects onto output-set pages (cluster mode).

A batch runs with the output page's writer as the active allocation
target, so a ``make_object`` in a native lambda writes its object where
it is ultimately needed: the writer's window, a page at a time.
"""

from __future__ import annotations

from contextlib import nullcontext
from functools import partial

import numpy as np

from repro.errors import BlockFullError, ExecutionError, WorkerCrashError
from repro.engine import kernels, vectors
from repro.memory.block import AllocationBlock
from repro.memory.builtins import MapFacade, stable_hash
from repro.memory.columnar import ColumnarRows, RowBatch, RowView
from repro.memory.gather import GatherIneligible, map_pairs, root_rows
from repro.memory.handle import Handle
from repro.memory.objects import PendingObject, use_allocation_block
from repro.engine.physical import (
    SINK_AGGREGATE, SINK_HASH_BUILD, SINK_MATERIALIZE, SINK_OUTPUT, SOURCE_SCAN,
)
from repro.engine.vectors import VectorList, batches_of
from repro.obs.evidence import OperatorRecorder
from repro.storage.dataset import pack_map_pages, private_page_writer
from repro.storage.page import page_items
from repro.storage.replication import page_checksum
from repro.tcap.ir import ApplyStmt, FilterStmt, FlattenStmt, HashStmt, JoinStmt


class EngineMetrics:
    """Plain counters, exact per engine instance (tests and the Figure
    4/5 benches assert per-run values).

    What an engine counted reaches ``pc_engine_*`` and the trace as task
    evidence (:meth:`PipelineEngine.evidence`), never from here.
    """

    FIELDS = ("batches", "rows_in", "rows_out", "stage_invocations",
              "pages_written", "zombie_pages", "pre_aggregated_keys",
              "probe_matches", "columnar_rows", "gather_rows", "merged_keys")

    def __init__(self):
        for name in self.FIELDS:
            setattr(self, name, 0)
        #: (operator, reason) -> batches of a marked stage, or Map builds and
        #: reads (``map_build`` / ``map_read``), that took the object path
        #: (``pc_engine_kernel_fallback_total``)
        self.kernel_fallbacks = {}

    def as_dict(self):
        return {name: getattr(self, name) for name in self.FIELDS}

    def fallback(self, operator, reason):
        """One batch of ``operator`` — or one Map build or read, ``"map_build"``
        / ``"map_read"`` — took the object path, for ``reason``."""
        fallbacks = self.kernel_fallbacks
        fallbacks[operator, reason] = fallbacks.get((operator, reason), 0) + 1


#: Operator names in task evidence (``pc_op_*{operator=...}``, ``op`` spans).
_OPERATOR_NAMES = {ApplyStmt: "apply", FilterStmt: "filter", HashStmt: "hash",
                   FlattenStmt: "flatten", JoinStmt: "join"}


class JobState:
    """What a job keeps on one worker between pipelines — plain data a
    sink's ``finish()`` or an exchange installs and a later pipeline
    reads.  A local run's engine is one; a scheduled job keeps one per
    worker in the coordinator, where no back-end crash can reach it.
    """

    def __init__(self, program, plan, registry=None):
        self.program, self.plan, self.registry = program, plan, registry
        self.hash_tables = {}  # join output vlist -> {hash: [row tuples]}
        self.store = {}  # vlist -> a source description

    def hash_table(self, output):
        """The built hash table of join ``output``; raises when missing."""
        table = self.hash_tables.get(output)
        if table is None:
            raise ExecutionError("hash table for %s was not built" % output)
        return table

    def stored(self, vlist_name):
        """The source description kept under ``vlist_name``; raises if none."""
        described = self.store.get(vlist_name)
        if described is None:
            raise ExecutionError(
                "vector list %r was not materialized" % vlist_name
            )
        return described


class PipelineEngine(JobState):
    """Executes a physical plan over one worker's data."""

    def __init__(self, program, plan, scan_reader, metrics=None,
                 profiler=None, registry=None):
        """``scan_reader(scan_stmt)`` yields the objects of a stored set
        (None when every ``run_stages`` call is handed its batches).
        With a ``profiler`` (:class:`repro.obs.evidence.OperatorRecorder`)
        every TCAP operator application is measured into the task's
        evidence.  ``registry`` is the type registry of the pages this
        engine's sinks build (combiner and output pages).
        """
        super().__init__(program, plan, registry)
        self.scan_reader = scan_reader
        self.metrics = metrics or EngineMetrics()
        self.profiler = profiler
        self.outputs = {}  # (db, set) -> list (a local run's OUTPUT sinks)
        #: the counter kernel-served rows of the running batch book under
        self._array_path = "columnar_rows"

    # -- public ------------------------------------------------------------------

    def run(self):
        """Execute every pipeline in dependency order."""
        for pipeline in self.plan:
            sink, source, pages = self._make_sink(pipeline), pipeline.source, ()
            if pipeline.source_kind == SOURCE_SCAN:
                pages = [self.scan_reader(source)]
                source = ("pages", None, source.column, source.array_rows)
            else:
                source = self.stored(source)
            self.run_stages(pipeline.stages, self.source_batches(source, pages), sink)
            sink.finish()
            if pipeline.result is not None:  # the pairs, keyed as a Writer's
                groups = self.stored(pipeline.sink.output)[1]
                self.outputs[None, pipeline.result.computation] = list(zip(groups["key"], groups["val"]))
        return self.outputs

    # -- pipeline execution --------------------------------------------------------

    def run_stages(self, stages, batches, sink):
        """The one task body: push ``batches`` through ``stages`` into
        ``sink``.

        Every execution of user stages goes through here — a local
        pipeline, and every scheduled task (:func:`run_task`).  The sink
        is sealed — what it consumed is now its ``state``, pages built —
        and left un-finished: the caller decides whether the state is
        stored (``finish()``) or travels home first.

        A batch enters the stages in cuts of ``sink.fit_rows`` rows (None:
        whole), which :meth:`_process_batch` halves for the rest of the
        task when a fresh page refuses one.  A cut is counted once as it
        enters, however often it re-runs — unless it was refused: its rows
        enter again, in smaller cuts.
        """
        self._fresh_page = True  # whether the open page holds nothing yet
        for batch in batches:
            start, rows = 0, len(batch)
            while start < rows:
                fit = sink.fit_rows
                cut = batch if fit is None else batch.slice(start, start + fit)
                self._array_path = kernels.array_path(cut)
                self.metrics.batches += 1
                self.metrics.rows_in += len(cut)
                if self._process_batch(stages, cut, sink):
                    start += len(cut)
                else:
                    self.metrics.batches -= 1
                    self.metrics.rows_in -= len(cut)
        sink.seal()

    def evidence(self):
        """What this engine did, as plain data: its counters and the
        records of the recorder behind ``profiler`` (none without one).
        An engine built for a task runs that one task, so this is the
        task's evidence, for :func:`~repro.obs.evidence.book_task_evidence`.
        """
        return {
            "engine": self.metrics.as_dict(),
            "fallbacks": dict(self.metrics.kernel_fallbacks),
            "ops": self.profiler.drain() if self.profiler is not None else {},
        }

    def _process_batch(self, stages, batch, sink):
        """Push one cut through all stages into the sink; False when a
        fresh output page refused it.

        An allocation fault while the *stages* run (an object built on a
        page-writing sink's open page: a pending one escaped) rolls it:
        nothing of the cut is recorded yet, and what the failed attempt
        allocated is dead space.  A page holding earlier cuts' rows is
        sealed — the paper's zombie output page — and one with nothing
        recorded freed; the cut re-runs on a fresh page, fresh until a cut
        goes through on it.  A fresh page that refuses the cut halves the
        sink's ``fit_rows``; only a single row no empty page takes fails
        the task.  A page-writing sink's ``consume`` never raises one: its
        writer rolls per object.
        """
        while True:
            target = sink.allocation_target
            try:
                with nullcontext() if target is None \
                        else use_allocation_block(target):
                    current = self._apply_stages(stages, batch)
                    if current is not None:
                        sink.consume(current)
                        self.metrics.rows_out += len(current)
                self._fresh_page = False
                return True
            except BlockFullError as full:
                kept = sink.roll_page()
                if kept:
                    self.metrics.zombie_pages += 1
                if kept or not self._fresh_page:
                    self._fresh_page = True
                    continue
                if len(batch) == 1:
                    raise ExecutionError(
                        "what the stages allocate for one row does not fit "
                        "on an empty %d-byte output page (%s): raise the "
                        "set's page_size" % (sink.page_size, full)
                    ) from full
                sink.fit_rows = len(batch) // 2
                return False

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
            return out.with_column(stage.new_column, [stable_hash(k) for k in keys])
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

        Returns None when the batch cannot take it — it is not actually
        array-typed (a row page in a columnar set, post-fallback
        segments), a gather met a row it does not serve, the kernel's
        result is no column — with the reason counted: the caller then
        takes the per-row path, which is always correct.
        """
        operator = _OPERATOR_NAMES.get(type(stage))
        try:
            if isinstance(stage, ApplyStmt):
                result = kernels.apply_kernel(self, stage, batch)
            elif isinstance(stage, FilterStmt):
                result = kernels.filter_kernel(stage, batch)
            else:
                return None
        except GatherIneligible as ineligible:
            self.metrics.fallback(operator, ineligible.reason)
            return None
        self._note_columnar(operator, len(batch))
        return result

    def _note_columnar(self, operator, rows):
        path = self._array_path
        setattr(self.metrics, path, getattr(self.metrics, path) + rows)
        if self.profiler is not None:
            self.profiler.array_rows(operator, path, rows)

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

    def source_batches(self, source, pages=()):
        """The batches of a source: a scan's ``("pages", refs, column,
        columnar)`` read from ``pages``, ``("columns", columns)``, or what an
        aggregation's exchange delivered, ``("arrived", computation, items)``
        — rows, or combiner pages read in place — every sender's value of a
        key combined (never overwritten), in arrival order."""
        if source[0] == "pages":
            return object_batches(pages, *source[2:])
        if source[0] == "columns":
            return batches_of(source[1])
        comp, pairs = self.program.computations[source[1]], source[2]
        if comp.map_type is not None:
            pairs = map_page_pairs(pairs, comp, self.registry,
                                   partial(self.metrics.fallback, "map_read"))
        groups = combine_into({}, pairs, comp.combine)
        self.metrics.merged_keys += len(groups)
        return batches_of({"key": list(groups), "val": list(groups.values())})

    # -- sinks -----------------------------------------------------------------------

    def _make_sink(self, pipeline):
        sink_class = {
            SINK_HASH_BUILD: HashBuildSink, SINK_AGGREGATE: AggregateSink,
            SINK_MATERIALIZE: MaterializeSink, SINK_OUTPUT: ListOutputSink,
        }[pipeline.sink_kind]
        return sink_class(self, pipeline.sink)


def run_task(job, spec, pages, registry):
    """The one task runner: ``(job, spec) -> (sink state, evidence)``.

    One worker's portion of a stage, whoever calls — a back-end process
    with the pages it attached and its copy of the job's registry, the
    coordinator with the leased pages read in place and the worker's own —
    from the same plain inputs: ``job`` is what is constant over the job
    (program, plan, profiling), ``spec`` what is not (the plan's segment,
    source description, ``(sink class, arguments)``, the hash tables its
    probes read).  The engine lives for this one task: a
    plain sink is filled from the source (:meth:`PipelineEngine.source_batches`)
    and sealed, never finished — its ``state`` goes to whoever keeps the
    job's state.  When the body raises, the evidence so far travels on
    the exception (``error.evidence``).
    """
    engine = PipelineEngine(job["program"], job["plan"], None, registry=registry,
                            profiler=OperatorRecorder() if job["profiling"] else None)
    engine.hash_tables = spec["hash_tables"]
    try:
        stages, target = engine.plan.segment(*spec["segment"])
        sink_class, sink_args = spec["sink"]
        sink = sink_class(engine, target, *sink_args)
        batches = engine.source_batches(spec["source"], pages)
        engine.run_stages(stages, batches, sink)
    except Exception as error:
        error.evidence = engine.evidence()
        raise
    return sink.state, engine.evidence()


def object_batches(pages, column, columnar=False):
    """Batch scanned pages into single-column vector lists: the one scan
    batching, for :meth:`PipelineEngine.source_batches`.

    ``pages`` yields one sequence of stored objects per page
    (:func:`~repro.storage.page.page_items`); stored aggregation Maps are
    expanded into their pairs.  ``columnar`` is the scan's mark
    (:attr:`~repro.tcap.ir.ScanStmt.array_rows`), and this the one place
    a row batch is built.  Batches are sized by what they hold
    (:mod:`repro.engine.vectors`): a marked scan's columnar pages fill
    kernel batches of ``ARRAY_BATCH_ROWS`` rows, each page's columns
    copied into the batch's own arrays as it arrives (its pin ends when
    the next page is asked for) — a batch that is one whole page stays a
    view of it; a row page's root vector, as the
    :class:`~repro.memory.gather.ObjectRows` of the class the mark names,
    is sliced, and unmarked rows batch across pages, at
    ``OBJECT_BATCH_ROWS``: those rows are handles into pages.  A page of
    another kind flushes the rows held first, so row order is kept.
    """
    chunk, rows = [], vectors.OBJECT_BATCH_ROWS
    filling = _KernelBatch(vectors.ARRAY_BATCH_ROWS)
    for items in pages:
        if isinstance(columnar, str):
            items = root_rows(items, columnar)
        if columnar and isinstance(items, ColumnarRows):
            if chunk:
                yield VectorList({column: chunk})
                chunk = []
            for batch in filling.add(items):
                yield VectorList({column: batch})
            continue
        held = filling.flush()
        if held is not None:
            yield VectorList({column: held})
        if columnar and isinstance(items, RowBatch):
            if chunk:
                yield VectorList({column: chunk})
                chunk = []
            for start in range(0, len(items), rows):
                yield VectorList({column: items.slice(start, start + rows)})
            continue
        for item in items:
            expanded = _expand_aggregate_object(item)
            if expanded is None:
                chunk.append(item)
            else:
                chunk.extend(expanded)
            if len(chunk) >= rows:
                yield VectorList({column: chunk})
                chunk = []
    if chunk:
        yield VectorList({column: chunk})
    held = filling.flush()
    if held is not None:
        yield VectorList({column: held})


class _KernelBatch:
    """A kernel batch being filled from consecutive columnar pages.

    ``add`` copies a page's rows into the batch's own arrays and yields
    each batch it completes, before the next page is asked for; ``flush``
    hands over the rows held.  A batch a page fills on its own, with
    nothing held, is the page's rows themselves (zero-copy).  The pages
    of one scan share the set's schema, so the held arrays take every
    page's columns as they are."""

    def __init__(self, rows):
        self.rows = rows
        self.columns = None  # name -> array of ``rows`` rows, being filled
        self.filled = 0

    def add(self, page_rows):
        count = len(page_rows)
        start = 0
        while start < count:
            if not self.filled and count - start >= self.rows:
                yield page_rows if count == self.rows else \
                    page_rows.slice(start, start + self.rows)
                start += self.rows
                continue
            if self.columns is None:
                self.columns = {
                    name: np.empty(self.rows, page_rows.column(name).dtype)
                    for name in page_rows.names()
                }
            take = min(self.rows - self.filled, count - start)
            for name, held in self.columns.items():
                held[self.filled:self.filled + take] = \
                    page_rows.column(name)[start:start + take]
            self.filled += take
            start += take
            if self.filled == self.rows:
                yield self.flush()

    def flush(self):
        """The held rows as one batch (None when nothing is held)."""
        if not self.filled:
            return None
        filled, columns = self.filled, self.columns
        self.columns, self.filled = None, 0
        return ColumnarRows.copied({
            name: array[:filled] for name, array in columns.items()
        })


def _expand_aggregate_object(item):
    """Expand a stored aggregation Map into its (key, value) pairs.

    Aggregation results are stored as PC Map objects (Appendix D.2); a
    downstream computation scanning such a set consumes the pairs.
    Returns None when ``item`` is not an aggregation map.
    """
    if isinstance(item, Handle) and not item.is_null:
        item = item.deref()
    return list(item.items()) if isinstance(item, MapFacade) else None


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


def map_items(view, comp, declined):
    """The ``(key, value)`` pairs of a stored Map ``view`` — or of
    ``view`` itself, any other iterable of pairs — decoded by ``comp``'s
    ``decode_key`` / ``decode_value`` (``comp`` None: as read).  The one
    read of an aggregation's Map pages, the arrived combiner pages and
    the stored output alike: a Map is read as arrays
    (:func:`~repro.memory.gather.map_pairs`), in host values, and one it
    declines entry by entry, ``declined(reason)`` hearing why (it is
    counted as ``pc_engine_kernel_fallback_total{operator="map_read"}``)."""
    if isinstance(view, MapFacade):
        try:
            view = map_pairs(view)
        except GatherIneligible as ineligible:
            declined(ineligible.reason)
            view = view.items()
    if comp is None:
        return list(view)
    decode_key, decode_value = comp.decode_key, comp.decode_value
    return [(decode_key(key), decode_value(value)) for key, value in view]


def map_page_pairs(pages, comp, registry, declined):
    """The decoded pairs of sealed Map pages ``(bytes, *sealed)``: each
    page's Map read in place (:func:`map_items`), in page order."""
    return [pair for data, *_sealed in pages for pair in map_items(page_items(
        AllocationBlock.from_bytes(data, registry=registry))[0], comp, declined)]


def check_arrived(pages, target, arrived=None):
    """Raise :class:`WorkerCrashError` unless every sealed page ``(bytes, CRC,
    ...)`` for ``target`` arrived as sealed: ``arrived(bytes)`` (None: the bytes)."""
    for index, (data, checksum, *_sealed) in enumerate(pages):
        if page_checksum(data if arrived is None else arrived(data)) != checksum:
            raise WorkerCrashError(
                "page %d of %d for %s arrived corrupt (CRC mismatch); none "
                "of the task's pages is kept" % (index + 1, len(pages), target))


def hash_rows_into(table, rows):
    """Bucket ``rows`` — tuples ``(hash, *values)`` — by their hash:
    ``table[hash]`` gains the ``values`` tuple, in order."""
    for row in rows:
        table.setdefault(row[0], []).append(row[1:])
    return table


def partition_rows(rows, hashes, n):
    """The partitioner: ``n`` lists, row ``i`` in list ``hashes[i] % n``,
    order kept — or every list the whole of ``rows`` when ``hashes`` is
    None (a broadcast)."""
    if hashes is None:
        return [rows] * n
    partitions = [[] for _ in range(n)]
    for row, hash_value in zip(rows, hashes):
        partitions[hash_value % n].append(row)
    return partitions


def row_messages(rows, hashes, n):
    """``rows`` as what their holder sends into an exchange on the row
    wire: one list of messages per partition — a partition is one
    message, an empty one none."""
    return [
        [partition] if partition else []
        for partition in partition_rows(rows, hashes, n)
    ]


def join_sides(plan, join):
    """``(build, probe)`` for ``join``: each side's ``(hash column,
    carried columns)``, by which side the plan builds the table from."""
    left = (join.left_hash, join.left_columns)
    right = (join.right_hash, join.right_columns)
    if plan.build_sides.get(join.output, "right") == "right":
        return right, left
    return left, right


class Sink:
    """Base pipe sink.

    A sink lives in three steps: ``consume`` takes the batches, ``seal``
    (end of the task body, wherever it ran) turns what was consumed into
    ``state`` — plain data, pages built — and ``finish`` installs the
    state where the job keeps it, after what earlier tasks of the worker
    installed there.  A scheduled task (:func:`run_task`) runs the first
    two on a sink built from :meth:`remote_spec` over its engine; the
    coordinator's own sink, built over the worker's :class:`JobState`,
    gets that ``state`` assigned, checks it as it arrived (:meth:`check`) and
    later — in window order — runs the third, or hands the state, an
    outbox, to the exchange it feeds.
    """

    #: Rows the stages take at a time (None: any); the engine halves a
    #: page-writing sink's when a fresh page refuses a cut.
    fit_rows = None
    #: The stages' active allocation target (None: none).
    allocation_target = None

    def __init__(self, engine):
        self.engine = engine

    def roll_page(self):
        """Seal the output page a stage filled: True when it was kept
        (it holds earlier rows), False when it was freed."""
        raise BlockFullError(0, 0)  # sinks without pages cannot recover

    def consume(self, batch):
        raise NotImplementedError

    def seal(self):
        """Turn what was consumed into ``state`` (default: it already is)."""

    def remote_spec(self):
        """``(sink_class, arguments)``: a task fills and seals
        ``sink_class(engine, target, *arguments)`` (``target`` what its
        plan segment ends in) and returns its ``state`` for this sink to
        ``finish()``.  None — a sink no task can fill — is an error."""
        return None

    def check(self):
        """Raise :class:`WorkerCrashError` unless ``state`` arrived as its
        task sealed it (the attempt re-runs); returns how many pages
        ``finish()`` adopts (the task's ``pages_written``)."""
        return 0

    def finish(self):
        """Install ``state`` at end of pipeline."""

    def abort(self):
        """Undo what ``finish()`` made durable, when the run that
        installed it fails or restarts: a page-writing sink frees the
        pages it adopted."""


class HashBuildSink(Sink):
    """Collects one side of a join as rows ``(hash, *carried columns)``.

    A local run's ``finish()`` folds the build side into the table its
    probes read.  A scheduled task, with ``exchange=(n, side)``, seals
    the ``side`` ("build" or "probe", :func:`join_sides`) into what its
    worker sends into the exchange — ``n`` lists of messages, every row
    for every worker when the plan broadcasts the join, else for worker
    ``hash % n`` — and the receiver builds the table from the build
    side (:func:`hash_rows_into`, once) or reads the probe side's rows
    as the columns the probe runs over.
    """

    def __init__(self, engine, join_stmt, exchange=None):
        super().__init__(engine)
        self.join = join_stmt
        build, probe = join_sides(engine.plan, join_stmt)
        self.exchange = exchange
        self.hash_column, self.columns = \
            probe if exchange is not None and exchange[1] == "probe" else build
        self.state = []

    def remote_spec(self):
        return type(self), (self.exchange,)

    def consume(self, batch):
        batch = kernels.reify(batch)
        self.state.extend(zip(
            batch.column(self.hash_column),
            *(batch.column(c) for c in self.columns),
        ))

    def seal(self):
        if self.exchange is not None:
            broadcast = self.engine.plan.join_modes[self.join.output] == "broadcast"
            self.state = row_messages(self.state, None if broadcast else
                                      [row[0] for row in self.state], self.exchange[0])

    def finish(self):
        self.engine.hash_tables[self.join.output] = hash_rows_into({}, self.state)


class AggregateSink(Sink):
    """Pre-aggregates (key, value) pairs — the paper's producing stage.

    Sealed, the groups are the ``key`` / ``val`` columns the next local
    pipeline reads — or, with ``exchange=(n, page_size)``, what this
    worker sends into the aggregation exchange: ``n`` lists of messages,
    the groups partitioned by ``stable_hash(key) % n``; ``n`` None is
    one partition, for the job's caller.  A partition is one message: of
    an aggregation whose pairs travel as PC Maps (``map_type``), its
    combiner pages, packed right here by the task that holds the data
    (Figure 5); of any other, its ``(key, value)`` rows.  An empty one is
    no message.  :meth:`check` checks the CRC of each Map page for the
    caller as ``arrived(bytes)`` hands it over (None: as sealed).
    """

    def __init__(self, engine, agg_stmt, exchange=None, arrived=None):
        super().__init__(engine)
        self.statement = agg_stmt
        self.comp = engine.program.computations[agg_stmt.computation]
        self.groups = {}  # key -> combined value
        self.exchange, self.arrived = exchange, arrived
        self.state = None

    def remote_spec(self):
        return type(self), (self.exchange,)

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
            kernels.aggregate_sum(self.groups, keys, values)
            self.engine._note_columnar("aggregate", len(batch))
            return
        combine_into(self.groups, zip(kernels.reify_column(keys),
                                      kernels.reify_column(values)), self.comp.combine)

    def seal(self):
        groups, comp = self.groups, self.comp
        self.engine.metrics.pre_aggregated_keys += len(groups)
        if self.exchange is None:
            self.state = ("columns", {"key": list(groups.keys()),
                                      "val": list(groups.values())})
            return
        n, page_size = self.exchange
        partitions = [list(groups.items())] if n is None else \
            partition_rows(groups.items(), map(stable_hash, groups), n)
        if comp.map_type is not None:
            declined = partial(self.engine.metrics.fallback, "map_build")
            partitions = [
                pack_map_pages(comp.map_type, rows, page_size,
                               self.engine.registry, declined)
                for rows in partitions
            ]
        self.state = [[held] if held else [] for held in partitions]

    def check(self):
        if self.exchange and self.exchange[0] is None and self.comp.map_type is not None:
            for held in self.state[0]:
                check_arrived(held, "the result of %s" % self.comp.name, self.arrived)
        return 0

    def finish(self):
        self.engine.store[self.statement.output] = self.state


class MaterializeSink(Sink):
    """Materializes a vector list under its name: sealed, it is the
    columns a later pipeline reads."""

    def __init__(self, engine, vlist_name):
        super().__init__(engine)
        self.vlist_name = vlist_name
        self.state = None  # column name -> values, once a batch arrived

    def remote_spec(self):
        return type(self), ()

    def consume(self, batch):
        batch = kernels.reify(batch)
        if self.state is None:
            self.state = {name: [] for name in batch.names()}
        for name in self.state:
            self.state[name].extend(batch.column(name))

    def finish(self):
        _kind, columns = self.engine.store.setdefault(self.vlist_name, ("columns", {}))
        for name, values in (self.state or {}).items():
            columns.setdefault(name, []).extend(values)


class ListOutputSink(Sink):
    """Local-mode output: collect Python values."""

    def __init__(self, engine, output_stmt):
        super().__init__(engine)
        self.statement = output_stmt

    def consume(self, batch):
        statement = self.statement
        self.engine.outputs.setdefault((statement.database, statement.set_name), []).extend(
            kernels.reify_column(batch.column(statement.column)))


class _PageSink(Sink):
    """Writes output pages in the task that holds the objects.

    The pages are private blocks, so the same body runs in a back-end
    process and in the coordinator; sealed, they are ``(bytes, CRC,
    allocations, objects)`` in ``state["pages"]``, every CRC verified as
    they arrive (:meth:`check`).  ``finish()`` runs in the coordinator,
    over the worker-local partition of the output set (``page_set``): it
    adopts the bytes into the partition and says so in :attr:`adopted`,
    for the job to place once its whole plan is through
    (``ReplicationManager.place_pages``).
    :meth:`abort` frees the pages this sink adopted and takes their
    objects back off the partition's count — whatever other sinks added
    since, and nothing the second time.
    """

    def __init__(self, engine, output_stmt, page_size, page_set=None):
        super().__init__(engine)
        self.statement, self.page_size = output_stmt, page_size
        self.page_set, self.state = page_set, None
        #: ``(bytes, CRC, objects, page id)`` of every page adopted, and
        #: the plain Python values that came with them (a
        #: :class:`ClusterOutputSink`'s): what the job commits
        self.adopted, self.python = [], []

    def remote_spec(self):
        return type(self), (self.page_size,)

    def check(self):
        check_arrived(self.state["pages"], self.statement.target)
        return len(self.state["pages"])

    def finish(self):
        for data, checksum, allocations, count in self.state["pages"]:
            self.adopted.append((data, checksum, count, self.page_set.adopt_page_bytes(
                data, count=count, allocations=allocations)))
        self.python = self.state.get("python", [])

    def abort(self):
        adopted, self.adopted, self.python = self.adopted, [], []
        for _data, _checksum, count, page_id in adopted:
            self.page_set.rollback(page_id, count)


class ClusterOutputSink(_PageSink):
    """Writes pipeline output: PC objects (handles / facades) onto row
    pages (``private_page_writer``), plain Python values into
    :attr:`python` — which the job adds to the set's Python-output
    list (the client gathers it on :meth:`PCCluster.read`) when it
    commits the pages.
    """

    def __init__(self, engine, output_stmt, page_size, page_set=None):
        super().__init__(engine, output_stmt, page_size, page_set)
        self.writer = private_page_writer(page_size, engine.registry, lambda reason: (
            engine.metrics.fallback("object_build", reason)))  # a task's engine
        self._values = []
        self.fit_rows = vectors.OBJECT_BATCH_ROWS
        self.allocation_target = self.writer  # make_object's records wait in it

    def roll_page(self):
        # A stage filled the page: nothing of its cut is recorded yet.
        sealed = len(self.writer.sealed)
        self.writer.flush()
        return len(self.writer.sealed) > sealed

    def consume(self, batch):
        # A pending object's record joins the window, in output order; an
        # object that exists (a handle, a facade, a pending one built or
        # returned twice) is recorded after the batch's records.  The writer
        # retries the one object a full page refused on the next page, so
        # no BlockFullError leaves here with part of the batch recorded.
        writer, existing = self.writer, []
        for value in kernels.reify_column(batch.column(self.statement.column)):
            record = value.take() if type(value) is PendingObject else None
            if record is not None:
                writer.extend(value.cls, (record,))
            elif isinstance(value, RowView):  # page-backed, no handle: its
                self._values.append(value.detach())  # values are the output
            elif isinstance(value, (Handle, PendingObject)) or \
                    getattr(value, "pc_block", None) is not None:
                existing.append(value)
            else:
                self._values.append(value)
        for value in existing:
            writer.append_object(value)

    def seal(self):
        self.writer.flush()
        self.state = {"pages": self.writer.sealed, "python": self._values}


class MapPageOutputSink(_PageSink):
    """Writes aggregation pairs as PC Maps in the destination set.

    This reproduces the paper's aggregation sink: the stored set holds
    ``Map`` objects, each the root of its own page — the combiner-page
    format (``pack_map_pages``), one object per page — readable with
    zero deserialization and expanded back into pairs on scan.
    ``computation`` names the AggregateComp whose declared types the Map
    has.
    """

    def __init__(self, engine, output_stmt, page_size, computation,
                 page_set=None):
        super().__init__(engine, output_stmt, page_size, page_set)
        self.computation = computation
        self.pairs = []

    def remote_spec(self):
        return type(self), (self.page_size, self.computation)

    def consume(self, batch):
        self.pairs.extend(kernels.reify_column(batch.column(self.statement.column)))

    def seal(self):
        comp = self.engine.program.computations[self.computation]
        self.state = {"pages": pack_map_pages(
            comp.map_type, self.pairs, self.page_size, self.engine.registry,
            partial(self.engine.metrics.fallback, "map_build"),
        )}
