"""Physical planning: breaking a TCAP DAG into pipelines (Appendix C).

The single most important physical decision is how to cut the TCAP DAG
into *pipelines*: maximal chains of operations that push vector lists
through RAM without materializing.  A pipeline always ends in a *pipe
sink*; only a few operations require one:

* JOIN — the build side ends in a hash-table sink; the probe side runs
  *through* the join as an ordinary stage;
* AGGREGATE — the producing stage ends in an aggregation sink; consumers
  start a new pipeline over the aggregated result — unless the job's
  result is its only reader: then its pipeline ends at the caller;
* OUTPUT — the terminal sink writing a stored set;
* any vector list with more than one consumer is materialized (the
  paper's rule for multi-consumer outputs).

Choosing which join input builds and which probes yields the alternative
pipelinings of Figure 3; :func:`plan_pipelines` accepts overrides so the
figure bench can enumerate them.  Otherwise :func:`plan_joins` chooses,
together with each join's exchange mode, once, from the sizes the
catalog records.
"""

from __future__ import annotations

from repro.errors import PlanningError
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

#: Sink kinds.
SINK_OUTPUT = "output"
SINK_HASH_BUILD = "hash_build"
SINK_AGGREGATE = "aggregate"
SINK_MATERIALIZE = "materialize"

#: Source kinds.
SOURCE_SCAN = "scan"
SOURCE_VLIST = "vlist"

#: Scaled stand-in for the paper's 2 GB broadcast-join threshold.
DEFAULT_BROADCAST_THRESHOLD = 8 << 20


class Pipeline:
    """One executable pipeline: source -> stages -> sink."""

    def __init__(self, pipeline_id, source_kind, source, stages, sink_kind,
                 sink, result=None):
        self.pipeline_id = pipeline_id
        self.source_kind = source_kind
        self.source = source  # ScanStmt or vlist name
        self.stages = stages  # APPLY/FILTER/HASH/FLATTEN/JOIN(probe) stmts
        self.sink_kind = sink_kind
        self.sink = sink  # OutputStmt | JoinStmt | AggregateStmt | vlist name
        #: the OUTPUT that hands an aggregation's pairs to the job's
        #: caller, its only reader (None: a pipeline reads them on)
        self.result = result

    def depends_on(self):
        """Names of materialized vector lists / join builds required."""
        needs = [("vlist", self.source)] if self.source_kind == SOURCE_VLIST \
            else []
        return needs + [("hash_table", stage.output) for stage in self.stages
                        if isinstance(stage, JoinStmt)]

    def provides(self):
        """What this pipeline makes available once it has run."""
        if self.sink_kind == SINK_MATERIALIZE:
            return ("vlist", self.sink)
        if self.sink_kind == SINK_OUTPUT:
            return ("output", self.sink.set_name)
        return ("hash_table" if self.sink_kind == SINK_HASH_BUILD else "vlist",
                self.sink.output)

    def describe(self):
        """One-line description used by the Figure 3 bench."""
        if self.source_kind == SOURCE_SCAN:
            src = "scan %s.%s" % (self.source.database, self.source.set_name)
        else:
            src = "read %s" % self.source
        ops = ["probe(%s)" % stage.output if isinstance(stage, JoinStmt)
               else stage.op.lower() for stage in self.stages]
        sink = {
            SINK_OUTPUT: lambda: "write %s" % self.sink.target,
            SINK_HASH_BUILD: lambda: "build(%s)" % self.sink.output,
            SINK_AGGREGATE: lambda: "aggregate(%s)" % self.sink.output + (
                "" if self.result is None else " -> " + self.result.target),
            SINK_MATERIALIZE: lambda: "materialize(%s)" % self.sink,
        }[self.sink_kind]()
        return " -> ".join([src] + ops + [sink])

    def __repr__(self):
        return "<Pipeline %d: %s>" % (self.pipeline_id, self.describe())


class PhysicalPlan:
    """Ordered pipelines plus each join's build side and exchange mode."""

    def __init__(self, pipelines, build_sides, join_modes):
        self.pipelines = pipelines
        self.build_sides = build_sides  # JoinStmt.output -> "left"/"right"
        #: JoinStmt.output -> "broadcast"/"partition"
        self.join_modes = join_modes

    def __iter__(self):
        return iter(self.pipelines)

    def __len__(self):
        return len(self.pipelines)

    def segments(self, pipeline):
        """``pipeline``'s stages cut at every *partitioned* join probe."""
        segments = [[]]
        for stage in pipeline.stages:
            if isinstance(stage, JoinStmt) and \
                    self.join_modes[stage.output] == "partition":
                segments.append([])
            segments[-1].append(stage)
        return segments

    def segment(self, pipeline_id, index):
        """``(stages, sink target)`` of a task's segment, wherever it runs:
        the target is the pipeline's sink for its last segment, else the
        probe ``JoinStmt`` that heads the next."""
        (pipeline,) = [p for p in self.pipelines if p.pipeline_id == pipeline_id]
        segments = self.segments(pipeline)
        if index + 1 < len(segments):
            return segments[index], segments[index + 1][0]
        return segments[index], pipeline.sink

    def describe(self):
        return "\n".join(p.describe() for p in self.pipelines)


def plan_joins(program, build_side_overrides=None, set_bytes=None,
               broadcast_threshold=DEFAULT_BROADCAST_THRESHOLD):
    """Each join's shape, decided before any data moves: ``(build_sides,
    join_modes)``, keyed by the join's output vector list.

    A vector list's size is what ``set_bytes(database, set)`` records
    for the stored set at the head of the pipeline producing it (None:
    unknown); the walk goes back through single-input statements,
    through a join along its probe input and through a materialized
    vector list to its producer.  The smaller known input builds — ties
    and unknowns keep the right one — unless ``build_side_overrides``
    names the join.  A build broadcasts iff its size is known and at
    most ``broadcast_threshold`` bytes; otherwise both inputs are
    hash-partitioned (the paper's rule, Section 8.3.2).
    """
    overrides = build_side_overrides or {}
    producers = {s.output: s for s in program.statements}
    build_sides, join_modes = {}, {}

    def size(vlist):
        statement = producers.get(vlist)
        while not isinstance(statement, ScanStmt):
            if statement is None:
                return None
            if isinstance(statement, JoinStmt):
                vlist = statement.left_input if side(statement) == "right" \
                    else statement.right_input
            else:
                (vlist,) = statement.input_names()
            statement = producers.get(vlist)
        return None if set_bytes is None \
            else set_bytes(statement.database, statement.set_name)

    def side(join):
        if join.output not in build_sides:
            left, right = size(join.left_input), size(join.right_input)
            chosen = overrides.get(join.output) or (
                "left" if None not in (left, right) and left < right
                else "right"
            )
            build = left if chosen == "left" else right
            build_sides[join.output] = chosen
            join_modes[join.output] = "broadcast" if build is not None \
                and build <= broadcast_threshold else "partition"
        return build_sides[join.output]

    for statement in program.statements:
        if isinstance(statement, JoinStmt):
            side(statement)
    return build_sides, join_modes


def plan_pipelines(program, build_side_overrides=None, set_bytes=None,
                   broadcast_threshold=DEFAULT_BROADCAST_THRESHOLD):
    """Cut ``program`` into an ordered :class:`PhysicalPlan`, its joins
    shaped by :func:`plan_joins` (same arguments)."""
    consumers = {}
    for statement in program.statements:
        for name in statement.input_names():
            consumers.setdefault(name, []).append(statement)

    build_sides, join_modes = plan_joins(program, build_side_overrides,
                                         set_bytes, broadcast_threshold)

    # Vector lists that force a pipeline cut when *consumed* — but no
    # pipeline reads an aggregation whose pairs go to the caller.
    results = _results(program, consumers)
    materialized = {
        statement.output for statement in program.statements
        if isinstance(statement, AggregateStmt)
        or len(consumers.get(statement.output, [])) > 1
    } - set(results)

    pipelines = []

    def follow(source_kind, source, start_vlist, entry=None):
        """Extend a pipeline from ``start_vlist`` until a sink.

        ``entry`` forces the first consuming statement (used when a
        materialized vector list fans out to several consumers, each of
        which heads its own pipeline).
        """
        stages, current = [], start_vlist

        def end(sink_kind, sink, result=None):
            pipelines.append(Pipeline(len(pipelines), source_kind, source,
                                      stages, sink_kind, sink, result))

        while True:
            if entry is not None:
                statement, entry = entry, None
            else:
                consuming = consumers.get(current, [])
                if len(consuming) != 1 or current in materialized:
                    return end(SINK_MATERIALIZE, current)
                statement = consuming[0]
            if isinstance(statement, (ApplyStmt, FilterStmt, HashStmt,
                                      FlattenStmt)):
                stages.append(statement)
                current = statement.output
            elif isinstance(statement, JoinStmt):
                left = build_sides[statement.output] == "left"
                if current == (statement.left_input if left
                               else statement.right_input):
                    return end(SINK_HASH_BUILD, statement)
                stages.append(statement)  # probe stage, pipeline continues
                current = statement.output
            elif isinstance(statement, AggregateStmt):
                return end(SINK_AGGREGATE, statement,
                           results.get(statement.output))
            elif isinstance(statement, OutputStmt):
                return end(SINK_OUTPUT, statement)
            else:
                raise PlanningError("cannot place statement %r"
                                    % type(statement).__name__)

    for statement in program.statements:
        if isinstance(statement, ScanStmt):
            follow(SOURCE_SCAN, statement, statement.output)
    for name in sorted(materialized):
        for consumer in consumers.get(name, []):
            follow(SOURCE_VLIST, name, name, entry=consumer)

    return PhysicalPlan(_topo_sort(pipelines), build_sides, join_modes)


def _results(program, consumers):
    """Aggregation output vlist -> the OUTPUT with no set that hands its
    pairs, through its ``pairUp`` alone, to the job's caller; a
    PlanningError if anything else in the job reads them too."""
    producers = {statement.output: statement for statement in program.statements}
    results = {}
    for output in program.statements:
        if isinstance(output, OutputStmt) and output.set_name is None:
            pair_up = producers.get(output.input_name)
            aggregate = producers.get(getattr(pair_up, "input_name", None))
            if not isinstance(aggregate, AggregateStmt) or (
                consumers[pair_up.output], consumers[aggregate.output]
            ) != ([output], [pair_up]):
                raise PlanningError(
                    "%s is read by more than the job's caller" % output.target)
            results[aggregate.output] = output
    return results


def _topo_sort(pipelines):
    """Order pipelines so every dependency runs before its consumer."""
    providers = {pipeline.provides(): pipeline for pipeline in pipelines}
    ordered, state = [], {}  # pipeline_id -> "visiting" | "done"

    def visit(pipeline):
        mark = state.get(pipeline.pipeline_id)
        if mark == "visiting":
            raise PlanningError("cyclic pipeline dependencies")
        if mark is None:
            state[pipeline.pipeline_id] = "visiting"
            for need in pipeline.depends_on():
                if need in providers:
                    visit(providers[need])
            state[pipeline.pipeline_id] = "done"
            ordered.append(pipeline)

    for pipeline in pipelines:
        visit(pipeline)
    return ordered
