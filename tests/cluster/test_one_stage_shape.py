"""One stage shape: every pipeline runs through the segment-aware runner.

A build pipeline is a pipeline like any other (DESIGN §11 "One stage
shape"): it is cut at a partitioned probe, and what it sends into its
exchange is packed by the task that holds the rows.  The regression
tests run joins whose build side is itself a join — on the parent a
build task probed its worker's shard of a partitioned table with rows
nobody had re-partitioned, and half the result went missing without an
error.  The property test generates join trees; its ``@example``s are
that bug and the optimizer bug its reproducer tripped over: directed
seeds of the ROADMAP's whole-plan generator.
"""

import contextlib
import itertools
import os
import zlib

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.cluster import DEFAULT_BROADCAST_THRESHOLD, PCCluster
from repro.cluster import scheduler as scheduler_module
from repro.cluster.transport import remote_available
from repro.core import (
    JoinComp,
    ObjectReader,
    SelectionComp,
    Writer,
    lambda_from_member,
    lambda_from_native,
)
from repro.engine import LocalInterpreter, run_local
from repro.engine import pipeline as pipeline_module
from repro.engine.physical import SINK_HASH_BUILD, SOURCE_VLIST
from repro.memory import Int32, PCObject
from repro.schema import Schema
from repro.tcap import compile_computations
from repro.tcap.ir import JoinStmt

from test_backend_pages import _etl, _run_and_dump

TRANSPORTS = [
    "sim",
    pytest.param(
        "process",
        marks=pytest.mark.skipif(
            not remote_available(), reason="cloudpickle unavailable"
        ),
    ),
]


class Rel(PCObject):
    """Every relation: two join keys and the row's position."""

    fields = [("x", Int32), ("y", Int32), ("id", Int32)]


class _Row:
    """A ``Rel`` for the local executors."""

    def __init__(self, x, y, id):
        self.x, self.y, self.id = x, y, id


def _leaves(row):
    """A join tree's row: one ``(x, y, id)`` per leaf relation under it,
    left to right (a stored object is its own one leaf)."""
    return row if isinstance(row, tuple) else ((row.x, row.y, row.id),)


class TreeJoin(JoinComp):
    """An equi-join of two subtrees.  A key is ``(leaf, field, member)``:
    ``field`` of the ``leaf``-th relation under that side, read by a
    member lambda (a stored relation only) or an opaque one."""

    def __init__(self, left_key, right_key):
        super().__init__()
        self.keys = (left_key, right_key)

    @staticmethod
    def _key(arg, key):
        leaf, field, member = key
        if member:
            return lambda_from_member(arg, field)
        column = "xy".index(field)
        return lambda_from_native(
            [arg], lambda row: _leaves(row)[leaf][column]
        )

    def get_selection(self, left, right):
        return self._key(left, self.keys[0]) == self._key(right, self.keys[1])

    def get_projection(self, left, right):
        return lambda_from_native(
            [left, right], lambda a, b: _leaves(a) + _leaves(b)
        )


def _graph(tree):
    """``tree`` is a relation's index, or ``(left, right, left key,
    right key, build side)``.  Returns the writer and every join with
    the side its table is built from."""
    joins = []

    def comp_of(node):
        if isinstance(node, int):
            return ObjectReader("db", "r%d" % node)
        left, right, left_key, right_key, build = node
        join = TreeJoin(left_key, right_key)
        join.set_input(0, comp_of(left)).set_input(1, comp_of(right))
        joins.append((join, build))
        return join

    return Writer("db", "out").set_input(comp_of(tree)), joins


@contextlib.contextmanager
def _table_builds():
    """Counts every ``hash_rows_into`` call: the receiver's, and (on the
    simulator, where a task runs in this process) any a task makes."""
    calls = []
    fold = pipeline_module.hash_rows_into

    def counting(table, rows):
        calls.append(1)
        return fold(table, rows)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(pipeline_module, "hash_rows_into", counting)
        patch.setattr(scheduler_module, "hash_rows_into", counting)
        yield calls


def _loaded_cluster(tmp_path, relations, columnar=(), **cluster_args):
    """A cluster holding ``relations`` (lists of ``(x, y)``) as sets
    ``db.r0``, ``db.r1``, ...; those whose index is in ``columnar`` are
    created with ``Rel``'s schema."""
    cluster = PCCluster(spill_root=str(tmp_path), **cluster_args)
    cluster.create_database("db")
    for index, rows in enumerate(relations):
        schema = Schema.from_class(Rel) if index in columnar else None
        cluster.create_set("db", "r%d" % index, Rel, schema=schema)
        with cluster.loader("db", "r%d" % index) as load:
            for position, (x, y) in enumerate(rows):
                load.append(Rel, x=x, y=y, id=position)
    return cluster


def _check(tmp_path, relations, tree, threshold, n_workers, transport="sim",
           page_size=1 << 12, columnar=()):
    """Run ``tree`` over ``relations`` (lists of ``(x, y)``; the indices
    in ``columnar`` stored columnar) on a cluster — whose verifier must
    accept the plan — and require the reference interpreter's rows from
    it and from the local engine, every table built once per worker.
    Returns the rows."""
    writer, joins = _graph(tree)
    program = compile_computations(writer)
    build_sides = {
        statement.output: build
        for statement in program.statements if isinstance(statement, JoinStmt)
        for join, build in joins if join.name == statement.computation
    }
    assert len(build_sides) == len(joins)
    sources = {
        ("db", "r%d" % index): [
            _Row(x, y, position) for position, (x, y) in enumerate(rows)
        ]
        for index, rows in enumerate(relations)
    }
    expected = sorted(
        LocalInterpreter(program, sources).run().get(("db", "out"), [])
    )
    local, _program, _metrics = run_local(
        writer, sources, build_side_overrides=build_sides
    )
    assert sorted(local.get(("db", "out"), [])) == expected
    cluster = _loaded_cluster(
        tmp_path, relations, columnar, n_workers=n_workers,
        page_size=page_size, transport=transport,
        broadcast_threshold=threshold,
    )
    try:
        with _table_builds() as builds:
            cluster.execute_computations(
                writer, build_side_overrides=build_sides
            )
        assert sorted(cluster.read("db", "out")) == expected
        assert len(builds) == len(joins) * n_workers
    finally:
        cluster.close()
    return expected


# -- the hidden bug: a join that builds from a join --------------------------------------

#: A(k, a) x120, B(k, j) x90, C(j, c) x400 — as ``(x, y)``: A.x = B.x = k,
#: B.y = C.x = j.
A = [(i % 17, 0) for i in range(120)]
B = [(i % 17, i % 13) for i in range(90)]
C = [(i % 13, 0) for i in range(400)]
D = [(i % 5, 0) for i in range(7)]

NATIVE_X = (0, "x", False)
AB = (0, 1, NATIVE_X, NATIVE_X, "right")
#: C joins AB on j, the table built from AB: the pipeline that scans A
#: probes AB's table on its way into CAB's.
CAB = (2, AB, NATIVE_X, (1, "y", False), "right")
#: The same with AB as input 0.
ABC = (AB, 2, (1, "y", False), NATIVE_X, "left")
#: D's one build pipeline scans A, probes AB's table, then ABC's (built
#: from C): two partitioned probes inside a build.
DABC = (3, (AB, 2, (1, "y", False), NATIVE_X, "right"),
        NATIVE_X, (0, "x", False), "right")

THRESHOLDS = [0, DEFAULT_BROADCAST_THRESHOLD]


@pytest.mark.parametrize("transport", TRANSPORTS)
@pytest.mark.parametrize("n_workers", [1, 2, 3])
@pytest.mark.parametrize("threshold", THRESHOLDS)
def test_join_built_from_a_join_loses_no_rows(tmp_path, threshold, n_workers,
                                              transport):
    # On the parent: 9,786 rows on two workers and 7,045 on three with
    # ``threshold=0``, on either transport, without an error.
    rows = _check(tmp_path, [A, B, C], CAB, threshold, n_workers, transport)
    assert len(rows) == 19575


@pytest.mark.parametrize("transport", TRANSPORTS)
@pytest.mark.parametrize("threshold", THRESHOLDS)
@pytest.mark.parametrize("tree, n_rows", [(ABC, 19575), (DABC, 9435)],
                         ids=["mirrored", "two-probes-in-a-build"])
def test_build_pipelines_are_cut_at_every_partitioned_probe(
        tmp_path, tree, n_rows, threshold, transport):
    rows = _check(tmp_path, [A, B, C, D], tree, threshold, 3, transport)
    assert len(rows) == n_rows


@pytest.mark.parametrize("columnar", [(), (0, 1, 2)],
                         ids=["row", "columnar"])
def test_a_scheduled_build_task_returns_an_outbox_and_no_table(
        tmp_path, monkeypatch, columnar):
    """What a build task seals is what its worker sends — ``n`` message
    lists of ``(hash, *carried)`` rows — and partition mode cuts the
    build pipeline where it probes: one more round of tasks, each
    ending in the same sink over the probe side — ``(probe hash,
    *carried)`` rows, each in partition ``probe hash % n``."""
    kinds = {}
    seal = pipeline_module.HashBuildSink.seal
    for mode, threshold in (("broadcast", DEFAULT_BROADCAST_THRESHOLD),
                            ("partition", 0)):
        cluster = _loaded_cluster(
            tmp_path / mode, [A, B, C], columnar, n_workers=2,
            page_size=1 << 12, transport="sim", broadcast_threshold=threshold,
        )
        try:
            sealed = {"build": [], "probe": []}

            def spy(sink, sealed=sealed):
                seal(sink)
                side = sink.exchange[1]
                sides = dict(zip(("build", "probe"), pipeline_module.join_sides(
                    sink.engine.plan, sink.join)))
                assert (sink.hash_column, sink.columns) == sides[side]
                sealed[side].append((len(sink.columns), sink.state))

            monkeypatch.setattr(pipeline_module.HashBuildSink, "seal", spy)
            cluster.execute_computations(_graph(CAB)[0])
            assert len(sealed["build"]) == 2 * 2  # two joins, two workers
            # A cut before each partitioned probe: CAB's build pipeline
            # probes AB, the writing pipeline probes CAB.
            assert len(sealed["probe"]) == (0 if mode == "broadcast" else 2 * 2)
            for side, outboxes in sealed.items():
                for carried, outbox in outboxes:
                    assert isinstance(outbox, list) and len(outbox) == 2
                    for partition, messages in enumerate(outbox):
                        for rows in messages:
                            assert rows and all(
                                len(row) == 1 + carried and (
                                    mode == "broadcast" and side == "build"
                                    or row[0] % 2 == partition)
                                for row in rows
                            )
            kinds[mode] = len(list(cluster.last_trace.spans(kind="task")))
            assert [stage.kind for stage in cluster.last_job_log] == [
                "BuildHashTableJobStage", "BuildHashTableJobStage",
                "PipelineJobStage",
            ]
        finally:
            cluster.close()
    # AB's build; CAB's build (cut once when AB is partitioned); the
    # probe pipeline (cut once when CAB is) — on two workers.
    assert kinds == {"broadcast": 3 * 2, "partition": 5 * 2}


# -- a build over a materialized vector list -------------------------------------------


class Leaf(SelectionComp):
    """The rows with ``x < 9`` as join-tree leaves: one computation that
    feeds both inputs of a self-join, so its output is a materialized
    vector list and the build pipeline starts from it, not from a scan."""

    def get_selection(self, arg):
        return lambda_from_native([arg], lambda row: row.x < 9)

    def get_projection(self, arg):
        return lambda_from_native(
            [arg], lambda row: ((row.x, row.y, row.id),)
        )


@pytest.mark.parametrize("transport", TRANSPORTS)
@pytest.mark.parametrize("threshold", [0, 1 << 30])
def test_a_build_over_a_materialized_vector_list(tmp_path, threshold,
                                                 transport):
    """The plan sizes a materialized input by the set at the head of the
    pipeline that produced it: ``B``'s recorded bytes, over or under the
    threshold — and the build stage runs the mode the plan chose."""
    leaf = Leaf().set_input(ObjectReader("db", "r0"))
    join = TreeJoin(NATIVE_X, (0, "y", False))
    writer = Writer("db", "out").set_input(
        join.set_input(0, leaf).set_input(1, leaf)
    )
    sources = {("db", "r0"): [_Row(x, y, i) for i, (x, y) in enumerate(B)]}
    expected = sorted(LocalInterpreter(
        compile_computations(writer), sources
    ).run()[("db", "out")])
    assert expected
    cluster = _loaded_cluster(
        tmp_path, [B], n_workers=2, page_size=1 << 12, transport=transport,
        broadcast_threshold=threshold,
    )
    try:
        cluster.execute_computations(writer)
        (build,) = [
            pipeline for pipeline in cluster.last_plan
            if pipeline.sink_kind == SINK_HASH_BUILD
        ]
        assert build.source_kind == SOURCE_VLIST
        mode = "broadcast" if threshold else "partition"
        assert cluster.last_plan.join_modes == {build.sink.output: mode}
        assert [
            stage.detail for stage in cluster.last_job_log
            if stage.kind == "BuildHashTableJobStage"
        ] == ["%s join build for %s" % (mode, build.sink.output)]
        assert sorted(cluster.read("db", "out")) == expected
    finally:
        cluster.close()


# -- generated join trees ---------------------------------------------------------------

_generated = itertools.count(1)
keys = st.one_of(st.just(0), st.integers(0, 3))  # skewed towards one key
relation = st.lists(st.tuples(keys, keys), max_size=9)


@st.composite
def join_cases(draw):
    """2-4 relations (empty ones too) under a random join tree —
    left-deep, right-deep or bushy, either build side, member or opaque
    key lambdas."""
    relations = draw(st.lists(relation, min_size=2, max_size=4))
    forest = [(index, 1) for index in range(len(relations))]

    def take():
        tree, leaves = forest.pop(draw(st.integers(0, len(forest) - 1)))
        key = (
            draw(st.integers(0, leaves - 1)), draw(st.sampled_from("xy")),
            leaves == 1 and draw(st.booleans()),
        )
        return tree, leaves, key

    while len(forest) > 1:
        left, left_leaves, left_key = take()
        right, right_leaves, right_key = take()
        forest.append((
            (left, right, left_key, right_key,
             draw(st.sampled_from(["left", "right"]))),
            left_leaves + right_leaves,
        ))
    return relations, forest[0][0]


@pytest.fixture(scope="module")
def plan_count(request):
    """Says how many generated plans the module ran (the ROADMAP's
    whole-plan generator)."""
    yield
    capture = request.config.pluginmanager.getplugin("capturemanager")
    with capture.global_and_fixture_disabled():
        print("\n%d generated join plans ran and verified"
              % (next(_generated) - 1))


@settings(max_examples=40, deadline=None)
@given(join_cases(), st.sampled_from(THRESHOLDS), st.integers(1, 3),
       st.sets(st.integers(0, 3)))
# Directed seeds of the ROADMAP's whole-plan generator: the two bugs the
# one-stage-shape consolidation walked into, in the generator's vocabulary.
@example(([A, B, C], CAB), 0, 2, set())
@example(([A, B, C], (2, AB, (0, "x", True), (1, "y", False), "right")), 0, 3,
         set())
# The hand-written join trees above, every relation columnar.
@example(([A, B, C], CAB), 0, 3, {0, 1, 2})
@example(([A, B, C, D], ABC), 0, 3, {0, 1, 2})
@example(([A, B, C, D], DABC), 0, 2, {0, 1, 2, 3})
def test_generated_join_trees_match_the_interpreter(
        tmp_path_factory, plan_count, case, threshold, n_workers, columnar):
    """``columnar``: which relations are stored columnar (a layout per
    relation, so one tree mixes them)."""
    relations, tree = case
    _check(
        tmp_path_factory.mktemp("tree"), relations, tree, threshold,
        n_workers, page_size=256, columnar=columnar,
    )
    next(_generated)


# -- what the existing parity jobs leave did not move ------------------------------------


@pytest.mark.parametrize("threshold, at_parent", [
    (DEFAULT_BROADCAST_THRESHOLD, (3204004258, 3000, 508568)),
    (0, (3204004258, 3000, 603928)),
], ids=["broadcast", "partition"])
def test_etl_parity_job_leaves_and_moves_what_it_did(tmp_path, threshold,
                                                     at_parent):
    """The selection + join of ``test_backend_pages`` /
    ``test_gather_parity`` (which hold sim = process = unmarked): the
    sealed output pages, the joined rows and the bytes moved between
    workers are the parent commit's.  A deliberate change of the page
    format or the row wire re-measures them; so did the loader's pages
    when ``append`` began reserving each page's root once for its count
    (the loaded sets' pages shrank, and with them the pages read and
    moved), the engine's halving cut when the job stopped setting a
    batch size: every page holds the objects it held, but the failed
    attempt that fills a zombie page is a 512-row cut, not 256 rows, so
    its dead space differs — and the selection's pages when the objects
    a stage makes began waiting in the writer's window: they are written
    as the loader writes its records, the root sized once, no zombie
    page."""
    pages, python, shuffled = _run_and_dump(
        tmp_path, "sim", _etl, page_size=1 << 15,
        broadcast_threshold=threshold,
    )
    crc = 0
    for key in sorted(pages):
        for data in pages[key]:
            crc = zlib.crc32(data, crc)
    if os.environ.get("PC_SANITIZE") == "1":
        crc = at_parent[0]  # PCSan's poison is in the bytes
    assert (crc, len(python[1]), shuffled) == at_parent
