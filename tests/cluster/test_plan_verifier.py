"""Submit-time plan verification, a phase of ``execute_computations``.

A schema-mismatched plan must die in the ``verify`` phase — before any
stage is planned or dispatched, with no partial sink output — on both
the simulated and the process transports; valid plans run unchanged.
Verification is always on: there is no knob to ship a mistyped plan.
"""

import pytest

from repro.cluster import PCCluster
from repro.cluster import cluster as cluster_module
from repro.cluster.transport import remote_available
from repro.core import (
    ObjectReader,
    SelectionComp,
    Writer,
    lambda_from_member,
)
from repro.errors import PlanTypeError, SetNotFoundError
from repro.schema import Schema, f64, i64

TRANSPORTS = [
    "sim",
    pytest.param(
        "process",
        marks=pytest.mark.skipif(
            not remote_available(), reason="cloudpickle unavailable"
        ),
    ),
]

POINT_SCHEMA = Schema([("pid", i64), ("x", f64)])


class GoodSelection(SelectionComp):
    def get_selection(self, arg):
        return lambda_from_member(arg, "x") > 10.0

    def get_projection(self, arg):
        return lambda_from_member(arg, "x")


class MistypedSelection(SelectionComp):
    """Names a column the points schema does not have."""

    def get_selection(self, arg):
        return lambda_from_member(arg, "z") > 10.0

    def get_projection(self, arg):
        return lambda_from_member(arg, "x")


def make_cluster(tmp_path, subdir, transport, **kwargs):
    root = tmp_path / subdir
    root.mkdir(exist_ok=True)
    return PCCluster(n_workers=2, page_size=1 << 12, spill_root=str(root),
                     transport=transport, **kwargs)


def _load_points(cluster, n=64):
    cluster.create_database("db")
    cluster.create_set("db", "points", schema=POINT_SCHEMA)
    with cluster.loader("db", "points") as load:
        for i in range(n):
            load.append(pid=i, x=float(i))


@pytest.mark.parametrize("transport", TRANSPORTS)
def test_mistyped_plan_is_rejected_at_submit(tmp_path, transport):
    cluster = make_cluster(tmp_path, "reject", transport)
    try:
        _load_points(cluster)
        sel = MistypedSelection().set_input(ObjectReader("db", "points"))
        with pytest.raises(PlanTypeError, match="'z'"):
            cluster.execute_computations(Writer("db", "out").set_input(sel))
        # Rejected before dispatch: no stage ever ran...
        assert cluster.last_job_log is None
        # ...and the sink set was never even created, let alone
        # partially written.
        with pytest.raises(SetNotFoundError):
            cluster.read("db", "out")
    finally:
        cluster.close()


@pytest.mark.parametrize("transport", TRANSPORTS)
def test_valid_plan_runs_and_records_verify_phase(tmp_path, transport):
    cluster = make_cluster(tmp_path, "accept", transport)
    try:
        _load_points(cluster)
        sel = GoodSelection().set_input(ObjectReader("db", "points"))
        cluster.execute_computations(Writer("db", "out").set_input(sel))
        assert sorted(cluster.read("db", "out")) == [
            float(i) for i in range(11, 64)
        ]
        phases = {span.name for span in cluster.last_trace.spans(kind="phase")}
        assert "verify" in phases
    finally:
        cluster.close()


def test_error_names_the_offending_statement(tmp_path):
    cluster = make_cluster(tmp_path, "message", "sim")
    try:
        _load_points(cluster)
        sel = MistypedSelection().set_input(ObjectReader("db", "points"))
        with pytest.raises(PlanTypeError) as excinfo:
            cluster.execute_computations(Writer("db", "out").set_input(sel))
        message = str(excinfo.value)
        assert "attAccess" in message
        assert "APPLY" in message  # the statement's TCAP text rides along
    finally:
        cluster.close()


def test_the_plan_is_verified_unmarked_and_marked_while_planning(
        tmp_path, monkeypatch):
    """The verifier sees the plan before ``mark_columnar`` does, so it
    has no mark to re-derive; the marks are made in the ``plan`` phase."""
    seen = []
    verify, mark = cluster_module.verify_program, cluster_module.mark_columnar

    def verifying(program, **kwargs):
        seen.append(("verify", any(s.info.get("columnar") == "1"
                                   for s in program.statements)))
        return verify(program, **kwargs)

    def marking(program, layout_of):
        seen.append(("mark", cluster.tracer.active.name))
        return mark(program, layout_of)

    monkeypatch.setattr(cluster_module, "verify_program", verifying)
    monkeypatch.setattr(cluster_module, "mark_columnar", marking)
    cluster = make_cluster(tmp_path, "order", "sim")
    try:
        _load_points(cluster)
        sel = GoodSelection().set_input(ObjectReader("db", "points"))
        cluster.execute_computations(Writer("db", "out").set_input(sel))
        marked = [s for s in cluster.last_program.statements
                  if s.info.get("columnar") == "1"]
    finally:
        cluster.close()
    assert seen == [("verify", False), ("mark", "plan")]
    assert marked
