"""A job stage is booked on every run.

The scheduler's ``_stage`` books ``pc_sched_stage_seconds``,
``pc_sched_stages_total`` and ``pc_sched_stage_cpu_seconds_total`` per
stage kind itself, as ``pc_sched_job_seconds`` is booked per job: with
tracing and profiling off, on both transports.
"""

import collections

import pytest

from repro.cluster import PCCluster
from repro.cluster.transport import remote_available
from repro.core import ObjectReader, Writer
from repro.tpch.lineitem import Q1Sum, load_lineitems

TRANSPORTS = [
    "sim",
    pytest.param("process", marks=pytest.mark.skipif(
        not remote_available(), reason="cloudpickle unavailable")),
]


def _series(snapshot, family):
    """``{stage kind: series}`` of one ``{stage}`` family."""
    return {
        dict(labels)["stage"]: value
        for labels, value in snapshot.families[family]["series"].items()
    }


@pytest.mark.parametrize("transport", TRANSPORTS)
def test_stage_series_are_booked_with_tracing_and_profiling_off(
        tmp_path, transport):
    with PCCluster(n_workers=2, page_size=1 << 16, transport=transport,
                   spill_root=str(tmp_path), tracing=False,
                   profiling=False) as cluster:
        load_lineitems(cluster, 2000, seed=3)
        # Written to a set, the aggregation has a consuming stage (a
        # job's result has none: its caller merges it).
        cluster.execute_computations(Writer("tpch", "q1").set_input(
            Q1Sum("quantity").set_input(ObjectReader("tpch", "lineitem"))))
        kinds = collections.Counter(
            stage.kind for stage in cluster.last_job_log
        )
        snapshot = cluster.metrics()
    assert kinds["AggregationJobStage"] >= 1
    assert _series(snapshot, "pc_sched_stages_total") == dict(kinds)
    seconds = _series(snapshot, "pc_sched_stage_seconds")
    assert {kind: series["count"] for kind, series in seconds.items()} \
        == dict(kinds)
    assert set(_series(snapshot, "pc_sched_stage_cpu_seconds_total")) \
        == set(kinds)
    assert "pc_op_seconds" not in snapshot.names()
