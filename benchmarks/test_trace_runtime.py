"""The per-job runtime trace: the numbers behind Figures 4 and 5.

Runs a representative selection + aggregation + join workload on the
simulated cluster and exports the job traces as ``BENCH_trace.json`` in
the repository root — per-stage wall times, engine tuple counts,
buffer-pool activity, and the network's zero-copy/row byte split with a
per-link breakdown.  This file seeds the performance trajectory: future
PRs that touch a hot path re-run it and diff the stage timings.
"""

from __future__ import annotations

import json
import os

import pytest

from repro.cluster import PCCluster
from repro.core import (
    AggregateComp,
    JoinComp,
    ObjectReader,
    SelectionComp,
    Writer,
    lambda_from_member,
    lambda_from_native,
)
from repro.memory import Float64, Int32, Int64, PCObject, String
from repro.obs import render_trace

from bench_utils import report

BENCH_PATH = os.path.join(
    os.path.dirname(__file__), os.pardir, "BENCH_trace.json"
)

N_POINTS = 1200
N_CLUSTERS = 8


class Point(PCObject):
    fields = [("pid", Int32), ("cluster_id", Int32), ("x", Float64)]


class Tag(PCObject):
    fields = [("cluster_id", Int32), ("tag", String)]


class Positive(SelectionComp):
    def get_selection(self, arg):
        return lambda_from_member(arg, "x") > 0.0


class SumByCluster(AggregateComp):
    key_type = Int64
    value_type = Float64

    def get_key_projection(self, arg):
        return lambda_from_member(arg, "cluster_id")

    def get_value_projection(self, arg):
        return lambda_from_member(arg, "x")


class TagJoin(JoinComp):
    def get_selection(self, tag, point):
        return lambda_from_member(tag, "cluster_id") == \
            lambda_from_member(point, "cluster_id")

    def get_projection(self, tag, point):
        return lambda_from_native(
            [tag, point], lambda t, p: (p.pid, t.tag)
        )


def _load(cluster):
    cluster.create_database("db")
    cluster.create_set("db", "points", Point)
    cluster.create_set("db", "tags", Tag)
    with cluster.loader("db", "points") as load:
        for i in range(N_POINTS):
            load.append(Point, pid=i, cluster_id=i % N_CLUSTERS,
                        x=float(i % 50) - 10.0)
    with cluster.loader("db", "tags") as load:
        for c in range(N_CLUSTERS):
            load.append(Tag, cluster_id=c, tag="T%d" % c)


def _stage_rows(trace):
    rows = []
    for span in trace.spans(kind="stage"):
        totals = span.totals()
        rows.append({
            "stage": span.name,
            "detail": span.detail,
            "wall_s": round(span.duration_s, 6),
            "rows_in": totals.get("engine.rows_in", 0),
            "rows_out": totals.get("engine.rows_out", 0),
            "pages_pinned": totals.get("pool.pages_pinned", 0),
            "net_bytes_zero_copy": totals.get("net.bytes_zero_copy", 0),
            "net_bytes_rows": totals.get("net.bytes_rows", 0),
        })
    return rows


@pytest.mark.benchmark(group="trace")
def test_trace_runtime_writes_bench_json(benchmark):
    cluster = PCCluster(n_workers=4, page_size=1 << 13)
    _load(cluster)

    jobs = {}

    # Job 1: selection + aggregation (the Figure 5 shuffle).
    agg = SumByCluster().set_input(
        Positive().set_input(ObjectReader("db", "points"))
    )
    cluster.execute_computations(
        Writer("db", "sums").set_input(agg), job_name="agg-sums"
    )
    jobs["agg-sums"] = cluster.last_trace

    # Job 2: a partitioned join (structured-row shuffle traffic).
    cluster.broadcast_threshold = 0
    join = TagJoin() \
        .set_input(0, ObjectReader("db", "tags")) \
        .set_input(1, ObjectReader("db", "points"))
    cluster.execute_computations(
        Writer("db", "tagged").set_input(join), job_name="tag-join"
    )
    jobs["tag-join"] = cluster.last_trace

    # Sanity: the workload actually computed something.
    sums = cluster.read("db", "sums", as_pairs=True, comp=agg)
    assert len(sums) == N_CLUSTERS
    assert cluster.read("db", "tagged")

    payload = {
        "benchmark": "trace_runtime",
        "workload": {
            "n_workers": 4,
            "n_points": N_POINTS,
            "n_clusters": N_CLUSTERS,
        },
        "jobs": {
            name: {
                "wall_s": round(trace.root.duration_s, 6),
                "stages": _stage_rows(trace),
                "counters": trace.totals(),
                "trace": trace.to_dict(),
            }
            for name, trace in jobs.items()
        },
    }
    with open(BENCH_PATH, "w") as f:
        json.dump(payload, f, indent=2, sort_keys=True)
        f.write("\n")

    # The machine-readable trace must round-trip and carry the headline
    # quantities every future perf PR diffs against.
    with open(BENCH_PATH) as f:
        parsed = json.load(f)
    for name, job in parsed["jobs"].items():
        assert job["wall_s"] > 0
        assert job["stages"], name
        assert all(s["wall_s"] >= 0 for s in job["stages"])
    assert parsed["jobs"]["agg-sums"]["counters"]["net.bytes_zero_copy"] > 0
    assert parsed["jobs"]["tag-join"]["counters"]["net.bytes_rows"] > 0
    assert any(
        key.startswith("net.link_bytes.")
        for key in parsed["jobs"]["agg-sums"]["counters"]
    )

    report("trace_runtime", "\n\n".join(
        "=== %s ===\n%s" % (name, render_trace(trace))
        for name, trace in jobs.items()
    ))

    # One representative operation for pytest-benchmark stats.
    benchmark(lambda: cluster.execute_computations(
        Writer("db", "sums2").set_input(
            SumByCluster().set_input(
                Positive().set_input(ObjectReader("db", "points"))
            )
        ),
        job_name="agg-sums-bench",
    ))


# -- tracing overhead budget (PR 9) -----------------------------------------------
#
# Distributed tracing must stay effectively free: the same workload on
# identical clusters with the tracer enabled and disabled (the null
# tracer — no spans, no trace ring), interleaved best-of-N so machine
# noise hits both arms equally.  The measured fraction lands in
# BENCH_trace.json's "tracing_overhead" section and CI fails over 5%.

TRIALS = 7
OVERHEAD_BUDGET = 0.05


def _overhead_cluster(tracing):
    cluster = PCCluster(n_workers=4, page_size=1 << 13, tracing=tracing)
    _load(cluster)
    return cluster


def _overhead_job(cluster, job_name):
    import time

    computation = Writer("db", job_name).set_input(
        SumByCluster().set_input(
            Positive().set_input(ObjectReader("db", "points"))
        )
    )
    start = time.perf_counter()
    cluster.execute_computations(computation, job_name=job_name)
    return time.perf_counter() - start


@pytest.mark.benchmark(group="trace")
def test_tracing_overhead_within_budget(benchmark):
    times = {False: [], True: []}
    clusters = {False: _overhead_cluster(False),
                True: _overhead_cluster(True)}
    for tracing, cluster in clusters.items():
        _overhead_job(cluster, "warmup")
    for trial in range(TRIALS):
        for tracing, cluster in clusters.items():
            times[tracing].append(
                _overhead_job(cluster, "run-%d" % trial)
            )

    off = min(times[False])
    on = min(times[True])
    overhead = (on - off) / off

    # The traced arm really did trace; the untraced arm really did not.
    assert clusters[True].last_trace is not None
    assert clusters[True].last_trace.totals()["engine.rows_in"] > 0
    assert clusters[False].last_trace is None
    assert clusters[False].traces(5) == []

    section = {
        "trials": TRIALS,
        "wall_s_tracing_off": round(off, 6),
        "wall_s_tracing_on": round(on, 6),
        "overhead_fraction": round(overhead, 6),
        "overhead_budget": OVERHEAD_BUDGET,
        "samples": {
            "off": [round(t, 6) for t in times[False]],
            "on": [round(t, 6) for t in times[True]],
        },
    }
    try:
        with open(BENCH_PATH) as f:
            payload = json.load(f)
    except (OSError, ValueError):
        payload = {"benchmark": "trace_runtime"}
    payload["tracing_overhead"] = section
    with open(BENCH_PATH, "w") as f:
        json.dump(payload, f, indent=2, sort_keys=True)
        f.write("\n")

    report("trace_overhead", (
        "tracing off (best of %d): %.4fs\n"
        "tracing on  (best of %d): %.4fs\n"
        "overhead: %.2f%% (budget %.0f%%)"
        % (TRIALS, off, TRIALS, on, 100 * overhead,
           100 * OVERHEAD_BUDGET)
    ))

    assert overhead <= OVERHEAD_BUDGET, (
        "tracing overhead %.2f%% exceeds the %.0f%% budget"
        % (100 * overhead, 100 * OVERHEAD_BUDGET)
    )

    benchmark(lambda: _overhead_job(clusters[True], "bench"))
