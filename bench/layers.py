"""Per-layer metrics derived from the traced round's evidence.

Inputs are the engine's own public outputs — job traces, two
``cluster.metrics()`` snapshots, the catalog journal — plus the bench-side
spans; nothing here times anything itself.
"""

from __future__ import annotations

import cProfile
import pstats
import re
from statistics import median

from bench.spec import PROFILE_PACKAGES

_STAGE_KINDS = ("PipelineJobStage", "AggregationJobStage",
                "BuildHashTableJobStage")
_OPERATORS = ("apply", "filter", "flatten", "hash", "join")

#: per-op deltas of engine counters: metric name -> pc_* family
_COUNTER_DELTAS = {
    "cluster.shuffle_bytes_per_op": "pc_net_bytes_total",
    "engine.rows_in_per_op": "pc_engine_rows_in_total",
    "engine.batches_per_op": "pc_engine_batches_total",
    "engine.zombie_pages_per_op": "pc_engine_zombie_pages_total",
    "memory.allocs_per_op": "pc_alloc_allocations_total",
    "storage.pins_per_op": "pc_pool_pages_pinned_total",
    "storage.reloads_per_op": "pc_pool_reloads_total",
    "storage.spills_per_op": "pc_pool_spills_total",
    "storage.evictions_per_op": "pc_pool_evictions_total",
    "storage.replica_writes_per_op": "pc_repl_replica_writes_total",
}


def counter_layers(before, after, n_ops):
    """Metrics that are deltas of ``cluster.metrics()`` counters per op."""
    def delta(family):
        return after.value(family) - before.value(family)

    out = {
        name: delta(family) / n_ops
        for name, family in _COUNTER_DELTAS.items()
    }
    out["cluster.retries_per_op"] = (
        delta("pc_net_transfer_retries_total")
        + delta("pc_faults_tasks_recovered_total")
    ) / n_ops
    out["cluster.reforks"] = after.value("pc_worker_reforks_total")
    pins = delta("pc_pool_pages_pinned_total")
    out["storage.hit_ratio"] = (
        1.0 - delta("pc_pool_reloads_total") / pins if pins else 1.0
    )
    return out


def _task_seconds(task):
    """A coordinator task span's work: the child-reported span when the
    task ran in a back-end process, else the span itself."""
    remote = [c for c in task.children if c.kind == "task"]
    if remote:
        return max(c.duration_s for c in remote), True
    return task.duration_s, False


def trace_layers(jobs, spans, n_ops):
    """Metrics read off the job traces and the bench-side spans."""
    front = stages_total = wait = rows_out = n_spans = 0.0
    operator_rows = columnar_rows = 0.0
    skew_max = skew_median = 0.0
    stage_s = dict.fromkeys(_STAGE_KINDS, 0.0)
    op_s = dict.fromkeys(_OPERATORS, 0.0)
    for job in jobs:
        root = job["trace"].root
        totals = root.totals()
        rows_out += totals.get("engine.rows_out", 0)
        for name in _OPERATORS:
            # operators the coordinator ran inline report as counters,
            # those a back-end process ran as grafted ``op`` spans
            op_s[name] += totals.get("op.%s.wall_ms" % name, 0.0) / 1e3
            operator_rows += totals.get("op.%s.rows" % name, 0)
            columnar_rows += totals.get("op.%s.columnar_rows" % name, 0)
        operator_rows += totals.get("op.rows_in", 0)
        for span in root.walk():
            n_spans += 1
            if span.kind == "phase":
                front += span.duration_s
            elif span.kind == "op" and span.name in op_s:
                op_s[span.name] += span.duration_s
            elif span.kind == "stage":
                stages_total += span.duration_s
                if span.name in stage_s:
                    stage_s[span.name] += span.duration_s
                tasks = [_task_seconds(c) for c in span.children
                         if c.kind == "task"]
                remote = [s for s, is_remote in tasks if is_remote]
                if remote:
                    wait += max(0.0, span.duration_s - max(remote))
                if len(tasks) > 1:
                    seconds = [s for s, _r in tasks]
                    skew_max += max(seconds)
                    skew_median += median(seconds)

    by_name = {}
    op_total = covered = 0.0
    op_span_ids = {s["id"] for s in spans if s["name"] == "op"}
    for span in spans:
        duration = span["end"] - span["start"]
        if span["name"] == "op":
            op_total += duration
            continue
        by_name[span["name"]] = by_name.get(span["name"], 0.0) + duration
        if span["parent"] in op_span_ids:
            covered += duration

    out = {
        "tcap.front_ms": front * 1e3 / n_ops,
        "tcap.statements": sum(j["statements"] for j in jobs) / n_ops,
        "cluster.jobs_per_op": len(jobs) / n_ops,
        "cluster.coord_s_per_op": (op_total - stages_total) / n_ops,
        "cluster.task_wait_s_per_op": wait / n_ops,
        "cluster.task_skew": skew_max / skew_median if skew_median else 1.0,
        "cluster.read_ms_per_op": by_name.get("read", 0.0) * 1e3 / n_ops,
        "cluster.clear_ms_per_op": (
            by_name.get("clear_set", 0.0) + by_name.get("drop_set", 0.0)
        ) * 1e3 / n_ops,
        "cluster.unaccounted_share": 1.0 - covered / op_total,
        "engine.rows_out_per_op": rows_out / n_ops,
        "engine.columnar_share": (
            columnar_rows / operator_rows if operator_rows else 0.0
        ),
        "obs.spans_per_op": n_spans / n_ops,
    }
    for kind, seconds in stage_s.items():
        out["cluster.stage_s.%s" % kind] = seconds / n_ops
    for name, seconds in op_s.items():
        out["engine.op_s.%s" % name] = seconds / n_ops
    return out


_PACKAGE = re.compile(r"/repro/(\w+?)(?:\.py|/)")
_TOOLS = {"tpch", "ml", "lillinalg"}


def profile_layers(fn, rows):
    """Run ``fn`` under cProfile; ``tottime`` shares by source package.

    Shares sum to 1 by construction; the primitive call count repeats
    exactly from run to run, so it is the count-type metric a later
    change may name.
    """
    profiler = cProfile.Profile()
    profiler.enable()
    try:
        fn()
    finally:
        profiler.disable()
    stats = pstats.Stats(profiler).stats
    self_s = dict.fromkeys(PROFILE_PACKAGES, 0.0)
    calls = 0
    for (filename, _line, _name), (primitive, _n, tottime, _c, _callers) \
            in stats.items():
        calls += primitive
        match = _PACKAGE.search(filename.replace("\\", "/"))
        package = match.group(1) if match else "other"
        if package in _TOOLS:
            package = "tools"
        elif package not in self_s:
            package = "other"
        self_s[package] += tottime
    total = sum(self_s.values())
    out = {
        "prof.self_share.%s" % package: seconds / total
        for package, seconds in self_s.items()
    }
    out["prof.calls_per_row"] = calls / rows
    return out
