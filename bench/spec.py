"""Names, units and bounds of every metric and workload.

``BENCHMARK.json`` at the repository root repeats these tables for the
driver; ``bench/tests/test_smoke.py`` checks the two agree.
"""

from __future__ import annotations

#: (name, why) — one workload per layer, where that layer is most of the work.
WORKLOADS = [
    ("tpch_objects",
     "nested Customer trees on row pages: handle field reads, Vector/Map/"
     "String walks, the PC-Map aggregation sink and shuffle do the work; "
     "no kernel runs"),
    ("lineitem_columnar",
     "400k flat rows on columnar pages: page decode and engine.kernels "
     "dominate; the object read path is bypassed"),
    ("kmeans_iter",
     "nine small columnar jobs per op: compile/verify/plan, task-spec "
     "pickling, dispatch and result gather are most of the op"),
    ("kmeans_spill",
     "10 MiB of object chunks against 3 MiB pools: the only input larger "
     "than the buffer pool, so spill/reload under a cyclic scan dominates"),
    ("etl_join_write",
     "sim transport, write side: make_object, deep copy into output "
     "pages, CRC, replica ship, WAL records; the one join in the suite"),
]
WORKLOAD_NAMES = [name for name, _why in WORKLOADS]

#: (name, unit, better, bound) — what a user of the engine sees.  Timed
#: metrics are in nominal seconds (see calib.py); ``failed_ops`` travels
#: as the result line's ``failed`` beside ``attempted`` and must be 0.
END_TO_END = [
    ("setup_s", "s", "lower", 0.25),
    ("op_s", "s", "lower", 0.25),
    ("cpu_s_per_op", "s", "lower", 0.25),
    ("peak_rss_mb", "MiB", "lower", 0.05),
    ("stored_bytes_per_row", "bytes", "lower", 0.05),
]

#: source packages ``prof.self_share.*`` groups cProfile's tottime by
PROFILE_PACKAGES = ("memory", "engine", "tcap", "cluster", "storage",
                    "catalog", "core", "obs", "tools", "other")

#: (name, unit, better) — single layers, measured in the traced run.
PER_LAYER = [
    ("tcap.front_ms", "ms", "lower"),
    ("tcap.statements", "count", "lower"),
    ("cluster.jobs_per_op", "count", "lower"),
    ("cluster.job_fixed_ms", "ms", "lower"),
    ("cluster.dispatch_rtt_ms", "ms", "lower"),
    ("cluster.coord_s_per_op", "s", "lower"),
    ("cluster.stage_s.PipelineJobStage", "s", "lower"),
    ("cluster.stage_s.AggregationJobStage", "s", "lower"),
    ("cluster.stage_s.BuildHashTableJobStage", "s", "lower"),
    ("cluster.task_wait_s_per_op", "s", "lower"),
    ("cluster.task_skew", "ratio", "lower"),
    ("cluster.read_ms_per_op", "ms", "lower"),
    ("cluster.clear_ms_per_op", "ms", "lower"),
    ("cluster.shuffle_bytes_per_op", "bytes", "lower"),
    ("cluster.ship_page_mb_s", "MB/s", "higher"),
    ("cluster.retries_per_op", "count", "lower"),
    ("cluster.reforks", "count", "lower"),
    ("cluster.op_s_p90", "s", "lower"),
    ("cluster.unaccounted_share", "ratio", "lower"),
    ("engine.op_s.apply", "s", "lower"),
    ("engine.op_s.filter", "s", "lower"),
    ("engine.op_s.flatten", "s", "lower"),
    ("engine.op_s.hash", "s", "lower"),
    ("engine.op_s.join", "s", "lower"),
    ("engine.rows_in_per_op", "count", "lower"),
    ("engine.rows_out_per_op", "count", "lower"),
    ("engine.batches_per_op", "count", "lower"),
    ("engine.columnar_share", "ratio", "higher"),
    ("engine.zombie_pages_per_op", "count", "lower"),
    ("memory.field_read_ns", "ns", "lower"),
    ("memory.nested_walk_us", "us", "lower"),
    ("memory.make_object_us", "us", "lower"),
    ("memory.deep_copy_us", "us", "lower"),
    ("memory.page_codec_mb_s", "MB/s", "higher"),
    ("memory.column_view_us", "us", "lower"),
    ("memory.allocs_per_op", "count", "lower"),
    ("storage.pins_per_op", "count", "lower"),
    ("storage.reloads_per_op", "count", "lower"),
    ("storage.spills_per_op", "count", "lower"),
    ("storage.evictions_per_op", "count", "lower"),
    ("storage.hit_ratio", "ratio", "higher"),
    ("storage.replica_writes_per_op", "count", "lower"),
    ("storage.pin_hit_us", "us", "lower"),
    ("storage.reload_ms", "ms", "lower"),
    ("catalog.wal_records_per_op", "count", "lower"),
    ("catalog.wal_bytes_per_op", "bytes", "lower"),
    ("catalog.create_set_ms", "ms", "lower"),
    ("catalog.recover_ms", "ms", "lower"),
    ("baseline.op_s", "s", "lower"),
    ("baseline.pc_ratio", "ratio", "lower"),
    ("obs.trace_overhead", "ratio", "lower"),
    ("obs.spans_per_op", "count", "lower"),
] + [
    ("prof.self_share.%s" % package, "ratio", "lower")
    for package in PROFILE_PACKAGES
] + [
    ("prof.calls_per_row", "count", "lower"),
    ("bench.calib_ms_p50", "ms", "lower"),
    ("bench.calib_spread", "ratio", "lower"),
    ("bench.op_s_raw", "s", "lower"),
    ("bench.ops", "count", "higher"),
    ("bench.shm_leaked", "count", "lower"),
]

END_TO_END_UNITS = {name: unit for name, unit, _b, _bound in END_TO_END}
END_TO_END_BOUNDS = {name: bound for name, _u, _b, bound in END_TO_END}
PER_LAYER_UNITS = {name: unit for name, unit, _b in PER_LAYER}
