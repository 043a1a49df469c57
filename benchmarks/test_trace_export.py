"""Cluster timeline export acceptance: a real job's trace loads in Perfetto.

Runs the TPC-H acceptance query on the process transport — real spawned
back-end children, remote spans grafted over the clock handshake — and
exports the merged trace with :func:`repro.obs.write_chrome_trace` to
``BENCH_trace_timeline.json`` in the repository root.  The CI process
leg validates the payload (sorted timestamps, matched B/E pairs per
lane, instants with scopes) and uploads the file as an artifact, so
every PR ships a timeline a reviewer can drop into chrome://tracing or
https://ui.perfetto.dev.
"""

from __future__ import annotations

import json
import os

import pytest

from repro.cluster import PCCluster
from repro.cluster.transport import remote_available
from repro.obs import validate_chrome_trace, write_chrome_trace
from repro.tpch import TpchSpec, customers_per_supplier_pc, \
    load_pc_customers

from bench_utils import report

TIMELINE_PATH = os.path.join(
    os.path.dirname(__file__), os.pardir, "BENCH_trace_timeline.json"
)

needs_process = pytest.mark.skipif(
    not remote_available(), reason="cloudpickle unavailable"
)

SPEC = TpchSpec(n_customers=60, n_parts=80, n_suppliers=10, seed=11)


@needs_process
@pytest.mark.benchmark(group="trace")
def test_trace_export_writes_valid_chrome_timeline(benchmark):
    cluster = PCCluster(n_workers=3, page_size=1 << 14,
                        transport="process", profiling=True)
    try:
        load_pc_customers(cluster, SPEC)
        customers_per_supplier_pc(cluster)
        trace = cluster.last_trace
        payload = write_chrome_trace(trace, TIMELINE_PATH)

        problems = validate_chrome_trace(payload)
        assert problems == [], problems

        # The timeline really is distributed: one track per child pid
        # plus the coordinator's, with remote task and op spans on them.
        with open(TIMELINE_PATH) as f:
            on_disk = json.load(f)
        assert validate_chrome_trace(on_disk) == []
        events = on_disk["traceEvents"]
        pids = {e["pid"] for e in events if e["ph"] == "B"}
        child_pids = {w.backend.child_pid for w in cluster.workers}
        assert pids == {0} | child_pids
        names = {e["name"] for e in events if e["ph"] == "B"}
        # Remote task spans carry their worker's name, on the child's track.
        assert any(
            e["name"].startswith("task:worker-") and e["pid"] in child_pids
            for e in events if e["ph"] == "B"
        )
        assert any(name.startswith("op:") for name in names)

        durations = [e for e in events if e["ph"] in ("B", "E")]
        instants = [e for e in events if e["ph"] == "i"]
        report("trace_export", (
            "timeline: %d events (%d B/E, %d instants) over %d tracks\n"
            "wall: %.4fs  remote spans: %d\n"
            "load %s in chrome://tracing or https://ui.perfetto.dev"
            % (len(events), len(durations), len(instants), len(pids),
               trace.root.duration_s,
               sum(1 for s in trace.spans() if s.pid is not None),
               os.path.basename(TIMELINE_PATH))
        ))

        benchmark(lambda: validate_chrome_trace(payload))
    finally:
        cluster.close()
