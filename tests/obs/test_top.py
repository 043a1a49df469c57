"""Tests for the live console (repro.obs.top / ``python -m repro.obs.top``)."""

import time

import pytest

from repro.cluster import PCCluster
from repro.cluster.transport import remote_available
from repro.obs import MetricsRegistry
from repro.obs.top import ClusterTop, _human_bytes, main
from repro.tpch import TpchSpec, customers_per_supplier_pc, \
    load_pc_customers

needs_process = pytest.mark.skipif(
    not remote_available(), reason="cloudpickle unavailable"
)

SPEC = TpchSpec(n_customers=20, n_parts=30, n_suppliers=5, seed=3)


def test_sample_and_render_on_the_simulated_transport(tmp_path):
    cluster = PCCluster(n_workers=3, page_size=1 << 14,
                        spill_root=str(tmp_path))
    try:
        load_pc_customers(cluster, SPEC)
        top = ClusterTop(cluster)
        frame = top.sample()
        assert [s.worker_id for s in frame] == \
            [w.worker_id for w in cluster.workers]
        # No supervisor on the sim transport: liveness defaults to alive.
        assert all(s.state == "alive" for s in frame)
        assert all(s.pool_capacity > 0 for s in frame)
        text = top.render(frame)
        lines = text.splitlines()
        assert lines[0].split() == ["WORKER", "STATE", "PID", "TASK",
                                    "ROWS", "ROWS/S", "POOL", "REFORK"]
        assert len(lines) == 1 + len(cluster.workers)
        assert "worker-0" in text and "ALIVE" in text
    finally:
        cluster.close()


@needs_process
def test_sample_reads_heartbeats_on_the_process_transport(tmp_path):
    cluster = PCCluster(n_workers=3, page_size=1 << 14,
                        spill_root=str(tmp_path), transport="process")
    try:
        load_pc_customers(cluster, SPEC)
        customers_per_supplier_pc(cluster)
        top = ClusterTop(cluster)
        frame = top.sample()
        child_pids = {w.backend.child_pid for w in cluster.workers}
        assert {s.pid for s in frame} == child_pids
        assert all(s.state in ("alive", "suspect", "dead") for s in frame)
        # Rows consumed are published through the heartbeat slot — by
        # the child's next beat, which a short job can finish ahead of.
        deadline = time.monotonic() + 5.0
        while not sum(s.rows for s in frame) and time.monotonic() < deadline:
            time.sleep(0.01)
            frame = top.sample()
        assert sum(s.rows for s in frame) > 0
        assert all(s.reforks == 0 for s in frame)
    finally:
        cluster.close()


def test_rows_per_second_differentiates_between_samples(tmp_path):
    cluster = PCCluster(n_workers=2, page_size=1 << 12,
                        spill_root=str(tmp_path))
    try:
        ticks = iter([10.0, 12.0, 10.0, 12.0])
        top = ClusterTop(cluster, clock=lambda: next(ticks))
        first = top.sample()
        assert all(s.rows_per_s == 0.0 for s in first)  # no prior sample
        second = top.sample()
        # Sim vitals report 0 rows at rest: the rate stays zero, but the
        # differentiation path ran with a 2-second gap.
        assert all(s.rows_per_s == 0.0 for s in second)
    finally:
        cluster.close()


def test_dead_workers_sort_to_the_top():
    class _Sup:
        def __init__(self, states):
            self._states = states

        def vitals(self, worker_id):
            class V:
                pass

            vit = V()
            vit.state = self._states[worker_id]
            vit.pid, vit.task_id, vit.rows = 99, 0, 0
            return vit

    class _Worker:
        refork_count = 0
        metrics = MetricsRegistry()

        def __init__(self, worker_id):
            self.worker_id = worker_id
            self.backend = type("B", (), {"child_pid": None})()

    class _Transport:
        pass

    class _Cluster:
        transport = _Transport()
        workers = [_Worker("worker-0"), _Worker("worker-1"),
                   _Worker("worker-2")]

    _Cluster.transport.supervisor = _Sup({
        "worker-0": "alive", "worker-1": "dead", "worker-2": "suspect",
    })
    frame = ClusterTop(_Cluster()).sample()
    assert [s.worker_id for s in frame] == \
        ["worker-1", "worker-2", "worker-0"]


def test_human_bytes_scales_units():
    assert _human_bytes(512) == "512B"
    assert _human_bytes(2048) == "2.0KiB"
    assert _human_bytes(3 * 1024 * 1024) == "3.0MiB"
    assert _human_bytes(5 * 1024 ** 3) == "5.0GiB"


def test_main_renders_bounded_frames_on_the_sim_transport(capsys):
    rc = main(["--transport", "sim", "--workers", "2", "--frames", "2",
               "--interval", "0.05"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "frame 1/2" in out and "frame 2/2" in out
    assert out.count("WORKER") == 2
    assert "worker-1" in out
