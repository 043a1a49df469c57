"""Chaos-harness tests: real signal storms against the process transport.

The acceptance bar for the supervision layer (DESIGN §13): a seeded
storm of real SIGKILLs and SIGSTOP/SIGCONT pairs delivered mid-job must
leave results byte-identical to an unfaulted run, leak no shared-memory
segment and no child process, and land detect→re-fork latencies in the
``pc_sup_recovery_seconds`` histogram.
"""

import time

import pytest

from repro.cluster import ChaosMonkey, PCCluster, RetryPolicy
from repro.cluster import transport as transport_mod
from repro.cluster.chaos import KILL, STOP
from repro.cluster.transport import remote_available
from repro.tpch import TpchSpec, customers_per_supplier_pc, load_pc_customers

needs_process = pytest.mark.skipif(
    not remote_available(), reason="cloudpickle unavailable"
)

TPCH_SPEC = TpchSpec(n_customers=30, n_parts=40, n_suppliers=6, seed=11)


def _proc_state(pid):
    """One-letter scheduler state from /proc, or None if the pid is gone."""
    try:
        with open("/proc/%d/stat" % pid) as f:
            return f.read().split(") ", 1)[1].split(" ", 1)[0]
    except (OSError, IndexError):
        return None


def assert_no_leaks(cluster, monkey):
    """No shm segment, no orphaned child, no process left stopped."""
    assert cluster.shm_registry.live == {}
    pooled = {child.pid for child in transport_mod._all_children}
    for _offset, action, _worker_id, pid in monkey.delivered:
        if action == KILL:
            # A killed child was reaped, not left as a zombie orphan.
            assert _proc_state(pid) in (None, "Z") or pid in pooled
        else:
            # Every SIGSTOP got its SIGCONT: nothing is still frozen.
            assert _proc_state(pid) != "T"
    for child in transport_mod._all_children:
        if child.healthy():
            assert _proc_state(child.pid) != "T"


# -- the schedule ---------------------------------------------------------------------


class _FakeBackend:
    child_pid = None


class _FakeWorker:
    def __init__(self, worker_id):
        self.worker_id = worker_id
        self.backend = _FakeBackend()


class _FakeCluster:
    def __init__(self, n=3):
        self.workers = [_FakeWorker("worker-%d" % i) for i in range(n)]
        self.blacklist = set()


def test_storm_schedule_is_deterministic_per_seed():
    cluster = _FakeCluster()
    first = ChaosMonkey(cluster, seed=42, kills=3, stops=1, window_s=2.0)
    again = ChaosMonkey(cluster, seed=42, kills=3, stops=1, window_s=2.0)
    other = ChaosMonkey(cluster, seed=43, kills=3, stops=1, window_s=2.0)
    assert first.schedule == again.schedule
    assert first.schedule != other.schedule
    assert len(first.schedule) == 4
    assert [a for _o, a, _s in first.schedule].count(KILL) == 3
    assert [a for _o, a, _s in first.schedule].count(STOP) == 1
    for offset, _action, slot in first.schedule:
        assert 0.05 <= offset <= 2.05
        assert 0 <= slot < 3
    # The schedule is time-ordered, so the storm thread can walk it.
    assert first.schedule == sorted(first.schedule)


def test_storm_against_pidless_workers_drains_without_delivering():
    # Sim back-ends have no child pid: every event re-aims its bounded
    # number of times and is then dropped — the storm must terminate.
    cluster = _FakeCluster()
    monkey = ChaosMonkey(cluster, seed=1, kills=2, stops=1, window_s=0.01,
                         start_after_s=0.0)
    monkey.MAX_RETRIES = 2
    with monkey:
        pass
    assert monkey.delivered == []
    assert monkey.counts == {KILL: 0, STOP: 0}


# -- the acceptance storm: TPC-H under fire -------------------------------------------


def _tpch_cluster(tmp_path, subdir, policy=None):
    root = tmp_path / subdir
    root.mkdir(exist_ok=True)
    cluster = PCCluster(
        n_workers=3, page_size=1 << 14, spill_root=str(root),
        transport="process", retry_policy=policy,
    )
    load_pc_customers(cluster, TPCH_SPEC, replication=2)
    return cluster


@needs_process
def test_tpch_is_byte_identical_under_seeded_signal_storm(tmp_path):
    baseline_cluster = _tpch_cluster(tmp_path, "baseline")
    baseline = customers_per_supplier_pc(baseline_cluster)
    baseline_cluster.close()
    assert baseline[1] > 0  # per-supplier customer entries exist

    policy = RetryPolicy(max_attempts=5, backoff_base_s=0.01,
                         backoff_max_s=0.05)
    cluster = _tpch_cluster(tmp_path, "storm", policy=policy)
    monkey = ChaosMonkey(cluster, seed=7, kills=3, stops=1, window_s=1.5)
    runs = 0
    with monkey:
        # Keep the multi-stage job running for the storm's whole window
        # so every signal lands mid-execution somewhere.
        horizon = time.monotonic() + 2.2
        while time.monotonic() < horizon:
            assert customers_per_supplier_pc(cluster) == baseline
            runs += 1
    assert runs >= 2
    # The whole storm landed on real processes: >= 3 SIGKILLs, 1 STOP.
    assert monkey.counts == {KILL: 3, STOP: 1}
    assert all(pid is not None for _o, _a, _w, pid in monkey.delivered)
    # And the dust having settled, the answer still matches.
    assert customers_per_supplier_pc(cluster) == baseline
    # Real deaths were detected and recovered; latency was recorded.
    snapshot = cluster.metrics()
    assert snapshot.value("pc_faults_backend_crashes_total") >= 1
    assert sum(w.refork_count for w in cluster.workers) >= 1
    assert cluster.supervisor.recovery_quantile(0.5) is not None
    assert cluster.supervisor.recovery_quantile(0.99) is not None
    cluster.close()
    assert_no_leaks(cluster, monkey)


@needs_process
def test_columnar_kmeans_is_byte_identical_under_storm(tmp_path):
    np = pytest.importorskip("numpy")
    from repro.ml.kmeans_columnar import ColumnarKMeans

    rng = np.random.default_rng(5)
    # Eighths-grid coordinates: sums and distances are exact, so the
    # storm comparison really is byte-for-byte.
    points = rng.integers(-40, 40, size=(240, 3)) / 8.0

    def run_iterations(km, steps=3):
        centers = km.initialize(4, seed=1)
        history = [centers.tobytes()]
        for _step in range(steps):
            centers = km.iterate(centers)
            history.append(centers.tobytes())
        return history

    root = tmp_path / "baseline"
    root.mkdir()
    clean = PCCluster(n_workers=3, page_size=1 << 13, spill_root=str(root),
                      transport="process")
    baseline = run_iterations(ColumnarKMeans(clean).load(points))
    clean.close()

    root = tmp_path / "storm"
    root.mkdir()
    policy = RetryPolicy(max_attempts=5, backoff_base_s=0.01,
                         backoff_max_s=0.05)
    cluster = PCCluster(n_workers=3, page_size=1 << 13, spill_root=str(root),
                        transport="process", retry_policy=policy)
    km = ColumnarKMeans(cluster).load(points)
    monkey = ChaosMonkey(cluster, seed=3, kills=2, stops=1, window_s=1.0)
    with monkey:
        horizon = time.monotonic() + 1.6
        while time.monotonic() < horizon:
            assert run_iterations(km) == baseline
    assert monkey.counts == {KILL: 2, STOP: 1}
    assert run_iterations(km) == baseline
    cluster.close()
    assert_no_leaks(cluster, monkey)
