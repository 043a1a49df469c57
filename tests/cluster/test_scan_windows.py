"""A scan larger than its pool runs one pool-sized window per task.

A worker whose share of a scanned set has more pages than its pool has
frames (C) runs the share as windows of C - 1 pages in catalog order,
one task each, its pages pinned for the attempt: shipped to the back-end
process by name, or read in place by the coordinator.  Windows run
fewest-reloads first, so a cyclic scan reloads exactly N - C pages per
worker and pass; every sink installs its windows' output in window
order, so what a job returns or writes does not depend on which window
ran first, on the pool's state or on the transport.  A reload maps a
frame an evicted page left free, so a steady scan writes no shared-memory
journal record.
"""

import gc
import glob

import numpy as np
import pytest

from repro.cluster import FaultInjector, PCCluster, RetryPolicy, FakeClock
from repro.cluster import scheduler as scheduler_module
from repro.cluster.transport import remote_available
from repro.cluster.worker import WorkerNode
from repro.core import (
    AggregateComp,
    JoinComp,
    ObjectReader,
    SelectionComp,
    Writer,
    lambda_from_member,
    lambda_from_native,
)
from repro.engine.physical import SINK_MATERIALIZE
from repro.memory import Float64, Int32, Int64, PCObject, make_object
from repro.memory.block import AllocationBlock
from repro.memory.objects import make_object_on
from repro.storage import BufferPool
from repro.storage.shm_registry import ShmRegistry

TRANSPORTS = [
    "sim",
    pytest.param("process", marks=pytest.mark.skipif(
        not remote_available(), reason="cloudpickle unavailable")),
]
PAGE = 1 << 12
FRAMES = 6


class Point(PCObject):
    fields = [("pid", Int32), ("cid", Int32), ("x", Float64)]


class SumX(AggregateComp):
    key_type = Int64
    value_type = Float64

    def get_key_projection(self, arg):
        return lambda_from_member(arg, "cid")

    def get_value_projection(self, arg):
        return lambda_from_member(arg, "x")


class MaxPid(AggregateComp):
    key_type = Int64
    value_type = Int64

    def get_key_projection(self, arg):
        return lambda_from_member(arg, "cid")

    def get_value_projection(self, arg):
        return lambda_from_member(arg, "pid")

    def combine(self, a, b):
        return max(a, b)


class Keep(SelectionComp):
    def get_selection(self, arg):
        return lambda_from_member(arg, "pid") >= 0

    def get_projection(self, arg):
        return lambda_from_native([arg], lambda point: point)


class SelfJoin(JoinComp):
    def get_selection(self, left, right):
        return lambda_from_member(left, "pid") \
            == lambda_from_member(right, "pid")

    def get_projection(self, left, right):
        return lambda_from_native([left, right], lambda p, q: make_object(
            Point, pid=p.pid, cid=q.cid, x=p.x + q.x))


def _cluster(tmp_path, transport, frames=FRAMES, **kwargs):
    return PCCluster(n_workers=2, page_size=PAGE, worker_memory=frames * PAGE,
                     transport=transport, spill_root=str(tmp_path), **kwargs)


def _load(cluster, n, x):
    cluster.create_database("db")
    cluster.create_set("db", "points", Point)
    with cluster.loader("db", "points") as load:
        for i in range(n):
            load.append(Point, pid=i, cid=i % 5, x=x(i))


def _shares(cluster):
    return [len(worker.storage.get_set("db", "points").page_ids)
            for worker in cluster.workers]


def _canonical(value):
    """``value`` as nested tuples equal only when byte for byte equal."""
    if isinstance(value, dict):
        return tuple(sorted((_canonical(k), _canonical(v))
                            for k, v in value.items()))
    if isinstance(value, (list, tuple)):
        return tuple(map(_canonical, value))
    if isinstance(value, float):
        return ("f", np.float64(value).tobytes())
    return (type(value).__name__, value)


def _rows(cluster, name):
    return [(p.pid, p.cid, p.x) for p in cluster.read("db", name)]


def _every_sink(cluster, tag):
    """One job per sink kind over the points, read back in read order."""
    points = ObjectReader("db", "points")
    out = {"result": cluster.execute_computations(SumX().set_input(points))}
    Writer("db", "sums" + tag).set_input(SumX().set_input(points)).execute(cluster)
    out["map output"] = cluster.read("db", "sums" + tag, as_pairs=True,
                                     comp=SumX())
    kept = Keep().set_input(points)
    out["materialized"] = cluster.execute_computations(
        [SumX().set_input(kept), MaxPid().set_input(kept)])
    assert SINK_MATERIALIZE in [p.sink_kind for p in cluster.last_plan]
    Writer("db", "rows" + tag).set_input(Keep().set_input(points)).execute(cluster)
    out["rows"] = _rows(cluster, "rows" + tag)
    for threshold in (1 << 30, 0):  # broadcast, then partitioned
        cluster.broadcast_threshold = threshold
        name = "joined%s_%d" % (tag, threshold)
        join = SelfJoin().set_input(0, ObjectReader("db", "points")) \
            .set_input(1, ObjectReader("db", "points"))
        Writer("db", name).set_input(join).execute(cluster)
        out["join %d" % threshold] = _rows(cluster, name)
    return out


@pytest.mark.parametrize("transport", TRANSPORTS)
def test_every_sink_over_an_oversized_set_is_a_big_pool_run(tmp_path,
                                                             transport):
    # Dyadic x: a window's partial sums add up exactly.
    with _cluster(tmp_path / "big", transport, frames=4096) as big:
        _load(big, 1500, lambda i: i / 8)
        want = _every_sink(big, "")
    with _cluster(tmp_path / "small", transport) as small:
        _load(small, 1500, lambda i: i / 8)
        assert min(_shares(small)) > FRAMES
        for op in range(2):
            assert _every_sink(small, str(op)) == want
        # A scan's windows ship (a join's tables of handles cannot).
        small.execute_computations(SumX().set_input(ObjectReader("db", "points")))
        placements = [span.detail for span in small.last_trace.spans(kind="task")
                      if span.pid is None]
        assert len(placements) == 4 and set(placements) == (
            {"shipped"} if transport == "process" else {"front-end: in_process"})


def test_sim_and_process_return_the_same_bytes_on_non_dyadic_data(tmp_path):
    if not remote_available():
        pytest.skip("cloudpickle unavailable")
    got = []
    for transport in ("sim", "process"):
        with _cluster(tmp_path / transport, transport) as cluster:
            _load(cluster, 1500, lambda i: (i * 0.1) % 7.3)
            # Repeated ops run their windows in other orders.
            ops = [_canonical(_every_sink(cluster, str(op))) for op in range(3)]
            assert ops[1:] == ops[:-1]
            got.append(ops[0])
    assert got[0] == got[1]


@pytest.mark.parametrize("transport", TRANSPORTS)
@pytest.mark.parametrize("n", [1500, 2600, 4000])
def test_a_cyclic_scan_reloads_n_minus_c_per_worker(tmp_path, transport, n):
    with _cluster(tmp_path, transport) as cluster:
        _load(cluster, n, float)
        want = sum(share - FRAMES for share in _shares(cluster))
        assert want > 0
        agg = SumX().set_input(ObjectReader("db", "points"))
        cluster.execute_computations(agg)  # the first pass settles the pool
        for _op in range(3):
            before = cluster.metrics().value("pc_pool_reloads_total")
            cluster.execute_computations(agg)
            assert cluster.metrics().value("pc_pool_reloads_total") \
                - before == want


class SecondTaskCrasher(FaultInjector):
    """Crash worker-0's second task attempt once."""

    def __init__(self):
        super().__init__()
        self.seen = 0

    def should_crash_backend(self, worker_id, stage_kind):
        if worker_id != "worker-0":
            return False
        self.seen += 1
        return self.seen == 2


@pytest.mark.parametrize("transport", TRANSPORTS)
def test_a_crashed_window_reruns_alone_over_the_same_pages(tmp_path,
                                                           transport,
                                                           monkeypatch):
    leases = []
    copies = scheduler_module._ScanSource.lease

    def noting_lease(source):
        pages, release = copies(source)
        leases.append((source.worker.worker_id, source.window,
                       [page.page_id for page in pages]))
        return pages, release

    monkeypatch.setattr(scheduler_module._ScanSource, "lease", noting_lease)
    clock = FakeClock()
    with _cluster(tmp_path, transport, fault_injector=SecondTaskCrasher(),
                  retry_policy=RetryPolicy(sleep=clock.sleep,
                                           clock=clock.clock)) as cluster:
        _load(cluster, 1500, float)
        got = cluster.execute_computations(
            SumX().set_input(ObjectReader("db", "points")))
        assert cluster.fault_metrics.tasks_recovered.value == 1
    want = {}
    for i in range(1500):
        want[i % 5] = want.get(i % 5, 0.0) + float(i)
    assert got == want  # every row counted once
    on_0 = [lease for lease in leases if lease[0] == "worker-0"]
    assert len(on_0) == 3 and on_0[1] == on_0[2] and on_0[0] != on_0[1]
    assert len([lease for lease in leases if lease[0] == "worker-1"]) == 2


@pytest.mark.skipif(not remote_available(), reason="cloudpickle unavailable")
def test_worker_0_is_folded_before_worker_1_is_awaited(tmp_path,
                                                        monkeypatch):
    events = []
    merge = scheduler_module.DistributedScheduler._merge_at_caller
    await_result = WorkerNode.await_result

    def noting_merge(self, merged, comp, worker, sink):
        events.append(("fold", worker.worker_id))
        return merge(self, merged, comp, worker, sink)

    def noting_await(self, future):
        events.append(("await", self.worker_id))
        return await_result(self, future)

    monkeypatch.setattr(scheduler_module.DistributedScheduler,
                        "_merge_at_caller", noting_merge)
    monkeypatch.setattr(WorkerNode, "await_result", noting_await)
    with _cluster(tmp_path, "process", frames=4096) as cluster:
        _load(cluster, 1500, float)
        del events[:]
        cluster.execute_computations(
            SumX().set_input(ObjectReader("db", "points")))
    assert events == [("await", "worker-0"), ("fold", "worker-0"),
                      ("await", "worker-1"), ("fold", "worker-1")]


@pytest.mark.skipif(not remote_available(), reason="cloudpickle unavailable")
def test_a_steady_scan_journals_no_segment_and_close_leaves_none(tmp_path):
    with _cluster(tmp_path, "process") as cluster:
        _load(cluster, 2600, float)
        agg = SumX().set_input(ObjectReader("db", "points"))
        cluster.execute_computations(agg)
        registry = cluster.shm_registry
        with open(registry.path) as journal:
            records = len(journal.readlines())
        before = cluster.metrics().value("pc_pool_reloads_total")
        for _op in range(3):
            cluster.execute_computations(agg)
        assert cluster.metrics().value("pc_pool_reloads_total") > before
        with open(registry.path) as journal:
            assert len(journal.readlines()) == records
        prefixes = [worker.storage.pool._shm_prefix for worker in cluster.workers]
    gc.collect()
    assert registry.live == {}
    assert not any(glob.glob("/dev/shm/%s-*" % prefix) for prefix in prefixes)


def test_a_stale_view_keeps_its_bytes_and_its_frame_is_never_reused(tmp_path):
    registry = ShmRegistry(str(tmp_path / "shm.registry"))
    pool = BufferPool(2 * PAGE, page_size=PAGE, residency="shm",
                      spill_dir=str(tmp_path / "spill"), shm_registry=registry)
    try:
        pages = []
        for fill in range(4):
            block = AllocationBlock(PAGE)
            make_object_on(block, Point, None, pid=fill, cid=fill, x=fill / 3)
            page = pool.adopt_page(block.to_bytes(), set_key=("db", "big"))
            pool.unpin(page.page_id, dirty=True)
            pages.append(page.page_id)
        stale = pool.pin(pages[3]).block  # a handle's view, kept
        frame = pool._shm_segments[pages[3]]
        sealed = stale.to_bytes()
        pool.unpin(pages[3])
        for page_id in pages * 3:  # evicts pages[3] again and again
            pool.pin(page_id)
            pool.unpin(page_id)
            assert stale.to_bytes() == sealed
            assert frame not in pool._shm_segments.values()
            assert frame not in pool._free_frames
        assert frame in pool.parked_segments()
        del stale
        gc.collect()
    finally:
        pool.close()
    assert registry.live == {}
    assert not glob.glob("/dev/shm/%s-*" % pool._shm_prefix)
