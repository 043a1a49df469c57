"""Prepared jobs: a program's code crosses to a back-end once, and each
job ships only its values (DESIGN §11 "Code once, values every job").

Every test runs one program twice on ``transport="process"``: the second
run sends no code (``pc_sched_job_code_total{outcome="shipped"}`` does
not move) and still sees every value that changed in between — a closure
cell, a captured list, a module global, defaults, a function attribute.
A re-forked child, a pooled child handed to another cluster and a child
that lacks code the mirror says it holds are each sent what they need.
"""

import sys
import threading
import types

import numpy as np
import pytest

from repro.cluster import PCCluster, codetable
from repro.cluster import transport as transport_module
from repro.cluster.transport import remote_available
from repro.core import AggregateComp, ObjectReader, lambda_from_native
from repro.memory import Int64, PCObject, String
from repro.ml.kmeans import PCKMeans
from repro.ml.kmeans_columnar import ColumnarKMeans

pytestmark = pytest.mark.skipif(
    not remote_available(), reason="cloudpickle unavailable"
)

N_ITEMS = 400
#: A module global the shipped functions read (monkeypatched below).
SCALE = 1


class Item(PCObject):
    fields = [("pid", Int64)]


class Tag(PCObject):
    fields = [("name", String)]


class Grown(PCObject):
    fields = [("pid", Int64)]


class Keyed(AggregateComp):
    """``Σ value(item)`` per ``key(item)``: two user functions, shipped."""

    key_type = Int64
    value_type = Int64
    reduce = "sum"

    def __init__(self, key, value):
        super().__init__()
        self.key, self.value = key, value

    def get_key_projection(self, arg):
        return lambda_from_native([arg], self.key)

    def get_value_projection(self, arg):
        return lambda_from_native([arg], self.value)


def _cluster(tmp_path, registered=(Item,), **kwargs):
    cluster = PCCluster(n_workers=2, page_size=1 << 12, transport="process",
                        spill_root=str(tmp_path), **kwargs)
    for cls in registered:
        cluster.register_type(cls)
    cluster.create_database("db")
    cluster.create_set("db", "items", Item)
    with cluster.loader("db", "items") as load:
        for pid in range(N_ITEMS):
            load.append(Item, pid=pid)
    return cluster


def _shipped(cluster):
    return cluster.metrics().value("pc_sched_job_code_total",
                                   outcome="shipped")


def _frontend(cluster, reason):
    return cluster.metrics().value("pc_sched_frontend_tasks_total",
                                   reason=reason)


def _run(cluster, key, value, placements=("shipped",)):
    """One job of :class:`Keyed`, checked against the same functions run
    here; returns how many code entries it sent to back-ends."""
    before = _shipped(cluster)
    got = cluster.execute_computations(
        Keyed(key, value).set_input(ObjectReader("db", "items")))
    want = {}
    for pid in range(N_ITEMS):
        item = types.SimpleNamespace(pid=pid)
        want[key(item)] = want.get(key(item), 0) + value(item)
    assert dict(got) == want
    assert {span.detail for span in cluster.last_trace.spans(kind="task")
            if span.pid is None} == set(placements)
    return _shipped(cluster) - before


def _mod(m):
    return lambda item: item.pid % m


def _scaled():
    def value(item):
        return item.pid * SCALE
    return value


def _record_puts(monkeypatch):
    """``[(child pid, job bytes or None, spec bytes, prelude)]`` per task
    put on a back-end's queue."""
    puts = []
    submit = transport_module._ChildProcess.submit

    def recording(self, task, backend):
        put = self._tasks.put
        self._tasks.put = lambda item: (puts.append((self.pid,) + item[1:]),
                                        put(item))
        try:
            return submit(self, task, backend)
        finally:
            del self._tasks.put

    monkeypatch.setattr(transport_module._ChildProcess, "submit", recording)
    return puts


# -- values travel every job ----------------------------------------------------------


def test_a_changed_closure_value_is_seen(tmp_path):
    with _cluster(tmp_path) as cluster:
        _run(cluster, _mod(3), _mod(10))
        assert _run(cluster, _mod(4), _mod(7)) == 0


def test_a_mutated_captured_list_is_seen(tmp_path):
    weights = [2]

    def value(item):
        return item.pid * weights[0]

    with _cluster(tmp_path) as cluster:
        _run(cluster, _mod(3), value)
        weights[0] = 5
        assert _run(cluster, _mod(3), value) == 0


def test_a_monkeypatched_module_global_is_seen(tmp_path, monkeypatch):
    with _cluster(tmp_path) as cluster:
        _run(cluster, _mod(3), _scaled())
        monkeypatch.setattr(sys.modules[__name__], "SCALE", 9)
        assert _run(cluster, _mod(3), _scaled()) == 0


def test_one_code_with_two_closures_in_one_job(tmp_path):
    key, value = _mod(3), _mod(11)
    assert key.__code__ is value.__code__
    with _cluster(tmp_path) as cluster:
        _run(cluster, key, value)
        assert _run(cluster, _mod(5), _mod(2)) == 0


def _first_preludes(puts):
    """The prelude put with each child's first task."""
    first = {}
    for pid, _job, _spec, prelude in puts:
        first.setdefault(pid, prelude)
    return list(first.values())


def _recursive(modulus):
    def digits(n):
        return 1 if n < 10 else 1 + digits(n // 10)

    def even(n):
        return n == 0 or odd(n - 1)

    def odd(n):
        return n != 0 and even(n - 1)

    def key(item):
        return int(even(item.pid % modulus))

    def value(item):
        return digits(item.pid)

    return key, value


def test_recursive_and_mutually_recursive_functions(tmp_path):
    with _cluster(tmp_path) as cluster:
        _run(cluster, *_recursive(7))
        assert _run(cluster, *_recursive(5)) == 0


def _configured(scale, offset, bonus):
    def value(item, scale=scale, *, offset=offset):
        return item.pid * scale + offset + value.bonus

    value.bonus = bonus
    return value


def test_defaults_kwdefaults_and_a_function_attribute(tmp_path):
    with _cluster(tmp_path) as cluster:
        _run(cluster, _mod(3), _configured(2, 1, 100))
        value = _configured(3, 5, 1000)
        value.__defaults__ = (4,)
        value.__kwdefaults__ = {"offset": 7}
        value.bonus = 10
        assert _run(cluster, _mod(3), value) == 0


def test_a_closure_over_a_lock_still_runs_in_the_coordinator(tmp_path):
    lock = threading.Lock()

    def value(item):
        with lock:
            return item.pid

    with _cluster(tmp_path) as cluster:
        for _run_index in range(2):
            before = _frontend(cluster, "unpicklable_spec")
            assert _run(cluster, _mod(3), value,
                        placements=("front-end: unpicklable_spec",)) == 0
            assert _frontend(cluster, "unpicklable_spec") == before + 2


# -- what a back-end holds ------------------------------------------------------------


def test_a_reforked_child_is_sent_its_code_again(tmp_path):
    def key(item):  # this test's own code: no child has held it
        return item.pid % 6

    with _cluster(tmp_path) as cluster:
        _run(cluster, key, _mod(2))
        assert _run(cluster, key, _mod(2)) == 0
        worker = cluster.workers[0]
        pid = worker.backend.child_pid
        worker.backend.crashed = True  # retired, not pooled
        worker.refork_backend()
        assert worker.backend.child_pid != pid
        assert _run(cluster, key, _mod(2)) >= 1
        assert _run(cluster, key, _mod(2)) == 0


def test_a_healthy_worker_reforked_runs_a_new_process(tmp_path):
    # Parent: the healthy child went back to the pool and the new back-end
    # leased it again — the same pid, holding the code it held.
    def key(item):
        return item.pid % 5

    with _cluster(tmp_path) as cluster:
        _run(cluster, key, _mod(3))
        assert _run(cluster, key, _mod(3)) == 0
        worker = cluster.workers[0]
        pid, reforks = worker.backend.child_pid, worker.refork_count
        worker.refork_backend()
        assert worker.backend.child_pid != pid
        assert cluster.metrics().value("pc_worker_reforks_total",
                                       worker=worker.worker_id) == reforks + 1
        assert _run(cluster, key, _mod(3)) >= 1
        assert _run(cluster, key, _mod(3)) == 0


def test_a_pooled_child_takes_another_clusters_registry_and_program(
        tmp_path, monkeypatch):
    puts = _record_puts(monkeypatch)
    with _cluster(tmp_path / "first", registered=(Item, Tag)) as first:
        _run(first, _mod(3), _mod(5))
        pids = {worker.backend.child_pid for worker in first.workers}
    # As many types, but Item has another code here: a child decoding
    # these pages with the first cluster's registry would misread them.
    with _cluster(tmp_path / "second", registered=(Tag, Item)) as second:
        assert pids & {worker.backend.child_pid for worker in second.workers}
        del puts[:]
        _run(second, *_recursive(4))
        assert all(prelude is not None and prelude[2] is not None
                   for prelude in _first_preludes(puts))
        del puts[:]
        assert _run(second, *_recursive(3)) == 0
        assert all(prelude is None for _pid, _job, _spec, prelude in puts)
        # A registry that grew is sent again.
        second.register_type(Grown)
        del puts[:]
        assert _run(second, *_recursive(3)) == 0
        assert all(prelude is not None and prelude[2] is not None
                   for prelude in _first_preludes(puts))


def test_code_a_child_lacks_is_a_counted_rejection(tmp_path):
    def key(item):  # this test's own code: no child has held it
        return item.pid % 7

    with _cluster(tmp_path) as cluster:
        # The mirror of worker 0's child claims code it was never sent.
        held = cluster.workers[0].backend._child.held
        held._digests[codetable._entry(key)[1]] = None
        before = _frontend(cluster, "child_rejected")
        _run(cluster, key, _mod(2),
             placements=("shipped", "front-end: child_rejected"))
        assert _frontend(cluster, "child_rejected") == before + 1
        # The coordinator forgot what that child holds: all is sent again.
        assert _run(cluster, key, _mod(2)) >= 1
        assert _run(cluster, key, _mod(2)) == 0


def test_the_least_recently_used_code_is_evicted(tmp_path, monkeypatch):
    monkeypatch.setattr(codetable, "HELD_CODES", 4)
    puts = _record_puts(monkeypatch)

    def first(item):
        return item.pid % 2

    def second(item):
        return item.pid % 3

    with _cluster(tmp_path) as cluster:
        _run(cluster, first, _mod(5))
        _run(cluster, second, _scaled())
        # The mirror stays bounded, and the evictions travel to the child.
        assert all(len(worker.backend._child.held._digests) <= 4
                   for worker in cluster.workers)
        assert any(prelude and prelude[1]
                   for _pid, _job, _spec, prelude in puts)
        # ``first`` was evicted: it is sent again, and runs.
        assert _run(cluster, first, _mod(5)) >= 1


# -- the k-means step -----------------------------------------------------------------


def test_a_repeated_kmeans_job_is_its_values_alone(tmp_path, monkeypatch):
    """The bench's ``kmeans_iter`` step (8 centres in 8 dimensions): once
    the code table is warm, a job is its blob alone — at most 3 KiB
    (7,043 bytes when every job carried its code and the registry)."""
    puts = _record_puts(monkeypatch)
    points = np.random.default_rng(5).normal(size=(600, 8))
    with PCCluster(n_workers=2, page_size=1 << 14, transport="process",
                   spill_root=str(tmp_path)) as cluster:
        driver = ColumnarKMeans(cluster)
        driver.load(points)
        centers = driver.iterate(driver.initialize(8, seed=1))
        del puts[:]
        driver.iterate(centers)
    jobs = [len(job) for _pid, job, _spec, _prelude in puts if job is not None]
    assert len(jobs) == 2 and max(jobs) <= 3072
    assert all(prelude is None for _pid, _job, _spec, prelude in puts)


def test_kmeans_steps_are_byte_equal_on_sim_and_process(tmp_path):
    rng = np.random.default_rng(11)
    points = rng.integers(-40, 40, size=(240, 4)) / 8.0  # dyadic: exact
    steps = {}
    for transport in ("sim", "process"):
        with PCCluster(n_workers=2, page_size=1 << 12, transport=transport,
                       spill_root=str(tmp_path / transport)) as cluster:
            columnar = ColumnarKMeans(cluster).load(points)
            chunked = PCKMeans(cluster).load(points, chunk_size=40)
            start = columnar.initialize(4, seed=2)
            for driver in (columnar, chunked):
                centers = start
                for step in range(5):
                    shipped = cluster.metrics().value(
                        "pc_sched_job_code_total", outcome="shipped")
                    centers = driver.iterate(centers)
                    steps.setdefault(transport, []).append(centers.tobytes())
                    if step:  # the code table is warm
                        assert cluster.metrics().value(
                            "pc_sched_job_code_total",
                            outcome="shipped") == shipped
    assert steps["process"] == steps["sim"]
    assert len(steps["sim"]) == 10
