"""Ablation benches for the design choices DESIGN.md calls out.

Each ablation isolates one mechanism of the system and shows its effect:

* allocator policy (lightweight-reuse / no-reuse / recycling) on a
  churn-heavy allocation workload;
* TCAP optimization on/off, counting actual user-method invocations;
* broadcast vs hash-partition join threshold, via shuffle traffic;
* pipeline vector (batch) size, via wall time at fixed work;
* page size for MatrixBlock sets, via page counts and wall time.
"""

import numpy as np
import pytest

from repro.cluster import PCCluster
from repro.core import (
    JoinComp,
    ObjectReader,
    SelectionComp,
    Writer,
    lambda_from_member,
    lambda_from_method,
    lambda_from_native,
)
from repro.engine import run_local, vectors
from repro.lillinalg import DistributedMatrix
from repro.memory import (
    Float64,
    Int32,
    LIGHTWEIGHT_REUSE,
    NO_REUSE,
    PCObject,
    RECYCLING,
    AllocationBlock,
    make_object_on,
)

from bench_utils import fmt_seconds, render_table, report, timed


class Temp(PCObject):
    fields = [("a", Int32), ("b", Float64)]


@pytest.mark.benchmark(group="ablations")
def test_ablation_allocator_policy(benchmark):
    """Allocate/free churn under the three block policies (Appendix B)."""

    def churn(policy):
        block = AllocationBlock(1 << 20, policy=policy)
        for _round in range(60):
            handles = [
                make_object_on(block, Temp, a=i, b=float(i))
                for i in range(50)
            ]
            for handle in handles:
                handle.release()
        return block

    rows = []
    stats = {}
    for policy, name in ((LIGHTWEIGHT_REUSE, "lightweight-reuse"),
                         (NO_REUSE, "no-reuse"),
                         (RECYCLING, "recycling")):
        elapsed, block = timed(churn, policy)
        stats[name] = block.stats()
        rows.append((
            name, fmt_seconds(elapsed), block.used, block.freed_bytes,
            block.alloc_count,
        ))
    report("ablation_allocator", render_table(
        "Ablation — allocator policies under allocation churn",
        ("policy", "time", "bytes used", "bytes abandoned", "allocations"),
        rows,
    ))
    # Region allocation abandons freed space; the reusing policies do not
    # let the bump pointer run away.
    assert stats["no-reuse"]["used"] > 10 * stats["lightweight-reuse"]["used"]
    assert stats["recycling"]["used"] <= stats["lightweight-reuse"]["used"]

    benchmark(lambda: churn(RECYCLING))


class Pricey:
    calls = 0

    def __init__(self, value):
        self.value = value

    def getValue(self):
        Pricey.calls += 1
        return self.value


class Band(SelectionComp):
    def get_selection(self, arg):
        return (lambda_from_method(arg, "getValue") > 10) & (
            lambda_from_method(arg, "getValue") < 90
        )

    def get_projection(self, arg):
        return lambda_from_member(arg, "value")


@pytest.mark.benchmark(group="ablations")
def test_ablation_tcap_optimization(benchmark):
    """Optimizer on/off: redundant-call elimination halves method calls."""
    data = [Pricey(i % 100) for i in range(4000)]
    sources = {("db", "xs"): data}

    def graph():
        return Writer("db", "out").set_input(
            Band().set_input(ObjectReader("db", "xs"))
        )

    Pricey.calls = 0
    naive_time, (out_a, _p, _m) = timed(
        run_local, graph(), sources, optimized=False
    )
    naive_calls = Pricey.calls
    Pricey.calls = 0
    optimized_time, (out_b, _p2, _m2) = timed(run_local, graph(), sources)
    optimized_calls = Pricey.calls
    assert out_a[("db", "out")] == out_b[("db", "out")]

    report("ablation_tcap_opt", render_table(
        "Ablation — TCAP optimization on/off",
        ("configuration", "time", "user method calls"),
        [("naive plan", fmt_seconds(naive_time), naive_calls),
         ("optimized plan", fmt_seconds(optimized_time), optimized_calls)],
    ))
    assert optimized_calls == len(data)
    assert naive_calls == 2 * len(data)

    benchmark(lambda: run_local(graph(), sources))


class Item(PCObject):
    fields = [("key", Int32), ("weight", Float64)]


class Dim(PCObject):
    fields = [("key", Int32), ("factor", Float64)]


class WeightJoin(JoinComp):
    def get_selection(self, dim, item):
        return lambda_from_member(dim, "key") == \
            lambda_from_member(item, "key")

    def get_projection(self, dim, item):
        return lambda_from_native(
            [dim, item], lambda d, i: i.weight * d.factor
        )


@pytest.mark.benchmark(group="ablations")
def test_ablation_join_threshold(benchmark):
    """Broadcast vs hash-partition join, chosen by the size threshold."""
    def run(threshold):
        cluster = PCCluster(n_workers=4, page_size=1 << 13,
                            broadcast_threshold=threshold)
        cluster.create_database("db")
        cluster.create_set("db", "dims", Dim)
        cluster.create_set("db", "items", Item)
        with cluster.loader("db", "dims") as load:
            for key in range(20):
                load.append(Dim, key=key, factor=2.0)
        with cluster.loader("db", "items") as load:
            for i in range(1500):
                load.append(Item, key=i % 20, weight=float(i))
        before = cluster.metrics()
        join = WeightJoin()
        join.set_input(0, ObjectReader("db", "dims"))
        join.set_input(1, ObjectReader("db", "items"))
        writer = Writer("db", "out").set_input(join)
        elapsed, _log = timed(cluster.execute_computations, writer)
        out = cluster.read("db", "out")
        modes = [
            s.detail.split()[0] for s in cluster.last_job_log
            if s.kind == "BuildHashTableJobStage"
        ]
        after = cluster.metrics()
        net = {
            key: after.value("pc_net_%s_total" % key)
            - before.value("pc_net_%s_total" % key)
            for key in ("bytes_rows", "messages")
        }
        return elapsed, net, modes, sorted(out)

    b_time, b_net, b_modes, b_out = run(threshold=1 << 30)
    p_time, p_net, p_modes, p_out = run(threshold=0)
    assert b_modes == ["broadcast"]
    assert p_modes == ["partition"]
    assert b_out == p_out

    report("ablation_join_choice", render_table(
        "Ablation — broadcast vs hash-partition join",
        ("mode", "time", "shuffle row bytes", "messages"),
        [("broadcast", fmt_seconds(b_time), b_net["bytes_rows"],
          b_net["messages"]),
         ("partition", fmt_seconds(p_time), p_net["bytes_rows"],
          p_net["messages"])],
    ))
    # The partition join must repartition the big probe side; broadcast
    # ships only the small build table.
    assert p_net["bytes_rows"] > b_net["bytes_rows"]

    benchmark(lambda: run(1 << 30))


@pytest.mark.benchmark(group="ablations")
def test_ablation_vector_size(benchmark, monkeypatch):
    """Rows per object batch — the engine constant ``OBJECT_BATCH_ROWS``,
    swept: too small pays dispatch, too big pays cache."""
    class Gain(SelectionComp):
        def get_projection(self, arg):
            return lambda_from_native([arg], lambda x: x * 2.0)

    data = list(np.random.default_rng(0).normal(size=20000))
    sources = {("db", "xs"): data}

    rows = []
    times = {}
    for batch_rows in (8, 64, 1024, 16384):
        monkeypatch.setattr(vectors, "OBJECT_BATCH_ROWS", batch_rows)

        def graph():
            return Writer("db", "out").set_input(
                Gain().set_input(ObjectReader("db", "xs"))
            )

        elapsed, (outputs, _p, metrics) = timed(run_local, graph(), sources)
        assert len(outputs[("db", "out")]) == len(data)
        rows.append((batch_rows, fmt_seconds(elapsed), metrics.batches))
        times[batch_rows] = elapsed
    monkeypatch.undo()
    report("ablation_vector_size", render_table(
        "Ablation — pipeline vector (batch) size",
        ("rows per batch", "time", "batches"),
        rows,
    ))
    # Tiny batches pay per-batch overhead.
    assert times[8] > times[1024]

    benchmark(lambda: run_local(
        Writer("db", "out").set_input(
            Gain().set_input(ObjectReader("db", "xs"))
        ), sources,
    ))


@pytest.mark.benchmark(group="ablations")
def test_ablation_page_size(benchmark):
    """Page size for MatrixBlock sets (the Section 8.3.2 tuning)."""
    rng = np.random.default_rng(0)
    x = rng.normal(size=(600, 100))

    rows = []
    results = {}
    for page_size in (1 << 17, 1 << 19, 1 << 21):
        cluster = PCCluster(n_workers=4, page_size=page_size)
        matrix = DistributedMatrix.from_numpy(cluster, "lla", x, 100, 100)
        elapsed, gram = timed(
            lambda: matrix.transpose_multiply(matrix).to_numpy()
        )
        assert np.allclose(gram, x.T @ x)
        pages = cluster.metrics().value("pc_pool_pages_created_total")
        rows.append((page_size >> 10, fmt_seconds(elapsed), pages))
        results[page_size] = pages
    report("ablation_page_size", render_table(
        "Ablation — page size for MatrixBlock sets",
        ("page KB", "gram time", "pages created"),
        rows,
    ))
    assert results[1 << 17] > results[1 << 21]

    benchmark(lambda: None)
