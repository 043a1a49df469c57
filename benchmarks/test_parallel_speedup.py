"""Aggregate pool memory across workers: reloads removed, not CPUs added.

PC's scale-out argument (paper §2, §6) is not only about CPUs: adding
workers multiplies *aggregate buffer-pool memory*.  This bench fixes the
per-worker pool at half the k-means point set, so one worker has to
reload on every scan the pages that do not fit, while two or four
workers hold their shares resident and reload nothing.  The k-means
ratio of seconds at one worker to seconds at four is therefore the cost
of those reloads (plus whatever the box's cores add — ``cpus`` is
recorded beside it); it is **not** a CPU-scaling figure, and the reload
counts are reported next to every time.  TPC-H's customer/supplier
aggregation (Table 3) fits the pool at every worker count and is the
CPU-scaling control: every one of its tasks — the OUTPUT stage's, which
build the set's Map pages, included — runs in a back-end process, so
workers up to the box's cores should make it faster.  Both run on
``PCCluster(transport="process")`` with real spawned back-ends.

What changed (PR 20): TPC-H ran 120 customers — a 29 ms job, shorter
than its own dispatches, which is why ``speedup_4_over_1`` read 0.643 —
and now runs 1,500, so a task outlasts a dispatch (a 64 MiB pool per
worker keeps it resident at one worker too); the file records
``speedup_2_over_1`` beside ``speedup_4_over_1``, each the best of three
timed runs, and ``cpus``; a speedup is asserted ``> 1.0`` only for
worker counts the box has cores for.

Timing starts after one warm-up iteration, so child-process spawning
and the initial load/spill are excluded from every configuration alike.
The measured numbers land in ``BENCH_parallel.json`` at the repo root.
What is asserted is the counts, which repeat exactly: one worker
reloads, but fewer pages than ``pages x scans`` (the buffer pool evicts
an oversized set most-recently-used, DESIGN §17, so a scan keeps what
fits; plain LRU reloaded every page of every scan, 7,500 here), and
four workers reload none.
"""

import json
import os
import time

import numpy as np
import pytest

from repro.cluster import PCCluster
from repro.cluster.transport import remote_available
from repro.ml import PCKMeans
from repro.tpch import TpchSpec, customers_per_supplier_pc, load_pc_customers

from bench_utils import render_table, report, timed

BENCH_PATH = os.path.join(
    os.path.dirname(__file__), os.pardir, "BENCH_parallel.json"
)

#: Fixed per-worker pool: the k-means point set (~10 MiB of sealed
#: pages) is twice one 5 MiB pool but sits resident across 2 or 4.
WORKER_MEMORY = 5 << 20
PAGE_SIZE = 1 << 13
WORKER_COUNTS = (1, 2, 4)

KM_DIM = 16
KM_POINTS = 70000
KM_K = 2
KM_ITERATIONS = 4
#: Scans of the point set a run makes: initialize, warm-up, iterations.
KM_SCANS = KM_ITERATIONS + 2
#: 56 points x 16 dims x 8 bytes ~= 7 KiB: one chunk fills one 8 KiB
#: page, so the stored footprint tracks the raw data size.
KM_CHUNK = 56

#: Big enough that a task (hundreds of ms at one worker) outlasts a
#: dispatch (about 1 ms); its pool holds the set at any worker count.
TPCH_SPEC = TpchSpec(n_customers=1500, n_parts=160, n_suppliers=12, seed=5)
TPCH_WORKER_MEMORY = 64 << 20
TPCH_RUNS = 3


def _points():
    rng = np.random.default_rng(KM_DIM)
    centers = rng.normal(scale=5.0, size=(KM_K, KM_DIM))
    return np.vstack([
        rng.normal(loc=centers[i % KM_K], scale=0.5,
                   size=(KM_POINTS // KM_K, KM_DIM))
        for i in range(KM_K)
    ])


def _cluster(tmp_path, name, n_workers, page_size=PAGE_SIZE,
             worker_memory=WORKER_MEMORY):
    root = tmp_path / name
    root.mkdir()
    return PCCluster(
        n_workers=n_workers, page_size=page_size,
        worker_memory=worker_memory, spill_root=str(root),
        transport="process",
    )


def _kmeans_run(tmp_path, n_workers, points):
    cluster = _cluster(tmp_path, "km%d" % n_workers, n_workers)
    km = PCKMeans(cluster, set_name="points")
    km.load(points, chunk_size=KM_CHUNK)
    centers = km.initialize(KM_K, seed=7)
    centers = km.iterate(centers)  # warm-up: spawn children, first scan
    start = time.perf_counter()
    for _ in range(KM_ITERATIONS):
        centers = km.iterate(centers)
    elapsed = time.perf_counter() - start
    lifetime = cluster.metrics()
    spills = lifetime.value("pc_pool_spills_total")
    reloads = lifetime.value("pc_pool_reloads_total")
    pages = sum(
        len(partition.page_ids)
        for partition in cluster.storage_manager.partitions(
            km.database, km.set_name
        )
    )
    cluster.close()
    return elapsed, centers, spills, reloads, pages


def _tpch_run(tmp_path, n_workers):
    # TPC-H customers are nested maps that outgrow the k-means pages.
    cluster = _cluster(
        tmp_path, "tpch%d" % n_workers, n_workers, page_size=1 << 18,
        worker_memory=TPCH_WORKER_MEMORY,
    )
    load_pc_customers(cluster, TPCH_SPEC)
    customers_per_supplier_pc(cluster)  # warm-up
    runs = [
        timed(customers_per_supplier_pc, cluster) for _ in range(TPCH_RUNS)
    ]
    reloads = cluster.metrics().value("pc_pool_reloads_total")
    placements = {
        span.detail for span in cluster.last_trace.spans(kind="task")
        if span.pid is None
    }
    cluster.close()
    elapsed, (_result, total) = min(runs, key=lambda run: run[0])
    return elapsed, total, reloads, placements


@pytest.mark.skipif(
    not remote_available(), reason="cloudpickle unavailable"
)
@pytest.mark.benchmark(group="parallel")
def test_parallel_speedup(tmp_path, benchmark):
    points = _points()
    kmeans, tpch = {}, {}
    baseline_centers = None
    for n_workers in WORKER_COUNTS:
        elapsed, centers, spills, reloads, pages = _kmeans_run(
            tmp_path, n_workers, points
        )
        kmeans[n_workers] = {
            "seconds": elapsed, "spills": spills, "reloads": reloads,
        }
        if baseline_centers is None:
            baseline_centers = centers
        else:
            # More workers changes the partitioning, not the math.
            np.testing.assert_allclose(centers, baseline_centers)
        t_elapsed, total, t_reloads, placements = _tpch_run(
            tmp_path, n_workers
        )
        assert total > 0
        # The CPU-scaling control: resident, and all in the back-ends.
        assert t_reloads == 0 and placements == {"shipped"}
        tpch[n_workers] = {"seconds": t_elapsed}

    km_ratio = kmeans[1]["seconds"] / kmeans[4]["seconds"]
    tpch_speedups = {
        n: tpch[1]["seconds"] / tpch[n]["seconds"] for n in (2, 4)
    }
    doc = {
        "transport": "process",
        "cpus": os.cpu_count(),
        "worker_memory_bytes": WORKER_MEMORY,
        "page_size_bytes": PAGE_SIZE,
        "kmeans": {
            "dim": KM_DIM, "points": KM_POINTS, "k": KM_K,
            "iterations": KM_ITERATIONS,
            "pages": pages, "scans": KM_SCANS,
            "by_workers": {str(n): kmeans[n] for n in WORKER_COUNTS},
            # What the extra pools' memory saves in reloads, not CPU
            # scaling: see the reload counts beside the seconds.
            "seconds_1_over_4": round(km_ratio, 3),
        },
        "tpch": {
            "customers": TPCH_SPEC.n_customers,
            "worker_memory_bytes": TPCH_WORKER_MEMORY,
            "runs": TPCH_RUNS,  # "seconds" is the best of them
            "by_workers": {str(n): tpch[n] for n in WORKER_COUNTS},
            "speedup_2_over_1": round(tpch_speedups[2], 3),
            "speedup_4_over_1": round(tpch_speedups[4], 3),
            "changed": "PR 20: 120 customers (a 29 ms job, shorter than "
                       "its dispatches) -> 1,500, best of 3 runs; "
                       "speedup_2_over_1 added; asserted > 1.0 for "
                       "worker counts <= cpus",
        },
    }
    with open(BENCH_PATH, "w") as f:
        json.dump(doc, f, indent=2, sort_keys=True)
        f.write("\n")

    rows = [
        (
            n,
            "%.2fs" % kmeans[n]["seconds"],
            kmeans[n]["reloads"],
            "%.2fs" % tpch[n]["seconds"],
        )
        for n in WORKER_COUNTS
    ]
    report("parallel_speedup", render_table(
        "Process-transport speedup (fixed %d MiB pool per worker)"
        % (WORKER_MEMORY >> 20),
        ["workers", "kmeans", "reloads", "tpch"], rows,
    ))

    # What the bench exists to demonstrate, as counts that repeat
    # exactly: one worker's pool cannot hold the set and reloads — but
    # only the pages that do not fit, not every page of every scan —
    # and four workers hold it resident.
    assert 0 < kmeans[1]["reloads"] < pages * KM_SCANS
    assert kmeans[4]["reloads"] == 0
    # CPU scaling, claimed only where there are cores to scale onto.
    for n_workers, speedup in tpch_speedups.items():
        if n_workers <= os.cpu_count():
            assert speedup > 1.0, (n_workers, tpch)

    benchmark(lambda: None)
