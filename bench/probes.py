"""Stand-alone layer probes.

Each probe calls only public functions of the module it measures, runs in
the traced round (never inside a timed window) and reports a median with
its sample count.  Values are raw, not nominal: a probe is a few hundred
microseconds of one layer, compared across commits by its median.
"""

from __future__ import annotations

import time
from statistics import median

import numpy as np

from repro.cluster import PCCluster
from repro.memory import (
    AllocationBlock,
    ColumnarPage,
    VectorType,
    make_object,
    make_object_on,
    use_allocation_block,
)
from repro.memory.builtins import AnyObject
from repro.storage.buffer_pool import BufferPool
from repro.tpch import TpchSpec, load_pc_customers
from repro.tpch.lineitem import LINEITEM_SCHEMA, generate_lineitems

from bench.workloads import Order

_ROOT_VECTOR = VectorType(AnyObject)


def _median_of(fn, samples, inner=1):
    """Median seconds of one ``fn()`` call over ``samples`` timings."""
    times = []
    for _ in range(samples):
        started = time.perf_counter()
        for _i in range(inner):
            fn()
        times.append((time.perf_counter() - started) / inner)
    return median(times), samples


def _block_with_root(size, registry=None):
    block = AllocationBlock(size, registry=registry)
    handle = make_object_on(block, _ROOT_VECTOR, [])
    block.set_root(handle.offset, handle.type_code)
    return block, _ROOT_VECTOR.facade(block, handle.offset)


# -- memory ----------------------------------------------------------------------------

def memory_probes(spill_root):
    """The object model's read and write paths over stored Customers."""
    out = {}
    with PCCluster(n_workers=1, page_size=1 << 18, transport="sim",
                   tracing=False, spill_root=spill_root) as cluster:
        load_pc_customers(cluster, TpchSpec(32, n_parts=150, n_suppliers=12,
                                            seed=0))
        handles = cluster.read("tpch", "customers")
        views = [handle.deref() for handle in handles]

        def field_reads():
            for view in views:
                view.cust_key
                view.name

        seconds, n = _median_of(field_reads, 30)
        out["memory.field_read_ns"] = (seconds / (2 * len(views)) * 1e9, n)

        def walk():
            for view in views:
                view.supplier_parts()

        seconds, n = _median_of(walk, 15)
        out["memory.nested_walk_us"] = (seconds / len(views) * 1e6, n)

        registry = cluster.catalog.registry

        def deep_copy():
            _block, root = _block_with_root(1 << 18, registry)
            for handle in handles:
                root.append(handle)

        seconds, n = _median_of(deep_copy, 9)
        out["memory.deep_copy_us"] = (seconds / len(handles) * 1e6, n)

        partition = cluster.storage_manager.partitions("tpch", "customers")[0]
        with partition.pinned_page(partition.page_ids[0]) as page:
            sealed = page.to_bytes()

        def codec():
            AllocationBlock.from_bytes(sealed, registry=registry).to_bytes()

        seconds, n = _median_of(codec, 30)
        out["memory.page_codec_mb_s"] = (2 * len(sealed) / seconds / 1e6, n)

    def make_orders():
        block = AllocationBlock(1 << 18)
        with use_allocation_block(block):
            for i in range(200):
                make_object(Order, oid=i, dim_id=i % 7, amount=i,
                            note="note-%d" % i)

    seconds, n = _median_of(make_orders, 9)
    out["memory.make_object_us"] = (seconds / 200 * 1e6, n)

    columns = generate_lineitems(1000, seed=0)
    page = ColumnarPage.build(LINEITEM_SCHEMA, columns, 1 << 16)
    seconds, n = _median_of(
        lambda: ColumnarPage.attach(page.block).rows().column("discount"),
        30, inner=20,
    )
    out["memory.column_view_us"] = (seconds * 1e6, n)
    return out


# -- storage ---------------------------------------------------------------------------

def storage_probes(spill_dir):
    """A stand-alone pool: resident pin/unpin, then a forced reload."""
    out = {}
    page_size = 1 << 16
    sealed = ColumnarPage.build(
        LINEITEM_SCHEMA, generate_lineitems(1000, seed=0), page_size
    ).block.to_bytes()
    pool = BufferPool(2 * page_size, page_size=page_size,
                      spill_dir=spill_dir)
    try:
        page_ids = []
        for _ in range(3):
            page = pool.adopt_page(sealed)
            pool.unpin(page.page_id, dirty=True)
            page_ids.append(page.page_id)
        resident = page_ids[-1]

        def pin_hit():
            pool.pin(resident)
            pool.unpin(resident)

        seconds, n = _median_of(pin_hit, 30, inner=200)
        out["storage.pin_hit_us"] = (seconds * 1e6, n)

        # Three pages through a two-page pool in LRU order: every pin
        # finds its page evicted.
        reloads_before = pool.reloads
        times = []
        for index in range(60):
            page_id = page_ids[index % 3]
            started = time.perf_counter()
            pool.pin(page_id)
            times.append(time.perf_counter() - started)
            pool.unpin(page_id)
        if pool.reloads - reloads_before != len(times):
            raise RuntimeError("reload probe: pins were served from memory")
        out["storage.reload_ms"] = (median(times) * 1e3, len(times))
    finally:
        pool.close()
    return out


# -- cluster and catalog, on the traced round's live cluster ---------------------------

def _noop():
    return None


def cluster_probes(cluster):
    out = {}
    worker = cluster.workers[0]
    times = []
    for _ in range(200):
        started = time.perf_counter()
        worker.dispatch(_noop)
        times.append(time.perf_counter() - started)
    out["cluster.dispatch_rtt_ms"] = (median(times) * 1e3, len(times))

    data = bytes(np.random.default_rng(0).integers(
        0, 256, size=1 << 18, dtype=np.uint8
    ))
    times = []
    for _ in range(200):
        started = time.perf_counter()
        cluster.transport.ship_page("worker-0", "worker-1", data)
        times.append(time.perf_counter() - started)
    out["cluster.ship_page_mb_s"] = (
        len(data) / median(times) / 1e6, len(times)
    )
    return out


def catalog_probes(cluster):
    """``create_set`` (one WAL append each), then a journal replay.

    Runs last: ``recover`` rebuilds the catalog the cluster is using.
    """
    out = {}
    cluster.create_database("bench_probe")
    times = []
    for index in range(20):
        started = time.perf_counter()
        cluster.create_set("bench_probe", "s%d" % index)
        times.append(time.perf_counter() - started)
    for index in range(20):
        cluster.drop_set("bench_probe", "s%d" % index)
    out["catalog.create_set_ms"] = (median(times) * 1e3, len(times))

    times = []
    for _ in range(5):
        started = time.perf_counter()
        cluster.recover()
        times.append(time.perf_counter() - started)
    out["catalog.recover_ms"] = (median(times) * 1e3, len(times))
    return out
