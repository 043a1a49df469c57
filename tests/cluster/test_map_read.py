"""One Map read: both readers of an aggregation's Map pages gather them.

The task that merges the combiner pages an aggregation's exchange
delivered to its worker (``PipelineEngine.source_batches``, in a back-end process
on the process transport — the coordinator only moves the pages) and
``cluster.read(..., as_pairs=True)`` read a stored ``Map`` through one
helper, ``map_items``: the Map is read as arrays
(``repro.memory.gather.map_pairs``) into host values, which the
aggregation's ``decode_key`` / ``decode_value`` turn into what
``combine`` folds.  A Map it declines is read entry by entry and
counted, ``pc_engine_kernel_fallback_total{operator="map_read",
reason}`` (a task's through its evidence).  The result is the same
whichever way a Map was read and whichever transport ran the job.
"""

from unittest import mock

import numpy as np
import pytest

from repro.cluster import PCCluster
from repro.cluster.scheduler import DistributedScheduler
from repro.cluster.transport import remote_available
from repro.core import AggregateComp, ObjectReader, Writer, lambda_from_native
from repro.engine import pipeline
from repro.memory import Bool, Float64, Int64, PCObject, String, VectorType
from repro.memory import gather
from repro.tpch import TpchSpec, customers_per_supplier_pc, \
    load_pc_customers

from test_map_page_rolls import (
    BuyersPerShop,
    _expected,
    _sales,
    _sales_cluster,
    _sorted_items,
)

TRANSPORTS = ["sim"] + (["process"] if remote_available() else [])


def _map_reads(cluster):
    """``{reason: count}`` of the Map reads that went entry by entry."""
    family = cluster.metrics().families.get("pc_engine_kernel_fallback_total")
    out = {}
    for labels, count in (family or {"series": {}})["series"].items():
        labels = dict(labels)
        if labels["operator"] == "map_read":
            out[labels["reason"]] = out.get(labels["reason"], 0) + count
    return out


def _counting_map_pairs(monkeypatch):
    """Record every Map ``map_items`` is handed: whether it is big
    enough to be gathered (``MAP_GATHER_MIN_SIZE``)."""
    calls = []
    read = pipeline.map_pairs

    def counting(view):
        calls.append(len(view) + view.pc_block.active_objects
                     >= gather.MAP_GATHER_MIN_SIZE)
        return read(view)

    monkeypatch.setattr(pipeline, "map_pairs", counting)
    return calls


def _counting_arrived_pages(monkeypatch):
    """Record every combiner page an aggregation's exchange delivers:
    each is read once, by the task that merges it — in a back-end
    process, where :func:`_counting_map_pairs` cannot count it."""
    pages = []
    exchange = DistributedScheduler._exchange

    def counting(scheduler, held, comp=None):
        received = exchange(scheduler, held, comp)
        if comp is not None and comp.map_type is not None:
            pages.extend(page for into in received for page in into)
        return received

    monkeypatch.setattr(DistributedScheduler, "_exchange", counting)
    return pages


def _supplier_parts(tmp_path, transport):
    cluster = PCCluster(n_workers=2, page_size=1 << 16, transport=transport,
                        spill_root=str(tmp_path / transport))
    try:
        load_pc_customers(cluster, TpchSpec(n_customers=120, n_parts=40,
                                            n_suppliers=6, seed=11))
        result, total = customers_per_supplier_pc(cluster)
        return result, total, _map_reads(cluster)
    finally:
        cluster.close()


def _normalized(result):
    return {supplier: {customer: sorted(parts)
                       for customer, parts in customers.items()}
            for supplier, customers in result.items()}


def test_read_as_pairs_is_equal_on_both_transports_and_both_paths(
        tmp_path, monkeypatch):
    calls = _counting_map_pairs(monkeypatch)
    runs = {transport: _supplier_parts(tmp_path, transport)
            for transport in TRANSPORTS}
    with mock.patch.object(gather, "MAP_GATHER_MIN_SIZE", 1 << 62):
        (tmp_path / "entry").mkdir()
        entry, entry_total, _reads = _supplier_parts(tmp_path / "entry",
                                                     "sim")
    assert any(calls)  # some Map was big enough to be gathered
    for result, total, reads in runs.values():
        assert _normalized(result) == _normalized(entry)
        assert total == entry_total
        assert reads == {}


def test_a_rolled_nested_map_reads_the_same_on_both_transports(tmp_path):
    results = {}
    for transport in TRANSPORTS:
        (tmp_path / transport).mkdir()
        cluster = _sales_cluster(tmp_path / transport, transport=transport)
        try:
            agg = BuyersPerShop().set_input(ObjectReader("db", "sales"))
            Writer("db", "by_shop").set_input(agg).execute(cluster)
            results[transport] = cluster.read("db", "by_shop", as_pairs=True,
                                              comp=agg)
            reads = _map_reads(cluster)
        finally:
            cluster.close()
        assert reads == {}
    for result in results.values():
        assert _sorted_items(result) == _expected()


class AnyEven(AggregateComp):
    """shop -> did it sell an even item: a ``Bool`` value, which a Map
    gather does not read."""

    key_type = String
    value_type = Bool

    def get_key_projection(self, arg):
        return lambda_from_native([arg], lambda sale: sale.shop)

    def get_value_projection(self, arg):
        return lambda_from_native([arg], lambda sale: sale.item % 2 == 0)

    def combine(self, a, b):
        return a or b


@pytest.mark.parametrize("transport", TRANSPORTS)
def test_an_uncovered_value_type_is_counted_and_read_all_the_same(
        tmp_path, monkeypatch, transport):
    calls = _counting_map_pairs(monkeypatch)
    arrived = _counting_arrived_pages(monkeypatch)
    cluster = _sales_cluster(tmp_path, transport=transport)
    try:
        agg = AnyEven().set_input(ObjectReader("db", "sales"))
        Writer("db", "any_even").set_input(agg).execute(cluster)
        in_job = len(calls)
        result = cluster.read("db", "any_even", as_pairs=True, comp=agg)
        reads = _map_reads(cluster)
    finally:
        cluster.close()
    expected = {}
    for shop, _buyer, item in _sales():
        expected[shop] = expected.get(shop, False) or item % 2 == 0
    assert result == expected
    # every Map read — each arrived combiner page, read by the task that
    # merges it, each output page, read here — is one decline
    read_here = len(calls) - in_job
    assert reads == {"uncovered_type": len(arrived) + read_here}
    # no arrived page is read in this process unless the task ran here
    assert in_job == (len(arrived) if transport == "sim" else 0)
    assert len(arrived) >= 2 and read_here >= 2


class Point(PCObject):
    fields = [("key", Int64), ("x", Float64)]


class SumsPerKey(AggregateComp):
    """key -> (count, Σx): a ``Vector<Float64>`` value, decoded by the
    base class's numeric ``decode_value``."""

    key_type = Int64
    value_type = VectorType(Float64)

    def get_key_projection(self, arg):
        return lambda_from_native([arg], lambda p: p.key)

    def get_value_projection(self, arg):
        return lambda_from_native([arg], lambda p: np.array([1.0, p.x]))


def _sums(tmp_path, transport, keys):
    cluster = PCCluster(n_workers=2, page_size=1 << 16, transport=transport,
                        spill_root=str(tmp_path))
    try:
        cluster.register_type(Point)
        cluster.create_database("db")
        cluster.create_set("db", "points", Point)
        with cluster.loader("db", "points") as load:
            for i in range(4 * keys):
                load.append(Point, key=i % keys, x=i / 8.0)
        agg = SumsPerKey().set_input(ObjectReader("db", "points"))
        Writer("db", "sums").set_input(agg).execute(cluster)
        return cluster.read("db", "sums", as_pairs=True, comp=agg)
    finally:
        cluster.close()


@pytest.mark.parametrize("keys", [4, 300])
def test_numeric_vector_values_decode_to_ndarrays_either_way(
        tmp_path, monkeypatch, keys):
    (tmp_path / "gathered").mkdir()
    (tmp_path / "entry").mkdir()
    calls = _counting_map_pairs(monkeypatch)
    gathered = _sums(tmp_path / "gathered", "sim", keys)
    assert any(calls) == (keys > 100)
    with mock.patch.object(gather, "MAP_GATHER_MIN_SIZE", 1 << 62):
        entry = _sums(tmp_path / "entry", "sim", keys)
    assert sorted(gathered) == sorted(entry) == list(range(keys))
    for key, value in gathered.items():
        assert isinstance(value, np.ndarray) and value.dtype == np.float64
        assert np.array_equal(value, entry[key])
        xs = [i / 8.0 for i in range(key, 4 * keys, keys)]
        assert np.array_equal(value, [4.0, sum(xs)])
