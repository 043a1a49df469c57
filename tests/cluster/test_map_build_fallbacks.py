"""Map builds the planner does not take are counted, never silent.

Both Map-page writers — the combiner pages an ``AggregateSink`` packs and
the output pages a ``MapPageOutputSink`` fills — plan and scatter a Map
built from host values (``repro.memory.scatter``).  A Map it declines is
built pair by pair, the same bytes, and the reason is task evidence:
``pc_engine_kernel_fallback_total{operator="map_build", reason}`` and
``op.kernel_fallback.<reason>`` on the task's span, on either transport.
The aggregations the benchmark jobs declare are all planned.
"""

import pytest

from repro.cluster import PCCluster
from repro.cluster.transport import remote_available
from repro.core import AggregateComp, ObjectReader, Writer, lambda_from_native
from repro.memory import Int32, PCObject, String, VectorType, scatter

from test_task_evidence import _run

TRANSPORTS = ["sim"] + (["process"] if remote_available() else [])


class Sale(PCObject):
    fields = [("shop", String), ("buyer", String), ("item", Int32)]


class BuyersPerShop(AggregateComp):
    """shop -> [buyer, ...]: a ``Vector<String>`` value, which the
    planner does not cover."""

    key_type = String
    value_type = VectorType(String)

    def get_key_projection(self, arg):
        return lambda_from_native([arg], lambda sale: sale.shop)

    def get_value_projection(self, arg):
        return lambda_from_native([arg], lambda sale: [sale.buyer])

    def combine(self, a, b):
        return list(a) + list(b)

    def decode_value(self, stored):
        return list(stored)


def _sales():
    return [("shop-%d" % (i % 5), "buyer-%02d" % (i % 13), i)
            for i in range(200)]


def _map_build_fallbacks(snapshot):
    family = snapshot.families.get("pc_engine_kernel_fallback_total")
    out = {}
    for labels, count in (family or {"series": {}})["series"].items():
        labels = dict(labels)
        if labels["operator"] == "map_build":
            out[labels["reason"]] = out.get(labels["reason"], 0) + count
    return out


@pytest.mark.parametrize("transport", TRANSPORTS)
def test_an_uncovered_value_type_is_counted_and_built_all_the_same(
        tmp_path, transport):
    cluster = PCCluster(n_workers=2, page_size=1 << 14, transport=transport,
                        spill_root=str(tmp_path), profiling=True)
    try:
        cluster.register_type(Sale)
        cluster.create_database("db")
        cluster.create_set("db", "sales", Sale)
        with cluster.loader("db", "sales") as load:
            for shop, buyer, item in _sales():
                load.append(Sale, shop=shop, buyer=buyer, item=item)
        agg = BuyersPerShop().set_input(ObjectReader("db", "sales"))
        Writer("db", "by_shop").set_input(agg).execute(cluster)
        result = cluster.read("db", "by_shop", as_pairs=True, comp=agg)
        fallbacks = _map_build_fallbacks(cluster.metrics())
        on_spans = sum(
            span.counters.get("op.kernel_fallback.uncovered_type", 0)
            for trace in cluster.traces(16) for span in trace.spans()
        )
    finally:
        cluster.close()

    expected = {}
    for shop, buyer, _item in _sales():
        expected.setdefault(shop, []).append(buyer)
    assert {shop: sorted(buyers) for shop, buyers in result.items()} == \
        {shop: sorted(buyers) for shop, buyers in expected.items()}
    # every combiner page and every output page: one Map build each
    assert list(fallbacks) == ["uncovered_type"]
    assert fallbacks["uncovered_type"] >= 4
    assert on_spans == fallbacks["uncovered_type"]


@pytest.mark.parametrize("workload", ["tpch_objects", "kmeans", "lineitem"])
def test_the_benchmark_aggregations_are_all_planned(tmp_path, monkeypatch,
                                                    workload):
    planned, plan = [], scatter.scatter_map

    def counting(*args):
        stored = plan(*args)
        planned.append(stored)
        return stored

    monkeypatch.setattr(scatter, "scatter_map", counting)
    snapshot, _traces = _run(tmp_path, "sim", workload)
    assert _map_build_fallbacks(snapshot) == {}
    assert planned and 0 not in planned
