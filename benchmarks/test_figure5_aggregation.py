"""Figure 5: distributed aggregation, stage by stage.

The paper's figure traces aggregation through the producing stage
(pipelining threads pre-aggregating into per-partition Maps), the
combiner pages shipped across the cluster, and the consuming stage
(aggregation threads merging shuffled Maps).  The bench instruments one
distributed aggregation and reports exactly those quantities, checking
the signature property: the shuffle consists purely of PC Map pages
moved as raw bytes.
"""

import pytest

from repro.cluster import PCCluster
from repro.core import AggregateComp, ObjectReader, Writer, \
    lambda_from_member
from repro.memory import Float64, Int32, Int64, PCObject

from bench_utils import render_table, report


class Sale(PCObject):
    fields = [("store", Int32), ("amount", Float64)]


class TotalByStore(AggregateComp):
    key_type = Int64
    value_type = Float64

    def get_key_projection(self, arg):
        return lambda_from_member(arg, "store")

    def get_value_projection(self, arg):
        return lambda_from_member(arg, "amount")


@pytest.mark.benchmark(group="figure5")
def test_figure5_distributed_aggregation(benchmark):
    n_workers = 4
    cluster = PCCluster(n_workers=n_workers, page_size=1 << 13)
    cluster.register_type(Sale)
    cluster.create_database("db")
    cluster.create_set("db", "sales", Sale)
    n_keys = 50
    with cluster.loader("db", "sales") as load:
        for i in range(2000):
            load.append(Sale, store=i % n_keys, amount=float(i))
    loaded = cluster.metrics()

    reader = ObjectReader("db", "sales")
    agg = TotalByStore().set_input(reader)
    writer = Writer("db", "totals").set_input(agg)
    cluster.execute_computations(writer)

    result = cluster.read("db", "totals", as_pairs=True, comp=agg)
    expected = {}
    for i in range(2000):
        expected[i % n_keys] = expected.get(i % n_keys, 0.0) + float(i)
    assert result == expected

    after = cluster.metrics()
    pre_aggregated = (
        after.value("pc_engine_pre_aggregated_keys_total")
        - loaded.value("pc_engine_pre_aggregated_keys_total")
    )
    network = {
        key: after.value("pc_net_%s" % key) - loaded.value("pc_net_%s" % key)
        for key in ("messages_total", "bytes_total", "bytes_rows_total",
                    "bytes_zero_copy_total")
    }
    rows = [
        ("1. producing stage",
         "pipelining threads pre-aggregated %d (key, value) groups "
         "across %d workers" % (pre_aggregated, n_workers)),
        ("2. combining",
         "pre-aggregated groups hash-partitioned into %d partitions "
         "and packed into PC Map combiner pages" % n_workers),
        ("3. shuffle",
         "%d messages, %d bytes — all zero-copy page bytes "
         "(row bytes: %d)" % (
             network["messages_total"], network["bytes_total"],
             network["bytes_rows_total"])),
        ("4. consuming stage",
         "aggregation threads merged shuffled Maps into %d final keys"
         % len(result)),
    ]
    report("figure5_aggregation", render_table(
        "Figure 5 — distributed aggregation workflow",
        ("stage", "activity"),
        rows,
    ))

    # The signature property: the aggregation shuffle moves only whole
    # PC Map pages (zero serialization), never pickled rows.
    assert network["bytes_zero_copy_total"] > 0
    assert network["bytes_rows_total"] == 0
    # Pre-aggregation means each worker sends at most n_keys groups.
    assert 0 < pre_aggregated <= n_keys * n_workers

    benchmark(lambda: cluster.execute_computations(
        Writer("db", "totals2").set_input(
            TotalByStore().set_input(ObjectReader("db", "sales"))
        )
    ))
