"""Figure 4: the PC distributed runtime, end to end.

The paper's architecture figure shows the master (catalog manager,
distributed storage manager, TCAP optimizer, distributed query
scheduler) and the workers' front-end/back-end pairs.  This bench runs a
selection + aggregation across a simulated cluster and prints the trace
each component leaves behind: the job stages the scheduler emitted, the
catalog's dynamic type fetches, per-worker buffer-pool activity, and the
network's zero-copy page traffic.
"""

import pytest

from repro.cluster import PCCluster
from repro.core import (
    AggregateComp,
    ObjectReader,
    SelectionComp,
    Writer,
    lambda_from_member,
)
from repro.memory import Float64, Int32, Int64, PCObject

from bench_utils import render_table, report


class Reading(PCObject):
    fields = [("sensor", Int32), ("value", Float64)]


class Hot(SelectionComp):
    def get_selection(self, arg):
        return lambda_from_member(arg, "value") > 50.0


class SumBySensor(AggregateComp):
    key_type = Int64
    value_type = Float64

    def get_key_projection(self, arg):
        return lambda_from_member(arg, "sensor")

    def get_value_projection(self, arg):
        return lambda_from_member(arg, "value")


@pytest.mark.benchmark(group="figure4")
def test_figure4_runtime_trace(benchmark):
    cluster = PCCluster(n_workers=3, page_size=1 << 13)
    cluster.register_type(Reading)
    cluster.create_database("db")
    cluster.create_set("db", "readings", Reading)
    with cluster.loader("db", "readings") as load:
        for i in range(600):
            load.append(Reading, sensor=i % 7, value=float(i % 100))

    reader = ObjectReader("db", "readings")
    agg = SumBySensor().set_input(Hot().set_input(reader))
    writer = Writer("db", "sums").set_input(agg)
    job_log = cluster.execute_computations(writer)

    result = cluster.read("db", "sums", as_pairs=True, comp=agg)
    expected = {}
    for i in range(600):
        if (i % 100) > 50:
            expected[i % 7] = expected.get(i % 7, 0.0) + float(i % 100)
    assert result == expected

    rows = [("master", "scheduler", repr(stage)) for stage in job_log]
    rows.append((
        "master", "catalog",
        "%d types registered, %d library fetches served"
        % (len(cluster.catalog.registry.entries()),
           cluster.catalog.library_requests),
    ))
    lifetime = cluster.metrics()
    for worker in cluster.workers:
        rows.append((
            worker.worker_id, "front-end storage",
            "pool: %d pages, %d evictions, %d spills" % tuple(
                lifetime.value("pc_pool_%s_total" % key,
                               worker=worker.worker_id)
                for key in ("pages_created", "evictions", "spills")
            ),
        ))
        rows.append((
            worker.worker_id, "front-end catalog",
            "%d dynamic type fetches" % worker.local_catalog.fetches,
        ))
        rows.append((
            worker.worker_id, "back-end",
            "re-forked %d times" % worker.refork_count,
        ))
    zero_copy = lifetime.value("pc_net_bytes_zero_copy_total")
    rows.append((
        "network", "traffic",
        "%d messages, %d bytes (%d zero-copy)" % (
            lifetime.value("pc_net_messages_total"),
            lifetime.value("pc_net_bytes_total"), zero_copy,
        ),
    ))
    report("figure4_runtime", render_table(
        "Figure 4 — distributed runtime trace of one execution",
        ("node", "component", "activity"),
        rows,
    ))

    assert any("AggregationJobStage" in repr(s) for s in job_log)
    assert zero_copy > 0
    assert all(w.refork_count == 0 for w in cluster.workers)

    benchmark(lambda: cluster.execute_computations(
        Writer("db", "sums2").set_input(
            SumBySensor().set_input(
                Hot().set_input(ObjectReader("db", "readings"))
            )
        )
    ))
