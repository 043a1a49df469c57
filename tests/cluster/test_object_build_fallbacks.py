"""Object trees the loader does not plan are counted, never silent.

``ClusterLoader.extend`` writes each page of host-value trees with one
plan and one scatter (``repro.memory.scatter.plan_objects``).  A record
the planner declines is appended object by object — the same objects —
and the reason reaches ``cluster.metrics()`` as
``pc_engine_kernel_fallback_total{operator="object_build", reason}``.
A TPC-H load is planned whole, on either transport.
"""

import pytest

from repro.cluster import PCCluster
from repro.cluster.transport import remote_available
from repro.memory import AllocationBlock, Int32, PCObject, String, \
    make_object_on
from repro.tpch import TpchSpec, load_pc_customers

TRANSPORTS = ["sim"] + (["process"] if remote_available() else [])


class Tag(PCObject):
    fields = [("label", String), ("weight", Int32)]


class Tagged(PCObject):
    fields = [("id", Int32), ("tag", Tag)]


def _object_builds(snapshot):
    """``{reason: count}`` of the declined object builds."""
    family = snapshot.families.get("pc_engine_kernel_fallback_total")
    out = {}
    for labels, count in (family or {"series": {}})["series"].items():
        labels = dict(labels)
        if labels["operator"] == "object_build":
            out[labels["reason"]] = out.get(labels["reason"], 0) + count
    return out


def _cluster(tmp_path, transport, page_size):
    return PCCluster(n_workers=2, page_size=page_size, transport=transport,
                     spill_root=str(tmp_path / transport))


@pytest.mark.parametrize("transport", TRANSPORTS)
def test_a_tpch_load_is_planned_whole(tmp_path, transport):
    with _cluster(tmp_path, transport, 1 << 14) as cluster:
        loaded = load_pc_customers(cluster, TpchSpec(40, n_parts=30,
                                                     n_suppliers=5, seed=2))
        assert loaded == 40 == len(cluster.read("tpch", "customers"))
        assert _object_builds(cluster.metrics()) == {}


def _load_with_one_handle(tmp_path, transport):
    with _cluster(tmp_path, transport, 1 << 12) as cluster:
        for cls in (Tag, Tagged):
            cluster.register_type(cls)
        # a client-side object of the cluster's types, off every page
        elsewhere = AllocationBlock(1 << 12,
                                    registry=cluster.catalog.registry)
        records = [{"id": i, "tag": {"label": "tag-%d" % i, "weight": i}}
                   for i in range(120)]
        records[50]["tag"] = make_object_on(elsewhere, Tag, label="linked",
                                            weight=7)
        cluster.create_database("db")
        cluster.create_set("db", "tagged", Tagged)
        with cluster.loader("db", "tagged") as load:
            load.extend(Tagged, records)
        rows = sorted(
            (view.id, view.tag.deref().label, view.tag.deref().weight)
            for view in (row.deref() for row in cluster.read("db", "tagged"))
        )
        return rows, _object_builds(cluster.metrics())


def test_a_record_holding_a_handle_is_declined_once_on_either_transport(
        tmp_path):
    results = [_load_with_one_handle(tmp_path, transport)
               for transport in TRANSPORTS]
    rows, declined = results[0]
    assert declined == {"reference": 1}
    assert len(rows) == 120 and rows[50] == (50, "linked", 7)
    assert rows[49] == (49, "tag-49", 49)
    assert all(result == results[0] for result in results)
