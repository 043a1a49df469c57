"""Tests for the simulated network's byte accounting (its ``pc_net_*``
families, read off a snapshot of the transport's registry)."""

from repro.cluster.network import SimulatedNetwork, estimate_value_bytes
from repro.obs import Tracer


def test_stats_split_zero_copy_and_row_traffic():
    net = SimulatedNetwork()
    net.ship_page("client", "worker-0", b"x" * 1000)
    net.ship_rows("worker-0", "worker-1", [(1, "a"), (2, "b")])
    stats = net.metrics.snapshot()
    assert stats.value("pc_net_messages_total") == 2
    assert stats.value("pc_net_bytes_zero_copy_total") == 1000
    assert stats.value("pc_net_bytes_rows_total") == \
        estimate_value_bytes((1, "a")) + estimate_value_bytes((2, "b"))
    assert stats.value("pc_net_bytes_total") == \
        stats.value("pc_net_bytes_zero_copy_total") + \
        stats.value("pc_net_bytes_rows_total")


def test_stats_surface_per_link_breakdown():
    """Skewed shuffle partners show as ``pc_net_link_bytes_total{src,dst}``."""
    net = SimulatedNetwork()
    net.ship_page("client", "worker-0", b"x" * 100)
    net.ship_page("client", "worker-0", b"y" * 50)
    net.ship_rows("worker-0", "worker-1", [(1,)])
    stats = net.metrics.snapshot()
    link = "pc_net_link_bytes_total"
    assert stats.value(link, src="client", dst="worker-0") == 150
    assert stats.value(link, src="worker-0", dst="worker-1") == \
        estimate_value_bytes((1,))
    assert stats.value(link) == stats.value("pc_net_bytes_total")
    assert sorted((l["src"], l["dst"]) for l in stats.labels(link)) == \
        [("client", "worker-0"), ("worker-0", "worker-1")]


def test_transfers_report_into_the_active_span():
    tracer = Tracer()
    net = SimulatedNetwork(tracer=tracer)
    net.ship_page("a", "b", b"x" * 7)  # outside any span: global only
    with tracer.span("job", kind="job"):
        net.ship_page("worker-0", "worker-1", b"x" * 10)
        net.ship_rows("worker-1", "worker-0", [(1, 2)])
    totals = tracer.last_trace.totals()
    assert totals["net.bytes_zero_copy"] == 10
    assert totals["net.bytes_rows"] == estimate_value_bytes((1, 2))
    assert totals["net.link_bytes.worker-0.worker-1"] == 10
    assert "net.link_bytes.a.b" not in totals
    # the registry still covers everything
    assert net.metrics.snapshot().value("pc_net_bytes_zero_copy_total") == 17


def test_mutating_returned_by_link_does_not_corrupt_accounting():
    """A snapshot is a copy: editing its link series touches nothing."""
    net = SimulatedNetwork()
    net.ship_page("client", "worker-0", b"x" * 100)

    series = net.metrics.snapshot().families["pc_net_link_bytes_total"][
        "series"]
    for labels in list(series):
        series[labels] = 999999
    series[(("src", "attacker"), ("dst", "victim"))] = 1

    after = net.metrics.snapshot()
    assert after.labels("pc_net_link_bytes_total") == \
        [{"src": "client", "dst": "worker-0"}]
    assert after.value("pc_net_link_bytes_total") == 100
    assert after.value("pc_net_bytes_total") == 100
