"""Tests for the simulator's byte accounting (its ``pc_net_*`` families,
read off a snapshot of the transport's registry) and its one transfer
loop: a drop and a corrupted arrival each get the re-send budget."""

import pytest

from repro.cluster import FaultInjector, RetryPolicy
from repro.cluster.transport import Transport, estimate_value_bytes
from repro.errors import PageCorruptionError, TransferDroppedError
from repro.obs import Tracer
from repro.storage.replication import page_checksum


def test_stats_split_zero_copy_and_row_traffic():
    net = Transport()
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
    net = Transport()
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
    net = Transport(tracer=tracer)
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
    net = Transport()
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


# -- one transfer loop: drops and corruptions each get the re-send budget -------------


class _Scripted:
    """A fault injector whose verdicts are a fixed sequence."""

    def __init__(self, verdicts):
        self.verdicts = list(verdicts)
        self.calls = 0

    def on_transfer(self, src, dst, nbytes):
        self.calls += 1
        return self.verdicts.pop(0), 0.0


def _counts(net):
    snapshot = net.metrics.snapshot()
    return tuple(snapshot.value("pc_net_%s_total" % name) for name in (
        "transfers_dropped", "transfers_corrupted", "transfer_retries",
        "messages"))


def test_a_drop_then_a_corruption_arrives_intact_on_one_resend_each():
    injector = FaultInjector().drop_transfer(times=1).corrupt_transfer(times=1)
    net = Transport(fault_injector=injector,
                           retry_policy=RetryPolicy(transfer_retries=1))
    data = bytes(range(256)) * 4
    assert net.ship_page("a", "b", data, checksum=page_checksum(data)) == data
    # dropped, corrupted, retries, messages (the drop delivered nothing)
    assert _counts(net) == (1, 1, 2, 2)


@pytest.mark.parametrize("verdicts, counts", [
    (["drop", "corrupt", "deliver"], (1, 1, 2, 2)),
    (["corrupt", "drop", "deliver"], (1, 1, 2, 2)),
    # each re-send of a corrupted arrival has its own drop budget
    (["drop", "corrupt", "drop", "deliver"], (2, 1, 3, 2)),
])
def test_scripted_transfers_arrive_intact(verdicts, counts):
    rows = [(1, "a"), (2, "b")]
    for ship, payload in (
        (lambda net, data: net.ship_page("a", "b", data,
                                         checksum=page_checksum(data)),
         b"page" * 64),
        (lambda net, data: net.ship_rows("a", "b", data), rows),
    ):
        injector = _Scripted(verdicts)
        net = Transport(fault_injector=injector,
                               retry_policy=RetryPolicy(transfer_retries=1))
        assert ship(net, payload) == payload
        assert injector.calls == len(verdicts)
        assert _counts(net) == counts


@pytest.mark.parametrize("verdicts, error", [
    (["drop", "drop"], TransferDroppedError),
    (["corrupt", "corrupt"], PageCorruptionError),
    (["drop", "corrupt", "corrupt"], PageCorruptionError),
])
def test_a_spent_budget_raises_after_one_resend(verdicts, error):
    injector = _Scripted(verdicts)
    net = Transport(fault_injector=injector,
                           retry_policy=RetryPolicy(transfer_retries=1))
    data = b"page" * 64
    with pytest.raises(error):
        net.ship_page("a", "b", data, checksum=page_checksum(data))
    assert injector.verdicts == []
