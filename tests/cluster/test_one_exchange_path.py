"""One exchange path: partition -> ship -> receive, decided once.

Join partition, join broadcast and the aggregation merge all move rows
through ``DistributedScheduler._exchange`` (DESIGN §11 "One exchange"):
a row goes to worker ``hash % n`` (or to every worker), an empty
partition is not sent, a worker's own partition is handed over without
touching the network or the fault injector, and what a receiver gets is
what arrived — on both wires, structured rows and PC Map combiner pages.
The exchange decodes nothing: a receiver gets an aggregation's combiner
pages as they arrived, and the task reading the aggregation there merges
them (``PipelineEngine.source_batches``).
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import FaultInjector, PCCluster, RetryPolicy
from repro.cluster import scheduler as scheduler_module
from repro.cluster.scheduler import DistributedScheduler
from repro.cluster.transport import estimate_value_bytes, remote_available
from repro.core import (
    AggregateComp,
    JoinComp,
    ObjectReader,
    Writer,
    lambda_from_member,
    lambda_from_native,
)
from repro.engine import run_local
from repro.engine.pipeline import (
    AggregateSink,
    map_items,
    partition_rows,
    row_messages,
)
from repro.memory import (
    AllocationBlock, Float64, Int32, Int64, PCObject, String,
)
from repro.storage.dataset import pack_map_pages
from repro.storage.page import page_items

TRANSPORTS = [
    "sim",
    pytest.param(
        "process",
        marks=pytest.mark.skipif(
            not remote_available(), reason="cloudpickle unavailable"
        ),
    ),
]


class Point(PCObject):
    fields = [("pid", Int32), ("cluster_id", Int32), ("x", Float64)]


class Label(PCObject):
    fields = [("cluster_id", Int32), ("label", String)]


class SumX(AggregateComp):
    """Travels as PC Maps on combiner pages."""

    key_type = Int64
    value_type = Float64

    def get_key_projection(self, arg):
        return lambda_from_member(arg, "cluster_id")

    def get_value_projection(self, arg):
        return lambda_from_member(arg, "x")


class SumXRows(SumX):
    """The same aggregation with no PC types declared: the row wire."""

    key_type = None
    value_type = None


class LabelJoin(JoinComp):
    def get_selection(self, label, point):
        return lambda_from_member(label, "cluster_id") == \
            lambda_from_member(point, "cluster_id")

    def get_projection(self, label, point):
        return lambda_from_native(
            [label, point], lambda lab, p: (p.pid, lab.label)
        )


POINTS = [(i, i % 4, float(i)) for i in range(300)]
LABELS = [(c, "L%d" % c) for c in range(4)]


def _cluster(tmp_path, n_workers, transport, schema=None):
    cluster = PCCluster(
        n_workers=n_workers, page_size=1 << 12, spill_root=str(tmp_path),
        transport=transport,
    )
    cluster.create_database("db")
    cluster.create_set("db", "points", Point, schema=schema)
    with cluster.loader("db", "points") as load:
        for pid, cluster_id, x in POINTS:
            load.append(Point, pid=pid, cluster_id=cluster_id, x=x)
    cluster.create_set("db", "labels", Label)
    with cluster.loader("db", "labels") as load:
        for cluster_id, label in LABELS:
            load.append(Label, cluster_id=cluster_id, label=label)
    return cluster


def _join(out):
    join = LabelJoin().set_input(0, ObjectReader("db", "labels"))
    return Writer("db", out).set_input(
        join.set_input(1, ObjectReader("db", "points"))
    )


class _Since:
    """What the network's ``pc_net_*`` families gained since this was
    made: ``after - before`` over snapshots of the transport's registry."""

    def __init__(self, network):
        self._metrics = network.metrics
        self._before = network.metrics.snapshot()

    def __call__(self, name, **labels):
        after = self._metrics.snapshot()
        return after.value(name, **labels) - self._before.value(name, **labels)

    def links(self):
        """The ``(src, dst)`` links that carried bytes since, sorted."""
        name = "pc_net_link_bytes_total"
        return sorted(
            (link["src"], link["dst"])
            for link in self._metrics.snapshot().labels(name)
            if self(name, **link)
        )


def _record_transfers(cluster):
    """Every transfer the network is asked for: ``(src, dst, size)``."""
    network, asked = cluster.transport, []
    ship_rows, ship_page = network.ship_rows, network.ship_page

    def rows(src, dst, payload):
        asked.append((src, dst, len(payload)))
        return ship_rows(src, dst, payload)

    def page(src, dst, payload, checksum=None):
        asked.append((src, dst, len(payload)))
        return ship_page(src, dst, payload, checksum=checksum)

    network.ship_rows, network.ship_page = rows, page
    return asked


# -- no worker ships to itself, nothing empty is shipped ------------------------------


@pytest.mark.parametrize("transport", TRANSPORTS)
def test_no_self_links_and_no_empty_messages(tmp_path, transport, schema_of):
    cluster = _cluster(tmp_path, 3, transport, schema_of(Point))
    try:
        asked = _record_transfers(cluster)
        # Broadcast: the four labels sit on one worker's one page, so one
        # source tells the two other workers (the parent sent 6 messages:
        # three to a ``master`` hop, two of them empty, and three back).
        cluster.broadcast_threshold = 1 << 30
        sent = _Since(cluster.transport)
        cluster.execute_computations(_join("broadcast"))
        assert sent("pc_net_messages_total") == 2
        cluster.broadcast_threshold = 0
        cluster.execute_computations(_join("partition"))
        for comp in (SumX(), SumXRows()):
            agg = comp.set_input(ObjectReader("db", "points"))
            Writer("db", type(comp).__name__).set_input(agg).execute(cluster)
        assert asked
        assert all(size > 0 for _src, _dst, size in asked)
        assert all(src != dst for src, dst, _size in asked)
        links = cluster.metrics().families["pc_net_link_bytes_total"]
        for labels in links["series"]:
            labels = dict(labels)
            assert labels["src"] != labels["dst"]
            assert "master" not in (labels["src"], labels["dst"])
    finally:
        cluster.close()


@pytest.mark.parametrize("transport", TRANSPORTS)
def test_one_worker_cluster_never_touches_the_network(tmp_path, transport,
                                                      schema_of):
    # The fault injector would drop every transfer it is asked about:
    # a local hand-over is not a transfer and is never offered to it.
    cluster = _cluster(tmp_path, 1, transport, schema_of(Point))
    try:
        cluster.transport.fault_injector = FaultInjector(drop_rate=1.0)
        sent = _Since(cluster.transport)
        cluster.broadcast_threshold = 0
        cluster.execute_computations(_join("joined"))
        agg = SumX().set_input(ObjectReader("db", "points"))
        Writer("db", "sums").set_input(agg).execute(cluster)
        assert sent("pc_net_messages_total") == 0
        assert sent.links() == []
        assert cluster.transport.fault_injector.counts["transfer_drops"] == 0
        assert sorted(cluster.read("db", "joined")) == sorted(
            (pid, "L%d" % cluster_id) for pid, cluster_id, _x in POINTS
        )
        assert sum(
            cluster.read("db", "sums", as_pairs=True, comp=agg).values()
        ) == sum(x for _pid, _cluster_id, x in POINTS)
    finally:
        cluster.close()


# -- the exchange itself, as a property ------------------------------------------------


@pytest.fixture(scope="module")
def schedulers(tmp_path_factory):
    """A scheduler per worker count 1-5 (sim; no job is ever run)."""
    clusters = [
        PCCluster(
            n_workers=n, transport="sim",
            spill_root=str(tmp_path_factory.mktemp("exchange-%d" % n)),
        )
        for n in range(1, 6)
    ]
    yield {
        len(cluster.workers): DistributedScheduler(cluster, None, None)
        for cluster in clusters
    }
    for cluster in clusters:
        cluster.close()


#: negative, huge and colliding hashes
hashes = st.one_of(
    st.integers(-3, 3), st.integers(), st.sampled_from([2 ** 63, -2 ** 64]),
)
#: per worker: rows as (hash, payload)
held_rows = st.lists(
    st.lists(st.tuples(hashes, st.text(max_size=5)), max_size=40),
    min_size=1, max_size=5,
)


def _held(scheduler, per_worker):
    """Rows tagged ``(source, position, payload)``, partitioned by their
    hashes into what each worker sends."""
    return [
        row_messages(
            [(s, i, text) for i, (_h, text) in enumerate(rows)],
            [h for h, _text in rows], len(scheduler.workers),
        )
        for s, rows in enumerate(per_worker)
    ]


def _expected(per_worker):
    n = len(per_worker)
    return [
        [
            (s, i, text)
            for s, rows in enumerate(per_worker)
            for i, (h, text) in enumerate(rows) if h % n == d
        ]
        for d in range(n)
    ]


def _watch(network, seed=None, **rates):
    """With ``rates`` install a seeded injector and a generous re-send
    budget.  Returns the ``(src, dst)`` list the injector gets consulted
    about and the network's accounting from here on (:class:`_Since`)."""
    network.fault_injector = FaultInjector(seed=seed, **rates)
    network.retry_policy = RetryPolicy(transfer_retries=200)
    consulted = []
    on_transfer = network.fault_injector.on_transfer

    def watching(src, dst, nbytes):
        consulted.append((src, dst))
        return on_transfer(src, dst, nbytes)

    network.fault_injector.on_transfer = watching
    return consulted, _Since(network)


@settings(max_examples=60, deadline=None)
@given(held_rows)
def test_every_row_arrives_once_at_hash_mod_n_in_source_order(
        schedulers, per_worker):
    n = len(per_worker)
    scheduler = schedulers[n]
    network = scheduler.cluster.transport
    consulted, sent = _watch(network)
    assert scheduler._exchange(_held(scheduler, per_worker)) == \
        _expected(per_worker)
    crossing = [
        [
            (s, i, text) for i, (h, text) in enumerate(rows) if h % n == d
        ]
        for s, rows in enumerate(per_worker) for d in range(n) if d != s
    ]
    assert sent("pc_net_bytes_total") == sent("pc_net_bytes_rows_total") == \
        sum(estimate_value_bytes(row) for rows in crossing for row in rows)
    assert sent("pc_net_messages_total") == \
        sum(1 for rows in crossing if rows)
    assert len(consulted) == sent("pc_net_messages_total")
    assert all(src != dst for src, dst in consulted)
    assert all(src != dst for src, dst in sent.links())


@settings(max_examples=40, deadline=None)
@given(held_rows, st.integers(0, 2 ** 16))
def test_drops_and_corruptions_cost_one_retry_each_and_change_nothing(
        schedulers, per_worker, seed):
    scheduler = schedulers[len(per_worker)]
    network = scheduler.cluster.transport
    consulted, sent = _watch(network, seed, drop_rate=0.3, corrupt_rate=0.3)
    # A corrupted row batch arrives with a foreign frame row prepended:
    # folding it would show up as a result that is not the expected one.
    assert scheduler._exchange(_held(scheduler, per_worker)) == \
        _expected(per_worker)
    counts = network.fault_injector.counts
    assert sent("pc_net_transfer_retries_total") == \
        counts["transfer_drops"] + counts["transfer_corruptions"]
    assert sent("pc_net_transfers_corrupted_total") == \
        counts["transfer_corruptions"]
    assert len(consulted) == \
        sent("pc_net_messages_total") + counts["transfer_drops"]
    assert all(src != dst for src, dst in consulted)


@settings(max_examples=40, deadline=None)
@given(
    st.lists(
        st.dictionaries(st.integers(-2 ** 40, 2 ** 40), st.floats(
            allow_nan=False, allow_infinity=False,
        ), max_size=30),
        min_size=1, max_size=5,
    ),
    st.integers(0, 2 ** 16),
)
def test_map_page_wire_delivers_the_same_pairs_with_and_without_faults(
        schedulers, per_worker, seed):
    n = len(per_worker)
    scheduler = schedulers[n]
    network = scheduler.cluster.transport
    comp = SumX()
    # Registered cluster-wide as ``execute()`` does, so that a receiving
    # worker's registry resolves the Map's code.
    scheduler.cluster.register_type(comp.map_type)
    # What an AggregateSink seals, with the key itself as the hash: a
    # partition's pages are one message.
    held = [
        [
            [pages] if pages else []
            for pages in (
                pack_map_pages(
                    comp.map_type, pairs,
                    scheduler.cluster.combiner_page_size,
                    scheduler.cluster.catalog.registry,
                )
                for pairs in partition_rows(groups.items(), groups, n)
            )
        ]
        for groups in per_worker
    ]
    consulted, sent = _watch(network)
    clean = scheduler._exchange(held, comp)
    # What arrives is pages, decoded by the receiver: a Map page lists its
    # pairs in slot order, not insertion order.
    assert [
        sorted(_map_pairs(worker, pages, comp))
        for worker, pages in zip(scheduler.workers, clean)
    ] == [
        sorted(
            pair for groups in per_worker for pair in groups.items()
            if pair[0] % n == d
        )
        for d in range(n)
    ]
    assert sent("pc_net_bytes_total") == sent("pc_net_bytes_zero_copy_total")
    assert all(src != dst for src, dst in consulted)

    consulted, sent = _watch(network, seed, drop_rate=0.3, corrupt_rate=0.3)
    assert scheduler._exchange(held, comp) == clean
    counts = network.fault_injector.counts
    assert sent("pc_net_transfer_retries_total") == \
        counts["transfer_drops"] + counts["transfer_corruptions"]
    assert all(src != dst for src, dst in consulted)


def _map_pairs(worker, pages, comp):
    """The pairs of the Map pages ``worker`` received, read as the task
    that merges them reads them."""
    registry = worker.local_catalog.registry
    pairs = []
    for data, *_sealed in pages:
        (view,) = page_items(AllocationBlock.from_bytes(data, registry=registry))
        pairs.extend(map_items(view, comp, pytest.fail))
    return pairs


def test_broadcast_sends_every_row_to_every_other_worker(schedulers):
    scheduler = schedulers[3]
    network = scheduler.cluster.transport
    _consulted, sent = _watch(network)
    rows = [[("a", 1), ("b", 2)], [], [("c", 3)]]
    everything = [("a", 1), ("b", 2), ("c", 3)]
    assert scheduler._exchange(
        [row_messages(r, None, 3) for r in rows]
    ) == [everything] * 3
    assert sent.links() == [
        ("worker-0", "worker-1"), ("worker-0", "worker-2"),
        ("worker-2", "worker-0"), ("worker-2", "worker-1"),
    ]


# -- differential: every mode and wire against the local engine ------------------------


class _Row:
    def __init__(self, **fields):
        self.__dict__.update(fields)


LOCAL_SOURCES = {
    ("db", "points"): [
        _Row(pid=pid, cluster_id=cluster_id, x=x)
        for pid, cluster_id, x in POINTS
    ],
    ("db", "labels"): [
        _Row(cluster_id=cluster_id, label=label)
        for cluster_id, label in LABELS
    ],
}


class _TwiceStoredSink(AggregateSink):
    """Sends every key twice, in two messages per partition — as two
    workers that each saw some of a key's rows do: the receiver must
    combine them, never let one overwrite the other."""

    def seal(self):
        groups = self.groups
        self.groups = {key: value - 1.0 for key, value in groups.items()}
        super().seal()
        first = self.state
        self.groups = dict.fromkeys(groups, 1.0)
        super().seal()
        self.state = [a + b for a, b in zip(first, self.state)]


@pytest.mark.parametrize("transport", TRANSPORTS)
def test_join_modes_and_aggregation_wires_match_the_local_engine(
        tmp_path, transport, monkeypatch, schema_of):
    local, _program, _metrics = run_local(_join("joined"), LOCAL_SOURCES)
    local_agg = SumXRows().set_input(ObjectReader("db", "points"))
    local_sums, _program, _metrics = run_local(
        Writer("db", "sums").set_input(local_agg), LOCAL_SOURCES
    )
    cluster = _cluster(tmp_path, 3, transport, schema_of(Point))
    try:
        for mode, threshold in (("broadcast", 1 << 30), ("partition", 0)):
            cluster.broadcast_threshold = threshold
            cluster.execute_computations(_join(mode))
            assert mode in cluster.last_job_log[0].detail
            assert sorted(cluster.read("db", mode)) == \
                sorted(local[("db", "joined")])
        for twice in (False, True):
            if twice:
                monkeypatch.setattr(
                    scheduler_module, "AggregateSink", _TwiceStoredSink
                )
            for comp in (SumX(), SumXRows()):
                agg = comp.set_input(ObjectReader("db", "points"))
                out = "%s-%s" % (type(comp).__name__, twice)
                sent = _Since(cluster.transport)
                Writer("db", out).set_input(agg).execute(cluster)
                assert cluster.read("db", out, as_pairs=True, comp=agg) == \
                    dict(local_sums[("db", "sums")])
                # The declared PC types pick the wire.
                paged = comp.key_type is not None
                assert (sent("pc_net_bytes_rows_total") == 0) == paged
    finally:
        cluster.close()
