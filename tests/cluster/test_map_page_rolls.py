"""Aggregation maps larger than a page: one Map-page format, rolling.

The combiner pages an ``AggregateSink`` ships (``DistributedScheduler._wire``)
and the stored set a ``MapPageOutputSink`` writes are one format, built by
``pack_map_pages``: each page's root is a PC ``Map`` holding the leading
pairs it takes (``MapFacade.fill``), the rest go on to the next page.
``page_items`` reads either kind back as the page's one ``MapFacade``.
With pages this small every partition needs several; no pair may be lost
or written twice on the way.
"""

import pytest

from repro.cluster import PCCluster, RetryPolicy
from repro.cluster.scheduler import DistributedScheduler
from repro.cluster.transport import remote_available
from repro.core import ObjectReader, Writer, lambda_from_native
from repro.errors import PageCorruptionError
from repro.memory import AllocationBlock, Int32, MapFacade, PCObject, String
from repro.storage.page import page_items
from repro.storage.replication import corrupt_bytes
from repro.tpch.queries import CustomerSupplierPartGroupBy

SHOPS, BUYERS = 10, 14

TRANSPORTS = [
    "sim",
    pytest.param(
        "process",
        marks=pytest.mark.skipif(
            not remote_available(), reason="cloudpickle unavailable"
        ),
    ),
]


class Sale(PCObject):
    fields = [("shop", String), ("buyer", String), ("item", Int32)]


class BuyersPerShop(CustomerSupplierPartGroupBy):
    """shop -> {buyer: [items]}, a nested Map value like TPC-H's."""

    def get_key_projection(self, arg):
        return lambda_from_native([arg], lambda sale: sale.shop)

    def get_value_projection(self, arg):
        return lambda_from_native(
            [arg], lambda sale: {sale.buyer: [sale.item]}
        )


def _sales():
    return [
        ("shop-%02d" % (i % SHOPS), "buyer-%02d" % (i % BUYERS), i)
        for i in range(SHOPS * BUYERS * 2)
    ]


def _expected():
    expected = {}
    for shop, buyer, item in _sales():
        expected.setdefault(shop, {}).setdefault(buyer, []).append(item)
    return expected


def _sorted_items(result):
    return {
        shop: {buyer: sorted(items) for buyer, items in buyers.items()}
        for shop, buyers in result.items()
    }


def _sales_cluster(tmp_path, **kwargs):
    cluster = PCCluster(
        n_workers=2, page_size=1 << 12, spill_root=str(tmp_path), **kwargs
    )
    cluster.register_type(Sale)
    cluster.create_database("db")
    cluster.create_set("db", "sales", Sale)
    with cluster.loader("db", "sales") as load:
        for shop, buyer, item in _sales():
            load.append(Sale, shop=shop, buyer=buyer, item=item)
    return cluster


def _one_map(data, registry):
    """The one ``MapFacade`` ``page_items`` reads off a Map page."""
    items = page_items(AllocationBlock.from_bytes(data, registry=registry))
    assert len(items) == 1
    (view,) = items
    assert isinstance(view, MapFacade)
    return view


@pytest.mark.parametrize("transport", TRANSPORTS)
def test_both_writers_roll_pages_without_losing_or_repeating_a_pair(
        tmp_path, transport):
    cluster = _sales_cluster(tmp_path, transport=transport)
    try:
        shipped = []  # (src, dst, keys on the combiner page)
        ship_page = cluster.transport.ship_page

        def recording(src, dst, data, checksum=None):
            view = _one_map(data, cluster.catalog.registry)
            keys = [key for key, _value in view.items()]
            assert len(view) == len(keys) == len(set(keys)) > 0
            shipped.append((src, dst, keys))
            return ship_page(src, dst, data, checksum=checksum)

        agg = BuyersPerShop().set_input(ObjectReader("db", "sales"))
        cluster.transport.ship_page = recording
        Writer("db", "by_shop").set_input(agg).execute(cluster)
        cluster.transport.ship_page = ship_page
        result = cluster.read("db", "by_shop", as_pairs=True, comp=agg)
        # Without as_pairs, the stored set reads as its Maps, one a page.
        stored = cluster.read("db", "by_shop")
        partitions = [
            worker.storage.get_set("db", "by_shop")
            for worker in cluster.workers
        ]
        output_pages = [len(part.page_ids) for part in partitions]
        counts = [part.object_count for part in partitions]
    finally:
        cluster.close()

    assert _sorted_items(result) == _expected()
    assert all(isinstance(view, MapFacade) for view in stored)
    assert len(stored) == sum(output_pages)

    # The shuffle rolled: some link carried more than one combiner page,
    # and no key crossed a link twice.
    links = {}
    for src, dst, keys in shipped:
        links.setdefault((src, dst), []).append(keys)
    assert any(len(pages) > 1 for pages in links.values())
    for pages in links.values():
        keys = [key for page in pages for key in page]
        assert len(keys) == len(set(keys))
    # The output sink rolled too: some worker's partition of the output
    # set is more than one Map page, and a partition counts one object a
    # page.
    assert max(output_pages) > 1
    assert counts == output_pages


@pytest.mark.parametrize("transport", TRANSPORTS)
def test_output_pages_are_combiner_pages(tmp_path, transport):
    """Every page of the stored set is what the shuffle ships: a Map
    page ``page_items`` reads as one Map of the aggregation's type."""
    cluster = _sales_cluster(tmp_path, transport=transport)
    try:
        codes = set()
        ship_page = cluster.transport.ship_page

        def recording(src, dst, data, checksum=None):
            block = AllocationBlock.from_bytes(
                data, registry=cluster.catalog.registry
            )
            codes.add(("combiner", block.root()[1]))
            return ship_page(src, dst, data, checksum=checksum)

        agg = BuyersPerShop().set_input(ObjectReader("db", "sales"))
        cluster.transport.ship_page = recording
        Writer("db", "by_shop").set_input(agg).execute(cluster)
        cluster.transport.ship_page = ship_page
        pairs = []
        for worker in cluster.workers:
            part = worker.storage.get_set("db", "by_shop")
            for page_id in part.page_ids:
                assert part.page_object_count(page_id) == 1
                with part.pinned_page(page_id) as page:
                    (view,) = page_items(page.block)
                    assert isinstance(view, MapFacade)
                    codes.add(("output", page.block.root()[1]))
                    pairs.extend(
                        (agg.decode_key(key), agg.decode_value(value))
                        for key, value in view.items()
                    )
    finally:
        cluster.close()

    assert {kind for kind, _code in codes} == {"combiner", "output"}
    assert len({code for _kind, code in codes}) == 1
    # Each shop lands on one worker, in one output Map.
    assert sorted(shop for shop, _buyers in pairs) == sorted(_expected())
    assert _sorted_items(dict(pairs)) == _expected()


def test_a_combiner_page_changed_after_its_seal_is_never_merged(
        tmp_path, monkeypatch):
    """The combiner wire ships under the CRC the packing task sealed: a
    page whose bytes change between that seal and the ship is re-sent
    and, once the re-send budget is spent, raises — where a CRC taken at
    ship time would stamp the changed bytes and hand them on."""
    exchange = DistributedScheduler._exchange

    def change_then_exchange(scheduler, held, comp=None):
        # Every page another worker is sent changes; a worker's own
        # partition is handed over, never shipped or checked.  A
        # partition's message is the list of its pages.
        n = len(held)
        held = [
            [
                [[(corrupt_bytes(data) if p % n != s else data, *sealed)
                  for data, *sealed in pages] for pages in messages]
                for p, messages in enumerate(outbox)
            ]
            for s, outbox in enumerate(held)
        ]
        return exchange(scheduler, held, comp)

    monkeypatch.setattr(DistributedScheduler, "_exchange",
                        change_then_exchange)
    cluster = _sales_cluster(
        tmp_path, transport="sim", retry_policy=RetryPolicy(transfer_retries=2)
    )
    try:
        agg = BuyersPerShop().set_input(ObjectReader("db", "sales"))
        with pytest.raises(PageCorruptionError, match="re-send budget of 2"):
            Writer("db", "by_shop").set_input(agg).execute(cluster)
        assert cluster.metrics().value("pc_net_transfer_retries_total") == 2
    finally:
        cluster.close()
