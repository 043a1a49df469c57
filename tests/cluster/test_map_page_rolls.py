"""Aggregation maps larger than a page: both Map-page writers roll.

The combiner-page wire (``DistributedScheduler._wire``) and the aggregation
output sink (``MapPageOutputSink``) each build a PC ``Map`` per page with
``MapFacade.fill`` and carry the pairs that did not fit to the next page.
With pages this small every partition needs several; no pair may be lost
or written twice on the way.
"""

from repro.cluster import PCCluster
from repro.core import ObjectReader, Writer, lambda_from_native
from repro.memory import AllocationBlock, Int32, MapType, PCObject, String
from repro.tpch.queries import CustomerSupplierPartGroupBy

SHOPS, BUYERS = 10, 14


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


def test_both_writers_roll_pages_without_losing_or_repeating_a_pair(tmp_path):
    # Both writers run in the coordinator on either transport; the
    # default one follows PC_TRANSPORT, so the CI process leg covers it.
    cluster = PCCluster(
        n_workers=2, page_size=1 << 12, spill_root=str(tmp_path),
    )
    try:
        cluster.register_type(Sale)
        cluster.create_database("db")
        cluster.create_set("db", "sales", Sale)
        with cluster.loader("db", "sales") as load:
            for shop, buyer, item in _sales():
                load.append(Sale, shop=shop, buyer=buyer, item=item)

        shipped = []  # (src, dst, keys on the combiner page)
        ship_page = cluster.transport.ship_page

        def recording(src, dst, data, checksum=None):
            block = AllocationBlock.from_bytes(
                data, registry=cluster.catalog.registry
            )
            offset, _code = block.root()
            view = agg_map.facade(block, offset)
            keys = [key for key, _value in view.items()]
            assert len(view) == len(keys) == len(set(keys)) > 0
            shipped.append((src, dst, keys))
            return ship_page(src, dst, data, checksum=checksum)

        agg = BuyersPerShop().set_input(ObjectReader("db", "sales"))
        agg_map = MapType(agg.key_type, agg.value_type)
        cluster.transport.ship_page = recording
        Writer("db", "by_shop").set_input(agg).execute(cluster)
        cluster.transport.ship_page = ship_page
        result = cluster.read("db", "by_shop", as_pairs=True, comp=agg)
    finally:
        cluster.close()

    expected = {}
    for shop, buyer, item in _sales():
        expected.setdefault(shop, {}).setdefault(buyer, []).append(item)
    assert {
        shop: {buyer: sorted(items) for buyer, items in buyers.items()}
        for shop, buyers in result.items()
    } == expected

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
    # set is more than one Map page.
    output_pages = [
        len(worker.storage.get_set("db", "by_shop").page_ids)
        for worker in cluster.workers
    ]
    assert max(output_pages) > 1
