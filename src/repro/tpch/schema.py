"""The denormalized TPC-H object schema (Section 8.4.1).

Rather than flat relations, the data is a forest of heavily nested
objects: a ``Customer`` owns its ``Order``s, each order owns its
``LineItem``s, and each line item references the ``Part`` and
``Supplier`` it sold.  On PC, one whole customer tree is allocated on a
single page, so pages move with all their nesting intact; the baseline
uses structurally identical plain-Python objects that must be pickled
across every boundary.

(The paper nests Part/Supplier *inline* inside LineItem; the PC binding
here uses same-page handles, which is representationally equivalent for
the computations and preserves single-page locality.)
"""

from __future__ import annotations

from repro.memory import Int32, PCObject, String, VectorType


class Part(PCObject):
    fields = [
        ("part_id", Int32),
        ("name", String),
        ("mfgr", String),
        ("brand", String),
        ("part_type", String),
        ("size", Int32),
        ("container", String),
        ("retail_price", Int32),
    ]


class Supplier(PCObject):
    fields = [
        ("supp_id", Int32),
        ("name", String),
        ("address", String),
        ("nation", String),
        ("phone", String),
        ("acct_bal", Int32),
    ]


class LineItem(PCObject):
    fields = [
        ("order_key", Int32),
        ("line_number", Int32),
        ("supplier", Supplier),
        ("part", Part),
        ("quantity", Int32),
        ("extended_price", Int32),
        ("discount", Int32),
        ("tax", Int32),
        ("ship_mode", String),
    ]


class Order(PCObject):
    fields = [
        ("order_key", Int32),
        ("cust_key", Int32),
        ("order_status", String),
        ("total_price", Int32),
        ("order_date", String),
        ("priority", String),
        ("clerk", String),
        ("line_items", VectorType(LineItem)),
    ]


class Customer(PCObject):
    fields = [
        ("cust_key", Int32),
        ("name", String),
        ("address", String),
        ("nation", String),
        ("phone", String),
        ("acct_bal", Int32),
        ("market_segment", String),
        ("orders", VectorType(Order)),
    ]

    def part_ids(self):
        """Unique part ids across every order (used by top-k Jaccard)."""
        parts = set()
        for order in self.orders:
            for item in order.deref().line_items:
                parts.add(item.deref().part.part_id)
        return parts

    def supplier_parts(self):
        """Map supplier name -> part ids this customer bought from them."""
        out = {}
        for order in self.orders:
            for item in order.deref().line_items:
                view = item.deref()
                out.setdefault(view.supplier.name, []).append(
                    view.part.part_id
                )
        return out

    # The two walks again, for a whole page of customers at once
    # (``rows``: their :class:`~repro.memory.gather.ObjectRows`): one
    # gather per hop instead of one ``deref`` per line item.  Each
    # returns, row for row, what the method above returns.

    @staticmethod
    def _line_items(rows):
        """``(line items, customer row of each)`` under ``rows``."""
        orders, customer_of = rows.elements("orders", Order)
        items, order_of = orders.elements("line_items", LineItem)
        return items, customer_of[order_of].tolist()

    @staticmethod
    def part_ids_batch(rows):
        """:meth:`part_ids` of every customer of ``rows``."""
        items, customers = Customer._line_items(rows)
        out = [set() for _ in range(len(rows))]
        part_ids = items.objects("part").column("part_id").tolist()
        for customer, part_id in zip(customers, part_ids):
            out[customer].add(part_id)
        return out

    @staticmethod
    def supplier_parts_batch(rows):
        """:meth:`supplier_parts` of every customer of ``rows``."""
        items, customers = Customer._line_items(rows)
        out = [{} for _ in range(len(rows))]
        suppliers = items.objects("supplier").strings("name")
        part_ids = items.objects("part").column("part_id").tolist()
        for customer, supplier, part_id in zip(customers, suppliers,
                                               part_ids):
            out[customer].setdefault(supplier, []).append(part_id)
        return out


# -- baseline mirror classes ---------------------------------------------------

class PyPart:
    __slots__ = ("part_id", "name", "mfgr", "brand", "part_type", "size",
                 "container", "retail_price")

    def __init__(self, **kwargs):
        for name, value in kwargs.items():
            setattr(self, name, value)


class PySupplier:
    __slots__ = ("supp_id", "name", "address", "nation", "phone", "acct_bal")

    def __init__(self, **kwargs):
        for name, value in kwargs.items():
            setattr(self, name, value)


class PyLineItem:
    __slots__ = ("order_key", "line_number", "supplier", "part", "quantity",
                 "extended_price", "discount", "tax", "ship_mode")

    def __init__(self, **kwargs):
        for name, value in kwargs.items():
            setattr(self, name, value)


class PyOrder:
    __slots__ = ("order_key", "cust_key", "order_status", "total_price",
                 "order_date", "priority", "clerk", "line_items")

    def __init__(self, **kwargs):
        for name, value in kwargs.items():
            setattr(self, name, value)


class PyCustomer:
    __slots__ = ("cust_key", "name", "address", "nation", "phone",
                 "acct_bal", "market_segment", "orders")

    def __init__(self, **kwargs):
        for name, value in kwargs.items():
            setattr(self, name, value)

    def part_ids(self):
        parts = set()
        for order in self.orders:
            for item in order.line_items:
                parts.add(item.part.part_id)
        return parts

    def supplier_parts(self):
        out = {}
        for order in self.orders:
            for item in order.line_items:
                out.setdefault(item.supplier.name, []).append(
                    item.part.part_id
                )
        return out
