"""Regenerate ``parent_pages.json``: pages sealed by a given checkout.

Run against the commit whose builders should be frozen (PR 12's, for the
checked-in file)::

    PYTHONPATH=<checkout>/src python tests/memory/fixtures/make_parent_pages.py

The JSON holds, per page, the sealed bytes (base64), the registry's
``code -> name`` table the bytes were written under, and the decoded
value the page must still produce (see ``test_page_compat.py``).

The customer page was written under the schema of its day, in which
``Customer.orders`` and ``Order.line_items`` were ``Vector<AnyObject>``,
by the builder of its day; both are kept here as they were.
"""

from __future__ import annotations

import base64
import json
import os

from repro.memory import (
    AllocationBlock,
    Int32,
    MapType,
    PCObject,
    String,
    VectorType,
    make_object,
    make_object_on,
    use_allocation_block,
)
from repro.memory.builtins import AnyObject
from repro.memory.typecodes import TypeRegistry
from repro.tpch import schema
from repro.tpch.generator import TpchSpec, _customer_records
from repro.tpch.schema import LineItem, Part, Supplier

HERE = os.path.dirname(os.path.abspath(__file__))

AGG_MAP = MapType(String, MapType(String, VectorType(Int32)))

AGG_VALUE = {
    "Supplier#%03d" % s: {
        "Customer#%05d" % c: [(7 * s + 3 * c + i) % 150 for i in range(1 + c % 4)]
        for c in range(s, 24, 3)
    }
    for s in range(4)
}


class Order(PCObject):
    fields = [
        ("order_key", Int32),
        ("cust_key", Int32),
        ("order_status", String),
        ("total_price", Int32),
        ("order_date", String),
        ("priority", String),
        ("clerk", String),
        ("line_items", VectorType(AnyObject)),
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
        ("orders", VectorType(AnyObject)),
    ]

    part_ids = schema.Customer.part_ids


#: the classes the customer page's codes name
CUSTOMER_CLASSES = (Customer, Order, LineItem, Part, Supplier)


def _build_customer(record):
    """Allocate one nested Customer tree on the active page."""
    order_handles = []
    for order in record["orders"]:
        item_handles = []
        for item in order["line_items"]:
            part = make_object(Part, **item["part"])
            supplier = make_object(Supplier, **item["supplier"])
            line_item = make_object(
                LineItem,
                order_key=item["order_key"],
                line_number=item["line_number"],
                supplier=supplier,
                part=part,
                quantity=item["quantity"],
                extended_price=item["extended_price"],
                discount=item["discount"],
                tax=item["tax"],
                ship_mode=item["ship_mode"],
            )
            part.release()
            supplier.release()
            item_handles.append(line_item)
        order_handle = make_object(
            Order,
            **{k: v for k, v in order.items() if k != "line_items"},
        )
        items_vector = order_handle.deref().line_items
        if items_vector is None:
            order_handle.deref().line_items = []
            items_vector = order_handle.deref().line_items
        for handle in item_handles:
            items_vector.append(handle)
            handle.release()
        order_handles.append(order_handle)
    customer = make_object(
        Customer, **{k: v for k, v in record.items() if k != "orders"}
    )
    customer.deref().orders = []
    orders_vector = customer.deref().orders
    for handle in order_handles:
        orders_vector.append(handle)
        handle.release()
    return customer


def decode_customer(customer):
    def plain(view, skip):
        return {
            name: getattr(view, name)
            for name in view.field_names() if name not in skip
        }

    out = plain(customer, ("orders",))
    out["orders"] = []
    for order in customer.orders:
        order = order.deref()
        entry = plain(order, ("line_items",))
        entry["line_items"] = []
        for item in order.line_items:
            item = item.deref()
            line = plain(item, ("supplier", "part"))
            line["supplier"] = plain(item.supplier, ())
            line["part"] = plain(item.part, ())
            entry["line_items"].append(line)
        out["orders"].append(entry)
    return out


def sealed(block, registry):
    return {
        "bytes": base64.b64encode(block.to_bytes()).decode("ascii"),
        "codes": {str(code): name for code, name, _d in registry.entries()},
    }


def customer_page():
    registry = TypeRegistry()
    block = AllocationBlock(1 << 15, registry=registry)
    root_type = VectorType(AnyObject)
    root = make_object_on(block, root_type, [])
    block.set_root(root.offset, root.type_code)
    view = root.deref()
    with use_allocation_block(block):
        for record in _customer_records(TpchSpec(2, n_parts=20,
                                                 n_suppliers=4, seed=5)):
            view.reserve(len(view) + 1)
            handle = _build_customer(record)
            view.append(handle)
            handle.release()
    page = sealed(block, registry)
    page["expected"] = [decode_customer(h.deref()) for h in view]
    return page


def map_page():
    registry = TypeRegistry()
    block = AllocationBlock(1 << 15, registry=registry)
    handle = make_object_on(block, AGG_MAP, None)
    combiner = handle.deref()
    for key, value in AGG_VALUE.items():
        combiner.put(key, value)
    block.set_root(handle.offset, handle.type_code)
    page = sealed(block, registry)
    page["expected"] = AGG_VALUE
    return page


if __name__ == "__main__":
    with open(os.path.join(HERE, "parent_pages.json"), "w") as out:
        json.dump({"customer": customer_page(), "map": map_page()}, out,
                  sort_keys=True)
        out.write("\n")
