"""A deterministic synthetic TPC-H dbgen (the Section 8.4 substrate).

The paper denormalizes the official TPC-H data; the reproduction
generates structurally identical data directly in denormalized form:
every customer owns 1-3 orders of 1-4 line items, each referencing one
of ``n_parts`` parts and ``n_suppliers`` suppliers.  The same seeded
stream drives both the PC loader (whole customer trees allocated on one
page) and the baseline's plain-Python mirror objects, so the two engines
compute over identical data.
"""

from __future__ import annotations

import numpy as np

from repro.tpch.schema import (
    Customer,
    LineItem,
    Order,
    Part,
    PyCustomer,
    PyLineItem,
    PyOrder,
    PyPart,
    PySupplier,
    Supplier,
)

_SEGMENTS = ("BUILDING", "AUTOMOBILE", "MACHINERY", "HOUSEHOLD", "FURNITURE")
_NATIONS = ("FRANCE", "GERMANY", "JAPAN", "BRAZIL", "KENYA", "PERU")
_MODES = ("AIR", "RAIL", "SHIP", "TRUCK")


class TpchSpec:
    """Shape parameters for one synthetic TPC-H instance."""

    def __init__(self, n_customers, n_parts=200, n_suppliers=25, seed=0):
        self.n_customers = n_customers
        self.n_parts = n_parts
        self.n_suppliers = n_suppliers
        self.seed = seed


def _customer_records(spec):
    """Yield one plain-dict record tree per customer (engine-neutral): the
    host value of a ``Customer`` the PC loader writes as it stands."""
    rng = np.random.default_rng(spec.seed)
    order_key = 0
    for cust_key in range(spec.n_customers):
        orders = []
        for _o in range(int(rng.integers(1, 4))):
            items = []
            for line_number in range(int(rng.integers(1, 5))):
                part_id = int(rng.integers(0, spec.n_parts))
                supp_id = int(rng.integers(0, spec.n_suppliers))
                items.append({
                    "order_key": order_key,
                    "line_number": line_number,
                    "part": {
                        "part_id": part_id,
                        "name": "part#%d" % part_id,
                        "mfgr": "mfgr#%d" % (part_id % 5),
                        "brand": "brand#%d" % (part_id % 25),
                        "part_type": "type#%d" % (part_id % 12),
                        "size": part_id % 50,
                        "container": "box",
                        "retail_price": 900 + part_id,
                    },
                    "supplier": {
                        "supp_id": supp_id,
                        "name": "supplier#%d" % supp_id,
                        "address": "addr#%d" % supp_id,
                        "nation": _NATIONS[supp_id % len(_NATIONS)],
                        "phone": "555-%04d" % supp_id,
                        "acct_bal": 1000 + supp_id,
                    },
                    "quantity": int(rng.integers(1, 50)),
                    "extended_price": int(rng.integers(100, 10000)),
                    "discount": int(rng.integers(0, 10)),
                    "tax": int(rng.integers(0, 8)),
                    "ship_mode": _MODES[int(rng.integers(0, len(_MODES)))],
                })
            orders.append({
                "order_key": order_key,
                "cust_key": cust_key,
                "order_status": "O",
                "total_price": sum(i["extended_price"] for i in items),
                "order_date": "1996-01-%02d" % (1 + order_key % 28),
                "priority": "1-URGENT",
                "clerk": "clerk#%d" % (order_key % 100),
                "line_items": items,
            })
            order_key += 1
        yield {
            "cust_key": cust_key,
            "name": "customer#%d" % cust_key,
            "address": "caddr#%d" % cust_key,
            "nation": _NATIONS[cust_key % len(_NATIONS)],
            "phone": "444-%04d" % cust_key,
            "acct_bal": int(rng.integers(-100, 5000)),
            "market_segment": _SEGMENTS[cust_key % len(_SEGMENTS)],
            "orders": orders,
        }


def load_pc_customers(cluster, spec, database="tpch", set_name="customers",
                      replication=1):
    """Generate and load whole Customer trees into a PC cluster."""
    for cls in (Part, Supplier, LineItem, Order, Customer):
        cluster.register_type(cls)
    cluster.create_database(database)
    cluster.create_set(database, set_name, Customer, replication=replication)
    with cluster.loader(database, set_name) as load:
        load.extend(Customer, _customer_records(spec))
    return load.objects_loaded


def python_customers(spec):
    """The baseline's plain-Python mirror of the same data."""
    out = []
    for record in _customer_records(spec):
        orders = []
        for order in record["orders"]:
            items = [
                PyLineItem(
                    part=PyPart(**item["part"]),
                    supplier=PySupplier(**item["supplier"]),
                    **{k: v for k, v in item.items()
                       if k not in ("part", "supplier")},
                )
                for item in order["line_items"]
            ]
            orders.append(PyOrder(
                line_items=items,
                **{k: v for k, v in order.items() if k != "line_items"},
            ))
        out.append(PyCustomer(
            orders=orders,
            **{k: v for k, v in record.items() if k != "orders"},
        ))
    return out
