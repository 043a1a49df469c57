"""The two Section 8.4 computations, on PC and on the baseline.

1. **Customers per supplier** — for each supplier, the map from customer
   name to the list of part ids that supplier sold them.  On PC this is
   a ``MultiSelectionComp`` (customer -> per-supplier SupplierInfo
   fragments) feeding an ``AggregateComp`` grouping by supplier name,
   whose value is itself a PC ``Map<String, Vector<int>>`` — the nested
   structure the paper profiles its String handling on.

2. **Top-k closest customer part sets** — Jaccard similarity between each
   customer's unique part set and a query part list, keeping the k best.
   On PC this is the ``TopJaccard`` aggregation; the top-k lists merge
   pairwise in the combine step so at most k candidates ever leave a
   worker.
"""

from __future__ import annotations

from repro.core import (
    AggregateComp,
    MultiSelectionComp,
    ObjectReader,
    lambda_from_native,
)
import numpy as np

from repro.memory import Int32, MapType, String, VectorType
from repro.tpch.schema import Customer


def jaccard(parts, query_set):
    """Jaccard similarity between a part set and the query set."""
    if not parts and not query_set:
        return 1.0
    union = len(parts | query_set)
    if union == 0:
        return 0.0
    return len(parts & query_set) / union


# ---------------------------------------------------------------------------
# Customers per supplier
# ---------------------------------------------------------------------------

class CustomerMultiSelection(MultiSelectionComp):
    """Customer -> (supplier name, {customer name: [part ids]}) pieces."""

    def get_projection(self, arg):
        def pieces(name, supplier_parts):
            return [
                (supplier_name, {name: part_ids})
                for supplier_name, part_ids in supplier_parts.items()
            ]

        def explode(customer):
            return pieces(customer.name, customer.supplier_parts())

        def explode_batch(rows):
            return list(map(pieces, rows.strings("name"),
                            Customer.supplier_parts_batch(rows)))

        return lambda_from_native([arg], explode, kernel=explode_batch)


class CustomerSupplierPartGroupBy(AggregateComp):
    """Group SupplierInfo pieces by supplier name.

    The value is a nested PC ``Map <String, Vector<int>>`` exactly as in
    the paper, so shuffle pages carry real nested maps.
    """

    key_type = String
    value_type = MapType(String, VectorType(Int32))

    def get_key_projection(self, arg):
        return lambda_from_native([arg], lambda pair: pair[0])

    def get_value_projection(self, arg):
        return lambda_from_native([arg], lambda pair: pair[1])

    def combine(self, a, b):
        merged = dict(a)
        for customer, parts in b.items():
            if customer in merged:
                merged[customer] = list(merged[customer]) + list(parts)
            else:
                merged[customer] = parts
        return merged

    def decode_value(self, stored):
        if isinstance(stored, dict):
            return stored
        return {
            customer: list(parts) for customer, parts in stored.items()
        }


def customers_per_supplier_pc(cluster, database="tpch",
                              set_name="customers"):
    """Run the computation on PC; returns {supplier: {customer: [pids]}}.

    Like the paper, finishes with a count over each supplier's customer
    map (Spark's laziness forced the same action there).
    """
    multi = CustomerMultiSelection().set_input(
        ObjectReader(database, set_name))
    result = cluster.execute_computations(
        CustomerSupplierPartGroupBy().set_input(multi))
    total_customers = sum(len(v) for v in result.values())
    return result, total_customers


def customers_per_supplier_baseline(customers_rdd):
    """The algorithmically equivalent baseline implementation."""
    pieces = customers_rdd.flat_map(
        lambda customer: [
            (supplier_name, {customer.name: part_ids})
            for supplier_name, part_ids
            in customer.supplier_parts().items()
        ]
    )

    def merge(a, b):
        merged = dict(a)
        for name, parts in b.items():
            if name in merged:
                merged[name] = list(merged[name]) + list(parts)
            else:
                merged[name] = parts
        return merged

    result = dict(pieces.reduce_by_key(merge).collect())
    total_customers = sum(len(v) for v in result.values())
    return result, total_customers


# ---------------------------------------------------------------------------
# Top-k closest customer part sets
# ---------------------------------------------------------------------------

class TopJaccard(AggregateComp):
    """Keep the k customers whose part sets best match the query list.

    Values are bounded candidate lists merged pairwise, so (as the paper
    observes should happen) no more than k customers' data ever leaves a
    machine.  Candidate lists shuffle through the row path — their
    payloads are variable-length (sim, custkey, parts) records.
    """

    key_type = None  # row-path shuffle
    value_type = None

    def __init__(self, k, query_parts):
        super().__init__()
        self.k = k
        self.query_set = frozenset(query_parts)

    def get_key_projection(self, arg):
        return lambda_from_native(
            [arg], lambda customer: 0,
            kernel=lambda rows: np.zeros(len(rows), dtype=np.int64),
        )

    def get_value_projection(self, arg):
        query_set = self.query_set
        k = self.k

        def scored(cust_key, parts):
            return [(jaccard(parts, query_set), cust_key, sorted(parts))][:k]

        def candidate(customer):
            return scored(customer.cust_key, customer.part_ids())

        def candidate_batch(rows):
            return list(map(scored, rows.column("cust_key").tolist(),
                            Customer.part_ids_batch(rows)))

        return lambda_from_native([arg], candidate, kernel=candidate_batch)

    def combine(self, a, b):
        merged = sorted(a + b, key=lambda c: (-c[0], c[1]))
        return merged[: self.k]


def top_k_jaccard_pc(cluster, k, query_parts, database="tpch",
                     set_name="customers"):
    """Run top-k Jaccard on PC; returns the k best candidates."""
    merged = cluster.execute_computations(
        TopJaccard(k, query_parts).set_input(ObjectReader(database, set_name)))
    candidates = merged.get(0, [])
    return sorted(candidates, key=lambda c: (-c[0], c[1]))[:k]


def top_k_jaccard_baseline(customers_rdd, k, query_parts):
    """The algorithmically equivalent baseline implementation."""
    query_set = frozenset(query_parts)

    def candidate(customer):
        parts = customer.part_ids()
        return (jaccard(parts, query_set), customer.cust_key, sorted(parts))

    return customers_rdd.map(candidate).top(
        k, key=lambda c: (c[0], -c[1])
    )


def reference_customers_per_supplier(customers):
    """Driver-side oracle over plain Python customers (for tests)."""
    result = {}
    for customer in customers:
        for supplier, parts in customer.supplier_parts().items():
            result.setdefault(supplier, {}).setdefault(
                customer.name, []
            ).extend(parts)
    return result


def reference_top_k(customers, k, query_parts):
    """Driver-side top-k oracle (for tests)."""
    query_set = frozenset(query_parts)
    candidates = [
        (jaccard(c.part_ids(), query_set), c.cust_key, sorted(c.part_ids()))
        for c in customers
    ]
    return sorted(candidates, key=lambda c: (-c[0], c[1]))[:k]
