"""TPC-H lineitem scans (Q1/Q6 style) over a columnar stored set.

The Section 8.4 computations in :mod:`repro.tpch.queries` exercise the
row path's nested objects; this module adds the flat, fixed-stride side
of TPC-H — the ``lineitem`` hot-loop scans behind Q1 and Q6 — as the
columnar layout's showcase workload:

* **Q6-style revenue**: ``sum(extendedprice * discount)`` over a
  shipdate / discount / quantity predicate — one filter plus one
  grouped (single-group) sum, both columnar-lowered;
* **Q1-lite**: per ``returnflag`` sums of quantity and extendedprice —
  grouped ``reduce = "sum"`` aggregations keyed by a numeric flag.

Generated values are dyadic rationals (quantities are whole numbers,
prices quarters, discounts 64ths), so the array kernels' batch-order
float accumulation is exact and the parity suite can demand
byte-identical results against the object path.
"""

from __future__ import annotations

import numpy as np

from repro.core import (
    AggregateComp,
    ObjectReader,
    SelectionComp,
    lambda_from_member,
    lambda_from_native,
    lambda_from_self,
)
from repro.memory import Float64, Int64
from repro.schema import Schema, f64, i64

#: One row per order line; every column fixed-stride numeric.
LINEITEM_SCHEMA = Schema([
    ("quantity", f64),
    ("extendedprice", f64),
    ("discount", f64),
    ("shipdate", i64),      # days since epoch-of-benchmark
    ("returnflag", i64),    # 0=A, 1=N, 2=R
])


def generate_lineitems(n, seed=0):
    """``n`` deterministic rows as a dict of numpy columns."""
    rng = np.random.default_rng(seed)
    return {
        "quantity": rng.integers(1, 51, size=n).astype(np.float64),
        "extendedprice": rng.integers(400, 40000, size=n) / 4.0,
        "discount": rng.integers(0, 8, size=n) / 64.0,
        "shipdate": rng.integers(0, 2556, size=n),
        "returnflag": rng.integers(0, 3, size=n),
    }


def load_lineitems(cluster, n, database="tpch", set_name="lineitem",
                   seed=0, page_size=None, replication=1):
    """Create the columnar lineitem set and load ``n`` generated rows."""
    cluster.create_database(database)
    cluster.create_set(database, set_name, schema=LINEITEM_SCHEMA,
                       page_size=page_size, replication=replication)
    columns = generate_lineitems(n, seed=seed)
    with cluster.loader(database, set_name) as load:
        load.append_columns(**columns)
    return columns


class Q6Selection(SelectionComp):
    """The Q6 predicate; projects the surviving rows unchanged."""

    def __init__(self, date_lo=365, date_hi=730, disc_lo=1 / 64.0,
                 disc_hi=5 / 64.0, max_qty=24.0):
        super().__init__()
        self.date_lo = date_lo
        self.date_hi = date_hi
        self.disc_lo = disc_lo
        self.disc_hi = disc_hi
        self.max_qty = max_qty

    def get_selection(self, arg):
        shipdate = lambda_from_member(arg, "shipdate")
        discount = lambda_from_member(arg, "discount")
        quantity = lambda_from_member(arg, "quantity")
        return (
            (shipdate >= self.date_lo) & (shipdate < self.date_hi)
            & (discount >= self.disc_lo) & (discount <= self.disc_hi)
            & (quantity < self.max_qty)
        )

    def get_projection(self, arg):
        return lambda_from_self(arg)


class Q6Revenue(AggregateComp):
    """``sum(extendedprice * discount)`` into a single group."""

    key_type = Int64
    value_type = Float64
    reduce = "sum"

    def get_key_projection(self, arg):
        return lambda_from_native(
            [arg], lambda row: 0,
            kernel=lambda rows: np.zeros(len(rows), dtype=np.int64),
        )

    def get_value_projection(self, arg):
        return lambda_from_member(arg, "extendedprice") * \
            lambda_from_member(arg, "discount")


class Q1Sum(AggregateComp):
    """Per-returnflag sum of one measure column (Q1's hot loop)."""

    key_type = Int64
    value_type = Float64
    reduce = "sum"

    def __init__(self, measure):
        super().__init__()
        self.measure = measure

    def get_key_projection(self, arg):
        return lambda_from_member(arg, "returnflag")

    def get_value_projection(self, arg):
        return lambda_from_member(arg, self.measure)


def q6_revenue(cluster, database="tpch", set_name="lineitem",
               columnar=True, **predicate):
    """Run the Q6-style scan; returns the summed revenue (a float)."""
    selected = Q6Selection(**predicate).set_input(
        ObjectReader(database, set_name))
    merged = cluster.execute_computations(
        Q6Revenue().set_input(selected), columnar=columnar)
    return merged.get(0, 0.0)


def q1_sums(cluster, measure, database="tpch", set_name="lineitem",
            columnar=True):
    """Per-returnflag sums of ``measure``; returns {flag: sum}."""
    return cluster.execute_computations(
        Q1Sum(measure).set_input(ObjectReader(database, set_name)),
        columnar=columnar)


def reference_q6(columns, date_lo=365, date_hi=730, disc_lo=1 / 64.0,
                 disc_hi=5 / 64.0, max_qty=24.0):
    """Driver-side Q6 oracle over the generated columns."""
    keep = (
        (columns["shipdate"] >= date_lo) & (columns["shipdate"] < date_hi)
        & (columns["discount"] >= disc_lo)
        & (columns["discount"] <= disc_hi)
        & (columns["quantity"] < max_qty)
    )
    return float(
        (columns["extendedprice"][keep] * columns["discount"][keep]).sum()
    )


def reference_q1(columns, measure):
    """Driver-side Q1 oracle: {returnflag: sum(measure)}."""
    out = {}
    for flag in np.unique(columns["returnflag"]).tolist():
        keep = columns["returnflag"] == flag
        out[flag] = float(columns[measure][keep].sum())
    return out
