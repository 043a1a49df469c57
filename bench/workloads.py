"""The five workloads: inputs from a seed, one op each, an oracle for every op.

Each workload drives the public client API only.  ``small=True`` runs the
same job graph over a 16-row copy of the input (the ``cluster.job_fixed_ms``
probe); ``baseline_op`` runs the same computation on ``repro.baseline``.
"""

from __future__ import annotations

import numpy as np

from repro.baseline import BaselineContext
from repro.baseline.mllib import kmeans as baseline_kmeans
from repro.cluster import PCCluster
from repro.core import (
    JoinComp,
    ObjectReader,
    SelectionComp,
    Writer,
    lambda_from_member,
    lambda_from_native,
)
from repro.memory import Int32, PCObject, String, make_object
from repro.ml import PCKMeans
from repro.ml.kmeans_columnar import ColumnarKMeans
from repro.tpch import (
    TpchSpec,
    customers_per_supplier_baseline,
    customers_per_supplier_pc,
    load_pc_customers,
    python_customers,
    reference_customers_per_supplier,
    reference_top_k,
    top_k_jaccard_baseline,
    top_k_jaccard_pc,
)
from repro.tpch.lineitem import (
    generate_lineitems,
    load_lineitems,
    q1_sums,
    q6_revenue,
    reference_q1,
    reference_q6,
)

SMALL_ROWS = 16
_BASELINE_PARTITIONS = 2


class Workload:
    """One benchmark workload; subclasses fill in the four hooks."""

    name = None
    transport = "process"
    page_size = 1 << 18
    worker_memory = 64 << 20
    #: rows the engine scans per op (``prof.calls_per_row``'s divisor).
    rows = None
    #: cores an op keeps busy, which the calibration loop must match: 2
    #: when its tasks run in the two back-end processes, 1 when the
    #: coordinator does the work.
    busy_cores = 2

    def __init__(self, seed, break_oracle=False):
        self.seed = seed
        #: the self-test's switch: a deliberately wrong oracle must make
        #: every op count as failed.
        self.break_oracle = break_oracle
        #: (sealed page bytes incl. replicas, rows) of the input set,
        #: recorded by ``load`` (or by ``op`` when the op loads it).
        self.stored = None
        self.expected = None

    def make_cluster(self, spill_root, traced=False, transport=None):
        return PCCluster(
            n_workers=2, page_size=self.page_size,
            worker_memory=self.worker_memory, spill_root=spill_root,
            transport=transport or self.transport,
            tracing=traced, profiling=traced,
        )

    def _record_stored(self, cluster, load, rows):
        """Run ``load()``; book the page bytes it shipped from the client."""
        before = cluster.transport.bytes_total
        load()
        self.stored = (cluster.transport.bytes_total - before, rows)

    def load(self, cluster, small=False):
        """Generate the input from the seed and load it."""
        raise NotImplementedError

    def prepare_oracle(self):
        """Compute the expected result (untimed, after set-up)."""
        raise NotImplementedError

    def op(self, cluster, small=False):
        raise NotImplementedError

    def matches(self, result):
        raise NotImplementedError

    def check(self, result):
        return self.matches(result) and not self.break_oracle

    def baseline_prepare(self):
        raise NotImplementedError

    def baseline_op(self):
        raise NotImplementedError

    def baseline_matches(self, result):
        return self.matches(result)


# -- tpch_objects --------------------------------------------------------------------

def _normalized_cps(result):
    return {
        supplier: sorted((name, sorted(parts)) for name, parts in m.items())
        for supplier, m in result.items()
    }


def _normalized_top(candidates):
    return [(c[0], c[1], list(c[2])) for c in candidates]


def _line_items(customer):
    return sum(len(order.line_items) for order in customer.orders)


class TpchObjects(Workload):
    """About 600 Customer trees holding ``line_items`` line items.

    A customer owns 1-3 orders of 1-4 items, so a fixed customer count
    makes the data volume — and with it op time and bytes stored — swing
    by several per cent with the seed.  The seeded stream is cut at a
    fixed number of line items instead.
    """

    name = "tpch_objects"
    rows = 600
    line_items = 3000
    k = 8

    def __init__(self, seed, break_oracle=False):
        super().__init__(seed, break_oracle)
        self.query = sorted(
            np.random.default_rng(seed).choice(150, size=8, replace=False)
            .tolist()
        )

    def _spec(self, n_customers):
        return TpchSpec(n_customers, n_parts=150, n_suppliers=12,
                        seed=self.seed)

    def load(self, cluster, small=False):
        if small:
            load_pc_customers(cluster, self._spec(SMALL_ROWS),
                              set_name="customers_small")
            return
        # The plain-Python mirror of the same seeded stream: it finds the
        # cut, and the oracle and the baseline compute over it.
        # (750 customers carry 3,750 line items on average.)
        self.customers, items = [], 0
        for customer in python_customers(self._spec(750)):
            self.customers.append(customer)
            items += _line_items(customer)
            if items >= self.line_items:
                break
        else:
            raise RuntimeError("seed %d: 750 customers hold only %d line "
                               "items" % (self.seed, items))
        self.rows = len(self.customers)
        self._record_stored(
            cluster,
            lambda: load_pc_customers(cluster,
                                      self._spec(len(self.customers))),
            items,
        )

    def prepare_oracle(self):
        self.expected = (
            _normalized_cps(reference_customers_per_supplier(self.customers)),
            _normalized_top(reference_top_k(self.customers, self.k,
                                            self.query)),
        )

    def op(self, cluster, small=False):
        set_name = "customers_small" if small else "customers"
        per_supplier, _total = customers_per_supplier_pc(
            cluster, set_name=set_name
        )
        top = top_k_jaccard_pc(cluster, self.k, self.query,
                               set_name=set_name)
        return per_supplier, top

    def matches(self, result):
        per_supplier, top = result
        return (_normalized_cps(per_supplier), _normalized_top(top)) \
            == self.expected

    def baseline_prepare(self):
        context = BaselineContext(n_partitions=_BASELINE_PARTITIONS)
        self.rdd = context.parallelize(self.customers).persist()
        self.rdd.count()

    def baseline_op(self):
        per_supplier, _total = customers_per_supplier_baseline(self.rdd)
        top = top_k_jaccard_baseline(self.rdd, self.k, self.query)
        return per_supplier, top


# -- lineitem_columnar ---------------------------------------------------------------

class LineitemColumnar(Workload):
    name = "lineitem_columnar"
    page_size = 1 << 16
    rows = 400000

    def load(self, cluster, small=False):
        if small:
            load_lineitems(cluster, SMALL_ROWS, set_name="lineitem_small",
                           seed=self.seed)
            return

        def load():
            self.columns = load_lineitems(cluster, self.rows, seed=self.seed)

        self._record_stored(cluster, load, self.rows)

    def prepare_oracle(self):
        self.expected = (
            reference_q6(self.columns),
            reference_q1(self.columns, "quantity"),
            reference_q1(self.columns, "extendedprice"),
        )

    def op(self, cluster, small=False):
        set_name = "lineitem_small" if small else "lineitem"
        return (
            q6_revenue(cluster, set_name=set_name),
            q1_sums(cluster, "quantity", set_name=set_name),
            q1_sums(cluster, "extendedprice", set_name=set_name),
        )

    def matches(self, result):
        return result == self.expected

    def baseline_prepare(self):
        columns = generate_lineitems(self.rows, seed=self.seed)
        names = ("quantity", "extendedprice", "discount", "shipdate",
                 "returnflag")
        rows = list(zip(*(columns[name].tolist() for name in names)))
        context = BaselineContext(n_partitions=_BASELINE_PARTITIONS)
        self.rdd = context.parallelize(rows).persist()
        self.rdd.count()

    def baseline_op(self):
        def add(a, b):
            return a + b

        q6 = self.rdd.filter(
            lambda r: 365 <= r[3] < 730 and 1 / 64.0 <= r[2] <= 5 / 64.0
            and r[0] < 24.0
        ).map(lambda r: (0, r[1] * r[2])).reduce_by_key(add).collect()
        quantity = self.rdd.map(lambda r: (r[4], r[0])) \
            .reduce_by_key(add).collect()
        price = self.rdd.map(lambda r: (r[4], r[1])) \
            .reduce_by_key(add).collect()
        return dict(q6).get(0, 0.0), dict(quantity), dict(price)


# -- the two k-means workloads -------------------------------------------------------

def _blobs(seed, n, dims, k):
    """``n`` points around ``k`` seeded centres, plus ``k`` start centres."""
    rng = np.random.default_rng(seed)
    centres = rng.normal(scale=5.0, size=(k, dims))
    points = centres[rng.integers(0, k, size=n)] \
        + rng.normal(scale=0.5, size=(n, dims))
    start = points[rng.choice(n, size=k, replace=False)].copy()
    return points, start


def lloyd_step(points, centres):
    """The numpy oracle: exact argmin assignment, mean per centre."""
    d2 = ((points[:, None, :] - centres[None, :, :]) ** 2).sum(axis=2)
    assigned = np.argmin(d2, axis=1)
    out = centres.copy()
    for j in range(len(centres)):
        mask = assigned == j
        if mask.any():
            out[j] = points[mask].mean(axis=0)
    return out


class _KMeans(Workload):
    k = 8
    dims = None

    def _driver(self, cluster, small):
        raise NotImplementedError

    def _load_points(self, cluster, points, small):
        raise NotImplementedError

    def load(self, cluster, small=False):
        if small:
            self._load_points(cluster, self.points[:SMALL_ROWS], True)
            return
        self.points, self.start = _blobs(self.seed, self.rows, self.dims,
                                         self.k)
        self._record_stored(
            cluster, lambda: self._load_points(cluster, self.points, False),
            self.rows,
        )

    def prepare_oracle(self):
        self.expected = lloyd_step(self.points, self.start)

    def op(self, cluster, small=False):
        return self._driver(cluster, small).iterate(self.start)

    def matches(self, result):
        return bool(np.allclose(result, self.expected, rtol=1e-9,
                                atol=1e-12))

    def baseline_prepare(self):
        context = BaselineContext(n_partitions=_BASELINE_PARTITIONS)
        self.rdd = context.parallelize(list(self.points)).persist()
        self.rdd.count()

    def baseline_op(self):
        _model, history = baseline_kmeans.train(self.rdd, self.k, 1,
                                                seed=self.seed)
        return history[0]

    def baseline_matches(self, result):
        # mllib's train() draws its own start centres; the oracle steps
        # from the same ones.
        start = baseline_kmeans.initialize(self.rdd, self.k, seed=self.seed)
        return bool(np.allclose(result, lloyd_step(self.points, start),
                                rtol=1e-9, atol=1e-12))


class KMeansIter(_KMeans):
    name = "kmeans_iter"
    page_size = 1 << 16  # six pages: both workers get rows
    rows = 6000
    dims = 8

    def _driver(self, cluster, small):
        driver = ColumnarKMeans(
            cluster, set_name="points_small" if small else "points_col"
        )
        driver.dims = self.dims
        return driver

    def _load_points(self, cluster, points, small):
        self._driver(cluster, small).load(points)


class KMeansSpill(_KMeans):
    name = "kmeans_spill"
    # A pool too small to pin a whole scan makes the scheduler run the
    # scan inline in the coordinator, page by page.
    busy_cores = 1
    page_size = 8 << 10
    worker_memory = 3 << 20
    rows = 70000
    dims = 16
    chunk = 56

    def _driver(self, cluster, small):
        return PCKMeans(
            cluster, set_name="points_small" if small else "points"
        )

    def _load_points(self, cluster, points, small):
        self._driver(cluster, small).load(points, chunk_size=self.chunk)


# -- etl_join_write ------------------------------------------------------------------

class Order(PCObject):
    fields = [("oid", Int32), ("dim_id", Int32), ("amount", Int32),
              ("note", String)]


class Dimension(PCObject):
    fields = [("dim_id", Int32), ("label", String)]


class BigOrders(SelectionComp):
    """Orders of at least ``threshold``, re-materialised as PC objects."""

    def __init__(self, threshold):
        super().__init__()
        self.threshold = threshold

    def get_selection(self, arg):
        return lambda_from_member(arg, "amount") >= self.threshold

    def get_projection(self, arg):
        return lambda_from_native([arg], lambda o: make_object(
            Order, oid=o.oid, dim_id=o.dim_id, amount=o.amount, note=o.note
        ))


class DimensionJoin(JoinComp):
    def get_selection(self, dim, order):
        return lambda_from_member(dim, "dim_id") \
            == lambda_from_member(order, "dim_id")

    def get_projection(self, dim, order):
        return lambda_from_native(
            [dim, order], lambda d, o: (o.oid, d.label)
        )


class EtlJoinWrite(Workload):
    """A batch's materialised output must fit one page: with 64 KiB pages
    the selection fails with BlockFullError after three page rolls, hence
    256 KiB."""

    name = "etl_join_write"
    transport = "sim"
    busy_cores = 1
    rows = 4000
    n_dims = 200
    threshold = 500
    database = "etl"

    def load(self, cluster, small=False):
        if small:
            return  # the op loads its own input; small just loads less
        rng = np.random.default_rng(self.seed)
        self.amounts = rng.integers(0, 1000, size=self.rows).tolist()
        self.dim_ids = rng.integers(0, self.n_dims, size=self.rows).tolist()
        self.notes = ["note-%d" % v
                      for v in rng.integers(0, 10 ** 6, size=self.rows)]
        cluster.create_database(self.database)
        cluster.create_set(self.database, "dims", Dimension)
        with cluster.loader(self.database, "dims") as load:
            for i in range(self.n_dims):
                load.append(Dimension, dim_id=i, label="dim#%d" % i)

    def prepare_oracle(self):
        self.expected = (
            [i for i in range(self.rows)
             if self.amounts[i] >= self.threshold],
            [(i, "dim#%d" % self.dim_ids[i]) for i in range(self.rows)],
        )

    def _load_orders(self, cluster, rows):
        with cluster.loader(self.database, "orders") as load:
            for i in range(rows):
                load.append(Order, oid=i, dim_id=self.dim_ids[i],
                            amount=self.amounts[i], note=self.notes[i])

    def op(self, cluster, small=False):
        rows = SMALL_ROWS if small else self.rows
        db = self.database
        cluster.create_set(db, "orders", Order, replication=2)
        self._record_stored(
            cluster, lambda: self._load_orders(cluster, rows), rows
        )
        selected = BigOrders(self.threshold).set_input(
            ObjectReader(db, "orders")
        )
        Writer(db, "big").set_input(selected).execute(cluster)
        join = DimensionJoin() \
            .set_input(0, ObjectReader(db, "dims")) \
            .set_input(1, ObjectReader(db, "orders"))
        Writer(db, "joined").set_input(join).execute(cluster)
        big = sorted(handle.oid for handle in cluster.read(db, "big"))
        joined = sorted(cluster.read(db, "joined"))
        for name in ("orders", "big", "joined"):
            cluster.drop_set(db, name)
        return big, joined

    def matches(self, result):
        return result == self.expected

    def baseline_prepare(self):
        self.context = BaselineContext(n_partitions=_BASELINE_PARTITIONS)
        self.dims_rdd = self.context.parallelize(
            [(i, "dim#%d" % i) for i in range(self.n_dims)]
        ).persist()
        self.dims_rdd.count()

    def baseline_op(self):
        orders = self.context.parallelize([
            (i, self.dim_ids[i], self.amounts[i], self.notes[i])
            for i in range(self.rows)
        ]).persist()
        threshold = self.threshold
        big = orders.filter(lambda o: o[2] >= threshold).collect()
        joined = self.dims_rdd.join(
            orders.map(lambda o: (o[1], o[0]))
        ).map(lambda kv: (kv[1][1], kv[1][0])).collect()
        return sorted(o[0] for o in big), sorted(joined)


WORKLOADS = {
    cls.name: cls
    for cls in (TpchObjects, LineitemColumnar, KMeansIter, KMeansSpill,
                EtlJoinWrite)
}
