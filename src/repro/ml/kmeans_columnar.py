"""k-means over a columnar point set (the vectorized Section 8.5.1 run).

Where :mod:`repro.ml.kmeans` stores points as chunk *objects* and runs
the Lloyd step through per-chunk native lambdas, this variant stores one
point per row in a set created with ``schema=`` (one ``f64`` column per
dimension) and expresses the step so every operator lowers onto the
whole-page array kernels:

* the closest-centroid assignment is a ``lambda_from_native`` whose
  declared kernel stacks the coordinate columns and evaluates all
  centroid distances in one einsum-free broadcast;
* the per-centroid (count, per-dimension sum) reduction becomes
  ``reduce = "sum"`` aggregations over numeric key/value columns, which
  the optimizer lowers to :func:`repro.engine.kernels.aggregate_sum`.

Run with ``execute_computations(..., columnar=False)`` the identical
program executes row-at-a-time on the object path — the parity suite
compares the two on dyadic-rational inputs, where both are exact.
"""

from __future__ import annotations

import numpy as np

from repro.core import (
    AggregateComp,
    ObjectReader,
    Writer,
    lambda_from_member,
    lambda_from_native,
)
from repro.errors import PCError
from repro.memory import Float64, Int64
from repro.schema import Schema, f64


def point_schema(dims):
    """The columnar schema of a ``dims``-dimensional point set."""
    return Schema([("x%d" % j, f64) for j in range(dims)])


def load_columnar_points(cluster, database, set_name, points,
                         page_size=None):
    """Create a columnar point set and bulk-load ``points`` (n x d)."""
    points = np.asarray(points, dtype=np.float64)
    schema = point_schema(points.shape[1])
    cluster.create_database(database)
    cluster.create_set(database, set_name, schema=schema,
                       page_size=page_size)
    with cluster.loader(database, set_name) as load:
        load.append_columns(**{
            "x%d" % j: points[:, j] for j in range(points.shape[1])
        })
    return points.shape


def _assignment_lambda(arg, centers):
    """Closest-centroid index as a kernelized native lambda.

    The per-row function and the whole-batch kernel compute the same
    plain squared distances (no norm-bound shortcut), so on exactly
    representable inputs they agree bit-for-bit, ties (strict argmin)
    included.
    """
    centers = np.asarray(centers, dtype=np.float64)
    dims = centers.shape[1]
    names = ["x%d" % j for j in range(dims)]

    def assign_one(p):
        point = np.array([getattr(p, name) for name in names])
        d2 = ((centers - point) ** 2).sum(axis=1)
        return int(np.argmin(d2))

    def assign_kernel(rows):
        points = np.stack([rows.column(name) for name in names], axis=1)
        d2 = ((points[:, None, :] - centers[None, :, :]) ** 2).sum(axis=2)
        return np.argmin(d2, axis=1)

    return lambda_from_native([arg], assign_one, kernel=assign_kernel)


class AssignedSum(AggregateComp):
    """Sum one coordinate (or count rows) per closest centroid."""

    key_type = Int64
    value_type = Float64
    reduce = "sum"

    def __init__(self, centers, dim=None):
        super().__init__()
        self.centers = np.asarray(centers, dtype=np.float64)
        #: coordinate index to sum; None sums a constant 1 (the count).
        self.dim = dim

    def get_key_projection(self, arg):
        return _assignment_lambda(arg, self.centers)

    def get_value_projection(self, arg):
        if self.dim is None:
            return lambda_from_native(
                [arg], lambda p: 1.0,
                kernel=lambda rows: np.ones(len(rows)),
            )
        return lambda_from_member(arg, "x%d" % self.dim)


class ColumnarKMeans:
    """k-means driver over a columnar point set."""

    def __init__(self, cluster, database="ml", set_name="points_col"):
        self.cluster = cluster
        self.database = database
        self.set_name = set_name
        self.n_points = None
        self.dims = None

    def load(self, points, page_size=None):
        self.n_points, self.dims = load_columnar_points(
            self.cluster, self.database, self.set_name, points,
            page_size=page_size,
        )
        return self

    def initialize(self, k, seed=0):
        """Initial centroids sampled from the stored rows."""
        rng = np.random.default_rng(seed)
        rows = self.cluster.read(self.database, self.set_name)
        if not rows:
            raise PCError("no points loaded")
        if len(rows) < k:
            raise PCError("fewer points than centroids")
        chosen = rng.choice(len(rows), size=k, replace=False)
        return np.array([rows[i].as_tuple() for i in chosen])

    def iterate(self, centers, columnar=True):
        """One Lloyd step: a count plus one sum aggregation per dimension.

        ``columnar`` is forwarded to ``execute_computations`` so the
        parity tests can force the object path on the same program.
        """
        centers = np.asarray(centers, dtype=np.float64)
        totals = {}  # dim (or None for counts) -> {centroid: sum}
        for dim in [None] + list(range(self.dims)):
            agg = AssignedSum(centers, dim=dim).set_input(
                ObjectReader(self.database, self.set_name)
            )
            out_set = "kmeans_part_tmp"
            if (self.database, out_set) in self.cluster.storage_manager:
                self.cluster.clear_set(self.database, out_set)
            writer = Writer(self.database, out_set).set_input(agg)
            self.cluster.execute_computations(writer, columnar=columnar)
            totals[dim] = self.cluster.read(
                self.database, out_set, as_pairs=True, comp=agg
            )
        new_centers = centers.copy()
        for j, count in totals[None].items():
            if count > 0:
                new_centers[int(j)] = [
                    totals[dim].get(j, 0.0) / count
                    for dim in range(self.dims)
                ]
        return new_centers

    def train(self, k, iterations, seed=0, columnar=True):
        centers = self.initialize(k, seed=seed)
        history = []
        for _iteration in range(iterations):
            centers = self.iterate(centers, columnar=columnar)
            history.append(centers.copy())
        return centers, history
