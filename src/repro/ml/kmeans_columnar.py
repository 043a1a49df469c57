"""k-means over a columnar point set (the vectorized Section 8.5.1 run).

Where :mod:`repro.ml.kmeans` stores points as chunk *objects* and runs
the Lloyd step through per-chunk native lambdas, this variant stores one
point per row in a set created with ``schema=`` (one ``f64`` column per
dimension) and expresses the step so every operator lowers onto the
whole-page array kernels:

* the closest-centroid assignment is a ``lambda_from_native`` whose
  declared kernel stacks the coordinate columns and assigns them with
  :func:`repro.ml.kmeans.assign_chunk`, the chunked driver's kernel;
* the per-centroid ``(count, Σx)`` reduction is one ``reduce = "sum"``
  aggregation of ``Vector<Float64>`` values (Appendix A): its kernel
  stacks ones beside the coordinates into an ``(n, 1 + d)`` column that
  :func:`repro.engine.kernels.aggregate_sum` folds, so a step is one job.

Run with ``execute_computations(..., columnar=False)`` the identical
program executes row-at-a-time on the object path — the parity suite
compares the two on dyadic-rational inputs, where both are exact.
"""

from __future__ import annotations

import numpy as np

from repro.core import AggregateComp, ObjectReader, lambda_from_native
from repro.errors import PCError
from repro.memory import Float64, Int64, VectorType
from repro.ml.kmeans import assign_chunk
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

    The per-row function and the whole-batch kernel both call
    :func:`repro.ml.kmeans.assign_chunk` (the row as a 1-row block), so
    they compute the same distances, strict-argmin ties too.
    """
    centers = np.asarray(centers, dtype=np.float64)
    names = ["x%d" % j for j in range(centers.shape[1])]

    def assign_one(p):
        point = np.array([[getattr(p, name) for name in names]])
        return int(assign_chunk(point, centers)[0])

    def assign_kernel(rows):
        return assign_chunk(
            np.stack([rows.column(name) for name in names], axis=1), centers)

    return lambda_from_native([arg], assign_one, kernel=assign_kernel)


class AssignedSums(AggregateComp):
    """The Appendix A aggregation over columnar points: one
    ``(count, x0, .., x{d-1})`` vector summed per closest centroid."""

    key_type = Int64
    value_type = VectorType(Float64)
    reduce = "sum"

    def __init__(self, centers):
        super().__init__()
        self.centers = np.asarray(centers, dtype=np.float64)

    def get_key_projection(self, arg):
        return _assignment_lambda(arg, self.centers)

    def get_value_projection(self, arg):
        names = ["x%d" % j for j in range(self.centers.shape[1])]

        def count_and_point(p):
            return np.array([1.0] + [getattr(p, name) for name in names])

        def counts_and_points(rows):
            return np.column_stack(
                [np.ones(len(rows))] + [rows.column(name) for name in names]
            )

        return lambda_from_native([arg], count_and_point, kernel=counts_and_points)


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
            self.cluster, self.database, self.set_name, points, page_size=page_size)
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
        """One Lloyd step: one :class:`AssignedSums` job, whose pairs are
        its result.

        ``columnar`` is forwarded to ``execute_computations`` so the
        parity tests can force the object path on the same program.
        """
        centers = np.asarray(centers, dtype=np.float64)
        sums = self.cluster.execute_computations(AssignedSums(centers).set_input(
            ObjectReader(self.database, self.set_name)), columnar=columnar)
        new_centers = centers.copy()
        for j, value in sums.items():
            if value[0] > 0:
                new_centers[int(j)] = value[1:] / value[0]
        return new_centers

    def train(self, k, iterations, seed=0, columnar=True):
        centers = self.initialize(k, seed=seed)
        history = []
        for _iteration in range(iterations):
            centers = self.iterate(centers, columnar=columnar)
            history.append(centers.copy())
        return centers, history
