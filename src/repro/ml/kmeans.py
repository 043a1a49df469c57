"""k-means on PlinyCompute (Section 8.5.1, Appendix A).

One Lloyd iteration is a single ``AggregateComp``, exactly as in the
paper's Appendix A example: the computation object carries the current
centroids, each data point contributes an ``Avg``-style (count, sum)
value keyed by its closest centroid, and the aggregation's merged pairs
— the job's result, returned to this program and never stored — become
the next model.

Assignment computes exact squared distances, a block of points against
every centre in one broadcast (:func:`assign_chunk`, which the columnar
driver shares).  The mllib baseline keeps Spark's per-point norm lower
bound ``||a-b||_2 >= |(||a||_2 - ||b||_2)|``; at chunk granularity the
bound's masking cost more numpy calls than the distances it skipped.
"""

from __future__ import annotations

import numpy as np

from repro.core import (
    AggregateComp,
    MultiSelectionComp,
    ObjectReader,
    lambda_from_native,
)
from repro.errors import PCError
from repro.memory import Float64, Int64, VectorType
from repro.ml.points import load_points


#: Bound on one block's ``(rows, k, d)`` distance temporary, in elements;
#: a block holds at least one row.
BLOCK_ELEMENTS = 1 << 15


def assign_chunk(points, centers):
    """Index of each point's closest centre (the lowest index on a tie).

    Exact squared distances, one broadcast per block of rows: the one
    assignment kernel of both k-means drivers.
    """
    points = np.asarray(points, dtype=np.float64)
    centers = np.asarray(centers, dtype=np.float64)
    step = max(1, BLOCK_ELEMENTS // centers.size)
    assigned = np.empty(len(points), dtype=np.int64)
    for start in range(0, len(points), step):
        delta = points[start:start + step, None, :] - centers[None]
        np.square(delta, out=delta)
        assigned[start:start + step] = delta.sum(axis=2).argmin(axis=1)
    return assigned


class PartialCentroids(MultiSelectionComp):
    """Per-chunk partial (centroid, count+sum) contributions."""

    def __init__(self, centers):
        super().__init__()
        self.centers = np.asarray(centers)

    def get_projection(self, arg):
        centers = self.centers

        def partials(chunk):
            points = chunk.get_points()
            assigned = assign_chunk(points, centers)
            sums = np.zeros((len(centers), 1 + points.shape[1]))
            sums[:, 0] = np.bincount(assigned, minlength=len(centers))
            np.add.at(sums[:, 1:], assigned, points)
            return [(int(j), sums[j]) for j in np.flatnonzero(sums[:, 0])]

        return lambda_from_native([arg], partials)


class GetNewCentroids(AggregateComp):
    """The Appendix A aggregation: combine (count, sum) per centroid."""

    key_type = Int64
    value_type = VectorType(Float64)

    def get_key_projection(self, arg):
        return lambda_from_native([arg], lambda pair: pair[0])

    def get_value_projection(self, arg):
        return lambda_from_native([arg], lambda pair: pair[1])

    def combine(self, a, b):
        return a + b


class PCKMeans:
    """k-means driver bound to one cluster and one stored point set."""

    def __init__(self, cluster, database="ml", set_name="points"):
        self.cluster = cluster
        self.database = database
        self.set_name = set_name
        self.n_points = None
        self.dims = None

    def load(self, points, chunk_size=256):
        """Chunk and store the input points."""
        self.n_points, self.dims = load_points(
            self.cluster, self.database, self.set_name, points,
            chunk_size=chunk_size,
        )
        return self

    def initialize(self, k, seed=0):
        """Random initial centroids drawn from stored chunks."""
        rng = np.random.default_rng(seed)
        chunks = self.cluster.read(self.database, self.set_name)
        if not chunks:
            raise PCError("no points loaded")
        sample = chunks[0].deref().get_points()
        if sample.shape[0] < k:
            raise PCError("first chunk smaller than k; use larger chunks")
        chosen = rng.choice(sample.shape[0], size=k, replace=False)
        return sample[chosen].copy()

    def iterate(self, centers):
        """One Lloyd step: one aggregation job, whose pairs are the new
        centroids' (count, sum)."""
        partials = PartialCentroids(centers).set_input(
            ObjectReader(self.database, self.set_name))
        merged = self.cluster.execute_computations(
            GetNewCentroids().set_input(partials))
        new_centers = np.asarray(centers).copy()
        for j, value in merged.items():
            count, total = value[0], value[1:]
            if count > 0:
                new_centers[j] = total / count
        return new_centers

    def train(self, k, iterations, seed=0):
        """Full run; returns (centers, history)."""
        centers = self.initialize(k, seed=seed)
        history = []
        for _iteration in range(iterations):
            centers = self.iterate(centers)
            history.append(centers.copy())
        return centers, history
