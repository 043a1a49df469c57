"""k-means on PlinyCompute (Section 8.5.1, Appendix A).

One Lloyd iteration is a single ``AggregateComp``, exactly as in the
paper's Appendix A example: the computation object carries the current
centroids, each data point contributes an ``Avg``-style (count, sum)
value keyed by its closest centroid, and the aggregation result — read
back from the stored Map set — becomes the next model.

Both this and the baseline implementation use the norm lower-bound trick
``||a-b||_2 >= |(||a||_2 - ||b||_2)|`` to skip distance evaluations.
"""

from __future__ import annotations

import numpy as np

from repro.core import (
    AggregateComp,
    MultiSelectionComp,
    ObjectReader,
    Writer,
    lambda_from_native,
)
from repro.errors import PCError
from repro.memory import Float64, Int64, VectorType
from repro.ml.points import load_points


def assign_chunk(points, centers, center_norms):
    """Closest-centroid assignment for a whole chunk.

    The norm bound is applied vectorized: for each centroid, only the
    points whose lower bound beats their current best distance get an
    exact distance evaluation.
    """
    n = points.shape[0]
    point_norms = np.linalg.norm(points, axis=1)
    best_dist = np.full(n, np.inf)
    best_index = np.zeros(n, dtype=np.int64)
    for j, center in enumerate(centers):
        bound = point_norms - center_norms[j]
        candidates = (bound * bound) < best_dist
        if not candidates.any():
            continue
        delta = points[candidates] - center
        dist = np.einsum("ij,ij->i", delta, delta)
        improved = dist < best_dist[candidates]
        indices = np.flatnonzero(candidates)[improved]
        best_dist[indices] = dist[improved]
        best_index[indices] = j
    return best_index, best_dist


class PartialCentroids(MultiSelectionComp):
    """Per-chunk partial (centroid, count+sum) contributions."""

    def __init__(self, centers):
        super().__init__()
        self.centers = np.asarray(centers)
        self.center_norms = np.linalg.norm(self.centers, axis=1)

    def get_projection(self, arg):
        centers = self.centers
        norms = self.center_norms

        def partials(chunk):
            points = chunk.get_points()
            assignments, _dists = assign_chunk(points, centers, norms)
            out = []
            for j in np.unique(assignments):
                mask = assignments == j
                value = np.concatenate((
                    [float(mask.sum())], points[mask].sum(axis=0)
                ))
                out.append((int(j), value))
            return out

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
        """One Lloyd step: run the aggregation, read the new centroids."""
        reader = ObjectReader(self.database, self.set_name)
        partials = PartialCentroids(centers).set_input(reader)
        agg = GetNewCentroids().set_input(partials)
        out_set = "centroids_tmp"
        if (self.database, out_set) in self.cluster.storage_manager:
            self.cluster.clear_set(self.database, out_set)
        writer = Writer(self.database, out_set).set_input(agg)
        self.cluster.execute_computations(writer)
        merged = self.cluster.read(
            self.database, out_set, as_pairs=True, comp=agg
        )
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
