"""Chunked point storage shared by the PC ML implementations.

Points are stored as :class:`PointsChunk` PC objects — each chunk holds a
contiguous batch of points as a row-major matrix on the page, accessed
through a zero-copy numpy view.  Chunking is how a capable PC programmer
lays out dense numeric data (it is the MatrixBlock pattern of Section
8.3.1 applied to ML inputs); the per-chunk views are this reproduction's
``Eigen::Map``.
"""

from __future__ import annotations

import numpy as np

from repro.memory import Float64, Int32, PCObject, VectorType


class PointsChunk(PCObject):
    """A batch of ``count`` points with ``dims`` features each."""

    fields = [
        ("start_id", Int32),
        ("count", Int32),
        ("dims", Int32),
        ("data", VectorType(Float64)),
    ]

    def get_points(self):
        """A (count, dims) numpy view aliasing the page bytes."""
        return self.data.as_numpy().reshape(self.count, self.dims)


def load_points(cluster, database, set_name, points, chunk_size=256):
    """Chunk a (n, d) numpy array into PointsChunk objects and load it."""
    points = np.asarray(points, dtype="f8")
    n, d = points.shape
    cluster.register_type(PointsChunk)
    cluster.create_database(database)
    cluster.create_set(database, set_name, PointsChunk)
    with cluster.loader(database, set_name) as load:
        for start in range(0, n, chunk_size):
            chunk = points[start:start + chunk_size]
            load.append(PointsChunk, start_id=start, count=chunk.shape[0],
                        dims=d, data=chunk)
    return n, d
