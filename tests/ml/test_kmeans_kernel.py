"""The one closest-centre kernel, ``repro.ml.kmeans.assign_chunk``.

Both k-means drivers assign through it: the chunked driver per stored
chunk (``PartialCentroids``), the columnar driver per kernel batch and,
on the object path, per row.  These tests pin its contract — strict
argmin ties, block boundaries, distances bit-identical to the
per-centroid scratch form — and check the two drivers against each
other on non-dyadic points, where only identical arithmetic agrees.
"""

import numpy as np
import pytest

from repro.cluster import PCCluster
from repro.cluster.transport import remote_available
from repro.core.lambdas import Arg
from repro.ml.kmeans import (
    BLOCK_ELEMENTS,
    PartialCentroids,
    PCKMeans,
    assign_chunk,
)
from repro.ml.kmeans_columnar import ColumnarKMeans

TRANSPORTS = [
    "sim",
    pytest.param(
        "process",
        marks=pytest.mark.skipif(
            not remote_available(), reason="cloudpickle unavailable"
        ),
    ),
]


def scratch_distances(points, centers):
    """The per-centroid form: one ``(n, d)`` scratch array per centre."""
    scratch = np.empty_like(points)
    d2 = np.empty((len(points), len(centers)))
    for j, center in enumerate(centers):
        np.square(np.subtract(points, center, out=scratch), out=scratch)
        scratch.sum(axis=1, out=d2[:, j])
    return d2


def mask_sum_partials(points, assigned):
    """The mask-and-sum loop: one ``(j, [count, Σx])`` per used cluster."""
    out = []
    for j in np.unique(assigned):
        mask = assigned == j
        out.append((int(j), np.concatenate((
            [float(mask.sum())], points[mask].sum(axis=0)
        ))))
    return out


def near_ties(rng, centers, n, eps=1e-15):
    """Points a hair off the midpoint of two centres: which one wins is
    decided by the last bits of the squared distances."""
    a = rng.integers(0, len(centers), size=n)
    b = (a + 1 + rng.integers(0, len(centers) - 1, size=n)) % len(centers)
    middle = (centers[a] + centers[b]) / 2
    return middle + rng.normal(scale=eps, size=middle.shape)


class _Chunk:
    def __init__(self, points):
        self.points = points

    def get_points(self):
        return self.points


def run_partials(centers, points):
    term = PartialCentroids(centers).get_projection(Arg(0))
    return term.executor()([_Chunk(points)])[0]


def test_assign_chunk_breaks_ties_to_the_lowest_index():
    rng = np.random.default_rng(0)
    points = rng.normal(size=(50, 2))
    # Duplicate centres: the second copy of each never wins.
    duplicated = np.array([[0.0, 0.0], [3.0, 3.0], [0.0, 0.0], [3.0, 3.0]])
    assert set(assign_chunk(points, duplicated)) <= {0, 1}
    # Points on the bisector of two centres, in either order, and with a
    # farther centre first.
    on_axis = np.column_stack([np.zeros(9), np.arange(9.0) - 4])
    for centers, winner in (([[-1.0, 0.0], [1.0, 0.0]], 0),
                            ([[1.0, 0.0], [-1.0, 0.0]], 0),
                            ([[50.0, 0.0], [-2.0, 0.0], [2.0, 0.0]], 1)):
        assert list(assign_chunk(on_axis, np.array(centers))) == [winner] * 9


#: rows of one block against 8 centres in 16 dimensions
STEP = BLOCK_ELEMENTS // (8 * 16)


@pytest.mark.parametrize("rows", [STEP - 1, STEP, STEP + 1, 24_576])
def test_a_batch_equals_its_one_row_calls(rows):
    # 24,576 rows: one columnar kernel batch (ARRAY_BATCH_ROWS).
    rng = np.random.default_rng(rows)
    centers = rng.normal(size=(8, 16))
    points = np.vstack([rng.normal(size=(rows - rows // 4, 16)),
                        near_ties(rng, centers, rows // 4)])
    batch = assign_chunk(points, centers)
    assert batch.dtype == np.int64
    assert list(batch) == [assign_chunk(p[None], centers)[0] for p in points]


def test_distances_are_bit_identical_to_the_scratch_form():
    # On near-midpoint points any other summation order (a norm
    # expansion, an einsum) flips some assignments.
    rng = np.random.default_rng(3)
    for _chunk in range(200):
        centers = rng.normal(size=(8, 16))
        points = np.vstack([rng.normal(size=(28, 16)),
                            near_ties(rng, centers, 28)])
        expected = np.argmin(scratch_distances(points, centers), axis=1)
        assert np.array_equal(assign_chunk(points, centers), expected)


def test_a_wide_chunk_runs_row_blocks():
    # k * d over the block bound: one row per block, same answer.
    rng = np.random.default_rng(4)
    centers = rng.normal(size=(40, 1000))
    points = rng.normal(size=(5, 1000))
    assert centers.size > BLOCK_ELEMENTS
    expected = np.argmin(scratch_distances(points, centers), axis=1)
    assert np.array_equal(assign_chunk(points, centers), expected)


def test_an_empty_chunk_gives_no_partials():
    centers = np.random.default_rng(5).normal(size=(8, 16))
    assert len(assign_chunk(np.empty((0, 16)), centers)) == 0
    assert run_partials(centers, np.empty((0, 16))) == []


def test_partials_are_bit_identical_to_the_mask_sum_loop():
    rng = np.random.default_rng(6)
    centers = rng.normal(size=(8, 16))
    for _chunk in range(100):
        points = rng.normal(size=(56, 16)) * 3.0 + 0.1
        got = run_partials(centers, points)
        expected = mask_sum_partials(points, assign_chunk(points, centers))
        assert [j for j, _value in got] == [j for j, _value in expected]
        for (_j, value), (_j2, oracle) in zip(got, expected):
            assert value.dtype == np.float64
            assert np.array_equal(value, oracle)


@pytest.mark.parametrize("transport", TRANSPORTS)
def test_both_drivers_assign_every_point_alike(tmp_path, transport):
    rng = np.random.default_rng(7)
    centers = rng.normal(scale=2.0, size=(5, 8))
    points = np.vstack([rng.normal(scale=2.0, size=(240, 8)),
                        near_ties(rng, centers, 60)])
    assigned = np.argmin(scratch_distances(points, centers), axis=1)
    expected_counts = {int(j): float(n) for j, n in
                       enumerate(np.bincount(assigned)) if n}
    with PCCluster(n_workers=2, page_size=1 << 12, transport=transport,
                   spill_root=str(tmp_path)) as cluster:
        chunked = PCKMeans(cluster).load(points, chunk_size=32)
        columnar = ColumnarKMeans(cluster).load(points)
        # Each step's job returns its aggregation's pairs: keep them.
        returned, run = [], cluster.execute_computations
        cluster.execute_computations = \
            lambda *a, **kw: returned.append(run(*a, **kw)) or returned[-1]
        from_chunks = chunked.iterate(centers)
        from_columns = columnar.iterate(centers)
        sums = dict(zip(("chunked", "columnar"), returned))
    for driver, merged in sums.items():
        counts = {int(j): float(value[0]) for j, value in merged.items()}
        assert counts == expected_counts, driver
    np.testing.assert_allclose(from_chunks, from_columns, rtol=0, atol=1e-12)
    for j in expected_counts:
        np.testing.assert_allclose(
            from_chunks[j], points[assigned == j].mean(axis=0),
            rtol=0, atol=1e-12)
