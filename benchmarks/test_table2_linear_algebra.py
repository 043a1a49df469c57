"""Table 2: the distributed linear algebra benchmark (Section 8.3.2).

Three computations — Gram matrix (X^T X), least-squares linear
regression ((X^T X)^-1 X^T y), and metric nearest-neighbor search — at
three dimensionalities, on:

* **PC (lilLinAlg)** — MatrixBlock sets, join+aggregation multiply;
* **baseline mllib** — RowMatrix on the Spark-like RDD engine (rows are
  objects; shuffles and driver aggregation pay pickling);
* **SystemML-style** — like the paper's SystemML, switches to a purely
  local (single-node, no distribution overhead) execution when the
  computation is small; block-partitioned RDD execution otherwise.

Paper shape to reproduce: lilLinAlg wins at the higher dimensionalities;
the local-mode comparator can win at dimension 10 because distribution
overhead dominates tiny computations.

(The paper's SciDB column has no open substitute here; DESIGN.md
documents the omission.)
"""

import numpy as np
import pytest

from repro.baseline import BaselineContext
from repro.baseline.mllib.linalg import RowMatrix, linear_regression
from repro.cluster import PCCluster
from repro.lillinalg import DistributedMatrix

from bench_utils import fmt_seconds, render_table, report, timed

#: (dimension, n_points) pairs — scaled from the paper's 10^6 points
#: (n stays above d so the Gram matrix is invertible).
CASES = [(10, 4000), (100, 2000), (1000, 1200)]

_LOCAL_THRESHOLD_CELLS = 4000 * 10  # "small enough to run locally"


def _data(dim, n):
    rng = np.random.default_rng(dim)
    x = rng.normal(size=(n, dim))
    y = x @ rng.normal(size=dim) + 0.01 * rng.normal(size=n)
    return x, y


def _pc_matrices(x, y):
    # Like the paper (Section 8.3.2), page and block sizes are tuned per
    # dimensionality: wide matrices chunk their columns so no product
    # block outgrows a page.
    cluster = PCCluster(n_workers=4, page_size=4 << 20)
    block_rows = max(64, x.shape[0] // 8)
    block_cols = min(x.shape[1], 256)
    dx = DistributedMatrix.from_numpy(
        cluster, "lla", x, block_rows, block_cols
    )
    dy = DistributedMatrix.from_numpy(
        cluster, "lla", y.reshape(-1, 1), block_rows, 1
    )
    return cluster, dx, dy


def _systemml_style(x, fn_local, fn_distributed):
    """Local mode for small inputs (the paper's starred cells)."""
    if x.size <= _LOCAL_THRESHOLD_CELLS:
        return timed(fn_local)[0], "local"
    return timed(fn_distributed)[0], "distributed"


def _run_case(dim, n):
    x, y = _data(dim, n)
    row = {"dim": dim}

    cluster, dx, dy = _pc_matrices(x, y)
    context = BaselineContext(n_partitions=8)
    rows_rdd = context.parallelize(list(x)).persist()
    rows_rdd.collect()
    matrix = RowMatrix(rows_rdd, n_cols=dim)
    y_rdd = context.parallelize(list(y))

    # -- Gram matrix -----------------------------------------------------------
    pc_time, pc_gram = timed(lambda: dx.transpose_multiply(dx).to_numpy())
    assert np.allclose(pc_gram, x.T @ x, atol=1e-6 * n)
    mllib_time, _g = timed(matrix.gramian)
    sysml_time, mode = _systemml_style(
        x, lambda: x.T @ x, matrix.gramian
    )
    row["gram"] = (pc_time, mllib_time, sysml_time, mode)

    # -- Linear regression ------------------------------------------------------
    def pc_regression():
        gram = dx.transpose_multiply(dx)
        xty = dx.transpose_multiply(dy)
        return gram.inverse().multiply(xty).to_numpy().ravel()

    pc_time, pc_beta = timed(pc_regression)
    expected = np.linalg.solve(x.T @ x, x.T @ y)
    assert np.allclose(pc_beta, expected, atol=1e-6)
    mllib_time, _b = timed(lambda: linear_regression(matrix, y_rdd))
    sysml_time, _mode = _systemml_style(
        x, lambda: np.linalg.solve(x.T @ x, x.T @ y),
        lambda: linear_regression(matrix, y_rdd),
    )
    row["regression"] = (pc_time, mllib_time, sysml_time, mode)

    # -- Nearest neighbor ----------------------------------------------------------
    rng = np.random.default_rng(1 + dim)
    query = rng.normal(size=dim)
    metric = np.eye(dim)

    def pc_nearest():
        delta = dx.subtract_row_vector(query)
        weighted = delta.multiply(
            DistributedMatrix.from_numpy(cluster, "lla", metric,
                                         dx.block_cols, dx.block_cols)
        )
        distances = weighted.elementwise_multiply(delta).row_sum()
        return int(np.argmin(distances.to_numpy().ravel()))

    pc_time, pc_index = timed(pc_nearest)
    expected_index = int(np.argmin(
        np.einsum("ij,jk,ik->i", x - query, metric, x - query)
    ))
    assert pc_index == expected_index
    mllib_time, _nn = timed(
        lambda: matrix.nearest_neighbor(query, metric)
    )
    sysml_time, _mode = _systemml_style(
        x,
        lambda: np.argmin(np.einsum(
            "ij,jk,ik->i", x - query, metric, x - query
        )),
        lambda: matrix.nearest_neighbor(query, metric),
    )
    row["nearest"] = (pc_time, mllib_time, sysml_time, mode)
    return row


@pytest.mark.benchmark(group="table2")
def test_table2_linear_algebra(benchmark):
    rows = [_run_case(dim, n) for dim, n in CASES]

    table_rows = []
    for computation in ("gram", "regression", "nearest"):
        for row in rows:
            pc, mllib, sysml, mode = row[computation]
            star = "*" if mode == "local" else ""
            table_rows.append((
                computation, row["dim"],
                fmt_seconds(pc), fmt_seconds(sysml) + star,
                fmt_seconds(mllib),
            ))
    report("table2_linear_algebra", render_table(
        "Table 2 — linear algebra (times MM:SS.mmm; * = local mode)",
        ("computation", "dim", "PC(lilLinAlg)", "SystemML-style",
         "baseline mllib"),
        table_rows,
    ))

    # Paper shape: at the highest dimensionality PC beats the mllib
    # comparator on every computation.
    for computation in ("gram", "regression", "nearest"):
        pc, mllib, _s, _m = rows[-1][computation]
        assert pc < mllib, (
            "%s at dim %d: PC %.3fs vs mllib %.3fs"
            % (computation, rows[-1]["dim"], pc, mllib)
        )

    # Representative op for --benchmark-only stats: the dim-100 Gram.
    x, y = _data(100, 1000)
    cluster, dx, _dy = _pc_matrices(x, y)
    benchmark(lambda: dx.transpose_multiply(dx).to_numpy())
