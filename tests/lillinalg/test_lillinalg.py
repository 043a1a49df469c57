"""lilLinAlg correctness tests: every distributed op vs numpy."""

import numpy as np
import pytest

from repro.cluster import PCCluster
from repro.lillinalg import DistributedMatrix, LilLinAlg


@pytest.fixture(scope="module")
def cluster():
    # closed, not left to the collector (see tests/ml/test_pc_ml.py)
    with PCCluster(n_workers=2, page_size=1 << 16) as cluster:
        yield cluster


RNG = np.random.default_rng(7)


def _mat(cluster, values, block=3):
    return DistributedMatrix.from_numpy(
        cluster, "lla", values, block, block
    )


def test_roundtrip(cluster):
    a = RNG.normal(size=(7, 5))
    assert np.allclose(_mat(cluster, a).to_numpy(), a)


def test_multiply(cluster):
    a = RNG.normal(size=(7, 6))
    b = RNG.normal(size=(6, 4))
    result = _mat(cluster, a).multiply(_mat(cluster, b)).to_numpy()
    assert np.allclose(result, a @ b)


def test_transpose_and_transpose_multiply(cluster):
    a = RNG.normal(size=(8, 5))
    b = RNG.normal(size=(8, 3))
    da, db = _mat(cluster, a), _mat(cluster, b)
    assert np.allclose(da.transpose().to_numpy(), a.T)
    assert np.allclose(da.transpose_multiply(db).to_numpy(), a.T @ b)


def test_add_subtract_elementwise(cluster):
    a = RNG.normal(size=(5, 5))
    b = RNG.normal(size=(5, 5))
    da, db = _mat(cluster, a), _mat(cluster, b)
    assert np.allclose(da.add(db).to_numpy(), a + b)
    assert np.allclose(da.subtract(db).to_numpy(), a - b)
    assert np.allclose(da.elementwise_multiply(db).to_numpy(), a * b)


def test_scale_and_reductions(cluster):
    a = RNG.normal(size=(6, 4))
    da = _mat(cluster, a)
    assert np.allclose(da.scale_multiply(2.5).to_numpy(), 2.5 * a)
    assert np.allclose(da.row_sum().to_numpy().ravel(), a.sum(axis=1))
    assert np.allclose(da.col_sum().to_numpy().ravel(), a.sum(axis=0))
    assert da.min_element() == pytest.approx(a.min())
    assert da.max_element() == pytest.approx(a.max())


def test_inverse(cluster):
    a = RNG.normal(size=(4, 4)) + 4 * np.eye(4)
    result = _mat(cluster, a).inverse().to_numpy()
    assert np.allclose(result, np.linalg.inv(a))


def test_subtract_row_vector(cluster):
    a = RNG.normal(size=(6, 4))
    v = RNG.normal(size=4)
    result = _mat(cluster, a).subtract_row_vector(v).to_numpy()
    assert np.allclose(result, a - v)


def test_dimension_mismatch_raises(cluster):
    from repro.errors import LinAlgError

    a = _mat(cluster, RNG.normal(size=(4, 4)))
    b = _mat(cluster, RNG.normal(size=(5, 4)))
    with pytest.raises(LinAlgError):
        a.multiply(b)
    with pytest.raises(LinAlgError):
        a.add(b)


def test_dsl_linear_regression(cluster):
    """The paper's headline DSL program computes OLS correctly."""
    n, d = 40, 3
    x = RNG.normal(size=(n, d))
    beta_true = np.array([1.5, -2.0, 0.5])
    y = x @ beta_true + 0.01 * RNG.normal(size=n)

    lla = LilLinAlg(cluster)
    lla.load_numpy("X", x, block_rows=8, block_cols=d)
    lla.load_numpy("y", y.reshape(-1, 1), block_rows=8, block_cols=1)
    beta = lla.run("""
        X = load("lla", "X");
        y = load("lla", "y");
        beta = (X '* X)^-1 %*% (X '* y);
        save(beta, "lla", "beta");
    """)
    estimate = beta.to_numpy().ravel()
    expected = np.linalg.solve(x.T @ x, x.T @ y)
    assert np.allclose(estimate, expected, atol=1e-8)


def test_dsl_parse_errors(cluster):
    from repro.errors import DslParseError

    lla = LilLinAlg(cluster)
    with pytest.raises(DslParseError):
        lla.run("X = ;")
    with pytest.raises(DslParseError):
        lla.run("X = load(")
