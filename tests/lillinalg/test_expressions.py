"""A lilLinAlg expression is one job.

Operators compose lazily into one graph of host rows ``(block_row,
block_col, ndarray)``; only ``to_numpy``, ``inverse``, the scalar
reductions and ``materialize`` (the DSL's ``save``) run it.  These tests
pin how many jobs the Table 2 computations take, that evaluating an
expression — an inverse and the DSL regression too — leaves no set
behind, that a captured constant is the one the expression was built
with, and that the simulator and the process transport give the same
bytes.
"""

import numpy as np
import pytest

from repro.cluster import FaultInjector, PCCluster, RetryPolicy
from repro.cluster.transport import remote_available
from repro.errors import ExecutionError
from repro.lillinalg import DistributedMatrix, LilLinAlg, MatrixBlock

RNG = np.random.default_rng(11)


@pytest.fixture(scope="module")
def cluster():
    with PCCluster(n_workers=3, page_size=1 << 16) as cluster:
        yield cluster


def _mat(cluster, values, block_rows=8, block_cols=3):
    return DistributedMatrix.from_numpy(
        cluster, "lla", values, block_rows, block_cols
    )


def _jobs(cluster, run):
    """``run()``'s result and the number of jobs it ran."""
    before = cluster.metrics().value("pc_sched_jobs_total")
    result = run()
    return result, cluster.metrics().value("pc_sched_jobs_total") - before


def _set_names(cluster):
    return sorted(meta.name for meta in cluster.catalog.list_sets("lla"))


def _nearest(x, query, metric):
    """Table 2's nearest-neighbour distances as one expression."""
    delta = x.subtract_row_vector(query)
    return delta.multiply(metric).elementwise_multiply(delta).row_sum()


def _expected_distances(x, query, metric):
    delta = x - query
    return np.einsum("ij,jk,ik->i", delta, metric, delta)


def test_table2_computations_count_their_jobs(cluster):
    x = RNG.normal(size=(40, 6))
    y = x @ RNG.normal(size=6)
    query, metric = RNG.normal(size=6), np.diag(RNG.uniform(1, 2, size=6))
    dx, dy = _mat(cluster, x), _mat(cluster, y, block_cols=1)
    dm = _mat(cluster, metric, 3, 3)

    gram, jobs = _jobs(cluster, lambda: dx.transpose_multiply(dx).to_numpy())
    assert jobs == 1
    assert np.allclose(gram, x.T @ x)

    distances, jobs = _jobs(
        cluster, lambda: _nearest(dx, query, dm).to_numpy()
    )
    assert jobs == 1
    assert np.allclose(distances.ravel(), _expected_distances(x, query, metric))

    def regression():
        inverse = dx.transpose_multiply(dx).inverse()
        return inverse.multiply(dx.transpose_multiply(dy)).to_numpy()

    beta, jobs = _jobs(cluster, regression)
    assert jobs <= 2
    assert np.allclose(beta.ravel(), np.linalg.solve(x.T @ x, x.T @ y))


def test_dsl_regression_program_runs_in_two_jobs(cluster):
    x = RNG.normal(size=(32, 3))
    y = x @ np.array([0.5, -1.0, 2.0])
    lla = LilLinAlg(cluster)
    lla.load_numpy("X", x, block_rows=8, block_cols=3)
    lla.load_numpy("y", y.reshape(-1, 1), block_rows=8, block_cols=1)
    beta, jobs = _jobs(cluster, lambda: lla.run("""
        X = load("lla", "X");
        y = load("lla", "y");
        beta = (X '* X)^-1 %*% (X '* y);
        save(beta, "lla", "beta_two_jobs");
    """))
    assert jobs <= 2
    assert np.allclose(beta.to_numpy().ravel(), np.linalg.solve(x.T @ x, x.T @ y))


def test_operators_run_no_job(cluster):
    a, b = RNG.normal(size=(9, 6)), RNG.normal(size=(6, 6))
    da, db = _mat(cluster, a, 3, 3), _mat(cluster, b, 3, 3)
    expression, jobs = _jobs(cluster, lambda: (
        da.multiply(db).add(da).scale_multiply(2.0).transpose().col_sum()
    ))
    assert jobs == 0
    assert expression.set_name is None
    assert np.allclose(expression.to_numpy().ravel(),
                       (2.0 * (a @ b + a)).T.sum(axis=0))


def _leaves_no_set_behind(cluster):
    """Evaluating an expression — an inverse's too — leaves the sets the
    caller made, and a DSL program adds only the set it saves."""
    a, y = RNG.normal(size=(10, 7)), RNG.normal(size=10)
    da, dy = _mat(cluster, a, 4, 3), _mat(cluster, y, 4, 1)
    lla = LilLinAlg(cluster)
    lla.bind("A", da)
    lla.bind("y", dy)
    sets = _set_names(cluster)
    for expression in (da.transpose(), da.add(da).row_sum(),
                       da.transpose_multiply(da)):
        expression.to_numpy()
        assert _set_names(cluster) == sets
    assert da.min_element() == pytest.approx(a.min())
    assert _set_names(cluster) == sets
    inverse = da.transpose_multiply(da).inverse()
    beta = inverse.multiply(da.transpose_multiply(dy)).to_numpy()
    assert np.allclose(beta.ravel(), np.linalg.solve(a.T @ a, a.T @ y))
    assert _set_names(cluster) == sets
    saved = lla.run("""
        A = load("lla", "A");
        y = load("lla", "y");
        beta = (A '* A)^-1 %*% (A '* y);
        save(beta, "lla", "beta_saved");
    """)
    assert _set_names(cluster) == sorted(sets + ["beta_saved"])
    assert np.allclose(saved.to_numpy(), beta)


def test_to_numpy_leaves_no_set_behind(cluster):
    _leaves_no_set_behind(cluster)


class _TaskCrasher(FaultInjector):
    """Every worker's back-end crashes on every task: a reduction's
    producing task, whose groups would go to the caller."""

    def should_crash_backend(self, worker_id, stage_kind):
        self.counts["backend_crashes"] += 1
        return True


def test_a_failed_scalar_reduction_leaves_no_set_behind(tmp_path):
    """A scalar reduction's job returns its pairs and stores nothing, so
    a job that raises leaves the sets as they were."""
    injector = _TaskCrasher()
    with PCCluster(n_workers=2, page_size=1 << 16, spill_root=str(tmp_path),
                   fault_injector=injector,
                   retry_policy=RetryPolicy.disabled()) as cluster:
        da = _mat(cluster, RNG.normal(size=(10, 7)), 4, 3)
        sets = _set_names(cluster)
        with pytest.raises(ExecutionError, match="failed permanently"):
            da.min_element()
        assert injector.counts["backend_crashes"] > 0
        assert _set_names(cluster) == sets


@pytest.mark.skipif(not remote_available(), reason="cloudpickle unavailable")
def test_to_numpy_leaves_no_set_behind_on_process(tmp_path):
    with PCCluster(n_workers=2, page_size=1 << 16, transport="process",
                   spill_root=str(tmp_path)) as cluster:
        _leaves_no_set_behind(cluster)


def test_a_captured_query_vector_is_the_one_built_with(cluster):
    x = RNG.normal(size=(12, 4))
    dx = _mat(cluster, x, 4, 2)
    first, second = RNG.normal(size=4), RNG.normal(size=4)
    query = first.copy()
    shifted_first = dx.subtract_row_vector(query)
    query[:] = second  # the caller reuses its buffer before evaluating
    shifted_second = dx.subtract_row_vector(query)
    assert np.allclose(shifted_second.to_numpy(), x - second)
    assert np.allclose(shifted_first.to_numpy(), x - first)


def test_save_stores_the_named_set(cluster):
    a = RNG.normal(size=(7, 5))
    lla = LilLinAlg(cluster)
    lla.load_numpy("A", a, block_rows=3, block_cols=2)
    saved = lla.run('S = load("lla", "A") * 3; save(S, "lla", "saved");')
    assert saved.set_name == "saved" and saved.comp is None
    assert "saved" in _set_names(cluster)
    blocks = {}
    for handle in cluster.read("lla", "saved"):
        block = handle.deref()
        assert isinstance(block, MatrixBlock)
        blocks[block.key()] = block.get_matrix().copy()
    assert sorted(blocks) == [(r, c) for r in range(3) for c in range(3)]
    assert np.array_equal(blocks[(2, 2)], 3 * a[6:, 4:])
    assert np.allclose(lla.run('T = load("lla", "saved");').to_numpy(), 3 * a)


@pytest.mark.skipif(not remote_available(), reason="cloudpickle unavailable")
def test_nearest_neighbour_bytes_equal_on_sim_and_process(tmp_path):
    x = RNG.normal(size=(60, 10))
    query, metric = RNG.normal(size=10), np.diag(RNG.uniform(1, 2, size=10))
    results = {}
    for kind in ("sim", "process"):
        with PCCluster(n_workers=2, page_size=1 << 16, transport=kind,
                       spill_root=str(tmp_path / kind)) as on:
            dx = _mat(on, x, 16, 5)
            dm = _mat(on, metric, 5, 5)
            results[kind] = _nearest(dx, query, dm).to_numpy()
    assert results["process"].tobytes() == results["sim"].tobytes()
    assert np.allclose(results["sim"].ravel(),
                       _expected_distances(x, query, metric))
