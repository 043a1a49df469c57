"""Tests for the PC ML implementations (k-means, GMM, LDA)."""

import numpy as np
import pytest

from repro.cluster import PCCluster
from repro.ml import PCGmm, PCKMeans, PCLda
from repro.ml.kmeans import assign_chunk
from repro.ml.sampling import multinomial_fast, multinomial_slow


@pytest.fixture
def cluster():
    # Closed, not left to the collector: a pool's segments finalised in
    # arbitrary order raise from ``SharedMemory.__del__`` whenever the
    # collector next runs (some unrelated later test).
    with PCCluster(n_workers=2, page_size=1 << 16) as cluster:
        yield cluster


def _blobs(rng, centers, per=40, scale=0.05):
    return np.vstack([
        rng.normal(loc=c, scale=scale, size=(per, len(c))) for c in centers
    ])


def test_assign_chunk_matches_bruteforce():
    rng = np.random.default_rng(0)
    points = rng.normal(size=(100, 4))
    centers = rng.normal(size=(5, 4))
    fast = assign_chunk(points, centers)
    brute = np.argmin(
        ((points[:, None, :] - centers[None]) ** 2).sum(axis=2), axis=1
    )
    assert np.array_equal(fast, brute)


def test_pc_kmeans_recovers_clusters(cluster):
    rng = np.random.default_rng(1)
    points = _blobs(rng, [(0, 0), (6, 6), (0, 6)])
    km = PCKMeans(cluster).load(points, chunk_size=30)
    centers, history = km.train(k=3, iterations=6, seed=3)
    recovered = sorted(tuple(np.round(c).astype(int)) for c in centers)
    assert recovered == [(0, 0), (0, 6), (6, 6)]
    assert len(history) == 6


def test_pc_gmm_recovers_means(cluster):
    rng = np.random.default_rng(2)
    points = _blobs(rng, [(0.0, 0.0), (5.0, 5.0)], per=60, scale=0.2)
    gmm = PCGmm(cluster).load(points, chunk_size=40)
    weights, means, covariances = gmm.train(k=2, iterations=8, seed=5)
    recovered = sorted(tuple(np.round(m).astype(int)) for m in means)
    assert recovered == [(0, 0), (5, 5)]
    assert weights.sum() == pytest.approx(1.0)


def _toy_corpus(rng, n_docs=12, dictionary=20, topics=2):
    """Two planted topics over disjoint word halves."""
    half = dictionary // 2
    triples = []
    for doc in range(n_docs):
        topic_words = range(half) if doc % 2 == 0 else range(half, dictionary)
        for _ in range(6):
            word = int(rng.choice(list(topic_words)))
            triples.append((doc, word, int(rng.integers(1, 4))))
    return triples


def test_pc_lda_runs_and_improves_separation(cluster):
    rng = np.random.default_rng(3)
    triples = _toy_corpus(rng)
    lda = PCLda(cluster, n_topics=2, seed=11)
    lda.load(triples, n_docs=12, dictionary_size=20)
    theta, phi = lda.run(iterations=3)
    assert len(theta) == 12
    assert len(phi) == 20
    for probs in theta.values():
        assert probs.sum() == pytest.approx(1.0)
    # The per-iteration graph has the Figure 2 shape: a 3-way join, two
    # multi-selections, two aggregations, readers and writers.
    assert lda.computation_count() >= 10


def test_multinomial_samplers_agree_in_distribution():
    rng_a = np.random.default_rng(0)
    rng_b = np.random.default_rng(0)
    probabilities = np.array([0.5, 0.3, 0.2])
    slow = sum(
        multinomial_slow(rng_a, 30, probabilities) for _ in range(200)
    )
    fast = sum(
        multinomial_fast(rng_b, 30, probabilities) for _ in range(200)
    )
    total = 30 * 200
    assert np.allclose(slow / total, probabilities, atol=0.02)
    assert np.allclose(fast / total, probabilities, atol=0.02)
