"""Gaussian mixture EM on PlinyCompute (Section 8.5.1).

One EM iteration is a single ``AggregateComp`` carrying the current
model, just as the paper describes: the aggregation softly assigns each
point to each Gaussian and accumulates per-component sufficient
statistics; the result is sent back to the main program — the job
ends in the aggregation, so ``execute_computations`` returns its merged
pairs and no set is written — the model is updated there, and the next
iteration's AggregateComp carries the new model.

Difference from the baseline (called out in the paper): this
implementation uses the log-space trick to compute soft assignments
without underflow; mllib uses thresholding.
"""

from __future__ import annotations

import numpy as np

from repro.core import (
    AggregateComp,
    MultiSelectionComp,
    ObjectReader,
    lambda_from_native,
)
from repro.memory import Float64, Int64, VectorType
from repro.ml.points import load_points


def precompute_precisions(covariances):
    """Invert each covariance once per EM step (main-program side)."""
    precisions = []
    for cov in covariances:
        d = cov.shape[0]
        cov = cov + 1e-9 * np.eye(d)
        inv = np.linalg.inv(cov)
        _sign, logdet = np.linalg.slogdet(cov)
        precisions.append((inv, logdet))
    return precisions


def _log_gaussians(points, weights, means, precisions):
    """Per-component log densities, kept in log space throughout."""
    k, d = means.shape
    log_p = np.empty((points.shape[0], k))
    for j in range(k):
        inv, logdet = precisions[j]
        delta = points - means[j]
        mahalanobis = np.einsum("ij,jk,ik->i", delta, inv, delta)
        log_p[:, j] = (
            np.log(max(weights[j], 1e-300))
            - 0.5 * (mahalanobis + logdet + d * np.log(2 * np.pi))
        )
    return log_p


def soft_assign_log_space(points, weights, means, covariances,
                          precisions=None):
    """Responsibilities via the log-space trick (subtract the row max)."""
    if precisions is None:
        precisions = precompute_precisions(np.asarray(covariances))
    log_p = _log_gaussians(
        points, np.asarray(weights), np.asarray(means), precisions
    )
    log_p -= log_p.max(axis=1, keepdims=True)
    resp = np.exp(log_p)
    resp /= resp.sum(axis=1, keepdims=True)
    return resp


class PartialStats(MultiSelectionComp):
    """Per-chunk sufficient statistics for each Gaussian."""

    def __init__(self, weights, means, covariances):
        super().__init__()
        self.model = (
            np.asarray(weights), np.asarray(means), np.asarray(covariances)
        )
        self.precisions = precompute_precisions(self.model[2])

    def get_projection(self, arg):
        weights, means, covariances = self.model
        precisions = self.precisions
        k, d = means.shape

        def partials(chunk):
            points = chunk.get_points()
            resp = soft_assign_log_space(
                points, weights, means, covariances, precisions=precisions
            )
            out = []
            for j in range(k):
                r = resp[:, j]
                flat = np.concatenate((
                    [float(r.sum())],
                    r @ points,
                    ((points * r[:, None]).T @ points).reshape(-1),
                ))
                out.append((j, flat))
            return out

        return lambda_from_native([arg], partials)


class AccumulateStats(AggregateComp):
    """Sums (weight, mean, covariance) statistics per component."""

    key_type = Int64
    value_type = VectorType(Float64)

    def get_key_projection(self, arg):
        return lambda_from_native([arg], lambda pair: pair[0])

    def get_value_projection(self, arg):
        return lambda_from_native([arg], lambda pair: pair[1])

    def combine(self, a, b):
        return a + b


class PCGmm:
    """GMM EM driver bound to one cluster and one stored point set."""

    def __init__(self, cluster, database="ml", set_name="gmm_points"):
        self.cluster = cluster
        self.database = database
        self.set_name = set_name
        self.dims = None

    def load(self, points, chunk_size=256):
        _n, self.dims = load_points(
            self.cluster, self.database, self.set_name, points,
            chunk_size=chunk_size,
        )
        return self

    def initialize(self, k, seed=0):
        """Random initialization matching the baseline's algorithm."""
        chunks = self.cluster.read(self.database, self.set_name)
        sample = chunks[0].deref().get_points()
        rng = np.random.default_rng(seed)
        chosen = rng.choice(
            sample.shape[0], size=min(k, sample.shape[0]), replace=False
        )
        means = sample[chosen].copy()
        d = sample.shape[1]
        cov = np.cov(sample.T) + 1e-3 * np.eye(d)
        return (
            np.full(k, 1.0 / k),
            means,
            np.array([cov.copy() for _ in range(k)]),
        )

    def iterate(self, weights, means, covariances):
        """One EM step: one job of a model-carrying AggregateComp, whose
        pairs — the per-component statistics — are its result."""
        k, d = np.asarray(means).shape
        partials = PartialStats(weights, means, covariances).set_input(
            ObjectReader(self.database, self.set_name))
        merged = self.cluster.execute_computations(
            AccumulateStats().set_input(partials))

        total = sum(value[0] for value in merged.values())
        new_weights = np.zeros(k)
        new_means = np.zeros((k, d))
        new_covs = np.zeros((k, d, d))
        for j in range(k):
            flat = merged.get(j)
            if flat is None:
                new_weights[j] = 1e-12
                new_means[j] = means[j]
                new_covs[j] = covariances[j]
                continue
            weight_sum = flat[0]
            mean_sum = flat[1:1 + d]
            cov_sum = flat[1 + d:].reshape(d, d)
            new_weights[j] = weight_sum / total
            new_means[j] = mean_sum / weight_sum
            new_covs[j] = (
                cov_sum / weight_sum
                - np.outer(new_means[j], new_means[j])
                + 1e-6 * np.eye(d)
            )
        return new_weights, new_means, new_covs

    def train(self, k, iterations, seed=0):
        """Full EM run; returns (weights, means, covariances)."""
        weights, means, covariances = self.initialize(k, seed=seed)
        for _iteration in range(iterations):
            weights, means, covariances = self.iterate(
                weights, means, covariances
            )
        return weights, means, covariances
