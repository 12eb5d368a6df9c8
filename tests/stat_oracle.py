"""A z-test of the Born estimator's seeded mean against the dense Born probability.

``born_z_score`` runs an estimator once per seed and returns

    z = (mean - p) / (s / sqrt(R))

over the R estimates, with s their sample standard deviation and p the
Born probability from dense matrices (``dense_reference.dense_born_probability``),
never from frame code. The estimator is unbiased, so z is near Student's t
with R - 1 degrees of freedom; at R = 30, |z| > 4 has probability below
5e-4.

``born_miss_bound`` counts the misses |estimate - p| > epsilon over the
seeds and returns the one-sided exact (Clopper-Pearson) lower confidence
bound on the miss rate. Hoeffding's bound holds the rate to p_fail, so a
lower bound above p_fail is evidence, at the given confidence, that the
estimator draws too few samples or is biased.
"""

import math

import numpy as np
from scipy import stats

from dense_reference import dense_born_probability


def born_z_score(estimator, circuit, epsilon: float, seeds, p_fail: float = 0.05) -> float:
    """z of the mean of ``estimator(circuit, epsilon, p_fail, seed)`` over ``seeds`` against the dense p."""
    estimates = np.array([estimator(circuit, epsilon, p_fail, seed=seed).estimate for seed in seeds])
    spread = float(np.std(estimates, ddof=1)) / math.sqrt(len(estimates))
    return (float(np.mean(estimates)) - dense_born_probability(circuit)) / spread


def born_miss_bound(estimator, circuit, epsilon: float, seeds, p_fail: float, confidence: float = 0.999) -> float:
    """Lower confidence bound, at ``confidence``, on P(|estimate - p| > epsilon) over ``seeds``, p the dense one."""
    p = dense_born_probability(circuit)
    misses = sum(abs(estimator(circuit, epsilon, p_fail, seed=seed).estimate - p) > epsilon for seed in seeds)
    test = stats.binomtest(misses, len(seeds), alternative="greater")
    return float(test.proportion_ci(confidence_level=confidence, method="exact").low)
