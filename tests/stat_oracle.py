"""A z-test of the Born estimator's seeded mean against the dense Born probability.

``born_z_score`` runs an estimator once per seed and returns

    z = (mean - p) / (s / sqrt(R))

over the R estimates, with s their sample standard deviation and p the
Born probability from dense matrices (``dense_reference.dense_born_probability``),
never from frame code. The estimator is unbiased, so z is near Student's t
with R - 1 degrees of freedom; at R = 30, |z| > 4 has probability below
5e-4.
"""

import math

import numpy as np

from dense_reference import dense_born_probability


def born_z_score(estimator, circuit, epsilon: float, seeds, p_fail: float = 0.05) -> float:
    """z of the mean of ``estimator(circuit, epsilon, p_fail, seed)`` over ``seeds`` against the dense p."""
    estimates = np.array([estimator(circuit, epsilon, p_fail, seed=seed).estimate for seed in seeds])
    spread = float(np.std(estimates, ddof=1)) / math.sqrt(len(estimates))
    return (float(np.mean(estimates)) - dense_born_probability(circuit)) / spread
