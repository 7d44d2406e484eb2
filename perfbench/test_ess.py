"""The benchmark's ESS estimator against AR(1) chains with known ESS.

For x_t = rho x_{t-1} + e_t the integrated autocorrelation time is
(1 + rho) / (1 - rho), so N draws carry N (1 - rho) / (1 + rho) effective
samples.  Run with `python3 -m pytest perfbench` from the repository root.
"""

import numpy as np
import pytest

from perfbench.ess import effective_sample_size


def ar1(rho, n, chains, seed):
    rng = np.random.default_rng(seed)
    noise = rng.standard_normal((chains, n))
    x = np.empty_like(noise)
    x[:, 0] = noise[:, 0] / np.sqrt(1.0 - rho * rho)
    for t in range(1, n):
        x[:, t] = rho * x[:, t - 1] + noise[:, t]
    return x


@pytest.mark.parametrize("rho", [0.0, 0.5, 0.9])
@pytest.mark.parametrize("chains", [1, 4])
def test_ar1_ess_within_tolerance(rho, chains):
    n = 20_000
    expected = chains * n * (1.0 - rho) / (1.0 + rho)
    estimates = [effective_sample_size(ar1(rho, n, chains, seed)) for seed in range(5)]
    # Relative sd of the estimate is about 2-4% at these sizes; 10% leaves margin.
    assert abs(np.median(estimates) / expected - 1.0) < 0.10, (estimates, expected)


def test_chains_with_different_means_lose_effective_samples():
    x = ar1(0.5, 5_000, 2, seed=1)
    shifted = x + np.array([[0.0], [3.0]])
    assert effective_sample_size(shifted) < 0.2 * effective_sample_size(x)


def test_constant_and_tiny_chains():
    assert effective_sample_size(np.ones(100)) == 100.0
    assert effective_sample_size([1.0, 2.0, 3.0]) == 3.0
