"""Effective sample size of one or more equal-length chains.

Geyer's initial monotone sequence estimator in the multi-chain form of
Vehtari, Gelman, Simpson, Carpenter and Burkner (2021), without rank
normalisation or chain splitting: autocorrelations are pooled across chains
through the within/between variance mix, paired sums are truncated at the
first negative pair and forced to be non-increasing.
"""

from __future__ import annotations

import numpy as np


def effective_sample_size(chains) -> float:
    """ESS of the draws in ``chains``, a 1-d chain or a (chains, draws) array."""
    x = np.atleast_2d(np.asarray(chains, dtype=np.float64))
    m, n = x.shape
    if n < 4:
        return float(m * n)
    centred = x - x.mean(axis=1, keepdims=True)
    size = 1 << (2 * n - 1).bit_length()
    spectrum = np.fft.rfft(centred, size, axis=1)
    acov = np.fft.irfft(spectrum * np.conjugate(spectrum), size, axis=1)[:, :n] / n
    within = acov[:, 0].mean() * n / (n - 1)
    var_plus = within * (n - 1) / n
    if m > 1:
        var_plus += x.mean(axis=1).var(ddof=1)
    if var_plus <= 0.0:
        # A constant chain carries no information about its own mixing.
        return float(m * n)
    rho = 1.0 - (within - acov.mean(axis=0)) / var_plus
    rho[0] = 1.0
    half = (n - 1) // 2
    pairs = rho[0 : 2 * half : 2] + rho[1 : 2 * half : 2]
    negative = np.flatnonzero(pairs < 0.0)
    if negative.size:
        pairs = pairs[: negative[0]]
    pairs = np.minimum.accumulate(pairs)
    # Antithetic chains can push tau below 1; cap ESS at N log10(N) as Stan does.
    tau = max(-1.0 + 2.0 * float(pairs.sum()), 1.0 / np.log10(m * n))
    return m * n / tau
