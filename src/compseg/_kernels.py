"""Exact shifted-logsumexp mixture log-likelihood.

For every lattice position i `mixture_loglik` computes

    out[i] = log sum_k exp( sigma * cos[i, k] - log_z + log w[i, k] )

shifted by the row maximum of the summed scores, so it stays finite for any
finite row with at least one nonzero weight. `models.likelihood_maps`
evaluates the same quantity in factored form, from per-crop terms every
mixture shares; it calls this only for the rows where the factored sum is
not a normal float, which is where that form loses precision or reaches
log(0).
"""
from __future__ import annotations

import numpy as np


def _as_f64(*arrays) -> list[np.ndarray]:
    return [np.asarray(a, dtype=np.float64) for a in arrays]


def _logsumexp_rows(scores: np.ndarray) -> np.ndarray:
    peak = np.max(scores, axis=1)
    return peak + np.log(np.sum(np.exp(scores - peak[:, None]), axis=1))


def mixture_loglik(cos, sigma, log_z, log_coeffs):
    """Per-row log-likelihood under a mixture.

    cos: (P, K) cosines of the feature rows against the component means.
    sigma, log_z: the one concentration and log normaliser of all K components.
    log_coeffs: (P, K) log mixture coefficients per position, or one (K,)
    row that every position shares.
    Returns (P,) float64.
    """
    cos, sigma, log_z, log_coeffs = _as_f64(cos, sigma, log_z, log_coeffs)
    return _logsumexp_rows(cos * sigma - log_z + log_coeffs)


# One kernel serves both coefficient shapes. The name stays because
# `perfbench/layers.py` wraps it and `perfbench/test_perfbench.py` deletes it.
shared_mixture_loglik = mixture_loglik
