"""Exact shifted-logsumexp mixture log-likelihoods.

For every lattice position i these compute

    out[i] = log sum_k exp( sigma[k] * cos[i, k] - log_z[k] + log w[i, k] )

shifted by the row maximum of the summed scores, so they stay finite for any
finite row with at least one nonzero weight. `models.likelihood_maps`
evaluates the same quantity in factored form, from per-crop terms every
mixture shares; it calls these only for the rows where the factored sum is
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
    """Per-row log-likelihood under a position-dependent mixture.

    cos: (P, K) cosines of the feature rows against the component means.
    sigma, log_z: (K,) per-component concentration and log normaliser.
    log_coeffs: (P, K) log mixture coefficients per position.
    Returns (P,) float64.
    """
    cos, sigma, log_z, log_coeffs = _as_f64(cos, sigma, log_z, log_coeffs)
    return _logsumexp_rows(cos * sigma[None, :] - log_z[None, :] + log_coeffs)


def shared_mixture_loglik(cos, sigma, log_z, log_coeffs):
    """Like mixture_loglik but with one (K,) coefficient row for all positions."""
    cos, sigma, log_z, log_coeffs = _as_f64(cos, sigma, log_z, log_coeffs)
    return _logsumexp_rows(cos * sigma[None, :] - log_z[None, :] + log_coeffs[None, :])
