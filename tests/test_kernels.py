import numpy as np
import pytest

from compseg import _kernels

# log(0.7*exp(-1) + 0.3*exp(-3)), frozen from scalar math.fsum arithmetic
MIX_07_03 = -1.300293820642035


def test_mixture_loglik_frozen_value():
    # arrange sigma*cos - log_z = (-1, -3) with weights (0.7, 0.3)
    cos = np.array([[-0.5, -1.5]])
    sigma = np.float64(2.0)
    log_z = np.float64(0.0)
    log_coeffs = np.log(np.array([[0.7, 0.3]]))
    got = _kernels.mixture_loglik(cos, sigma, log_z, log_coeffs)
    assert got[0] == pytest.approx(MIX_07_03, abs=1e-12)
    shared = _kernels.shared_mixture_loglik(cos, sigma, log_z, log_coeffs[0])
    assert shared[0] == pytest.approx(MIX_07_03, abs=1e-12)


def test_extreme_magnitudes_stay_finite():
    cos = np.array([[1.0, -1.0], [0.0, 0.5]])
    sigma = np.float64(700.0)
    log_z = np.float64(1.0)
    log_coeffs = np.log(np.full((2, 2), 0.5))
    out = _kernels.mixture_loglik(cos, sigma, log_z, log_coeffs)
    assert np.all(np.isfinite(out))
    assert out[0] == pytest.approx(700.0 - 1.0 + np.log(0.5), abs=1e-9)


def test_scalar_sigma_matches_per_component_rows():
    """A dictionary's one sigma and log Z, passed as numpy scalars, give the
    bits of the shifted logsumexp over (K,) rows that repeat them."""
    rng = np.random.default_rng(3)
    p, k = 9, 6
    cos = rng.uniform(-1.0, 1.0, size=(p, k))
    log_coeffs = np.log(rng.uniform(0.01, 1.0, size=(p, k)))
    for sigma, log_z in ((0.0, 2.5), (3.7, -1.25), (700.0, 40.0)):
        got = _kernels.mixture_loglik(cos, np.float64(sigma), np.float64(log_z), log_coeffs)
        scores = cos * np.full(k, sigma)[None, :] - np.full(k, log_z)[None, :] + log_coeffs
        peak = np.max(scores, axis=1)
        want = peak + np.log(np.sum(np.exp(scores - peak[:, None]), axis=1))
        assert got.shape == (p,) and got.tobytes() == want.tobytes()
        shared = _kernels.shared_mixture_loglik(
            cos, np.float64(sigma), np.float64(log_z), log_coeffs[0])
        rows = _kernels.mixture_loglik(cos, np.float64(sigma), np.float64(log_z),
                                       np.tile(log_coeffs[0], (p, 1)))
        assert shared.tobytes() == rows.tobytes()
