import numpy as np
import pytest

from compseg import _kernels

# log(0.7*exp(-1) + 0.3*exp(-3)), frozen from scalar math.fsum arithmetic
MIX_07_03 = -1.300293820642035


def test_mixture_loglik_frozen_value():
    # arrange sigma*cos - log_z = (-1, -3) with weights (0.7, 0.3)
    cos = np.array([[-1.0, -1.0]])
    sigma = np.array([1.0, 3.0])
    log_z = np.array([0.0, 0.0])
    log_coeffs = np.log(np.array([[0.7, 0.3]]))
    got = _kernels.mixture_loglik(cos, sigma, log_z, log_coeffs)
    assert got[0] == pytest.approx(MIX_07_03, abs=1e-12)
    shared = _kernels.shared_mixture_loglik(cos, sigma, log_z, log_coeffs[0])
    assert shared[0] == pytest.approx(MIX_07_03, abs=1e-12)


def test_extreme_magnitudes_stay_finite():
    cos = np.array([[1.0, -1.0], [0.0, 0.5]])
    sigma = np.array([700.0, 700.0])
    log_z = np.array([1.0, 1.0])
    log_coeffs = np.log(np.full((2, 2), 0.5))
    out = _kernels.mixture_loglik(cos, sigma, log_z, log_coeffs)
    assert np.all(np.isfinite(out))
    assert out[0] == pytest.approx(700.0 - 1.0 + np.log(0.5), abs=1e-9)
