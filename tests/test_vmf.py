import hashlib
import itertools
import math
import time

import numpy as np
import pytest
from scipy import special
from hypothesis import given, settings
from hypothesis import strategies as st

from compseg import learning, vmf
from compseg.errors import ValidationError
from compseg.oracle import closed_form_log_normalizer_3d
from compseg.vmf import (
    VmfDictionary,
    component_cosines,
    component_logliks,
    fit_dictionary_traced,
    log_normalizer,
    log_sphere_area,
    responsibilities,
    sample_uniform_sphere,
    sample_vmf,
)

# Values frozen from scalar recomputations (mpmath-grade formulas evaluated
# independently of the implementation path).
LOGZ_SIGMA0_D3 = 2.531024246969291        # log surface area of S^2
LOGZ_SIGMA1_D3 = 2.692463608540486
LOGZ_SIGMA2_D3 = 3.126244439023513
LOGPDF_MODE_SIGMA1_D3 = -1.6924636085404865
GAP5_PAIR = (0.9933071490757152, 0.0066928509242848554)


def test_log_normalizer_frozen_values():
    assert log_normalizer(0.0, 3) == pytest.approx(LOGZ_SIGMA0_D3, abs=1e-12)
    assert log_normalizer(1.0, 3) == pytest.approx(LOGZ_SIGMA1_D3, abs=1e-12)
    assert log_normalizer(2.0, 3) == pytest.approx(LOGZ_SIGMA2_D3, abs=1e-12)


def test_log_normalizer_matches_3d_closed_form():
    for sigma in np.logspace(-6, math.log10(50.0), 120):
        got = log_normalizer(float(sigma), 3)
        want = closed_form_log_normalizer_3d(float(sigma))
        assert abs(got - want) <= 1e-9 * max(1.0, abs(want))


def test_log_normalizer_tiny_sigma_is_sphere_area():
    for dim in (3, 8, 16):
        assert log_normalizer(0.0, dim) == pytest.approx(log_sphere_area(dim), abs=1e-12)
        assert log_normalizer(1e-12, dim) == pytest.approx(log_sphere_area(dim), abs=1e-12)


# Every model and prediction pin rests on this value: `TrainConfig`'s sigma
# is 30 and `synth.DIM` is 16.
LOGZ_SIGMA30_D16_HEX = "0x1.173dc3da4cfe0p+4"


def test_log_normalizer_bits_at_the_training_concentration():
    assert log_normalizer(30.0, 16).hex() == LOGZ_SIGMA30_D16_HEX


def _log_normalizer_scipy(sigma, dim):
    """SciPy's log Z: the Bessel form while `ive` is a normal float, else
    the sphere area times the hypergeometric series 0F1(; dim/2; sigma^2/4)."""
    order = dim / 2.0 - 1.0
    scaled = special.ive(order, sigma)
    if scaled >= np.finfo(np.float64).tiny:
        return (dim / 2.0) * math.log(2.0 * math.pi) + math.log(scaled) + sigma - order * math.log(sigma)
    area = math.log(2.0) + (dim / 2.0) * math.log(math.pi) - special.gammaln(dim / 2.0)
    return area + math.log(special.hyp0f1(dim / 2.0, sigma * sigma / 4.0))


NORMALIZER_DIMS = (2, 3, 4, 5, 8, 15, 16, 17, 32, 64, 128)
# Both ends of the Bessel series' reach: its first term underflows at
# sigma = 5,000 for D = 16 (large sigma) and at sigma = 1e-6 for D = 128
# (small sigma, high order).
NORMALIZER_SIGMAS = sorted({*np.logspace(-7, 4, 12).tolist(), 5_000.0, 1e-6})


@pytest.mark.parametrize("dim", NORMALIZER_DIMS)
def test_log_normalizer_matches_scipy(dim):
    want_area = math.log(2.0) + (dim / 2.0) * math.log(math.pi) - special.gammaln(dim / 2.0)
    assert log_sphere_area(dim) == pytest.approx(want_area, rel=1e-12, abs=0)
    for sigma in NORMALIZER_SIGMAS:
        start = time.perf_counter()
        got = log_normalizer(sigma, dim)
        assert time.perf_counter() - start < 1.0, (sigma, dim)
        want = _log_normalizer_scipy(sigma, dim)
        assert got == pytest.approx(want, rel=1e-12, abs=0), (sigma, dim)


def test_log_normalizer_monotone_in_sigma():
    # Z(sigma) = integral of exp(sigma * cos) grows with sigma
    dims = (3, 8, 16)
    sigmas = np.linspace(0.0, 60.0, 40)
    for dim in dims:
        values = [log_normalizer(float(s), dim) for s in sigmas]
        assert all(b >= a - 1e-12 for a, b in zip(values, values[1:]))


def test_component_logliks_frozen_value_at_mode():
    mean = np.array([[0.0, 0.0, 1.0]])
    dictionary = VmfDictionary(mean, 1.0)
    table = component_logliks(mean, dictionary)
    assert table.shape == (1, 1)
    assert table[0, 0] == pytest.approx(LOGPDF_MODE_SIGMA1_D3, abs=1e-12)


def test_sample_vmf_rejects_nonunit_mean():
    rng = np.random.default_rng(4)
    for mean in (np.array([1.0, 1.0, 0.0]), np.array([[1.0, 0.0, 0.0]])):
        with pytest.raises(ValidationError):
            sample_vmf(rng, mean, 1.0, 3)


# SHA-256 of sample_vmf's draws over the grid below, each case from its own
# stream. The generator's bytes rest on these bits, including the uniform
# fallback below the concentration floor and several rejection rounds.
SAMPLE_VMF_SHA256 = "b0e2cf64e87a6f7bf3771aa41c627db07afef5c77af8e3059e18d8ebc9a46bd1"


def test_sample_vmf_bits_pinned():
    digest = hashlib.sha256()
    cases = itertools.product((0.0, 1e-9, 0.5, 30.0, 300.0), (3, 16), (1, 7, 127))
    for i, (kappa, dim, n) in enumerate(cases):
        mean = np.random.default_rng(dim).standard_normal(dim)
        mean /= np.linalg.norm(mean)
        digest.update(sample_vmf(np.random.default_rng([19, i]), mean, kappa, n).tobytes())
    assert digest.hexdigest() == SAMPLE_VMF_SHA256


def test_responsibilities_gap5_frozen_pair():
    # two components whose log densities at the query differ by exactly 5
    means = np.stack([np.array([1.0, 0.0]), np.array([-1.0, 0.0])])
    dictionary = VmfDictionary(means, 2.5)
    got = responsibilities(np.array([[1.0, 0.0]]), dictionary)
    assert got.shape == (1, 2)
    assert got[0] == pytest.approx(GAP5_PAIR, abs=1e-12)
    assert got.sum() == pytest.approx(1.0, abs=1e-12)


@given(st.integers(0, 10_000))
@settings(max_examples=40, deadline=None)
def test_responsibilities_rows_are_simplex(seed):
    rng = np.random.default_rng(seed)
    k, d, p = 5, 4, 7
    dictionary = VmfDictionary(sample_uniform_sphere(rng, k, d), rng.uniform(0.0, 25.0))
    rows = responsibilities(sample_uniform_sphere(rng, p, d), dictionary)
    assert rows.shape == (p, k)
    assert np.all(rows >= 0)
    assert np.allclose(rows.sum(axis=1), 1.0, atol=1e-12)


def test_component_logliks_match_the_scalar_density():
    rng = np.random.default_rng(5)
    means = sample_uniform_sphere(rng, 3, 6)
    feats = sample_uniform_sphere(rng, 4, 6)
    for sigma in (0.5, 4.0, 11.0):
        dictionary = VmfDictionary(means, sigma)
        table = component_logliks(feats, dictionary)
        assert table.shape == (4, 3)
        for i in range(4):
            for j in range(3):
                want = sigma * float(feats[i] @ means[j]) - log_normalizer(sigma, 6)
                assert table[i, j] == pytest.approx(want, abs=1e-12)
    with pytest.raises(ValidationError):
        component_logliks(feats[0], dictionary)  # one vector is not a (P, D) batch


def test_sample_vmf_concentrates_near_mean():
    rng = np.random.default_rng(7)
    mean = np.zeros(16)
    mean[-1] = 1.0
    draws = sample_vmf(rng, mean, 30.0, 5000)
    assert np.allclose(np.linalg.norm(draws, axis=1), 1.0, atol=1e-9)
    cosines = draws @ mean
    # exact E[cos] is the Bessel ratio I_{D/2}(s)/I_{D/2-1}(s)
    exact = special.ive(8, 30.0) / special.ive(7, 30.0)
    assert cosines.mean() == pytest.approx(exact, abs=0.01)
    # tiny concentration falls back to the uniform sampler
    flat = sample_vmf(rng, mean, 0.0, 4000)
    assert abs(float((flat @ mean).mean())) < 0.05


def test_sample_uniform_sphere_is_isotropic():
    rng = np.random.default_rng(8)
    pts = sample_uniform_sphere(rng, 8000, 3)
    assert np.allclose(np.linalg.norm(pts, axis=1), 1.0, atol=1e-12)
    assert np.abs(pts.mean(axis=0)).max() < 0.03


# ---------------------------------------------------------------------------
# dictionary fitting


def planted_features(rng, k, d, per):
    means = sample_uniform_sphere(rng, k, d)
    # reject nearly-parallel means so the planted components are separable
    while np.max(means @ means.T - np.eye(k) * 2.0) > 0.6:
        means = sample_uniform_sphere(rng, k, d)
    draws = [sample_vmf(rng, means[j], 60.0, per) for j in range(k)]
    return means, np.concatenate(draws)


def test_fit_dictionary_recovers_planted_components():
    rng = np.random.default_rng(9)
    means, feats = planted_features(rng, 4, 8, 400)
    dictionary, _ = fit_dictionary_traced(feats, 4, seed=3, shared_concentration=30.0, max_iter=100)
    assert type(dictionary.concentration) is np.float64 and dictionary.concentration == 30.0
    # best-match cosine per planted mean, greedy over fitted components
    sims = dictionary.means @ means.T
    assert sims.max(axis=0).min() > 0.98


def test_fit_dictionary_objective_monotone_and_deterministic():
    rng = np.random.default_rng(10)
    _, feats = planted_features(rng, 3, 6, 300)
    d1, trace1 = fit_dictionary_traced(feats, 3, seed=5, shared_concentration=30.0, max_iter=100)
    d2, trace2 = fit_dictionary_traced(feats, 3, seed=5, shared_concentration=30.0, max_iter=100)
    assert np.array_equal(d1.means, d2.means)
    assert d1.concentration == d2.concentration
    assert trace1["objective"] == trace2["objective"]
    obj = trace1["objective"]
    assert all(b >= a - 1e-9 for a, b in zip(obj, obj[1:]))


def test_fit_dictionary_rejects_bad_k():
    rng = np.random.default_rng(11)
    feats = sample_uniform_sphere(rng, 10, 4)
    for k in (0, 11):
        with pytest.raises(ValidationError):
            fit_dictionary_traced(feats, k, seed=0, shared_concentration=30.0, max_iter=100)


def test_fit_dictionary_rejects_bad_shared_concentration_before_fitting(monkeypatch):
    def seeding_must_not_run(*args):
        raise AssertionError("the fit started before the concentration was checked")

    monkeypatch.setattr(vmf, "kmeanspp_centers", seeding_must_not_run)
    feats = sample_uniform_sphere(np.random.default_rng(12), 10, 4)
    for sigma in (-1.0, float("nan"), float("inf")):
        with pytest.raises(ValidationError, match="concentrations must be finite and >= 0"):
            fit_dictionary_traced(feats, 3, seed=0, shared_concentration=sigma, max_iter=100)
    with pytest.raises(ValidationError, match="one number"):
        fit_dictionary_traced(feats, 3, seed=0, shared_concentration=np.full(3, 30.0),
                              max_iter=100)


def test_dictionary_refuses_a_bad_concentration():
    means = sample_uniform_sphere(np.random.default_rng(13), 3, 4)
    for sigma in (-1.0, float("nan"), float("inf"), -np.inf):
        with pytest.raises(ValidationError, match="^concentrations must be finite and >= 0$"):
            VmfDictionary(means, sigma)
    for sigma in (np.full(3, 2.0), [2.0], np.zeros((0,))):
        with pytest.raises(ValidationError, match="concentration must be one number"):
            VmfDictionary(means, sigma)
    rng = np.random.default_rng(14)
    for sigma in (-1.0, float("nan"), np.ones(2)):
        with pytest.raises(ValidationError, match="^concentration"):
            log_normalizer(sigma, 4)
        with pytest.raises(ValidationError, match="^concentration"):
            sample_vmf(rng, means[0], sigma, 2)
    one = VmfDictionary(means, np.array(2.0))
    assert type(one.concentration) is type(one.log_z) is np.float64
    assert one.log_z == log_normalizer(2.0, 4)


@given(st.integers(0, 10_000))
@settings(max_examples=40, deadline=None)
def test_scalar_component_logliks_match_the_broadcast_rows(seed):
    """One shared sigma and log Z give the bits of the per-component rows
    that every component of a dictionary once carried."""
    rng = np.random.default_rng(seed)
    k, d = int(rng.integers(1, 40)), int(rng.integers(2, 64))
    sigma = float(rng.choice([0.0, rng.uniform(0.0, 1e-6), rng.uniform(0.0, 100.0),
                              rng.uniform(100.0, 1e4)]))
    dictionary = VmfDictionary(sample_uniform_sphere(rng, k, d), sigma)
    feats = sample_uniform_sphere(rng, int(rng.integers(1, 50)), d)
    cos = component_cosines(feats, dictionary)
    want = cos * np.full(k, sigma) - np.full(k, log_normalizer(sigma, d))
    assert component_logliks(feats, dictionary).tobytes() == want.tobytes()


def cosine_sq_dist(feats, center):
    """The dictionary fit's distance: one matrix-vector product over the whole array."""
    return (1.0 - feats @ center) ** 2


def euclidean_sq_dist(points, center):
    """The mixture assignment's distance."""
    return np.sum((points - center) ** 2, axis=1)


def straightforward_kmeanspp(feats, k, rng, sq_dist=cosine_sq_dist):
    """k-means++ over the whole array: each center drawn by `Generator.choice`
    with p = dist / dist.sum(), dist the squared distance to the nearest center."""
    n = feats.shape[0]
    centers = np.empty((k, feats.shape[1]))
    centers[0] = feats[int(rng.integers(n))]
    dist = sq_dist(feats, centers[0])
    for j in range(1, k):
        total = float(dist.sum())
        if total <= 0:
            idx = int(rng.integers(n))
        else:
            idx = int(rng.choice(n, p=dist / total))
        centers[j] = feats[idx]
        np.minimum(dist, sq_dist(feats, centers[j]), out=dist)
    return centers


@pytest.mark.parametrize("m", [1, 2, 3, 4])
def test_kmeanspp_centers_under_euclidean_distance_is_the_straightforward_seeding(m):
    """The seeding `assign_mixtures` takes: squared Euclidean distance over
    non-unit rows, duplicates and all-equal rows included, bit for bit, with
    the generator left where the straightforward seeding leaves it."""
    rng = np.random.default_rng(17)
    for case in range(60):
        n = int(rng.integers(m, 40))
        points = rng.random((n, int(rng.integers(1, 6)))) * 10.0 ** rng.integers(-3, 3)
        if case % 5 == 1:
            points[rng.integers(n, size=n // 2)] = points[0]
        elif case % 5 == 2:
            points[:] = points[0]
        seed = int(rng.integers(2**32))
        want_rng, got_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        want = straightforward_kmeanspp(points, m, want_rng, euclidean_sq_dist)
        got = vmf.kmeanspp_centers(points, m, got_rng, learning._sq_euclidean)
        assert got.tobytes() == want.tobytes()
        assert got_rng.random() == want_rng.random()


def straightforward_fit(feats, k, seed, shared_concentration, max_iter):
    """The plain loop: full cosine table, boolean-mask sums, einsum objective.

    It stops when assignments are unchanged, when an iteration's objective
    gain is below np.std of its full-table assignment cosines over sqrt(n),
    or after max_iter iterations. Also counts how often the empty-cluster
    reseed and the zero-resultant repair ran, so a test can show its input
    reaches both.
    """
    n = feats.shape[0]
    centers = straightforward_kmeanspp(feats, k, np.random.default_rng(seed))
    assign = np.full(n, -1, dtype=np.int64)
    objective, hits, stop = [], {"reseed": 0, "zero": 0}, "max_iter reached"
    for n_iter in range(1, max_iter + 1):
        cosines = feats @ centers.T
        new_assign = np.argmax(cosines, axis=1)
        own = cosines[np.arange(n), new_assign]
        for empty in np.flatnonzero(np.bincount(new_assign, minlength=k) == 0):
            hits["reseed"] += 1
            far = int(np.argmin(own))
            new_assign[far] = empty
            centers[empty] = feats[far]
            own[far] = 1.0
        converged = bool(np.array_equal(new_assign, assign))
        assign = new_assign
        for j in range(k):
            resultant = feats[assign == j].sum(axis=0)
            length = float(np.linalg.norm(resultant))
            if length < 1e-12:
                hits["zero"] += 1
                centers[j] = feats[int(np.argmin(feats @ centers[j]))]
            else:
                centers[j] = resultant / length
        objective.append(float(np.mean(np.einsum("nd,nd->n", feats, centers[assign]))))
        if converged:
            stop = "assignments unchanged"
            break
        if n_iter > 1 and objective[-1] - objective[-2] < np.std(own) / math.sqrt(n):
            stop = "gain below standard error"
            break
    objective.append(float(np.mean(np.max(feats @ centers.T, axis=1))))
    trace = {"objective": objective, "iterations": n_iter, "stop": stop}
    return VmfDictionary(centers, shared_concentration), trace, hits


def _circle(angles):
    return np.stack([np.cos(angles), np.sin(angles)], axis=1)


def _first_gain_below_standard_error(trace):
    """1-based iteration whose objective gain first falls below its standard error."""
    obj, se = trace["objective"][:-1], trace["standard_error"]
    return next((i + 1 for i in range(1, len(obj)) if obj[i] - obj[i - 1] < se[i]), None)


def _fit_matches_reference(feats, k, seed, sigma, max_iter=100):
    """Fit both ways, check they agree bit for bit; return (trace, reference hits)."""
    want_dict, want, hits = straightforward_fit(feats, k, seed, sigma, max_iter)
    got_dict, got = fit_dictionary_traced(
        feats, k, seed, shared_concentration=sigma, max_iter=max_iter
    )
    assert got_dict.means.tobytes() == want_dict.means.tobytes()
    assert got_dict.concentration.tobytes() == want_dict.concentration.tobytes()
    assert (got["stop"], got["iterations"]) == (want["stop"], want["iterations"])
    assert got["objective"][-1] == want["objective"][-1]
    assert len(got["objective"]) == len(want["objective"])
    assert np.allclose(got["objective"][:-1], want["objective"][:-1], rtol=0, atol=1e-12)

    # The trace alone shows why the loop ended where it did.
    assert len(got["standard_error"]) == got["iterations"]
    first = _first_gain_below_standard_error(got)
    if got["stop"] == vmf.STOP_GAIN:
        assert first == got["iterations"]
    else:
        assert first is None or (got["stop"] == vmf.STOP_UNCHANGED and first == got["iterations"])
    return got, hits


@pytest.mark.parametrize(
    "feats, k, seed, sigma, branches",
    [
        # more rows than two assignment blocks, and not a multiple of one
        (planted_features(np.random.default_rng(13), 5, 6, 827)[1], 5, 2, 30.0, ()),
        (sample_uniform_sphere(np.random.default_rng(14), 2 * 2048 + 37, 5), 7, 4, 12.5, ()),
        # three points repeated: k-means++ runs out of distinct points and
        # picks at random, and the duplicate centers leave clusters empty,
        # two at a time, each reseeded from its own point
        (np.repeat(_circle([0.3, 2.0, 4.1]), [3, 2, 3], axis=0), 5, 0, 0.0, ("reseed",)),
        # u and -u in one cluster: a zero resultant
        (np.tile([0.6, 0.8, -0.6, -0.8], (3, 1)).reshape(6, 2), 4, 89, 30.0, ("reseed", "zero")),
    ],
    # Explicit ids: each case keeps one stable name whatever its parameters.
    ids=["feats0-5-2-30.0-branches0", "feats1-7-4-None-branches1",
         "feats2-5-0-None-branches2", "feats3-4-89-None-branches3"],
)
def test_fit_matches_the_straightforward_loop_bit_for_bit(feats, k, seed, sigma, branches):
    _, hits = _fit_matches_reference(feats, k, seed, sigma)
    assert all(hits[b] > 0 for b in branches), hits


@pytest.mark.parametrize(
    "max_iter, stop, iterations",
    [
        # the gain rule ends the fit well before the cap...
        (100, vmf.STOP_GAIN, 4),
        # ...and the cap comes first when it is lower
        (3, vmf.STOP_MAX_ITER, 3),
    ],
)
def test_fit_stops_at_the_first_rule_that_holds(max_iter, stop, iterations):
    feats = sample_uniform_sphere(np.random.default_rng(14), 2 * 2048 + 37, 5)
    got, _ = _fit_matches_reference(feats, 7, 4, 12.5, max_iter)
    assert (got["stop"], got["iterations"]) == (stop, iterations)
    # the planted components are separated: assignments settle first
    planted = planted_features(np.random.default_rng(13), 5, 6, 827)[1]
    got, _ = _fit_matches_reference(planted, 5, 2, 30.0, max_iter)
    assert (got["stop"], got["iterations"]) == (vmf.STOP_UNCHANGED, 3)


@pytest.mark.parametrize(
    "rows, k, seed, sigma, branches",
    [
        # two blocks and 37 rows: not a multiple of the block size, nor of 8
        (sample_uniform_sphere(np.random.default_rng(15), 2 * 2048 + 37, 5), 7, 4, 12.5, ()),
        # duplicate centers leave clusters empty: the reseed runs
        (np.repeat(_circle([0.3, 2.0, 4.1]), [3, 2, 3], axis=0), 5, 0, 0.0, ("reseed",)),
        # u and -u in one cluster: the zero-resultant repair runs
        (np.tile([0.6, 0.8, -0.6, -0.8], (3, 1)).reshape(6, 2), 4, 89, 30.0, ("zero",)),
    ],
    ids=["blocks-and-tail", "empty-cluster", "zero-resultant"],
)
def test_fit_on_float32_rows_equals_the_fit_on_their_float64_widening(
    rows, k, seed, sigma, branches
):
    narrow = rows.astype(np.float32)
    wide = narrow.astype(np.float64)
    got_dict, got = fit_dictionary_traced(narrow, k, seed, shared_concentration=sigma, max_iter=100)
    want_dict, want = fit_dictionary_traced(wide, k, seed, shared_concentration=sigma, max_iter=100)
    assert got_dict.means.tobytes() == want_dict.means.tobytes()
    for key in ("objective", "standard_error", "iterations", "stop"):
        assert got[key] == want[key], key
    # the float64 fit is the straightforward loop's, so the case reaches its branch
    _, hits = _fit_matches_reference(wide, k, seed, sigma)
    assert all(hits[b] > 0 for b in branches), hits


def test_center_draw_is_generator_choice():
    """`vmf._draw` picks what `Generator.choice(n, p=w / w.sum())` picks and
    leaves the generator where choice leaves it, zero weights included.

    A numpy release that changes how `choice` samples fails here.
    """
    rng = np.random.default_rng(16)
    cases = [np.array([1.0]), np.array([0.0, 0.0, 1.0]), np.array([1.0, 0.0, 0.0, 0.0])]
    for _ in range(300):
        n = int(rng.integers(1, 5000))
        w = rng.random(n) ** int(rng.integers(1, 10))
        w[rng.random(n) < rng.random()] = 0.0
        if not w.any():
            w[rng.integers(n)] = 0.5
        cases.append(w)
    for w in cases:
        seed = int(rng.integers(2**32))
        want_rng, got_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        want = int(want_rng.choice(len(w), p=w / w.sum()))
        before = w.copy()
        assert vmf._draw(got_rng, w, float(w.sum()), np.empty(len(w))) == want
        assert np.array_equal(w, before)
        assert got_rng.random() == want_rng.random()
