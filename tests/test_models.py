import numpy as np
import pytest

from compseg import _kernels
from compseg.errors import ValidationError
from compseg.fmap import FeatureMap, resample_nearest
from compseg import models
from compseg.models import (
    LABEL_CTX,
    LABEL_FG,
    LABEL_OCC,
    PRIOR_CLAMP,
    CandidateMaps,
    ClassifyResult,
    ClassModel,
    LikelihoodMaps,
    MixtureModel,
    OccluderModel,
    classify,
    likelihood_maps,
    rescore,
    segment_single,
)
from compseg.oracle import perpixel_maps_reference
from conftest import candidates_of
from compseg.vmf import (
    VmfDictionary,
    component_cosines,
    log_normalizer,
    sample_uniform_sphere,
    shifted_densities,
)


def simplex(rng, shape):
    raw = rng.uniform(0.1, 1.0, size=shape)
    return raw / raw.sum(axis=-1, keepdims=True)


def tiny_setup(seed=0, h=3, w=4, k=4, d=5, crop_shape=None):
    """A dictionary, an (h, w) mixture, an occluder and a crop (of `crop_shape`, else (h, w))."""
    rng = np.random.default_rng(seed)
    dictionary = VmfDictionary(sample_uniform_sphere(rng, k, d), rng.uniform(1.0, 15.0))
    mixture = MixtureModel(
        fg_prior=rng.uniform(0.05, 0.95, size=(h, w)),
        fg_coeffs=simplex(rng, (h, w, k)),
        ctx_coeffs=simplex(rng, (h, w, k)),
    )
    occluder = OccluderModel(simplex(rng, (k,)))
    ch, cw = crop_shape or (h, w)
    fm = FeatureMap(
        sample_uniform_sphere(rng, ch * cw, d).reshape(ch, cw, d).astype(np.float32)
    )
    return rng, dictionary, mixture, occluder, fm


def _maps(fg, ctx, occ):
    """Candidate maps whose amodal mask covers the lattice, for tests that read no mask."""
    fg = np.asarray(fg, dtype=np.float64)
    return LikelihoodMaps(fg, ctx, occ, np.ones(fg.shape, dtype=np.bool_))


def _one(crop, mixture, dictionary, occluder) -> LikelihoodMaps:
    """One mixture's maps: the only candidate of a one-mixture table."""
    return likelihood_maps(crop, [[mixture]], dictionary, occluder)[0]


# ---------------------------------------------------------------------------
# validation


def test_simplex_tolerance_boundary():
    rng = np.random.default_rng(1)
    rows = simplex(rng, (2, 2, 3))
    MixtureModel(np.full((2, 2), 0.5), rows, rows)  # exact rows pass
    drift = rows.copy()
    drift[0, 0, 0] += 5e-7  # inside the 1e-6 budget
    MixtureModel(np.full((2, 2), 0.5), drift, rows)
    broken = rows.copy()
    broken[1, 1, 0] += 5e-6
    with pytest.raises(ValidationError):
        MixtureModel(np.full((2, 2), 0.5), broken, rows)
    negative = rows.copy()
    negative[0, 0, 0] = -1e-9
    negative[0, 0, 1] += 1e-9
    with pytest.raises(ValidationError):
        MixtureModel(np.full((2, 2), 0.5), negative, rows)


def test_mixture_shape_mismatches_reject():
    rng = np.random.default_rng(2)
    prior = np.full((2, 3), 0.5)
    with pytest.raises(ValidationError):
        MixtureModel(prior, simplex(rng, (2, 2, 4)), simplex(rng, (2, 3, 4)))
    with pytest.raises(ValidationError):
        MixtureModel(prior, simplex(rng, (2, 3, 4)), simplex(rng, (2, 3, 5)))
    with pytest.raises(ValidationError):
        MixtureModel(prior * 3.0, simplex(rng, (2, 3, 4)), simplex(rng, (2, 3, 4)))


def test_class_model_rejects_empty_and_mixed_k():
    rng = np.random.default_rng(3)
    m4 = MixtureModel(np.full((2, 2), 0.5), simplex(rng, (2, 2, 4)), simplex(rng, (2, 2, 4)))
    m5 = MixtureModel(np.full((2, 2), 0.5), simplex(rng, (2, 2, 5)), simplex(rng, (2, 2, 5)))
    with pytest.raises(ValidationError):
        ClassModel("thing", ())
    with pytest.raises(ValidationError):
        ClassModel("", (m4,))
    with pytest.raises(ValidationError):
        ClassModel("thing", (m4, m5))


def test_likelihood_maps_shape_checks():
    zeros, mask = np.zeros((2, 2)), np.ones((2, 2), dtype=np.bool_)
    with pytest.raises(ValidationError, match="share one 2-d shape"):
        LikelihoodMaps(zeros, zeros, np.zeros((2, 3)), mask)
    maps = LikelihoodMaps(zeros, np.ones((2, 2)), np.full((2, 2), 2.0), mask)
    assert maps.shape == maps.amodal.shape == (2, 2)
    # the amodal plane is a bool plane on the maps' lattice
    for amodal in (np.ones((2, 3), dtype=np.bool_), np.ones((1, 2, 2), dtype=np.bool_),
                   np.ones((2, 2)), np.ones((2, 2), dtype=np.uint8)):
        with pytest.raises(ValidationError, match="amodal mask must be a bool plane"):
            LikelihoodMaps(zeros, zeros, zeros, amodal)
    # a candidate table is a (C, 3, h, w) stack with a (C, h, w) bool stack,
    # C the sum of `per_class`, and a pick names one of its candidates
    candidates = candidates_of(((maps, maps), (maps,)))
    assert candidates.shape == (2, 2) and len(candidates) == 3
    assert candidates.per_class == (2, 1) and not candidates.table.flags.writeable
    table, stack = candidates.table, candidates.amodal
    for bad in ((table[:, :2], stack, (2, 1)), (table[0], stack, (2, 1)),
                (table, stack[:2], (2, 1)), (table, stack.astype(np.uint8), (2, 1)),
                (table, stack, (2, 2)), (table, stack, (3, 0)), (table[:0], stack[:0], ())):
        with pytest.raises(ValidationError):
            CandidateMaps(*bad)
    for ci, mi in ((0, 2), (1, 1), (2, 0), (-1, 0)):
        with pytest.raises(ValidationError, match="no candidate"):
            ClassifyResult(ci, mi, 0.0, candidates)
    assert ClassifyResult(1, 0, 0.0, candidates).maps.shape == (2, 2)


# ---------------------------------------------------------------------------
# map construction


def test_maps_decompose_into_prior_and_pointwise_logliks():
    _, dictionary, mixture, occluder, fm = tiny_setup()
    maps = _one(fm, mixture, dictionary, occluder)
    h, w = mixture.shape
    for r in range(h):
        for c in range(w):
            f = fm.data[r, c].astype(np.float64)
            sigma = dictionary.concentration
            dens = np.array([
                sigma * float(f @ mean) - log_normalizer(sigma, dictionary.dim)
                for mean in dictionary.means
            ])

            def mix(weights):
                return float(np.log(np.sum(weights * np.exp(dens))))

            p = float(np.clip(mixture.fg_prior[r, c], PRIOR_CLAMP, 1 - PRIOR_CLAMP))
            fg = np.log(p) + mix(mixture.fg_coeffs[r, c])
            ctx = np.log1p(-p) + mix(mixture.ctx_coeffs[r, c])
            occ = np.log(p) + mix(occluder.coeffs)
            assert maps.fg[r, c] == pytest.approx(fg, abs=1e-10)
            assert maps.ctx[r, c] == pytest.approx(ctx, abs=1e-10)
            assert maps.occ[r, c] == pytest.approx(occ, abs=1e-10)


def _reference_maps(fm, mixture, occluder, dictionary, shape):
    return perpixel_maps_reference(
        resample_nearest(fm.data, shape).astype(np.float64),
        resample_nearest(mixture.fg_prior, shape),
        resample_nearest(mixture.fg_coeffs, shape),
        resample_nearest(mixture.ctx_coeffs, shape),
        occluder.coeffs,
        dictionary.means,
        dictionary.concentration,
    )


def test_likelihood_maps_refuses_a_crop_or_model_off_the_dictionary():
    rng, dictionary, mixture, occluder, fm = tiny_setup(k=4, d=5)
    short = FeatureMap(sample_uniform_sphere(rng, 12, 4).reshape(3, 4, 4).astype(np.float32))
    with pytest.raises(ValidationError, match="crop dim 4 does not match dictionary dim 5"):
        likelihood_maps(short, [[mixture]], dictionary, occluder)
    with pytest.raises(ValidationError,
                       match="occluder has K=3 but dictionary has 4 components"):
        likelihood_maps(fm, [[mixture]], dictionary, OccluderModel(simplex(rng, (3,))))
    three = MixtureModel(np.full((3, 4), 0.5), simplex(rng, (3, 4, 3)), simplex(rng, (3, 4, 3)))
    with pytest.raises(ValidationError, match="mixture has K=3 but dictionary has 4 components"):
        likelihood_maps(fm, [[mixture], [three]], dictionary, occluder)


def test_maps_match_perpixel_reference():
    _, dictionary, mixture, occluder, fm = tiny_setup(seed=4)
    maps = _one(fm, mixture, dictionary, occluder)
    want = _reference_maps(fm, mixture, occluder, dictionary, mixture.shape)
    for got_map, want_map in zip((maps.fg, maps.ctx, maps.occ), want):
        np.testing.assert_allclose(got_map, want_map, rtol=0, atol=1e-10)


@pytest.mark.parametrize("shape", [(5, 7), (2, 2), (3, 9)])
def test_maps_on_another_lattice_resample_crop_and_planes(shape):
    # a crop of `shape` against (3, 4) mixture planes: the maps live on the
    # crop's lattice, and the planes land on it the way resample_nearest
    # puts them there
    _, dictionary, mixture, occluder, fm = tiny_setup(seed=8, h=3, w=4, crop_shape=shape)
    assert mixture.shape == (3, 4)
    maps = _one(fm, mixture, dictionary, occluder)
    assert maps.shape == shape
    for arr in (maps.fg, maps.ctx, maps.occ):
        assert arr.dtype == np.float64 and not arr.flags.writeable
    want = _reference_maps(fm, mixture, occluder, dictionary, shape)
    for got_map, want_map in zip((maps.fg, maps.ctx, maps.occ), want):
        np.testing.assert_allclose(got_map, want_map, rtol=0, atol=1e-10)


def test_underflowing_factored_sums_fall_back_to_exact_logsumexp():
    # Antipodal components with sigma=700: at a feature on the first mean the
    # second component's scaled density exp(-1400) is 0, and position 0's
    # fg, ctx and occluder weights are all on the second component, so the
    # factored sum there is exactly 0. Position 1 sits on the second mean.
    means = np.array([[1.0, 0.0, 0.0], [-1.0, 0.0, 0.0]])
    dictionary = VmfDictionary(means, 700.0)
    off_peak = np.array([0.0, 1.0])
    coeffs = np.array([[off_peak, [0.5, 0.5]]])
    mixture = MixtureModel(np.full((1, 2), 0.5), coeffs, coeffs.copy())
    occluder = OccluderModel(off_peak)
    fm = FeatureMap(np.array([[means[0], means[1]]], dtype=np.float32))
    assert shifted_densities(fm.flat(), dictionary)[1][0] @ off_peak == 0.0
    maps = _one(fm, mixture, dictionary, occluder)
    for arr in (maps.fg, maps.ctx, maps.occ):
        assert np.all(np.isfinite(arr))

    cos = component_cosines(fm.flat(), dictionary)
    sig, lz = dictionary.concentration, dictionary.log_z
    with np.errstate(divide="ignore"):
        log_coeffs = np.log(coeffs.reshape(2, 2))
        log_occ = np.log(off_peak)
    log_half = np.log(0.5)
    exact = _kernels.mixture_loglik(cos, sig, lz, log_coeffs)
    exact_occ = _kernels.shared_mixture_loglik(cos, sig, lz, log_occ)
    assert maps.fg[0, 0] == log_half + exact[0]
    assert maps.ctx[0, 0] == np.log1p(-0.5) + exact[0]
    assert maps.occ[0, 0] == log_half + exact_occ[0]
    assert maps.fg[0, 0] == pytest.approx(log_half - 700.0 - lz, abs=1e-9)
    # the rows that did not underflow keep the factored value
    assert maps.fg[0, 1] == pytest.approx(log_half + exact[1], abs=1e-10)
    assert maps.occ[0, 1] == pytest.approx(log_half + exact_occ[1], abs=1e-10)


def test_one_underflowing_candidate_falls_back_inside_the_stacked_table():
    # The set-up above with three candidates, of which only the middle one
    # underflows: its fg plane at position 0 and its ctx plane at position 1
    # put all their weight on the component that is exp(-1400) away. The
    # other planes, mapped before and after it in the same table, are mixed,
    # so the fallback must read the underflowing plane's own coefficients.
    means = np.array([[1.0, 0.0, 0.0], [-1.0, 0.0, 0.0]])
    dictionary = VmfDictionary(means, 700.0)
    half = np.full((1, 2, 2), 0.5)
    fg = np.array([[[0.0, 1.0], [0.5, 0.5]]])
    ctx = np.array([[[0.5, 0.5], [1.0, 0.0]]])
    mixtures = [
        MixtureModel(np.full((1, 2), 0.5), half, half.copy()),
        MixtureModel(np.array([[0.3, 0.8]]), fg, ctx),
        MixtureModel(np.full((2, 3), 0.6), np.full((2, 3, 2), 0.5), np.full((2, 3, 2), 0.5)),
    ]
    classes = [ClassModel("a", tuple(mixtures[:2])), ClassModel("b", (mixtures[2],))]
    occluder = OccluderModel(np.array([0.5, 0.5]))
    fm = FeatureMap(np.array([[means[0], means[1]]], dtype=np.float32))
    scaled = shifted_densities(fm.flat(), dictionary)[1]
    sums = [scaled @ c.reshape(2, 2).T for c in (fg, ctx)]
    assert (sums[0][0, 0], sums[1][1, 1]) == (0.0, 0.0)

    candidates = classify(fm, classes, dictionary, occluder).candidates
    assert len(candidates) == 3 and np.all(np.isfinite(candidates.table))
    for c, mixture in enumerate(mixtures):
        want = _one(fm, mixture, dictionary, occluder)
        assert np.array_equal(candidates.table[c], np.stack([want.fg, want.ctx, want.occ]))
        assert np.array_equal(candidates.amodal[c], want.amodal)
    cos = component_cosines(fm.flat(), dictionary)
    sig, lz = dictionary.concentration, dictionary.log_z
    with np.errstate(divide="ignore"):
        exact_fg = _kernels.mixture_loglik(cos, sig, lz, np.log(fg.reshape(2, 2)))
        exact_ctx = _kernels.mixture_loglik(cos, sig, lz, np.log(ctx.reshape(2, 2)))
    prior = np.array([0.3, 0.8])
    maps = candidates[1]
    assert maps.fg[0, 0] == np.log(prior)[0] + exact_fg[0]
    assert maps.ctx[0, 1] == np.log1p(-prior)[1] + exact_ctx[1]
    assert maps.fg[0, 0] == pytest.approx(np.log(0.3) - 700.0 - lz, abs=1e-9)


def test_prior_clamp_keeps_extreme_priors_finite():
    rng = np.random.default_rng(5)
    k, d = 3, 4
    dictionary = VmfDictionary(sample_uniform_sphere(rng, k, d), 5.0)
    prior = np.array([[0.0, 1.0]])
    mixture = MixtureModel(prior, simplex(rng, (1, 2, k)), simplex(rng, (1, 2, k)))
    occluder = OccluderModel(simplex(rng, (k,)))
    fm = FeatureMap(sample_uniform_sphere(rng, 2, d).reshape(1, 2, d).astype(np.float32))
    maps = _one(fm, mixture, dictionary, occluder)
    assert np.all(np.isfinite(maps.fg))
    assert np.all(np.isfinite(maps.ctx))
    assert np.all(np.isfinite(maps.occ))
    # the clamp bounds how asymmetric the prior terms can get
    assert maps.fg[0, 0] - maps.ctx[0, 0] < np.log(PRIOR_CLAMP) + 30


# ---------------------------------------------------------------------------
# scoring


def _best_loglik(maps: LikelihoodMaps) -> float:
    """The score without a grid: every pixel takes its best branch."""
    return float(np.sum(np.maximum(np.maximum(maps.fg, maps.ctx), maps.occ)))


def _visible_loglik(maps: LikelihoodMaps, visibility) -> float:
    """The score under a visibility grid: fg where it is 1, occ where it is 0."""
    zf = np.asarray(visibility, dtype=np.float64)
    return float(np.sum(zf * maps.fg + (1.0 - zf) * maps.occ))


def test_image_loglik_modes_and_visibility():
    fg = np.array([[0.0, -2.0], [-1.0, -5.0]])
    ctx = np.array([[-1.0, -1.0], [-4.0, -4.0]])
    occ = np.array([[-3.0, -3.0], [0.0, -1.0]])
    maps = _maps(fg, ctx, occ)

    want_max = 0.0 + -1.0 + 0.0 + -1.0
    assert _best_loglik(maps) == pytest.approx(want_max)

    # a visibility grid is scored by `rescore`, the one place that takes one
    vis = np.array([[1, 0], [1, 0]])
    want_vis = fg[0, 0] + occ[0, 1] + fg[1, 0] + occ[1, 1]
    assert rescore(candidates_of(((maps,),)), visibility=vis).score == pytest.approx(want_vis)
    assert rescore(candidates_of(((maps,),)), visibility=vis).score == _visible_loglik(maps, vis)

    with pytest.raises(ValidationError):
        rescore(candidates_of(((maps,),)), visibility=np.array([[2, 0], [1, 0]]))
    with pytest.raises(ValidationError):
        rescore(candidates_of(((maps,),)), visibility=np.ones((1, 2)))


def test_classify_prefers_matching_component_mixture():
    rng = np.random.default_rng(6)
    k, d, h, w = 2, 6, 4, 4
    means = sample_uniform_sphere(rng, k, d)
    while abs(float(means[0] @ means[1])) > 0.2:
        means = sample_uniform_sphere(rng, k, d)
    dictionary = VmfDictionary(means, 25.0)

    def pure(idx):
        coeffs = np.full((h, w, k), 1e-4)
        coeffs[:, :, idx] = 1.0 - 1e-4 * (k - 1)
        return MixtureModel(np.full((h, w), 0.9), coeffs, simplex(rng, (h, w, k)))

    classes = [
        ClassModel("zero", (pure(0),)),
        ClassModel("one", (pure(1),)),
    ]
    occluder = OccluderModel(np.full(k, 0.5))
    crop = FeatureMap(np.tile(means[1].astype(np.float32), (h, w, 1)))
    got = classify(crop, classes, dictionary, occluder)
    assert got.class_index == 1
    assert got.mixture_index == 0
    assert len(got.candidates) == 2
    assert _best_loglik(got.candidates[1]) == got.score

    # fully occluded visibility makes every candidate score by the occluder
    # alone, so the tie breaks to the first class and mixture
    blind = rescore(got.candidates, np.zeros((h, w)))
    assert (blind.class_index, blind.mixture_index) == (0, 0)


def _random_classes(rng, k):
    def mixture(h, w):
        return MixtureModel(
            rng.uniform(0.05, 0.95, size=(h, w)),
            simplex(rng, (h, w, k)),
            simplex(rng, (h, w, k)),
        )

    return [
        ClassModel("a", (mixture(3, 4), mixture(5, 5))),
        ClassModel("b", (mixture(4, 3), mixture(2, 6))),
    ]


def _bits(x) -> bytes:
    return np.asarray(x, dtype=np.float64).tobytes()


def _gathered_table(crop, mixtures, dictionary, occluder) -> np.ndarray:
    """The (C, 3, h, w) candidate table of `likelihood_maps`, computed in
    the same order from planes that `resample_nearest` gathers afresh."""
    features = crop.flat()
    peak, scaled = shifted_densities(features, dictionary)
    occ = np.log(scaled @ occluder.coeffs) + peak
    rows = []
    for mixture in mixtures:
        clamped = np.clip(mixture.fg_prior, PRIOR_CLAMP, 1.0 - PRIOR_CLAMP)
        log_p = resample_nearest(np.log(clamped), crop.shape).reshape(-1)
        log_q = resample_nearest(np.log1p(-clamped), crop.shape).reshape(-1)
        fg, ctx = (resample_nearest(c, crop.shape).reshape(len(features), -1)
                   for c in (mixture.fg_coeffs, mixture.ctx_coeffs))
        rows.append([np.log(np.einsum("ik,ik->i", fg, scaled)) + peak + log_p,
                     np.log(np.einsum("ik,ik->i", ctx, scaled)) + peak + log_q,
                     occ + log_p])
    return np.array(rows).reshape(len(mixtures), 3, *crop.shape)


# Smaller than, equal to and larger than the (3, 4) and (5, 5) lattices,
# square and not.
@pytest.mark.parametrize("shape", [(2, 2), (3, 4), (5, 5), (4, 7), (9, 9)])
def test_cached_aligned_planes_give_the_gathered_bits(shape):
    rng, dictionary, _, occluder, _ = tiny_setup(seed=21, k=4, d=5)
    classes = _random_classes(rng, dictionary.size)
    mixtures = [m for cls in classes for m in cls.mixtures]
    crop = FeatureMap(sample_uniform_sphere(rng, shape[0] * shape[1], 5)
                      .reshape(*shape, 5).astype(np.float32))
    want = _gathered_table(crop, mixtures, dictionary, occluder)
    for mixture in mixtures:
        assert shape not in mixture._aligned
    first = classify(crop, classes, dictionary, occluder).candidates
    cached = [mixture._aligned[shape] for mixture in mixtures]
    second = classify(crop, classes, dictionary, occluder).candidates
    for got in (first, second):
        assert _bits(got.table) == _bits(want)
        assert np.array_equal(got.amodal, np.stack(
            [resample_nearest(m.fg_prior, shape) >= 0.5 for m in mixtures]))
    # the second call read the planes the first one built
    for mixture, planes in zip(mixtures, cached):
        assert mixture._aligned[shape] is planes


def test_cached_aligned_planes_refuse_writes():
    _, dictionary, mixture, occluder, fm = tiny_setup(seed=22, crop_shape=(5, 2))
    _one(fm, mixture, dictionary, occluder)
    (planes,) = mixture._aligned.values()
    assert [arr.shape for arr in planes] == [(10, 4), (10, 4), (3, 10), (10,)]
    for arr in planes:
        assert not arr.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            arr[0] = 0


def test_aligned_plane_cache_keeps_at_most_its_bound_of_shapes():
    rng, dictionary, mixture, occluder, _ = tiny_setup(seed=23, k=4, d=5)
    bound = models._ALIGNED_SHAPES
    shapes = [(1 + i % 5, 1 + i // 5) for i in range(bound + 1)]
    crops = [FeatureMap(sample_uniform_sphere(rng, h * w, 5).reshape(h, w, 5)
                        .astype(np.float32)) for h, w in shapes]
    for crop in crops:
        _one(crop, mixture, dictionary, occluder)
    assert len(mixture._aligned) == bound
    assert shapes[0] not in mixture._aligned and shapes[-1] in mixture._aligned
    # a dropped shape is built again, to the gathered bits
    for crop in crops:
        got = likelihood_maps(crop, [[mixture]], dictionary, occluder)
        assert _bits(got.table) == _bits(_gathered_table(crop, [mixture], dictionary, occluder))
        assert len(mixture._aligned) == bound


def test_rescore_matches_per_candidate_image_loglik():
    # Every candidate's score from the stacked reduction is, to the bit,
    # `_best_loglik` of its maps without a grid and np.sum(np.where(vis, fg,
    # occ)) with one. rescore reads a bool grid with np.where; a bool grid, a
    # 0/1 int grid and the float formula z*fg + (1-z)*occ give the same bits.
    rng, dictionary, _, occluder, _ = tiny_setup(seed=12, k=4, d=5)
    classes = _random_classes(rng, dictionary.size)
    for h, w in ((4, 6), (3, 3), (7, 2), (23, 31)):
        crop = FeatureMap(
            sample_uniform_sphere(rng, h * w, 5).reshape(h, w, 5).astype(np.float32)
        )
        fed = classify(crop, classes, dictionary, occluder)
        candidates = fed.candidates
        wide = candidates_of([[
            _maps(*rng.normal(0.0, 10.0 ** rng.integers(-3, 4), size=(3, h, w)))
            for _ in range(3)
        ]])
        for table in (candidates, wide):
            assert _bits(models._scores(table, None)) == _bits(
                [_best_loglik(table[c]) for c in range(len(table))])
        assert _bits(fed.score) == _bits(max(_best_loglik(candidates[c]) for c in range(4)))
        grids = [np.zeros((h, w), dtype=np.int8), np.ones((h, w), dtype=np.int8)]
        grids += [rng.integers(0, 2, size=(h, w)) for _ in range(4)]
        for vis in grids:
            visible = vis.astype(bool)
            for table in (candidates, wide):
                maps = [table[c] for c in range(len(table))]
                want = [float(np.sum(np.where(visible, m.fg, m.occ))) for m in maps]
                assert _bits(models._scores(table, visible)) == _bits(want)
                assert _bits(want) == _bits([_visible_loglik(m, vis) for m in maps])
            want = np.array([
                _visible_loglik(_one(crop, m, dictionary, occluder), vis)
                for cls in classes for m in cls.mixtures
            ])
            first = int(np.flatnonzero(want == want.max())[0])
            for grid in (vis, visible):
                got = rescore(candidates, grid)
                assert (got.class_index, got.mixture_index) == divmod(first, 2)
                assert _bits(got.score) == _bits(want.max())
                assert got.candidates is candidates


def test_rescore_ties_go_to_the_lowest_indices():
    occ = np.full((2, 2), -1.0)
    low = _maps(np.full((2, 2), -9.0), np.full((2, 2), -2.0), occ)
    high = _maps(np.array([[-9.0, 0.0], [0.0, 0.0]]), np.zeros((2, 2)), occ)
    twin = _maps(np.array([[-5.0, 0.0], [0.0, 0.0]]), np.zeros((2, 2)), occ)
    candidates = candidates_of(((low, high), (twin,)))
    # (0, 1) and (1, 0) differ only where the object is hidden: a tie
    vis = np.array([[0, 1], [1, 1]])
    got = rescore(candidates, vis)
    assert _visible_loglik(high, vis) == _visible_loglik(twin, vis) == got.score == -1.0
    assert _bits(models._scores(candidates, vis.astype(bool))) == _bits([
        _visible_loglik(m, vis) for m in (low, high, twin)])
    assert (got.class_index, got.mixture_index) == (0, 1)
    for arr, want in zip((got.maps.fg, got.maps.ctx, got.maps.occ, got.maps.amodal),
                         (high.fg, high.ctx, high.occ, high.amodal)):
        assert np.array_equal(arr, want)
    # fully hidden, all three tie on the occluder value
    got = rescore(candidates, np.zeros((2, 2)))
    assert (got.class_index, got.mixture_index) == (0, 0)
    # fully visible, the twin's -5 beats the -9
    got = rescore(candidates, np.ones((2, 2)))
    assert (got.class_index, got.mixture_index) == (1, 0)
    # without a grid, high and twin tie on their best branches
    got = rescore(candidates)
    assert _best_loglik(high) == _best_loglik(twin) == got.score == 0.0
    assert (got.class_index, got.mixture_index) == (0, 1)
    _, dictionary, _, occluder, fm = tiny_setup()
    with pytest.raises(ValidationError, match="at least one class"):
        classify(fm, [], dictionary, occluder)


def test_rescore_checks_the_grid_once_per_call():
    occ = np.full((2, 2), -1.0)
    maps = _maps(np.zeros((2, 2)), np.zeros((2, 2)), occ)
    candidates = candidates_of(((maps, maps), (maps,)))
    with pytest.raises(ValidationError, match="binary"):
        rescore(candidates, np.array([[1, 0], [2, 1]]))
    with pytest.raises(ValidationError, match="binary"):
        rescore(candidates, np.full((2, 2), 0.5))
    with pytest.raises(ValidationError, match="shape"):
        rescore(candidates, np.ones((2, 3)))
    with pytest.raises(ValidationError, match="shape"):
        rescore(candidates, np.ones(4))
    # a boolean grid is binary too
    assert rescore(candidates, np.ones((2, 2), dtype=bool)).score == 0.0


def test_classify_returns_the_winners_maps():
    rng, dictionary, _, occluder, _ = tiny_setup(seed=9, k=4, d=5)
    classes = _random_classes(rng, dictionary.size)
    crop = FeatureMap(
        sample_uniform_sphere(rng, 4 * 6, 5).reshape(4, 6, 5).astype(np.float32)
    )
    fed = classify(crop, classes, dictionary, occluder)
    for visibility in (None, rng.integers(0, 2, size=(4, 6))):
        got = rescore(fed.candidates, visibility)
        winner = classes[got.class_index].mixtures[got.mixture_index]
        want = _one(crop, winner, dictionary, occluder)
        maps = got.maps
        for got_map, want_map in zip(
            (maps.fg, maps.ctx, maps.occ, maps.amodal),
            (want.fg, want.ctx, want.occ, want.amodal),
        ):
            assert np.array_equal(got_map, want_map)
            assert not got_map.flags.writeable
        if visibility is None:
            assert got.score == _best_loglik(want)
        else:
            assert got.score == _visible_loglik(want, visibility)


def test_segment_single_tie_preferences():
    fg = np.array([[0.0, -1.0, -5.0]])
    ctx = np.array([[0.0, -1.0, -2.0]])
    occ = np.array([[0.0, -1.0, -2.0]])
    labels = segment_single(_maps(fg, ctx, occ))
    # all equal -> FG; occ == ctx above fg -> OCC
    assert labels[0, 0] == LABEL_FG
    assert labels[0, 1] == LABEL_FG
    assert labels[0, 2] == LABEL_OCC
    assert segment_single(
        _maps(np.array([[-9.0]]), np.array([[1.0]]), np.array([[0.0]]))
    )[0, 0] == LABEL_CTX


def test_amodal_mask_thresholds_and_resamples():
    # each candidate's amodal mask is its mixture's prior at or above 0.5,
    # on the crop's lattice
    rng = np.random.default_rng(7)
    prior = np.array([[0.9, 0.2], [0.5, 0.49]])
    mixture = MixtureModel(prior, simplex(rng, (2, 2, 3)), simplex(rng, (2, 2, 3)))
    dictionary = VmfDictionary(sample_uniform_sphere(rng, 3, 5), rng.uniform(1.0, 15.0))
    occluder = OccluderModel(simplex(rng, (3,)))

    def amodal(shape):
        crop = FeatureMap(sample_uniform_sphere(rng, shape[0] * shape[1], 5)
                          .reshape(*shape, 5).astype(np.float32))
        return _one(crop, mixture, dictionary, occluder).amodal

    mask = amodal((4, 4))
    assert mask.shape == (4, 4) and mask.dtype == np.bool_
    assert mask[0, 0] and not mask[0, 3]
    assert mask[2, 0]        # 0.5 is inclusive
    assert not mask[2, 2]    # 0.49 misses the threshold
    # the mixture's cached mask lands the prior where resample_nearest does
    for shape in ((1, 1), (3, 5), (7, 2), (2, 2)):
        assert np.array_equal(amodal(shape), resample_nearest(prior, shape) >= 0.5)
