import hashlib
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from compseg import learning, vmf
from compseg.errors import TrainingError, ValidationError
from compseg.fmap import FeatureMap
from compseg.learning import (
    GroupSums,
    TrainConfig,
    _gather_crops,
    _inner_slices,
    assign_mixtures,
    canonical_shape,
    inner_box_mask,
    learn_occluder,
    train,
)
from compseg.formats import save_model
from compseg.vmf import VmfDictionary


def test_inner_box_mask_layout(monkeypatch):
    assert learning.SHRINK == 0.10
    mask = inner_box_mask((10, 10))
    assert mask.shape == (10, 10)
    assert mask[1:9, 1:9].all()
    assert not mask[0].any() and not mask[-1].any()
    assert not mask[:, 0].any() and not mask[:, -1].any()
    # at least a one-pixel ring even when the shrink rounds to zero
    monkeypatch.setattr(learning, "SHRINK", 0.01)
    tiny = inner_box_mask((4, 4))
    assert tiny.sum() == 4


def test_inner_box_mask_too_small():
    with pytest.raises(ValidationError):
        inner_box_mask((2, 8))
    with pytest.raises(ValidationError):
        inner_box_mask((8, 2))


def test_canonical_shape_median():
    assert canonical_shape([(4, 6)]) == (4, 6)
    assert canonical_shape([(4, 4), (6, 8), (5, 5)]) == (5, 5)
    # even count: median of two middles, rounded to nearest (banker's at .5)
    assert canonical_shape([(4, 10), (6, 12)]) == (5, 11)


def _planted_resps(rng, crops=6, shape=(8, 8), k=3, noise=0.05):
    """A (C, H, W, K) block with component 0 inside, component 1 on the ring."""
    inner = inner_box_mask(shape)
    out = []
    for _ in range(crops):
        r = rng.uniform(0.0, noise, size=(*shape, k))
        r[inner, 0] += 1.0
        r[~inner, 1] += 1.0
        r /= r.sum(axis=-1, keepdims=True)
        out.append(r)
    return np.stack(out), inner


def _group_sums(resps):
    """`GroupSums` over a (C, H, W, K) block, added crop after crop."""
    sums = GroupSums(resps.shape[1:3], resps.shape[-1])
    for resp in resps:
        sums.add(resp)
    return sums


def test_fg_prior_separates_inside_from_ring():
    rng = np.random.default_rng(0)
    resps, inner = _planted_resps(rng)
    prior = _group_sums(resps).fg_prior(resps)
    assert prior.shape == (8, 8)
    assert np.all(prior[inner] == 1.0)
    assert np.all(prior[~inner] == 0.0)


def test_estimate_coeffs_single_crop_identity():
    rng = np.random.default_rng(1)
    resps, _ = _planted_resps(rng, crops=1)
    alpha = _group_sums(resps).coeffs()
    assert np.allclose(alpha, resps[0], atol=1e-12)
    assert np.allclose(alpha.sum(axis=-1), 1.0, atol=1e-12)


def test_context_coeffs_ring_vs_interior():
    rng = np.random.default_rng(2)
    resps, inner = _planted_resps(rng, crops=4)
    chi = _group_sums(resps).context_coeffs()
    assert np.allclose(chi.sum(axis=-1), 1.0, atol=1e-12)
    # ring positions lean on the ring component, interior copies the pooled
    # ring profile (one shared row everywhere inside)
    assert np.all(chi[~inner, 1] > chi[~inner, 0])
    interior_rows = chi[inner].reshape(-1, chi.shape[-1])
    assert np.allclose(interior_rows, interior_rows[0], atol=1e-12)
    assert interior_rows[0, 1] > interior_rows[0, 0]


def test_estimators_reject_empty():
    empty = np.empty((0, 8, 8, 3))
    sums = _group_sums(empty)
    with pytest.raises(TrainingError) as err:
        sums.fg_prior(empty)
    assert err.value.stage == "prior"
    with pytest.raises(TrainingError) as err:
        sums.coeffs()
    assert err.value.stage == "coeffs"
    with pytest.raises(TrainingError) as err:
        sums.context_coeffs()
    assert err.value.stage == "coeffs"


def _block_estimates(resps):
    """The (C, H, W, K) block formulas the running sums replace, as reference."""
    n, h, w, k = resps.shape
    rows, cols = _inner_slices((h, w))
    inner = inner_box_mask((h, w))
    abar = resps[:, rows, cols, :].mean(axis=(0, 1, 2))
    cbar = resps[:, ~inner, :].mean(axis=(0, 1))
    prior = (resps @ abar > resps @ cbar).mean(axis=0)

    mean = resps.mean(axis=0)
    coeffs = mean / mean.sum(axis=-1, keepdims=True)

    uniform = np.full(k, 1.0 / k)
    per_position = (resps.sum(axis=0) + uniform) / (n + 1.0)
    ring_rows = resps[:, ~inner, :].reshape(-1, k)
    pooled = (ring_rows.sum(axis=0) + uniform) / (ring_rows.shape[0] + 1.0)
    ctx = np.where(inner[..., None], pooled, per_position)
    return prior, coeffs, ctx / ctx.sum(axis=-1, keepdims=True)


@pytest.mark.parametrize("shape", [(9, 11), (21, 21)])
@pytest.mark.parametrize("crops", [1, 2, 7])
def test_group_sums_match_block_formulas_bit_for_bit(crops, shape):
    rng = np.random.default_rng([crops, *shape])
    resps = rng.random((crops, *shape, 64))
    resps /= resps.sum(axis=-1, keepdims=True)
    sums = _group_sums(resps)
    prior, coeffs, ctx = _block_estimates(resps)
    assert np.array_equal(sums.fg_prior(resps), prior)
    assert np.array_equal(sums.coeffs(), coeffs)
    assert np.array_equal(sums.context_coeffs(), ctx)


def test_assign_mixtures_separated_clusters():
    rng = np.random.default_rng(5)
    a = rng.normal(0.0, 0.05, size=(7, 4))
    b = rng.normal(0.0, 0.05, size=(5, 4)) + 10.0
    vectors = np.concatenate([a, b])
    groups = assign_mixtures(vectors, 2, seed=[3, 1, 0])
    assert set(np.unique(groups)) == {0, 1}
    assert len(set(groups[:7])) == 1
    assert len(set(groups[7:])) == 1
    assert groups[0] != groups[7]
    # bitwise deterministic in the seed
    again = assign_mixtures(vectors, 2, seed=[3, 1, 0])
    assert np.array_equal(groups, again)


def test_assign_mixtures_edges():
    vectors = np.zeros((4, 3))
    one_group = assign_mixtures(vectors, 1, seed=0)
    assert np.array_equal(one_group, np.zeros(4, dtype=np.int64))
    with pytest.raises(TrainingError) as err:
        assign_mixtures(vectors, 5, seed=0)
    assert err.value.stage == "mixtures"
    with pytest.raises(TrainingError):
        assign_mixtures(vectors, 0, seed=0)


@given(st.integers(0, 10_000), st.integers(2, 4), st.integers(4, 16))
@settings(max_examples=30, deadline=None)
def test_assign_mixtures_groups_nonempty(seed, m, n):
    rng = np.random.default_rng(seed)
    vectors = rng.normal(size=(n, 3))
    groups = assign_mixtures(vectors, m, seed=seed)
    assert groups.shape == (n,)
    assert set(np.unique(groups)) == set(range(m))


def _axis_dictionary(k=3, d=4):
    means = np.zeros((k, d))
    for i in range(k):
        means[i, i] = 1.0
    return VmfDictionary(means, np.full(k, 12.0))


def test_learn_occluder_matches_planted_mix():
    dictionary = _axis_dictionary()
    rows = np.zeros((100, 4))
    rows[:75, 0] = 1.0    # 75% of background pixels sit on component 0
    rows[75:, 2] = 1.0
    fm = FeatureMap(rows.reshape(10, 10, 4))
    occ = learn_occluder([fm], dictionary)
    assert occ.coeffs.shape == (3,)
    assert occ.coeffs.sum() == pytest.approx(1.0, abs=1e-12)
    assert occ.coeffs[0] > occ.coeffs[2] > occ.coeffs[1]
    assert occ.coeffs[0] == pytest.approx(0.75, abs=0.02)


def test_learn_occluder_empty():
    with pytest.raises(TrainingError) as err:
        learn_occluder([], _axis_dictionary())
    assert err.value.stage == "occluder"


def test_train_empty_dataset():
    with pytest.raises(TrainingError) as err:
        train([], [])
    assert err.value.stage == "dataset"


def test_train_rejects_a_negative_seed(tiny_train_pairs, tiny_backgrounds):
    with pytest.raises(ValidationError, match="seed must be >= 0, got -1"):
        train(tiny_train_pairs[:2], tiny_backgrounds[:1], TrainConfig(seed=-1))


@pytest.fixture
def small_fit(monkeypatch):
    """A 20,000-row dictionary sample and 40 k-means iterations at most."""
    monkeypatch.setattr(learning, "DICT_SAMPLE", 20_000)
    monkeypatch.setattr(learning, "MAX_ITER", 40)
    return TrainConfig(k=8, m=2, seed=3)


def test_train_deterministic_bytes(tiny_train_pairs, tiny_backgrounds, tmp_path, small_fit):
    pairs = tiny_train_pairs[:10]
    bgs = tiny_backgrounds[:3]
    cfg = small_fit
    bundle_a, _ = train(pairs, bgs, cfg)
    bundle_b, _ = train(pairs, bgs, cfg)
    pa, pb = tmp_path / "a.bin", tmp_path / "b.bin"
    save_model(bundle_a, str(pa))
    save_model(bundle_b, str(pb))
    assert pa.read_bytes() == pb.read_bytes()


# SHA-256 of the saved model trained below: 25,168 pooled rows against a
# 20,000-row dictionary sample, so the subsampled path runs. Training memory
# work must leave these bytes alone.
PINNED_MODEL_SHA256 = "fcb6297d5d1d6c130c33aec111b631f030768f3384c7e558db4162b2f4d97173"


def test_train_model_bytes_pinned(tiny_train_pairs, tiny_backgrounds, tmp_path, small_fit):
    pairs = tiny_train_pairs[:10]
    bgs = tiny_backgrounds[:3]
    rows = sum(fm.height * fm.width for fm, _ in pairs) + sum(fm.height * fm.width for fm in bgs)
    cfg = small_fit
    assert (learning.DICT_SAMPLE, learning.MAX_ITER) == (20_000, 40)
    assert rows > learning.DICT_SAMPLE
    bundle, _ = train(pairs, bgs, cfg)
    path = tmp_path / "model.bin"
    save_model(bundle, str(path))
    assert hashlib.sha256(path.read_bytes()).hexdigest() == PINNED_MODEL_SHA256


def test_training_crops_are_views_of_their_scene_maps(tiny_train_pairs):
    # crops come in scene and object order, so each label's list pairs with
    # the scene maps of that label's objects
    by_class = _gather_crops(tiny_train_pairs)
    scene_maps: dict[str, list] = {}
    for fm, ann in tiny_train_pairs:
        for obj in ann.objects:
            scene_maps.setdefault(obj.label, []).append(fm)
    crops = [
        (patch, fm)
        for label, patches in by_class.items()
        for patch, fm in zip(patches, scene_maps[label], strict=True)
    ]
    assert len(crops) == sum(len(ann.objects) for _, ann in tiny_train_pairs)
    for patch, fm in crops:
        assert np.shares_memory(patch.data, fm.data)
        assert not patch.data.flags.writeable


def _train_peak(pairs, backgrounds, config):
    """Bytes `train` allocates above its entry at its traced peak."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        train(pairs, backgrounds, config)
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


def test_train_peak_memory_below_one_float64_pool(tiny_train_pairs, tiny_backgrounds, monkeypatch):
    """Training's traced peak stays below one float64 copy of the feature pool.

    It runs at the default K = 64, where the model and the responsibility
    tables are largest. On the TINY split with a 5,000-row sample the peak,
    about 0.6 of the pool, then comes at the end, while `quantize_bundle`
    copies the model's arrays.
    """
    maps = [fm for fm, _ in tiny_train_pairs] + list(tiny_backgrounds)
    pool_bytes = sum(fm.height * fm.width * fm.dim for fm in maps) * 8
    monkeypatch.setattr(learning, "DICT_SAMPLE", 5_000)
    peak = _train_peak(tiny_train_pairs, tiny_backgrounds, TrainConfig())
    assert peak < pool_bytes, f"peak {peak} bytes against a float64 pool of {pool_bytes}"


def test_dictionary_fit_peak_memory_per_sampled_row(
    tiny_train_pairs, tiny_backgrounds, monkeypatch
):
    """With every row in the dictionary sample, the fit sets `train`'s traced
    peak, and the peak stays within the fit's documented working memory.

    That is 4 * D bytes of float32 sample and four float64 vectors per
    sampled row, plus one widened (block, D) row block and one (block, K)
    cosine tile. On the TINY split (D = 16, K = 64) the peak is about 94% of
    that bound. A float64 sample with the fit's former working vectors peaks
    at about 1.67 times it.
    """
    maps = [fm for fm, _ in tiny_train_pairs] + list(tiny_backgrounds)
    rows = sum(fm.height * fm.width for fm in maps)
    dim = maps[0].dim
    config = TrainConfig()
    monkeypatch.setattr(learning, "DICT_SAMPLE", 5_000)
    capped = _train_peak(tiny_train_pairs, tiny_backgrounds, config)
    monkeypatch.setattr(learning, "DICT_SAMPLE", rows)
    peak = _train_peak(tiny_train_pairs, tiny_backgrounds, config)
    assert peak > capped, "the fit does not set the peak"
    block = vmf._ASSIGN_BLOCK
    bound = rows * (4 * dim + 8 * 4) + 8 * block * (dim + config.k)
    assert peak < bound, f"peak {peak} bytes against a bound of {bound} for {rows} rows"


def test_train_peak_memory_flat_in_training_set_size(
    tiny_train_pairs, tiny_backgrounds, monkeypatch
):
    """Three times the training set raises `train`'s traced peak by less than a quarter.

    With the dictionary sample capped and the crops viewing the scene maps,
    only per-crop bookkeeping grows with the split. A pool or a group block
    would triple; copied crops alone raise the peak by 60% (4.1 to 6.6 MiB).
    """
    monkeypatch.setattr(learning, "DICT_SAMPLE", 5_000)
    config = TrainConfig()
    once = _train_peak(tiny_train_pairs, tiny_backgrounds, config)
    thrice = _train_peak(3 * tiny_train_pairs, 3 * list(tiny_backgrounds), config)
    assert thrice - once < once / 4, f"peak {once} bytes at x1, {thrice} at x3"


def test_train_report_structure(tiny_train_pairs, tiny_backgrounds, small_fit, monkeypatch):
    pairs = tiny_train_pairs[:10]
    cfg = small_fit
    bundle, report = train(pairs, tiny_backgrounds[:3], cfg)

    labels = sorted({o.label for _, ann in pairs for o in ann.objects})
    assert list(bundle.labels) == labels
    assert report.dictionary_objective
    assert 1 <= report.dictionary_iterations <= learning.MAX_ITER
    assert len(report.dictionary_objective) == report.dictionary_iterations + 1
    # the fit ends on its own rule well before the cap
    assert report.dictionary_stop in (vmf.STOP_UNCHANGED, vmf.STOP_GAIN)
    assert report.dictionary_iterations < learning.MAX_ITER
    assert report.dictionary_stop != vmf.STOP_MAX_ITER
    monkeypatch.setattr(learning, "MAX_ITER", 2)
    _, capped = train(pairs, tiny_backgrounds[:3], cfg)
    assert capped.dictionary_iterations == 2
    assert capped.dictionary_stop == vmf.STOP_MAX_ITER
    assert bundle.dictionary.size == cfg.k
    for cls in bundle.classes:
        assert len(cls.mixtures) == cfg.m
