import re
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from compseg import fmap
from compseg.errors import CompsegError, FormatError, ValidationError
from compseg.fmap import (
    BoundingBox,
    FeatureMap,
    crop,
    iou,
    load_feature_map,
    resample_nearest,
    save_feature_map,
)
from compseg.models import MixtureModel, OccluderModel, likelihood_maps
from compseg.vmf import VmfDictionary, sample_uniform_sphere


def unit_grid(rng, h, w, d):
    raw = rng.normal(size=(h, w, d))
    return (raw / np.linalg.norm(raw, axis=2, keepdims=True)).astype(np.float32)


# ---------------------------------------------------------------------------
# BoundingBox


def test_box_basic_properties():
    box = BoundingBox(2, 1, 6, 4)
    assert box.width == 4
    assert box.height == 3
    assert box.shape == (3, 4)
    assert box.as_tuple() == (2, 1, 6, 4)
    grid = np.zeros((10, 10))
    grid[box.slices] = 1
    assert grid.sum() == 12
    assert grid[1, 2] == 1 and grid[3, 5] == 1
    assert grid[4, 5] == 0 and grid[1, 6] == 0


@pytest.mark.parametrize(
    "coords",
    [(0, 0, 0, 5), (3, 0, 3, 5), (5, 2, 1, 4), (-1, 0, 4, 4), (0, -2, 4, 4)],
)
def test_box_rejects_degenerate(coords):
    with pytest.raises(ValidationError):
        BoundingBox(*coords)


@pytest.mark.parametrize(
    "coords",
    [
        (2.0, 0, 4, 4), (0, 0, 4.5, 4), (float("nan"), 0, 4, 4), (0, float("inf"), 4, 4),
        ("1", 0, 4, 4), (None, 0, 4, 4), (True, 0, 4, 4), (0, 0, np.bool_(True), 4),
        (0, 0, np.float64(4), 4),
    ],
)
def test_box_accepts_integers_only(coords):
    # anything but an integer is a ValidationError naming the coordinates,
    # never a bare ValueError, OverflowError or TypeError
    with pytest.raises(ValidationError, match="box coordinates must be integers"):
        BoundingBox(*coords)


def test_box_stores_numpy_integers_as_python_ints():
    box = BoundingBox(np.int64(1), np.uint8(0), np.int32(3), 2)
    assert box.as_tuple() == (1, 0, 3, 2)
    assert all(type(c) is int for c in box.as_tuple())


def _share_a_pixel(a: BoundingBox, b: BoundingBox) -> bool:
    """Whether the two boxes' slices pick a common pixel of an 8 x 8 lattice."""
    ma = np.zeros((8, 8), dtype=bool)
    mb = np.zeros((8, 8), dtype=bool)
    ma[a.slices] = True
    mb[b.slices] = True
    return bool((ma & mb).any())


def test_box_overlap_and_intersection():
    a = BoundingBox(0, 0, 4, 4)
    b = BoundingBox(2, 2, 6, 6)
    c = BoundingBox(4, 0, 8, 4)
    assert _share_a_pixel(a, b) and _share_a_pixel(b, a)
    assert not _share_a_pixel(a, c)  # half-open: edge-touching boxes do not overlap
    assert a.fits_in(4, 4)
    assert not a.fits_in(4, 3)


# ---------------------------------------------------------------------------
# FeatureMap


def test_feature_map_accepts_unit_rows_and_is_readonly():
    rng = np.random.default_rng(0)
    fm = FeatureMap(unit_grid(rng, 5, 4, 8))
    assert fm.shape == (5, 4)
    assert fm.dim == 8
    with pytest.raises(ValueError):
        fm.data[0, 0, 0] = 2.0
    flat = fm.flat()
    assert flat.shape == (20, 8)
    assert flat.dtype == np.float64


def test_feature_map_renormalizes_but_keeps_unit_bits():
    rng = np.random.default_rng(1)
    good = unit_grid(rng, 3, 3, 4)
    # already-unit rows pass through bit-identically
    assert np.array_equal(FeatureMap(good).data, good)
    # scaled rows come back unit-norm
    fixed = FeatureMap(good * 1.5)
    norms = np.linalg.norm(fixed.data.astype(np.float64), axis=2)
    assert np.abs(norms - 1.0).max() < 1e-6


def test_feature_map_rejects_bad_input():
    rng = np.random.default_rng(1)
    good = unit_grid(rng, 3, 3, 4)
    with pytest.raises(ValidationError):
        FeatureMap(np.zeros((3, 3, 4), dtype=np.float32))
    bad = good.copy()
    bad[1, 1, 0] = np.nan
    with pytest.raises(ValidationError):
        FeatureMap(bad)
    with pytest.raises(ValidationError):
        FeatureMap(good[0])


def test_crop_matches_slices():
    rng = np.random.default_rng(2)
    fm = FeatureMap(unit_grid(rng, 8, 9, 4))
    box = BoundingBox(3, 1, 7, 6)
    patch = crop(fm, box)
    assert patch.shape == (5, 4)
    assert np.array_equal(patch.data, fm.data[1:6, 3:7])
    with pytest.raises(ValidationError):
        crop(fm, BoundingBox(6, 0, 10, 4))


def test_crop_is_a_readonly_view_without_renormalising(monkeypatch):
    rng = np.random.default_rng(3)
    fm = FeatureMap(unit_grid(rng, 8, 9, 4))
    dictionary = VmfDictionary(sample_uniform_sphere(rng, 5, 4), rng.uniform(1.0, 30.0))
    occluder = OccluderModel(np.full(5, 0.2))

    def mixture(h, w):
        fg, ctx = (raw / raw.sum(axis=-1, keepdims=True)
                   for raw in rng.uniform(0.1, 1.0, size=(2, h, w, 5)))
        return MixtureModel(rng.uniform(0.0, 1.0, size=(h, w)), fg, ctx)

    mixtures = [[mixture(3, 3), mixture(6, 2)], [mixture(4, 5)]]

    def must_not_run(data):
        raise AssertionError("crop renormalised rows of an already-validated map")

    monkeypatch.setattr(fmap, "_normalize_rows", must_not_run)
    # an inner box (a strided slice) and a full-width box (a contiguous one)
    for box in (BoundingBox(3, 1, 7, 6), BoundingBox(0, 2, 9, 5)):
        patch = crop(fm, box)
        want = fm.data[box.slices]
        assert patch.data.dtype == want.dtype and patch.data.shape == want.shape
        assert patch.data.tobytes() == want.tobytes()
        assert np.shares_memory(patch.data, fm.data)
        assert not patch.data.flags.writeable
        # the candidate maps of the view are those of a contiguous copy, bit
        # for bit: the evidence and every gather onto the crop's lattice
        copy = FeatureMap._trusted(np.ascontiguousarray(want))
        got = likelihood_maps(patch, mixtures, dictionary, occluder)
        ref = likelihood_maps(copy, mixtures, dictionary, occluder)
        assert got.table.tobytes() == ref.table.tobytes()
        assert got.amodal.tobytes() == ref.amodal.tobytes()
    assert not crop(fm, BoundingBox(3, 1, 7, 6)).data.flags.c_contiguous


# ---------------------------------------------------------------------------
# iou / resample


def test_iou_counts():
    a = np.zeros((4, 4), dtype=np.bool_)
    b = np.zeros((4, 4), dtype=np.bool_)
    a[:2] = True
    b[1:3] = True
    assert iou(a, b) == pytest.approx(4 / 12)
    assert iou(a, a) == 1.0
    assert iou(np.zeros_like(a), np.zeros_like(b)) == 1.0
    with pytest.raises(ValidationError):
        iou(a, b[:3])
    with pytest.raises(ValidationError):
        iou(a.astype(int), b)


def test_resample_nearest_identity_and_ratio():
    arr = np.arange(12).reshape(3, 4)
    assert resample_nearest(arr, (3, 4)) is arr
    up = resample_nearest(arr, (6, 8))
    assert up.shape == (6, 8)
    # each source cell becomes a 2x2 block
    assert np.array_equal(up[0:2, 0:2], np.zeros((2, 2), dtype=int))
    assert np.array_equal(up[4:6, 6:8], np.full((2, 2), 11))
    down = resample_nearest(up, (3, 4))
    assert np.array_equal(down, arr)


@given(
    st.integers(1, 12), st.integers(1, 12), st.integers(1, 12), st.integers(1, 12)
)
@settings(max_examples=60, deadline=None)
def test_resample_nearest_shapes_and_range(h_in, w_in, h_out, w_out):
    arr = np.arange(h_in * w_in).reshape(h_in, w_in)
    out = resample_nearest(arr, (h_out, w_out))
    assert out.shape == (h_out, w_out)
    # nearest-neighbour never invents values
    assert np.isin(out, arr).all()


# ---------------------------------------------------------------------------
# file round trip


def test_save_load_roundtrip_bit_exact(tmp_path):
    rng = np.random.default_rng(3)
    fm = FeatureMap(unit_grid(rng, 7, 5, 16))
    path = tmp_path / "scene.fmap"
    save_feature_map(fm, str(path))
    back = load_feature_map(str(path))
    assert np.array_equal(back.data, fm.data)
    assert back.data.dtype == np.float32
    # identical bytes when saved again
    save_feature_map(back, str(tmp_path / "again.fmap"))
    assert (tmp_path / "again.fmap").read_bytes() == path.read_bytes()


def test_load_rejects_corrupted(tmp_path):
    rng = np.random.default_rng(4)
    fm = FeatureMap(unit_grid(rng, 3, 3, 4))
    path = tmp_path / "scene.fmap"
    save_feature_map(fm, str(path))
    blob = bytearray(path.read_bytes())

    bad_magic = tmp_path / "magic.fmap"
    bad_magic.write_bytes(b"XMAP" + bytes(blob[4:]))
    with pytest.raises(FormatError):
        load_feature_map(str(bad_magic))

    truncated = tmp_path / "trunc.fmap"
    truncated.write_bytes(bytes(blob[:-7]))
    with pytest.raises(FormatError):
        load_feature_map(str(truncated))

    empty = tmp_path / "empty.fmap"
    empty.write_bytes(b"")
    with pytest.raises(FormatError):
        load_feature_map(str(empty))


@pytest.mark.filterwarnings("error")
def test_load_rejects_signalling_nan_without_a_warning(tmp_path):
    rng = np.random.default_rng(5)
    path = tmp_path / "scene.fmap"
    save_feature_map(FeatureMap(unit_grid(rng, 3, 3, 4)), str(path))
    blob = path.read_bytes()
    # float32 bits of a signalling NaN as the first payload value
    path.write_bytes(blob[:18] + struct.pack("<I", 0x7F800001) + blob[22:])
    with pytest.raises(FormatError, match=f"^{re.escape(str(path))}: .*non-finite"):
        load_feature_map(str(path))


@pytest.mark.parametrize("row, reason", [
    ([np.nan, 0.0, 0.0, 0.0], "feature map contains non-finite values"),
    ([np.inf, 1.0, 0.0, 0.0], "feature map contains non-finite values"),
    ([0.0, 0.0, 0.0, 0.0], "feature map contains a zero-norm vector"),
])
def test_load_rejects_a_payload_row_the_map_refuses_naming_the_file(tmp_path, row, reason):
    """A payload row that `FeatureMap` refuses is malformed file content."""
    rng = np.random.default_rng(6)
    path = tmp_path / "scene.fmap"
    save_feature_map(FeatureMap(unit_grid(rng, 3, 3, 4)), str(path))
    blob = path.read_bytes()
    at = 18 + 4 * 4 * 4  # row (1, 1) of the 3x3x4 payload
    path.write_bytes(blob[:at] + np.asarray(row, dtype="<f4").tobytes() + blob[at + 16:])
    with pytest.raises(FormatError) as caught:
        load_feature_map(str(path))
    assert str(caught.value) == f"{path}: {reason}"


def _mutations(blob: bytes, rng: np.random.Generator, count: int):
    """`count` seeded corruptions of a valid FMAP file: byte flips,
    truncations, extensions, rewritten header fields and payload floats
    set to special values."""
    # (offset, format, values) of the version, height, width and dim fields;
    # the dimension values include every factorisation of a 3x3x4 payload
    dims = (0, 1, 2, 3, 4, 9, 12, 36, 2**31, 2**32 - 1)
    fields = ((4, "<H", (0, 2, 2**16 - 1)), (6, "<I", dims), (10, "<I", dims), (14, "<I", dims))
    floats = (0.0, -0.0, 1e-45, 1e-30, 3.4e38, np.inf, -np.inf, np.nan)
    for _ in range(count):
        out = bytearray(blob)
        kind = rng.integers(5)
        if kind == 0:
            for pos in rng.integers(len(out), size=rng.integers(1, 4)):
                out[pos] ^= int(rng.integers(1, 256))
        elif kind == 1:
            del out[rng.integers(len(out)):]
        elif kind == 2:
            out += rng.bytes(int(rng.integers(1, 40)))
        elif kind == 3:
            at, fmt, values = fields[rng.integers(len(fields))]
            value = values[rng.integers(len(values))]
            out[at : at + struct.calcsize(fmt)] = struct.pack(fmt, value)
        else:
            at = 18 + 4 * int(rng.integers((len(out) - 18) // 4))
            out[at : at + 4] = struct.pack("<f", floats[rng.integers(len(floats))])
        yield bytes(out)


@pytest.mark.filterwarnings("error")
def test_load_feature_map_survives_seeded_mutations(tmp_path):
    """A corrupted FMAP file either loads as a map of unit rows or raises a
    `CompsegError`: no other exception and no warning."""
    rng = np.random.default_rng(31)
    path = tmp_path / "scene.fmap"
    save_feature_map(FeatureMap(unit_grid(rng, 3, 3, 4)), str(path))
    blob = path.read_bytes()
    loaded = 0
    for mutant in _mutations(blob, rng, 400):
        path.write_bytes(mutant)
        try:
            fm = load_feature_map(str(path))
        except CompsegError:
            continue
        loaded += 1
        assert len(mutant) == 18 + 4 * fm.data.size
        norms = np.linalg.norm(fm.data.astype(np.float64), axis=-1)
        assert np.all(np.abs(norms - 1.0) < 1e-5)
    assert 0 < loaded < 400
