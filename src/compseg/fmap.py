"""Feature-grid primitives: unit-norm feature maps, boxes, masks, FMAP files.

A feature map is an H x W grid of D-dimensional unit vectors stored as
float32, matching the on-disk FMAP layout. A crop is a read-only view of its
map under a box, so cropping copies nothing. Masks are plain boolean numpy
arrays on the same lattice; boxes use half-open pixel coordinates with
x = column and y = row. An object's masks live on its box's lattice; `place`
puts one on a scene lattice where objects' masks are combined.
"""
from __future__ import annotations

import operator
import os
import struct
import tempfile
from dataclasses import dataclass

import numpy as np

from .errors import FormatError, ValidationError

FMAP_MAGIC = b"FMAP"
FMAP_VERSION = 1

# Vectors whose norm is already within this tolerance of 1 are kept bit-exact
# so that load(save(x)) round-trips the payload byte for byte.
UNIT_NORM_TOL = 1e-6
_ZERO_NORM_TOL = 1e-12


def atomic_write_bytes(path: str, payload: bytes) -> None:
    """Write payload to path via a temp file + rename in the same directory."""
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", suffix="~")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(payload)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


@dataclass(frozen=True)
class BoundingBox:
    """Half-open pixel box on the feature lattice (x = column, y = row)."""

    x0: int
    y0: int
    x1: int
    y1: int

    def __post_init__(self):
        coords = (self.x0, self.y0, self.x1, self.y1)
        try:
            # operator.index takes Python and numpy integers and nothing that
            # merely compares equal to one, like 2.0; a bool is refused too
            if any(isinstance(c, (bool, np.bool_)) for c in coords):
                raise TypeError
            coords = tuple(operator.index(c) for c in coords)
        except TypeError:
            raise ValidationError(f"box coordinates must be integers: {coords}") from None
        for name, value in zip(("x0", "y0", "x1", "y1"), coords):
            object.__setattr__(self, name, value)
        if self.x1 <= self.x0 or self.y1 <= self.y0:
            raise ValidationError(f"box must have positive area: {coords}")
        if self.x0 < 0 or self.y0 < 0:
            raise ValidationError(f"box must not have negative corners: {coords}")

    @property
    def width(self) -> int:
        return self.x1 - self.x0

    @property
    def height(self) -> int:
        return self.y1 - self.y0

    @property
    def shape(self) -> tuple[int, int]:
        return (self.height, self.width)

    @property
    def slices(self) -> tuple[slice, slice]:
        return (slice(self.y0, self.y1), slice(self.x0, self.x1))

    def fits_in(self, height: int, width: int) -> bool:
        return self.x1 <= width and self.y1 <= height

    def as_tuple(self) -> tuple[int, int, int, int]:
        return (self.x0, self.y0, self.x1, self.y1)


def _normalize_rows(data: np.ndarray) -> np.ndarray:
    """Renormalise feature vectors to unit length, keeping near-unit bits."""
    # A signalling NaN widens to a quiet one that the finite check rejects.
    with np.errstate(invalid="ignore"):
        norms = np.linalg.norm(data.astype(np.float64, copy=False), axis=-1)
    if not np.all(np.isfinite(norms)):
        raise ValidationError("feature map contains non-finite values")
    if np.any(norms < _ZERO_NORM_TOL):
        raise ValidationError("feature map contains a zero-norm vector")
    needs = np.abs(norms - 1.0) > UNIT_NORM_TOL
    if not np.any(needs):
        return data
    out = data.copy()
    scaled = out[needs].astype(np.float64) / norms[needs][..., None]
    out[needs] = scaled.astype(np.float32)
    return out


@dataclass(frozen=True)
class FeatureMap:
    """H x W grid of unit-norm D-vectors (float32; row-major, or a crop's view)."""

    data: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.data)
        if arr.ndim != 3:
            raise ValidationError(f"feature map must be 3-d, got {arr.shape}")
        if arr.shape[0] < 1 or arr.shape[1] < 1 or arr.shape[2] < 1:
            raise ValidationError(f"feature map has empty dimension: {arr.shape}")
        arr = np.ascontiguousarray(arr, dtype=np.float32)
        arr = _normalize_rows(arr)
        arr.setflags(write=False)
        object.__setattr__(self, "data", arr)

    @classmethod
    def _trusted(cls, data: np.ndarray) -> "FeatureMap":
        """A map over data sliced from an already-validated map.

        Its rows passed `_normalize_rows` when that map was built, so this
        only makes the array read-only: it neither copies nor renormalises.
        """
        data.setflags(write=False)
        fm = object.__new__(cls)
        object.__setattr__(fm, "data", data)
        return fm

    @property
    def height(self) -> int:
        return self.data.shape[0]

    @property
    def width(self) -> int:
        return self.data.shape[1]

    @property
    def dim(self) -> int:
        return self.data.shape[2]

    @property
    def shape(self) -> tuple[int, int]:
        return self.data.shape[:2]

    def flat(self) -> np.ndarray:
        """(H*W, D) float64 copy of the grid for batched math."""
        # Widening first copies a strided view once; its reshape is then free.
        return self.data.astype(np.float64).reshape(-1, self.dim)


def crop(fm: FeatureMap, box: BoundingBox) -> FeatureMap:
    """The subgrid under box as a read-only view of fm's data, not a copy.

    The box must lie inside the map. The view is strided unless the box
    spans the map's full width; its rows are not renormalised. Readers that
    need contiguous or wider rows make their own copy (`FeatureMap.flat`).
    """
    if not box.fits_in(fm.height, fm.width):
        raise ValidationError(
            f"box {box.as_tuple()} does not fit map of shape {fm.shape}"
        )
    return FeatureMap._trusted(fm.data[box.slices])


def place(mask: np.ndarray, box: BoundingBox, shape: tuple[int, int]) -> np.ndarray:
    """A box-lattice boolean `mask` placed on a `shape` lattice, False outside the box.

    The one way objects' masks meet on a shared lattice. The mask must have
    the box's shape, and the box must fit the lattice.
    """
    if np.shape(mask) != box.shape:
        raise ValidationError(f"mask {np.shape(mask)} does not cover box {box.shape}")
    if not box.fits_in(*shape):
        raise ValidationError(f"box {box.as_tuple()} does not fit lattice {shape[0]}x{shape[1]}")
    out = np.zeros(shape, dtype=np.bool_)
    out[box.slices] = mask
    return out


def iou(mask_a: np.ndarray, mask_b: np.ndarray) -> float:
    """Intersection over union of two boolean masks on a shared lattice.

    Two empty masks have IoU 1.0 (vacuous agreement).
    """
    a = np.asarray(mask_a)
    b = np.asarray(mask_b)
    if a.shape != b.shape:
        raise ValidationError(f"mask shapes differ: {a.shape} vs {b.shape}")
    if a.dtype != np.bool_ or b.dtype != np.bool_:
        raise ValidationError("masks must be boolean arrays")
    union = np.count_nonzero(a | b)
    if union == 0:
        return 1.0
    inter = np.count_nonzero(a & b)
    return inter / union


def resample_nearest(arr: np.ndarray, out_shape: tuple[int, int]) -> np.ndarray:
    """Nearest-neighbour resample of a (H, W, ...) array to (h, w, ...)."""
    h_out, w_out = out_shape
    h_in, w_in = arr.shape[:2]
    if (h_out, w_out) == (h_in, w_in):
        return arr
    rows = np.minimum((np.arange(h_out) + 0.5) * h_in / h_out, h_in - 1).astype(int)
    cols = np.minimum((np.arange(w_out) + 0.5) * w_in / w_out, w_in - 1).astype(int)
    return arr[rows][:, cols]


def save_feature_map(fm: FeatureMap, path: str) -> None:
    header = FMAP_MAGIC + struct.pack(
        "<HIII", FMAP_VERSION, fm.height, fm.width, fm.dim
    )
    payload = fm.data.astype("<f4", copy=False).tobytes()
    atomic_write_bytes(path, header + payload)


def load_feature_map(path: str) -> FeatureMap:
    with open(path, "rb") as fh:
        blob = fh.read()
    if len(blob) < 18:
        raise FormatError(f"{path}: truncated header ({len(blob)} bytes)")
    if blob[:4] != FMAP_MAGIC:
        raise FormatError(f"{path}: bad magic {blob[:4]!r}")
    version, height, width, dim = struct.unpack("<HIII", blob[4:18])
    if version != FMAP_VERSION:
        raise FormatError(f"{path}: unsupported version {version}")
    if height < 1 or width < 1 or dim < 1:
        raise FormatError(f"{path}: bad dimensions {height}x{width}x{dim}")
    expected = 18 + height * width * dim * 4
    if len(blob) != expected:
        raise FormatError(
            f"{path}: payload size mismatch, expected {expected} bytes, got {len(blob)}"
        )
    data = np.frombuffer(blob, dtype="<f4", offset=18).reshape(height, width, dim)
    try:
        return FeatureMap(data)
    except ValidationError as exc:  # a non-finite or zero-norm payload row
        raise FormatError(f"{path}: {exc}") from exc
