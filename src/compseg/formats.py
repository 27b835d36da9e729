"""Serialized formats: MODEL files, RLE masks, annotations, manifests, graphs.

Everything binary is little-endian with a leading magic + version. Text
records are JSON with sorted keys so identical inputs serialize to identical
bytes. All writers go through an atomic temp-file + rename.
"""
from __future__ import annotations

import json
import math
import os
import struct
from dataclasses import dataclass, field

import numpy as np

from .errors import FormatError, ValidationError
from .fmap import BoundingBox, FeatureMap, atomic_write_bytes, load_feature_map, place
from .models import ClassModel, MixtureModel, OccluderModel
from .vmf import VmfDictionary

MODEL_MAGIC = b"CNMO"
MODEL_VERSION = 1


def _atom_dtype(dim: int) -> np.dtype:
    """A MODEL dictionary atom: a float32 mean of length `dim`, then the shared float64 sigma."""
    return np.dtype([("mean", "<f4", (dim,)), ("conc", "<f8")])


def atomic_write_text(path: str, text: str) -> None:
    atomic_write_bytes(path, text.encode("utf-8"))


def read_text(path: str) -> str:
    """A text file's contents; bytes that are not UTF-8 raise FormatError."""
    try:
        with open(path, "rb") as fh:
            return fh.read().decode("utf-8")
    except UnicodeDecodeError as exc:
        raise FormatError(f"{path}: not UTF-8 text: {exc}") from exc


def json_text(doc) -> str:
    """`doc` as canonical JSON text; a NaN or infinite number raises ValidationError."""
    try:
        return json.dumps(doc, sort_keys=True, indent=1, allow_nan=False)
    except ValueError as exc:
        raise ValidationError(f"not JSON: {exc}") from exc


def _reject_constant(token: str):
    raise ValueError(f"{token} is not a JSON number")


def _finite_float(literal: str) -> float:
    value = float(literal)
    if math.isinf(value):  # an overflowing literal like 1e400
        raise ValueError(f"{literal} is not a finite number")
    return value


def _parse_json(text: str, what: str):
    """`json.loads(text)`; bad JSON and NaN, Infinity or 1e400 raise FormatError."""
    try:
        return json.loads(text, parse_float=_finite_float, parse_constant=_reject_constant)
    except (ValueError, RecursionError) as exc:
        # ValueError: JSONDecodeError, a number that is not finite, or an
        # integer with more digits than `int` converts; RecursionError: arrays
        # or objects nested deeper than the parser recurses
        raise FormatError(f"{what}: {exc}") from exc


# A parsed document that is not a valid record: a missing key, a wrong type, a
# value a record type refuses, or an integer too large for float() (10**400).
_BAD_RECORD = (KeyError, TypeError, ValueError, OverflowError, ValidationError)


# ---------------------------------------------------------------------------
# model bundle


@dataclass(frozen=True)
class ModelBundle:
    """Everything a segmenter needs: dictionary, class models, occluder."""

    dictionary: VmfDictionary
    classes: tuple[ClassModel, ...]
    occluder: OccluderModel

    def __post_init__(self):
        object.__setattr__(self, "classes", tuple(self.classes))
        if not self.classes:
            raise ValidationError("model has no classes")
        k = self.dictionary.size
        if self.occluder.n_components != k:
            raise ValidationError("occluder K does not match dictionary")
        for cls in self.classes:
            for mix in cls.mixtures:
                if mix.n_components != k:
                    raise ValidationError(
                        f"class {cls.label!r} has a mixture with mismatched K"
                    )

    @property
    def labels(self) -> tuple[str, ...]:
        return tuple(c.label for c in self.classes)


def quantize_bundle(bundle: ModelBundle) -> ModelBundle:
    """Round every float32-serialized parameter through float32.

    Training assembles its output through this so that save/load round-trips
    are bit-exact on the in-memory parameters as well as on the file bytes.
    Simplex rows get their rounding residual folded into the largest entry;
    otherwise 64 independently rounded float32 entries can drift past the
    1e-6 sum tolerance enforced at load.
    """
    def f32(a):
        return np.asarray(a, dtype=np.float64).astype(np.float32).astype(np.float64)

    def f32_simplex(rows):
        a = f32(rows)
        flat = a.reshape(-1, a.shape[-1])
        idx = np.arange(flat.shape[0])
        top = np.argmax(flat, axis=1)
        fixed = flat[idx, top] + (1.0 - flat.sum(axis=1))
        flat[idx, top] = fixed.astype(np.float32).astype(np.float64)
        return flat.reshape(a.shape)

    dictionary = VmfDictionary(f32(bundle.dictionary.means), bundle.dictionary.concentration)
    classes = tuple(
        ClassModel(
            cls.label,
            tuple(
                MixtureModel(
                    f32(m.fg_prior), f32_simplex(m.fg_coeffs), f32_simplex(m.ctx_coeffs)
                )
                for m in cls.mixtures
            ),
        )
        for cls in bundle.classes
    )
    return ModelBundle(dictionary, classes, bundle.occluder)


def save_model(bundle: ModelBundle, path: str) -> None:
    parts = [MODEL_MAGIC, struct.pack("<H", MODEL_VERSION)]
    dic = bundle.dictionary
    parts.append(struct.pack("<II", dic.size, dic.dim))
    atoms = np.empty(dic.size, dtype=_atom_dtype(dic.dim))
    atoms["mean"], atoms["conc"] = dic.means, dic.concentration
    parts.append(atoms.tobytes())
    parts.append(bundle.occluder.coeffs.astype("<f8").tobytes())
    parts.append(struct.pack("<I", len(bundle.classes)))
    for cls in bundle.classes:
        raw = cls.label.encode("utf-8")
        if len(raw) > 0xFFFF:
            raise ValidationError(f"class label too long: {len(raw)} bytes")
        parts.append(struct.pack("<H", len(raw)))
        parts.append(raw)
        parts.append(struct.pack("<I", len(cls.mixtures)))
        for mix in cls.mixtures:
            h, w = mix.shape
            parts.append(struct.pack("<II", h, w))
            parts.append(mix.fg_prior.astype("<f4").tobytes())
            parts.append(mix.fg_coeffs.astype("<f4").tobytes())
            parts.append(mix.ctx_coeffs.astype("<f4").tobytes())
    atomic_write_bytes(path, b"".join(parts))


class _Reader:
    def __init__(self, blob: bytes, path: str):
        self.blob = blob
        self.pos = 0
        self.path = path

    def take(self, n: int) -> bytes:
        if self.pos + n > len(self.blob):
            raise FormatError(f"{self.path}: truncated at byte {self.pos}")
        out = self.blob[self.pos : self.pos + n]
        self.pos += n
        return out

    def unpack(self, fmt: str):
        return struct.unpack(fmt, self.take(struct.calcsize(fmt)))

    def array(self, dtype: str, count: int) -> np.ndarray:
        item = np.dtype(dtype).itemsize
        return np.frombuffer(self.take(count * item), dtype=dtype).copy()


def _widen(a: np.ndarray) -> np.ndarray:
    """A float32 payload as float64, without a warning for a signalling NaN.

    The cast turns such a NaN into a quiet one, which the finite checks of
    the model classes then reject.
    """
    with np.errstate(invalid="ignore"):
        return a.astype(np.float64)


def load_model(path: str) -> ModelBundle:
    with open(path, "rb") as fh:
        blob = fh.read()
    r = _Reader(blob, path)
    if r.take(4) != MODEL_MAGIC:
        raise FormatError(f"{path}: bad magic")
    (version,) = r.unpack("<H")
    if version != MODEL_VERSION:
        raise FormatError(f"{path}: unsupported version {version}")
    k, dim = r.unpack("<II")
    if k < 1 or dim < 2:
        raise FormatError(f"{path}: bad dictionary dims K={k}, D={dim}")
    # `take` checks the block's size before anything of size K x D exists,
    # the atom dtype included: numpy refuses a D past a C int.
    atoms = np.frombuffer(r.take(k * (4 * dim + 8)), dtype=_atom_dtype(dim))
    means = _widen(atoms["mean"])
    # one sigma, bit for bit in every atom: the model saves back to its bytes
    if np.any(atoms["conc"].view("<u8") != atoms["conc"][:1].view("<u8")):
        raise FormatError(f"{path}: dictionary atoms disagree on the concentration")
    beta = r.array("<f8", k)
    (n_classes,) = r.unpack("<I")
    classes = []  # (label, [(prior, fg, ctx) per mixture]), validated below
    for _ in range(n_classes):
        (label_len,) = r.unpack("<H")
        try:
            label = r.take(label_len).decode("utf-8")
        except UnicodeDecodeError as exc:
            raise FormatError(f"{path}: class label is not UTF-8: {exc}") from exc
        (m,) = r.unpack("<I")
        mixtures = []
        for _ in range(m):
            h, w = r.unpack("<II")
            if h < 1 or w < 1:
                raise FormatError(f"{path}: bad mixture shape {h}x{w}")
            prior = _widen(r.array("<f4", h * w)).reshape(h, w)
            fg = _widen(r.array("<f4", h * w * k)).reshape(h, w, k)
            ctx = _widen(r.array("<f4", h * w * k)).reshape(h, w, k)
            mixtures.append((prior, fg, ctx))
        classes.append((label, mixtures))
    if r.pos != len(blob):
        raise FormatError(f"{path}: {len(blob) - r.pos} trailing bytes")
    try:
        dictionary = VmfDictionary(means, atoms["conc"][0])
        occluder = OccluderModel(beta)
        models = tuple(
            ClassModel(label, tuple(MixtureModel(*planes) for planes in mixtures))
            for label, mixtures in classes
        )
        return ModelBundle(dictionary, models, occluder)
    except ValidationError as exc:
        raise FormatError(f"{path}: invalid model: {exc}") from exc


# ---------------------------------------------------------------------------
# run-length masks


def encode_rle(mask: np.ndarray) -> str:
    """Row-major run lengths, alternating and starting with a zeros run."""
    m = np.asarray(mask)
    if m.dtype != np.bool_:
        raise ValidationError("RLE input must be a boolean mask")
    flat = m.reshape(-1)
    n = flat.size
    if n == 0:
        return ""
    changes = np.flatnonzero(flat[1:] != flat[:-1]) + 1
    runs = np.diff(np.concatenate(([0], changes, [n]))).tolist()
    if flat[0]:
        runs.insert(0, 0)
    return " ".join(map(str, runs))


def _check_lattice(shape: tuple[int, int]) -> None:
    if shape[0] < 0 or shape[1] < 0:
        raise FormatError(f"lattice {shape[0]}x{shape[1]} has a negative side")


def decode_rle(text: str, shape: tuple[int, int]) -> np.ndarray:
    _check_lattice(shape)
    if not isinstance(text, str):
        raise FormatError(f"RLE must be a string, got {type(text).__name__}")
    try:
        runs = [int(tok) for tok in text.split()]
    except ValueError as exc:
        raise FormatError(f"bad RLE token: {exc}") from exc
    total = shape[0] * shape[1]
    if sum(runs) != total:
        raise FormatError(f"RLE sums to {sum(runs)}, lattice has {total} pixels")
    if any(x < 0 for x in runs):
        raise FormatError("RLE runs must be non-negative")
    # One mask, one string: a reader that took "42 0" for "42" would change the field.
    if 0 in runs[1:] or " ".join(map(str, runs)) != text:
        raise FormatError("RLE is not canonical: runs after the first must be positive, "
                          "single-spaced decimals")
    # Runs alternate False, True, False, ...: each run repeats its parity.
    try:
        return np.repeat(np.arange(len(runs)) % 2 == 1, runs).reshape(shape)
    except (MemoryError, OverflowError, ValueError) as exc:
        # numpy cannot allocate the lattice, index its runs or give it its shape
        raise FormatError(f"RLE lattice {shape[0]}x{shape[1]} is too large to allocate") from exc


# ---------------------------------------------------------------------------
# scene annotations (ground truth and predictions share the object layout)
#
# An object's masks never leave its box, so in memory a record holds them on
# the box's lattice. On disk each is a run-length string over the whole scene
# lattice: the writer places the mask there, and the reader keeps the box
# window of what it decodes, refusing a box that does not fit the lattice and
# a mask pixel outside the box.


@dataclass
class ObjectRecord:
    oid: int
    label: str
    template: int
    box: BoundingBox
    depth: int                   # depth rank, 0 = frontmost; -1 in predictions
    occlusion: float             # ground-truth fraction; predicted: -1.0
    level: str                   # L0..L3 or "over90"
    amodal: np.ndarray           # bool on the box's lattice, box.shape; full-lattice RLE on disk
    modal: np.ndarray            # the same, inside amodal
    score: float = 0.0

    def __post_init__(self):
        for name in ("amodal", "modal"):
            shape = np.shape(getattr(self, name))
            if shape != self.box.shape:
                raise ValidationError(
                    f"object {self.oid}: {name} mask {shape} is not on its box's lattice "
                    f"{self.box.shape}"
                )


@dataclass
class SceneAnnotation:
    scene_id: str
    scenario: str
    split: str
    shape: tuple[int, int]
    objects: list[ObjectRecord]
    order_edges: list[tuple]     # (front, back) or (front, back, vf, vb, csize)
    unknown: np.ndarray | None = None
    extra: dict = field(default_factory=dict)


def annotation_to_json(ann: SceneAnnotation) -> str:
    """`ann` as canonical JSON text, each mask a run-length string over the scene lattice."""
    objs = []
    for o in ann.objects:
        objs.append(
            {
                "id": o.oid,
                "class": o.label,
                "template": o.template,
                "box": list(o.box.as_tuple()),
                "depth": o.depth,
                "occlusion": round(float(o.occlusion), 9),
                "level": o.level,
                "score": round(float(o.score), 9),
                "amodal_rle": encode_rle(place(o.amodal, o.box, ann.shape)),
                "modal_rle": encode_rle(place(o.modal, o.box, ann.shape)),
            }
        )
    doc = {
        "scene_id": ann.scene_id,
        "scenario": ann.scenario,
        "split": ann.split,
        "shape": list(ann.shape),
        "objects": objs,
        "order_edges": [list(e) for e in ann.order_edges],
        "unknown_rle": None if ann.unknown is None else encode_rle(ann.unknown),
        "extra": ann.extra,
    }
    return json_text(doc)


def _field(value, kinds: tuple[type, ...], name: str):
    """`value` when its exact type is one of `kinds`, so a bool is never an
    int and nothing is converted; otherwise a TypeError naming the field,
    which each reader reports as a FormatError."""
    if type(value) not in kinds:
        raise TypeError(
            f"field {name!r} must be {' or '.join(k.__name__ for k in kinds)}, "
            f"got {type(value).__name__}"
        )
    return value


def _integers(value, lengths: tuple[int, ...], name: str) -> tuple[int, ...]:
    if len(_field(value, (list,), name)) not in lengths:
        raise TypeError(f"field {name!r} must hold {' or '.join(map(str, lengths))} integers")
    return tuple(_field(v, (int,), name) for v in value)


def _check_order_graph(objects: list[ObjectRecord], edges: list[tuple]) -> None:
    """Object ids are unique, and every edge joins two distinct ones.

    A pair is ordered at most once, in either direction: the scorers keep
    one direction per pair, so a second edge would silently replace the first.
    """
    ids = [o.oid for o in objects]
    known = set(ids)
    if len(known) != len(ids):
        raise FormatError(f"duplicate object id in {ids}")
    pairs = set()
    for edge in edges:
        front, back = edge[:2]
        if front == back:
            raise FormatError(f"order edge {list(edge)} joins object {front} to itself")
        if front not in known or back not in known:
            raise FormatError(f"order edge {list(edge)} names an object not in {sorted(known)}")
        pair = frozenset((front, back))
        if pair in pairs:
            raise FormatError(f"order edge {list(edge)} orders a pair an earlier edge orders")
        pairs.add(pair)


def _box_window(text: str, shape: tuple[int, int], box: BoundingBox, what: str) -> np.ndarray:
    """The box window of a full-lattice RLE mask, as its own array; a mask
    pixel outside the box raises FormatError."""
    mask = decode_rle(text, shape)
    window = mask[box.slices].copy()  # a copy, so the full plane is freed
    if np.count_nonzero(window) != np.count_nonzero(mask):
        raise FormatError(f"{what} mask has a pixel outside box {list(box.as_tuple())}")
    return window


def annotation_from_json(text: str) -> SceneAnnotation:
    """A scene annotation, each object's masks cut to its box's lattice.

    A malformed record or order graph, a box that does not fit the lattice
    and a mask pixel outside its object's box raise FormatError.
    """
    doc = _parse_json(text, "bad annotation JSON")
    try:
        shape = _integers(doc["shape"], (2,), "shape")
        _check_lattice(shape)
        objects = []
        for o in _field(doc["objects"], (list,), "objects"):
            oid = _field(o["id"], (int,), "id")
            box = BoundingBox(*_integers(o["box"], (4,), "box"))
            if not box.fits_in(*shape):
                raise FormatError(
                    f"object {oid}: box {list(box.as_tuple())} does not fit lattice "
                    f"{shape[0]}x{shape[1]}"
                )
            objects.append(
                ObjectRecord(
                    oid=oid,
                    label=_field(o["class"], (str,), "class"),
                    template=_field(o["template"], (int,), "template"),
                    box=box,
                    depth=_field(o["depth"], (int,), "depth"),
                    occlusion=float(_field(o["occlusion"], (int, float), "occlusion")),
                    level=_field(o["level"], (str,), "level"),
                    amodal=_box_window(o["amodal_rle"], shape, box, f"object {oid}: amodal"),
                    modal=_box_window(o["modal_rle"], shape, box, f"object {oid}: modal"),
                    score=float(_field(o.get("score", 0.0), (int, float), "score")),
                )
            )
        edges = [
            _integers(e, (2, 5), "order_edges")
            for e in _field(doc.get("order_edges", []), (list,), "order_edges")
        ]
        _check_order_graph(objects, edges)
        unknown_rle = doc.get("unknown_rle")
        return SceneAnnotation(
            scene_id=_field(doc["scene_id"], (str,), "scene_id"),
            scenario=_field(doc["scenario"], (str,), "scenario"),
            split=_field(doc["split"], (str,), "split"),
            shape=shape,
            objects=objects,
            order_edges=edges,
            unknown=None if unknown_rle is None else decode_rle(unknown_rle, shape),
            extra=dict(_field(doc.get("extra", {}), (dict,), "extra")),
        )
    except _BAD_RECORD as exc:
        raise FormatError(f"bad annotation record: {exc}") from exc


# ---------------------------------------------------------------------------
# manifest


@dataclass
class ManifestEntry:
    scene_id: str
    fmap_path: str        # relative to the manifest directory
    annotation_path: str
    split: str
    scenario: str
    level: str


@dataclass
class Manifest:
    root: str
    entries: list[ManifestEntry]
    config: dict = field(default_factory=dict)

    def select(self, split: str | None = None, scenario: str | None = None):
        out = self.entries
        if split is not None:
            out = [e for e in out if e.split == split]
        if scenario is not None:
            out = [e for e in out if e.scenario == scenario]
        return out


def save_manifest(manifest: Manifest, path: str) -> None:
    doc = {
        "version": 1,
        "config": manifest.config,
        "scenes": [
            {
                "id": e.scene_id,
                "fmap": e.fmap_path,
                "annotation": e.annotation_path,
                "split": e.split,
                "scenario": e.scenario,
                "level": e.level,
            }
            for e in manifest.entries
        ],
    }
    atomic_write_text(path, json_text(doc))


def load_manifest(path: str) -> Manifest:
    doc = _parse_json(read_text(path), f"{path}: bad manifest JSON")
    if not isinstance(doc, dict):
        raise FormatError(f"{path}: manifest must be a JSON object, got {type(doc).__name__}")
    version = doc.get("version")
    if type(version) is not int or version != 1:
        raise FormatError(f"{path}: unsupported manifest version {version!r}")
    entries = []
    try:
        for s in _field(doc["scenes"], (list,), "scenes"):
            entries.append(
                ManifestEntry(
                    scene_id=_field(s["id"], (str,), "id"),
                    fmap_path=_field(s["fmap"], (str,), "fmap"),
                    annotation_path=_field(s["annotation"], (str,), "annotation"),
                    split=_field(s["split"], (str,), "split"),
                    scenario=_field(s["scenario"], (str,), "scenario"),
                    level=_field(s["level"], (str,), "level"),
                )
            )
        config = dict(_field(doc.get("config", {}), (dict,), "config"))
    except _BAD_RECORD as exc:
        raise FormatError(f"{path}: bad manifest entry: {exc}") from exc
    seen: set[str] = set()
    for e in entries:
        if e.scene_id in seen:
            raise FormatError(f"{path}: duplicate scene id {e.scene_id!r}")
        seen.add(e.scene_id)
    return Manifest(os.path.dirname(os.path.abspath(path)), entries, config)


def read_annotation(path: str) -> SceneAnnotation:
    """The annotation file at `path`; its FormatError names the file."""
    text = read_text(path)
    try:
        return annotation_from_json(text)
    except FormatError as exc:
        raise FormatError(f"{path}: {exc}") from exc


def read_scene(fmap_path: str, annotation_path: str) -> tuple[FeatureMap, SceneAnnotation]:
    """A scene's feature map and annotation; differing lattices raise FormatError."""
    fmap = load_feature_map(fmap_path)
    ann = read_annotation(annotation_path)
    if ann.shape != fmap.shape:
        raise FormatError(
            f"{ann.scene_id}: annotation lattice {ann.shape} != feature map {fmap.shape}"
        )
    return fmap, ann


def load_scene(manifest: Manifest, entry: ManifestEntry) -> tuple[FeatureMap, SceneAnnotation]:
    """An entry's scene; a path that is absolute or leaves `manifest.root` raises FormatError."""
    paths = []
    for path in (entry.fmap_path, entry.annotation_path):
        if os.path.isabs(path) or os.path.normpath(path).split(os.sep)[0] == os.pardir:
            raise FormatError(f"{entry.scene_id}: {path!r} is not inside the manifest directory")
        paths.append(os.path.join(manifest.root, path))
    return read_scene(*paths)


# ---------------------------------------------------------------------------
# order graph text


def order_graph_lines(edges) -> str:
    """One line per edge: "front -> back votes_front votes_back |C|"."""
    lines = [
        f"{front} -> {back} {votes_front} {votes_back} {csize}"
        for (front, back, votes_front, votes_back, csize) in edges
    ]
    return "\n".join(lines) + ("\n" if lines else "")
