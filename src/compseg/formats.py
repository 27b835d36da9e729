"""Serialized formats: MODEL files, RLE masks, annotations, manifests, graphs.

Everything binary is little-endian with a leading magic + version. Text
records are JSON with sorted keys so identical inputs serialize to identical
bytes. All writers go through an atomic temp-file + rename.
"""
from __future__ import annotations

import json
import os
import struct
from dataclasses import dataclass, field

import numpy as np

from .errors import FormatError, ValidationError
from .fmap import BoundingBox, FeatureMap, atomic_write_bytes, load_feature_map
from .models import ClassModel, MixtureModel, OccluderModel
from .vmf import VmfDictionary

MODEL_MAGIC = b"CNMO"
MODEL_VERSION = 1


def atomic_write_text(path: str, text: str) -> None:
    atomic_write_bytes(path, text.encode("utf-8"))


def read_text(path: str) -> str:
    """A text file's contents; bytes that are not UTF-8 raise FormatError."""
    try:
        with open(path, "rb") as fh:
            return fh.read().decode("utf-8")
    except UnicodeDecodeError as exc:
        raise FormatError(f"{path}: not UTF-8 text: {exc}") from exc


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

    dictionary = VmfDictionary(f32(bundle.dictionary.means), bundle.dictionary.concentrations)
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
    means32 = dic.means.astype("<f4")
    for k in range(dic.size):
        parts.append(means32[k].tobytes())
        parts.append(struct.pack("<d", float(dic.concentrations[k])))
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
    # `take` checks the block's size before anything of size K x D exists.
    atoms = np.frombuffer(
        r.take(k * (4 * dim + 8)), dtype=[("mean", "<f4", (dim,)), ("conc", "<f8")]
    )
    means = _widen(atoms["mean"])
    conc = atoms["conc"].astype(np.float64)
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
        dictionary = VmfDictionary(means, conc)
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
    # Runs alternate False, True, False, ...: each run repeats its parity.
    try:
        return np.repeat(np.arange(len(runs)) % 2 == 1, runs).reshape(shape)
    except (MemoryError, OverflowError, ValueError) as exc:
        # numpy cannot allocate the lattice, index its runs or give it its shape
        raise FormatError(f"RLE lattice {shape[0]}x{shape[1]} is too large to allocate") from exc


# ---------------------------------------------------------------------------
# scene annotations (ground truth and predictions share the object layout)


@dataclass
class ObjectRecord:
    oid: int
    label: str
    template: int
    box: BoundingBox
    depth: int                   # depth rank, 0 = frontmost; -1 in predictions
    occlusion: float             # ground-truth fraction; predicted: -1.0
    level: str                   # L0..L3 or "over90"
    amodal: np.ndarray           # full-lattice boolean mask
    modal: np.ndarray
    score: float = 0.0


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
                "amodal_rle": encode_rle(o.amodal),
                "modal_rle": encode_rle(o.modal),
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
    return json.dumps(doc, sort_keys=True, indent=1)


def _order_edge(edge) -> tuple:
    if not (isinstance(edge, list) and len(edge) in (2, 5) and all(type(v) is int for v in edge)):
        raise FormatError(f"order edge must be 2 or 5 integers, got {edge!r}")
    return tuple(edge)


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


def annotation_from_json(text: str) -> SceneAnnotation:
    """A scene annotation; a malformed record or order graph raises FormatError."""
    try:
        doc = json.loads(text)
    except (json.JSONDecodeError, RecursionError) as exc:
        # RecursionError: arrays or objects nested deeper than the parser recurses
        raise FormatError(f"bad annotation JSON: {exc}") from exc
    try:
        height, width = map(int, doc["shape"])
        shape = (height, width)
        _check_lattice(shape)
        objects = []
        for o in doc["objects"]:
            box = BoundingBox(*[int(v) for v in o["box"]])
            objects.append(
                ObjectRecord(
                    oid=int(o["id"]),
                    label=str(o["class"]),
                    template=int(o["template"]),
                    box=box,
                    depth=int(o["depth"]),
                    occlusion=float(o["occlusion"]),
                    level=str(o["level"]),
                    amodal=decode_rle(o["amodal_rle"], shape),
                    modal=decode_rle(o["modal_rle"], shape),
                    score=float(o.get("score", 0.0)),
                )
            )
        edges = [_order_edge(e) for e in doc.get("order_edges", [])]
        _check_order_graph(objects, edges)
        unknown = None
        if doc.get("unknown_rle"):
            unknown = decode_rle(doc["unknown_rle"], shape)
        return SceneAnnotation(
            scene_id=str(doc["scene_id"]),
            scenario=str(doc["scenario"]),
            split=str(doc["split"]),
            shape=shape,
            objects=objects,
            order_edges=edges,
            unknown=unknown,
            extra=dict(doc.get("extra", {})),
        )
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        # OverflowError: an integer field holding a JSON number like 1e400
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
    atomic_write_text(path, json.dumps(doc, sort_keys=True, indent=1))


def load_manifest(path: str) -> Manifest:
    try:
        doc = json.loads(read_text(path))
    except (json.JSONDecodeError, RecursionError) as exc:
        raise FormatError(f"{path}: bad manifest JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise FormatError(f"{path}: manifest must be a JSON object, got {type(doc).__name__}")
    if doc.get("version") != 1:
        raise FormatError(f"{path}: unsupported manifest version {doc.get('version')}")
    entries = []
    try:
        for s in doc["scenes"]:
            entries.append(
                ManifestEntry(
                    scene_id=str(s["id"]),
                    fmap_path=str(s["fmap"]),
                    annotation_path=str(s["annotation"]),
                    split=str(s["split"]),
                    scenario=str(s["scenario"]),
                    level=str(s["level"]),
                )
            )
        config = dict(doc.get("config", {}))
    except (KeyError, TypeError, ValueError) as exc:
        raise FormatError(f"{path}: bad manifest entry: {exc}") from exc
    seen: set[str] = set()
    for e in entries:
        if e.scene_id in seen:
            raise FormatError(f"{path}: duplicate scene id {e.scene_id!r}")
        seen.add(e.scene_id)
    return Manifest(os.path.dirname(os.path.abspath(path)), entries, config)


def load_scene(manifest: Manifest, entry: ManifestEntry) -> tuple[FeatureMap, SceneAnnotation]:
    fmap = load_feature_map(os.path.join(manifest.root, entry.fmap_path))
    ann = annotation_from_json(read_text(os.path.join(manifest.root, entry.annotation_path)))
    if ann.shape != fmap.shape:
        raise FormatError(
            f"{entry.scene_id}: annotation lattice {ann.shape} != feature map {fmap.shape}"
        )
    return fmap, ann


# ---------------------------------------------------------------------------
# order graph text


def order_graph_lines(edges) -> str:
    """One line per edge: "front -> back votes_front votes_back |C|"."""
    lines = [
        f"{front} -> {back} {votes_front} {votes_back} {csize}"
        for (front, back, votes_front, votes_back, csize) in edges
    ]
    return "\n".join(lines) + ("\n" if lines else "")
