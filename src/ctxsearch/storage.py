"""On-disk formats: line-delimited JSON scene annotations and a compact
binary container for per-detection embeddings.

Feature file layout (all integers little-endian):

    magic    4 bytes   b"PSGF"
    version  u32       1
    dim      u32       embedding length
    count    u64       number of records
    record   u16 scene-id byte length, UTF-8 scene id,
             4 x f32 box corners (x1, y1, x2, y2),
             dim x f32 embedding values

Float32 is the storage contract: a save/load round trip of float32 values is
bit-exact, while float64 inputs are rounded on save.
"""

from __future__ import annotations

import json
import os
import struct
from dataclasses import dataclass
from pathlib import Path
from typing import BinaryIO, Sequence

import numpy as np

from .model import BoxGeom, EmbeddingVec, PersonDetection, SceneRecord

MAGIC = b"PSGF"
VERSION = 1
_HEADER = struct.Struct("<4sIIQ")

# Allowed disagreement between an annotation box and its float32 stored copy.
_BOX_MATCH_TOL = 1e-2


class AnnotationError(ValueError):
    """Malformed annotation file."""


class FeatureFormatError(ValueError):
    """Malformed or truncated feature file."""


@dataclass(frozen=True, eq=False)
class FeatureRecord:
    """One stored embedding: which scene, which box, and the float32 values."""

    scene_id: str
    box: BoxGeom
    values: np.ndarray

    def __post_init__(self) -> None:
        values = np.ascontiguousarray(self.values, dtype=np.float32)
        if values.ndim != 1 or values.size == 0:
            raise ValueError("feature values must be a non-empty 1-D vector")
        object.__setattr__(self, "values", values)


def _parse_scene(line: str) -> SceneRecord:
    obj = json.loads(line)
    if not isinstance(obj, dict):
        raise ValueError("scene record must be a JSON object")
    scene_id = obj["scene_id"]
    width = obj["width"]
    height = obj["height"]
    if not isinstance(scene_id, str):
        raise ValueError("scene_id must be a string")
    if not all(isinstance(v, int) and not isinstance(v, bool) for v in (width, height)):
        raise ValueError("width and height must be integers")
    boxes = obj["boxes"]
    if not isinstance(boxes, list):
        raise ValueError("boxes must be a list")
    dets = []
    for k, b in enumerate(boxes):
        try:
            box = BoxGeom(float(b["x1"]), float(b["y1"]), float(b["x2"]), float(b["y2"]))
            box = box.clip(width, height)
            pid = b["person_id"]
            if pid is not None and (not isinstance(pid, int) or isinstance(pid, bool)):
                raise ValueError("person_id must be an integer or null")
            score = b["score"]
            dets.append(
                PersonDetection(
                    box=box,
                    score=None if score is None else float(score),
                    person_id=pid,
                )
            )
        except (ValueError, KeyError, TypeError) as exc:
            raise ValueError(f"box {k}: {exc}") from exc
    return SceneRecord(scene_id, width, height, tuple(dets))


def load_annotations(path) -> list[SceneRecord]:
    """Parse one scene per line, clipping boxes to the scene canvas.

    Errors name the offending 1-based line number; duplicate scene ids are
    rejected.
    """
    scenes: list[SceneRecord] = []
    seen: set[str] = set()
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                scene = _parse_scene(line)
            except (ValueError, KeyError, TypeError) as exc:
                raise AnnotationError(f"{path}: line {lineno}: {exc}") from exc
            if scene.scene_id in seen:
                raise AnnotationError(
                    f"{path}: line {lineno}: duplicate scene_id {scene.scene_id!r}"
                )
            seen.add(scene.scene_id)
            scenes.append(scene)
    return scenes


def save_annotations(path, scenes: Sequence[SceneRecord]) -> None:
    """Write one scene per line; floats round-trip exactly through JSON."""
    with open(path, "w", encoding="utf-8") as fh:
        for scene in scenes:
            record = {
                "scene_id": scene.scene_id,
                "width": scene.width,
                "height": scene.height,
                "boxes": [
                    {
                        "x1": d.box.x1,
                        "y1": d.box.y1,
                        "x2": d.box.x2,
                        "y2": d.box.y2,
                        "person_id": d.person_id,
                        "score": d.score,
                    }
                    for d in scene.detections
                ],
            }
            fh.write(json.dumps(record) + "\n")


def save_features(path, records: Sequence[FeatureRecord]) -> None:
    """Write the binary feature container; all records must share one dim."""
    if records:
        dim = int(records[0].values.size)
        for r in records:
            if r.values.size != dim:
                raise ValueError(
                    f"mixed embedding dimensions: {dim} vs {r.values.size}"
                )
    else:
        dim = 0
    with open(path, "wb") as fh:
        fh.write(_HEADER.pack(MAGIC, VERSION, dim, len(records)))
        for r in records:
            sid = r.scene_id.encode("utf-8")
            if len(sid) > 0xFFFF:
                raise ValueError(f"scene_id too long: {len(sid)} bytes")
            fh.write(struct.pack("<H", len(sid)))
            fh.write(sid)
            fh.write(
                np.array([r.box.x1, r.box.y1, r.box.x2, r.box.y2], dtype="<f4").tobytes()
            )
            fh.write(r.values.astype("<f4", copy=False).tobytes())


def _read_exact(fh: BinaryIO, n: int, what: str) -> bytes:
    data = fh.read(n)
    if len(data) != n:
        raise FeatureFormatError(f"truncated file while reading {what}")
    return data


def load_features(path) -> list[FeatureRecord]:
    """Read the binary feature container back; bit-exact for float32 data."""
    with open(path, "rb") as fh:
        magic, version, dim, count = _HEADER.unpack(
            _read_exact(fh, _HEADER.size, "header")
        )
        if magic != MAGIC:
            raise FeatureFormatError(f"bad magic {magic!r}")
        if version != VERSION:
            raise FeatureFormatError(f"unsupported version {version}")
        # Every record holds at least its id length, box and values, so a
        # header that claims more than the file holds fails before any read.
        left = os.fstat(fh.fileno()).st_size - _HEADER.size
        if count * (2 + 16 + 4 * dim) > left:
            raise FeatureFormatError(
                f"truncated file: header claims {count} records of dim {dim}, "
                f"but only {left} bytes follow it"
            )
        records: list[FeatureRecord] = []
        for k in range(count):
            (sid_len,) = struct.unpack("<H", _read_exact(fh, 2, f"record {k}"))
            sid = _read_exact(fh, sid_len, f"record {k} scene id")
            coords = np.frombuffer(_read_exact(fh, 16, f"record {k} box"), dtype="<f4")
            values = np.frombuffer(
                _read_exact(fh, 4 * dim, f"record {k} values"), dtype="<f4"
            ).copy()
            try:  # UnicodeDecodeError is a ValueError too
                box = BoxGeom(*(float(c) for c in coords))
                records.append(FeatureRecord(sid.decode("utf-8"), box, values))
            except ValueError as exc:
                raise FeatureFormatError(f"record {k}: {exc}") from exc
        if fh.read(1):
            raise FeatureFormatError("trailing bytes after final record")
    return records


def feature_records(
    scenes: Sequence[SceneRecord], embeddings: Sequence[Sequence[EmbeddingVec]]
) -> list[FeatureRecord]:
    """Flatten per-scene embeddings into storable records (float32 cast)."""
    if len(scenes) != len(embeddings):
        raise ValueError("one embedding list per scene required")
    records: list[FeatureRecord] = []
    for scene, embs in zip(scenes, embeddings):
        if len(scene.detections) != len(embs):
            raise ValueError(
                f"scene {scene.scene_id!r}: {len(scene.detections)} detections "
                f"but {len(embs)} embeddings"
            )
        for det, emb in zip(scene.detections, embs):
            records.append(
                FeatureRecord(scene.scene_id, det.box, np.asarray(emb.values, dtype=np.float32))
            )
    return records


def load_world(annotations_path, features_path) -> tuple[list[SceneRecord], list[list[EmbeddingVec]]]:
    """Join annotations with stored embeddings by per-scene record order.

    Box coordinates are cross-checked against the annotations (within float32
    storage tolerance) so mismatched files fail loudly instead of silently
    mispairing embeddings.
    """
    scenes = load_annotations(annotations_path)
    records = load_features(features_path)
    by_scene: dict[str, list[FeatureRecord]] = {}
    for r in records:
        by_scene.setdefault(r.scene_id, []).append(r)
    known = {s.scene_id for s in scenes}
    unknown = sorted(set(by_scene) - known)
    if unknown:
        raise FeatureFormatError(f"features reference unknown scenes: {unknown[:3]}")
    embeddings: list[list[EmbeddingVec]] = []
    for scene in scenes:
        recs = by_scene.get(scene.scene_id, [])
        if len(recs) != len(scene.detections):
            raise FeatureFormatError(
                f"scene {scene.scene_id!r}: {len(scene.detections)} detections "
                f"but {len(recs)} feature records"
            )
        scene_embs: list[EmbeddingVec] = []
        for det, rec in zip(scene.detections, recs):
            stored = (rec.box.x1, rec.box.y1, rec.box.x2, rec.box.y2)
            actual = (det.box.x1, det.box.y1, det.box.x2, det.box.y2)
            if any(abs(a - b) > _BOX_MATCH_TOL for a, b in zip(stored, actual)):
                raise FeatureFormatError(
                    f"scene {scene.scene_id!r}: feature record box {stored} "
                    f"does not match annotation box {actual}"
                )
            values = rec.values.astype(np.float64)
            norm_ok = abs(float(np.linalg.norm(values)) - 1.0) <= 1e-6
            scene_embs.append(EmbeddingVec(values, normalized=norm_ok))
        embeddings.append(scene_embs)
    return scenes, embeddings


def save_world(
    out_dir,
    scenes: Sequence[SceneRecord],
    embeddings: Sequence[Sequence[EmbeddingVec]],
    annotations_name: str = "scenes.jsonl",
    features_name: str = "features.psgf",
) -> tuple[Path, Path]:
    """Write a world as annotation + feature files inside ``out_dir``."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    ann_path = out / annotations_name
    feat_path = out / features_name
    save_annotations(ann_path, scenes)
    save_features(feat_path, feature_records(scenes, embeddings))
    return ann_path, feat_path
