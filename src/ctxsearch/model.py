"""Core domain types for scene-based person retrieval.

Scenes carry box geometry and identity annotations; embeddings are produced
elsewhere and attached alongside.  A ``person_id`` of ``None`` marks an
unlabeled person, which is never equal to any labeled identity.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

# Tolerance on | ||v|| - 1 | for embeddings flagged as normalized.
NORM_TOL = 1e-6


@dataclass(frozen=True)
class BoxGeom:
    """Axis-aligned box in pixel coordinates, origin top-left."""

    x1: float
    y1: float
    x2: float
    y2: float

    def __post_init__(self) -> None:
        coords = (self.x1, self.y1, self.x2, self.y2)
        if not all(isinstance(c, (int, float)) and math.isfinite(c) for c in coords):
            raise ValueError(f"box coordinates must be finite numbers, got {coords}")
        if self.x2 <= self.x1 or self.y2 <= self.y1:
            raise ValueError(f"degenerate box: {coords}")

    @property
    def width(self) -> float:
        return self.x2 - self.x1

    @property
    def height(self) -> float:
        return self.y2 - self.y1

    @property
    def area(self) -> float:
        return self.width * self.height

    def clip(self, width: float, height: float) -> "BoxGeom":
        """Clamp the box to the [0, width] x [0, height] canvas.

        Raises if nothing of the box survives the clamp.
        """
        return BoxGeom(
            min(max(self.x1, 0.0), float(width)),
            min(max(self.y1, 0.0), float(height)),
            min(max(self.x2, 0.0), float(width)),
            min(max(self.y2, 0.0), float(height)),
        )


@dataclass(frozen=True)
class PersonDetection:
    """One person box; ``score`` is None for ground-truth boxes."""

    box: BoxGeom
    score: Optional[float] = None
    person_id: Optional[int] = None

    def __post_init__(self) -> None:
        if self.score is not None and not (0.0 <= float(self.score) <= 1.0):
            raise ValueError(f"score must lie in [0, 1], got {self.score}")

    @property
    def labeled(self) -> bool:
        return self.person_id is not None


@dataclass(frozen=True)
class SceneRecord:
    """One whole-scene image: canvas size plus the persons found in it."""

    scene_id: str
    width: int
    height: int
    detections: tuple[PersonDetection, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "detections", tuple(self.detections))
        if self.width <= 0 or self.height <= 0:
            raise ValueError(f"scene {self.scene_id!r}: non-positive canvas size")
        for det in self.detections:
            b = det.box
            if b.x1 < 0 or b.y1 < 0 or b.x2 > self.width or b.y2 > self.height:
                raise ValueError(
                    f"scene {self.scene_id!r}: box ({b.x1}, {b.y1}, {b.x2}, {b.y2}) "
                    f"outside {self.width}x{self.height} canvas"
                )


@dataclass(frozen=True, eq=False)
class EmbeddingVec:
    """Fixed-dimension feature vector; ``normalized`` asserts unit L2 norm."""

    values: np.ndarray
    normalized: bool = False

    def __post_init__(self) -> None:
        values = np.asarray(self.values, dtype=np.float64)
        if values.ndim != 1 or values.size == 0:
            raise ValueError("embedding must be a non-empty 1-D vector")
        if not np.all(np.isfinite(values)):
            raise ValueError("embedding contains non-finite values")
        object.__setattr__(self, "values", values)
        if self.normalized and abs(float(np.linalg.norm(values)) - 1.0) > NORM_TOL:
            raise ValueError("embedding flagged normalized but norm deviates from 1")

    @property
    def dim(self) -> int:
        return int(self.values.size)

    def unit(self) -> "EmbeddingVec":
        """L2-normalized copy; returns self when already flagged normalized."""
        if self.normalized:
            return self
        norm = float(np.linalg.norm(self.values))
        if norm == 0.0:
            raise ValueError("cannot normalize a zero-norm embedding")
        return EmbeddingVec(self.values / norm, normalized=True)


@dataclass(frozen=True, eq=False)
class GalleryEntry:
    """One searchable appearance: scene, box annotation, and unit embedding."""

    scene_id: str
    detection: PersonDetection
    embedding: EmbeddingVec


@dataclass(frozen=True, eq=False)
class GalleryIndex:
    """Immutable store of gallery appearances, grouped by scene.

    ``scene_map`` maps each scene id to the indices of that scene's entries.
    Invariant: its runs are consecutive and ascending, in map order, and
    partition ``entries`` exactly, so each scene is the slice
    ``[start, start + size)``.  Derived on construction: ``matrix``, the
    C-contiguous (N, dim) float64 embedding rows in entry order, and
    ``scene_starts`` / ``scene_sizes``, one int64 per scene in map order.
    Safe for concurrent reads once built.
    """

    entries: tuple[GalleryEntry, ...]
    scene_map: dict[str, tuple[int, ...]]
    dim: int
    matrix: np.ndarray = field(init=False, repr=False)
    scene_starts: np.ndarray = field(init=False, repr=False)
    scene_sizes: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        cursor = 0
        for scene_id, indices in self.scene_map.items():
            if indices != tuple(range(cursor, cursor + len(indices))):
                raise ValueError(f"scene {scene_id!r}: entries are not the next consecutive run")
            cursor += len(indices)
        if cursor != len(self.entries):
            raise ValueError(f"scene_map covers {cursor} of {len(self.entries)} entries")
        matrix = np.array([e.embedding.values for e in self.entries], dtype=np.float64)
        matrix = matrix.reshape(len(self.entries), self.dim)
        sizes = np.fromiter(map(len, self.scene_map.values()), np.int64, len(self.scene_map))
        object.__setattr__(self, "matrix", matrix)
        object.__setattr__(self, "scene_sizes", sizes)
        object.__setattr__(self, "scene_starts", np.cumsum(sizes) - sizes)

    def __len__(self) -> int:
        return len(self.entries)

    def scene_entries(self, scene_id: str) -> tuple[int, ...]:
        return self.scene_map.get(scene_id, ())


@dataclass(frozen=True, eq=False)
class QuerySpec:
    """A probe appearance plus the other persons sharing its scene."""

    scene_id: str
    detection: PersonDetection
    embedding: EmbeddingVec
    context: tuple[tuple[PersonDetection, EmbeddingVec], ...] = ()

    @property
    def n_context(self) -> int:
        return len(self.context)


def build_gallery(
    scenes: Sequence[SceneRecord],
    embeddings: Sequence[EmbeddingVec],
    dim: Optional[int] = None,
) -> GalleryIndex:
    """Assemble the searchable index from scenes and per-detection embeddings.

    ``embeddings`` is flat and aligned with the concatenation of all scene
    detections in order.  Embeddings are normalized here if they are not
    already; a zero-norm embedding is an error.  ``dim`` is only required for
    an empty gallery, where it cannot be inferred.
    """
    n_dets = sum(len(s.detections) for s in scenes)
    if n_dets != len(embeddings):
        raise ValueError(f"{n_dets} detections but {len(embeddings)} embeddings")
    if embeddings:
        dims = {e.dim for e in embeddings}
        if len(dims) > 1:
            raise ValueError(f"mixed embedding dimensions: {sorted(dims)}")
        inferred = dims.pop()
        if dim is not None and dim != inferred:
            raise ValueError(f"dim={dim} but embeddings have dimension {inferred}")
        dim = inferred
    elif dim is None:
        raise ValueError("dim is required for an empty gallery")

    entries: list[GalleryEntry] = []
    scene_map: dict[str, tuple[int, ...]] = {}
    cursor = 0
    for scene in scenes:
        if scene.scene_id in scene_map:
            raise ValueError(f"duplicate scene_id {scene.scene_id!r}")
        indices = []
        for det in scene.detections:
            entries.append(GalleryEntry(scene.scene_id, det, embeddings[cursor].unit()))
            indices.append(cursor)
            cursor += 1
        scene_map[scene.scene_id] = tuple(indices)
    return GalleryIndex(entries=tuple(entries), scene_map=scene_map, dim=dim)


def make_query(
    scene: SceneRecord,
    target_index: int,
    embeddings: Sequence[EmbeddingVec],
) -> QuerySpec:
    """Build a query from one detection of a scene; the rest become context.

    ``embeddings`` is aligned with ``scene.detections``.  Context persons keep
    their original scene order and include unlabeled detections.
    """
    if len(embeddings) != len(scene.detections):
        raise ValueError(
            f"scene {scene.scene_id!r} has {len(scene.detections)} detections "
            f"but {len(embeddings)} embeddings"
        )
    if not 0 <= target_index < len(scene.detections):
        raise IndexError(f"target_index {target_index} out of range")
    context = tuple(
        (det, emb.unit())
        for i, (det, emb) in enumerate(zip(scene.detections, embeddings))
        if i != target_index
    )
    return QuerySpec(
        scene_id=scene.scene_id,
        detection=scene.detections[target_index],
        embedding=embeddings[target_index].unit(),
        context=context,
    )
