"""Seeded input worlds for the benchmark, written in the documented on-disk
formats (``scenes.jsonl`` and ``features.psgf``) without calling the program.

A world is built the way the package's simulator builds one: identities are
split into co-travelling groups of 3-4 and singleton distractors; every scene
is seeded with one group whose members each appear with probability 0.9, and
distractors fill the remaining slots.  Appearances are noisy copies of
per-identity prototypes that share a common direction, so appearance alone is
confusable and context helps.  Boxes overlap pairwise by IoU <= 0.5.

Unlike the simulator, scene sizes are drawn as an exact, seed-shuffled count
per size, so every seed gives the same size make-up and the same box total.
The per-query cost of context ranking grows with the query scene's size, so
a fixed make-up keeps the query-cost mix steady from seed to seed.

Besides the two input files, ``truth.npz`` holds the ground truth the
benchmark checks against (labels, boxes, float32 embeddings, scene sizes).

Run as a script to write one world:

    python3 perfbench/worlds.py --world eval --seed 3 --root perfbench/_worlds
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

CANVAS_W = 960
CANVAS_H = 540
COMMON_WEIGHT = 4.0
NOISE_SIGMA = 1.4
CO_TRAVEL_PROB = 0.9
DISTRACTOR_RATE = 0.4
GROUP_SIZES = (3, 4)
PLACE_RETRIES = 200


@dataclass(frozen=True)
class WorldSpec:
    """Make-up of one world: ``scene_sizes`` maps persons-per-scene to the
    number of scenes of that size."""

    scene_sizes: dict[int, int]
    n_identities: int
    dim: int = 64


# eval: 500 sparse scenes, ~2k boxes.  The size counts put about 15% / 55%
# / 30% of query appearances in scenes of 3 / 4 / 5 persons, so the median
# query and the 90th-percentile query each sit well inside one size class.
# crowd: 8-12 persons per scene, 8 scenes of each size, 400 boxes.
WORLDS = {
    "eval": WorldSpec({3: 101, 4: 278, 5: 121}, n_identities=250),
    "crowd": WorldSpec({8: 8, 9: 8, 10: 8, 11: 8, 12: 8}, n_identities=60),
    "eval-tiny": WorldSpec({3: 20, 4: 56, 5: 24}, n_identities=60),
    "crowd-tiny": WorldSpec({8: 4, 9: 4, 10: 4, 11: 4, 12: 4}, n_identities=60),
}


def _iou_many(box: np.ndarray, others: np.ndarray) -> np.ndarray:
    ix = np.clip(np.minimum(box[2], others[:, 2]) - np.maximum(box[0], others[:, 0]), 0, None)
    iy = np.clip(np.minimum(box[3], others[:, 3]) - np.maximum(box[1], others[:, 1]), 0, None)
    inter = ix * iy
    area = (box[2] - box[0]) * (box[3] - box[1])
    areas = (others[:, 2] - others[:, 0]) * (others[:, 3] - others[:, 1])
    return inter / (area + areas - inter)


def _place_boxes(rng: np.random.Generator, n: int) -> np.ndarray:
    placed = np.empty((0, 4))
    for _ in range(n):
        for _attempt in range(PLACE_RETRIES):
            w = rng.uniform(24.0, 72.0)
            h = w * rng.uniform(1.8, 3.2)
            x1 = rng.uniform(0.0, CANVAS_W - w)
            y1 = rng.uniform(0.0, CANVAS_H - h)
            box = np.array([x1, y1, x1 + w, y1 + h])
            if not len(placed) or np.all(_iou_many(box, placed) <= 0.5):
                placed = np.vstack([placed, box])
                break
        else:
            raise RuntimeError(f"could not place box {len(placed) + 1}")
    return placed


def generate(spec: WorldSpec, seed: int) -> dict[str, np.ndarray]:
    """Sample a world; returns per-box arrays in scene order plus scene sizes."""
    rng = np.random.default_rng(seed)
    d = spec.dim
    common = rng.normal(size=d)
    common /= np.linalg.norm(common)
    raw = COMMON_WEIGHT * common + rng.normal(size=(spec.n_identities, d))
    prototypes = raw / np.linalg.norm(raw, axis=1, keepdims=True)

    ids = rng.permutation(spec.n_identities)
    n_distractors = int(round(DISTRACTOR_RATE * spec.n_identities))
    distractors = ids[:n_distractors]
    grouped = ids[n_distractors:]
    groups = []
    pos = 0
    while pos < len(grouped):
        size = int(rng.integers(GROUP_SIZES[0], GROUP_SIZES[1] + 1))
        groups.append(grouped[pos : pos + size])
        pos += size
    groups = [g for g in groups if len(g) >= 2]

    sizes = np.concatenate(
        [np.full(count, k, dtype=np.int64) for k, count in sorted(spec.scene_sizes.items())]
    )
    sizes = rng.permutation(sizes)
    pids, boxes = [], []
    for target in sizes:
        group = groups[int(rng.integers(len(groups)))]
        present = [int(m) for m in group if rng.random() < CO_TRAVEL_PROB]
        if len(present) > target:
            keep = np.sort(rng.choice(len(present), size=target, replace=False))
            present = [present[k] for k in keep]
        n_fill = int(target) - len(present)
        picked = np.sort(rng.choice(n_distractors, size=n_fill, replace=False))
        present += [int(distractors[k]) for k in picked]
        pids.extend(present)
        boxes.append(_place_boxes(rng, len(present)))

    pids = np.asarray(pids, dtype=np.int64)
    noise = rng.normal(size=(len(pids), d)) * (NOISE_SIGMA / np.sqrt(d))
    v = prototypes[pids] + noise
    emb = (v / np.linalg.norm(v, axis=1, keepdims=True)).astype(np.float32)
    norms = np.linalg.norm(emb.astype(np.float64), axis=1)
    if np.max(np.abs(norms - 1.0)) > 1e-6:
        raise RuntimeError("float32 embeddings drifted from unit norm")
    return {
        "scene_sizes": sizes,
        "person_ids": pids,
        "boxes": np.vstack(boxes),
        "embeddings": emb,
    }


def scene_id(k: int) -> str:
    return f"scene_{k:05d}"


def write(world: dict[str, np.ndarray], out: Path) -> None:
    """Write scenes.jsonl, features.psgf and truth.npz into ``out``."""
    out.mkdir(parents=True, exist_ok=True)
    sizes, pids, boxes, emb = (
        world["scene_sizes"], world["person_ids"], world["boxes"], world["embeddings"]
    )
    starts = np.concatenate([[0], np.cumsum(sizes)])
    with open(out / "scenes.jsonl", "w", encoding="utf-8") as fh:
        for k in range(len(sizes)):
            rows = range(starts[k], starts[k + 1])
            record = {
                "scene_id": scene_id(k),
                "width": CANVAS_W,
                "height": CANVAS_H,
                "boxes": [
                    {
                        "x1": float(boxes[r, 0]), "y1": float(boxes[r, 1]),
                        "x2": float(boxes[r, 2]), "y2": float(boxes[r, 3]),
                        "person_id": int(pids[r]), "score": None,
                    }
                    for r in rows
                ],
            }
            fh.write(json.dumps(record) + "\n")

    n, d = emb.shape
    sid_len = len(scene_id(0))
    rec = np.zeros(
        n, dtype=[("len", "<u2"), ("sid", f"S{sid_len}"), ("box", "<f4", 4), ("emb", "<f4", d)]
    )
    rec["len"] = sid_len
    rec["sid"] = np.repeat([scene_id(k).encode() for k in range(len(sizes))], sizes)
    rec["box"] = boxes.astype("<f4")
    rec["emb"] = emb
    with open(out / "features.psgf", "wb") as fh:
        fh.write(struct.pack("<4sIIQ", b"PSGF", 1, d, n))
        fh.write(rec.tobytes())
    np.savez(out / "truth.npz", **world)


def ensure(name: str, seed: int, root: Path) -> Path:
    """Return the directory of world ``name`` for ``seed`` under ``root``,
    writing it first if absent.  The directory appears only once complete,
    and its name carries a digest of this file, so an edited generator never
    reuses an old world."""
    digest = hashlib.sha256(Path(__file__).read_bytes()).hexdigest()[:12]
    out = root / f"{name}-{seed}-{digest}"
    if (out / "truth.npz").exists():
        return out
    tmp = root / f".tmp-{name}-{seed}-{os.getpid()}"
    shutil.rmtree(tmp, ignore_errors=True)
    write(generate(WORLDS[name], seed), tmp)
    shutil.rmtree(out, ignore_errors=True)
    os.replace(tmp, out)
    return out


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--world", choices=sorted(WORLDS), required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--root", required=True, help="directory holding generated worlds")
    args = ap.parse_args()
    print(ensure(args.world, args.seed, Path(args.root)))


if __name__ == "__main__":
    main()
