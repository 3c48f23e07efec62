"""Output checks that do not rely on the program's own code.

Scores are recomputed with numpy from the generated float32 embeddings:
``s_individual`` is the cosine of query and candidate, ``s_context`` sums,
over the query's context persons, the candidate's ``s_individual`` times the
context person's best match in the candidate's scene with the candidate left
out, counted only when that match reaches the gate ``b``, and
``s_final = s_individual + weight * s_context``.  The leave-one-out best
comes from each scene's top two matches.

Retrieval metrics are derived from labels alone: the generated boxes overlap
pairwise by IoU <= 0.5 and no identity appears twice in a scene, so a ranked
candidate is a true match exactly when it carries the query's identity.

Every check returns a list of error strings; an empty list means the output
passed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

import numpy as np

TOL = 1e-9


@dataclass(frozen=True, eq=False)
class Truth:
    """Ground truth of a generated world, one row per box in file order."""

    sizes: np.ndarray  # persons per scene
    starts: np.ndarray  # first row of each scene; len = n_scenes + 1
    pids: np.ndarray
    boxes: np.ndarray  # (N, 4) float64, exactly as written to scenes.jsonl
    emb: np.ndarray  # (N, d) float64 copy of the stored float32 values

    @classmethod
    def load(cls, world_dir: Path) -> "Truth":
        with np.load(world_dir / "truth.npz") as z:
            sizes = z["scene_sizes"]
            return cls(
                sizes=sizes,
                starts=np.concatenate([[0], np.cumsum(sizes)]),
                pids=z["person_ids"],
                boxes=z["boxes"],
                emb=z["embeddings"].astype(np.float64),
            )

    def rows(self, scene: int) -> np.ndarray:
        return np.arange(self.starts[scene], self.starts[scene + 1])


class GalleryRef:
    """The gallery as the benchmark expects it: truth rows of the given
    scenes, in order, with a padded (scene, slot) table for per-scene
    reductions."""

    def __init__(self, truth: Truth, scenes: np.ndarray) -> None:
        self.scenes = np.asarray(scenes)
        self.rows = np.concatenate([truth.rows(s) for s in self.scenes])
        sizes = truth.sizes[self.scenes]
        self.scene_of = np.repeat(np.arange(len(self.scenes)), sizes)  # local scene index
        first = np.concatenate([[0], np.cumsum(sizes)[:-1]])
        self.slot = np.arange(len(self.rows)) - first[self.scene_of]
        self.table = np.full((len(self.scenes), int(sizes.max())), -1)
        self.table[self.scene_of, self.slot] = np.arange(len(self.rows))
        self.emb = truth.emb[self.rows]
        self.pids = truth.pids[self.rows]
        self.global_scene = self.scenes[self.scene_of]


@dataclass(frozen=True, eq=False)
class RefScores:
    s_individual: np.ndarray  # over the whole gallery
    s_context: np.ndarray
    s_final: np.ndarray
    candidates: np.ndarray  # gallery indices outside the query scene, ascending
    context_pairs: int  # sum over candidates of context persons x pool size
    gate_pairs: int  # (candidate, context person) pairs with a non-empty pool
    passed: int  # of those, pairs whose best match reaches the gate


def reference_scores(
    truth: Truth, gal: GalleryRef, q_scene: int, q_slot: int,
    context: bool, weight: float, gate: float,
) -> RefScores:
    q_rows = truth.rows(q_scene)
    q = truth.emb[q_rows[q_slot]]
    ctx = truth.emb[np.delete(q_rows, q_slot)]
    s_ind = gal.emb @ q
    candidates = np.flatnonzero(gal.global_scene != q_scene)
    s_ctx = np.zeros_like(s_ind)
    context_pairs = gate_pairs = passed = 0
    if context and len(ctx):
        m = ctx @ gal.emb.T  # (C, N)
        padded = np.where(gal.table >= 0, m[:, gal.table], -np.inf)  # (C, S, P)
        order = np.argsort(-padded, axis=2, kind="stable")
        top1 = np.take_along_axis(padded, order[..., :1], axis=2)[..., 0]
        top2 = (
            np.take_along_axis(padded, order[..., 1:2], axis=2)[..., 0]
            if padded.shape[2] > 1 else np.full_like(top1, -np.inf)
        )
        own = order[..., 0][:, gal.scene_of] == gal.slot  # candidate is its scene's best
        best = np.where(own, top2[:, gal.scene_of], top1[:, gal.scene_of])  # (C, N)
        gated = best >= gate
        s_ctx = (np.where(gated, best, 0.0) * s_ind).sum(axis=0)
        s_ctx[gal.global_scene == q_scene] = 0.0
        pool = truth.sizes[gal.global_scene[candidates]] - 1
        context_pairs = int(pool.sum()) * len(ctx)
        gate_pairs = int(np.count_nonzero(pool)) * len(ctx)
        passed = int(gated[:, candidates].sum())
    return RefScores(
        s_ind, s_ctx, s_ind + weight * s_ctx, candidates, context_pairs, gate_pairs, passed
    )


def ranking_arrays(ranked) -> tuple[np.ndarray, np.ndarray]:
    """Candidate gallery indices and their (individual, context, final) scores."""
    cands = ranked.candidates
    idx = np.fromiter((c.index for c in cands), dtype=np.int64, count=len(cands))
    scores = np.array([(c.s_individual, c.s_context, c.s_final) for c in cands], dtype=np.float64)
    return idx, scores.reshape(len(cands), 3)


def check_ranking(idx: np.ndarray, scores: np.ndarray, ref: RefScores) -> list[str]:
    """Same candidate set, scores within TOL, and the reference order except
    among candidates whose reference final scores lie within TOL."""
    if len(idx) != len(ref.candidates) or not np.array_equal(np.sort(idx), ref.candidates):
        return [f"candidate set differs: {len(idx)} ranked, {len(ref.candidates)} expected"]
    errors = []
    for col, name, want in (
        (0, "s_individual", ref.s_individual),
        (1, "s_context", ref.s_context),
        (2, "s_final", ref.s_final),
    ):
        dev = np.abs(scores[:, col] - want[idx])
        if dev.max(initial=0.0) > TOL:
            k = int(dev.argmax())
            errors.append(f"{name} of entry {idx[k]} off by {dev[k]:.3g}")
    expect = ref.candidates[np.lexsort((ref.candidates, -ref.s_final[ref.candidates]))]
    moved = np.flatnonzero(idx != expect)
    if len(moved):
        gap = np.abs(ref.s_final[idx[moved]] - ref.s_final[expect[moved]])
        if gap.max() > TOL:
            k = int(moved[gap.argmax()])
            errors.append(f"rank {k + 1} holds entry {idx[k]}, expected {expect[k]}")
    return errors


@dataclass(frozen=True, eq=False)
class LabelEval:
    ap: float
    recall: float
    first_hit: Optional[int]
    positives: int
    last_hit: int  # rank of the last true match, 0 without one


def label_eval(order: np.ndarray, gal: GalleryRef, q_pid: int, q_scene: int) -> LabelEval:
    """AP (scaled by recall), recall and first-hit rank of a ranked list of
    gallery indices, counting a candidate as a hit when its label matches."""
    positives = int(np.sum((gal.pids == q_pid) & (gal.global_scene != q_scene)))
    ranks = np.flatnonzero(gal.pids[order] == q_pid) + 1
    if positives == 0 or len(ranks) == 0:
        return LabelEval(0.0, 0.0, None, positives, 0)
    precisions = np.arange(1, len(ranks) + 1) / ranks
    recall = len(ranks) / positives
    ap = math.fsum(precisions.tolist()) / len(ranks) * recall
    return LabelEval(ap, recall, int(ranks[0]), positives, int(ranks[-1]))


def check_query_eval(result, want: LabelEval) -> list[str]:
    """Compare a one-query ``EvalResult`` with the label-only derivation."""
    got = result.per_query[0]
    errors = []
    if abs(got.ap - want.ap) > 1e-12 or abs(result.mean_ap - want.ap) > 1e-12:
        errors.append(f"AP {got.ap!r}, expected {want.ap!r}")
    if abs(got.recall - want.recall) > 1e-12:
        errors.append(f"recall {got.recall!r}, expected {want.recall!r}")
    if got.first_hit_rank != want.first_hit:
        errors.append(f"first hit at {got.first_hit_rank}, expected {want.first_hit}")
    cmc = np.zeros(len(result.cmc))
    if want.first_hit is not None and want.first_hit <= len(cmc):
        cmc[want.first_hit - 1 :] = 1.0
    if not np.array_equal(result.cmc, cmc):
        errors.append("CMC curve disagrees with the first hit")
    return errors
