"""Gallery ranking: plain cosine ranking and context-person re-ranking.

The context re-ranker rewards a candidate when other persons from the query's
scene also have confident matches inside the candidate's scene, on the
intuition that people tend to walk in groups.  Each piece of context evidence
is the product of the candidate's own similarity and the context person's best
match, gated to zero when that best match is not confident enough.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .model import GalleryEntry, GalleryIndex, QuerySpec


@dataclass(frozen=True)
class ContextParams:
    """Tuning knobs for context re-ranking (CLI: --lambda and --threshold-b).

    ``weight`` blends the context score into the final score; 0 leaves it out
    of the final score and reproduces the baseline ordering.
    ``gate_threshold`` is the minimum best-match similarity for a context
    person to contribute (inclusive).
    """

    weight: float = 0.2
    gate_threshold: float = 0.3

    def __post_init__(self) -> None:
        if not 0.0 <= self.weight < 1.0:
            raise ValueError(f"weight must lie in [0, 1), got {self.weight}")
        if not self.gate_threshold >= 0.0:  # also refuses NaN, which no gate compare passes
            raise ValueError(f"gate_threshold must be >= 0, got {self.gate_threshold}")


@dataclass(frozen=True, eq=False)
class ScoredCandidate:
    """One gallery entry with its score breakdown for a query."""

    index: int  # position in gallery.entries
    entry: GalleryEntry
    s_individual: float
    s_context: float
    s_final: float


@dataclass(frozen=True, eq=False)
class RankedList:
    """Candidates for one query, best final score first.

    Final-score ties keep ascending gallery-entry order.
    """

    query: QuerySpec
    candidates: tuple[ScoredCandidate, ...]

    def top(self, k: int) -> tuple[ScoredCandidate, ...]:
        return self.candidates[:k]


def co_occurrence_score(
    candidate_sim: float, context_best_sim: float, gate_threshold: float
) -> float:
    """Gated product of candidate and context-match similarity.

    Returns candidate_sim * context_best_sim when the context match clears the
    confidence threshold (inclusive), else 0.  Negative candidate similarities
    flow through unclamped.
    """
    if not gate_threshold >= 0.0:
        raise ValueError("gate_threshold must be >= 0")
    if context_best_sim >= gate_threshold:
        return candidate_sim * context_best_sim
    return 0.0


def context_score(
    query: QuerySpec,
    candidate: GalleryEntry,
    scene_pool: Sequence[GalleryEntry],
    params: ContextParams,
) -> float:
    """Summed co-occurrence evidence from the query's context persons.

    For each context person, its best match inside ``scene_pool`` (the
    candidate's scene with the candidate itself removed) feeds the gated
    product.  No pool or no context means no evidence.
    """
    if not scene_pool or not query.context:
        return 0.0
    s_qg = float(np.dot(query.embedding.values, candidate.embedding.values))
    total = 0.0
    for _, ctx_emb in query.context:
        best = -math.inf
        for other in scene_pool:
            v = float(np.dot(ctx_emb.values, other.embedding.values))
            if v > best:
                best = v
        total += co_occurrence_score(s_qg, best, params.gate_threshold)
    return total


def _rank(
    query: QuerySpec, gallery: GalleryIndex, params: Optional[ContextParams]
) -> RankedList:
    """Score every entry outside the query's scene, best final score first.

    Without ``params`` there is no context term: s_context is 0 and s_final is
    s_individual itself.  With them, each candidate's context score is computed
    within its own scene, with the candidate itself removed from the pool.
    """
    if not query.embedding.normalized:
        raise ValueError("query embedding must be normalized")
    if gallery.entries and query.embedding.dim != gallery.dim:
        raise ValueError(f"dimension mismatch: query {query.embedding.dim} vs gallery {gallery.dim}")
    cands = []
    for scene_id, indices in gallery.scene_map.items():
        if scene_id == query.scene_id:
            continue
        scene = [(i, gallery.entries[i]) for i in indices]
        for i, entry in scene:
            s_ind = float(np.dot(query.embedding.values, entry.embedding.values))
            if params is None:
                s_ctx, s_final = 0.0, s_ind
            else:
                pool = [other for j, other in scene if j != i]
                s_ctx = context_score(query, entry, pool, params)
                s_final = s_ind + params.weight * s_ctx
            cands.append(ScoredCandidate(i, entry, s_ind, s_ctx, s_final))
    cands.sort(key=lambda c: (-c.s_final, c.index))
    return RankedList(query, tuple(cands))


def rank_baseline(query: QuerySpec, gallery: GalleryIndex) -> RankedList:
    """Rank gallery detections by cosine similarity to the query alone: the
    context ranker without its context term.

    Entries from the query's own scene are excluded from the candidate pool.
    """
    return _rank(query, gallery, None)


def rank_with_context(
    query: QuerySpec, gallery: GalleryIndex, params: ContextParams = ContextParams()
) -> RankedList:
    """Rank gallery detections by individual similarity plus weighted context
    evidence: s_final = s_individual + weight * s_context.

    Every detection receives a context score, computed within its own scene
    with the candidate itself removed from the matching pool; at weight 0 the
    score is still computed and reported.  Entries from the query's own scene
    are excluded.
    """
    return _rank(query, gallery, params)
