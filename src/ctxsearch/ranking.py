"""Gallery ranking: plain cosine ranking and context-person re-ranking.

The context re-ranker rewards a candidate when other persons from the query's
scene also have confident matches inside the candidate's scene, on the
intuition that people tend to walk in groups.  Each piece of context evidence
is the product of the candidate's own similarity and the context person's best
match, gated to zero when that best match is not confident enough.
"""

from __future__ import annotations

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


def _pair_dots(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """(len(a), len(b)) matrix of the dot products of the rows of ``a`` and ``b``.

    Each element is one 1 x d by d x 1 matmul, for which numpy calls the
    dtype's dot function, the one ``np.dot`` runs on two 1-D vectors, so every
    element is bitwise equal to ``float(np.dot(a[i], b[j]))``.  ``b @ a[i]``
    would not be: it goes through gemv, whose blocked sums differ in the last
    bit (up to 2.2e-16 on unit vectors).
    """
    return np.matmul(a[:, None, None, :], b[None, :, :, None])[:, :, 0, 0]


def _context_sum(s_ind: np.ndarray, best: np.ndarray, gate_threshold: float) -> np.ndarray:
    """Gated co-occurrence evidence per candidate: ``co_occurrence_score``
    elementwise, summed over the context persons (rows of ``best``) in
    order, from 0.0.

    A closed gate adds s_ind * 0.0, a signed zero, which leaves a sum that
    starts at +0.0 bitwise unchanged, exactly as adding 0.0 would.
    """
    total = np.zeros_like(s_ind)
    for row in best:
        total += s_ind * np.where(row >= gate_threshold, row, 0.0)
    return total


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
    s_qg = _pair_dots(query.embedding.values[None], candidate.embedding.values[None])[0]
    ctx = np.array([e.values for _, e in query.context])
    pool = np.array([other.embedding.values for other in scene_pool])
    best = _pair_dots(ctx, pool).max(axis=1, keepdims=True)
    return float(_context_sum(s_qg, best, params.gate_threshold)[0])


def _leave_one_out_best(sims: np.ndarray, starts: np.ndarray, sizes: np.ndarray) -> np.ndarray:
    """For each column, the row-wise best of ``sims`` over the other columns
    of its scene; -inf when the scene has no other column.

    ``starts``/``sizes`` cut the columns into consecutive non-empty scenes.
    The best over a scene without column j is the scene's maximum, except
    at the maximum's first position, where it is the maximum of the rest.
    """
    cols = np.arange(sims.shape[1])
    first = np.maximum.reduceat(sims, starts, axis=1)
    first_at = np.repeat(first, sizes, axis=1)
    argmax = np.minimum.reduceat(np.where(sims == first_at, cols, cols.size), starts, axis=1)
    own = cols == np.repeat(argmax, sizes, axis=1)
    second = np.maximum.reduceat(np.where(own, -np.inf, sims), starts, axis=1)
    return np.where(own, np.repeat(second, sizes, axis=1), first_at)


def _rank(
    query: QuerySpec, gallery: GalleryIndex, params: Optional[ContextParams]
) -> RankedList:
    """Score every entry outside the query's scene, best final score first.

    Without ``params`` there is no context term: s_context is 0 and s_final is
    s_individual itself.  With them, each candidate's context score is computed
    within its own scene, with the candidate itself removed from the pool.
    All scores come from whole-gallery array operations, each value bitwise
    equal to a scalar loop of per-pair ``np.dot`` calls and gated products.
    """
    if not query.embedding.normalized:
        raise ValueError("query embedding must be normalized")
    if gallery.entries and query.embedding.dim != gallery.dim:
        raise ValueError(f"dimension mismatch: query {query.embedding.dim} vs gallery {gallery.dim}")
    keep = np.ones(len(gallery), dtype=bool)
    keep[list(gallery.scene_entries(query.scene_id))] = False
    idx = np.flatnonzero(keep)
    if not idx.size:
        return RankedList(query, ())
    s_ind = _pair_dots(query.embedding.values[None], gallery.matrix)[0]
    ind = s_ind.tolist()
    if params is None:
        key, ctx, final = s_ind, [0.0] * len(ind), ind
    else:
        s_ctx = np.zeros_like(s_ind)
        if query.context:
            nonempty = gallery.scene_sizes > 0
            best = _leave_one_out_best(
                _pair_dots(np.array([e.values for _, e in query.context]), gallery.matrix),
                gallery.scene_starts[nonempty],
                gallery.scene_sizes[nonempty],
            )
            s_ctx = _context_sum(s_ind, best, params.gate_threshold)
        key = s_ind + params.weight * s_ctx
        ctx, final = s_ctx.tolist(), key.tolist()
    order = idx[np.lexsort((idx, -key[idx]))].tolist()
    entries = gallery.entries
    return RankedList(
        query,
        tuple(ScoredCandidate(i, entries[i], ind[i], ctx[i], final[i]) for i in order),
    )


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
