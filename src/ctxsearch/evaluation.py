"""Detection matching and the recall-scaled mAP / CMC retrieval protocol."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .geometry import iou
from .model import BoxGeom, GalleryIndex, PersonDetection, QuerySpec
from .ranking import ContextParams, RankedList, rank_baseline, rank_with_context

# One ground-truth positive: (scene_id, box).
GtBox = tuple[str, BoxGeom]


@dataclass(frozen=True)
class MatchConfig:
    """Detection acceptance thresholds.

    ``match_detections`` discards predictions scoring below
    ``fg_score_threshold``; a match requires IoU strictly greater than
    ``iou_threshold``.  ``evaluate`` reads only ``iou_threshold``.
    """

    iou_threshold: float = 0.5
    fg_score_threshold: float = 0.5

    def __post_init__(self) -> None:
        if not 0.0 < self.iou_threshold < 1.0:
            raise ValueError(f"iou_threshold must lie in (0, 1), got {self.iou_threshold}")
        if not 0.0 < self.fg_score_threshold < 1.0:
            raise ValueError(
                f"fg_score_threshold must lie in (0, 1), got {self.fg_score_threshold}"
            )


@dataclass(frozen=True, eq=False)
class QueryEval:
    """Per-query outcome: recall-scaled AP, recall, and first true-match rank."""

    ap: float
    recall: float
    first_hit_rank: Optional[int]


@dataclass(frozen=True, eq=False)
class EvalResult:
    """Aggregate metrics: mean AP, CMC curve (cmc[k-1] = top-k rate), and the
    per-query breakdown in query order."""

    mean_ap: float
    cmc: np.ndarray
    per_query: tuple[QueryEval, ...]


def match_detections(
    predicted: Sequence[PersonDetection],
    ground_truth: Sequence[PersonDetection],
    cfg: MatchConfig,
) -> list[tuple[int, int]]:
    """Greedily match scored predictions to ground-truth boxes.

    Predictions below the foreground threshold are dropped; the rest are
    visited by descending score (ties keep input order) and each claims the
    unmatched ground-truth box of highest IoU, provided the overlap strictly
    exceeds the IoU threshold.  IoU ties go to the lower ground-truth index.
    Returns (prediction index, ground-truth index) pairs in match order.
    """
    for det in predicted:
        if det.score is None:
            raise ValueError("match_detections requires scored predictions")
    order = sorted(
        (i for i in range(len(predicted)) if predicted[i].score >= cfg.fg_score_threshold),
        key=lambda i: (-predicted[i].score, i),
    )
    claimed = [False] * len(ground_truth)
    pairs: list[tuple[int, int]] = []
    for i in order:
        best_j = -1
        best_iou = cfg.iou_threshold
        for j, gt in enumerate(ground_truth):
            if claimed[j]:
                continue
            v = iou(predicted[i].box, gt.box)
            if v > best_iou:
                best_j, best_iou = j, v
        if best_j >= 0:
            claimed[best_j] = True
            pairs.append((i, best_j))
    return pairs


def _walk_ranked(
    ranked: RankedList, gt_positives: Sequence[GtBox], iou_threshold: float
) -> tuple[list[float], Optional[int]]:
    """Claim ground-truth positives along the ranked list.

    Each positive can be claimed once; a candidate is a true positive when it
    overlaps an unclaimed positive of its own scene with IoU above threshold.
    The walk stops once every positive is claimed.  Returns the precision at
    each true positive plus the first hit's 1-based rank.
    """
    claimed = [False] * len(gt_positives)
    precisions: list[float] = []
    first_hit: Optional[int] = None
    for rank, cand in enumerate(ranked.candidates, start=1):
        best_j = -1
        best_iou = iou_threshold
        for j, (scene_id, box) in enumerate(gt_positives):
            if claimed[j] or scene_id != cand.entry.scene_id:
                continue
            v = iou(cand.entry.detection.box, box)
            if v > best_iou:
                best_j, best_iou = j, v
        if best_j >= 0:
            claimed[best_j] = True
            precisions.append((len(precisions) + 1) / rank)
            if first_hit is None:
                first_hit = rank
            if len(precisions) == len(gt_positives):
                break  # every positive is claimed; no later candidate can be a hit
    return precisions, first_hit


def _query_eval(
    precisions: Sequence[float], first_hit: Optional[int], n_positives: int
) -> QueryEval:
    """Recall-scaled AP from the precisions at each true positive."""
    if not precisions:
        return QueryEval(0.0, 0.0, first_hit)
    recall = len(precisions) / n_positives
    return QueryEval((math.fsum(precisions) / len(precisions)) * recall, recall, first_hit)


def _cmc(first_hits: Sequence[Optional[int]], k_max: int) -> np.ndarray:
    """cmc[k-1] = fraction of queries whose first hit is at rank k or better."""
    counts = np.zeros(k_max)
    for first_hit in first_hits:
        if first_hit is not None and first_hit <= k_max:
            counts[first_hit - 1 :] += 1.0
    return counts / max(1, len(first_hits))


def average_precision(
    ranked: RankedList, gt_positives: Sequence[GtBox], cfg: MatchConfig
) -> tuple[float, float]:
    """Average precision scaled by detection recall; returns (ap, recall).

    Precision is averaged over the true positives actually retrieved, then
    multiplied by recall (retrieved / all positives), which equals the
    conventional sum-over-all-positives AP.  A query with no ground-truth
    positives is an error; a list with no true positive scores 0.
    """
    if not gt_positives:
        raise ValueError("query has no ground-truth positives")
    walk = _walk_ranked(ranked, gt_positives, cfg.iou_threshold)
    q = _query_eval(*walk, len(gt_positives))
    return q.ap, q.recall


def cmc_curve(
    ranked_lists: Sequence[RankedList],
    gt_positive_lists: Sequence[Sequence[GtBox]],
    cfg: MatchConfig,
    k_max: int,
) -> np.ndarray:
    """Fraction of queries whose first true match lands within the top k,
    for k = 1..k_max.  Monotone non-decreasing in k."""
    if k_max < 1:
        raise ValueError("k_max must be >= 1")
    if len(ranked_lists) != len(gt_positive_lists):
        raise ValueError("one ground-truth list per ranked list required")
    first_hits = [
        _walk_ranked(ranked, gt, cfg.iou_threshold)[1]
        for ranked, gt in zip(ranked_lists, gt_positive_lists)
    ]
    return _cmc(first_hits, k_max)


def gallery_positives(
    gallery: GalleryIndex, person_id: int, exclude_scene: Optional[str] = None
) -> list[GtBox]:
    """Ground-truth boxes of ``person_id`` across the gallery, optionally
    skipping one scene.  Unlabeled entries never count."""
    if person_id is None:
        raise ValueError("person_id must be a labeled identity")
    return [
        (e.scene_id, e.detection.box)
        for e in gallery.entries
        if e.detection.person_id == person_id and e.scene_id != exclude_scene
    ]


def evaluate(
    queries: Sequence[QuerySpec],
    gallery: GalleryIndex,
    ranker: str = "baseline",
    params: Optional[ContextParams] = None,
    cfg: Optional[MatchConfig] = None,
    k_max: int = 10,
) -> EvalResult:
    """Run the retrieval protocol end to end.

    Ranks every query with the chosen ranker ("baseline" or "rcp"), scores
    recall-scaled AP per query, and aggregates mAP plus the CMC curve.  The
    query's own scene never contributes candidates or positives; a query whose
    identity has no gallery positives is rejected up front rather than
    scored 0.  Of ``cfg`` only ``iou_threshold`` is read;
    ``fg_score_threshold`` applies to ``match_detections`` alone.
    """
    if ranker not in ("baseline", "rcp"):
        raise ValueError(f"unknown ranker {ranker!r}")
    if not queries:
        raise ValueError("no queries given")
    if k_max < 1:
        raise ValueError("k_max must be >= 1")
    cfg = cfg if cfg is not None else MatchConfig()
    params = params if params is not None else ContextParams()
    evals: list[QueryEval] = []
    for query in queries:
        pid = query.detection.person_id
        if pid is None:
            raise ValueError("query detection must carry a labeled identity")
        gt = gallery_positives(gallery, pid, exclude_scene=query.scene_id)
        if not gt:
            raise ValueError(f"query identity {pid} absent from gallery")
        if ranker == "baseline":
            ranked = rank_baseline(query, gallery)
        else:
            ranked = rank_with_context(query, gallery, params)
        walk = _walk_ranked(ranked, gt, cfg.iou_threshold)
        evals.append(_query_eval(*walk, len(gt)))
    mean_ap = math.fsum(q.ap for q in evals) / len(evals)
    cmc = _cmc([q.first_hit_rank for q in evals], k_max)
    return EvalResult(mean_ap, cmc, tuple(evals))
