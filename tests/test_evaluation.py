import math

import numpy as np
import pytest

from ctxsearch import evaluation
from ctxsearch.evaluation import (
    MatchConfig,
    average_precision,
    cmc_curve,
    evaluate,
    gallery_positives,
    match_detections,
)
from ctxsearch.model import (
    BoxGeom,
    EmbeddingVec,
    PersonDetection,
    QuerySpec,
    SceneRecord,
    build_gallery,
)
from ctxsearch.ranking import RankedList, rank_baseline


def emb(*vals):
    return EmbeddingVec(np.array(vals, dtype=float), normalized=True)


def unit4(s1, s2, s3):
    s4 = math.sqrt(1.0 - s1 * s1 - s2 * s2 - s3 * s3)
    return emb(s1, s2, s3, s4)


def det(i, person_id=None, score=None):
    return PersonDetection(
        BoxGeom(10.0 * i, 0.0, 10.0 * i + 8.0, 20.0), score=score, person_id=person_id
    )


def query(pid, values):
    return QuerySpec(f"query_scene_{pid}", det(0, person_id=pid), emb(*values))


def three_query_world():
    """Nine gallery entries whose per-query similarity orders are hand-set.

    Query 1 finds its two positives at ranks 1 and 3 (AP 5/6), query 2 its
    single positive at rank 2 (AP 1/2), query 3 its single positive at rank 4
    behind three impostors (AP 1/4).
    """
    scenes = [
        SceneRecord("S1", 200, 100, (det(0, 1), det(1, 0), det(2, 0))),
        SceneRecord("S2", 200, 100, (det(0, 1), det(1, 2), det(2, 0))),
        SceneRecord("S3", 200, 100, (det(0, 3), det(1, 0), det(2, 0))),
    ]
    embs = [
        emb(1.0, 0.0, 0.0, 0.0),   # E0 person 1, sim 1.0 to q1
        unit4(0.90, 0.05, 0.05),   # E1 impostor above q1's second positive
        unit4(0.10, 0.02, 0.90),   # E2 impostor, q3 rank 1
        unit4(0.80, 0.04, 0.02),   # E3 person 1, q1 rank 3
        unit4(0.20, 0.85, 0.03),   # E4 person 2, q2 rank 2
        unit4(0.15, 0.03, 0.80),   # E5 impostor, q3 rank 2
        unit4(0.25, 0.06, 0.60),   # E6 person 3, q3 rank 4
        unit4(0.30, 0.90, 0.10),   # E7 impostor, q2 rank 1
        unit4(0.05, 0.01, 0.70),   # E8 impostor, q3 rank 3
    ]
    gallery = build_gallery(scenes, embs)
    queries = [
        query(1, (1.0, 0.0, 0.0, 0.0)),
        query(2, (0.0, 1.0, 0.0, 0.0)),
        query(3, (0.0, 0.0, 1.0, 0.0)),
    ]
    return queries, gallery


class TestMatchDetections:
    def test_greedy_claiming(self):
        gt = [det(0), det(2)]
        preds = [
            det(0, score=0.9),                                # claims gt 0
            PersonDetection(BoxGeom(1, 0, 9, 20), score=0.8),  # gt 0 taken, gt 1 disjoint
            det(2, score=0.7),                                # claims gt 1
        ]
        assert match_detections(preds, gt, MatchConfig()) == [(0, 0), (2, 1)]

    def test_low_scores_dropped_at_threshold(self):
        gt = [det(0)]
        kept = match_detections([det(0, score=0.5)], gt, MatchConfig())
        assert kept == [(0, 0)]
        dropped = match_detections([det(0, score=0.49)], gt, MatchConfig())
        assert dropped == []

    def test_iou_must_strictly_exceed_threshold(self):
        gt = [PersonDetection(BoxGeom(0, 0, 2, 2))]
        # IoU with gt is exactly 1/3
        pred = [PersonDetection(BoxGeom(1, 0, 3, 2), score=0.9)]
        assert match_detections(pred, gt, MatchConfig(iou_threshold=1 / 3)) == []
        assert match_detections(pred, gt, MatchConfig(iou_threshold=0.33)) == [(0, 0)]

    def test_iou_tie_takes_lower_gt_index(self):
        box = BoxGeom(0, 0, 10, 10)
        gt = [PersonDetection(box), PersonDetection(box)]
        pred = [PersonDetection(box, score=0.9)]
        assert match_detections(pred, gt, MatchConfig()) == [(0, 0)]

    def test_each_gt_claimed_once(self):
        gt = [det(0)]
        preds = [det(0, score=0.9), det(0, score=0.8)]
        assert match_detections(preds, gt, MatchConfig()) == [(0, 0)]

    def test_unscored_prediction_rejected(self):
        with pytest.raises(ValueError, match="scored"):
            match_detections([det(0)], [det(0)], MatchConfig())

    def test_config_validation(self):
        with pytest.raises(ValueError):
            MatchConfig(iou_threshold=0.0)
        with pytest.raises(ValueError):
            MatchConfig(fg_score_threshold=1.0)


class TestAveragePrecision:
    def test_recall_scaling(self):
        scene = SceneRecord("S", 100, 100, (det(0, 7),))
        gallery = build_gallery([scene], [emb(1.0, 0.0)])
        q = QuerySpec("q", det(0, person_id=7), emb(1.0, 0.0))
        ranked = rank_baseline(q, gallery)
        gt = gallery_positives(gallery, 7)
        # one reachable positive plus one nothing can claim
        gt.append(("S_elsewhere", BoxGeom(0, 0, 5, 5)))
        ap, recall = average_precision(ranked, gt, MatchConfig())
        assert recall == 0.5
        assert ap == 0.5  # unscaled precision 1.0 times recall

    def test_no_positives_is_an_error(self):
        scene = SceneRecord("S", 100, 100, (det(0, 7),))
        gallery = build_gallery([scene], [emb(1.0, 0.0)])
        q = QuerySpec("q", det(0, person_id=7), emb(1.0, 0.0))
        with pytest.raises(ValueError, match="positives"):
            average_precision(rank_baseline(q, gallery), [], MatchConfig())

    def test_no_true_positive_scores_zero(self):
        scene = SceneRecord("S", 100, 100, (det(0, 7),))
        gallery = build_gallery([scene], [emb(1.0, 0.0)])
        q = QuerySpec("q", det(0, person_id=7), emb(1.0, 0.0))
        gt = [("other_scene", BoxGeom(0, 0, 5, 5))]
        assert average_precision(rank_baseline(q, gallery), gt, MatchConfig()) == (0.0, 0.0)


    def test_walk_stops_at_last_true_match(self, monkeypatch):
        # query 1 claims both of its positives by rank 3 of 9
        queries, gallery = three_query_world()
        ranked = rank_baseline(queries[0], gallery)
        rank_of = {id(c.entry.detection.box): k for k, c in enumerate(ranked.candidates, 1)}
        iou_ranks, read_ranks = [], []

        class RecordingCandidates(tuple):
            def __iter__(self):
                for k, c in enumerate(tuple.__iter__(self), 1):
                    read_ranks.append(k)
                    yield c

        def counting_iou(a, b):
            iou_ranks.append(rank_of[id(a)])
            return real_iou(a, b)

        real_iou = evaluation.iou
        monkeypatch.setattr(evaluation, "iou", counting_iou)
        recorded = RankedList(ranked.query, RecordingCandidates(ranked.candidates))
        ap, recall = average_precision(recorded, gallery_positives(gallery, 1), MatchConfig())
        assert ap == pytest.approx(5 / 6, abs=1e-12)
        assert recall == 1.0
        assert len(ranked.candidates) == 9
        assert max(iou_ranks) == 3
        assert max(read_ranks) == 3


class TestCmcCurve:
    def test_counts_first_hits(self):
        queries, gallery = three_query_world()
        ranked = [rank_baseline(q, gallery) for q in queries]
        gts = [
            gallery_positives(gallery, q.detection.person_id, exclude_scene=q.scene_id)
            for q in queries
        ]
        cmc = cmc_curve(ranked, gts, MatchConfig(), k_max=5)
        np.testing.assert_allclose(cmc, [1 / 3, 2 / 3, 2 / 3, 1.0, 1.0])

    def test_monotone(self):
        queries, gallery = three_query_world()
        ranked = [rank_baseline(q, gallery) for q in queries]
        gts = [
            gallery_positives(gallery, q.detection.person_id, exclude_scene=q.scene_id)
            for q in queries
        ]
        cmc = cmc_curve(ranked, gts, MatchConfig(), k_max=9)
        assert np.all(np.diff(cmc) >= 0.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            cmc_curve([], [], MatchConfig(), k_max=0)
        queries, gallery = three_query_world()
        ranked = [rank_baseline(queries[0], gallery)]
        with pytest.raises(ValueError):
            cmc_curve(ranked, [[], []], MatchConfig(), k_max=5)


class TestGalleryPositives:
    def test_collects_and_excludes(self):
        _, gallery = three_query_world()
        got = gallery_positives(gallery, 1)
        assert [(s, b.x1) for s, b in got] == [("S1", 0.0), ("S2", 0.0)]
        got = gallery_positives(gallery, 1, exclude_scene="S1")
        assert [(s, b.x1) for s, b in got] == [("S2", 0.0)]

    def test_unlabeled_never_counts(self):
        _, gallery = three_query_world()
        with pytest.raises(ValueError):
            gallery_positives(gallery, None)


class TestEvaluate:
    def test_hand_computed_map_and_cmc(self):
        queries, gallery = three_query_world()
        result = evaluate(queries, gallery, ranker="baseline", k_max=5)
        assert result.per_query[0].ap == pytest.approx(5 / 6, abs=1e-12)
        assert result.per_query[1].ap == pytest.approx(1 / 2, abs=1e-12)
        assert result.per_query[2].ap == pytest.approx(1 / 4, abs=1e-12)
        assert result.mean_ap == pytest.approx(19 / 36, abs=1e-12)
        np.testing.assert_allclose(result.cmc, [1 / 3, 2 / 3, 2 / 3, 1.0, 1.0])
        assert [q.first_hit_rank for q in result.per_query] == [1, 2, 4]
        assert [q.recall for q in result.per_query] == [1.0, 1.0, 1.0]

    def test_rcp_equals_baseline_without_context(self):
        queries, gallery = three_query_world()
        base = evaluate(queries, gallery, ranker="baseline")
        rcp = evaluate(queries, gallery, ranker="rcp")
        assert rcp.mean_ap == base.mean_ap
        np.testing.assert_array_equal(rcp.cmc, base.cmc)

    def test_context_improves_ap_on_overtake_fixture(self):
        q = QuerySpec(
            "q",
            det(0, person_id=5),
            emb(1.0, 0.0, 0.0, 0.0),
            context=((det(1), emb(0.0, 1.0, 0.0, 0.0)),),
        )
        scenes = [
            SceneRecord("A", 200, 100, (det(0, 5), det(1, 6))),
            SceneRecord("B", 200, 100, (det(0, 0), det(1, 0))),
        ]
        embs = [
            emb(0.70, 0.0, math.sqrt(1 - 0.70**2), 0.0),
            emb(0.0, 0.9, 0.0, math.sqrt(0.19)),
            emb(0.72, 0.0, math.sqrt(1 - 0.72**2), 0.0),
            emb(0.0, 0.1, 0.0, math.sqrt(0.99)),
        ]
        gallery = build_gallery(scenes, embs)
        base = evaluate([q], gallery, ranker="baseline")
        rcp = evaluate([q], gallery, ranker="rcp")
        assert base.per_query[0].first_hit_rank == 2
        assert rcp.per_query[0].first_hit_rank == 1
        assert base.mean_ap == pytest.approx(0.5)
        assert rcp.mean_ap == pytest.approx(1.0)

    def test_map_independent_of_query_order(self):
        queries, gallery = three_query_world()
        forward = evaluate(queries, gallery).mean_ap
        backward = evaluate(list(reversed(queries)), gallery).mean_ap
        assert forward == backward

    def test_validations(self):
        queries, gallery = three_query_world()
        with pytest.raises(ValueError, match="ranker"):
            evaluate(queries, gallery, ranker="best")
        with pytest.raises(ValueError, match="queries"):
            evaluate([], gallery)
        unlabeled = QuerySpec("q", det(0), emb(1.0, 0.0, 0.0, 0.0))
        with pytest.raises(ValueError, match="labeled"):
            evaluate([unlabeled], gallery)
        missing = query(99, (1.0, 0.0, 0.0, 0.0))
        with pytest.raises(ValueError, match="absent"):
            evaluate([missing], gallery)

    @pytest.mark.parametrize("k_max", [0, -1])
    def test_k_max_below_one_rejected(self, k_max):
        # like cmc_curve: an empty CMC array is no curve at all
        queries, gallery = three_query_world()
        with pytest.raises(ValueError, match="k_max"):
            evaluate(queries, gallery, k_max=k_max)

    def test_own_scene_positives_excluded(self):
        # the query scene holds a positive, but it must not count
        scenes = [
            SceneRecord("A", 200, 100, (det(0, 5),)),
            SceneRecord("B", 200, 100, (det(0, 5),)),
        ]
        embs = [emb(1.0, 0.0), emb(0.8, 0.6)]
        gallery = build_gallery(scenes, embs)
        q = QuerySpec("A", det(0, person_id=5), emb(1.0, 0.0))
        result = evaluate([q], gallery)
        assert result.per_query[0].first_hit_rank == 1
        assert result.mean_ap == 1.0
