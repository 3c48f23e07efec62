import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ctxsearch.model import (
    BoxGeom,
    EmbeddingVec,
    GalleryEntry,
    PersonDetection,
    QuerySpec,
    SceneRecord,
    build_gallery,
    make_query,
)
from ctxsearch.ranking import (
    ContextParams,
    _pair_dots,
    co_occurrence_score,
    context_score,
    rank_baseline,
    rank_with_context,
)

from conftest import (
    oracle_rank_baseline,
    oracle_rank_with_context,
    random_box,
    random_instance,
    unit_embedding,
)


def emb(*vals):
    return EmbeddingVec(np.array(vals, dtype=float), normalized=True)


def det(i):
    return PersonDetection(BoxGeom(10.0 * i, 0.0, 10.0 * i + 8.0, 20.0))


def entry(scene_id, i, e):
    return GalleryEntry(scene_id, det(i), e)


class TestContextParams:
    def test_defaults(self):
        p = ContextParams()
        assert p.weight == 0.2
        assert p.gate_threshold == 0.3

    def test_zero_weight_allowed(self):
        assert ContextParams(weight=0.0).weight == 0.0

    @pytest.mark.parametrize("weight", [-0.1, 1.0, 1.5])
    def test_weight_range(self, weight):
        with pytest.raises(ValueError):
            ContextParams(weight=weight)

    def test_gate_must_be_nonnegative(self):
        with pytest.raises(ValueError):
            ContextParams(gate_threshold=-0.01)
        # NaN fails every gate comparison and would silently close the gate
        with pytest.raises(ValueError):
            ContextParams(gate_threshold=math.nan)


class TestCoOccurrenceScore:
    def test_open_gate_multiplies(self):
        assert co_occurrence_score(0.8, 0.5, 0.3) == pytest.approx(0.4)

    def test_closed_gate_zeroes(self):
        assert co_occurrence_score(0.8, 0.2, 0.3) == 0.0

    def test_gate_boundary_is_inclusive(self):
        assert co_occurrence_score(0.8, 0.3, 0.3) == pytest.approx(0.24)

    def test_negative_candidate_sim_flows_through(self):
        assert co_occurrence_score(-0.5, 0.4, 0.3) == pytest.approx(-0.2)

    def test_negative_gate_rejected(self):
        with pytest.raises(ValueError):
            co_occurrence_score(0.5, 0.5, -0.1)
        with pytest.raises(ValueError):
            co_occurrence_score(0.5, 0.5, math.nan)

    @given(
        cand=st.floats(-1, 1),
        best=st.floats(-1, 1),
        gate=st.floats(0, 1),
    )
    def test_zero_iff_gated(self, cand, best, gate):
        v = co_occurrence_score(cand, best, gate)
        if best >= gate:
            assert v == cand * best
        else:
            assert v == 0.0


class TestContextScore:
    def q_with_context(self):
        return QuerySpec(
            scene_id="q",
            detection=det(0),
            embedding=emb(1.0, 0.0, 0.0, 0.0),
            context=((det(1), emb(0.0, 1.0, 0.0, 0.0)),),
        )

    def test_single_context_person(self):
        q = self.q_with_context()
        cand = entry("A", 0, emb(0.5, 0.0, math.sqrt(0.75), 0.0))
        pool = [entry("A", 1, emb(0.0, 0.9, 0.0, math.sqrt(0.19)))]
        got = context_score(q, cand, pool, ContextParams())
        assert got == pytest.approx(0.45, abs=1e-12)

    def test_empty_pool_or_context_is_zero(self):
        q = self.q_with_context()
        cand = entry("A", 0, emb(1.0, 0.0, 0.0, 0.0))
        assert context_score(q, cand, [], ContextParams()) == 0.0
        lonely = QuerySpec("q", det(0), emb(1.0, 0.0, 0.0, 0.0))
        pool = [entry("A", 1, emb(0.0, 1.0, 0.0, 0.0))]
        assert context_score(lonely, cand, pool, ContextParams()) == 0.0

    def test_context_terms_sum(self):
        q = QuerySpec(
            scene_id="q",
            detection=det(0),
            embedding=emb(1.0, 0.0, 0.0, 0.0),
            context=(
                (det(1), emb(0.0, 1.0, 0.0, 0.0)),
                (det(2), emb(0.0, 0.0, 1.0, 0.0)),
            ),
        )
        cand = entry("A", 0, emb(0.5, 0.0, 0.0, math.sqrt(0.75)))
        pool = [
            entry("A", 1, emb(0.0, 0.8, 0.6, 0.0)),
            entry("A", 2, emb(0.0, 0.0, 1.0, 0.0)),
        ]
        # first context person best-matches 0.8, second 1.0; both gated in
        want = 0.5 * 0.8 + 0.5 * 1.0
        got = context_score(q, cand, pool, ContextParams())
        assert got == pytest.approx(want, abs=1e-12)


def overtake_world():
    """Two gallery scenes; context flips which 0.7-lookalike ranks first.

    The query individual similarity slightly prefers scene B's candidate, but
    only scene A contains a confident match for the query's companion.
    """
    q = QuerySpec(
        scene_id="q",
        detection=det(0),
        embedding=emb(1.0, 0.0, 0.0, 0.0),
        context=((det(1), emb(0.0, 1.0, 0.0, 0.0)),),
    )
    scene_a = SceneRecord("A", 200, 100, (det(0), det(1)))
    scene_b = SceneRecord("B", 200, 100, (det(0), det(1)))
    g_a = emb(0.70, 0.0, math.sqrt(1 - 0.70**2), 0.0)
    m_a = emb(0.0, 0.9, 0.0, math.sqrt(0.19))
    g_b = emb(0.72, 0.0, math.sqrt(1 - 0.72**2), 0.0)
    m_b = emb(0.0, 0.1, 0.0, math.sqrt(0.99))
    gallery = build_gallery([scene_a, scene_b], [g_a, m_a, g_b, m_b])
    return q, gallery


class TestRankBaseline:
    def test_orders_by_similarity_then_index(self):
        q, gallery = overtake_world()
        ranked = rank_baseline(q, gallery)
        assert [c.index for c in ranked.candidates] == [2, 0, 1, 3]
        assert ranked.candidates[0].s_final == pytest.approx(0.72)
        assert ranked.candidates[1].s_final == pytest.approx(0.70)
        # companions are orthogonal to the query
        assert ranked.candidates[2].s_final == pytest.approx(0.0)

    def test_context_fields_zero(self):
        q, gallery = overtake_world()
        for c in rank_baseline(q, gallery).candidates:
            assert c.s_context == 0.0
            assert c.s_final == c.s_individual

    def test_excludes_query_scene(self):
        rng = np.random.default_rng(0)
        scene = SceneRecord("A", 200, 100, (det(0), det(1)))
        e1, e2 = emb(1.0, 0.0), emb(0.0, 1.0)
        gallery = build_gallery([scene], [e1, e2])
        q = make_query(scene, 0, [e1, e2])
        assert rank_baseline(q, gallery).candidates == ()

    def test_top_k(self):
        q, gallery = overtake_world()
        ranked = rank_baseline(q, gallery)
        assert len(ranked.top(2)) == 2
        assert ranked.top(100) == ranked.candidates

    def test_unnormalized_query_rejected(self):
        _, gallery = overtake_world()
        q = QuerySpec("q", det(0), EmbeddingVec(np.array([2.0, 0.0, 0.0, 0.0])))
        with pytest.raises(ValueError, match="normalized"):
            rank_baseline(q, gallery)

    def test_dim_mismatch_rejected(self):
        _, gallery = overtake_world()
        q = QuerySpec("q", det(0), emb(1.0, 0.0))
        with pytest.raises(ValueError, match="dimension"):
            rank_baseline(q, gallery)


class TestRankWithContext:
    def test_context_overtakes_individual(self):
        q, gallery = overtake_world()
        ranked = rank_with_context(q, gallery)
        assert [c.index for c in ranked.candidates] == [0, 2, 1, 3]
        best = ranked.candidates[0]
        assert best.s_individual == pytest.approx(0.70)
        assert best.s_context == pytest.approx(0.63, abs=1e-12)
        assert best.s_final == pytest.approx(0.826, abs=1e-12)
        runner_up = ranked.candidates[1]
        assert runner_up.s_context == 0.0  # companion match 0.1 is under the gate
        assert runner_up.s_final == pytest.approx(0.72)

    def test_zero_weight_reproduces_baseline(self):
        q, gallery = overtake_world()
        base = rank_baseline(q, gallery)
        rcp = rank_with_context(q, gallery, ContextParams(weight=0.0))
        assert [c.index for c in rcp.candidates] == [c.index for c in base.candidates]
        for a, b in zip(rcp.candidates, base.candidates):
            assert a.s_final == b.s_final

    def test_impassable_gate_reproduces_baseline(self):
        q, gallery = overtake_world()
        base = rank_baseline(q, gallery)
        rcp = rank_with_context(q, gallery, ContextParams(gate_threshold=2.0))
        assert [c.index for c in rcp.candidates] == [c.index for c in base.candidates]
        for c in rcp.candidates:
            assert c.s_context == 0.0

    def test_candidate_removed_from_own_pool(self):
        # single-person scenes leave nothing for context to match
        q = QuerySpec(
            "q", det(0), emb(1.0, 0.0),
            context=((det(1), emb(0.0, 1.0)),),
        )
        scene = SceneRecord("A", 100, 100, (det(0),))
        gallery = build_gallery([scene], [emb(0.8, 0.6)])
        ranked = rank_with_context(q, gallery)
        assert len(ranked.candidates) == 1
        assert ranked.candidates[0].s_context == 0.0

    def test_excludes_query_scene(self):
        scene = SceneRecord("A", 200, 100, (det(0), det(1)))
        e1, e2 = emb(1.0, 0.0), emb(0.0, 1.0)
        gallery = build_gallery([scene], [e1, e2])
        q = make_query(scene, 0, [e1, e2])
        assert rank_with_context(q, gallery).candidates == ()

    def test_final_score_factorizes(self):
        rng = np.random.default_rng(21)
        params = ContextParams()
        for _ in range(20):
            q, gallery = random_instance(rng)
            for c in rank_with_context(q, gallery, params).candidates:
                assert c.s_final == pytest.approx(
                    c.s_individual + params.weight * c.s_context, abs=1e-12
                )

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_matches_triple_loop_reference_bitwise(self, seed):
        rng = np.random.default_rng(seed)
        q, gallery = random_instance(rng)
        params = ContextParams(
            weight=float(rng.uniform(0.0, 0.99)),
            gate_threshold=float(rng.uniform(0.0, 1.0)),
        )
        got = rank_with_context(q, gallery, params)
        want = oracle_rank_with_context(q, gallery, params)
        assert len(got.candidates) == len(want)
        for c, (idx, s_ind, s_ctx, s_final) in zip(got.candidates, want):
            assert c.index == idx
            assert c.s_individual == s_ind
            assert c.s_context == s_ctx
            assert c.s_final == s_final

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=25, deadline=None)
    def test_raising_gate_on_positive_sims_never_raises_context(self, seed):
        # with non-negative similarities all around, a stricter gate can only
        # remove context evidence
        rng = np.random.default_rng(seed)
        q, gallery = random_instance(rng, dim=6)
        gates = sorted(rng.uniform(0.0, 1.0, size=2))
        lo = rank_with_context(q, gallery, ContextParams(gate_threshold=float(gates[0])))
        hi = rank_with_context(q, gallery, ContextParams(gate_threshold=float(gates[1])))
        ctx_lo = {c.index: c.s_context for c in lo.candidates}
        for c in hi.candidates:
            if c.s_individual >= 0.0:
                assert c.s_context <= ctx_lo[c.index] + 1e-12


class TestPairDots:
    @pytest.mark.parametrize("dim", [1, 8, 64, 300])
    def test_bitwise_equal_to_np_dot(self, dim):
        rng = np.random.default_rng(dim)
        a = rng.normal(size=(5, dim))
        b = rng.normal(size=(40, dim))
        got = _pair_dots(a, b)
        assert got.shape == (5, 40)
        for i in range(5):
            for j in range(40):
                assert got[i, j] == float(np.dot(a[i], b[j]))


def assert_matches_oracles(q, gallery, params):
    """Both rankers against the scalar references, bit for bit."""
    base = rank_baseline(q, gallery).candidates
    assert [(c.index, c.s_final) for c in base] == oracle_rank_baseline(q, gallery)
    for c in base:
        assert c.s_context == 0.0 and c.s_final is c.s_individual
    got = rank_with_context(q, gallery, params).candidates
    want = oracle_rank_with_context(q, gallery, params)
    assert [(c.index, c.s_individual, c.s_context, c.s_final) for c in got] == want
    return got


def sized_world(rng, sizes, dim=6):
    """A gallery whose scenes have the given detection counts (0 allowed)."""
    scenes = [
        SceneRecord(f"s{k}", 960, 540, tuple(PersonDetection(random_box(rng)) for _ in range(n)))
        for k, n in enumerate(sizes)
    ]
    return scenes, [unit_embedding(rng, dim) for _ in range(sum(sizes))]


def held_out_query(rng, n_persons, dim=6):
    dets = tuple(PersonDetection(random_box(rng)) for _ in range(n_persons))
    scene = SceneRecord("held_out", 960, 540, dets)
    return make_query(scene, 0, [unit_embedding(rng, dim) for _ in range(n_persons)])


class TestBatchedScorerEdgeCases:
    params = ContextParams(weight=0.5, gate_threshold=0.0)

    @pytest.mark.parametrize("sizes", [[0, 3, 2], [3, 0, 2], [3, 2, 0], [0, 0, 4, 0]])
    def test_scene_without_detections(self, sizes):
        rng = np.random.default_rng(sum(i * n for i, n in enumerate(sizes)))
        gallery = build_gallery(*sized_world(rng, sizes))
        got = assert_matches_oracles(held_out_query(rng, 3), gallery, self.params)
        assert len(got) == sum(sizes)

    def test_single_entry_scenes_have_no_context(self):
        rng = np.random.default_rng(3)
        gallery = build_gallery(*sized_world(rng, [1, 3, 1, 1, 2]))
        got = assert_matches_oracles(held_out_query(rng, 4), gallery, self.params)
        lone = [c for c in got if len(gallery.scene_entries(c.entry.scene_id)) == 1]
        assert len(lone) == 3
        for c in lone:
            assert c.s_context == 0.0

    @pytest.mark.parametrize("query_scene", [0, 2, 3])
    def test_query_scene_inside_gallery(self, query_scene):
        rng = np.random.default_rng(query_scene)
        scenes, embs = sized_world(rng, [3, 2, 4, 1])
        gallery = build_gallery(scenes, embs)
        start = sum(len(s.detections) for s in scenes[:query_scene])
        scene = scenes[query_scene]
        q = make_query(scene, 0, embs[start : start + len(scene.detections)])
        got = assert_matches_oracles(q, gallery, self.params)
        assert {c.entry.scene_id for c in got} == {s.scene_id for s in scenes} - {scene.scene_id}

    def test_query_scene_outside_gallery(self):
        rng = np.random.default_rng(5)
        gallery = build_gallery(*sized_world(rng, [3, 2, 4, 1]))
        got = assert_matches_oracles(held_out_query(rng, 2), gallery, self.params)
        assert len(got) == len(gallery)

    def test_query_without_context(self):
        rng = np.random.default_rng(6)
        gallery = build_gallery(*sized_world(rng, [3, 2, 4]))
        q = held_out_query(rng, 1)
        assert q.n_context == 0
        for c in assert_matches_oracles(q, gallery, self.params):
            assert c.s_context == 0.0

    def test_tied_scene_maxima_and_tied_final_scores(self):
        # two copies of one scene: every final score is tied with its twin,
        # and each context person's best match occurs twice within a scene
        rng = np.random.default_rng(8)
        scenes, embs = sized_world(rng, [3])
        twin = SceneRecord("twin", 960, 540, scenes[0].detections)
        dup = [embs[0], embs[0], embs[1]]
        gallery = build_gallery([scenes[0], twin], dup + dup)
        q = held_out_query(rng, 3)
        q = QuerySpec(q.scene_id, q.detection, q.embedding,
                      tuple((d, embs[0]) for d, _ in q.context))
        got = assert_matches_oracles(q, gallery, self.params)
        pos = {c.index: k for k, c in enumerate(got)}
        for i in range(3):
            assert pos[i] < pos[i + 3]  # twins tie; the lower index leads
            assert got[pos[i]].s_final == got[pos[i + 3]].s_final
        # the entry holding a scene's first maximum still finds its copy
        assert got[pos[0]].s_context == got[pos[1]].s_context != 0.0

    @pytest.mark.parametrize("sizes", [[], [0], [0, 0]])
    def test_empty_gallery(self, sizes):
        rng = np.random.default_rng(7)
        scenes, embs = sized_world(rng, sizes)
        gallery = build_gallery(scenes, embs, dim=6)
        q = held_out_query(rng, 3)
        assert rank_baseline(q, gallery).candidates == ()
        assert rank_with_context(q, gallery, self.params).candidates == ()


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=40, deadline=None)
def test_scene_order_changes_only_indices(seed):
    """Building the gallery from permuted scenes moves entries, not scores."""
    rng = np.random.default_rng(seed)
    q, gallery = random_instance(rng)
    scenes = {}
    embs = {}
    for scene_id, indices in gallery.scene_map.items():
        scenes[scene_id] = SceneRecord(
            scene_id, 960, 540, tuple(gallery.entries[i].detection for i in indices)
        )
        embs[scene_id] = [gallery.entries[i].embedding for i in indices]
    order = [list(scenes)[k] for k in rng.permutation(len(scenes))]
    permuted = build_gallery(
        [scenes[s] for s in order], [e for s in order for e in embs[s]]
    )
    params = ContextParams(
        weight=float(rng.uniform(0.0, 0.99)), gate_threshold=float(rng.uniform(0.0, 1.0))
    )

    def key(c):
        b = c.entry.detection.box
        return (c.entry.scene_id, b.x1, b.y1, b.x2, b.y2)

    for rank in (rank_baseline, lambda q_, g: rank_with_context(q_, g, params)):
        before, after = rank(q, gallery).candidates, rank(q, permuted).candidates
        scores = lambda cands: {  # noqa: E731
            key(c): (c.s_individual, c.s_context, c.s_final) for c in cands
        }
        assert scores(before) == scores(after)
        assert len(before) == len(after)
        assert [(-c.s_final, c.index) for c in after] == sorted(
            (-c.s_final, c.index) for c in after
        )
