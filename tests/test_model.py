import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from ctxsearch.model import (
    BoxGeom,
    EmbeddingVec,
    GalleryIndex,
    PersonDetection,
    SceneRecord,
    build_gallery,
    make_query,
)

from conftest import unit_embedding


def det(x1, y1, x2, y2, **kw):
    return PersonDetection(BoxGeom(x1, y1, x2, y2), **kw)


class TestBoxGeom:
    def test_properties(self):
        b = BoxGeom(2.0, 3.0, 10.0, 7.0)
        assert b.width == 8.0
        assert b.height == 4.0
        assert b.area == 32.0

    @pytest.mark.parametrize(
        "coords",
        [
            (0.0, 0.0, 0.0, 5.0),  # zero width
            (0.0, 0.0, 5.0, 0.0),  # zero height
            (5.0, 0.0, 2.0, 5.0),  # inverted x
            (0.0, float("nan"), 5.0, 5.0),
            (0.0, 0.0, float("inf"), 5.0),
        ],
    )
    def test_rejects_degenerate(self, coords):
        with pytest.raises(ValueError):
            BoxGeom(*coords)

    def test_clip(self):
        b = BoxGeom(-5.0, 10.0, 50.0, 900.0).clip(40, 100)
        assert (b.x1, b.y1, b.x2, b.y2) == (0.0, 10.0, 40.0, 100.0)

    def test_clip_to_nothing_raises(self):
        with pytest.raises(ValueError):
            BoxGeom(50.0, 50.0, 60.0, 60.0).clip(40, 40)

    @given(
        x1=st.floats(-100, 100),
        y1=st.floats(-100, 100),
        w=st.floats(0.1, 100),
        h=st.floats(0.1, 100),
    )
    def test_area_positive(self, x1, y1, w, h):
        b = BoxGeom(x1, y1, x1 + w, y1 + h)
        assert b.area > 0.0


class TestPersonDetection:
    def test_labeled_flag(self):
        assert det(0, 0, 1, 1, person_id=3).labeled
        assert not det(0, 0, 1, 1).labeled

    def test_score_range(self):
        det(0, 0, 1, 1, score=0.0)
        det(0, 0, 1, 1, score=1.0)
        with pytest.raises(ValueError):
            det(0, 0, 1, 1, score=1.5)
        with pytest.raises(ValueError):
            det(0, 0, 1, 1, score=-0.1)


class TestSceneRecord:
    def test_box_must_fit_canvas(self):
        SceneRecord("s", 100, 100, (det(0, 0, 100, 100),))
        with pytest.raises(ValueError, match="outside"):
            SceneRecord("s", 100, 100, (det(0, 0, 100.5, 100),))

    def test_rejects_bad_canvas(self):
        with pytest.raises(ValueError):
            SceneRecord("s", 0, 100)


class TestEmbeddingVec:
    def test_normalized_flag_is_checked(self):
        EmbeddingVec(np.array([0.6, 0.8]), normalized=True)
        with pytest.raises(ValueError, match="norm deviates"):
            EmbeddingVec(np.array([0.6, 0.9]), normalized=True)

    def test_unit_normalizes(self):
        e = EmbeddingVec(np.array([3.0, 4.0]))
        u = e.unit()
        assert u.normalized
        np.testing.assert_allclose(u.values, [0.6, 0.8])

    def test_unit_is_identity_when_normalized(self):
        e = EmbeddingVec(np.array([1.0, 0.0]), normalized=True)
        assert e.unit() is e

    def test_zero_vector_cannot_normalize(self):
        with pytest.raises(ValueError, match="zero-norm"):
            EmbeddingVec(np.zeros(4)).unit()

    def test_rejects_bad_shapes(self):
        with pytest.raises(ValueError):
            EmbeddingVec(np.zeros((2, 2)))
        with pytest.raises(ValueError):
            EmbeddingVec(np.array([]))
        with pytest.raises(ValueError):
            EmbeddingVec(np.array([1.0, float("nan")]))

    @given(st.lists(st.floats(-10, 10), min_size=1, max_size=16))
    def test_unit_norm_property(self, vals):
        v = np.asarray(vals)
        if np.linalg.norm(v) < 1e-9:
            return
        assert abs(float(np.linalg.norm(EmbeddingVec(v).unit().values)) - 1.0) < 1e-12


def two_scene_world():
    s1 = SceneRecord("a", 100, 100, (det(0, 0, 10, 20), det(20, 0, 30, 20)))
    s2 = SceneRecord("b", 100, 100, (det(5, 5, 15, 25),))
    embs = [
        EmbeddingVec(np.array([2.0, 0.0, 0.0])),
        EmbeddingVec(np.array([0.0, 1.0, 0.0]), normalized=True),
        EmbeddingVec(np.array([0.0, 0.0, 5.0])),
    ]
    return [s1, s2], embs


class TestBuildGallery:
    def test_entries_and_scene_map(self):
        scenes, embs = two_scene_world()
        g = build_gallery(scenes, embs)
        assert len(g) == 3
        assert g.dim == 3
        assert g.scene_map == {"a": (0, 1), "b": (2,)}
        assert g.scene_entries("a") == (0, 1)
        assert g.scene_entries("missing") == ()
        # normalization happened on the way in
        for e in g.entries:
            assert e.embedding.normalized
        np.testing.assert_allclose(g.entries[0].embedding.values, [1.0, 0.0, 0.0])

    def test_matrix_and_scene_offsets(self):
        scenes, embs = two_scene_world()
        empty = SceneRecord("c", 100, 100, ())
        g = build_gallery([scenes[0], empty, scenes[1]], embs)
        assert g.matrix.dtype == np.float64 and g.matrix.flags.c_contiguous
        assert g.matrix.shape == (3, 3)
        for row, e in zip(g.matrix, g.entries):
            np.testing.assert_array_equal(row, e.embedding.values)
        assert g.scene_starts.tolist() == [0, 2, 2]
        assert g.scene_sizes.tolist() == [2, 0, 1]
        assert build_gallery([], [], dim=4).matrix.shape == (0, 4)

    @pytest.mark.parametrize(
        "scene_map",
        [{"a": (1, 2), "b": (0,)}, {"a": (0, 2), "b": (1,)}, {"a": (0, 1)}, {"a": (0, 1, 2, 3)}],
    )
    def test_scene_map_must_be_consecutive_runs(self, scene_map):
        g = build_gallery(*two_scene_world())
        with pytest.raises(ValueError, match="consecutive|covers"):
            GalleryIndex(g.entries, scene_map, g.dim)

    def test_count_mismatch(self):
        scenes, embs = two_scene_world()
        with pytest.raises(ValueError, match="detections but"):
            build_gallery(scenes, embs[:2])

    def test_mixed_dims(self):
        scenes, embs = two_scene_world()
        embs[2] = EmbeddingVec(np.array([1.0, 0.0]))
        with pytest.raises(ValueError, match="mixed"):
            build_gallery(scenes, embs)

    def test_duplicate_scene_id(self):
        s = SceneRecord("a", 100, 100, (det(0, 0, 10, 20),))
        e = EmbeddingVec(np.array([1.0, 0.0]), normalized=True)
        with pytest.raises(ValueError, match="duplicate"):
            build_gallery([s, s], [e, e])

    def test_empty_gallery_needs_dim(self):
        with pytest.raises(ValueError, match="dim is required"):
            build_gallery([], [])
        g = build_gallery([], [], dim=8)
        assert len(g) == 0 and g.dim == 8

    def test_dim_conflict(self):
        scenes, embs = two_scene_world()
        with pytest.raises(ValueError, match="dim=5"):
            build_gallery(scenes, embs, dim=5)


class TestMakeQuery:
    def test_context_is_rest_of_scene_in_order(self):
        scenes, embs = two_scene_world()
        q = make_query(scenes[0], 1, embs[:2])
        assert q.scene_id == "a"
        assert q.n_context == 1
        assert q.detection is scenes[0].detections[1]
        ctx_det, ctx_emb = q.context[0]
        assert ctx_det is scenes[0].detections[0]
        assert ctx_emb.normalized
        np.testing.assert_allclose(q.embedding.values, [0.0, 1.0, 0.0])

    def test_lone_person_has_no_context(self):
        scenes, embs = two_scene_world()
        q = make_query(scenes[1], 0, embs[2:])
        assert q.n_context == 0

    def test_target_index_range(self):
        scenes, embs = two_scene_world()
        with pytest.raises(IndexError):
            make_query(scenes[0], 2, embs[:2])

    def test_embedding_count_checked(self):
        scenes, embs = two_scene_world()
        with pytest.raises(ValueError, match="detections"):
            make_query(scenes[0], 0, embs)

    def test_context_ordering_many(self):
        rng = np.random.default_rng(0)
        dets = tuple(det(10 * i, 0, 10 * i + 5, 10) for i in range(5))
        scene = SceneRecord("s", 100, 100, dets)
        embs = [unit_embedding(rng, 4) for _ in range(5)]
        q = make_query(scene, 2, embs)
        assert [c[0] for c in q.context] == [dets[0], dets[1], dets[3], dets[4]]
