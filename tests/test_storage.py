import json
import struct

import numpy as np
import pytest

from ctxsearch.model import BoxGeom, EmbeddingVec, PersonDetection, SceneRecord
from ctxsearch.storage import (
    AnnotationError,
    FeatureFormatError,
    FeatureRecord,
    feature_records,
    load_annotations,
    load_features,
    load_world,
    save_annotations,
    save_features,
    save_world,
)


def sample_scenes():
    return [
        SceneRecord(
            "alpha",
            960,
            540,
            (
                PersonDetection(BoxGeom(10.5, 20.25, 50.0, 120.0), person_id=3),
                PersonDetection(BoxGeom(100.0, 30.0, 140.0, 130.0), score=0.75),
            ),
        ),
        SceneRecord("beta", 640, 480, (PersonDetection(BoxGeom(5.0, 5.0, 25.0, 65.0)),)),
    ]


def sample_records():
    rng = np.random.default_rng(0)
    out = []
    for scene in sample_scenes():
        for det in scene.detections:
            out.append(
                FeatureRecord(
                    scene.scene_id,
                    det.box,
                    rng.normal(size=16).astype(np.float32),
                )
            )
    return out


class TestAnnotations:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "scenes.jsonl"
        scenes = sample_scenes()
        save_annotations(path, scenes)
        assert load_annotations(path) == scenes

    def test_blank_lines_skipped(self, tmp_path):
        path = tmp_path / "scenes.jsonl"
        save_annotations(path, sample_scenes())
        content = path.read_text()
        path.write_text("\n" + content.replace("\n", "\n\n"))
        assert load_annotations(path) == sample_scenes()

    def test_boxes_clipped_to_canvas(self, tmp_path):
        path = tmp_path / "scenes.jsonl"
        record = {
            "scene_id": "s",
            "width": 100,
            "height": 100,
            "boxes": [
                {"x1": -5.0, "y1": 10.0, "x2": 120.0, "y2": 90.0, "person_id": None, "score": None}
            ],
        }
        path.write_text(json.dumps(record) + "\n")
        (scene,) = load_annotations(path)
        box = scene.detections[0].box
        assert (box.x1, box.y1, box.x2, box.y2) == (0.0, 10.0, 100.0, 90.0)

    def test_error_names_line_number(self, tmp_path):
        path = tmp_path / "scenes.jsonl"
        save_annotations(path, sample_scenes()[:1])
        with open(path, "a") as fh:
            fh.write("{not json\n")
        with pytest.raises(AnnotationError, match="line 2"):
            load_annotations(path)

    def test_missing_key_reported(self, tmp_path):
        path = tmp_path / "scenes.jsonl"
        path.write_text(json.dumps({"scene_id": "s", "width": 10}) + "\n")
        with pytest.raises(AnnotationError, match="line 1"):
            load_annotations(path)

    def test_bad_box_reported_with_index(self, tmp_path):
        path = tmp_path / "scenes.jsonl"
        record = {
            "scene_id": "s",
            "width": 100,
            "height": 100,
            "boxes": [
                {"x1": 0.0, "y1": 0.0, "x2": 10.0, "y2": 10.0, "person_id": None, "score": None},
                {"x1": 0.0, "y1": 0.0, "x2": 10.0, "y2": 10.0, "person_id": 1.5, "score": None},
            ],
        }
        path.write_text(json.dumps(record) + "\n")
        with pytest.raises(AnnotationError, match="box 1"):
            load_annotations(path)

    def test_duplicate_scene_id(self, tmp_path):
        path = tmp_path / "scenes.jsonl"
        scenes = sample_scenes()
        save_annotations(path, [scenes[0], scenes[0]])
        with pytest.raises(AnnotationError, match="duplicate"):
            load_annotations(path)

    @pytest.mark.parametrize("key", ["width", "height"])
    def test_boolean_canvas_size_rejected(self, tmp_path, key):
        # JSON true/false load as Python bools, which are ints to isinstance
        path = tmp_path / "scenes.jsonl"
        save_annotations(path, sample_scenes()[:1])
        record = {"scene_id": "s", "width": 100, "height": 100, "boxes": []}
        record[key] = True
        with open(path, "a") as fh:
            fh.write(json.dumps(record) + "\n")
        with pytest.raises(AnnotationError, match="line 2.*integers"):
            load_annotations(path)

    @pytest.mark.parametrize("flag", [True, False])
    def test_boolean_person_id_rejected(self, tmp_path, flag):
        path = tmp_path / "scenes.jsonl"
        box = {"x1": 0.0, "y1": 0.0, "x2": 10.0, "y2": 10.0, "person_id": flag, "score": None}
        record = {"scene_id": "s", "width": 100, "height": 100, "boxes": [box]}
        path.write_text(json.dumps(record) + "\n")
        with pytest.raises(AnnotationError, match="line 1.*box 0.*person_id"):
            load_annotations(path)

    def test_non_object_line(self, tmp_path):
        path = tmp_path / "scenes.jsonl"
        path.write_text("[1, 2]\n")
        with pytest.raises(AnnotationError, match="JSON object"):
            load_annotations(path)


class TestFeatures:
    def test_round_trip_bit_exact(self, tmp_path):
        path = tmp_path / "features.psgf"
        records = sample_records()
        save_features(path, records)
        loaded = load_features(path)
        assert len(loaded) == len(records)
        for got, want in zip(loaded, records):
            assert got.scene_id == want.scene_id
            assert got.values.dtype == np.float32
            np.testing.assert_array_equal(got.values, want.values)
            # boxes survive as float32
            for a, b in zip(
                (got.box.x1, got.box.y1, got.box.x2, got.box.y2),
                (want.box.x1, want.box.y1, want.box.x2, want.box.y2),
            ):
                assert a == np.float32(b)

    def test_unicode_scene_id(self, tmp_path):
        path = tmp_path / "features.psgf"
        rec = FeatureRecord("scène-人", BoxGeom(0, 0, 1, 1), np.ones(4, np.float32))
        save_features(path, [rec])
        assert load_features(path)[0].scene_id == "scène-人"

    def test_empty_container(self, tmp_path):
        path = tmp_path / "features.psgf"
        save_features(path, [])
        assert load_features(path) == []

    def test_mixed_dims_rejected(self, tmp_path):
        recs = [
            FeatureRecord("a", BoxGeom(0, 0, 1, 1), np.ones(4, np.float32)),
            FeatureRecord("a", BoxGeom(0, 0, 1, 1), np.ones(5, np.float32)),
        ]
        with pytest.raises(ValueError, match="mixed"):
            save_features(tmp_path / "f.psgf", recs)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "features.psgf"
        save_features(path, sample_records())
        data = bytearray(path.read_bytes())
        data[:4] = b"NOPE"
        path.write_bytes(bytes(data))
        with pytest.raises(FeatureFormatError, match="magic"):
            load_features(path)

    def test_unsupported_version(self, tmp_path):
        path = tmp_path / "features.psgf"
        save_features(path, sample_records())
        data = bytearray(path.read_bytes())
        data[4:8] = struct.pack("<I", 9)
        path.write_bytes(bytes(data))
        with pytest.raises(FeatureFormatError, match="version"):
            load_features(path)

    @pytest.mark.parametrize("keep", [3, 10, 21, 40])
    def test_truncation_detected(self, tmp_path, keep):
        path = tmp_path / "features.psgf"
        save_features(path, sample_records())
        path.write_bytes(path.read_bytes()[:keep])
        with pytest.raises(FeatureFormatError, match="truncated"):
            load_features(path)

    def test_trailing_bytes_detected(self, tmp_path):
        path = tmp_path / "features.psgf"
        save_features(path, sample_records())
        path.write_bytes(path.read_bytes() + b"x")
        with pytest.raises(FeatureFormatError, match="trailing"):
            load_features(path)

    @staticmethod
    def raw_container(dim, count, *records):
        return struct.pack("<4sIIQ", b"PSGF", 1, dim, count) + b"".join(records)

    @staticmethod
    def raw_record(sid, coords, values=()):
        return (
            struct.pack("<H", len(sid)) + sid
            + struct.pack("<4f", *coords) + struct.pack(f"<{len(values)}f", *values)
        )

    def test_zero_dim_record_named(self, tmp_path):
        path = tmp_path / "features.psgf"
        path.write_bytes(self.raw_container(0, 1, self.raw_record(b"a", (0, 0, 1, 1))))
        with pytest.raises(FeatureFormatError, match="record 0: .*non-empty"):
            load_features(path)

    def test_degenerate_box_record_named(self, tmp_path):
        path = tmp_path / "features.psgf"
        path.write_bytes(self.raw_container(
            2, 2,
            self.raw_record(b"a", (0, 0, 1, 1), (1.0, 0.0)),
            self.raw_record(b"a", (5, 5, 5, 9), (1.0, 0.0)),
        ))
        with pytest.raises(FeatureFormatError, match="record 1: degenerate box"):
            load_features(path)

    def test_non_utf8_scene_id_record_named(self, tmp_path):
        path = tmp_path / "features.psgf"
        path.write_bytes(self.raw_container(1, 1, self.raw_record(b"\xff\xfe", (0, 0, 1, 1), (1.0,))))
        with pytest.raises(FeatureFormatError, match="record 0: .*utf-8"):
            load_features(path)

    def test_header_bounded_by_file_size(self, tmp_path):
        # a 20-byte file claiming one record of 2**32 - 1 floats (16 GiB) is
        # refused from its header, before any record is read
        path = tmp_path / "features.psgf"
        path.write_bytes(self.raw_container(2**32 - 1, 1))
        assert path.stat().st_size == 20
        with pytest.raises(FeatureFormatError, match="header claims 1 records of dim 4294967295"):
            load_features(path)

    def test_header_count_bounded_by_file_size(self, tmp_path):
        path = tmp_path / "features.psgf"
        save_features(path, sample_records())
        data = bytearray(path.read_bytes())
        data[12:20] = struct.pack("<Q", 2**63)
        path.write_bytes(bytes(data))
        with pytest.raises(FeatureFormatError, match="header claims"):
            load_features(path)

    def test_record_validation(self):
        with pytest.raises(ValueError):
            FeatureRecord("a", BoxGeom(0, 0, 1, 1), np.ones((2, 2), np.float32))
        with pytest.raises(ValueError):
            FeatureRecord("a", BoxGeom(0, 0, 1, 1), np.array([], np.float32))


class TestFeatureRecords:
    def test_flattening_order(self):
        scenes = sample_scenes()
        embs = [
            [EmbeddingVec(np.full(4, float(i + 1))) for i in range(len(s.detections))]
            for s in scenes
        ]
        recs = feature_records(scenes, embs)
        assert [r.scene_id for r in recs] == ["alpha", "alpha", "beta"]
        np.testing.assert_array_equal(recs[1].values, np.full(4, 2.0, np.float32))

    def test_count_mismatches(self):
        scenes = sample_scenes()
        with pytest.raises(ValueError, match="per scene"):
            feature_records(scenes, [[]])
        with pytest.raises(ValueError, match="detections"):
            feature_records(scenes, [[], []])


class TestWorldRoundTrip:
    def world_embeddings(self, scenes):
        rng = np.random.default_rng(1)
        out = []
        for s in scenes:
            vs = []
            for _ in s.detections:
                v = rng.normal(size=8)
                # store float32-exact unit vectors so the normalized flag sticks
                v32 = (v / np.linalg.norm(v)).astype(np.float32)
                vs.append(EmbeddingVec(v32.astype(np.float64)))
            out.append(vs)
        return out

    def test_save_load_world(self, tmp_path):
        scenes = sample_scenes()
        embs = self.world_embeddings(scenes)
        ann_path, feat_path = save_world(tmp_path / "world", scenes, embs)
        assert ann_path.exists() and feat_path.exists()
        loaded_scenes, loaded_embs = load_world(ann_path, feat_path)
        assert loaded_scenes == scenes
        for want_list, got_list in zip(embs, loaded_embs):
            for want, got in zip(want_list, got_list):
                np.testing.assert_array_equal(
                    got.values, want.values.astype(np.float32).astype(np.float64)
                )

    def test_norm_flag_set_only_for_unit_vectors(self, tmp_path):
        scene = SceneRecord("s", 100, 100, (PersonDetection(BoxGeom(0, 0, 10, 10)),))
        unit = [[EmbeddingVec(np.array([0.6, 0.8]))]]
        ann, feat = save_world(tmp_path / "u", [scene], unit)
        _, embs = load_world(ann, feat)
        assert embs[0][0].normalized
        raw = [[EmbeddingVec(np.array([2.0, 1.0]))]]
        ann, feat = save_world(tmp_path / "r", [scene], raw)
        _, embs = load_world(ann, feat)
        assert not embs[0][0].normalized

    def test_unknown_scene_in_features(self, tmp_path):
        scenes = sample_scenes()
        embs = self.world_embeddings(scenes)
        ann_path, feat_path = save_world(tmp_path / "world", scenes, embs)
        save_annotations(ann_path, scenes[:1])
        with pytest.raises(FeatureFormatError, match="unknown scenes"):
            load_world(ann_path, feat_path)

    def test_record_count_mismatch(self, tmp_path):
        scenes = sample_scenes()
        embs = self.world_embeddings(scenes)
        ann_path, feat_path = save_world(tmp_path / "world", scenes, embs)
        recs = feature_records(scenes, embs)
        save_features(feat_path, recs[:-1] + [FeatureRecord("alpha", recs[0].box, recs[0].values)])
        with pytest.raises(FeatureFormatError, match="feature records"):
            load_world(ann_path, feat_path)

    def test_box_mismatch_detected(self, tmp_path):
        scenes = sample_scenes()
        embs = self.world_embeddings(scenes)
        ann_path, feat_path = save_world(tmp_path / "world", scenes, embs)
        recs = feature_records(scenes, embs)
        shifted = FeatureRecord(
            recs[0].scene_id,
            BoxGeom(recs[0].box.x1 + 1.0, recs[0].box.y1, recs[0].box.x2 + 1.0, recs[0].box.y2),
            recs[0].values,
        )
        save_features(feat_path, [shifted] + recs[1:])
        with pytest.raises(FeatureFormatError, match="does not match"):
            load_world(ann_path, feat_path)
