import numpy as np
import pytest

from ctxsearch.cli import main
from ctxsearch.model import BoxGeom, PersonDetection, SceneRecord
from ctxsearch.storage import save_annotations


@pytest.fixture
def world_dir(tmp_path):
    out = tmp_path / "world"
    rc = main(
        [
            "simulate",
            "--seed", "5",
            "--out", str(out),
            "--n-identities", "15",
            "--n-scenes", "20",
            "--embed-dim", "16",
        ]
    )
    assert rc == 0
    return out


def world_args(world_dir):
    return [
        "--annotations", str(world_dir / "scenes.jsonl"),
        "--features", str(world_dir / "features.psgf"),
    ]


def result_line(output):
    lines = [l for l in output.splitlines() if l.startswith("RESULT ")]
    assert len(lines) == 1
    return lines[0]


def rank_entries(output):
    return [
        line.split("entry=")[1].split()[0]
        for line in output.splitlines()
        if line.startswith("RANK ")
    ]


class TestSimulate:
    def test_writes_files_and_reports(self, world_dir, capsys):
        capsys.readouterr()
        assert (world_dir / "scenes.jsonl").exists()
        assert (world_dir / "features.psgf").exists()

    def test_identical_seeds_identical_bytes(self, tmp_path, capsys):
        args = ["simulate", "--seed", "9", "--n-identities", "10", "--n-scenes", "8"]
        assert main(args + ["--out", str(tmp_path / "a")]) == 0
        out_a = capsys.readouterr().out
        assert main(args + ["--out", str(tmp_path / "b")]) == 0
        out_b = capsys.readouterr().out
        assert result_line(out_a) == result_line(out_b)
        assert (tmp_path / "a" / "scenes.jsonl").read_bytes() == (
            tmp_path / "b" / "scenes.jsonl"
        ).read_bytes()
        assert (tmp_path / "a" / "features.psgf").read_bytes() == (
            tmp_path / "b" / "features.psgf"
        ).read_bytes()

    def test_seed_required(self, tmp_path, capsys):
        rc = main(["simulate", "--out", str(tmp_path / "x")])
        capsys.readouterr()
        assert rc == 2


class TestBuildGallery:
    def test_reports_counts(self, world_dir, capsys):
        capsys.readouterr()
        assert main(["build-gallery"] + world_args(world_dir)) == 0
        line = result_line(capsys.readouterr().out)
        assert "entries=" in line and "scenes=20" in line and "dim=16" in line

    def test_optional_feature_rewrite(self, world_dir, tmp_path, capsys):
        capsys.readouterr()
        out = tmp_path / "normalized.psgf"
        assert main(["build-gallery"] + world_args(world_dir) + ["--out", str(out)]) == 0
        capsys.readouterr()
        assert out.exists()

    def test_missing_file_fails_cleanly(self, tmp_path, capsys):
        rc = main(
            [
                "build-gallery",
                "--annotations", str(tmp_path / "none.jsonl"),
                "--features", str(tmp_path / "none.psgf"),
            ]
        )
        captured = capsys.readouterr()
        assert rc == 1
        assert captured.err.startswith("error:")


class TestSearch:
    def test_rank_lines(self, world_dir, capsys):
        capsys.readouterr()
        rc = main(
            ["search"] + world_args(world_dir)
            + ["--query-scene", "scene_0003", "--query-index", "0", "--topk", "5"]
        )
        out = capsys.readouterr().out
        assert rc == 0
        entries = rank_entries(out)
        assert len(entries) == 5
        assert "ranker=rcp" in result_line(out)

    def test_zero_weight_matches_baseline_ordering(self, world_dir, capsys):
        capsys.readouterr()
        common = (
            ["search"] + world_args(world_dir)
            + ["--query-scene", "scene_0003", "--query-index", "0", "--topk", "40"]
        )
        assert main(common + ["--lambda", "0.0"]) == 0
        zero_weight = rank_entries(capsys.readouterr().out)
        assert main(common + ["--baseline"]) == 0
        baseline = rank_entries(capsys.readouterr().out)
        assert zero_weight == baseline

    @pytest.mark.parametrize("topk", ["0", "-1"])
    def test_topk_below_one_rejected(self, world_dir, capsys, topk):
        rc = main(
            ["search"] + world_args(world_dir)
            + ["--query-scene", "scene_0003", "--query-index", "0", "--topk", topk]
        )
        captured = capsys.readouterr()
        assert rc == 2
        assert "--topk" in captured.err
        assert "RANK " not in captured.out

    def test_unknown_scene_fails(self, world_dir, capsys):
        rc = main(
            ["search"] + world_args(world_dir)
            + ["--query-scene", "nope", "--query-index", "0"]
        )
        captured = capsys.readouterr()
        assert rc == 1
        assert "not found" in captured.err


class TestEvaluate:
    def test_byte_identical_reports_for_same_seed(self, world_dir, capsys):
        capsys.readouterr()
        args = ["evaluate"] + world_args(world_dir) + ["--seed", "11", "--n-queries", "5"]
        assert main(args) == 0
        first = capsys.readouterr().out
        assert main(args) == 0
        second = capsys.readouterr().out
        assert first == second
        assert "mAP=" in result_line(first)

    def test_rcp_flag_switches_ranker(self, world_dir, capsys):
        capsys.readouterr()
        args = ["evaluate"] + world_args(world_dir) + ["--seed", "11", "--n-queries", "5"]
        assert main(args) == 0
        assert "ranker=baseline" in result_line(capsys.readouterr().out)
        assert main(args + ["--rcp"]) == 0
        assert "ranker=rcp" in result_line(capsys.readouterr().out)

    def test_gallery_subsampling_reports_skips(self, world_dir, capsys):
        capsys.readouterr()
        args = (
            ["evaluate"] + world_args(world_dir)
            + ["--seed", "11", "--n-queries", "5", "--gallery-size", "6"]
        )
        assert main(args) == 0
        line = result_line(capsys.readouterr().out)
        assert "n_gallery_scenes=6" in line
        assert "n_skipped=" in line


    @pytest.mark.parametrize("size", ["0", "-2", "two"])
    def test_gallery_size_below_one_rejected(self, world_dir, capsys, size):
        args = ["evaluate"] + world_args(world_dir) + ["--seed", "11", "--gallery-size", size]
        rc = main(args)
        captured = capsys.readouterr()
        assert rc == 2
        assert "--gallery-size" in captured.err

    def test_nan_gate_rejected(self, world_dir, capsys):
        args = ["evaluate"] + world_args(world_dir) + ["--seed", "11", "--n-queries", "5"]
        rc = main(args + ["--rcp", "--threshold-b", "nan"])
        captured = capsys.readouterr()
        assert rc == 1
        assert "gate_threshold" in captured.err
        assert "RESULT" not in captured.out

    def test_fg_thresh_removed(self, world_dir, capsys):
        args = ["evaluate"] + world_args(world_dir) + ["--seed", "11", "--fg-thresh", "0.9"]
        assert main(args) == 2
        assert "--fg-thresh" in capsys.readouterr().err


class TestDistillCheck:
    def test_converges_and_reports_gradients(self, capsys):
        rc = main(["distill-check", "--seed", "1"])
        out = capsys.readouterr().out
        assert rc == 0
        line = result_line(out)
        assert "converged=True" in line
        assert "grad_max=" in line
        assert out.count("grad-check") == 3

    def test_divergence_exit_code(self, capsys):
        rc = main(["distill-check", "--seed", "1", "--lr", "1e6"])
        captured = capsys.readouterr()
        assert rc == 1
        assert "divergence" in captured.err


class TestNms:
    @pytest.fixture
    def scored_annotations(self, tmp_path):
        path = tmp_path / "dets.jsonl"
        scenes = [
            SceneRecord(
                "s0", 100, 100,
                (
                    PersonDetection(BoxGeom(0, 0, 10, 10), score=0.9),
                    PersonDetection(BoxGeom(1, 0, 11, 10), score=0.8),
                    PersonDetection(BoxGeom(50, 50, 60, 60), score=0.7),
                ),
            ),
            SceneRecord(
                "s1", 100, 100,
                (PersonDetection(BoxGeom(0, 0, 10, 10), score=0.6),),
            ),
        ]
        save_annotations(path, scenes)
        return path

    def test_suppression_counts(self, scored_annotations, capsys):
        rc = main(["nms", "--annotations", str(scored_annotations)])
        out = capsys.readouterr().out
        assert rc == 0
        assert result_line(out) == "RESULT kept=3 dropped=1"
        keep_lines = [l for l in out.splitlines() if l.startswith("KEEP ")]
        assert len(keep_lines) == 3

    def test_scene_filter(self, scored_annotations, capsys):
        rc = main(["nms", "--annotations", str(scored_annotations), "--scene", "s1"])
        out = capsys.readouterr().out
        assert rc == 0
        assert result_line(out) == "RESULT kept=1 dropped=0"
        rc = main(["nms", "--annotations", str(scored_annotations), "--scene", "zz"])
        captured = capsys.readouterr()
        assert rc == 1
        assert "not found" in captured.err

    def test_unscored_boxes_rejected(self, world_dir, capsys):
        rc = main(["nms", "--annotations", str(world_dir / "scenes.jsonl")])
        captured = capsys.readouterr()
        assert rc == 1
        assert "scored" in captured.err


class TestMainEntry:
    def test_no_command_is_usage_error(self, capsys):
        rc = main([])
        capsys.readouterr()
        assert rc == 2

    def test_unknown_command(self, capsys):
        rc = main(["frobnicate"])
        capsys.readouterr()
        assert rc == 2

    def test_help_exits_zero(self, capsys):
        rc = main(["--help"])
        capsys.readouterr()
        assert rc == 0

    def test_module_entry_point(self, world_dir):
        import os
        import subprocess
        import sys
        from pathlib import Path

        import ctxsearch

        # the child finds the package where this process found it, installed or not
        src = str(Path(ctxsearch.__file__).resolve().parents[1])
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        proc = subprocess.run(
            [sys.executable, "-m", "ctxsearch.cli", "build-gallery"] + world_args(world_dir),
            capture_output=True,
            text=True,
            env=env,
        )
        assert proc.returncode == 0
        assert "RESULT" in proc.stdout
