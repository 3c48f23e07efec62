"""Tests of the benchmark itself: every check rejects a wrong answer, and
every workload runs to its end at a tiny size.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import run
from checks import (
    GalleryRef, Truth, check_query_eval, check_ranking, label_eval, ranking_arrays,
    reference_scores,
)
from tracing import patched

SEED = 11
SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())


@pytest.fixture(scope="module")
def tiny_eval():
    """A tiny eval world split as the eval workloads split it, with the
    first query's rcp ranking and its reference."""
    prog = run.load_program()
    world_dir = run.make_world("eval-tiny", SEED)
    truth = Truth.load(world_dir)
    scenes, embeddings = prog.storage.load_world(world_dir / "scenes.jsonl",
                                                 world_dir / "features.psgf")
    world = prog.simulator.world_from_records(scenes, embeddings)
    queries, gallery = prog.simulator.split_queries(world, run.TINY_QUERIES, SEED)
    q_scenes = {run.scene_index(q.scene_id) for q in queries}
    gal = GalleryRef(truth, np.array([k for k in range(len(truth.sizes)) if k not in q_scenes]))
    query = queries[0]
    k, j, errors = run.check_query(query, truth)
    assert not errors
    assert not run.check_gallery(gallery, gal, truth)
    params = prog.ranking.ContextParams(weight=run.WEIGHT, gate_threshold=run.GATE)
    ranked = prog.ranking.rank_with_context(query, gallery, params)
    ref = reference_scores(truth, gal, k, j, True, run.WEIGHT, run.GATE)
    return dict(evaluation=prog.evaluation, gallery=gallery, gal=gal, query=query,
                scene=k, ranked=ranked, ref=ref, params=params)


def test_ranking_check_accepts_the_program(tiny_eval):
    idx, scores = ranking_arrays(tiny_eval["ranked"])
    assert check_ranking(idx, scores, tiny_eval["ref"]) == []


def test_ranking_check_rejects_swapped_neighbours(tiny_eval):
    idx, scores = ranking_arrays(tiny_eval["ranked"])
    pids = tiny_eval["gal"].pids[idx]
    k = int(np.flatnonzero(pids[:-1] != pids[1:])[0])
    idx[[k, k + 1]] = idx[[k + 1, k]]
    scores[[k, k + 1]] = scores[[k + 1, k]]
    errors = check_ranking(idx, scores, tiny_eval["ref"])
    assert any(f"rank {k + 1} holds" in e for e in errors)


def test_ranking_check_rejects_context_score_off_by_1e6(tiny_eval):
    idx, scores = ranking_arrays(tiny_eval["ranked"])
    k = int(np.flatnonzero(scores[:, 1] != 0.0)[0])
    scores[k, 1] += 1e-6
    errors = check_ranking(idx, scores, tiny_eval["ref"])
    assert any(e.startswith("s_context") for e in errors)


def test_evaluation_check_rejects_a_dropped_positive(tiny_eval):
    evaluation = tiny_eval["evaluation"]
    query, gallery, gal = tiny_eval["query"], tiny_eval["gallery"], tiny_eval["gal"]
    idx, _ = ranking_arrays(tiny_eval["ranked"])
    want = label_eval(idx, gal, query.detection.person_id, tiny_eval["scene"])
    assert want.positives >= 2

    def call():
        return evaluation.evaluate([query], gallery, ranker="rcp",
                                   params=tiny_eval["params"], k_max=10)

    assert check_query_eval(call(), want) == []
    positives = evaluation.gallery_positives
    with patched(evaluation, "gallery_positives", lambda *a, **kw: positives(*a, **kw)[:-1]):
        assert check_query_eval(call(), want) != []


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("workload", sorted(run.WORKLOADS))
def test_workload_runs_at_tiny_size(workload, trace):
    result = run.measure(workload, SEED, 0, trace, tiny=True)
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] == run.MIN_ROUNDS * run.TINY_QUERIES
    names = [m["name"] for m in SPEC["per_layer" if trace else "end_to_end"]]
    assert sorted(result["metrics"]) == sorted(names)
    for m in SPEC["per_layer" if trace else "end_to_end"]:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.HERE, tmp_path / run.HERE.name,
                    ignore=shutil.ignore_patterns("_worlds", "_out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, str(Path(run.HERE.name) / "run.py"), "--workload", "eval-rcp",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
