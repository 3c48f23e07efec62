#!/usr/bin/env python3
"""Benchmark of ctxsearch's `evaluate` and `search` ranking paths.

    python3 perfbench/run.py --workload eval-rcp --seed 1 --seconds 30 --trace 0

Each run is one fresh process and one closed-loop client: a query starts
only after the previous one returned, on the calling thread.  The run writes
(or reuses) its seeded input world in a child process, so generation counts
toward no metric and no measured memory, then replays through the package's
public functions what the CLI does:

    eval-*        load_world -> world_from_records -> split_queries, then one
                  evaluate([query]) per query (ranker + AP walk)
    search-crowd  load_world -> build_gallery, then per query
                  make_query -> rank_with_context -> .top(10)

Set-up runs several times, before and after the query phase, and reports its
median.  The query list is fixed by the seed and is always processed in
whole rounds, after a short untimed warm-up: at least two rounds, and another
only while it should end within ``--seconds`` of measured query time, so the
query mix never depends on the machine's speed.  Each query's time is the
third quartile of its rounds.  Every output is checked against the
benchmark's own numpy reference (see checks.py).  The last stdout line is
one JSON object: end-to-end metrics with ``--trace 0``, per-layer metrics
with ``--trace 1``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import statistics
import subprocess
import sys
from contextlib import ExitStack
from dataclasses import dataclass
from pathlib import Path
from types import SimpleNamespace

# One closed-loop client on one thread: keep numpy's BLAS from starting a
# thread pool of its own.  Must be set before numpy is imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import numpy as np  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from checks import (  # noqa: E402
    GalleryRef, Truth, check_query_eval, check_ranking, label_eval, ranking_arrays,
    reference_scores,
)
from tracing import Tracer, patched, perf, span_cost_s  # noqa: E402
from worlds import scene_id  # noqa: E402

# The CLI defaults of --lambda, --threshold-b, --iou-thresh and --fg-thresh.
WEIGHT, GATE, IOU_THRESH, FG_THRESH = 0.2, 0.3, 0.5, 0.5
# Set-up is sampled before and after the query phase, so that its median does
# not rest on the host's speed at one moment.  Each time it runs at least
# SETUP_REPEATS times, and short set-ups repeat until SETUP_MIN_S is spent.
SETUP_REPEATS = 5
SETUP_MIN_S = 1.0
SETUP_MAX_REPEATS = 30
MIN_ROUNDS = 2
WARMUP_QUERIES = 5
N_QUERIES = 100  # at least 100, so that ten per-query times lie beyond the p90
TINY_QUERIES = 10  # for the benchmark's own tests
TOPK = 10
WORLD_TIMEOUT_S = 600
WALL_LIMIT_FACTOR = 4  # start no round after this many times --seconds of wall time


@dataclass(frozen=True)
class Workload:
    world: str
    ranker: str  # "rcp" or "baseline"
    search: bool  # the search path instead of the evaluate path


WORKLOADS = {
    "eval-rcp": Workload("eval", "rcp", False),
    "eval-baseline": Workload("eval", "baseline", False),
    "search-crowd": Workload("crowd", "rcp", True),
}


def load_program():
    """Import the package from this checkout's ``src`` and nowhere else."""
    src = ROOT / "src"
    if not (src / "ctxsearch" / "__init__.py").is_file():
        raise SystemExit(f"error: no ctxsearch package under {src}")
    sys.path.insert(0, str(src))
    import ctxsearch
    from ctxsearch import evaluation, model, ranking, simulator, storage

    if src.resolve() not in Path(ctxsearch.__file__).resolve().parents:
        raise SystemExit(f"error: ctxsearch imported from {ctxsearch.__file__}, not {src}")
    return SimpleNamespace(evaluation=evaluation, model=model, ranking=ranking,
                           simulator=simulator, storage=storage)


def make_world(name: str, seed: int) -> Path:
    out = subprocess.run(
        [sys.executable, str(HERE / "worlds.py"), "--world", name, "--seed", str(seed),
         "--root", str(HERE / "_worlds")],
        check=True, stdout=subprocess.PIPE, text=True, timeout=WORLD_TIMEOUT_S,
    )
    return Path(out.stdout.strip().splitlines()[-1])


def scene_index(scene_id: str) -> int:
    return int(scene_id.rsplit("_", 1)[1])


def box_tuple(det) -> tuple[float, float, float, float]:
    b = det.box
    return (b.x1, b.y1, b.x2, b.y2)


def check_query(query, truth: Truth) -> tuple[int, int, list[str]]:
    """Locate a query in the truth and check its detection, embedding and
    context persons; returns (scene, slot, errors)."""
    k = scene_index(query.scene_id)
    rows = truth.rows(k)
    box = box_tuple(query.detection)
    slots = [j for j, r in enumerate(rows) if tuple(truth.boxes[r]) == box]
    if len(slots) != 1:
        return k, 0, [f"query box {box} not found in {query.scene_id}"]
    j = slots[0]
    errors = []
    if query.detection.person_id != truth.pids[rows[j]]:
        errors.append(f"query in {query.scene_id} carries the wrong identity")
    if not np.array_equal(query.embedding.values, truth.emb[rows[j]]):
        errors.append(f"query in {query.scene_id} carries the wrong embedding")
    others = np.delete(rows, j)
    if len(query.context) != len(others):
        errors.append(f"query in {query.scene_id}: {len(query.context)} context persons")
    else:
        for (det, emb), r in zip(query.context, others):
            if (box_tuple(det) != tuple(truth.boxes[r]) or det.person_id != truth.pids[r]
                    or not np.array_equal(emb.values, truth.emb[r])):
                errors.append(f"query in {query.scene_id}: wrong context person")
                break
    return k, j, errors


def check_gallery(gallery, gal: GalleryRef, truth: Truth) -> list[str]:
    """Entry by entry, so the check allocates no copy of the gallery."""
    entries = gallery.entries
    if len(entries) != len(gal.rows):
        return [f"gallery holds {len(entries)} entries, expected {len(gal.rows)}"]
    errors = []
    for i, (e, row) in enumerate(zip(entries, gal.rows)):
        if (scene_index(e.scene_id) != gal.global_scene[i]
                or e.detection.person_id != truth.pids[row]
                or box_tuple(e.detection) != tuple(truth.boxes[row])
                or not np.array_equal(e.embedding.values, gal.emb[i])):
            errors.append(f"gallery entry {i} differs from the written world")
            break
    expect_map: dict[int, list[int]] = {}
    for i, s in enumerate(gal.global_scene.tolist()):
        expect_map.setdefault(s, []).append(i)
    got_map = {scene_index(s): list(v) for s, v in gallery.scene_map.items()}
    if got_map != expect_map:
        errors.append("gallery scene_map does not partition the entries by scene")
    return errors


def search_plan(truth: Truth, seed: int, n_queries: int) -> list[tuple[int, int]]:
    """Query (scene, slot) pairs drawn from gallery scenes: the same number
    from every scene size, distinct pairs within a size."""
    rng = np.random.default_rng((seed, 2))
    sizes = np.unique(truth.sizes)
    per_size = n_queries // len(sizes)
    plan = []
    for size in sizes:
        pairs = [(int(s), j) for s in np.flatnonzero(truth.sizes == size) for j in range(size)]
        plan += [pairs[i] for i in rng.choice(len(pairs), size=per_size, replace=False)]
    order = rng.permutation(len(plan))
    return [plan[i] for i in order]


def set_up(prog, tracer: Tracer, wl: Workload, ann: Path, feat: Path, plan, n_queries: int,
           seed: int):
    """What the CLI does before its first query; returns (scenes, embeddings,
    gallery, queries).  A search query is a (scene position, slot) pair."""
    scenes, embeddings = tracer.call("storage.load_world", prog.storage.load_world, ann, feat)
    if wl.search:
        flat = [e for scene_embs in embeddings for e in scene_embs]
        gallery = tracer.call("model.build_gallery", prog.model.build_gallery, scenes, flat)
        by_id = {s.scene_id: i for i, s in enumerate(scenes)}
        return scenes, embeddings, gallery, [(by_id[scene_id(k)], j) for k, j in plan]
    world = tracer.call("simulator.world_from_records", prog.simulator.world_from_records,
                        scenes, embeddings)
    queries, gallery = tracer.call("simulator.split_queries", prog.simulator.split_queries,
                                   world, n_queries, seed)
    return scenes, embeddings, gallery, queries


def check_output(wl: Workload, truth: Truth, gal: GalleryRef, gallery, located, query,
                 ranked, result, top) -> tuple[list[str], dict]:
    """Check one query's outputs; returns the errors and the query's counts."""
    q_scene, q_slot = located
    errors = []
    if wl.search:
        errors += check_query(query, truth)[2]
    rcp = wl.ranker == "rcp"
    ref = reference_scores(truth, gal, q_scene, q_slot, rcp, WEIGHT, GATE)
    idx, scores = ranking_arrays(ranked)
    errors += check_ranking(idx, scores, ref)
    entries = gallery.entries
    if any(c.entry is not entries[c.index] for c in ranked.candidates):
        errors.append("a candidate's entry is not its gallery entry")
    pid = int(truth.pids[truth.starts[q_scene] + q_slot])
    stats = {
        "ranking.candidates": len(idx),
        "ranking.context_persons": query.n_context,
        "ranking.context_pairs": ref.context_pairs if rcp else 0,
        "gate_pairs": ref.gate_pairs if rcp else 0,
        "gate_passed": ref.passed if rcp else 0,
        "evaluation.positives": 0,
        "evaluation.walk_useful_ratio": 0.0,
    }
    if wl.search:
        own = int(truth.sizes[q_scene])
        if np.any(gal.global_scene[idx] == q_scene):
            errors.append("a candidate comes from the query's scene")
        if len(idx) != len(gal.rows) - own:
            errors.append(f"{len(idx)} candidates, expected {len(gal.rows) - own}")
        if top != ranked.candidates[:TOPK]:
            errors.append(f"top({TOPK}) is not the head of the ranked list")
        stats["ranking.consumed_ratio"] = len(top) / max(1, len(idx))
        return errors, stats
    want = label_eval(idx, gal, pid, q_scene)
    errors += check_query_eval(result, want)
    stats["ranking.consumed_ratio"] = 1.0  # the AP walk reads every candidate
    stats["evaluation.positives"] = want.positives
    stats["evaluation.walk_useful_ratio"] = want.last_hit / max(1, len(idx))
    stats["ap"] = result.mean_ap
    if rcp:
        base = ref.candidates[np.lexsort((ref.candidates, -ref.s_individual[ref.candidates]))]
        stats["baseline_ap"] = label_eval(base, gal, pid, q_scene).ap
    return errors, stats


def measure(name: str, seed: int, seconds: float, trace: bool, tiny: bool = False) -> dict:
    wl = WORKLOADS[name]
    n_queries = TINY_QUERIES if tiny else N_QUERIES
    prog = load_program()
    evaluation, model, ranking = prog.evaluation, prog.model, prog.ranking
    world_dir = make_world(f"{wl.world}-tiny" if tiny else wl.world, seed)
    ann, feat = world_dir / "scenes.jsonl", world_dir / "features.psgf"
    truth = Truth.load(world_dir)
    tracer = Tracer(trace)
    params = ranking.ContextParams(weight=WEIGHT, gate_threshold=GATE)
    cfg = evaluation.MatchConfig(iou_threshold=IOU_THRESH, fg_score_threshold=FG_THRESH)
    errors: list[str] = []
    captured: list = []  # the RankedList that evaluate() built, for the checks

    def capture(fn):
        def wrapper(*args, **kwargs):
            out = fn(*args, **kwargs)
            captured.append(out)
            return out
        return wrapper

    with ExitStack() as stack:
        if not wl.search:
            for attr in ("rank_baseline", "rank_with_context"):
                fn = tracer.wrap(f"ranking.{attr}", getattr(evaluation, attr))
                stack.enter_context(patched(evaluation, attr, capture(fn)))
        if trace:
            for module, attr, span in (
                (evaluation, "gallery_positives", "evaluation.gallery_positives"),
                (evaluation, "_walk_ranked", "evaluation.average_precision"),
                (evaluation, "iou", "geometry.iou"),
                (prog.simulator, "build_gallery", "model.build_gallery"),
                (prog.simulator, "make_query", "model.make_query"),
            ):
                stack.enter_context(patched(module, attr, tracer.wrap(span, getattr(module, attr))))

        # ---- set-up, from the start of load_world until gallery and queries are ready
        plan = search_plan(truth, seed, n_queries) if wl.search else None
        setup_s, loaders = [], {"annotations": [], "features": [], "records": []}

        def sample_set_ups():
            """Set up back to back; returns the last repetition's state."""
            state, first = None, len(setup_s)
            while len(setup_s) - first < SETUP_REPEATS or (
                    sum(setup_s[first:]) < SETUP_MIN_S
                    and len(setup_s) - first < SETUP_MAX_REPEATS):
                state = None
                gc.collect()
                tracer.tag = f"setup/{len(setup_s)}"
                t0 = perf()
                state = set_up(prog, tracer, wl, ann, feat, plan, n_queries, seed)
                setup_s.append(perf() - t0)
                if trace:  # the two loaders, timed apart from the spans
                    t0 = perf()
                    prog.storage.load_annotations(ann)
                    loaders["annotations"].append(perf() - t0)
                    t0 = perf()
                    loaders["records"].append(len(prog.storage.load_features(feat)))
                    loaders["features"].append(perf() - t0)
            return state

        state = sample_set_ups()
        scenes, embeddings, gallery, queries = state
        del state

        if wl.search:
            gal = GalleryRef(truth, np.arange(len(truth.sizes)))
            located = plan
        else:
            located = []
            for q in queries:
                k, j, errs = check_query(q, truth)
                located.append((k, j))
                errors += errs
            if len(queries) != n_queries:
                errors.append(f"split_queries returned {len(queries)} queries")
            q_scenes = {k for k, _ in located}
            gal = GalleryRef(truth, np.array(
                [k for k in range(len(truth.sizes)) if k not in q_scenes]))
        errors += check_gallery(gallery, gal, truth)

        def execute(q):
            """One query, as the CLI runs it; returns (query, ranked, result, top, dt)."""
            captured.clear()
            result = top = None
            if wl.search:
                si, slot = q
                t0 = perf()
                query = tracer.call("model.make_query", model.make_query,
                                    scenes[si], slot, embeddings[si])
                ranked = tracer.call("ranking.rank_with_context",
                                     ranking.rank_with_context, query, gallery, params)
                top = tracer.call("ranking.top", ranked.top, TOPK)
                dt = perf() - t0
            else:
                query = q
                t0 = perf()
                result = tracer.call(
                    "evaluation.evaluate", evaluation.evaluate, [q], gallery,
                    ranker=wl.ranker, params=params, cfg=cfg, k_max=10,
                )
                dt = perf() - t0
                ranked = captured.pop()
            return query, ranked, result, top, dt

        # ---- warm-up: the first queries once, untimed and unchecked; a query
        # that raises here raises again in the timed rounds, where it counts
        for k, q in enumerate(queries[:WARMUP_QUERIES]):
            tracer.tag = f"warmup/{k}"
            try:
                execute(q)
            except Exception:
                pass

        # ---- query phase: whole rounds of the fixed query list
        gc.collect()
        windows: dict[int, list[float]] = {}
        counts: dict[str, list] = {}
        extra = []  # (query, time of the other ranker) for ranking.context_extra_ms
        attempted = failed = 0
        measured, rnd, t_phase = 0.0, 0, perf()
        while True:
            round_start = measured
            for k, q in enumerate(queries):
                tracer.tag = f"q/{rnd}/{k}"
                attempted += 1
                try:
                    query, ranked, result, top, dt = execute(q)
                except Exception as exc:  # a failed query is counted, not fatal
                    failed += 1
                    errors.append(f"query {k} raised {exc!r}")
                    continue
                windows.setdefault(k, []).append(dt)
                measured += dt
                if trace and rnd == 0:
                    t0 = perf()
                    if wl.ranker == "rcp":
                        ranking.rank_baseline(query, gallery)
                    else:
                        ranking.rank_with_context(query, gallery, params)
                    extra.append((k, perf() - t0))
                errs, stats = check_output(wl, truth, gal, gallery, located[k], query,
                                           ranked, result, top)
                errors += [f"query {k}: {e}" for e in errs]
                if rnd == 0:
                    for key, v in stats.items():
                        counts.setdefault(key, []).append(v)
                del ranked
            rnd += 1
            # Start a round only if it should end within --seconds of query time.
            if rnd >= MIN_ROUNDS and measured + (measured - round_start) > seconds:
                break
            if perf() - t_phase >= WALL_LIMIT_FACTOR * max(seconds, 1):
                break

        # ---- set-up again, with the measured state dropped first
        n_gallery = len(gallery.entries)
        scenes = embeddings = gallery = queries = query = result = top = None
        sample_set_ups()

    if "baseline_ap" in counts:
        map_rcp = statistics.fmean(counts["ap"])
        map_base = statistics.fmean(counts["baseline_ap"])
        print(f"info: mAP rcp={map_rcp!r} baseline(reference)={map_base!r}", file=sys.stderr)
        if not map_rcp > map_base:
            errors.append(f"rcp mAP {map_rcp} does not exceed baseline mAP {map_base}")
    elif "ap" in counts:
        print(f"info: mAP {wl.ranker}={statistics.fmean(counts['ap'])!r}", file=sys.stderr)
    per_query = [upper_quartile(v) for v in windows.values()]
    first = [v[0] for v in windows.values()]
    print(f"info: workload={name} seed={seed} rounds={rnd} queries={len(per_query)} "
          f"first-round queries_per_s={len(first) / sum(first)!r} "
          f"p50_ms={1e3 * statistics.median(first)!r}", file=sys.stderr)
    for e in errors[:20]:
        print(f"check failed: {e}", file=sys.stderr)

    if trace:
        metrics = layer_metrics(tracer, per_query, measured, counts, extra, wl, loaders,
                                n_gallery, ann, feat)
        out_dir = HERE / "_out"
        out_dir.mkdir(exist_ok=True)
        tracer.dump(out_dir / f"trace-{name}-{seed}.jsonl")
    else:
        metrics = end_to_end_metrics(per_query, setup_s)
    return {"correct": not errors, "attempted": attempted, "failed": failed, "metrics": metrics}


def upper_quartile(times: list[float]) -> float:
    """The third quartile of one query's times over the run's rounds."""
    return float(np.percentile(times, 75))


def end_to_end_metrics(per_query: list[float], setup_s: list[float]) -> dict:
    """``per_query`` holds each query's upper-quartile time over the run's rounds."""
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    ms = sorted(w * 1e3 for w in per_query)
    return {
        "setup_s": {"value": statistics.median(setup_s), "unit": "s"},
        "queries_per_s": {"value": len(per_query) / sum(per_query), "unit": "1/s"},
        "query_p50_ms": {"value": statistics.median(ms), "unit": "ms"},
        "query_p90_ms": {"value": statistics.quantiles(ms, n=10)[8], "unit": "ms"},
        "peak_rss_mb": {"value": peak_kib / 1024.0, "unit": "MiB"},
    }


def layer_metrics(tracer, per_query, measured, counts, extra, wl, loaders, n_gallery,
                  ann, feat) -> dict:
    by_tag: dict[str, dict[str, list[float]]] = {}
    for (tag, span), selfs in tracer.self_times().items():
        by_tag.setdefault(tag, {}).setdefault(span, []).extend(selfs)
    setups = [v for t, v in by_tag.items() if t.startswith("setup/")]
    queries = {t: v for t, v in by_tag.items() if t.startswith("q/")}
    first = {t: v for t, v in queries.items() if t.startswith("q/0/")}

    def setup_median(span):
        return statistics.median(sum(s.get(span, [])) for s in setups)

    def query_mean_ms(pred):
        return 1e3 * statistics.fmean(
            sum(sum(v) for span, v in spans.items() if pred(span)) for spans in queries.values()
        )

    make_query = [x for spans in by_tag.values() for x in spans.get("model.make_query", [])]
    iou_calls = statistics.fmean(len(s.get("geometry.iou", [])) for s in queries.values())
    ranker_span = f"ranking.{'rank_with_context' if wl.ranker == 'rcp' else 'rank_baseline'}"
    own = {int(t.split("/")[2]): sum(v[ranker_span]) for t, v in first.items()}
    sign = 1.0 if wl.ranker == "rcp" else -1.0
    context_extra = statistics.fmean(sign * (own[k] - t) for k, t in extra)
    n_spans = sum(1 for s in tracer.spans if s[4].startswith("q/"))
    gate_pairs = sum(counts["gate_pairs"])

    def m(value, unit):
        return {"value": value, "unit": unit}

    def mean(key):
        return statistics.fmean(counts[key])

    return {
        "storage.load_annotations_s": m(statistics.median(loaders["annotations"]), "s"),
        "storage.load_features_s": m(statistics.median(loaders["features"]), "s"),
        "storage.load_world_s": m(setup_median("storage.load_world"), "s"),
        "storage.records": m(loaders["records"][0], "count"),
        "storage.input_mb": m((ann.stat().st_size + feat.stat().st_size) / 2**20, "MiB"),
        "simulator.split_queries_s": m(setup_median("simulator.split_queries"), "s"),
        "model.build_gallery_s": m(setup_median("model.build_gallery"), "s"),
        "model.make_query_ms": m(1e3 * statistics.fmean(make_query), "ms"),
        "model.gallery_entries": m(n_gallery, "count"),
        "ranking.rank_ms": m(query_mean_ms(lambda s: s.startswith("ranking.")), "ms"),
        "ranking.context_extra_ms": m(1e3 * context_extra, "ms"),
        "ranking.candidates": m(mean("ranking.candidates"), "count"),
        "ranking.context_persons": m(mean("ranking.context_persons"), "count"),
        "ranking.context_pairs": m(mean("ranking.context_pairs"), "count"),
        "ranking.gate_pass_ratio": m(sum(counts["gate_passed"]) / gate_pairs if gate_pairs
                                     else 0.0, "ratio"),
        "ranking.consumed_ratio": m(mean("ranking.consumed_ratio"), "ratio"),
        "evaluation.gallery_positives_ms": m(
            query_mean_ms(lambda s: s == "evaluation.gallery_positives"), "ms"),
        "evaluation.average_precision_ms": m(
            query_mean_ms(lambda s: s == "evaluation.average_precision"), "ms"),
        "evaluation.evaluate_self_ms": m(query_mean_ms(lambda s: s == "evaluation.evaluate"),
                                         "ms"),
        "evaluation.positives": m(mean("evaluation.positives"), "count"),
        "evaluation.walk_useful_ratio": m(mean("evaluation.walk_useful_ratio"), "ratio"),
        "geometry.iou_ms": m(query_mean_ms(lambda s: s == "geometry.iou"), "ms"),
        "geometry.iou_calls": m(iou_calls, "count"),
        "trace.queries_per_s": m(len(per_query) / sum(per_query), "1/s"),
        "trace.overhead_pct": m(100.0 * n_spans * span_cost_s() / measured, "%"),
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args(argv)
    result = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
