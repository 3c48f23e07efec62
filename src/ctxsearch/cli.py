"""Command-line front end.

Subcommands: simulate, build-gallery, search, evaluate, distill-check, nms.
Every randomized command requires --seed, and identical invocations produce
byte-identical machine-readable output (the RESULT / RANK / KEEP lines, which
print floats at full precision).
"""

from __future__ import annotations

import argparse
import sys
from typing import Optional, Sequence

import numpy as np

from .evaluation import MatchConfig, evaluate, gallery_positives
from .geometry import nms
from .losses import (
    DistillConfig,
    DistillDivergence,
    LossBatch,
    cross_entropy,
    distill_train,
    grad_check,
    reid_loss,
    toy_distill_problem,
    transfer_loss,
)
from .model import build_gallery, make_query
from .ranking import ContextParams, rank_baseline, rank_with_context
from .simulator import SimConfig, generate_world, split_queries, world_from_records
from .storage import feature_records, load_world, save_features, save_world


def _f(x: float) -> str:
    """Full-precision, parse-back-exact float formatting for machine lines."""
    return repr(float(x))


def _context_params(args: argparse.Namespace) -> ContextParams:
    return ContextParams(weight=args.lam, gate_threshold=args.threshold_b)


def _positive_int(text: str) -> int:
    """argparse type for a count of at least 1; errors name the flag."""
    value = int(text)  # argparse reports a ValueError as an invalid value
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _add_world_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--annotations", required=True, help="scene annotation file (JSON lines)")
    p.add_argument("--features", required=True, help="binary feature file")


def _add_ranking_args(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--lambda", dest="lam", type=float, default=0.2,
        help="context score blend weight (default 0.2)",
    )
    p.add_argument(
        "--threshold-b", type=float, default=0.3,
        help="context confidence gate threshold (default 0.3)",
    )


def _cmd_simulate(args: argparse.Namespace) -> int:
    cfg = SimConfig(
        seed=args.seed,
        n_identities=args.n_identities,
        n_scenes=args.n_scenes,
        co_travel_prob=args.co_travel_prob,
        noise_sigma=args.noise_sigma,
        embed_dim=args.embed_dim,
        distractor_rate=args.distractor_rate,
    )
    world = generate_world(cfg)
    ann_path, feat_path = save_world(args.out, world.scenes, world.embeddings)
    n_boxes = world.n_appearances
    print(f"wrote {ann_path}")
    print(f"wrote {feat_path}")
    print(
        f"RESULT scenes={len(world.scenes)} boxes={n_boxes} "
        f"identities={cfg.n_identities} dim={cfg.embed_dim} seed={cfg.seed}"
    )
    return 0


def _cmd_build_gallery(args: argparse.Namespace) -> int:
    scenes, embeddings = load_world(args.annotations, args.features)
    flat = [e for scene_embs in embeddings for e in scene_embs]
    gallery = build_gallery(scenes, flat)
    if args.out:
        normalized = [
            [flat_e.unit() for flat_e in scene_embs] for scene_embs in embeddings
        ]
        save_features(args.out, feature_records(scenes, normalized))
        print(f"wrote {args.out}")
    print(
        f"RESULT entries={len(gallery.entries)} scenes={len(gallery.scene_map)} "
        f"dim={gallery.dim}"
    )
    return 0


def _cmd_search(args: argparse.Namespace) -> int:
    scenes, embeddings = load_world(args.annotations, args.features)
    by_id = {s.scene_id: i for i, s in enumerate(scenes)}
    if args.query_scene not in by_id:
        raise ValueError(f"scene {args.query_scene!r} not found in annotations")
    si = by_id[args.query_scene]
    query = make_query(scenes[si], args.query_index, embeddings[si])
    flat = [e for scene_embs in embeddings for e in scene_embs]
    gallery = build_gallery(scenes, flat)
    if args.baseline:
        ranked = rank_baseline(query, gallery)
    else:
        ranked = rank_with_context(query, gallery, _context_params(args))
    mode = "baseline" if args.baseline else "rcp"
    print(f"query scene={query.scene_id} index={args.query_index} "
          f"context_persons={query.n_context} ranker={mode}")
    for rank, cand in enumerate(ranked.top(args.topk), start=1):
        b = cand.entry.detection.box
        pid = cand.entry.detection.person_id
        print(
            f"RANK k={rank} entry={cand.index} scene={cand.entry.scene_id} "
            f"person_id={'-' if pid is None else pid} "
            f"box={_f(b.x1)},{_f(b.y1)},{_f(b.x2)},{_f(b.y2)} "
            f"final={_f(cand.s_final)} individual={_f(cand.s_individual)} "
            f"context={_f(cand.s_context)}"
        )
    print(f"RESULT ranker={mode} candidates={len(ranked.candidates)} shown={min(args.topk, len(ranked.candidates))}")
    return 0


def _cmd_evaluate(args: argparse.Namespace) -> int:
    scenes, embeddings = load_world(args.annotations, args.features)
    world = world_from_records(scenes, embeddings)
    queries, gallery = split_queries(world, args.n_queries, args.seed)
    n_skipped = 0
    if args.gallery_size is not None:
        scene_ids = list(gallery.scene_map)
        keep_n = min(args.gallery_size, len(scene_ids))
        rng = np.random.default_rng((args.seed, 1))
        chosen = {scene_ids[int(i)] for i in rng.choice(len(scene_ids), size=keep_n, replace=False)}
        sub_scenes = [s for s in scenes if s.scene_id in chosen]
        sub_flat = [
            e
            for s, scene_embs in zip(scenes, embeddings)
            if s.scene_id in chosen
            for e in scene_embs
        ]
        gallery = build_gallery(sub_scenes, sub_flat)
        kept_queries = []
        for q in queries:
            if gallery_positives(gallery, q.detection.person_id, exclude_scene=q.scene_id):
                kept_queries.append(q)
            else:
                n_skipped += 1
        queries = kept_queries
        if not queries:
            raise ValueError("no query retains a gallery positive after subsampling")
    ranker = "rcp" if args.rcp else "baseline"
    cfg = MatchConfig(iou_threshold=args.iou_thresh)
    result = evaluate(
        queries, gallery, ranker=ranker, params=_context_params(args), cfg=cfg, k_max=10
    )
    print("person search evaluation")
    print(f"  ranker:     {ranker}")
    print(f"  queries:    {len(queries)} ({n_skipped} skipped)")
    print(f"  gallery:    {len(gallery.entries)} entries in {len(gallery.scene_map)} scenes")
    print(f"  mAP:        {result.mean_ap:.4f}")
    print(f"  top-1:      {result.cmc[0]:.4f}")
    print(f"  top-5:      {result.cmc[4]:.4f}")
    print(f"  top-10:     {result.cmc[9]:.4f}")
    print(
        f"RESULT ranker={ranker} n_queries={len(queries)} n_skipped={n_skipped} "
        f"n_gallery_scenes={len(gallery.scene_map)} n_gallery_entries={len(gallery.entries)} "
        f"mAP={_f(result.mean_ap)} top1={_f(result.cmc[0])} top5={_f(result.cmc[4])} "
        f"top10={_f(result.cmc[9])}"
    )
    return 0


def _cmd_distill_check(args: argparse.Namespace) -> int:
    cfg = DistillConfig(seed=args.seed, epochs=args.epochs, lr=args.lr)
    student, teacher, x = toy_distill_problem(cfg)
    try:
        result = distill_train(student, teacher, x, cfg.epochs, cfg.lr)
    except DistillDivergence as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    step = max(1, cfg.epochs // 10)
    for epoch in range(0, cfg.epochs + 1, step):
        print(f"epoch {epoch:4d}  transfer={result.trace[epoch]:.6f}")

    rng = np.random.default_rng(cfg.seed)
    k, d, c = 4, 6, 5
    teacher_small = rng.normal(size=(k, d))
    teacher_small /= np.linalg.norm(teacher_small, axis=1, keepdims=True)
    labels = (0, 2, None, 1)
    logits0 = rng.normal(size=(k, c))
    student0 = rng.normal(size=(k, d))

    def transfer_fn(s):
        r = transfer_loss(LossBatch(s, teacher_small, (None,) * k))
        return r.value, r.gradients["student_feats"]

    def ce_fn(z):
        r = cross_entropy(z, labels)
        return r.value, r.gradients["logits"]

    def reid_fn(s):
        r = reid_loss(LossBatch(s, teacher_small, labels, logits0), epoch=10)
        return r.value, r.gradients["student_feats"]

    checks = {
        "transfer_loss": grad_check(transfer_fn, student0),
        "cross_entropy": grad_check(ce_fn, logits0),
        "reid_loss": grad_check(reid_fn, student0),
    }
    for name, err in checks.items():
        print(f"grad-check {name}: {err:.3e}")
    grad_max = max(checks.values())
    converged = result.final < cfg.convergence_threshold
    print(
        f"RESULT initial={_f(result.initial)} final={_f(result.final)} "
        f"epochs={cfg.epochs} converged={converged} grad_max={_f(grad_max)}"
    )
    return 0 if converged and grad_max < 1e-4 else 1


def _cmd_nms(args: argparse.Namespace) -> int:
    from .storage import load_annotations

    scenes = load_annotations(args.annotations)
    if args.scene is not None:
        scenes = [s for s in scenes if s.scene_id == args.scene]
        if not scenes:
            raise ValueError(f"scene {args.scene!r} not found in annotations")
    kept_total = 0
    dropped_total = 0
    for scene in scenes:
        kept = nms(scene.detections, args.iou_thresh)
        kept_total += len(kept)
        dropped_total += len(scene.detections) - len(kept)
        for det in kept:
            b = det.box
            print(
                f"KEEP scene={scene.scene_id} score={_f(det.score)} "
                f"box={_f(b.x1)},{_f(b.y1)},{_f(b.x2)},{_f(b.y2)}"
            )
    print(f"RESULT kept={kept_total} dropped={dropped_total}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ctxsearch",
        description="Context-aware person search toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="generate a synthetic world")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--n-identities", type=int, default=40)
    p.add_argument("--n-scenes", type=int, default=60)
    p.add_argument("--co-travel-prob", type=float, default=0.9)
    p.add_argument("--noise-sigma", type=float, default=1.4)
    p.add_argument("--embed-dim", type=int, default=64)
    p.add_argument("--distractor-rate", type=float, default=0.4)
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("build-gallery", help="validate and index a world")
    _add_world_args(p)
    p.add_argument("--out", help="optionally write normalized features here")
    p.set_defaults(func=_cmd_build_gallery)

    p = sub.add_parser("search", help="rank the gallery for one query")
    _add_world_args(p)
    p.add_argument("--query-scene", required=True)
    p.add_argument("--query-index", type=int, required=True)
    _add_ranking_args(p)
    p.add_argument("--topk", type=_positive_int, default=10)
    p.add_argument("--baseline", action="store_true", help="disable context re-ranking")
    p.set_defaults(func=_cmd_search)

    p = sub.add_parser("evaluate", help="run the retrieval protocol on a world")
    _add_world_args(p)
    p.add_argument("--seed", type=int, required=True, help="query split seed")
    p.add_argument("--n-queries", type=int, default=20)
    p.add_argument("--rcp", action="store_true", help="use context re-ranking")
    _add_ranking_args(p)
    p.add_argument("--iou-thresh", type=float, default=0.5)
    p.add_argument(
        "--gallery-size", type=_positive_int, default=None,
        help="subsample the gallery to this many scenes",
    )
    p.set_defaults(func=_cmd_evaluate)

    p = sub.add_parser("distill-check", help="toy distillation + gradient checks")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--epochs", type=int, default=400)
    p.add_argument("--lr", type=float, default=0.5)
    p.set_defaults(func=_cmd_distill_check)

    p = sub.add_parser("nms", help="suppress overlapping scored boxes")
    p.add_argument("--annotations", required=True)
    p.add_argument("--iou-thresh", type=float, default=0.5)
    p.add_argument("--scene", default=None, help="restrict to one scene")
    p.set_defaults(func=_cmd_nms)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        return args.func(args)
    except Exception as exc:  # CLI boundary: every failure becomes a diagnostic
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
