"""Context-aware person search: retrieval, ranking, and training losses.

The package models a person search pipeline end to end on precomputed
appearance embeddings: scene records with detected boxes, a gallery index,
cosine-similarity retrieval with an optional co-occurrence re-ranking step
that exploits the other people in the query scene, the training losses of
the underlying detector/re-id network (including the feature distillation
term and its epoch-dependent weight), an evaluation protocol (mAP and CMC
over scene-level retrieval), and a synthetic world generator for end-to-end
experiments without real data.
"""

from .evaluation import (
    EvalResult,
    MatchConfig,
    QueryEval,
    average_precision,
    cmc_curve,
    evaluate,
    gallery_positives,
    match_detections,
)
from .geometry import (
    FeatureMap,
    ScaledDims,
    fuse_pixelwise_add,
    iou,
    nms,
    roi_align,
    scale_dims,
)
from .losses import (
    DetLossInputs,
    DistillConfig,
    DistillDivergence,
    DistillResult,
    LossBatch,
    LossReport,
    ToyStudent,
    cross_entropy,
    detection_loss,
    distill_train,
    grad_check,
    reid_loss,
    smooth_l1,
    total_loss,
    toy_distill_problem,
    transfer_loss,
    weight_schedule,
)
from .model import (
    BoxGeom,
    EmbeddingVec,
    GalleryEntry,
    GalleryIndex,
    PersonDetection,
    QuerySpec,
    SceneRecord,
    build_gallery,
    make_query,
)
from .ranking import (
    ContextParams,
    RankedList,
    ScoredCandidate,
    co_occurrence_score,
    context_score,
    rank_baseline,
    rank_with_context,
)
from .simulator import SimConfig, SimWorld, generate_world, split_queries
from .storage import (
    AnnotationError,
    FeatureFormatError,
    FeatureRecord,
    load_annotations,
    load_features,
    load_world,
    save_annotations,
    save_features,
    save_world,
)

__version__ = "0.1.0"

__all__ = [
    "AnnotationError",
    "BoxGeom",
    "ContextParams",
    "DetLossInputs",
    "DistillConfig",
    "DistillDivergence",
    "DistillResult",
    "EmbeddingVec",
    "EvalResult",
    "FeatureFormatError",
    "FeatureMap",
    "FeatureRecord",
    "GalleryEntry",
    "GalleryIndex",
    "LossBatch",
    "LossReport",
    "MatchConfig",
    "PersonDetection",
    "QueryEval",
    "QuerySpec",
    "RankedList",
    "ScaledDims",
    "SceneRecord",
    "ScoredCandidate",
    "SimConfig",
    "SimWorld",
    "ToyStudent",
    "average_precision",
    "build_gallery",
    "cmc_curve",
    "co_occurrence_score",
    "context_score",
    "cross_entropy",
    "detection_loss",
    "distill_train",
    "evaluate",
    "fuse_pixelwise_add",
    "gallery_positives",
    "generate_world",
    "grad_check",
    "iou",
    "load_annotations",
    "load_features",
    "load_world",
    "make_query",
    "match_detections",
    "nms",
    "rank_baseline",
    "rank_with_context",
    "reid_loss",
    "roi_align",
    "save_annotations",
    "save_features",
    "save_world",
    "scale_dims",
    "smooth_l1",
    "split_queries",
    "total_loss",
    "toy_distill_problem",
    "transfer_loss",
    "weight_schedule",
]
