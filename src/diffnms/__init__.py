"""Differentiable non-maximum suppression for 3D detection pipelines.

The package rescoring core works on plain numpy arrays: scores in [0, 1] and a
pairwise overlap matrix, or the rectangles whose overlaps it evaluates on
demand. Classical hard NMS, soft NMS, and three closed-form
matrix rescorers share one configuration object, and the masked variant comes
with analytic gradients that are verified against finite differences. Around
the core sit rotated-box overlap geometry, target assignment and ranking
losses, an AP|R40 evaluator, KITTI and JSONL input/output, a synthetic scene
generator, and a CLI (``diffnms``).
"""

from .boxes import DetectionBox, GroundTruth, Scene
from .geometry import (
    Cuboid3D,
    Rect2D,
    RectOverlaps,
    cuboid_array,
    giou3d,
    giou3d_matrix,
    iou2d,
    iou2d_matrix,
    iou3d,
    iou3d_axis_aligned,
    iou3d_matrix,
    iou3d_pairs,
    overlap_matrix,
    rect_array,
    rotated_bev_intersection_area,
)
from .gradients import (
    GradCheckReport,
    NmsGradients,
    finite_difference_check,
    masked_backward,
    masked_jacobians,
)
from .harness import (
    ComparisonReport,
    CorrelationResult,
    CorrelationRow,
    build_comparison,
    combine_scores,
    effective_scores,
    oracle_scores,
    rescore_scene,
    rescored_boxes,
    score_iou_correlation,
)
from .io_jsonl import iter_scenes_jsonl, read_scenes_jsonl, write_scenes_jsonl
from .io_kitti import (
    format_kitti_label,
    parse_kitti_label,
    read_kitti_dir,
    read_kitti_file,
    write_kitti_dir,
    write_kitti_file,
)
from .nms import (
    GroupPartition,
    NmsConfig,
    NmsVariant,
    Pruning,
    RescoreResult,
    ScoreRangeError,
    group_boxes,
    masked_rescore,
    prune,
    prune_derivative,
    run_nms,
    sort_by_score,
)
from .ranking import (
    DEFAULT_BETA,
    DEFAULT_DIFFICULTY_RULES,
    Difficulty,
    DifficultyRule,
    ImagewiseApLoss,
    TargetAssignment,
    ap_loss_gradient,
    assign_targets,
    average_precision,
    eval_ap_r40,
    filter_gts,
    imagewise_ap_loss,
    q_match,
)
from .synthetic import SyntheticConfig, generate_synthetic, random_instance, rect_from_cuboid

__version__ = "0.1.0"

__all__ = [
    "ComparisonReport",
    "CorrelationResult",
    "CorrelationRow",
    "Cuboid3D",
    "DEFAULT_BETA",
    "DEFAULT_DIFFICULTY_RULES",
    "DetectionBox",
    "Difficulty",
    "DifficultyRule",
    "GradCheckReport",
    "GroundTruth",
    "GroupPartition",
    "ImagewiseApLoss",
    "NmsConfig",
    "NmsGradients",
    "NmsVariant",
    "Pruning",
    "Rect2D",
    "RectOverlaps",
    "RescoreResult",
    "Scene",
    "ScoreRangeError",
    "SyntheticConfig",
    "TargetAssignment",
    "ap_loss_gradient",
    "assign_targets",
    "average_precision",
    "build_comparison",
    "combine_scores",
    "cuboid_array",
    "effective_scores",
    "eval_ap_r40",
    "filter_gts",
    "finite_difference_check",
    "format_kitti_label",
    "generate_synthetic",
    "giou3d",
    "giou3d_matrix",
    "group_boxes",
    "imagewise_ap_loss",
    "iou2d",
    "iou2d_matrix",
    "iou3d",
    "iou3d_axis_aligned",
    "iou3d_matrix",
    "iou3d_pairs",
    "iter_scenes_jsonl",
    "masked_backward",
    "masked_jacobians",
    "masked_rescore",
    "oracle_scores",
    "overlap_matrix",
    "parse_kitti_label",
    "prune",
    "prune_derivative",
    "q_match",
    "random_instance",
    "read_kitti_dir",
    "read_kitti_file",
    "read_scenes_jsonl",
    "rect_array",
    "rect_from_cuboid",
    "rescore_scene",
    "rescored_boxes",
    "rotated_bev_intersection_area",
    "run_nms",
    "score_iou_correlation",
    "sort_by_score",
    "write_kitti_dir",
    "write_kitti_file",
    "write_scenes_jsonl",
]
