"""Best-box target assignment, the imagewise ranking loss, and AP evaluation."""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from itertools import accumulate
from numbers import Integral
from typing import Iterable, Sequence

import numpy as np

from .boxes import DetectionBox, GroundTruth, _Columns
from .geometry import _iou3d_rows, giou3d_matrix, iou2d_matrix

__all__ = [
    "DEFAULT_BETA",
    "DEFAULT_DIFFICULTY_RULES",
    "Difficulty",
    "DifficultyRule",
    "ImagewiseApLoss",
    "TargetAssignment",
    "ap_loss_gradient",
    "assign_targets",
    "average_precision",
    "eval_ap_r40",
    "filter_gts",
    "imagewise_ap_loss",
    "q_match",
]

DEFAULT_BETA = 0.3


def q_match(box: DetectionBox, gt: GroundTruth) -> float:
    """Match quality between a box and a ground truth.

    2D IoU weighted by the generalized 3D IoU shifted into [0, 1]:
    q = iou2d * (1 + giou3d) / 2. Pairs without usable cuboids score 0.
    """
    if box.cuboid is None or gt.cuboid is None:
        return 0.0
    boxes, gts = _Columns.from_records(DetectionBox, [box]), _Columns.from_records(GroundTruth, [gt])
    return float(_quality_matrix(boxes, [0], gts, [0])[0, 0])


def _quality_matrix(boxes: _Columns, rows, gts: _Columns, cols) -> np.ndarray:
    """q_match of every pair of a box at rows and a ground truth at cols, all of which have cuboids."""
    iou = iou2d_matrix(boxes.rects[rows], gts.rects[cols])
    giou = giou3d_matrix(boxes.cuboids[rows], gts.cuboids[cols])
    return iou * (1.0 + giou) / 2.0


@dataclass(frozen=True, eq=False)
class TargetAssignment:
    """Binary targets over boxes plus the supporting match information.

    targets[i] is 1 when box i is the best box of at least one ground truth
    and that match quality reaches beta. matched_gt[i] is the index of the
    first ground truth that selected box i, or -1. quality is the full
    (n_boxes, n_gts) match-quality matrix; the columns of ground truths that
    ``filter_gts`` drops (DontCare, or without a cuboid) are zero.
    """

    targets: np.ndarray
    matched_gt: np.ndarray
    quality: np.ndarray


def assign_targets(
    boxes: Sequence[DetectionBox], gts: Sequence[GroundTruth], beta: float = DEFAULT_BETA
) -> TargetAssignment:
    """Mark, per ground truth, the single best-matching box as positive.

    Each ground truth that ``filter_gts`` keeps selects its highest-quality
    box among those with a cuboid (ties go to the lower box index); the box
    becomes a positive only when the quality reaches beta. A box maximal for
    several ground truths is still one positive and records the first ground
    truth that chose it.
    """
    n_boxes, n_gts = len(boxes), len(gts)
    quality = np.zeros((n_boxes, n_gts))
    # q_match over the boxes with cuboids and the usable ground truths, one matrix.
    box_columns = _Columns.from_records(DetectionBox, boxes)
    gt_columns = _Columns.from_records(GroundTruth, gts)
    rows = np.flatnonzero(box_columns.has_cuboid)
    cols = _evaluable(gt_columns, None)
    targets = np.zeros(n_boxes, dtype=int)
    matched = np.full(n_boxes, -1, dtype=int)
    if rows.size and cols.size:
        usable = _quality_matrix(box_columns, rows, gt_columns, cols)
        quality[np.ix_(rows, cols)] = usable
        # argmax takes the first maximum, so ties go to the lower box index.
        for c, k in enumerate(usable.argmax(axis=0).tolist()):
            if usable[k, c] >= beta:
                best, col = int(rows[k]), int(cols[c])
                targets[best] = 1
                if matched[best] < 0:
                    matched[best] = col
    return TargetAssignment(targets, matched, quality)


def average_precision(rescores, targets) -> float | None:
    """AP of one image: mean precision at each positive's rank.

    Boxes are ranked by descending rescore with ties broken by the lower
    index. Returns None when the image has no positives, so callers can
    exclude it instead of counting it as zero.
    """
    r = np.asarray(rescores, dtype=float)
    t = np.asarray(targets)
    if r.shape != t.shape or r.ndim != 1:
        raise ValueError(f"rescores and targets must be matching 1-d arrays, got {r.shape} and {t.shape}")
    order = np.argsort(-r, kind="stable")
    ranked = t[order].astype(bool)
    if not ranked.any():
        return None
    cumulative = np.cumsum(ranked)
    ranks = np.flatnonzero(ranked) + 1
    return float(np.mean(cumulative[ranked] / ranks))


@dataclass(frozen=True)
class ImagewiseApLoss:
    """Value of the imagewise ranking loss plus how many images drove it."""

    value: float
    images_with_positives: int
    total_images: int

    @property
    def no_signal(self) -> bool:
        """True when every image was positive-free and the loss carries no signal."""
        return self.images_with_positives == 0


def imagewise_ap_loss(batch: Iterable[tuple[Sequence[float], Sequence[int]]]) -> ImagewiseApLoss:
    """Mean of (1 - AP) over images that contain at least one positive.

    batch yields (rescores, targets) pairs, one per image. Images without
    positives contribute nothing to the mean; if no image has positives the
    loss is 0 and the result is flagged via no_signal.
    """
    losses = []
    total = 0
    for rescores, targets in batch:
        total += 1
        ap = average_precision(rescores, targets)
        if ap is not None:
            losses.append(1.0 - ap)
    if total == 0:
        raise ValueError("at least one image is required")
    value = float(np.mean(losses)) if losses else 0.0
    return ImagewiseApLoss(value, len(losses), total)


def ap_loss_gradient(rescores, targets, margin: float = 0.0) -> np.ndarray:
    """Descent direction for the ranking loss of one image.

    Every (positive i, negative j) pair violating the margin (rescore_j +
    margin >= rescore_i) pushes i up and j down by 1 / (number of violating
    pairs), so the total update budget per image is constant. At a perfect
    ranking the gradient is exactly zero.
    """
    r = np.asarray(rescores, dtype=float)
    t = np.asarray(targets).astype(bool)
    if r.shape != t.shape or r.ndim != 1:
        raise ValueError(f"rescores and targets must be matching 1-d arrays, got {r.shape} and {t.shape}")
    grad = np.zeros(r.size)
    pos = np.flatnonzero(t)
    neg = np.flatnonzero(~t)
    if pos.size == 0 or neg.size == 0:
        return grad
    violating = r[neg][None, :] + margin >= r[pos][:, None]
    count = int(violating.sum())
    if count == 0:
        return grad
    weight = 1.0 / count
    grad[pos] -= violating.sum(axis=1) * weight
    grad[neg] += violating.sum(axis=0) * weight
    return grad


class Difficulty(str, Enum):
    EASY = "easy"
    MODERATE = "moderate"
    HARD = "hard"


@dataclass(frozen=True)
class DifficultyRule:
    """Ground-truth selection bounds: minimum pixel height, maximum occlusion
    level, and maximum truncation fraction.

    The two bounds must be finite, since a NaN bound would silently pass every
    ground truth; the occlusion level must be an integer, and a bool is not one.
    """

    min_height: float
    max_occlusion: int
    max_truncation: float

    def __post_init__(self) -> None:
        for name in ("min_height", "max_truncation"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value!r}")
        if isinstance(self.max_occlusion, bool) or not isinstance(self.max_occlusion, Integral):
            raise ValueError(f"max_occlusion must be an integer, got {self.max_occlusion!r}")


DEFAULT_DIFFICULTY_RULES: dict[Difficulty, DifficultyRule] = {
    Difficulty.EASY: DifficultyRule(40.0, 0, 0.15),
    Difficulty.MODERATE: DifficultyRule(25.0, 1, 0.30),
    Difficulty.HARD: DifficultyRule(25.0, 2, 0.50),
}


def _evaluable(gts: _Columns, rule: DifficultyRule | None) -> np.ndarray:
    """The positions of the ground truths ``filter_gts`` keeps, in order."""
    keep = ~gts.dontcare & gts.has_cuboid
    if rule is not None:
        height = gts.rects[:, 3] - gts.rects[:, 1]
        keep &= ~(
            (height < rule.min_height) | (gts.occlusion > rule.max_occlusion) | (gts.truncation > rule.max_truncation)
        )
    return np.flatnonzero(keep)


def filter_gts(gts: Sequence[GroundTruth], rule: DifficultyRule | None) -> list[GroundTruth]:
    """Evaluable ground truths: never DontCare, must have a cuboid, and must
    satisfy the difficulty rule when one is given."""
    return [gts[j] for j in _evaluable(_Columns.from_records(GroundTruth, gts), rule).tolist()]


_RECALL_POINTS = 40

# Detections per scene in the first matching block; later blocks double.
_FIRST_BLOCK = 4


def _greedy_hits(
    dets: Sequence[tuple[np.ndarray, np.ndarray]], gts: Sequence[np.ndarray], iou_threshold: float
) -> list[list[bool]]:
    """Per scene, whether each detection is a true positive under greedy matching.

    dets[s] holds the cuboids and has_cuboid mask of scene s's detections in
    matching order, and gts[s] the cuboids of its evaluable ground truths.
    Each detection claims the unclaimed ground truth with the highest
    positive IoU3D (the lower index on ties) and is a hit when that IoU
    reaches the threshold. IoU3D is computed only against ground truths
    still unclaimed, for a block of detections of every scene per kernel
    call. Blocks double in size, and a scene drops out once all its ground
    truths are claimed, so scenes whose ground truths are claimed early cost
    few pairs.
    """
    hits = [[False] * len(cuboids) for cuboids, _ in dets]
    # Scene s owns the ground truths bounds[s]:bounds[s + 1] of the stacked array.
    bounds = list(accumulate(map(len, gts), initial=0))
    claimed = [False] * bounds[-1]
    gt_cuboids = np.concatenate([np.zeros((0, 7)), *gts])
    # Detections without a cuboid match nothing, so only those with one are visited.
    visit = [np.flatnonzero(has_cuboid) for _, has_cuboid in dets]
    active = [s for s in range(len(dets)) if visit[s].size and len(gts[s])]
    start, size = 0, _FIRST_BLOCK
    while active:
        plan = []
        for s in active:
            open_gts = [g for g in range(bounds[s], bounds[s + 1]) if not claimed[g]]
            plan += [(s, k, open_gts) for k in visit[s][start : start + size].tolist()]
        block = np.concatenate([dets[s][0][visit[s][start : start + size]] for s in active])
        values, row_bounds = _iou3d_rows(block, gt_cuboids, [g for _, _, g in plan])
        values = values.tolist()
        for (s, k, open_gts), lo, hi in zip(plan, row_bounds, row_bounds[1:]):
            # max and index take the first maximum, so ties go to the lower index.
            ious = [v if v > 0.0 and not claimed[g] else 0.0 for g, v in zip(open_gts, values[lo:hi])]
            best = max(ious)
            if best > 0.0 and best >= iou_threshold:
                claimed[open_gts[ious.index(best)]] = True
                hits[s][k] = True
        start += size
        size *= 2
        active = [s for s in active if start < visit[s].size and not all(claimed[bounds[s] : bounds[s + 1]])]
    return hits


def _ap_r40(
    dets: Sequence[tuple[np.ndarray, np.ndarray, np.ndarray]], gts: Sequence[np.ndarray], iou_threshold: float
) -> float | None:
    """eval_ap_r40 of scenes as arrays: dets[s] the (score, cuboids, has_cuboid) of scene s's
    detections that take part, in input order, and gts[s] the cuboids of its evaluable ground truths."""
    total_gts = sum(map(len, gts))
    if total_gts == 0:
        return None
    # A stable sort keeps the lower index first among equal scores.
    orders = [np.argsort(-score, kind="stable") for score, _, _ in dets]
    scores = np.concatenate([np.zeros(0), *(score[order] for (score, _, _), order in zip(dets, orders))])
    ranked = [(cuboids[order], has_cuboid[order]) for (_, cuboids, has_cuboid), order in zip(dets, orders)]
    hits = np.array([hit for scene_hits in _greedy_hits(ranked, gts, iou_threshold) for hit in scene_hits], dtype=float)
    if hits.size == 0:
        return 0.0
    # scores run in (scene, rank) order, which a stable sort keeps among equal scores.
    cumulative = np.cumsum(hits[np.argsort(-scores, kind="stable")])
    precision = cumulative / np.arange(1, hits.size + 1)
    recall = cumulative / total_gts
    # best[i] is the best precision at rank i or later, so at recall >= r from the first rank reaching r.
    best = np.maximum.accumulate(precision[::-1])[::-1].tolist()
    total = 0.0
    # One addition at a time in recall-point order (sum() compensates on Python 3.12+), so AP keeps its bits.
    for at in np.searchsorted(recall, np.arange(1, _RECALL_POINTS + 1) / _RECALL_POINTS).tolist():
        if at < len(best):
            total += best[at]
    return 100.0 * total / _RECALL_POINTS


def _eval_columns(
    scenes: Iterable[tuple[_Columns, _Columns]], iou_threshold: float, rule: DifficultyRule | None
) -> float | None:
    """eval_ap_r40 of scenes given as (detection columns, ground-truth columns)."""
    dets, gts = [], []
    for boxes, scene_gts in scenes:
        at = np.flatnonzero(~boxes.dontcare)
        dets.append((boxes.score[at], boxes.cuboids[at], boxes.has_cuboid[at]))
        gts.append(scene_gts.cuboids[_evaluable(scene_gts, rule)])
    return _ap_r40(dets, gts, iou_threshold)


def eval_ap_r40(
    scene_pairs: Iterable[tuple[Sequence[DetectionBox], Sequence[GroundTruth]]],
    iou_threshold: float = 0.7,
    rule: DifficultyRule | None = None,
) -> float | None:
    """AP interpolated at 40 equally spaced recall points, as a percentage.

    Within each scene, detections are matched greedily in descending-score
    order (ties to the lower index): a detection claims the unmatched ground
    truth with the highest rotated 3D IoU and is a true positive when that IoU
    reaches the threshold; each ground truth may be claimed once; everything
    else is a false positive. Detections of all scenes are then ranked by
    descending score; equal scores rank by scene order, then by rank within
    the scene. Precision is interpolated as the running best at recall >= r
    for r in {1/40, ..., 40/40}. Returns None when the difficulty filter
    leaves no ground truths, distinguishing "not evaluable" from an AP of zero.
    """
    return _eval_columns(
        (
            (_Columns.from_records(DetectionBox, dets), _Columns.from_records(GroundTruth, gts))
            for dets, gts in scene_pairs
        ),
        iou_threshold,
        rule,
    )
