"""Best-box target assignment, the imagewise ranking loss, and AP evaluation."""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from itertools import accumulate
from numbers import Integral
from typing import Iterable, Sequence

import numpy as np

from .boxes import DetectionBox, GroundTruth
from .geometry import _iou3d_rows, cuboid_array, giou3d_matrix, iou2d_matrix, rect_array

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
    return float(_quality_matrix([box], [gt])[0, 0])


def _quality_matrix(boxes: Sequence[DetectionBox], gts: Sequence[GroundTruth]) -> np.ndarray:
    """q_match of every box x ground-truth pair, for records that all have cuboids."""
    iou = iou2d_matrix(rect_array([b.rect for b in boxes]), rect_array([g.rect for g in gts]))
    giou = giou3d_matrix(cuboid_array([b.cuboid for b in boxes]), cuboid_array([g.cuboid for g in gts]))
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
    rows = [i for i, box in enumerate(boxes) if box.cuboid is not None]
    cols = [j for j, gt in enumerate(gts) if filter_gts([gt], None)]
    targets = np.zeros(n_boxes, dtype=int)
    matched = np.full(n_boxes, -1, dtype=int)
    if rows and cols:
        usable = _quality_matrix([boxes[i] for i in rows], [gts[j] for j in cols])
        quality[np.ix_(rows, cols)] = usable
        # argmax takes the first maximum, so ties go to the lower box index.
        for c, k in enumerate(usable.argmax(axis=0).tolist()):
            if usable[k, c] >= beta:
                best, col = rows[k], cols[c]
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


def filter_gts(gts: Sequence[GroundTruth], rule: DifficultyRule | None) -> list[GroundTruth]:
    """Evaluable ground truths: never DontCare, must have a cuboid, and must
    satisfy the difficulty rule when one is given."""
    out = []
    for gt in gts:
        if gt.dontcare or gt.cuboid is None:
            continue
        if rule is not None and (
            gt.height < rule.min_height
            or gt.occlusion > rule.max_occlusion
            or gt.truncation > rule.max_truncation
        ):
            continue
        out.append(gt)
    return out


_RECALL_POINTS = 40

# Detections per scene in the first matching block; later blocks double.
_FIRST_BLOCK = 4


def _greedy_hits(
    scenes: Sequence[tuple[Sequence[DetectionBox], Sequence[GroundTruth]]], iou_threshold: float
) -> list[list[bool]]:
    """Per scene, whether each detection is a true positive under greedy matching.

    scenes holds (detections in matching order, evaluable ground truths). Each
    detection claims the unclaimed ground truth with the highest positive
    IoU3D (the lower index on ties) and is a hit when that IoU reaches the
    threshold. IoU3D is computed only against ground truths still unclaimed,
    for a block of detections of every scene per kernel call. Blocks double
    in size, and a scene drops out once all its ground truths are claimed, so
    scenes whose ground truths are claimed early cost few pairs.
    """
    hits = [[False] * len(dets) for dets, _ in scenes]
    # Scene s owns the ground truths bounds[s]:bounds[s + 1] of the stacked array.
    bounds = list(accumulate((len(gts) for _, gts in scenes), initial=0))
    claimed = [False] * bounds[-1]
    gt_cuboids = cuboid_array([gt.cuboid for _, gts in scenes for gt in gts])
    # Detections without a cuboid match nothing, so only those with one are visited.
    visit = [[k for k, det in enumerate(dets) if det.cuboid is not None] for dets, _ in scenes]
    active = [s for s, (_, gts) in enumerate(scenes) if visit[s] and gts]
    start, size = 0, _FIRST_BLOCK
    while active:
        plan = []
        for s in active:
            open_gts = [g for g in range(bounds[s], bounds[s + 1]) if not claimed[g]]
            plan += [(s, k, open_gts) for k in visit[s][start : start + size]]
        dets = cuboid_array([scenes[s][0][k].cuboid for s, k, _ in plan])
        for (s, k, open_gts), row in zip(plan, _iou3d_rows(dets, gt_cuboids, [g for _, _, g in plan])):
            # max and index take the first maximum, so ties go to the lower index.
            ious = [v if v > 0.0 and not claimed[g] else 0.0 for g, v in zip(open_gts, row.tolist())]
            best = max(ious)
            if best > 0.0 and best >= iou_threshold:
                claimed[open_gts[ious.index(best)]] = True
                hits[s][k] = True
        start += size
        size *= 2
        active = [s for s in active if start < len(visit[s]) and not all(claimed[bounds[s] : bounds[s + 1]])]
    return hits


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
    # sorted is stable, so equal scores keep the lower index first.
    ranked = [
        (sorted((d for d in dets if not d.dontcare), key=lambda d: -d.score), filter_gts(gts, rule))
        for dets, gts in scene_pairs
    ]
    total_gts = sum(len(valid) for _, valid in ranked)
    if total_gts == 0:
        return None
    scores = np.array([det.score for dets, _ in ranked for det in dets], dtype=float)
    hits = np.array([hit for scene_hits in _greedy_hits(ranked, iou_threshold) for hit in scene_hits], dtype=float)
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
