"""Scene-level pipelines: rescoring, oracle scores, correlation, comparison.

These helpers connect the box records to the array-level NMS engine. Each
scene is processed independently, in input order.
"""

from __future__ import annotations

import dataclasses
import time
from dataclasses import dataclass
from itertools import accumulate
from typing import Sequence

import numpy as np

from .boxes import DetectionBox, Scene
from .geometry import (
    RectOverlaps,
    _aa_iou,
    _cuboid_pairs,
    _iou3d_rows,
    cuboid_array,
    iou2d_matrix,
    iou3d_matrix,
    rect_array,
)
from .nms import NmsConfig, NmsVariant, RescoreResult, ScoreRangeError, run_nms
from .ranking import eval_ap_r40, filter_gts

__all__ = [
    "ComparisonReport",
    "CorrelationResult",
    "CorrelationRow",
    "build_comparison",
    "combine_scores",
    "effective_scores",
    "oracle_scores",
    "rescore_scene",
    "rescored_boxes",
    "score_iou_correlation",
]

SCORE_MODES = ("product", "class", "pred")


def combine_scores(class_conf: float | None, pred_conf: float | None, mode: str = "product") -> float:
    """Fold the optional classification and localization confidences into one score.

    product: the product when both are present, otherwise whichever exists.
    class: the classification confidence alone. pred: the localization
    confidence alone. Asking for a missing confidence is an error.
    """
    if mode not in SCORE_MODES:
        raise ValueError(f"unknown score mode {mode!r}, expected one of {SCORE_MODES}")
    if mode == "class":
        if class_conf is None:
            raise ValueError("score mode 'class' requires class_conf")
        return float(class_conf)
    if mode == "pred":
        if pred_conf is None:
            raise ValueError("score mode 'pred' requires pred_conf")
        return float(pred_conf)
    if class_conf is not None and pred_conf is not None:
        return float(class_conf) * float(pred_conf)
    if class_conf is not None:
        return float(class_conf)
    if pred_conf is not None:
        return float(pred_conf)
    raise ValueError("score mode 'product' requires at least one confidence")


def effective_scores(boxes: Sequence[DetectionBox], score_mode: str | None) -> np.ndarray:
    """Per-box scores fed to NMS; boxes without confidences keep their raw score."""
    if score_mode is None:
        return np.array([b.score for b in boxes], dtype=float)
    values = []
    for b in boxes:
        if b.class_conf is None and b.pred_conf is None:
            values.append(b.score)
        else:
            values.append(combine_scores(b.class_conf, b.pred_conf, score_mode))
    return np.array(values, dtype=float)


def _scene_inputs(scene: Scene, score_mode: str | None) -> tuple[np.ndarray, RectOverlaps, list[int]]:
    """Scores and rectangle overlaps of a scene's non-DontCare boxes, plus their positions.

    The overlaps are evaluated on demand, so each variant computes only the
    entries it reads.
    """
    index_map = [i for i, b in enumerate(scene.boxes) if not b.dontcare]
    boxes = [scene.boxes[i] for i in index_map]
    return effective_scores(boxes, score_mode), RectOverlaps(rect_array([b.rect for b in boxes])), index_map


def _run_scene_nms(
    scene: Scene,
    inputs: tuple[np.ndarray, RectOverlaps, list[int]],
    cfg: NmsConfig,
    variant: NmsVariant,
) -> RescoreResult:
    scores, overlaps, index_map = inputs
    try:
        return run_nms(scores, overlaps, cfg, variant)
    except ScoreRangeError as exc:
        raise ValueError(f"scene {scene.scene_id!r} box {index_map[exc.index]}: {exc.reason}") from None


def rescore_scene(
    scene: Scene,
    cfg: NmsConfig,
    variant: NmsVariant,
    score_mode: str | None = None,
) -> tuple[RescoreResult, list[int]]:
    """Run one NMS variant over a scene's non-DontCare boxes.

    Returns the rescore result (indices relative to the filtered box list)
    plus the map from filtered positions back to scene.boxes positions. A
    score outside the variant's domain raises ValueError naming the scene
    and the scene.boxes position of the first offending box.
    """
    inputs = _scene_inputs(scene, score_mode)
    return _run_scene_nms(scene, inputs, cfg, variant), inputs[2]


def rescored_boxes(
    scene: Scene,
    result: RescoreResult,
    index_map: Sequence[int],
    kept_only: bool = True,
) -> list[DetectionBox]:
    """Materialize rescored detections; by default only the surviving ones."""
    positions = result.kept if kept_only else range(len(index_map))
    return [
        dataclasses.replace(scene.boxes[index_map[int(k)]], score=float(result.rescores[int(k)]))
        for k in positions
    ]


def oracle_scores(scene: Scene, mode: str = "iou3d") -> Scene:
    """Replace every detection score with its best overlap against the ground truth.

    mode iou2d uses rectangle IoU, mode iou3d the rotated cuboid IoU. Scenes
    without usable ground truths get all-zero scores; DontCare ground truths
    never count.
    """
    if mode not in ("iou2d", "iou3d"):
        raise ValueError(f"unknown oracle mode {mode!r}, expected 'iou2d' or 'iou3d'")
    if mode == "iou2d":
        gts = [g for g in scene.gts if not g.dontcare]
        values = iou2d_matrix(rect_array([b.rect for b in scene.boxes]), rect_array([g.rect for g in gts]))
    else:
        gts = filter_gts(scene.gts, None)
        rows = [i for i, b in enumerate(scene.boxes) if b.cuboid is not None]
        values = np.zeros((len(scene.boxes), len(gts)))
        values[rows] = iou3d_matrix(
            cuboid_array([scene.boxes[i].cuboid for i in rows]), cuboid_array([g.cuboid for g in gts])
        )
    # The best overlap starts at 0.0 and only a larger value replaces it.
    best = np.where(values > 0.0, values, 0.0).max(axis=1, initial=0.0)
    boxes = [dataclasses.replace(box, score=value) for box, value in zip(scene.boxes, best.tolist())]
    return dataclasses.replace(scene, boxes=boxes)


@dataclass(frozen=True)
class CorrelationRow:
    scene_id: str
    box_index: int
    rescore: float
    iou3d_rotated: float
    iou3d_axis_aligned: float


@dataclass(frozen=True)
class CorrelationResult:
    """Pearson correlation between kept rescores and matched-gt 3D IoU.

    coefficient is None when fewer than two usable rows exist or either
    column has zero variance. Rows carry both the rotated and the
    axis-aligned IoU against the same matched ground truth; the coefficient
    is computed on the rotated column.
    """

    coefficient: float | None
    rows: list[CorrelationRow]


def _pearson(x: np.ndarray, y: np.ndarray) -> float | None:
    if x.size < 2:
        return None
    dx = x - x.mean()
    dy = y - y.mean()
    denom = float(np.sqrt(np.dot(dx, dx) * np.dot(dy, dy)))
    if denom == 0.0:
        return None
    return float(np.dot(dx, dy) / denom)


def score_iou_correlation(
    scenes: Sequence[Scene],
    cfg: NmsConfig,
    variant: NmsVariant,
    score_mode: str | None = None,
) -> CorrelationResult:
    """Correlate post-NMS rescores with each kept box's best ground-truth IoU3D.

    Kept boxes are matched to the ground truth with the highest rotated 3D
    IoU; boxes in scenes without usable ground truths (or without a cuboid)
    are excluded since they have nothing to match.
    """
    gts = [filter_gts(scene.gts, None) for scene in scenes]

    def kept_boxes(scene: Scene, scene_gts: list) -> list[tuple[int, float]]:
        """(scene.boxes position, rescore) of each kept box that has a cuboid."""
        if not scene_gts:
            return []
        result, index_map = rescore_scene(scene, cfg, variant, score_mode)
        kept = [(index_map[int(k)], float(result.rescores[int(k)])) for k in result.kept]
        return [(i, rescore) for i, rescore in kept if scene.boxes[i].cuboid is not None]

    per_scene = [kept_boxes(scene, scene_gts) for scene, scene_gts in zip(scenes, gts)]
    # Each kept box's columns are its scene's ground truths in the stacked array.
    bounds = list(accumulate(map(len, gts), initial=0))
    columns = [range(lo, hi) for kept, lo, hi in zip(per_scene, bounds, bounds[1:]) for _ in kept]
    box_cuboids = cuboid_array([scene.boxes[i].cuboid for scene, kept in zip(scenes, per_scene) for i, _ in kept])
    gt_cuboids = cuboid_array([g.cuboid for scene_gts in gts for g in scene_gts])
    values = _iou3d_rows(box_cuboids, gt_cuboids, columns)
    # A kept box's match is the first maximum of its row.
    firsts = [int(row.argmax()) for row in values]
    picks = [cols[j] for cols, j in zip(columns, firsts)]
    aligned = _cuboid_pairs(box_cuboids, gt_cuboids, range(len(picks)), picks, _aa_iou)
    matched = zip([float(row[j]) for row, j in zip(values, firsts)], aligned.tolist())
    rows = [
        CorrelationRow(scene.scene_id, i, rescore, *next(matched))
        for scene, kept in zip(scenes, per_scene)
        for i, rescore in kept
    ]
    coefficient = _pearson(
        np.array([r.rescore for r in rows]), np.array([r.iou3d_rotated for r in rows])
    )
    return CorrelationResult(coefficient, rows)


@dataclass(frozen=True)
class ComparisonReport:
    """Side-by-side summary of several NMS variants over the same scenes.

    kept_mean and seconds_per_scene are keyed by variant value; ap_r40 is the
    unfiltered AP|R40 at the report's IoU threshold (None without ground
    truths); jaccard holds the mean per-scene kept-set agreement for each
    variant pair.
    """

    variants: tuple[str, ...]
    scenes: int
    iou_threshold: float
    kept_mean: dict[str, float]
    seconds_per_scene: dict[str, float]
    ap_r40: dict[str, float | None]
    jaccard: dict[tuple[str, str], float]

    def rows(self) -> list[list[str]]:
        out: list[list[str]] = [["kind", "name", "value", "detail"]]
        for v in self.variants:
            ap = self.ap_r40[v]
            out.append(["kept_mean", v, f"{self.kept_mean[v]:.6g}", ""])
            out.append(["seconds_per_scene", v, f"{self.seconds_per_scene[v]:.6g}", ""])
            out.append(["ap_r40", v, "" if ap is None else f"{ap:.6f}", f"iou={self.iou_threshold:g}"])
        for (a, b), value in self.jaccard.items():
            out.append(["jaccard", f"{a}|{b}", f"{value:.6f}", ""])
        return out

    def table(self) -> str:
        lines = [f"variants compared over {self.scenes} scenes (IoU {self.iou_threshold:g})"]
        for v in self.variants:
            ap = self.ap_r40[v]
            ap_text = "n/a" if ap is None else f"{ap:.2f}"
            lines.append(
                f"  {v:<16} kept/scene {self.kept_mean[v]:8.2f}   "
                f"ms/scene {1000.0 * self.seconds_per_scene[v]:8.3f}   AP|R40 {ap_text}"
            )
        for (a, b), value in self.jaccard.items():
            lines.append(f"  agreement {a} vs {b}: {value:.4f}")
        return "\n".join(lines)


def _jaccard(a: set[int], b: set[int]) -> float:
    if not a and not b:
        return 1.0
    return len(a & b) / len(a | b)


def build_comparison(
    scenes: Sequence[Scene],
    cfg: NmsConfig,
    variants: Sequence[NmsVariant],
    score_mode: str | None = None,
    iou_threshold: float = 0.7,
) -> ComparisonReport:
    """Run every variant over every scene and summarize the differences.

    Each scene's scores and rectangles are gathered once and shared by the
    variants; seconds_per_scene times each variant's rescoring, including the
    overlaps that variant evaluates. Each variant may be listed once, since
    the report keys its rows by variant.
    """
    names = [NmsVariant(v).value for v in variants]
    for k, name in enumerate(names):
        if name in names[:k]:
            raise ValueError(f"variant {name} is listed more than once")
    kept_sets: dict[str, list[set[int]]] = {name: [] for name in names}
    kept_boxes: dict[str, list[tuple[list[DetectionBox], list]]] = {name: [] for name in names}
    seconds: dict[str, float] = {name: 0.0 for name in names}
    for scene in scenes:
        inputs = _scene_inputs(scene, score_mode)
        index_map = inputs[2]
        for variant, name in zip(variants, names):
            start = time.perf_counter()
            result = _run_scene_nms(scene, inputs, cfg, variant)
            seconds[name] += time.perf_counter() - start
            kept_sets[name].append({index_map[int(k)] for k in result.kept})
            kept_boxes[name].append((rescored_boxes(scene, result, index_map), scene.gts))
    n = max(len(scenes), 1)
    kept_mean = {name: float(np.mean([len(s) for s in kept_sets[name]])) if scenes else 0.0 for name in names}
    ap = {name: eval_ap_r40(kept_boxes[name], iou_threshold) for name in names}
    jaccard: dict[tuple[str, str], float] = {}
    for i, a in enumerate(names):
        for b in names[i + 1 :]:
            pairs = zip(kept_sets[a], kept_sets[b])
            jaccard[(a, b)] = float(np.mean([_jaccard(x, y) for x, y in pairs])) if scenes else 1.0
    return ComparisonReport(
        variants=tuple(names),
        scenes=len(scenes),
        iou_threshold=iou_threshold,
        kept_mean=kept_mean,
        seconds_per_scene={name: seconds[name] / n for name in names},
        ap_r40=ap,
        jaccard=jaccard,
    )
