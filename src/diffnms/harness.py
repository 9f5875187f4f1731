"""Scene-level pipelines: rescoring, oracle scores, correlation, comparison.

These helpers connect scenes to the array-level NMS engine. They read a
scene's columns (``Scene._columns``): scores are folded from the confidence
columns, and every scene that rescoring or the oracle returns holds box
columns with the new scores and shares the input's ground truths. Only
``rescored_boxes`` returns records, built from those columns, or for a scene
that holds records, its own records with the rescored ones replaced. Scenes
never interact: a corpus is rescored in one NMS pass per variant, with the
scenes as lanes of its loops, and every result and error is the one that
rescoring each scene on its own, in input order, would give.
"""

from __future__ import annotations

import dataclasses
import functools
import time
from dataclasses import dataclass
from itertools import accumulate
from typing import Sequence

import numpy as np

from .boxes import DetectionBox, Scene, _Columns
from .geometry import RectOverlaps, _aa_iou, _cuboid_pairs, _iou3d_rows, iou2d_matrix
from .nms import (
    NmsConfig,
    NmsVariant,
    RescoreResult,
    ScoreRangeError,
    _check_variant,
    _nms_scenes,
    _overlap_source,
    _score_upper,
    _validate_scores,
)
from .ranking import _ap_r40, _evaluable

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

# The columns of no detections: the first part of every stack, so that a corpus without scenes stacks too.
_NO_BOXES = _Columns.from_records(DetectionBox, [])


def combine_scores(class_conf: float | None, pred_conf: float | None, mode: str = "product") -> float:
    """Fold the optional classification and localization confidences into one score.

    product: the product when both are present, which must then be
    non-negative, otherwise whichever exists. class: the classification
    confidence alone. pred: the localization confidence alone. Asking for a
    missing confidence is an error.
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
        # A product of two negatives, or a negative times 0.0, would pass as a valid score.
        for name, value in (("class_conf", class_conf), ("pred_conf", pred_conf)):
            if value < 0.0:
                raise ValueError(f"{name} must be non-negative, got {value}")
        return float(class_conf) * float(pred_conf)
    if class_conf is not None:
        return float(class_conf)
    if pred_conf is not None:
        return float(pred_conf)
    raise ValueError("score mode 'product' requires at least one confidence")


def effective_scores(boxes: Sequence[DetectionBox], score_mode: str | None) -> np.ndarray:
    """Per-box scores fed to NMS; boxes without confidences keep their raw score.

    A box whose confidences the mode cannot combine raises ScoreRangeError.
    """
    columns = _Columns.from_records(DetectionBox, boxes)
    s, ok = _column_scores(columns, score_mode)
    if not ok.all():
        _raise_fold_error(columns, int(np.argmax(~ok)), score_mode)
    return s


def _column_scores(boxes: _Columns, score_mode: str | None) -> tuple[np.ndarray, np.ndarray]:
    """``effective_scores`` of the boxes, from their columns, and whether score_mode can combine each
    box's confidences; a box it cannot combine holds an arbitrary value."""
    s = boxes.score
    if score_mode is None:
        return s, np.ones(len(s), dtype=bool)
    has_class, has_pred = boxes.has_class_conf, boxes.has_pred_conf
    class_conf, pred_conf = boxes.class_conf, boxes.pred_conf
    if score_mode == "class":
        ok, value = has_class | ~has_pred, np.where(has_class, class_conf, s)
    elif score_mode == "pred":
        ok, value = has_pred | ~has_class, np.where(has_pred, pred_conf, s)
    elif score_mode == "product":
        both = has_class & has_pred
        ok = ~(both & ((class_conf < 0.0) | (pred_conf < 0.0)))
        one = np.where(has_class, class_conf, np.where(has_pred, pred_conf, s))
        # As in Python, a product that overflows, or is inf * 0, is a score the range check rejects.
        with np.errstate(over="ignore", invalid="ignore"):
            value = np.where(both, class_conf * pred_conf, one)
    else:
        ok, value = ~(has_class | has_pred), s
    return value, ok


def _raise_fold_error(boxes: _Columns, k: int, score_mode: str) -> None:
    """Raise ScoreRangeError at k with the reason ``combine_scores`` gives for box k's confidences."""
    confs = [
        float(c) if has else None
        for c, has in ((boxes.class_conf[k], boxes.has_class_conf[k]), (boxes.pred_conf[k], boxes.has_pred_conf[k]))
    ]
    try:
        combine_scores(*confs, score_mode)
    except ValueError as exc:
        raise ScoreRangeError(str(exc), k) from None


def _corpus_scores(boxes: _Columns, bounds: np.ndarray, uppers: list, score_mode: str | None) -> np.ndarray:
    """The validated scores of the stacked boxes, scene k holding bounds[k]:bounds[k + 1].

    A bad score raises ScoreRangeError with the box's position in the stack.
    It is the error that checking the scenes in order, each first for its
    confidences and then against each upper bound in turn, meets first: one
    mask finds the first scene with a bad box, and only that scene is
    checked box by box.
    """
    s, ok = _column_scores(boxes, score_mode)
    # Adding 0.0 maps -0.0 to 0.0, as _validate_scores does.
    s = s + 0.0
    bad = ~ok | ~np.isfinite(s) | (s < 0.0)
    for upper in uppers:
        if upper is not None:
            bad |= s > upper
    if bad.any():
        k = int(np.searchsorted(bounds, np.argmax(bad), side="right")) - 1
        lo, hi = int(bounds[k]), int(bounds[k + 1])
        if not ok[lo:hi].all():
            _raise_fold_error(boxes, lo + int(np.argmax(~ok[lo:hi])), score_mode)
        for upper in uppers:
            try:
                _validate_scores(s[lo:hi], upper)
            except ScoreRangeError as exc:
                raise ScoreRangeError(exc.reason, lo + exc.index) from None
    return s


def _corpus_results(
    scenes: Sequence[Scene], cfg: NmsConfig, variants: Sequence[NmsVariant], score_mode: str | None
) -> tuple[list[list[RescoreResult]], list[float], list[list[int]]]:
    """Each variant's rescoring of every scene's non-DontCare boxes, its seconds, and the boxes' positions.

    The scores and rectangles of all scenes are stacked once and shared by
    the variants, and each variant rescores the whole corpus in one pass
    (``nms._nms_scenes``), scenes as lanes; its results are one per scene.
    The overlaps are evaluated on demand, so each variant computes only the
    entries it reads, and its seconds include them; the zero-overlap
    clusters of the scenes, and the groups of masked and grouped-inverse,
    are found once, by the first variant that reads them, and shared with
    the rest. A box lacking the
    confidence score_mode needs, or with a score a variant cannot take,
    raises ValueError naming the scene and its scene.boxes position: the
    first that rescoring the scenes one by one would meet. A variant that
    cannot use cfg's pruning kind is an error before any scene is read.
    """
    variants = [NmsVariant(v) for v in variants]
    for variant in variants:
        _check_variant(variant, cfg.pruning)
    boxes = [scene._columns("boxes") for scene in scenes]
    index_maps = [np.flatnonzero(~columns.dontcare) for columns in boxes]
    bounds = np.array(list(accumulate(map(len, index_maps), initial=0)))
    confs = () if score_mode is None else ("class_conf", "has_class_conf", "pred_conf", "has_pred_conf")
    stacked = _Columns(
        DetectionBox,
        **{
            name: np.concatenate([getattr(_NO_BOXES, name), *(getattr(c, name)[at] for c, at in zip(boxes, index_maps))])
            for name in ("rects", "score", *confs)
        },
    )
    try:
        s = _corpus_scores(stacked, bounds, [_score_upper(v) for v in variants], score_mode)
    except ScoreRangeError as exc:
        k = int(np.searchsorted(bounds, exc.index, side="right")) - 1
        box = index_maps[k][exc.index - bounds[k]]
        raise ValueError(f"scene {scenes[k].scene_id!r} box {box}: {exc.reason}") from None
    source = _overlap_source(RectOverlaps(stacked.rects), s.size)
    clusters = functools.cache(functools.partial(source._clusters, bounds))
    tops: dict = {}
    results, seconds = [], []
    for variant in variants:
        start = time.perf_counter()
        results.append(_nms_scenes(s, source, bounds, cfg, variant, clusters, tops))
        seconds.append(time.perf_counter() - start)
    return results, seconds, [index_map.tolist() for index_map in index_maps]


def _rescore_scenes(
    scenes: Sequence[Scene], cfg: NmsConfig, variant: NmsVariant, score_mode: str | None = None
) -> list[tuple[RescoreResult, list[int]]]:
    """``rescore_scene`` of every scene, from one NMS pass over the corpus."""
    (results,), _, index_maps = _corpus_results(scenes, cfg, [variant], score_mode)
    return list(zip(results, index_maps))


def rescore_scene(
    scene: Scene,
    cfg: NmsConfig,
    variant: NmsVariant,
    score_mode: str | None = None,
) -> tuple[RescoreResult, list[int]]:
    """Run one NMS variant over a scene's non-DontCare boxes.

    Returns the rescore result (indices relative to the filtered box list)
    plus the map from filtered positions back to scene.boxes positions. A
    score the variant cannot take, or cannot form from a box's confidences,
    raises ValueError naming the scene and the scene.boxes position of the
    first offending box. It runs the corpus path of ``diffnms run`` on a
    one-scene corpus.
    """
    return _rescore_scenes([scene], cfg, variant, score_mode)[0]


def rescored_boxes(
    scene: Scene,
    result: RescoreResult,
    index_map: Sequence[int],
    kept_only: bool = True,
) -> list[DetectionBox]:
    """Materialize rescored detections; by default only the surviving ones.

    With kept_only=False every box comes back, in scene.boxes order; DontCare
    boxes take no part in NMS and keep their scores. A scene that holds
    records gives back its own records, each rescored one replaced by a copy
    with its new score.
    """
    records = scene._held_records("boxes")
    if records is None:
        return _rescored_columns(scene._columns("boxes"), result, index_map, kept_only).records()
    index = np.asarray(index_map, dtype=np.intp)
    new = dict(zip(index.tolist(), result.rescores.tolist()))
    positions = index[np.asarray(result.kept, dtype=np.intp)].tolist() if kept_only else range(len(records))
    return [dataclasses.replace(records[i], score=new[i]) if i in new else records[i] for i in positions]


def _rescored_scene(scene: Scene, result: RescoreResult, index_map: Sequence[int], kept_only: bool) -> Scene:
    """scene with the boxes rescored_boxes(scene, result, index_map, kept_only) returns, as columns."""
    return scene._with_boxes(_rescored_columns(scene._columns("boxes"), result, index_map, kept_only))


def _rescored_columns(boxes: _Columns, result: RescoreResult, index_map: Sequence[int], kept_only: bool) -> _Columns:
    """The rows of boxes that rescored_boxes returns, the kept ones in kept order or all of them, each box at
    index_map scored its rescore."""
    index = np.asarray(index_map, dtype=np.intp)
    score = boxes.score.copy()
    score[index] = result.rescores
    at = index[np.asarray(result.kept, dtype=np.intp)] if kept_only else np.arange(len(boxes))
    return boxes.take(at, score[at])


def _gt_rows(boxes: Sequence[np.ndarray], gts: Sequence[np.ndarray]):
    """The box cuboids boxes[s] and ground-truth cuboids gts[s] stacked scene after scene; each box's
    columns in the stacked ground truths; and the ``_iou3d_rows`` values and row bounds of rotated
    IoU3D, from one kernel call."""
    bounds = list(accumulate(map(len, gts), initial=0))
    columns = [range(lo, hi) for scene_boxes, lo, hi in zip(boxes, bounds, bounds[1:]) for _ in scene_boxes]
    box_cuboids = np.concatenate([np.zeros((0, 7)), *boxes])
    gt_cuboids = np.concatenate([np.zeros((0, 7)), *gts])
    return box_cuboids, gt_cuboids, columns, *_iou3d_rows(box_cuboids, gt_cuboids, columns)


def _usable_gts(gts: _Columns) -> np.ndarray:
    """The cuboids of the ground truths that are matched against: filter_gts(gts, None)."""
    return gts.cuboids[_evaluable(gts, None)]


def oracle_scores(scene: Scene, mode: str = "iou3d") -> Scene:
    """Replace every detection score with its best overlap against the ground truth.

    mode iou2d uses rectangle IoU, mode iou3d the rotated cuboid IoU. Scenes
    without usable ground truths get all-zero scores; DontCare ground truths
    never count. It runs the corpus path of ``diffnms oracle`` on a one-scene
    corpus.
    """
    return _oracle_scenes([scene], mode)[0]


def _oracle_scenes(scenes: Sequence[Scene], mode: str = "iou3d") -> list[Scene]:
    """``oracle_scores`` of every scene, with one rotated-IoU kernel call for all of them in mode iou3d.

    In mode iou3d each box with a cuboid is a ``_gt_rows`` row against its
    scene's usable ground truths; each scene's rows are then read back as one
    block of its own matrix.
    """
    if mode not in ("iou2d", "iou3d"):
        raise ValueError(f"unknown oracle mode {mode!r}, expected 'iou2d' or 'iou3d'")
    boxes = [scene._columns("boxes") for scene in scenes]
    gts = [scene._columns("gts") for scene in scenes]
    if mode == "iou2d":
        values = [iou2d_matrix(b.rects, g.rects[~g.dontcare]) for b, g in zip(boxes, gts)]
    else:
        gts = [_usable_gts(g) for g in gts]
        positions = [np.flatnonzero(b.has_cuboid) for b in boxes]
        flat, row_bounds = _gt_rows([b.cuboids[r] for b, r in zip(boxes, positions)], gts)[3:]
        firsts = accumulate(map(len, positions), initial=0)
        values = []
        for b, r, scene_gts, first in zip(boxes, positions, gts, firsts):
            scene_values = np.zeros((len(b), len(scene_gts)))
            scene_values[r] = flat[row_bounds[first] : row_bounds[first + len(r)]].reshape(len(r), len(scene_gts))
            values.append(scene_values)
    out = []
    for scene, b, scene_values in zip(scenes, boxes, values):
        # The best overlap starts at 0.0 and only a larger value replaces it.
        best = np.where(scene_values > 0.0, scene_values, 0.0).max(axis=1, initial=0.0)
        out.append(scene._with_boxes(b.take(np.arange(len(b)), best)))
    return out


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
    are excluded since they have nothing to match. Every scene is rescored,
    in one pass over the corpus, so every scene's scores are validated as
    ``diffnms run`` validates them.
    """
    boxes = [scene._columns("boxes") for scene in scenes]
    gts = [_usable_gts(scene._columns("gts")) for scene in scenes]

    def kept_boxes(columns: _Columns, scene_gts: np.ndarray, result: RescoreResult, index_map: list[int]):
        """(scene.boxes position, rescore) of each kept box that has a cuboid, if the scene has ground truths."""
        if not len(scene_gts):
            return []
        kept = [(index_map[int(k)], float(result.rescores[int(k)])) for k in result.kept]
        return [(i, rescore) for i, rescore in kept if columns.has_cuboid[i]]

    rescored = _rescore_scenes(scenes, cfg, variant, score_mode)
    per_scene = [kept_boxes(columns, scene_gts, *r) for columns, scene_gts, r in zip(boxes, gts, rescored)]
    kept_cuboids = [columns.cuboids[[i for i, _ in kept]].reshape(-1, 7) for columns, kept in zip(boxes, per_scene)]
    box_cuboids, gt_cuboids, columns, values, bounds = _gt_rows(kept_cuboids, gts)
    # A kept box's match is the first maximum of its row.
    firsts = [int(values[lo:hi].argmax()) for lo, hi in zip(bounds, bounds[1:])]
    picks = [cols[j] for cols, j in zip(columns, firsts)]
    aligned = _cuboid_pairs(box_cuboids, gt_cuboids, range(len(picks)), picks, _aa_iou)
    matched = zip([float(values[lo + j]) for lo, j in zip(bounds, firsts)], aligned.tolist())
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

    The scores and rectangles of all scenes are gathered once and shared by
    the variants, and each variant rescores the corpus in one pass;
    seconds_per_scene is that pass's time, including the overlaps the
    variant evaluates, divided by the number of scenes. Each variant may be
    listed once, since the report keys its rows by variant.
    """
    names = [NmsVariant(v).value for v in variants]
    for k, name in enumerate(names):
        if name in names[:k]:
            raise ValueError(f"variant {name} is listed more than once")
    kept_sets: dict[str, list[set[int]]] = {name: [] for name in names}
    ap: dict[str, float | None] = {}
    results, times, index_maps = _corpus_results(scenes, cfg, variants, score_mode)
    seconds = dict(zip(names, times))
    boxes = [scene._columns("boxes") for scene in scenes]
    gts = [_usable_gts(scene._columns("gts")) for scene in scenes]
    for name, variant_results in zip(names, results):
        kept_boxes = []
        for columns, result, index_map in zip(boxes, variant_results, index_maps):
            kept = np.asarray(index_map, dtype=np.intp)[result.kept]
            kept_sets[name].append(set(kept.tolist()))
            kept_boxes.append((result.rescores[result.kept], columns.cuboids[kept], columns.has_cuboid[kept]))
        # The kept boxes, scored by their rescores: rescored_boxes of each scene, none of them DontCare.
        ap[name] = _ap_r40(kept_boxes, gts, iou_threshold)
    n = max(len(scenes), 1)
    kept_mean = {name: float(np.mean([len(s) for s in kept_sets[name]])) if scenes else 0.0 for name in names}
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
