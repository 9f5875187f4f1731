"""Independent reference implementations used to cross-check the package.

Most of these are deliberately written with different algorithms and data
structures than the library code: Monte-Carlo area estimation instead of
polygon clipping, plain-Python greedy matching instead of the vectorized
evaluator. The record quantities (rectangle area, footprint area, volume and
vertical extent), the scalar rectangle IoU, the scalar polygon clipper, the
rotated IoU3D/GIoU3D built on it and the axis-aligned IoU3D are the per-pair
forms that the package's batched kernels replay, the rotated kernel with its clipper run on every pair is the slow
path that its broad phase replaced, the per-pair loops call them, the
greedy loop runs every round over the whole overlap matrix, the scene-by-scene loop
of run_nms calls is what the harness's one pass over a corpus replaced, the per-record score loop
is what the harness's column score rule replaced, the per-member loops are the grouped NMS
forward pass, backward pass and Jacobians that the package's closed-form index
arithmetic replaced, the dense forward substitution is the one the package's row-blocked
solve replaced, the finite-difference loop rescores one perturbed
instance per masked_rescore call where the package batches them, and the
record readers at the end build one record per JSONL object or KITTI line,
as the package's readers did before they read scenes into columns, and the
record writers after them encode one record at a time, as the package's
writers did before they wrote from columns, and the generator at the end
draws and builds one proposal at a time, as the package's did before it
built scenes of columns; the package must agree with all
of them bit for bit. Slow is fine; these only run inside
tests.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass

import numpy as np

from diffnms import (
    Cuboid3D,
    DetectionBox,
    DifficultyRule,
    GradCheckReport,
    GroundTruth,
    NmsConfig,
    NmsGradients,
    NmsVariant,
    RescoreResult,
    Rect2D,
    RectOverlaps,
    Scene,
    ScoreRangeError,
    SyntheticConfig,
    combine_scores,
    cuboid_array,
    filter_gts,
    iou3d_pairs,
    masked_jacobians,
    masked_rescore,
    overlap_matrix,
    prune,
    prune_derivative,
    rect_array,
    rescore_scene,
    run_nms,
    sort_by_score,
)
from diffnms.geometry import _AREA, _X, _Z, _clipped_area, _cuboid_features, _ordered_pairs
from diffnms.gradients import _KINK_MARGIN
from diffnms.io_jsonl import (
    _BOX_FIELDS,
    _CUBOID_KEYS,
    _GT_FIELDS,
    _RECT_KEYS,
    _field_error,
    _integer,
    _number,
    _reject_constant,
    _require_finite_extra,
    _require_object,
    _string,
    _text_lines,
)


# Clipped-polygon vertices closer than this are merged into one.
_VERTEX_MERGE_TOL = 1e-9


# The scalar record quantities, in the operand order that ``RectOverlaps``
# and ``geometry._cuboid_features`` replay.


def rect_area(r: Rect2D) -> float:
    return (r.x2 - r.x1) * (r.y2 - r.y1)


def footprint_area(c: Cuboid3D) -> float:
    return c.w * c.l


def volume(c: Cuboid3D) -> float:
    return c.w * c.h * c.l


def vertical_extent(c: Cuboid3D) -> tuple[float, float]:
    return (c.cy - c.h / 2.0, c.cy + c.h / 2.0)


def reference_iou2d(a: Rect2D, b: Rect2D) -> float:
    """Intersection over union of two rectangles; 0.0 when disjoint or degenerate."""
    ix = min(a.x2, b.x2) - max(a.x1, b.x1)
    iy = min(a.y2, b.y2) - max(a.y1, b.y1)
    if ix <= 0.0 or iy <= 0.0:
        return 0.0
    inter = ix * iy
    union = rect_area(a) + rect_area(b) - inter
    if union <= 0.0:
        return 0.0
    return min(inter / union, 1.0)


@dataclass(frozen=True)
class ConvexPolygon:
    """Convex polygon as an ordered counter-clockwise vertex tuple; may be empty."""

    vertices: tuple[tuple[float, float], ...] = ()

    @property
    def area(self) -> float:
        pts = self.vertices
        if len(pts) < 3:
            return 0.0
        acc = 0.0
        for i, (x1, y1) in enumerate(pts):
            x2, y2 = pts[(i + 1) % len(pts)]
            acc += x1 * y2 - x2 * y1
        # Rounding can push a sliver polygon marginally negative.
        return max(0.5 * acc, 0.0)


def _merge_close_vertices(points: list[tuple[float, float]]) -> tuple[tuple[float, float], ...]:
    out: list[tuple[float, float]] = []
    for pt in points:
        if out and abs(pt[0] - out[-1][0]) <= _VERTEX_MERGE_TOL and abs(pt[1] - out[-1][1]) <= _VERTEX_MERGE_TOL:
            continue
        out.append(pt)
    while len(out) > 1 and abs(out[0][0] - out[-1][0]) <= _VERTEX_MERGE_TOL and abs(out[0][1] - out[-1][1]) <= _VERTEX_MERGE_TOL:
        out.pop()
    return tuple(out)


def clip_convex(subject: ConvexPolygon, clip: ConvexPolygon) -> ConvexPolygon:
    """Intersection of two convex polygons by sequential half-plane clipping.

    Both polygons must wind counter-clockwise. Points on a clip edge count as
    inside, so clipping a polygon against itself is a no-op. An empty result
    is returned as a polygon with no vertices.
    """
    output = list(subject.vertices)
    clip_pts = clip.vertices
    if len(output) < 3 or len(clip_pts) < 3:
        return ConvexPolygon(())
    for k, (px, py) in enumerate(clip_pts):
        if len(output) < 3:
            return ConvexPolygon(())
        qx, qy = clip_pts[(k + 1) % len(clip_pts)]
        ex, ey = qx - px, qy - py
        incoming = output
        # cross(edge, point - edge start); >= 0 means on or left of the edge.
        sides = [ex * (y - py) - ey * (x - px) for x, y in incoming]
        output = []
        for i, start in enumerate(incoming):
            j = (i + 1) % len(incoming)
            end = incoming[j]
            s_val, t_val = sides[i], sides[j]
            if s_val >= 0.0:
                output.append(start)
            if (s_val >= 0.0) != (t_val >= 0.0):
                frac = s_val / (s_val - t_val)
                output.append(
                    (start[0] + frac * (end[0] - start[0]), start[1] + frac * (end[1] - start[1]))
                )
    merged = _merge_close_vertices(output)
    if len(merged) < 3:
        return ConvexPolygon(())
    return ConvexPolygon(merged)


def _canonical_pair(a: Cuboid3D, b: Cuboid3D) -> tuple[Cuboid3D, Cuboid3D]:
    # Fixes the operand order so both argument orders run identical arithmetic.
    ka = (a.cx, a.cy, a.cz, a.w, a.h, a.l, a.yaw)
    kb = (b.cx, b.cy, b.cz, b.w, b.h, b.l, b.yaw)
    return (a, b) if ka <= kb else (b, a)


def reference_bev_intersection_area(a: Cuboid3D, b: Cuboid3D) -> float:
    """Footprint intersection area by clipping one footprint polygon against the other.

    Clamped to the smaller footprint area; equal boxes return their footprint
    area exactly.
    """
    if a == b:
        return footprint_area(a)
    a, b = _canonical_pair(a, b)
    poly = clip_convex(ConvexPolygon(a.bev_footprint()), ConvexPolygon(b.bev_footprint()))
    return min(poly.area, footprint_area(a), footprint_area(b))


def _vertical_overlap(a: Cuboid3D, b: Cuboid3D) -> float:
    a_lo, a_hi = vertical_extent(a)
    b_lo, b_hi = vertical_extent(b)
    return max(min(a_hi, b_hi) - max(a_lo, b_lo), 0.0)


def _volume_iou(a: Cuboid3D, b: Cuboid3D, inter_area: float) -> tuple[float, float, float]:
    """(iou, intersection volume, union volume) given a footprint overlap area."""
    v_inter = inter_area * _vertical_overlap(a, b)
    v_union = volume(a) + volume(b) - v_inter
    iou = min(v_inter / v_union, 1.0) if v_union > 0.0 else 0.0
    return iou, v_inter, v_union


def reference_iou3d(a: Cuboid3D, b: Cuboid3D) -> float:
    """Rotated 3D IoU of one pair: clipped footprint overlap times vertical overlap, over union."""
    if a == b:
        return 1.0 if volume(a) > 0.0 else 0.0
    a, b = _canonical_pair(a, b)
    iou, _, _ = _volume_iou(a, b, reference_bev_intersection_area(a, b))
    return iou


def _bev_aabb(c: Cuboid3D) -> tuple[float, float, float, float]:
    """Axis-aligned footprint extents (x1, z1, x2, z2) with the yaw discarded."""
    hl, hw = c.l / 2.0, c.w / 2.0
    return (c.cx - hl, c.cz - hw, c.cx + hl, c.cz + hw)


def reference_iou3d_axis_aligned(a: Cuboid3D, b: Cuboid3D) -> float:
    """3D IoU of one pair with both yaws discarded."""
    if a == b:
        return 1.0 if volume(a) > 0.0 else 0.0
    a, b = _canonical_pair(a, b)
    ra, rb = _bev_aabb(a), _bev_aabb(b)
    ix = max(min(ra[2], rb[2]) - max(ra[0], rb[0]), 0.0)
    iz = max(min(ra[3], rb[3]) - max(ra[1], rb[1]), 0.0)
    iou, _, _ = _volume_iou(a, b, ix * iz)
    return iou


def reference_giou3d(a: Cuboid3D, b: Cuboid3D) -> float:
    """Generalized 3D IoU of one pair, with an axis-aligned hull: iou + union/hull - 1."""
    if a == b and volume(a) > 0.0:
        return 1.0
    a, b = _canonical_pair(a, b)
    iou, _, v_union = _volume_iou(a, b, reference_bev_intersection_area(a, b))
    ra, rb = _bev_aabb(a), _bev_aabb(b)
    hull_area = (max(ra[2], rb[2]) - min(ra[0], rb[0])) * (max(ra[3], rb[3]) - min(ra[1], rb[1]))
    a_lo, a_hi = vertical_extent(a)
    b_lo, b_hi = vertical_extent(b)
    v_hull = hull_area * (max(a_hi, b_hi) - min(a_lo, b_lo))
    enclosure = min(max(v_union, 0.0) / v_hull, 1.0) if v_hull > 0.0 else 0.0
    return iou + enclosure - 1.0


def slow_cuboid_values(a: np.ndarray, b: np.ndarray, rows, cols, measure) -> np.ndarray:
    """The rotated kernel without its broad phase: ``_clipped_area`` runs on every ordered pair.

    a and b are cuboid arrays, and measure is one of the kernel's measures;
    this is the path ``geometry._cuboid_values`` took before it skipped the
    pairs whose footprints cannot meet.
    """
    rows = np.asarray(rows, dtype=np.intp)
    cols = np.asarray(cols, dtype=np.intp)
    with np.errstate(all="ignore"):
        features = _cuboid_features(np.concatenate([a, b]))
        pa, pb, equal = _ordered_pairs(features, rows, len(a) + cols)
        area = _clipped_area(pa[:, _X:_Z], pa[:, _Z:_AREA], pb[:, _X:_Z], pb[:, _Z:_AREA])
        return measure(pa, pb, equal, area)


def reference_may_meet(a: Cuboid3D, b: Cuboid3D) -> bool:
    """The broad phase's rule for one pair, from the ``bev_footprint`` corners.

    The pair is apart only when all corners are finite; the gap between the
    footprints' bounding boxes on x or z exceeds 2**-20 of the largest corner
    magnitude; every w and l exceeds that margin too; and that magnitude lies
    strictly between 2**-400 and 2**400.
    """
    ca, cb = a.bev_footprint(), b.bev_footprint()
    values = [v for corner in ca + cb for v in corner]
    if not all(math.isfinite(v) for v in values):
        return True
    scale = max(abs(v) for v in values)
    margin = 2.0**-20 * scale
    gaps = []
    for axis in (0, 1):
        lo_a, hi_a = min(c[axis] for c in ca), max(c[axis] for c in ca)
        lo_b, hi_b = min(c[axis] for c in cb), max(c[axis] for c in cb)
        gaps += [lo_a - hi_b, lo_b - hi_a]
    apart = max(gaps) > margin and min(a.w, a.l, b.w, b.l) > margin and 2.0**-400 < scale < 2.0**400
    return not apart


def reference_q_match(box: DetectionBox, gt: GroundTruth) -> float:
    """q_match of one pair: iou2d * (1 + giou3d) / 2, or 0 without both cuboids."""
    if box.cuboid is None or gt.cuboid is None:
        return 0.0
    return reference_iou2d(box.rect, gt.rect) * (1.0 + reference_giou3d(box.cuboid, gt.cuboid)) / 2.0


def points_in_convex(points: np.ndarray, polygon: np.ndarray) -> np.ndarray:
    """Vectorized membership test for a CCW convex polygon, boundary inclusive."""
    inside = np.ones(len(points), dtype=bool)
    n = len(polygon)
    for k in range(n):
        px, py = polygon[k]
        qx, qy = polygon[(k + 1) % n]
        cross = (qx - px) * (points[:, 1] - py) - (qy - py) * (points[:, 0] - px)
        inside &= cross >= 0.0
    return inside


def mc_intersection_area(
    a: Cuboid3D, b: Cuboid3D, samples: int, rng: np.random.Generator
) -> tuple[float, float]:
    """Monte-Carlo footprint intersection estimate and its standard error.

    Samples uniformly over the bounding box of a's footprint; the intersection
    is a subset of it, so the hit fraction rescales exactly.
    """
    poly_a = np.asarray(a.bev_footprint(), dtype=float)
    poly_b = np.asarray(b.bev_footprint(), dtype=float)
    lo = poly_a.min(axis=0)
    hi = poly_a.max(axis=0)
    box_area = float((hi[0] - lo[0]) * (hi[1] - lo[1]))
    if box_area == 0.0:
        return 0.0, 0.0
    pts = rng.uniform(lo, hi, size=(samples, 2))
    hits = points_in_convex(pts, poly_a) & points_in_convex(pts, poly_b)
    p_hat = float(np.count_nonzero(hits)) / samples
    est = box_area * p_hat
    # +1/n regularizes the zero-hit case so the band never collapses to zero
    sigma = box_area * math.sqrt((p_hat * (1.0 - p_hat) + 1.0 / samples) / samples)
    return est, sigma


def reference_ap_r40(
    scene_pairs: list[tuple[list[DetectionBox], list[GroundTruth]]],
    iou_threshold: float,
) -> float | None:
    """Plain-Python AP|R40: greedy per-scene matching, 40-point interpolation."""
    pooled: list[tuple[float, int, int, bool]] = []
    total_gts = 0
    for scene_index, (all_boxes, gts) in enumerate(scene_pairs):
        usable = [g for g in gts if not g.dontcare and g.cuboid is not None]
        total_gts += len(usable)
        boxes = [b for b in all_boxes if not b.dontcare]
        order = sorted(range(len(boxes)), key=lambda i: (-boxes[i].score, i))
        taken = [False] * len(usable)
        for rank, det_index in enumerate(order):
            det = boxes[det_index]
            best_j, best_iou = -1, 0.0
            if det.cuboid is not None:
                for j, gt in enumerate(usable):
                    if taken[j]:
                        continue
                    value = reference_iou3d(det.cuboid, gt.cuboid)
                    if value > best_iou:
                        best_j, best_iou = j, value
            hit = best_j >= 0 and best_iou >= iou_threshold
            if hit:
                taken[best_j] = True
            pooled.append((det.score, scene_index, rank, hit))
    if total_gts == 0:
        return None
    if not pooled:
        return 0.0
    pooled.sort(key=lambda row: (-row[0], row[1], row[2]))
    precisions: list[float] = []
    recalls: list[float] = []
    tp = 0
    for k, (_, _, _, hit) in enumerate(pooled, start=1):
        tp += int(hit)
        precisions.append(tp / k)
        recalls.append(tp / total_gts)
    total = 0.0
    for step in range(1, 41):
        want = step / 40.0
        best = 0.0
        for precision, recall in zip(precisions, recalls):
            if recall >= want and precision > best:
                best = precision
        total += best
    return total * 100.0 / 40.0


def reference_oracle_scores(scene: Scene, mode: str = "iou3d") -> list[float]:
    """Each box's best overlap with the non-DontCare ground truths, one pair at a time."""
    gts = [g for g in scene.gts if not g.dontcare]
    scores = []
    for box in scene.boxes:
        best = 0.0
        for gt in gts:
            if mode == "iou2d":
                value = reference_iou2d(box.rect, gt.rect)
            elif box.cuboid is None or gt.cuboid is None:
                continue
            else:
                value = reference_iou3d(box.cuboid, gt.cuboid)
            best = max(best, value)
        scores.append(best)
    return scores


def reference_quality(boxes: list[DetectionBox], gts: list[GroundTruth]) -> np.ndarray:
    """The assign_targets match-quality matrix, one reference_q_match call per pair."""
    quality = np.zeros((len(boxes), len(gts)))
    for col, gt in enumerate(gts):
        if gt.dontcare:
            continue
        for row, box in enumerate(boxes):
            quality[row, col] = reference_q_match(box, gt)
    return quality


def reference_eval_ap_r40(
    scene_pairs: list[tuple[list[DetectionBox], list[GroundTruth]]],
    iou_threshold: float = 0.7,
    rule: DifficultyRule | None = None,
) -> float | None:
    """eval_ap_r40 with its greedy matching done by one reference_iou3d call per pair."""
    records: list[tuple[float, bool, int, int]] = []
    total_gts = 0
    for scene_index, (dets, gts) in enumerate(scene_pairs):
        valid = filter_gts(gts, rule)
        total_gts += len(valid)
        usable = [d for d in dets if not d.dontcare]
        order = sorted(range(len(usable)), key=lambda k: (-usable[k].score, k))
        claimed = [False] * len(valid)
        for rank, k in enumerate(order):
            det = usable[k]
            best_iou, best_gt = 0.0, -1
            if det.cuboid is not None:
                for g, gt in enumerate(valid):
                    if claimed[g]:
                        continue
                    value = reference_iou3d(det.cuboid, gt.cuboid)
                    if value > best_iou:
                        best_iou, best_gt = value, g
            hit = best_gt >= 0 and best_iou >= iou_threshold
            if hit:
                claimed[best_gt] = True
            records.append((det.score, hit, scene_index, rank))
    if total_gts == 0:
        return None
    records.sort(key=lambda rec: (-rec[0], rec[2], rec[3]))
    hits = np.array([rec[1] for rec in records], dtype=float)
    if hits.size == 0:
        return 0.0
    cumulative = np.cumsum(hits)
    ranks = np.arange(1, hits.size + 1)
    precision = cumulative / ranks
    recall = cumulative / total_gts
    total = 0.0
    for step in range(1, 41):
        eligible = recall >= step / 40
        if eligible.any():
            total += float(precision[eligible].max())
    return 100.0 * total / 40


def reference_correlation_rows(
    scenes: list[Scene], cfg: NmsConfig, variant: NmsVariant
) -> list[tuple[str, int, float, float, float]]:
    """score_iou_correlation's rows as tuples, one reference_iou3d call per kept box x gt pair
    and one reference_iou3d_axis_aligned call per kept box."""
    rows = []
    for scene in scenes:
        gts = [g for g in scene.gts if not g.dontcare and g.cuboid is not None]
        if not gts:
            continue
        result, index_map = rescore_scene(scene, cfg, variant)
        for k in result.kept:
            box = scene.boxes[index_map[int(k)]]
            if box.cuboid is None:
                continue
            values = [reference_iou3d(box.cuboid, gt.cuboid) for gt in gts]
            best = int(np.argmax(values))
            rows.append(
                (
                    scene.scene_id,
                    index_map[int(k)],
                    float(result.rescores[int(k)]),
                    float(values[best]),
                    reference_iou3d_axis_aligned(box.cuboid, gts[best].cuboid),
                )
            )
    return rows


def reference_effective_scores(boxes: list[DetectionBox], score_mode: str | None) -> np.ndarray:
    """effective_scores one record at a time: combine_scores on each box that has a confidence."""
    values = []
    for k, b in enumerate(boxes):
        if score_mode is None or (b.class_conf is None and b.pred_conf is None):
            values.append(b.score)
        else:
            try:
                values.append(combine_scores(b.class_conf, b.pred_conf, score_mode))
            except ValueError as exc:
                raise ScoreRangeError(str(exc), k) from None
    return np.array(values, dtype=float)


def reference_scene_results(
    scenes: list[Scene], cfg: NmsConfig, variants: list[NmsVariant], score_mode: str | None = None
) -> tuple[list[list[RescoreResult]], list[list[int]]]:
    """The harness's corpus results the scene-by-scene way: run_nms on one scene and one variant at a time.

    Returns each variant's result for each scene and each scene's map from
    filtered positions to scene.boxes positions. A score a variant cannot
    take, or cannot form from a box's confidences, raises the ValueError
    that names its scene and box, the first one this loop meets.
    """
    results: list[list[RescoreResult]] = [[] for _ in variants]
    index_maps = []
    for scene in scenes:
        index_map = [i for i, b in enumerate(scene.boxes) if not b.dontcare]
        boxes = [scene.boxes[i] for i in index_map]
        overlaps = RectOverlaps(rect_array([b.rect for b in boxes]))
        try:
            scores = reference_effective_scores(boxes, score_mode)
            for out, variant in zip(results, variants):
                out.append(run_nms(scores, overlaps, cfg, variant))
        except ScoreRangeError as exc:
            raise ValueError(f"scene {scene.scene_id!r} box {index_map[exc.index]}: {exc.reason}") from None
        index_maps.append(index_map)
    return results, index_maps


def reference_greedy_nms(scores, overlaps, cfg: NmsConfig) -> RescoreResult:
    """run_nms's classical and soft loop on a validated matrix, running every round to the last box.

    The package stops once every remaining rescore is 0; this loop does not.
    """
    s = np.asarray(scores, dtype=float) + 0.0
    o = np.asarray(overlaps, dtype=float)
    r = s.copy()
    active = np.ones(s.size, dtype=bool)
    while active.any():
        top = int(np.argmax(np.where(active, r, -np.inf)))
        active[top] = False
        rest = np.flatnonzero(active)
        if rest.size:
            r[rest] *= 1.0 - np.asarray(prune(o[top, rest], cfg), dtype=float)
    return RescoreResult(r, np.flatnonzero(r >= cfg.valid_threshold), r.copy())


def _prune_matrix(sorted_overlaps, cfg: NmsConfig) -> np.ndarray:
    """Strictly-lower-triangular suppression weights over sorted overlaps."""
    return np.tril(prune(np.asarray(sorted_overlaps, dtype=float), cfg), k=-1)


def build_mask(size: int) -> np.ndarray:
    """Binary mask that keeps only the group-top column of a prune matrix."""
    if size < 1:
        raise ValueError(f"mask size must be at least 1, got {size}")
    mask = np.zeros((size, size))
    mask[:, 0] = 1.0
    return mask


def rescore_recursive_oracle(sorted_scores, sorted_overlaps, cfg: NmsConfig) -> np.ndarray:
    """Exact fixpoint of the rescore recursion, flooring at zero every step.

    r_i = max(s_i - sum_j<i P_ij r_j, 0), evaluated in sorted order. This is
    the reference the closed-form variants approximate when clipping binds.
    """
    s = np.asarray(sorted_scores, dtype=float)
    P = _prune_matrix(sorted_overlaps, cfg)
    r = np.zeros(s.size)
    for i in range(s.size):
        r[i] = max(s[i] - np.dot(P[i, :i], r[:i]), 0.0)
    return r


def rescore_product_oracle(sorted_scores, sorted_overlaps, cfg: NmsConfig) -> np.ndarray:
    """Sequential product-form rescoring r_i = s_i * prod_j<i (1 - P_ij r_j).

    Agrees with the recursive oracle to first order when suppression weights
    are small.
    """
    s = np.asarray(sorted_scores, dtype=float)
    P = _prune_matrix(sorted_overlaps, cfg)
    r = np.zeros(s.size)
    for i in range(s.size):
        r[i] = s[i] * float(np.prod(1.0 - P[i, :i] * r[:i]))
    return r


def reference_group_boxes(
    sorted_overlaps, cfg: NmsConfig
) -> tuple[tuple[tuple[int, ...], ...], tuple[int, ...]]:
    """(groups, capped_out) as tuples, built one greedy round at a time."""
    o = np.asarray(sorted_overlaps, dtype=float)
    remaining = np.arange(o.shape[0])
    groups: list[tuple[int, ...]] = []
    capped: list[int] = []
    cap = cfg.max_group_size
    while remaining.size:
        top = remaining[0]
        high = o[remaining, top] > cfg.nt
        high[0] = True
        members = remaining[high]
        if cap is not None and members.size > cap:
            groups.append(tuple(int(i) for i in members[:cap]))
            capped.extend(int(i) for i in members[cap:])
        else:
            groups.append(tuple(int(i) for i in members))
        remaining = remaining[~high]
    return tuple(groups), tuple(capped)


def reference_solve_unit_lower(strict_lower, rhs) -> np.ndarray:
    """Forward substitution for (I + L) x = b, with L held whole and read one row per step."""
    L = np.asarray(strict_lower, dtype=float)
    b = np.asarray(rhs, dtype=float)
    x = np.zeros(b.size)
    for i in range(b.size):
        x[i] = b[i] - np.dot(L[i, :i], x[:i])
    return x


def reference_closed_form(scores, overlaps, cfg: NmsConfig, variant: NmsVariant) -> RescoreResult:
    """run_nms for the masked, full-inverse and grouped-inverse variants, group by group.

    The masked variant rescores each group member in its own loop step. Every
    variant is clipped and then clamped by the box's score, and a score of
    -0.0 is read as 0.0, as in run_nms.
    """
    s_sorted, o_sorted, order = sort_by_score(np.asarray(scores, dtype=float) + 0.0, overlaps)
    if variant is NmsVariant.FULL_INVERSE:
        c = reference_solve_unit_lower(_prune_matrix(o_sorted, cfg), s_sorted)
    else:
        c = np.zeros(s_sorted.size)
        for group in reference_group_boxes(o_sorted, cfg)[0]:
            idx = np.array(group, dtype=int)
            if variant is NmsVariant.MASKED:
                top = group[0]
                weights = np.asarray(prune(o_sorted[idx, top], cfg), dtype=float)
                values = s_sorted[idx] - weights * s_sorted[top]
                values[0] = s_sorted[top]
                c[idx] = values
            else:
                c[idx] = reference_solve_unit_lower(_prune_matrix(o_sorted[np.ix_(idx, idx)], cfg), s_sorted[idx])
    r = np.minimum(np.clip(c, 0.0, 1.0), s_sorted)
    rescores = np.empty_like(r)
    rescores[order] = r
    pre_clip = np.empty_like(c)
    pre_clip[order] = c
    return RescoreResult(rescores, np.flatnonzero(rescores >= cfg.valid_threshold), pre_clip)


def _gate(c: float) -> float:
    return 1.0 if 0.0 <= c <= 1.0 else 0.0


def reference_masked_backward(scores, overlaps, cfg: NmsConfig, upstream) -> NmsGradients:
    """masked_backward with one loop step per group member."""
    s = np.asarray(scores, dtype=float)
    up = np.asarray(upstream, dtype=float)
    s_sorted, o_sorted, order = sort_by_score(s, overlaps)
    groups, _ = reference_group_boxes(o_sorted, cfg)
    up_sorted = up[order]
    ds_sorted = np.zeros(s.size)
    do: dict[tuple[int, int], float] = {}
    for group in groups:
        top = group[0]
        s_top = s_sorted[top]
        ds_sorted[top] += up_sorted[top] * _gate(s_top)
        for i in group[1:]:
            o_it = float(o_sorted[i, top])
            weight = prune(o_it, cfg)
            if _gate(s_sorted[i] - weight * s_top) == 0.0:
                continue
            ds_sorted[i] += up_sorted[i]
            ds_sorted[top] -= up_sorted[i] * weight
            do[(int(order[i]), int(order[top]))] = -up_sorted[i] * prune_derivative(o_it, cfg) * s_top
    ds = np.empty(s.size)
    ds[order] = ds_sorted
    return NmsGradients(ds, do)


def reference_masked_jacobians(scores, overlaps, cfg: NmsConfig) -> tuple[np.ndarray, dict[tuple[int, int], float]]:
    """masked_jacobians with one loop step per group member."""
    s = np.asarray(scores, dtype=float)
    s_sorted, o_sorted, order = sort_by_score(s, overlaps)
    groups, _ = reference_group_boxes(o_sorted, cfg)
    jac = np.zeros((s.size, s.size))
    o_grads: dict[tuple[int, int], float] = {}
    for group in groups:
        top = group[0]
        top_orig = int(order[top])
        s_top = s_sorted[top]
        jac[top_orig, top_orig] = _gate(s_top)
        for i in group[1:]:
            o_it = float(o_sorted[i, top])
            weight = prune(o_it, cfg)
            gate = _gate(s_sorted[i] - weight * s_top)
            if gate == 0.0:
                continue
            i_orig = int(order[i])
            jac[i_orig, i_orig] = gate
            jac[i_orig, top_orig] = -gate * weight
            o_grads[(i_orig, top_orig)] = -gate * prune_derivative(o_it, cfg) * s_top
    return jac, o_grads


def _rel_error(fd: float, analytic: float) -> float:
    return abs(fd - analytic) / max(1.0, abs(fd), abs(analytic))


def reference_finite_difference_check(
    scores,
    overlaps,
    cfg: NmsConfig,
    eps: float = 1e-6,
    tolerance: float = 1e-4,
) -> GradCheckReport:
    """finite_difference_check with two masked_rescore calls per perturbed coordinate."""
    s = np.asarray(scores, dtype=float)
    o = np.asarray(overlaps, dtype=float)
    n = s.size
    jac, o_grads = masked_jacobians(s, o, cfg)
    base = masked_rescore(s, o, cfg)

    row_smooth = np.array(
        [abs(c) >= _KINK_MARGIN and abs(c - 1.0) >= _KINK_MARGIN for c in base.pre_clip]
    )
    col_smooth = np.ones(n, dtype=bool)
    for j in range(n):
        # The perturbed score must stay inside [0, 1] or validation rejects it.
        if s[j] - eps < 0.0 or s[j] + eps > 1.0:
            col_smooth[j] = False
            continue
        gaps = np.abs(np.delete(s, j) - s[j])
        if gaps.size and gaps.min() < _KINK_MARGIN:
            col_smooth[j] = False

    def forward(sv: np.ndarray, ov: np.ndarray) -> np.ndarray:
        return masked_rescore(sv, ov, cfg).rescores

    max_err = 0.0
    worst: tuple[str, int, int] | None = None
    checked = 0
    skipped = 0

    for j in range(n):
        if not col_smooth[j]:
            skipped += n
            continue
        s_hi = s.copy()
        s_hi[j] += eps
        s_lo = s.copy()
        s_lo[j] -= eps
        fd_col = (forward(s_hi, o) - forward(s_lo, o)) / (2.0 * eps)
        for i in range(n):
            if not row_smooth[i]:
                skipped += 1
                continue
            err = _rel_error(float(fd_col[i]), float(jac[i, j]))
            checked += 1
            if err > max_err:
                max_err = err
                worst = ("score", i, j)

    for (i, t), analytic in sorted(o_grads.items()):
        if abs(o[i, t] - cfg.nt) < _KINK_MARGIN or not row_smooth[i]:
            skipped += 1
            continue
        if o[i, t] - eps < 0.0 or o[i, t] + eps > 1.0:
            skipped += 1
            continue
        o_hi = o.copy()
        o_hi[i, t] += eps
        o_hi[t, i] += eps
        o_lo = o.copy()
        o_lo[i, t] -= eps
        o_lo[t, i] -= eps
        fd = (forward(s, o_hi)[i] - forward(s, o_lo)[i]) / (2.0 * eps)
        err = _rel_error(float(fd), float(analytic))
        checked += 1
        if err > max_err:
            max_err = err
            worst = ("overlap", i, t)

    return GradCheckReport(
        max_rel_error=max_err,
        worst=worst,
        checked=checked,
        skipped=skipped,
        tolerance=tolerance,
        passed=max_err <= tolerance,
    )


# The record readers: one record per JSONL object, built field by field, and
# one per KITTI line.


def reference_record_from_dict(kind: type, data, where: str) -> DetectionBox | GroundTruth:
    _require_object(data, where)
    rest = dict(data)
    for key in _RECT_KEYS:
        if key not in rest:
            raise ValueError(f"{where}: missing rectangle key {key!r}")
    missing = [key for key in _CUBOID_KEYS if key not in rest]
    if 0 < len(missing) < len(_CUBOID_KEYS):
        raise ValueError(f"{where}: missing cuboid key {missing[0]!r}")
    has_cuboid = not missing
    fields = {}
    convert = _number
    try:
        coords = []
        for key in _RECT_KEYS + _CUBOID_KEYS if has_cuboid else _RECT_KEYS:
            value = rest.pop(key)
            coords.append(_number(value))
        for key, convert, default, _ in _BOX_FIELDS if kind is DetectionBox else _GT_FIELDS:
            value = rest.pop(key, default)
            fields[key] = value if value is default else convert(value)
    except (TypeError, ValueError, OverflowError):
        raise _field_error(where, key, convert, value) from None
    _require_finite_extra(rest, where)
    try:
        rect = Rect2D(*coords[:4])
        cuboid = Cuboid3D(*coords[4:]) if has_cuboid else None
    except ValueError as exc:
        raise ValueError(f"{where}: {exc}") from None
    return kind(rect=rect, cuboid=cuboid, extra=rest, **fields)


def reference_scene_from_dict(data: dict, where: str = "scene") -> Scene:
    _require_object(data, where)
    data = dict(data)
    if "id" not in data:
        raise ValueError(f"{where}: missing scene id")
    scene_id = data.pop("id")
    if not isinstance(scene_id, str):
        raise _field_error(where, "id", _string, scene_id)
    boxes_raw = data.pop("boxes", [])
    gts_raw = data.pop("gts", [])
    if not isinstance(boxes_raw, list) or not isinstance(gts_raw, list):
        raise ValueError(f"{where}: boxes and gts must be arrays")
    where = f"{where}: scene {scene_id!r}"
    _require_finite_extra(data, where)
    camera = data.pop("camera", None)
    boxes = [reference_record_from_dict(DetectionBox, b, f"{where} box {i}") for i, b in enumerate(boxes_raw)]
    gts = [reference_record_from_dict(GroundTruth, g, f"{where} gt {i}") for i, g in enumerate(gts_raw)]
    return Scene(scene_id=scene_id, boxes=boxes, gts=gts, camera=camera, extra=data)


def reference_read_scenes_jsonl(path) -> list[Scene]:
    scenes = []
    for number, line in _text_lines(path, "utf-8"):
        try:
            data = json.loads(line, parse_constant=_reject_constant)
        except ValueError as exc:
            raise ValueError(f"line {number}: invalid JSON: {exc}") from None
        except RecursionError:
            raise ValueError(f"line {number}: invalid JSON: nested too deeply") from None
        scenes.append(reference_scene_from_dict(data, where=f"line {number}"))
    return scenes


def reference_parse_kitti_label(line: str, line_number: int | None = None) -> GroundTruth | DetectionBox:
    where = f"line {line_number}: " if line_number is not None else ""
    tokens = line.split()
    if len(tokens) not in (15, 16):
        raise ValueError(f"{where}expected 15 or 16 fields, got {len(tokens)}")
    label = tokens[0]
    try:
        values = tuple(float(tok) for tok in tokens[1:])
    except ValueError as exc:
        raise ValueError(f"{where}non-numeric field: {exc}") from None
    truncation, occlusion_raw, alpha = values[0], values[1], values[2]
    try:
        occlusion = _integer(occlusion_raw)
    except TypeError:
        raise ValueError(f"{where}occlusion must be an integer, got {occlusion_raw!r}") from None
    checked = {"truncation": truncation, "alpha": alpha}
    if len(tokens) == 16:
        checked["score"] = values[14]
    for name, value in checked.items():
        if not math.isfinite(value):
            raise ValueError(f"{where}{name} must be finite, got {value!r}")
    dontcare = label == "DontCare"
    try:
        rect = Rect2D(*values[3:7])
        cuboid = None
        if not dontcare:
            h, w, length = values[7:10]
            x, y, z = values[10:13]
            cuboid = Cuboid3D(cx=x, cy=y - h / 2.0, cz=z, w=w, h=h, l=length, yaw=values[13])
    except ValueError as exc:
        raise ValueError(f"{where}{exc}") from None
    common = dict(
        rect=rect,
        cuboid=cuboid,
        label=label,
        truncation=truncation,
        occlusion=occlusion,
        alpha=alpha,
        dontcare=dontcare,
        raw_fields=values[:14],
    )
    if len(tokens) == 16:
        return DetectionBox(score=values[14], **common)
    return GroundTruth(**common)


def _parse_in_file(name: str, line: str, number: int) -> GroundTruth | DetectionBox:
    """reference_parse_kitti_label, its errors prefixed with the name of the file the line came from."""
    try:
        return reference_parse_kitti_label(line, line_number=number)
    except ValueError as exc:
        raise ValueError(f"{name}: {exc}") from None


def reference_read_kitti_file(path, labels_dir=None) -> Scene:
    if labels_dir is not None and not os.path.isdir(labels_dir):
        raise ValueError(f"{os.fspath(labels_dir)}: labels path is not a directory")
    scene = Scene(scene_id=os.path.splitext(os.path.basename(os.fspath(path)))[0])
    for number, line in _text_lines(path, "ascii", f"{os.fspath(path)}: "):
        record = _parse_in_file(os.fspath(path), line, number)
        if isinstance(record, DetectionBox):
            scene.boxes.append(record)
        else:
            scene.gts.append(record)
    if labels_dir is not None:
        label_path = os.path.join(labels_dir, os.path.basename(os.fspath(path)))
        if os.path.exists(label_path):
            for number, line in _text_lines(label_path, "ascii", f"{label_path}: "):
                record = _parse_in_file(label_path, line, number)
                if isinstance(record, DetectionBox):
                    raise ValueError(f"{label_path}: line {number}: a labels file holds no scored detections")
                scene.gts.append(record)
    return scene


# The record writers: one dict per record, encoded by json.dumps, and one KITTI line per record.


def reference_record_to_dict(record: DetectionBox | GroundTruth) -> dict:
    """The JSON object of a record: geometry keys, table fields, then extra keys."""
    out = {key: getattr(record.rect, key) for key in _RECT_KEYS}
    if record.cuboid is not None:
        out.update({key: getattr(record.cuboid, key) for key in _CUBOID_KEYS})
    for key, _, default, always in _BOX_FIELDS if isinstance(record, DetectionBox) else _GT_FIELDS:
        value = getattr(record, key)
        if always or value != default:
            out[key] = value
    out.update(record.extra)
    return out


def reference_scene_to_dict(scene: Scene) -> dict:
    out: dict = {"id": scene.scene_id}
    if scene.camera is not None:
        out["camera"] = scene.camera
    out["boxes"] = [reference_record_to_dict(b) for b in scene.boxes]
    out["gts"] = [reference_record_to_dict(g) for g in scene.gts]
    out.update(scene.extra)
    return out


def reference_scene_line(scene: Scene) -> str:
    """The line write_scenes_jsonl writes for a scene; NaN and infinities are rejected."""
    return json.dumps(reference_scene_to_dict(scene), allow_nan=False, separators=(",", ":"))


def reference_format_kitti_label(obj: GroundTruth | DetectionBox) -> str:
    if obj.raw_fields is not None:
        if len(obj.raw_fields) != 14:
            raise ValueError(f"raw_fields must hold 14 numbers, got {len(obj.raw_fields)}")
        values = obj.raw_fields
    else:
        if obj.cuboid is None:
            raise ValueError("cannot serialize a record with neither raw fields nor a cuboid")
        c = obj.cuboid
        values = (
            obj.truncation,
            float(obj.occlusion),
            obj.alpha,
            obj.rect.x1,
            obj.rect.y1,
            obj.rect.x2,
            obj.rect.y2,
            c.h,
            c.w,
            c.l,
            c.cx,
            c.cy + c.h / 2.0,
            c.cz,
            c.yaw,
        )
    if isinstance(obj, DetectionBox):
        values = values + (obj.score,)
    line = " ".join([obj.label] + [repr(float(v)) for v in values])
    if obj.label.split() != [obj.label]:
        raise ValueError(f"label must be one token without whitespace, got {obj.label!r}")
    # The line must read back: the reader's checks, whose errors name no line without a line number.
    reference_parse_kitti_label(line)
    return line


def reference_random_instance(rng: np.random.Generator, n_boxes: int) -> tuple[np.ndarray, np.ndarray]:
    """random_instance as it drew one Rect2D per box and called overlap_matrix on them."""
    if n_boxes == 0:
        return np.zeros(0), np.zeros((0, 0))
    n_clusters = max(1, n_boxes // 4)
    centers = rng.uniform(0.0, 120.0, size=(n_clusters, 2))
    rects = []
    for _ in range(n_boxes):
        cx, cy = centers[rng.integers(n_clusters)] + rng.normal(0.0, 5.0, size=2)
        w, h = rng.uniform(8.0, 22.0, size=2)
        rects.append(Rect2D(cx - w / 2.0, cy - h / 2.0, cx + w / 2.0, cy + h / 2.0))
    scores = rng.uniform(0.01, 0.99, size=n_boxes)
    return scores, overlap_matrix(rects)


def reference_rect_from_cuboid(cuboid: Cuboid3D) -> Rect2D:
    """rect_from_cuboid as it mapped the bounds of bev_footprint's corners with Python's min and max."""
    corners = cuboid.bev_footprint()
    xs = [x for x, _ in corners]
    zs = [z for _, z in corners]
    return Rect2D((min(xs) + 40.0) * 10.0, min(zs) * 10.0, (max(xs) + 40.0) * 10.0, max(zs) * 10.0)


def _reference_place(rng: np.random.Generator, cfg: SyntheticConfig) -> list[Cuboid3D]:
    cuboids: list[Cuboid3D] = []
    rects: list[Rect2D] = []
    for index in range(cfg.num_objects):
        for _ in range(500):
            cand = Cuboid3D(
                cx=rng.uniform(-25.0, 25.0),
                cy=rng.uniform(0.6, 1.1),
                cz=rng.uniform(8.0, 55.0),
                w=rng.uniform(1.5, 1.9),
                h=rng.uniform(1.3, 1.8),
                l=rng.uniform(3.4, 4.6),
                yaw=rng.uniform(-math.pi, math.pi),
            )
            rect = reference_rect_from_cuboid(cand)
            far_enough = all(math.hypot(cand.cx - c.cx, cand.cz - c.cz) >= 8.0 for c in cuboids)
            apart = all(
                min(rect.x2, r.x2) <= max(rect.x1, r.x1) or min(rect.y2, r.y2) <= max(rect.y1, r.y1) for r in rects
            )
            if far_enough and apart:
                cuboids.append(cand)
                rects.append(rect)
                break
        else:
            raise ValueError(f"could not place object {index} after 500 attempts; lower num_objects")
    return cuboids


def _reference_scale(rng: np.random.Generator, size_jitter: float, name: str, where: str) -> float:
    draw = rng.normal(0.0, size_jitter)
    try:
        return math.exp(draw)
    except OverflowError:
        raise ValueError(f"{where}: the {name} jitter exp({draw!r}) overflows; lower size_jitter") from None


def reference_generate_synthetic(cfg: SyntheticConfig) -> list[Scene]:
    """generate_synthetic as a loop over scenes, objects and proposals: scalar RNG calls, one Cuboid3D,
    rectangle and DetectionBox per proposal and one iou3d_pairs call per scene. A size jitter whose exp
    overflows raises the ValueError that names its scene, object and proposal."""
    scenes = []
    for index in range(cfg.num_scenes):
        scene_id = f"synth-{cfg.seed}-{index:04d}"
        rng = np.random.default_rng([cfg.seed, index])
        gt_cuboids = _reference_place(rng, cfg)
        gts = [GroundTruth(rect=reference_rect_from_cuboid(c), cuboid=c) for c in gt_cuboids]
        proposals: list[Cuboid3D] = []
        noise: list[float] = []
        for k, gt in enumerate(gt_cuboids):
            for j in range(cfg.proposals_per_object):
                if j:
                    where = f"scene {scene_id!r} object {k} proposal {j}"
                    cx = gt.cx + rng.normal(0.0, cfg.center_jitter)
                    cy = gt.cy + rng.normal(0.0, cfg.center_jitter / 2.0)
                    cz = gt.cz + rng.normal(0.0, cfg.center_jitter)
                    w = gt.w * _reference_scale(rng, cfg.size_jitter, "w", where)
                    h = gt.h * _reference_scale(rng, cfg.size_jitter, "h", where)
                    l = gt.l * _reference_scale(rng, cfg.size_jitter, "l", where)
                    proposals.append(Cuboid3D(cx, cy, cz, w, h, l, gt.yaw))
                else:
                    proposals.append(gt)
                noise.append(rng.normal(0.0, cfg.score_noise))
        owner = np.repeat(np.arange(len(gt_cuboids)), cfg.proposals_per_object)
        true_iou = iou3d_pairs(cuboid_array(proposals), cuboid_array(gt_cuboids), np.arange(len(proposals)), owner)
        scores = np.clip(true_iou + np.array(noise), 0.0, 1.0)
        boxes = [
            DetectionBox(rect=reference_rect_from_cuboid(p), cuboid=p, score=s)
            for p, s in zip(proposals, scores.tolist())
        ]
        scenes.append(Scene(scene_id=scene_id, boxes=boxes, gts=gts))
    return scenes
