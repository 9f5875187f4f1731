"""Independent reference implementations used to cross-check the package.

Most of these are deliberately written with different algorithms and data
structures than the library code: Monte-Carlo area estimation instead of
polygon clipping, plain-Python greedy matching instead of the vectorized
evaluator. The scalar polygon clipper, the rotated IoU3D/GIoU3D built on it
and the axis-aligned IoU3D are the per-pair forms that the package's batched
kernel replays, the per-pair loops call them, the greedy loop runs every
round over the whole overlap matrix, the per-member loops are the grouped NMS
forward pass, backward pass and Jacobians that the package's closed-form index
arithmetic replaced, the dense forward substitution is the one the package's row-blocked
solve replaced, and the finite-difference loop at the end rescores one perturbed
instance per masked_rescore call where the package batches them; the package
must agree with all of them bit for bit. Slow is fine; these only run inside
tests.
"""

from __future__ import annotations

import math
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
    Scene,
    filter_gts,
    iou2d,
    masked_jacobians,
    masked_rescore,
    prune,
    prune_derivative,
    rescore_scene,
    sort_by_score,
)
from diffnms.gradients import _KINK_MARGIN


# Clipped-polygon vertices closer than this are merged into one.
_VERTEX_MERGE_TOL = 1e-9


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
        return a.footprint_area
    a, b = _canonical_pair(a, b)
    poly = clip_convex(ConvexPolygon(a.bev_footprint()), ConvexPolygon(b.bev_footprint()))
    return min(poly.area, a.footprint_area, b.footprint_area)


def _vertical_overlap(a: Cuboid3D, b: Cuboid3D) -> float:
    a_lo, a_hi = a.vertical_extent
    b_lo, b_hi = b.vertical_extent
    return max(min(a_hi, b_hi) - max(a_lo, b_lo), 0.0)


def _volume_iou(a: Cuboid3D, b: Cuboid3D, inter_area: float) -> tuple[float, float, float]:
    """(iou, intersection volume, union volume) given a footprint overlap area."""
    v_inter = inter_area * _vertical_overlap(a, b)
    v_union = a.volume + b.volume - v_inter
    iou = min(v_inter / v_union, 1.0) if v_union > 0.0 else 0.0
    return iou, v_inter, v_union


def reference_iou3d(a: Cuboid3D, b: Cuboid3D) -> float:
    """Rotated 3D IoU of one pair: clipped footprint overlap times vertical overlap, over union."""
    if a == b:
        return 1.0 if a.volume > 0.0 else 0.0
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
        return 1.0 if a.volume > 0.0 else 0.0
    a, b = _canonical_pair(a, b)
    ra, rb = _bev_aabb(a), _bev_aabb(b)
    ix = max(min(ra[2], rb[2]) - max(ra[0], rb[0]), 0.0)
    iz = max(min(ra[3], rb[3]) - max(ra[1], rb[1]), 0.0)
    iou, _, _ = _volume_iou(a, b, ix * iz)
    return iou


def reference_giou3d(a: Cuboid3D, b: Cuboid3D) -> float:
    """Generalized 3D IoU of one pair, with an axis-aligned hull: iou + union/hull - 1."""
    if a == b and a.volume > 0.0:
        return 1.0
    a, b = _canonical_pair(a, b)
    iou, _, v_union = _volume_iou(a, b, reference_bev_intersection_area(a, b))
    ra, rb = _bev_aabb(a), _bev_aabb(b)
    hull_area = (max(ra[2], rb[2]) - min(ra[0], rb[0])) * (max(ra[3], rb[3]) - min(ra[1], rb[1]))
    a_lo, a_hi = a.vertical_extent
    b_lo, b_hi = b.vertical_extent
    v_hull = hull_area * (max(a_hi, b_hi) - min(a_lo, b_lo))
    enclosure = min(max(v_union, 0.0) / v_hull, 1.0) if v_hull > 0.0 else 0.0
    return iou + enclosure - 1.0


def reference_q_match(box: DetectionBox, gt: GroundTruth) -> float:
    """q_match of one pair: iou2d * (1 + giou3d) / 2, or 0 without both cuboids."""
    if box.cuboid is None or gt.cuboid is None:
        return 0.0
    return iou2d(box.rect, gt.rect) * (1.0 + reference_giou3d(box.cuboid, gt.cuboid)) / 2.0


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
                value = iou2d(box.rect, gt.rect)
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
