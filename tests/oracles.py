"""Independent reference implementations used to cross-check the package.

Most of these are deliberately written with different algorithms and data
structures than the library code: Monte-Carlo area estimation instead of
polygon clipping, plain-Python greedy matching instead of the vectorized
evaluator. The per-pair loops are the scalar forms that the package's batched
IoU matrices replaced, and the per-member loops at the end are the grouped NMS
forward pass, backward pass and Jacobians that the package's closed-form index
arithmetic replaced; the package must agree with both bit for bit. Slow is
fine; these only run inside tests.
"""

from __future__ import annotations

import math

import numpy as np

from diffnms import (
    Cuboid3D,
    DetectionBox,
    DifficultyRule,
    GroundTruth,
    NmsConfig,
    NmsGradients,
    NmsVariant,
    RescoreResult,
    Scene,
    filter_gts,
    iou2d,
    iou3d,
    iou3d_axis_aligned,
    prune,
    prune_derivative,
    prune_matrix,
    q_match,
    rescore_scene,
    solve_unit_lower,
    sort_by_score,
)


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
    poly_a = np.asarray(a.bev_footprint().vertices, dtype=float)
    poly_b = np.asarray(b.bev_footprint().vertices, dtype=float)
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
                    value = iou3d(det.cuboid, gt.cuboid)
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
                value = iou3d(box.cuboid, gt.cuboid)
            best = max(best, value)
        scores.append(best)
    return scores


def reference_quality(boxes: list[DetectionBox], gts: list[GroundTruth]) -> np.ndarray:
    """The assign_targets match-quality matrix, one q_match call per pair."""
    quality = np.zeros((len(boxes), len(gts)))
    for col, gt in enumerate(gts):
        if gt.dontcare:
            continue
        for row, box in enumerate(boxes):
            quality[row, col] = q_match(box, gt)
    return quality


def reference_eval_ap_r40(
    scene_pairs: list[tuple[list[DetectionBox], list[GroundTruth]]],
    iou_threshold: float = 0.7,
    rule: DifficultyRule | None = None,
) -> float | None:
    """eval_ap_r40 with its greedy matching done by one scalar iou3d call per pair."""
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
                    value = iou3d(det.cuboid, gt.cuboid)
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
    """score_iou_correlation's rows as tuples, one scalar iou3d call per kept box x gt pair."""
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
            values = [iou3d(box.cuboid, gt.cuboid) for gt in gts]
            best = int(np.argmax(values))
            rows.append(
                (
                    scene.scene_id,
                    index_map[int(k)],
                    float(result.rescores[int(k)]),
                    float(values[best]),
                    iou3d_axis_aligned(box.cuboid, gts[best].cuboid),
                )
            )
    return rows


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
    P = prune_matrix(sorted_overlaps, cfg)
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
    P = prune_matrix(sorted_overlaps, cfg)
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


def reference_closed_form(scores, overlaps, cfg: NmsConfig, variant: NmsVariant) -> RescoreResult:
    """run_nms for the masked, full-inverse and grouped-inverse variants, group by group.

    The masked variant rescores each group member in its own loop step. Every
    variant is clipped and then clamped by the box's score, and a score of
    -0.0 is read as 0.0, as in run_nms.
    """
    s_sorted, o_sorted, order = sort_by_score(np.asarray(scores, dtype=float) + 0.0, overlaps)
    if variant is NmsVariant.FULL_INVERSE:
        c = solve_unit_lower(prune_matrix(o_sorted, cfg), s_sorted)
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
                c[idx] = solve_unit_lower(prune_matrix(o_sorted[np.ix_(idx, idx)], cfg), s_sorted[idx])
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
