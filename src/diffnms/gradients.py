"""Analytic gradients for the masked rescorer and a finite-difference verifier.

The masked rescorer is piecewise linear in the scores and piecewise smooth in
the overlaps: within a group with top box t, a member i has pre-clip value
c_i = s_i - p(o_it) s_t and the top has c_t = s_t. The clip contributes a
gate that is 1 when the pre-clip value lies inside [0, 1] (boundary included)
and 0 outside. Sorting, grouping, and the group-size cap are discrete
structure: gradients flow through the recorded permutation and grouping, never
through rank or membership changes, and capped-out boxes get zero gradient.
The backward pass differentiates the masked forward that run_nms runs, and
rejects the scores that forward rejects.

The finite-difference check compares these Jacobians with central
differences. It checks many instances at once: a chunk of them is one batch
of padded score rows over their stacked overlaps, with one masked forward
for every instance's analytic terms and one per block of perturbed rows,
and the bookkeeping is vectorized across the instances. One instance
(finite_difference_check) is a batch of one.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .nms import (
    NmsConfig,
    Pruning,
    _StackedOverlaps,
    _masked_sorted,
    _overlap_source,
    _validate_scores,
    prune,
    prune_derivative,
)

__all__ = [
    "GradCheckReport",
    "NmsGradients",
    "finite_difference_check",
    "masked_backward",
    "masked_jacobians",
]


def _gate(c: np.ndarray) -> np.ndarray:
    """Subgradient of clip at c: true (1) inside the closed interval [0, 1], else false (0)."""
    return (c >= 0.0) & (c <= 1.0)


@dataclass(frozen=True, eq=False)
class NmsGradients:
    """Loss gradients through the masked rescorer, in original box order.

    score_grad is dense d(loss)/d(score). overlap_grad holds one entry per
    suppressed pair, keyed (member index, group-top index) in original order;
    overlaps are symmetric, so the mirrored entry is implied.
    """

    score_grad: np.ndarray
    overlap_grad: dict[tuple[int, int], float]


def _validated_inputs(scores, overlaps, cfg: NmsConfig, in_range: bool = False):
    if cfg.pruning is Pruning.HARD:
        raise ValueError("non-differentiable pruning: gradients require a soft pruning kind")
    s = _validate_scores(scores, upper=1.0)
    # A matrix by shape only unless in_range: a range check reads all n^2 entries.
    return s, _overlap_source(overlaps, s.size, in_range)


def _local_terms(S: np.ndarray, source, cfg: NmsConfig, boxes=None):
    """The recorded sort and grouping of score rows S, (B, n), reduced to the local derivatives' inputs.

    Every index is a slot, b * n + k for entry (b, k) of S, so one row's
    slots are its boxes. Several rows need boxes, which must hold slot
    b * n + k at (b, k), or -1 for padding (see _masked_sorted). In slots:
    the group tops and their clip gates, then the non-top members whose gate
    is open, their tops, and o_it, p(o_it), p'(o_it) and s_t for each of
    them, and last every slot's pre-clip value. The sort, grouping, overlaps
    and pre-clip values are those of the masked forward that run_nms runs,
    which reads each o_it once.
    """
    B, n = S.shape
    order, top, pre_clip, _, o_mt = _masked_sorted(S, source, cfg, boxes=boxes)
    order, pre_clip, rank = order.ravel(), pre_clip.ravel(), np.arange(n)
    members = np.flatnonzero((top >= 0) & (top != rank))
    members, tops = order[members], order[(top + np.arange(B)[:, None] * n).ravel()[members]]
    gated = _gate(pre_clip[members])
    members, tops, o_mt = members[gated], tops[gated], o_mt[gated]
    group_tops = order[np.flatnonzero(top == rank)]
    weights, slopes = prune(o_mt, cfg), prune_derivative(o_mt, cfg)
    return group_tops, _gate(pre_clip[group_tops]), members, tops, o_mt, weights, slopes, S.ravel()[tops], pre_clip


def _pair_dict(members: np.ndarray, tops: np.ndarray, values: np.ndarray) -> dict[tuple[int, int], float]:
    return dict(zip(zip(members.tolist(), tops.tolist()), values.tolist()))


def masked_backward(scores, overlaps, cfg: NmsConfig, upstream) -> NmsGradients:
    """Chain upstream d(loss)/d(rescore) through the masked rescorer.

    For a gated member i with top t the local derivatives are
    dr_i/ds_i = 1, dr_i/ds_t = -p(o_it), and dr_i/do_it = -p'(o_it) s_t;
    the gate zeroes all three when the pre-clip value sits outside [0, 1].
    """
    s, source = _validated_inputs(scores, overlaps, cfg)
    up = np.asarray(upstream, dtype=float)
    if up.shape != s.shape:
        raise ValueError(f"upstream gradient must have shape {s.shape}, got {up.shape}")
    tops, top_gates, members, member_tops, _, weights, slopes, s_tops, _ = _local_terms(s[None], source, cfg)
    # One scatter, its terms in the order of a walk over the groups (each top's
    # own term before its members'), so every sum adds up in that order. With
    # no boxes, bincount returns integers.
    score_grad = np.bincount(
        np.concatenate([tops, members, member_tops]),
        np.concatenate([up[tops] * top_gates, up[members], -(up[members] * weights)]),
        minlength=s.size,
    ).astype(float, copy=False)
    return NmsGradients(score_grad, _pair_dict(members, member_tops, -up[members] * slopes * s_tops))


def masked_jacobians(scores, overlaps, cfg: NmsConfig) -> tuple[np.ndarray, dict[tuple[int, int], float]]:
    """Dense d(rescore)/d(score) and sparse d(rescore)/d(overlap), original order.

    The score Jacobian J satisfies rescore changes = J @ score changes for
    perturbations that preserve the sort order and grouping. Each overlap
    entry (i, t) affects only rescore i, so the overlap Jacobian is returned
    as {(member, top): d(rescore_member)/d(overlap)}.
    """
    s, source = _validated_inputs(scores, overlaps, cfg)
    jac, members, tops, _, o_grads, _ = _jacobians(s[None], source, cfg)
    return jac, _pair_dict(members, tops, o_grads)


def _jacobians(S: np.ndarray, source, cfg: NmsConfig, boxes=None):
    """masked_jacobians of validated score rows, in the slots of _local_terms.

    The score Jacobian of row b is rows b * n:(b + 1) * n of a (B * n, n)
    array. Then the gated members, their tops, o_it and d(rescore_member)/d(o_it)
    in score order, and the masked forward's pre-clip values.
    """
    tops, top_gates, members, member_tops, o_mt, weights, slopes, s_tops, pre_clip = _local_terms(S, source, cfg, boxes)
    n = S.shape[1]
    jac = np.zeros((S.size, n))
    jac[tops, tops % n] = top_gates
    jac[members, members % n] = 1.0
    jac[members, member_tops % n] = -weights
    return jac, members, member_tops, o_mt, -slopes * s_tops, pre_clip


@dataclass(frozen=True)
class GradCheckReport:
    """Outcome of a finite-difference comparison against the analytic Jacobians.

    worst names the worst element as ("score", output, input) or
    ("overlap", member, top) in original indices; it is None when no element
    has an error above 0: every element was skipped, or every checked error
    is exactly 0.
    """

    max_rel_error: float
    worst: tuple[str, int, int] | None
    checked: int
    skipped: int
    tolerance: float
    passed: bool


# How close to a kink (sort tie, clip boundary, grouping threshold) a
# coordinate may sit and still be checked.
_KINK_MARGIN = 1e-3

# Perturbed instances are rescored in blocks of at most this many scores,
# which bounds the scratch memory of a check on a large instance.
_BLOCK_ENTRIES = 1 << 18

# Instances are checked in chunks whose stacked overlaps, instances times the
# square of the widest, hold at most this many entries, or in chunks of one,
# so a check's memory does not grow with the number of instances.
_CHUNK_ENTRIES = 1 << 18


def _rel_errors(fd: np.ndarray, analytic: np.ndarray) -> np.ndarray:
    return np.abs(fd - analytic) / np.maximum(np.maximum(1.0, np.abs(fd)), np.abs(analytic))


def finite_difference_check(
    scores,
    overlaps,
    cfg: NmsConfig,
    eps: float = 1e-6,
    tolerance: float = 1e-4,
) -> GradCheckReport:
    """Verify the analytic Jacobians against central differences.

    Every score coordinate and every suppressed-pair overlap entry is
    perturbed by +-eps. Coordinates where the forward map is not smooth are
    skipped and counted instead of checked: score columns whose perturbation
    could reorder the sort (a score gap under 1e-3), output rows whose
    pre-clip value sits within 1e-3 of the clip boundary, and overlap entries
    within 1e-3 of the grouping threshold. Every perturbed instance is sorted,
    grouped and rescored from scratch by the masked forward that run_nms
    runs, in blocks of at most 2^18 scores; a perturbed overlap pair is a
    patch over the matrix or rectangles given, never a copy of them. eps must
    be finite and positive, and tolerance at least 0.

    This is the batched check that ``diffnms gradcheck`` runs on its trials
    (_check_instances), on a batch of one instance.
    """
    (report,) = _check_instances([(scores, overlaps)], cfg, eps, tolerance)
    return report


def _check_instances(instances, cfg: NmsConfig, eps: float, tolerance: float):
    """finite_difference_check of each (scores, overlaps) instance, in order, as a generator.

    Each instance is validated as it is drawn. Instances are checked a chunk
    at a time (_check_chunk): a chunk is checked as soon as the next instance
    would take its stack past _CHUNK_ENTRIES, so at most one chunk and one
    instance are held at once.
    """
    if not (np.isfinite(eps) and eps > 0.0):
        raise ValueError(f"eps must be finite and positive, got {eps!r}")
    if not tolerance >= 0.0:
        raise ValueError(f"tolerance must be at least 0, got {tolerance!r}")
    chunk, width = [], 0
    for scores, overlaps in instances:
        # The check perturbs overlaps inside [0, 1], so unlike the backward pass
        # it reads every entry of a matrix once to reject one outside that domain.
        s, source = _validated_inputs(scores, overlaps, cfg, in_range=True)
        wider = max(width, s.size)
        if chunk and (len(chunk) + 1) * wider * wider > _CHUNK_ENTRIES:
            yield from _check_chunk(chunk, cfg, eps, tolerance)
            chunk, wider = [], s.size
        chunk.append((s, source))
        width = wider
    if chunk:
        yield from _check_chunk(chunk, cfg, eps, tolerance)


def _check_chunk(chunk, cfg: NmsConfig, eps: float, tolerance: float) -> list[GradCheckReport]:
    """The reports of validated (scores, source) instances, checked together.

    One instance is one row of scores over its own source. Several are rows
    padded with -inf to the widest, w, over a _StackedOverlaps of their
    overlaps, and box m of instance k is slot k * w + m throughout. The
    analytic terms of every instance come from one masked forward, and the
    perturbed rows of every instance from one masked forward per block.
    """
    T = len(chunk)
    sizes = np.array([s.size for s, _ in chunk])
    if T == 1:
        ((s, source),) = chunk
        S, boxes = s[None], None
    else:
        w = max(1, int(sizes.max()))
        boxes = np.where(np.arange(w) < sizes[:, None], np.arange(T * w).reshape(T, w), -1)
        S = np.full((T, w), -np.inf)
        S[boxes >= 0] = np.concatenate([s for s, _ in chunk])
        source = _StackedOverlaps([source for _, source in chunk], sizes, w)
    w = S.shape[1]
    if not w:
        # A lone instance of no boxes: nothing to perturb, nothing to skip.
        return [GradCheckReport(0.0, None, 0, 0, tolerance, passed=True)]
    jac, members, tops, o_mt, analytic, pre_clip = _jacobians(S, source, cfg, boxes)

    # Padding has pre-clip 0, so no padded row is smooth.
    row_smooth = ((np.abs(pre_clip) >= _KINK_MARGIN) & (np.abs(pre_clip - 1.0) >= _KINK_MARGIN)).reshape(-1, w)
    # A score's nearest other score is one of its neighbors in score order.
    # Padding reads NaN, which sorts last, and fmin passes over it.
    padded = np.where(S > -np.inf, S, np.nan)
    ascending = np.argsort(padded, axis=1, kind="stable")
    gaps = np.diff(np.take_along_axis(padded, ascending, axis=1), axis=1, prepend=-np.inf, append=np.inf)
    nearest = np.empty_like(S)
    np.put_along_axis(nearest, ascending, np.fmin(gaps[:, :-1], gaps[:, 1:]), axis=1)
    # The perturbed score must stay inside [0, 1] or validation rejects it.
    cols = np.flatnonzero((S - eps >= 0.0) & (S + eps <= 1.0) & (nearest >= _KINK_MARGIN))

    # Overlap entries in member order; each member has one top.
    by_member = np.argsort(members)
    members, tops, o_mt, analytic = members[by_member], tops[by_member], o_mt[by_member], analytic[by_member]
    gated = np.bincount(members // w, minlength=T)
    kept = (np.abs(o_mt - cfg.nt) >= _KINK_MARGIN) & row_smooth.ravel()[members]
    kept &= (o_mt - eps >= 0.0) & (o_mt + eps <= 1.0)
    members, tops, analytic = members[kept], tops[kept], analytic[kept]

    # The coordinates instance by instance: its score columns, then its
    # overlap pairs in member order. Each is named by its slot (the column or
    # the member), with the pair's top as partner.
    is_pair = np.arange(cols.size + members.size) >= cols.size
    slot = np.concatenate([cols, members])
    seq = np.argsort(slot // w * 2 + is_pair, kind="stable")
    (trial, pos), is_pair = np.divmod(slot[seq], w), is_pair[seq]
    partner = np.concatenate([np.full(cols.size, -1), tops % w])[seq]
    expected = np.concatenate([np.zeros(cols.size), analytic])[seq]

    # Score errors column by column, each over its instance's smooth rows;
    # overlap errors on the member's row. Each block of coordinates, each at
    # +eps and -eps, is rescored by one masked forward.
    per_block = max(1, _BLOCK_ENTRIES // (2 * w))
    errors, at, rows = [np.zeros(0)], [np.zeros(0, int)], [np.zeros(0, int)]
    for start in range(0, trial.size, per_block):
        block = np.arange(start, min(start + per_block, trial.size))
        # The +eps instances first, then the -eps ones; s + (-eps) equals s - eps.
        coord = np.tile(block, 2)
        step = np.repeat([eps, -eps], block.size)
        perturbed = S[trial[coord]]
        score = np.flatnonzero(~is_pair[coord])
        perturbed[score, pos[coord[score]]] += step[score]
        patch = (np.where(is_pair[coord], pos[coord], -1), partner[coord], step)
        R = _masked_sorted(perturbed, source, cfg, patch, None if boxes is None else boxes[trial[coord]])[3]
        checks = np.where(is_pair[block, None], np.arange(w) == pos[block, None], row_smooth[trial[block]])
        # Only checked entries are differenced: a padded entry rescores to -inf.
        diffs = (R[: block.size][checks] - R[block.size :][checks]) / (2.0 * eps)
        c, i = np.nonzero(checks)
        c = block[c]
        want = np.where(is_pair[c], expected[c], jac[trial[c] * w + i, pos[c]])
        errors.append(_rel_errors(diffs, want))
        at.append(c)
        rows.append(i)
    errors, at, rows = np.concatenate(errors), np.concatenate(at), np.concatenate(rows)

    # Each instance's errors are one run of errors; its first maximum is its
    # worst, as in a loop that only replaces on >.
    owner = trial[at]
    checked = np.bincount(owner, minlength=T)
    worst_err = np.zeros(T)
    ran = checked > 0
    worst_err[ran] = np.maximum.reduceat(errors, (np.cumsum(checked) - checked)[ran])
    hits = np.flatnonzero(errors == worst_err[owner])
    firsts = hits[np.diff(owner[hits], prepend=-1) != 0]
    # The worst of each instance: ("score", output, input) or ("overlap", member, top).
    c, pair = at[firsts], is_pair[at[firsts]]
    worst = dict(
        zip(
            owner[firsts].tolist(),
            zip(
                np.where(pair, "overlap", "score").tolist(),
                np.where(pair, pos[c], rows[firsts]).tolist(),
                np.where(pair, partner[c], pos[c]).tolist(),
            ),
        )
    )
    skipped = sizes * sizes + gated - checked
    return [
        GradCheckReport(max_err, worst[k] if max_err > 0.0 else None, done, skip, tolerance, passed=max_err <= tolerance)
        for k, (max_err, done, skip) in enumerate(zip(worst_err.tolist(), checked.tolist(), skipped.tolist()))
    ]
