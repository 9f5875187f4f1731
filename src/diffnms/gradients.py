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
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .nms import (
    NmsConfig,
    Pruning,
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


def _local_terms(s: np.ndarray, source, cfg: NmsConfig):
    """The recorded sort and grouping, reduced to the local derivatives' inputs.

    In original indices: the group tops and their clip gates, then the
    non-top members whose gate is open, their tops, and o_it, p(o_it),
    p'(o_it) and s_t for each of them, and last every box's pre-clip value.
    The sort, grouping, overlaps and pre-clip values are those of the masked
    forward that run_nms runs, which reads each o_it once.
    """
    (order,), (top,), (pre_clip,), _, o_mt = _masked_sorted(s[None], source, cfg)
    members = np.flatnonzero((top >= 0) & (top != np.arange(s.size)))
    members, tops = order[members], order[top[members]]
    gated = _gate(pre_clip[members])
    members, tops, o_mt = members[gated], tops[gated], o_mt[gated]
    group_tops = order[np.flatnonzero(top == np.arange(s.size))]
    weights, slopes = prune(o_mt, cfg), prune_derivative(o_mt, cfg)
    return group_tops, _gate(pre_clip[group_tops]), members, tops, o_mt, weights, slopes, s[tops], pre_clip


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
    tops, top_gates, members, member_tops, _, weights, slopes, s_tops, _ = _local_terms(s, source, cfg)
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
    jac, members, tops, _, o_grads, _ = _jacobians(*_validated_inputs(scores, overlaps, cfg), cfg)
    return jac, _pair_dict(members, tops, o_grads)


def _jacobians(s: np.ndarray, source, cfg: NmsConfig):
    """masked_jacobians of validated inputs: the score Jacobian, the gated members, their tops,
    o_it and d(rescore_member)/d(o_it) in score order, and the masked forward's pre-clip values."""
    tops, top_gates, members, member_tops, o_mt, weights, slopes, s_tops, pre_clip = _local_terms(s, source, cfg)
    jac = np.zeros((s.size, s.size))
    jac[tops, tops] = top_gates
    jac[members, members] = 1.0
    jac[members, member_tops] = -weights
    return jac, members, member_tops, o_mt, -slopes * s_tops, pre_clip


@dataclass(frozen=True)
class GradCheckReport:
    """Outcome of a finite-difference comparison against the analytic Jacobians.

    worst names the worst element as ("score", output, input) or
    ("overlap", member, top) in original indices; it is None when every
    element was skipped.
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


def _central_differences(s, source, cfg: NmsConfig, eps: float, cols, members, tops) -> np.ndarray:
    """One row of rescore central differences per perturbed coordinate.

    Rows come first for score columns cols, then for the overlap pairs
    (members, tops), each perturbed on both sides of the diagonal as a patch
    over the one shared source. A block of coordinates, each at +eps and
    -eps, is rescored by one masked forward.
    """
    n = s.size
    count = cols.size + members.size
    per_block = max(1, _BLOCK_ENTRIES // max(1, 2 * n))
    diffs = np.empty((count, n))
    for start in range(0, count, per_block):
        stop = min(start + per_block, count)
        # The +eps instances first, then the -eps ones; s + (-eps) equals s - eps.
        coord = np.tile(np.arange(start, stop), 2)
        step = np.repeat([eps, -eps], stop - start)
        S = np.repeat(s[None], coord.size, axis=0)
        score = np.flatnonzero(coord < cols.size)
        S[score, cols[coord[score]]] += step[score]
        i, t = np.full(coord.size, -1), np.full(coord.size, -1)
        pair = np.flatnonzero(coord >= cols.size)
        i[pair], t[pair] = members[coord[pair] - cols.size], tops[coord[pair] - cols.size]
        R = _masked_sorted(S, source, cfg, (i, t, step))[3]
        diffs[start:stop] = (R[: stop - start] - R[stop - start :]) / (2.0 * eps)
    return diffs


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
    """
    if not (np.isfinite(eps) and eps > 0.0):
        raise ValueError(f"eps must be finite and positive, got {eps!r}")
    if not tolerance >= 0.0:
        raise ValueError(f"tolerance must be at least 0, got {tolerance!r}")
    # The check perturbs overlaps inside [0, 1], so unlike the backward pass it
    # reads every entry of a matrix once to reject one outside that domain.
    s, source = _validated_inputs(scores, overlaps, cfg, in_range=True)
    n = s.size
    jac, members, tops, o_mt, analytic, pre_clip = _jacobians(s, source, cfg)

    row_smooth = (np.abs(pre_clip) >= _KINK_MARGIN) & (np.abs(pre_clip - 1.0) >= _KINK_MARGIN)
    rows = np.flatnonzero(row_smooth)
    # A score's nearest other score is one of its neighbors in score order.
    ascending = np.argsort(s, kind="stable")
    gaps = np.diff(s[ascending], prepend=-np.inf, append=np.inf)
    nearest = np.empty(n)
    nearest[ascending] = np.minimum(gaps[:-1], gaps[1:])
    # The perturbed score must stay inside [0, 1] or validation rejects it.
    cols = np.flatnonzero((s - eps >= 0.0) & (s + eps <= 1.0) & (nearest >= _KINK_MARGIN))

    # Overlap entries in member order; each member has one top.
    by_member = np.argsort(members)
    members, tops, o_mt, analytic = members[by_member], tops[by_member], o_mt[by_member], analytic[by_member]
    kept = (np.abs(o_mt - cfg.nt) >= _KINK_MARGIN) & row_smooth[members] & (o_mt - eps >= 0.0) & (o_mt + eps <= 1.0)
    members, tops, analytic = members[kept], tops[kept], analytic[kept]

    diffs = _central_differences(s, source, cfg, eps, cols, members, tops)
    # Score errors column by column, then overlap errors in member order; the
    # first maximum is the worst, as in a loop that only replaces on >.
    score_err = _rel_errors(diffs[: cols.size][:, rows], jac[np.ix_(rows, cols)].T).ravel()
    overlap_err = _rel_errors(diffs[cols.size :][np.arange(members.size), members], analytic)
    errors = np.concatenate([score_err, overlap_err])
    max_err = 0.0
    worst: tuple[str, int, int] | None = None
    if errors.size and errors.max() > 0.0:
        k = int(np.argmax(errors))
        max_err = float(errors[k])
        if k < score_err.size:
            worst = ("score", int(rows[k % rows.size]), int(cols[k // rows.size]))
        else:
            k -= score_err.size
            worst = ("overlap", int(members[k]), int(tops[k]))

    checked = errors.size
    skipped = n * n + by_member.size - checked
    return GradCheckReport(max_err, worst, checked, skipped, tolerance, passed=max_err <= tolerance)
