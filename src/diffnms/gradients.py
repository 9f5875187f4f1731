"""Analytic gradients for the masked rescorer and a finite-difference verifier.

The masked rescorer is piecewise linear in the scores and piecewise smooth in
the overlaps: within a group with top box t, a member i has pre-clip value
c_i = s_i - p(o_it) s_t and the top has c_t = s_t. The clip contributes a
gate that is 1 when the pre-clip value lies inside [0, 1] (boundary included)
and 0 outside. Sorting, grouping, and the group-size cap are discrete
structure: gradients flow through the recorded permutation and grouping, never
through rank or membership changes, and capped-out boxes get zero gradient.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .nms import (
    NmsConfig,
    Pruning,
    group_boxes,
    masked_rescore,
    prune,
    prune_derivative,
    sort_by_score,
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
    the overlap matrix is symmetric, so the mirrored entry is implied.
    """

    score_grad: np.ndarray
    overlap_grad: dict[tuple[int, int], float]


def _validated_inputs(scores, overlaps, cfg: NmsConfig):
    if cfg.pruning is Pruning.HARD:
        raise ValueError("non-differentiable pruning: gradients require a soft pruning kind")
    s = np.asarray(scores, dtype=float)
    o = np.asarray(overlaps, dtype=float)
    if s.ndim != 1 or o.shape != (s.size, s.size):
        raise ValueError(f"shape mismatch: scores {s.shape} versus overlaps {o.shape}")
    return s, o


def _local_terms(s: np.ndarray, o: np.ndarray, cfg: NmsConfig):
    """The recorded sort and grouping, reduced to the local derivatives' inputs.

    In original indices: the group tops and their clip gates, then the
    non-top members whose gate is open, their tops, and p(o_it), p'(o_it)
    and s_t for each of them.
    """
    s_sorted, o_sorted, order = sort_by_score(s, o)
    part = group_boxes(o_sorted, cfg)
    members, tops = part.member_tops()
    o_mt = o_sorted[members, tops]
    weights = prune(o_mt, cfg)
    gated = _gate(s_sorted[members] - weights * s_sorted[tops])
    members, tops, o_mt = members[gated], tops[gated], o_mt[gated]
    group_tops = np.flatnonzero(part.top == np.arange(s.size))
    return (
        order[group_tops],
        _gate(s_sorted[group_tops]),
        order[members],
        order[tops],
        weights[gated],
        prune_derivative(o_mt, cfg),
        s_sorted[tops],
    )


def _pair_dict(members: np.ndarray, tops: np.ndarray, values: np.ndarray) -> dict[tuple[int, int], float]:
    return dict(zip(zip(members.tolist(), tops.tolist()), values.tolist()))


def masked_backward(scores, overlaps, cfg: NmsConfig, upstream) -> NmsGradients:
    """Chain upstream d(loss)/d(rescore) through the masked rescorer.

    For a gated member i with top t the local derivatives are
    dr_i/ds_i = 1, dr_i/ds_t = -p(o_it), and dr_i/do_it = -p'(o_it) s_t;
    the gate zeroes all three when the pre-clip value sits outside [0, 1].
    """
    s, o = _validated_inputs(scores, overlaps, cfg)
    up = np.asarray(upstream, dtype=float)
    if up.shape != s.shape:
        raise ValueError(f"upstream gradient must have shape {s.shape}, got {up.shape}")
    tops, top_gates, members, member_tops, weights, slopes, s_tops = _local_terms(s, o, cfg)
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
    s, o = _validated_inputs(scores, overlaps, cfg)
    tops, top_gates, members, member_tops, weights, slopes, s_tops = _local_terms(s, o, cfg)
    jac = np.zeros((s.size, s.size))
    jac[tops, tops] = top_gates
    jac[members, members] = 1.0
    jac[members, member_tops] = -weights
    return jac, _pair_dict(members, member_tops, -slopes * s_tops)


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


def _rel_error(fd: float, analytic: float) -> float:
    return abs(fd - analytic) / max(1.0, abs(fd), abs(analytic))


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
    within 1e-3 of the grouping threshold.
    """
    s, o = _validated_inputs(scores, overlaps, cfg)
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
