"""NMS rescoring: the greedy classical/soft loop and closed-form matrix variants.

Every rescorer maps raw scores plus pairwise overlaps to per-box rescores; a
box survives when its rescore clears the validity threshold. The overlaps come
from an (N, N) matrix or a :class:`~diffnms.geometry.RectOverlaps`, which
evaluates only the entries a variant reads.
The matrix variants express suppression as a strictly-lower-triangular system
over score-sorted boxes. The masked variant additionally partitions boxes into
overlap groups and lets only each group's top box suppress its members, which
makes the system solvable in closed form and (with a soft pruning function)
differentiable. Its forward is written once, over rows of scores: run_nms and
the backward pass in :mod:`diffnms.gradients` run it on one row, and the
finite-difference check on a block of perturbed rows over one shared source
of overlaps.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from numbers import Integral

import numpy as np

from .geometry import RectOverlaps

__all__ = [
    "GroupPartition",
    "NmsConfig",
    "NmsVariant",
    "Pruning",
    "RescoreResult",
    "ScoreRangeError",
    "group_boxes",
    "masked_rescore",
    "prune",
    "prune_derivative",
    "run_nms",
    "sort_by_score",
]


class Pruning(str, Enum):
    """Overlap-to-suppression-weight mapping applied to the overlap matrix."""

    HARD = "hard"
    LINEAR = "linear"
    EXPONENTIAL = "exp"
    SIGMOIDAL = "sigmoid"


_DEFAULT_TAU = {Pruning.EXPONENTIAL: 0.5, Pruning.SIGMOIDAL: 0.1}


@dataclass(frozen=True)
class NmsConfig:
    """Suppression parameters shared by every NMS variant.

    nt is the overlap threshold used for grouping and hard pruning,
    valid_threshold is the rescore level a box must reach to survive, and
    max_group_size, an integer, caps how many boxes one group may hold (None
    means unbounded). tau is the finite, positive temperature of the
    exponential and sigmoidal pruning kinds; when left unset it defaults to
    0.5 and 0.1 respectively. pruning takes a Pruning or its value, such as "exp".
    """

    nt: float = 0.4
    valid_threshold: float = 0.3
    max_group_size: int | None = 100
    pruning: Pruning = Pruning.HARD
    tau: float | None = None

    def __post_init__(self) -> None:
        if not 0.0 < self.nt < 1.0:
            raise ValueError(f"nt must lie strictly between 0 and 1, got {self.nt}")
        if not 0.0 <= self.valid_threshold <= 1.0:
            raise ValueError(f"valid_threshold must lie in [0, 1], got {self.valid_threshold}")
        cap = self.max_group_size
        if cap is not None and (isinstance(cap, bool) or not isinstance(cap, Integral) or cap < 1):
            raise ValueError(f"max_group_size must be an integer of at least 1 or None, got {cap!r}")
        object.__setattr__(self, "pruning", Pruning(self.pruning))
        if self.pruning in _DEFAULT_TAU:
            if self.tau is None:
                object.__setattr__(self, "tau", _DEFAULT_TAU[self.pruning])
            if not 0.0 < self.tau < math.inf:
                raise ValueError(f"tau must be finite and positive for {self.pruning.value} pruning, got {self.tau}")


class NmsVariant(str, Enum):
    CLASSICAL = "classical"
    SOFT = "soft"
    MASKED = "masked"
    FULL_INVERSE = "full-inverse"
    GROUPED_INVERSE = "grouped-inverse"


@dataclass(frozen=True, eq=False)
class RescoreResult:
    """Rescores in original box order, the surviving indices, and pre-clip values.

    kept holds the (ascending) original indices whose rescore reaches the
    validity threshold. pre_clip carries the rescore before any clamping
    (it equals rescores for the greedy variants) and is what gradient gating
    inspects.
    """

    rescores: np.ndarray
    kept: np.ndarray
    pre_clip: np.ndarray


def _sigmoid(x: np.ndarray) -> np.ndarray:
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def prune(overlap, cfg: NmsConfig):
    """Suppression weight for an overlap value, elementwise on arrays.

    Hard pruning is the step function 1[o > nt]; linear passes the overlap
    through; exponential is 1 - exp(-o^2 / tau); sigmoidal is the logistic
    function of (o - nt) / tau.
    """
    res = _prune(np.asarray(overlap, dtype=float), cfg)
    return float(res) if np.ndim(overlap) == 0 else res


def _prune(arr: np.ndarray, cfg: NmsConfig) -> np.ndarray:
    """prune of a float array, without the conversions."""
    kind = cfg.pruning
    if kind is Pruning.HARD:
        return (arr > cfg.nt).astype(float)
    if kind is Pruning.LINEAR:
        return arr + 0.0
    if kind is Pruning.EXPONENTIAL:
        return 1.0 - np.exp(-np.square(arr) / cfg.tau)
    return _sigmoid((arr - cfg.nt) / cfg.tau)


def prune_derivative(overlap, cfg: NmsConfig):
    """Derivative of :func:`prune` with respect to the overlap.

    Raises for hard pruning, which has no derivative.
    """
    if cfg.pruning is Pruning.HARD:
        raise ValueError("non-differentiable pruning: the hard threshold has no derivative")
    arr = np.asarray(overlap, dtype=float)
    kind = cfg.pruning
    if kind is Pruning.LINEAR:
        res = np.ones_like(arr)
    elif kind is Pruning.EXPONENTIAL:
        res = (2.0 * arr / cfg.tau) * np.exp(-np.square(arr) / cfg.tau)
    else:
        sig = _sigmoid((arr - cfg.nt) / cfg.tau)
        res = sig * (1.0 - sig) / cfg.tau
    return float(res) if np.ndim(overlap) == 0 else res


class ScoreRangeError(ValueError):
    """A score outside a rescorer's domain; index is its position in the scores array."""

    def __init__(self, reason: str, index: int) -> None:
        super().__init__(f"{reason} (score index {index})")
        self.reason = reason
        self.index = index


def _score_error(s: np.ndarray, bad: np.ndarray, reason: str) -> ScoreRangeError:
    index = int(np.argmax(bad))
    return ScoreRangeError(f"{reason}, got {float(s[index])!r}", index)


def _validate_scores(scores, upper: float | None = None) -> np.ndarray:
    # Adding 0.0 maps -0.0 to 0.0 and leaves every other float bit-identical.
    s = np.asarray(scores, dtype=float) + 0.0
    if s.ndim != 1:
        raise ValueError(f"scores must be a 1-d array, got shape {s.shape}")
    if not np.all(np.isfinite(s)):
        raise _score_error(s, ~np.isfinite(s), "scores must be finite")
    if np.any(s < 0.0):
        raise _score_error(s, s < 0.0, "scores must be non-negative")
    if upper is not None and np.any(s > upper):
        raise _score_error(s, s > upper, f"scores must lie in [0, {upper:g}] for this rescorer")
    return s


_OVERLAP_RANGE = "overlap values must be finite and lie in [0, 1]"


class _MatrixOverlaps:
    """An overlap matrix read like a RectOverlaps: pairs(i, j) gathers o[i, j]."""

    def __init__(self, matrix: np.ndarray) -> None:
        self._matrix = matrix

    def pairs(self, i, j) -> np.ndarray:
        return self._matrix[i, j]

    def _clusters(self) -> list[np.ndarray]:
        """Every box as one cluster: a matrix is not searched for zero-overlap clusters."""
        return [np.arange(self._matrix.shape[0])]


# Up to this many boxes, evaluating every rectangle pair at once costs less
# than a few overlap rows or columns, since each pays numpy's per-call overhead.
_WHOLE_MATRIX_BOXES = 64


def _overlap_source(overlaps, n: int, in_range: bool = True) -> RectOverlaps | _MatrixOverlaps:
    """The validated overlaps of n boxes, read through pairs(i, j) in original indices.

    A matrix's shape is checked, and with in_range every entry too.
    """
    if not isinstance(overlaps, RectOverlaps):
        try:
            matrix = np.asarray(overlaps, dtype=float)
        except (TypeError, ValueError):
            raise ValueError(f"expected the ({n}, {n}) overlap matrix, got {type(overlaps).__name__}") from None
        if matrix.shape != (n, n):
            raise ValueError(f"overlap matrix must have shape ({n}, {n}), got {matrix.shape}")
        # A NaN makes both comparisons false, and an infinity fails one of them.
        if in_range and matrix.size and not (matrix.min() >= 0.0 and matrix.max() <= 1.0):
            raise ValueError(_OVERLAP_RANGE)
        return _MatrixOverlaps(matrix)
    if len(overlaps) != n:
        raise ValueError(f"overlaps must cover {n} boxes, got {len(overlaps)}")
    if not overlaps.finite:
        raise ValueError(_OVERLAP_RANGE)
    if n <= _WHOLE_MATRIX_BOXES:
        boxes = np.arange(n)
        return _MatrixOverlaps(overlaps.pairs(boxes[:, None], boxes))
    return overlaps


def sort_by_score(scores, overlaps) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Stable descending score sort with the overlap matrix permuted to match.

    Ties keep the lower original index first. Returns (sorted scores, sorted
    overlaps, permutation) where permutation[k] is the original index of the
    box at sorted rank k.
    """
    s = np.asarray(scores, dtype=float)
    o = np.asarray(overlaps, dtype=float)
    order = np.argsort(-s, kind="stable")
    return s[order], o[np.ix_(order, order)], order


@dataclass(frozen=True, eq=False)
class GroupPartition:
    """Group membership over score-sorted indices.

    top[k] is the sorted index of box k's group top (a top points at itself),
    or -1 when the group-size cap dropped box k. Capped-out boxes take no
    further part in rescoring and end up with rescore 0.
    """

    top: np.ndarray

    @property
    def groups(self) -> tuple[tuple[int, ...], ...]:
        """Each group's sorted indices in ascending order (top first), groups ordered by top."""
        return tuple(tuple(members.tolist()) for members in _split_groups(self.top))

    @property
    def capped_out(self) -> tuple[int, ...]:
        """Sorted indices dropped by the group-size cap, ascending."""
        return tuple(np.flatnonzero(self.top < 0).tolist())


def _split_groups(top: np.ndarray) -> list[np.ndarray]:
    """Members of each group, ascending, groups ordered by top; one stable sort of top."""
    by_group = np.argsort(top, kind="stable")
    by_group = by_group[top[by_group] >= 0]
    if by_group.size == 0:
        return []
    return np.split(by_group, np.flatnonzero(np.diff(top[by_group])) + 1)


def _group_tops(source, order: np.ndarray, cfg: NmsConfig) -> np.ndarray:
    """The GroupPartition.top array of the boxes in score order; one overlap column per group."""
    top = np.full(order.size, -1)
    remaining = np.arange(order.size)
    while remaining.size:
        high = source.pairs(order[remaining], order[remaining[0]]) > cfg.nt
        # A degenerate box has zero self-overlap; it still anchors its group.
        high[0] = True
        top[remaining[high][: cfg.max_group_size]] = remaining[0]
        remaining = remaining[~high]
    top.flags.writeable = False
    return top


def group_boxes(sorted_overlaps, cfg: NmsConfig) -> GroupPartition:
    """Partition score-sorted boxes into overlap groups.

    Each round the top remaining box absorbs every remaining box whose overlap
    with it exceeds nt; absorbed boxes past the first max_group_size (in
    sorted order) are capped out. The rest carry over to the next round.
    Grouping always uses the hard nt comparison regardless of the pruning kind.
    """
    n = len(sorted_overlaps)
    return GroupPartition(_group_tops(_overlap_source(sorted_overlaps, n, in_range=False), np.arange(n), cfg))


def _group_rows(source, order: np.ndarray, cfg: NmsConfig, patch) -> np.ndarray:
    """_group_tops of every row of order at once: each round, one group per row.

    patch is None or (ki, kt, delta): the sorted indices of each row's patched
    pair (-1 for none) and what is added to both of its overlaps.
    """
    B, n = order.shape
    rows = np.arange(B)
    cap = n if cfg.max_group_size is None else cfg.max_group_size
    top = np.full((B, n), -1)
    free = np.ones((B, n), dtype=bool)
    while free.any():
        lead = free.argmax(axis=1)
        high = source.pairs(order, order[rows, lead][:, None])
        if patch is not None:
            # A round led by one box of the patched pair reads the other's overlap.
            ki, kt, delta = patch
            for k, other in ((ki, kt), (kt, ki)):
                hit = np.flatnonzero(lead == other)
                high[hit, k[hit]] += delta[hit]
        high = free & (high > cfg.nt)
        # A degenerate box has zero self-overlap; it still anchors its group.
        high[rows, lead] = free[rows, lead]
        free &= ~high
        # The cumsum is only needed in a round where some row's group outgrows the cap.
        if cap < n and high.sum(axis=1).max() > cap:
            high &= np.cumsum(high, axis=1) <= cap
        np.copyto(top, lead[:, None], where=high)
    return top


def _clip_clamp(pre_clip: np.ndarray, s: np.ndarray) -> np.ndarray:
    """Pre-clip values clipped to [0, 1], then clamped to each box's own score."""
    return np.minimum(np.clip(pre_clip, 0.0, 1.0), s)


def _masked_sorted(S: np.ndarray, source, cfg: NmsConfig, patch=None):
    """The masked forward of validated score rows S, (B, n): (order, top, pre_clip, rescores).

    Each output has a row per row of S: the stable descending score sort, the
    GroupPartition.top array, and the pre-clip values and rescores in
    original order. Overlaps are read as source.pairs(order[b, i], order[b, j]).
    A single unpatched row is grouped by _group_tops, several by _group_rows.
    patch = (i, t, delta), length-B arrays, adds delta[b] to row b's reads of
    o[i[b], t[b]] and o[t[b], i[b]]; a row with i[b] = -1 is unpatched.
    """
    B, n = S.shape
    order = np.argsort(-S, axis=1, kind="stable")
    # Flat indices into (B, n) arrays, where row b starts at row_start[b]; at
    # lists every row's boxes in score order.
    row_start = np.arange(B)[:, None] * n
    at = (order + row_start).ravel()
    s_sorted = S.ravel()[at]
    if patch is not None:
        i, t, delta = patch
        ki, kt = (np.where(i >= 0, np.argmax(order == box[:, None], axis=1), -1) for box in (i, t))
        patch = (ki, kt, delta)
    if patch is None and B == 1:
        top = _group_tops(source, order[0], cfg)[None]
    else:
        top = _group_rows(source, order, cfg, patch)
    # The masked prune matrix A has only group-top columns, so (I + A)^-1 = I - A
    # and each member's rescore is one gather over its top.
    members = np.flatnonzero((top >= 0) & (top != np.arange(n)))
    tops = (top + row_start).ravel()[members]
    o_mt = source.pairs(order.ravel()[members], order.ravel()[tops])
    if patch is not None:
        # A box of the patched pair reads the patched overlap when the other is its top.
        for k, other in ((ki, kt), (kt, ki)):
            hit = np.flatnonzero((other >= 0) & (top[np.arange(B), k] == other))
            o_mt[np.searchsorted(members, row_start[hit, 0] + k[hit])] += delta[hit]
    c_sorted = np.where(top.ravel() >= 0, s_sorted, 0.0)
    c_sorted[members] = s_sorted[members] - prune(o_mt, cfg) * s_sorted[tops]
    pre_clip = np.empty(B * n)
    pre_clip[at] = c_sorted
    pre_clip = pre_clip.reshape(B, n)
    return order, top, pre_clip, _clip_clamp(pre_clip, S)


def masked_rescore(scores, overlaps, cfg: NmsConfig) -> RescoreResult:
    """Closed-form grouped NMS rescoring: run_nms with the masked variant.

    After the stable score sort and grouping, each group's top box keeps its
    score and every other member i is rescored as
    clip(s_i - p(o_i,top) * s_top), equivalent to applying the group-top mask
    to the prune matrix and inverting the resulting unit triangular system.
    Boxes dropped by the group-size cap get rescore 0.
    """
    return run_nms(scores, overlaps, cfg, NmsVariant.MASKED)


def _lanes(clusters: list[np.ndarray]) -> np.ndarray:
    """Clusters packed into lanes, as a (lanes, width) array of box indices padded with -1.

    Clusters go next-fit, largest first, into lanes of width boxes, the size
    of the largest cluster, each cluster's boxes in its own ascending order,
    so ties within a cluster still go to the lower index. Any two consecutive
    lanes hold more than width boxes together, so n boxes take fewer than
    2 n + width slots.
    """
    if len(clusters) == 1:
        return clusters[0][None]
    ranked = sorted(clusters, key=len, reverse=True)
    width = ranked[0].size
    # starts[k] is the flat slot where ranked[k] begins; end is the next free slot.
    starts, end = [], 0
    for members in ranked:
        if end % width + members.size > width:
            end += width - end % width
        starts.append(end)
        end += members.size
    slots = np.full(-(-end // width) * width, -1)
    for members, start in zip(ranked, starts):
        slots[start : start + members.size] = members
    return slots.reshape(-1, width)


def _greedy_nms(s: np.ndarray, source, cfg: NmsConfig) -> RescoreResult:
    """Greedy NMS over validated scores: pick the top box, decay the rest, repeat.

    Every round the highest-rescored remaining box is finalized and each other
    remaining box i has its rescore multiplied by (1 - p(o_top,i)). Hard
    pruning zeroes overlapping boxes outright (classical NMS); soft pruning
    kinds decay them smoothly. Ties go to the lower index, and the loop stops
    once every remaining rescore is 0, since further rounds would only
    multiply zeros.

    Zero-overlap clusters: when p(0) = 0 (hard, linear and exponential
    pruning), a round multiplies every box that does not overlap its top by
    exactly 1.0, so boxes in clusters with no overlap between them
    (``RectOverlaps._clusters``) cannot affect each other, and the loop over
    any union of clusters picks each cluster's boxes in the order, and with
    the rescores, of the loop over all boxes. The clusters are packed into
    lanes (``_lanes``) that run this loop in lockstep: each round picks one
    top per lane and reads one overlap per remaining box, against its own
    lane's top, so rounds scale with the largest cluster, not with the scene.
    Sigmoid pruning (p(0) > 0) and a matrix source run as one lane, one
    overlap row per round.
    """
    n = s.size
    clusters = source._clusters() if prune(0.0, cfg) == 0.0 else [np.arange(n)]
    # slots[k] is the box in slot k of the padded lane layout, or -1.
    slots = _lanes(clusters)
    lanes, width = slots.shape
    starts = np.arange(lanes) * width
    slots = slots.ravel()
    filled = slots >= 0
    if lanes > 1:
        # Read overlaps by slot; a single lane's slots are the boxes themselves.
        source = source._take(slots)
    r = np.where(filled, s[slots], 0.0)
    # live is r on the boxes still to be picked and -inf elsewhere. A box
    # whose rescore is 0 stays 0 and is never a top before its lane stops, so
    # it leaves the loop at once; a lane stops when no live box is left.
    live = np.where(r > 0.0, r, -np.inf)
    for _ in range(width):
        tops = live.reshape(-1, width).argmax(axis=1) + starts
        live[tops] = -np.inf
        rest = (live > 0.0).nonzero()[0]
        if not rest.size:
            break
        # A single lane reads one overlap row, as a scalar top, without a gather.
        top = tops[0] if tops.size == 1 else tops[rest // width]
        decayed = r[rest] * (1.0 - _prune(source.pairs(top, rest), cfg))
        r[rest] = decayed
        live[rest] = decayed
    out = np.zeros(n)
    out[slots[filled]] = r[filled]
    return RescoreResult(out, np.flatnonzero(out >= cfg.valid_threshold), out.copy())


# The solve reads prune rows in blocks holding at most this many entries, so
# it never holds an n x n array.
_SOLVE_BLOCK_ENTRIES = 1 << 17


def _solve_pruned(source, boxes: np.ndarray, s: np.ndarray, cfg: NmsConfig) -> np.ndarray:
    """Pre-clip values of boxes, in score order: (I + P)^-1 s over their prune matrix P.

    Forward substitution reads only the strictly-lower triangle of P, a
    bounded block of rows at a time. Each x[k] is s[boxes[k]] minus one dot
    product of P[k, :k] with the whole solved prefix x[:k], so the result does
    not depend on where the row blocks end.
    """
    b = s[boxes]
    x = np.zeros(b.size)
    step = max(1, _SOLVE_BLOCK_ENTRIES // max(1, b.size))
    for start in range(0, b.size, step):
        stop = min(start + step, b.size)
        rows = prune(source.pairs(boxes[start:stop, None], boxes[: stop - 1]), cfg)
        for k in range(start, stop):
            x[k] = b[k] - np.dot(rows[k - start, :k], x[:k])
    return x


def _check_variant(variant: NmsVariant, pruning: Pruning) -> None:
    """Raise ValueError when the greedy variant cannot use the pruning kind."""
    if variant is NmsVariant.CLASSICAL and pruning is not Pruning.HARD:
        raise ValueError("classical NMS requires hard pruning")
    if variant is NmsVariant.SOFT and pruning is Pruning.HARD:
        raise ValueError("soft NMS requires a soft pruning kind (linear, exp, or sigmoid)")


def run_nms(scores, overlaps, cfg: NmsConfig, variant: NmsVariant) -> RescoreResult:
    """Run one NMS variant end to end: sort, rescore, restore order, threshold.

    The classical variant requires hard pruning and the soft variant requires
    a soft pruning kind; mixing them is a configuration error. The closed-form
    variants differ only in their pre-clip values over the score-sorted boxes:
    masked gathers each member's group top, full-inverse solves the whole
    unit lower-triangular system, and grouped-inverse solves one system per
    group. Capped-out boxes get pre-clip 0. Every variant's rescores are its
    pre-clip values clipped to [0, 1] and then clamped to the box's own
    score: a solve overshoots that score when an earlier box went below zero,
    and suppression may only lower a score. Scores must be finite and
    non-negative, and at most 1 for the closed-form variants; a score of -0.0
    is read as 0.0.

    overlaps is an (N, N) matrix or a RectOverlaps over the same N boxes, and
    each variant reads only the overlaps it uses, by original index through
    the score order: masked and grouped-inverse one column per group top,
    then the member-top pairs or each group's strictly-lower triangle;
    full-inverse the strictly-lower triangle of every box in score order;
    classical and soft, each round, every remaining box's overlap with its
    round's top. The inverse variants read their triangle a bounded block of
    rows at a time, so on a RectOverlaps no variant holds an (N, N) array.

    Under hard, linear and exponential pruning, p(0) = 0, and classical and
    soft run the zero-overlap clusters of a RectOverlaps of more than
    _WHOLE_MATRIX_BOXES boxes in lockstep, one top per cluster and round
    (see _greedy_nms); touching edges count as zero overlap. The bytes are
    those of the one global loop. Sigmoid pruning and a matrix run as one
    cluster, one overlap row per round.
    """
    variant = NmsVariant(variant)
    _check_variant(variant, cfg.pruning)
    greedy = variant in (NmsVariant.CLASSICAL, NmsVariant.SOFT)
    s = _validate_scores(scores, upper=None if greedy else 1.0)
    source = _overlap_source(overlaps, s.size)
    if greedy:
        return _greedy_nms(s, source, cfg)
    if variant is NmsVariant.MASKED:
        pre_clip, rescores = (row[0] for row in _masked_sorted(s[None], source, cfg)[2:])
    else:
        pre_clip = np.zeros(s.size)
        order = np.argsort(-s, kind="stable")
        if variant is NmsVariant.FULL_INVERSE:
            systems = [order]
        else:
            systems = [order[idx] for idx in _split_groups(_group_tops(source, order, cfg))]
        # Each system, its boxes in score order, is one unit lower-triangular solve.
        for boxes in systems:
            pre_clip[boxes] = _solve_pruned(source, boxes, s, cfg)
        rescores = _clip_clamp(pre_clip, s)
    return RescoreResult(rescores, np.flatnonzero(rescores >= cfg.valid_threshold), pre_clip)
