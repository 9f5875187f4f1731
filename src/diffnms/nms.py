"""NMS rescoring: the greedy classical/soft loop and closed-form matrix variants.

Every rescorer maps raw scores plus pairwise overlaps to per-box rescores; a
box survives when its rescore clears the validity threshold. The overlaps come
from an (N, N) matrix or a :class:`~diffnms.geometry.RectOverlaps`, which
evaluates only the entries a variant reads.
The matrix variants express suppression as a strictly-lower-triangular system
over score-sorted boxes. The masked variant additionally partitions boxes into
overlap groups and lets only each group's top box suppress its members, which
makes the system solvable in closed form and (with a soft pruning function)
differentiable; see :mod:`diffnms.gradients` for the backward pass.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .geometry import RectOverlaps

__all__ = [
    "GroupPartition",
    "NmsConfig",
    "NmsVariant",
    "Pruning",
    "RescoreResult",
    "ScoreRangeError",
    "classical_soft_nms",
    "group_boxes",
    "masked_rescore",
    "prune",
    "prune_derivative",
    "prune_matrix",
    "run_nms",
    "solve_unit_lower",
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
    max_group_size caps how many boxes one group may hold (None means
    unbounded). tau is the temperature of the exponential and sigmoidal
    pruning kinds; when left unset it defaults to 0.5 and 0.1 respectively.
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
        if self.max_group_size is not None and self.max_group_size < 1:
            raise ValueError(f"max_group_size must be at least 1 or None, got {self.max_group_size}")
        if self.pruning in _DEFAULT_TAU:
            if self.tau is None:
                object.__setattr__(self, "tau", _DEFAULT_TAU[self.pruning])
            if not self.tau > 0.0:
                raise ValueError(f"tau must be positive for {self.pruning.value} pruning, got {self.tau}")


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
    arr = np.asarray(overlap, dtype=float)
    kind = cfg.pruning
    if kind is Pruning.HARD:
        res = (arr > cfg.nt).astype(float)
    elif kind is Pruning.LINEAR:
        res = arr + 0.0
    elif kind is Pruning.EXPONENTIAL:
        res = 1.0 - np.exp(-np.square(arr) / cfg.tau)
    else:
        res = _sigmoid((arr - cfg.nt) / cfg.tau)
    return float(res) if np.ndim(overlap) == 0 else res


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


def _validate_overlaps(overlaps, n: int) -> np.ndarray:
    o = np.asarray(overlaps, dtype=float)
    if o.shape != (n, n):
        raise ValueError(f"overlap matrix must have shape ({n}, {n}), got {o.shape}")
    # A NaN makes both comparisons false, and an infinity fails one of them.
    if o.size and not (o.min() >= 0.0 and o.max() <= 1.0):
        raise ValueError(_OVERLAP_RANGE)
    return o


class _MatrixOverlaps:
    """An overlap matrix read like a RectOverlaps: pairs(i, j) gathers o[order[i], order[j]]."""

    def __init__(self, matrix: np.ndarray, order: np.ndarray | None = None) -> None:
        self._matrix = matrix
        self._order = order

    def pairs(self, i, j) -> np.ndarray:
        if self._order is None:
            return self._matrix[i, j]
        return self._matrix[self._order[i], self._order[j]]

    def take(self, order: np.ndarray) -> "_MatrixOverlaps":
        return _MatrixOverlaps(self._matrix, order if self._order is None else self._order[order])


# Up to this many boxes, evaluating every rectangle pair at once costs less
# than a few overlap rows or columns, since each pays numpy's per-call overhead.
_WHOLE_MATRIX_BOXES = 64


def _overlap_source(overlaps, n: int) -> RectOverlaps | _MatrixOverlaps:
    """The validated overlaps of n boxes, read through pairs(i, j) in original indices."""
    if not isinstance(overlaps, RectOverlaps):
        return _MatrixOverlaps(_validate_overlaps(overlaps, n))
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


def prune_matrix(sorted_overlaps, cfg: NmsConfig) -> np.ndarray:
    """Strictly-lower-triangular suppression weights over sorted overlaps.

    Entries on and above the diagonal are zero, so only higher-scored boxes
    ever suppress lower-scored ones.
    """
    o = np.asarray(sorted_overlaps, dtype=float)
    return np.tril(np.asarray(prune(o, cfg), dtype=float), k=-1)


@dataclass(frozen=True, eq=False)
class GroupPartition:
    """Group membership over score-sorted indices.

    top[k] is the sorted index of box k's group top (a top points at itself),
    or -1 when the group-size cap dropped box k. Capped-out boxes take no
    further part in rescoring and end up with rescore 0. Two partitions are
    equal, and hash alike, when their top arrays are equal.
    """

    top: np.ndarray

    def __eq__(self, other: object) -> bool:
        return isinstance(other, GroupPartition) and np.array_equal(self.top, other.top)

    def __hash__(self) -> int:
        return hash(np.asarray(self.top, dtype=np.int64).tobytes())

    @property
    def groups(self) -> tuple[tuple[int, ...], ...]:
        """Each group's sorted indices in ascending order (top first), groups ordered by top."""
        return tuple(tuple(members.tolist()) for members in _split_groups(self.top))

    @property
    def capped_out(self) -> tuple[int, ...]:
        """Sorted indices dropped by the group-size cap, ascending."""
        return tuple(np.flatnonzero(self.top < 0).tolist())

    def member_tops(self) -> tuple[np.ndarray, np.ndarray]:
        """Sorted indices of every box a group top suppresses, ascending, and each one's top."""
        members = np.flatnonzero((self.top >= 0) & (self.top != np.arange(self.top.size)))
        return members, self.top[members]


def _split_groups(top: np.ndarray) -> list[np.ndarray]:
    """Members of each group, ascending, groups ordered by top; one stable sort of top."""
    by_group = np.argsort(top, kind="stable")
    by_group = by_group[top[by_group] >= 0]
    if by_group.size == 0:
        return []
    return np.split(by_group, np.flatnonzero(np.diff(top[by_group])) + 1)


def _group_tops(sorted_source, n: int, cfg: NmsConfig) -> np.ndarray:
    """The GroupPartition.top array of n score-sorted boxes; one overlap column per group."""
    top = np.full(n, -1)
    remaining = np.arange(n)
    while remaining.size:
        high = sorted_source.pairs(remaining, remaining[0]) > cfg.nt
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
    o = np.asarray(sorted_overlaps, dtype=float)
    return GroupPartition(_group_tops(_MatrixOverlaps(o), o.shape[0], cfg))


def masked_rescore(scores, overlaps, cfg: NmsConfig) -> RescoreResult:
    """Closed-form grouped NMS rescoring: run_nms with the masked variant.

    After the stable score sort and grouping, each group's top box keeps its
    score and every other member i is rescored as
    clip(s_i - p(o_i,top) * s_top), equivalent to applying the group-top mask
    to the prune matrix and inverting the resulting unit triangular system.
    Boxes dropped by the group-size cap get rescore 0.
    """
    return run_nms(scores, overlaps, cfg, NmsVariant.MASKED)


def classical_soft_nms(scores, overlaps, cfg: NmsConfig) -> RescoreResult:
    """Greedy NMS: pick the top box, decay the rest, repeat.

    Every round the highest-rescored remaining box is finalized and each other
    remaining box i has its rescore multiplied by (1 - p(o_top,i)). Hard
    pruning zeroes overlapping boxes outright (classical NMS); soft pruning
    kinds decay them smoothly. Scores only need to be non-negative here.
    Each round reads one row of overlaps, and the loop stops once every
    remaining rescore is 0, since further rounds would only multiply zeros.
    """
    s = _validate_scores(scores)
    source = _overlap_source(overlaps, s.size)
    r = s.copy()
    active = np.ones(s.size, dtype=bool)
    while active.any():
        top = int(np.argmax(np.where(active, r, -np.inf)))
        if r[top] == 0.0:
            break
        active[top] = False
        rest = np.flatnonzero(active)
        if rest.size:
            r[rest] *= 1.0 - np.asarray(prune(source.pairs(top, rest), cfg), dtype=float)
    return RescoreResult(r, np.flatnonzero(r >= cfg.valid_threshold), r.copy())


def solve_unit_lower(strict_lower: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Solve (I + L) x = b for strictly-lower-triangular L by forward substitution."""
    L = np.asarray(strict_lower, dtype=float)
    b = np.asarray(rhs, dtype=float)
    x = np.zeros(b.size)
    for i in range(b.size):
        x[i] = b[i] - np.dot(L[i, :i], x[:i])
    return x


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
    and suppression may only lower a score. A score of -0.0 is read as 0.0.

    overlaps is an (N, N) matrix or a RectOverlaps over the same N boxes, and
    each variant reads only the overlaps it uses: masked and grouped-inverse
    one column per group top, then the member-top pairs or each group's
    block; full-inverse the whole matrix in score order; classical and soft
    one row per round.
    """
    variant = NmsVariant(variant)
    if variant is NmsVariant.CLASSICAL:
        if cfg.pruning is not Pruning.HARD:
            raise ValueError("classical NMS requires hard pruning")
        return classical_soft_nms(scores, overlaps, cfg)
    if variant is NmsVariant.SOFT:
        if cfg.pruning is Pruning.HARD:
            raise ValueError("soft NMS requires a soft pruning kind (linear, exp, or sigmoid)")
        return classical_soft_nms(scores, overlaps, cfg)
    s = _validate_scores(scores, upper=1.0)
    source = _overlap_source(overlaps, s.size)
    order = np.argsort(-s, kind="stable")
    s_sorted = s[order]
    # Overlaps by sorted index; no variant permutes a whole matrix to get them.
    o_sorted = source.take(order)
    if variant is NmsVariant.FULL_INVERSE:
        ranks = np.arange(s.size)
        c_sorted = solve_unit_lower(prune_matrix(o_sorted.pairs(ranks[:, None], ranks), cfg), s_sorted)
    elif variant is NmsVariant.MASKED:
        # The masked prune matrix A has only group-top columns, so (I + A)^-1 = I - A
        # and each member's rescore is one gather over its top.
        top = _group_tops(o_sorted, s.size, cfg)
        members, tops = GroupPartition(top).member_tops()
        c_sorted = np.where(top >= 0, s_sorted, 0.0)
        c_sorted[members] = s_sorted[members] - prune(o_sorted.pairs(members, tops), cfg) * s_sorted[tops]
    else:
        c_sorted = np.zeros(s.size)
        for idx in _split_groups(_group_tops(o_sorted, s.size, cfg)):
            block = o_sorted.pairs(idx[:, None], idx)
            c_sorted[idx] = solve_unit_lower(prune_matrix(block, cfg), s_sorted[idx])
    r_sorted = np.minimum(np.clip(c_sorted, 0.0, 1.0), s_sorted)
    rescores = np.empty_like(r_sorted)
    rescores[order] = r_sorted
    pre_clip = np.empty_like(c_sorted)
    pre_clip[order] = c_sorted
    return RescoreResult(rescores, np.flatnonzero(rescores >= cfg.valid_threshold), pre_clip)
