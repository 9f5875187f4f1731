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
the backward pass in :mod:`diffnms.gradients` run it on one row, a corpus of
scenes on one row per scene, and the finite-difference check on a block of
perturbed rows over one shared source of overlaps: one instance's, or several
instances' stacked side by side (_StackedOverlaps). Every variant rescores a
corpus in one pass, its scenes as lanes (_nms_scenes); run_nms is that pass
on a one-scene corpus.
"""

from __future__ import annotations

import functools
import math
import sys
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
    means unbounded). tau is the finite temperature of the exponential and
    sigmoidal pruning kinds, at least sys.float_info.min, the smallest normal
    float, so that no division by it overflows; when left unset it defaults
    to 0.5 and 0.1 respectively. pruning takes a Pruning or its value, such as "exp".
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
            if self.tau < sys.float_info.min:
                # Below the smallest normal float, (o - nt) / tau and o^2 / tau overflow.
                raise ValueError(
                    f"tau must be at least {sys.float_info.min} for {self.pruning.value} pruning, got {self.tau}"
                )


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
    """A score a rescorer cannot take, or cannot form from its box's confidences; index is its position."""

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
_ONE_BITS = np.float64(1.0).view(np.uint64)


class _MatrixOverlaps:
    """An overlap matrix read like a RectOverlaps: pairs(i, j) gathers o[i, j]."""

    def __init__(self, matrix: np.ndarray) -> None:
        self._matrix = matrix

    def pairs(self, i, j) -> np.ndarray:
        return self._matrix[i, j]

    def _take(self, boxes: np.ndarray) -> _MatrixOverlaps:
        """The overlaps of boxes[k] with boxes[m], read as pairs(k, m)."""
        return _MatrixOverlaps(self._matrix[np.ix_(boxes, boxes)])

    def _clusters(self, bounds: np.ndarray) -> list[np.ndarray]:
        """Each nonempty scene as one cluster: a matrix is not searched for zero-overlap clusters."""
        return _scenes(bounds)


class _StackedOverlaps:
    """The overlaps of several instances in one source, each pair read only within its instance.

    Instance k's matrix, padded to the width w of the widest, is rows
    k * w:(k + 1) * w of one (T * w, w) stack, and its box m is box k * w + m,
    so pairs(i, j) reads stack[i, j % w]; a padding slot, -1, would read the
    stack's last entry, in bounds. No block-diagonal matrix over every box
    of every instance is built.
    """

    def __init__(self, sources, sizes, width: int) -> None:
        stack = np.zeros((len(sizes), width, width))
        for k, (source, n) in enumerate(zip(sources, sizes.tolist())):
            boxes = np.arange(n)
            stack[k, :n, :n] = source.pairs(boxes[:, None], boxes)
        self._stack = stack.reshape(-1, width)
        self._width = width

    def pairs(self, i, j) -> np.ndarray:
        return self._stack[i, j % self._width]


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
        # As unsigned integers, the bits of +0.0 to 1.0 are exactly those up to
        # 1.0's, so one pass accepts them. Anything else, -0.0 included, takes
        # the float comparisons, where a NaN makes both false and an infinity
        # fails one of them.
        if (
            in_range
            and matrix.size
            and matrix.view(np.uint64).max() > _ONE_BITS
            and not (matrix.min() >= 0.0 and matrix.max() <= 1.0)
        ):
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

    Each round reads the overlaps of the boxes still free, with their row's
    lead, and nothing of a row that has finished grouping. A slot of order
    holding -1, the padding that ends a row shorter than the widest, is never
    read, joins no group and keeps top -1. patch is None or
    (ki, kt, delta): the sorted indices of each row's patched pair (-1 for
    none) and what is added to both of its overlaps.
    """
    B, n = order.shape
    cap = n if cfg.max_group_size is None else cfg.max_group_size
    top = np.full(B * n, -1)
    # The free slots, row by row in score order, as flat indices and boxes:
    # runs[r] of them belong to rows[r], the rows still grouping. Each round
    # reads the overlaps of these slots only.
    at = np.flatnonzero(order >= 0)
    box = order.ravel()[at]
    runs = np.count_nonzero(order >= 0, axis=1)
    rows = np.flatnonzero(runs)
    runs = runs[rows]
    while rows.size:
        # A row's lead is its first free slot.
        first = np.cumsum(runs) - runs
        lead = at[first] - rows * n
        o = source.pairs(box, np.repeat(box[first], runs))
        if patch is not None:
            # A round led by one box of the patched pair reads the other's overlap.
            ki, kt, delta = patch
            for k, other in ((ki, kt), (kt, ki)):
                hit = rows[lead == other[rows]]
                slot = hit * n + k[hit]
                found = np.minimum(np.searchsorted(at, slot), at.size - 1)
                present = at[found] == slot
                o[found[present]] += delta[hit[present]]
        high = o > cfg.nt
        # A degenerate box has zero self-overlap; it still anchors its group.
        high[first] = True
        grouped = np.add.reduceat(high, first, dtype=np.intp)
        joined, size = high, grouped
        if cap < n and grouped.max() > cap:
            # Only the first cap boxes of a group join it; the rest are capped out.
            counts = np.cumsum(high)
            joined = high & (counts - np.repeat(counts[first] - 1, runs) <= cap)
            size = np.minimum(grouped, cap)
        top[at[joined]] = np.repeat(lead, size)
        free = ~high
        at, box = at[free], box[free]
        runs -= grouped
        alive = runs > 0
        rows, runs = rows[alive], runs[alive]
    return top.reshape(B, n)


def _clip_clamp(pre_clip: np.ndarray, s: np.ndarray) -> np.ndarray:
    """Pre-clip values clipped to [0, 1], then clamped to each box's own score."""
    return np.minimum(np.clip(pre_clip, 0.0, 1.0), s)


def _row_tops(source, order: np.ndarray, cfg: NmsConfig, patch=None) -> np.ndarray:
    """The GroupPartition.top array of each row of order: _group_tops for one unpatched row, else _group_rows."""
    if patch is None and len(order) == 1:
        return _group_tops(source, order[0], cfg)[None]
    return _group_rows(source, order, cfg, patch)


def _scenes(bounds: np.ndarray) -> list[np.ndarray]:
    """The boxes of each nonempty scene bounds[k]:bounds[k + 1], in ascending order."""
    return [np.arange(lo, hi) for lo, hi in zip(bounds[:-1].tolist(), bounds[1:].tolist()) if hi > lo]


def _scene_blocks(bounds: np.ndarray) -> list[np.ndarray]:
    """The nonempty scenes as rows of boxes, padded with -1, in blocks of scenes of similar size.

    Scenes whose sizes round up to the same power of two share a block,
    whose rows are as wide as its widest scene, so padding never doubles a
    block and one large scene does not widen the rows of many small ones.
    """
    starts, sizes = bounds[:-1], np.diff(bounds)
    starts, sizes = starts[sizes > 0], sizes[sizes > 0]
    level = np.ceil(np.log2(sizes))
    blocks = []
    # A set, not np.unique, which imports numpy.ma: megabytes and milliseconds per CLI run.
    for scale in sorted(set(level.tolist())):
        block_starts, block_sizes = starts[level == scale], sizes[level == scale]
        slot = np.arange(block_sizes.max())
        blocks.append(np.where(slot < block_sizes[:, None], block_starts[:, None] + slot, -1))
    return blocks


def _masked_sorted(S: np.ndarray, source, cfg: NmsConfig, patch=None, boxes=None, top=None):
    """The masked forward of validated score rows S, (B, n): (order, top, pre_clip, rescores, o_mt).

    The first four have a row per row of S: the stable descending score sort
    as source indices, the GroupPartition.top array, and the pre-clip values
    and rescores in the order of S; o_mt holds each member's patched overlap
    with its top, row by row in score order. Overlaps are read as
    source.pairs(order[b, i], order[b, j]). boxes, (B, n), gives the source
    index of each entry of S, or -1 for padding, whose score must be -inf so
    that it sorts last; by default entry (b, k) is box k. A single unpatched
    row is grouped by _group_tops, several by _group_rows; top, when given,
    is that grouping, already found for these rows.
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
    if boxes is not None:
        order = boxes.ravel()[at].reshape(B, n)
    if top is None:
        top = _row_tops(source, order, cfg, patch)
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
    return order, top, pre_clip, _clip_clamp(pre_clip, S), o_mt


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


def _greedy_nms(s: np.ndarray, source, cfg: NmsConfig, bounds: np.ndarray, clusters) -> np.ndarray:
    """Greedy NMS over the validated scores of a corpus, each scene on its own: the rescores.

    Scene k holds boxes bounds[k]:bounds[k + 1]. Within a scene, every round
    the highest-rescored remaining box is finalized and each other remaining
    box i has its rescore multiplied by (1 - p(o_top,i)). Hard pruning zeroes
    overlapping boxes outright (classical NMS); soft pruning kinds decay them
    smoothly. Ties go to the lower index, and a scene stops once every
    remaining rescore is 0, since further rounds would only multiply zeros.

    Lanes: the scenes run in lockstep, in lanes of slots that each round pick
    one top per lane and read one overlap per remaining box of the top's
    scene, so rounds scale with the widest lane, not with the corpus. A
    round leaves every box of another scene exactly as it was, so a lane
    may hold several scenes: the loop over any union of scenes picks each
    scene's boxes in the order, and with the rescores, of the loop over that
    scene. The units packed into lanes (``_lanes``) are the scenes under
    sigmoid pruning (p(0) > 0). When p(0) = 0 (hard, linear and exponential
    pruning), a round multiplies every box that does not overlap its top by
    exactly 1.0, so boxes in clusters with no overlap between them cannot
    affect each other either, and the units are each scene's zero-overlap
    clusters: clusters() returns source._clusters(bounds), which does not
    split a matrix source's scenes. A scene of disjoint boxes then takes one
    round, where a lane of its own would take one per box.
    """
    units = clusters() if prune(0.0, cfg) == 0.0 else _scenes(bounds)
    slots = _lanes(units or [np.arange(0)])
    # A key per slot, equal for the slots of one scene, where lanes may hold several.
    scene = np.searchsorted(bounds, slots.ravel(), side="right") if len(bounds) > 2 else None
    # slots[k] is the box in slot k of the padded lane layout, or -1.
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
        if scene is not None:
            same = scene[rest] == scene[top]
            rest, top = rest[same], (top[same] if tops.size > 1 else top)
        decayed = r[rest] * (1.0 - _prune(source.pairs(top, rest), cfg))
        r[rest] = decayed
        live[rest] = decayed
    out = np.zeros(s.size)
    out[slots[filled]] = r[filled]
    return out


# The solve reads prune rows in blocks holding at most this many entries, so
# it never holds an n x n array.
_SOLVE_BLOCK_ENTRIES = 1 << 17


def _substitute(rows: np.ndarray, b: np.ndarray, x: np.ndarray, start: int, stop: int) -> None:
    """Forward substitution of x[start:stop], where rows[k - start] is row k of the prune matrix.

    Each x[k] is b[k] minus one dot product of the row's strictly-lower part
    with the whole solved prefix x[:k], so the result does not depend on
    where a block of rows begins or ends.
    """
    for k in range(start, stop):
        x[k] = b[k] - np.dot(rows[k - start, :k], x[:k])


def _solve_pruned(source, boxes: np.ndarray, s: np.ndarray, cfg: NmsConfig, label=None) -> np.ndarray:
    """Pre-clip values of boxes, in score order: (I + P)^-1 s over their prune matrix P.

    Forward substitution reads only the strictly-lower triangle of P, a
    bounded block of rows at a time (_substitute). label, when given, is the
    zero-overlap cluster of every box of the source (p(0) = 0 only): a block
    then reads only the pairs of boxes in one cluster, into a zero-filled
    block, since every other entry is prune(+0.0) = +0.0, the entry the read
    would give. Each row's dot product still spans the whole solved prefix.
    """
    b = s[boxes]
    x = np.zeros(b.size)
    step = max(1, _SOLVE_BLOCK_ENTRIES // max(1, b.size))
    if label is not None:
        # by_cluster lists the boxes cluster by cluster, each cluster in score
        # order, from first[k] on for box k's cluster; the rank[k] boxes of
        # its cluster that precede box k are the ones its row reads.
        cluster = label[boxes]
        by_cluster = np.argsort(cluster, kind="stable")
        first = np.searchsorted(cluster[by_cluster], cluster)
        rank = np.empty(b.size, dtype=np.intp)
        rank[by_cluster] = np.arange(b.size)
        rank -= first
        # Every block is a view of one zeroed buffer, whose written entries
        # are zeroed again once the block is solved.
        buffer = np.zeros(min(step, b.size) * b.size)
    for start in range(0, b.size, step):
        stop = min(start + step, b.size)
        if label is None:
            rows = prune(source.pairs(boxes[start:stop, None], boxes[: stop - 1]), cfg)
            _substitute(rows, b, x, start, stop)
            continue
        counts = rank[start:stop]
        row = np.repeat(np.arange(counts.size), counts)
        col = by_cluster[np.arange(row.size) + np.repeat(first[start:stop] - (np.cumsum(counts) - counts), counts)]
        written = row * (stop - 1) + col
        buffer[written] = prune(source.pairs(boxes[start + row], boxes[col]), cfg)
        _substitute(buffer[: (stop - start) * (stop - 1)].reshape(stop - start, stop - 1), b, x, start, stop)
        buffer[written] = 0.0
    return x


def _solve_small(source, systems: list[np.ndarray], s: np.ndarray, cfg: NmsConfig, pre_clip: np.ndarray) -> None:
    """_solve_pruned of systems of at most _WHOLE_MATRIX_BOXES boxes each, written into pre_clip.

    The systems are padded with -1 into rows of similar size, as
    _scene_blocks pads scenes, and each block of at most
    _SOLVE_BLOCK_ENTRIES entries is read with one broadcast pairs call: every
    system's whole square, of which the solve uses the strictly-lower
    triangle. A padding slot reads the last box and is never used.
    """
    flat = np.concatenate(systems)
    for slots in _scene_blocks(np.cumsum([0] + [system.size for system in systems])):
        boxes = np.where(slots >= 0, flat[slots], -1)
        width = boxes.shape[1]
        step = max(1, _SOLVE_BLOCK_ENTRIES // (width * width))
        for start in range(0, len(boxes), step):
            block = boxes[start : start + step]
            rows = prune(source.pairs(block[:, :, None], block[:, None, :]), cfg)
            b, x = s[block], np.zeros(block.shape)
            for g, size in enumerate(np.count_nonzero(block >= 0, axis=1).tolist()):
                _substitute(rows[g], b[g], x[g], 0, size)
            pre_clip[block[block >= 0]] = x[block >= 0]


def _check_variant(variant: NmsVariant, pruning: Pruning) -> None:
    """Raise ValueError when the greedy variant cannot use the pruning kind."""
    if variant is NmsVariant.CLASSICAL and pruning is not Pruning.HARD:
        raise ValueError("classical NMS requires hard pruning")
    if variant is NmsVariant.SOFT and pruning is Pruning.HARD:
        raise ValueError("soft NMS requires a soft pruning kind (linear, exp, or sigmoid)")


def _score_upper(variant: NmsVariant) -> float | None:
    """The largest score the variant takes: none for the greedy variants, 1 for the closed-form ones."""
    return None if variant in (NmsVariant.CLASSICAL, NmsVariant.SOFT) else 1.0


def _nms_scenes(
    s: np.ndarray, source, bounds: np.ndarray, cfg: NmsConfig, variant: NmsVariant, clusters=None, tops=None
) -> list[RescoreResult]:
    """run_nms of each scene of a corpus, in one pass: scene k holds boxes bounds[k]:bounds[k + 1].

    s holds the validated scores and source the overlaps of all the boxes,
    which are read only within a scene. The greedy variants run the scenes
    as lanes (_greedy_nms). Masked and grouped-inverse group the scenes of
    each _scene_blocks block at once, as its rows (_masked_sorted). The
    inverse variants then solve one system per group or per scene: those of
    at most _WHOLE_MATRIX_BOXES boxes together, one overlap read per block
    of similar size (_solve_small), and each larger one on its own
    (_solve_pruned). Under p(0) = 0, a larger full-inverse system on a
    RectOverlaps reads only the pairs within a zero-overlap cluster.
    clusters() returns source._clusters(bounds), the partition the greedy
    lanes and those reads share; a caller running several variants passes
    one that computes it once. tops maps each block's index to the
    GroupPartition.top array of its rows, which masked and grouped-inverse
    share: the first of them to group a block adds it, and a caller running
    both on the same scores, source and cfg passes one dict to both.
    Indices in each result are relative to its scene.
    """
    if clusters is None:
        clusters = functools.partial(source._clusters, bounds)
    if tops is None:
        tops = {}
    if variant in (NmsVariant.CLASSICAL, NmsVariant.SOFT):
        rescores = _greedy_nms(s, source, cfg, bounds, clusters)
        pre_clip = rescores.copy()
    else:
        pre_clip = np.zeros(s.size)
        systems = []
        # A one-scene corpus is its own row, in box order; more scenes are
        # grouped block by block (_scene_blocks).
        for block, boxes in enumerate([None] if len(bounds) == 2 else _scene_blocks(bounds)):
            S = s[None] if boxes is None else np.where(boxes >= 0, s[boxes], -np.inf)
            if variant is NmsVariant.MASKED:
                _, tops[block], rows = _masked_sorted(S, source, cfg, boxes=boxes, top=tops.get(block))[:3]
                if boxes is None:
                    pre_clip = rows[0]
                else:
                    pre_clip[boxes[boxes >= 0]] = rows[boxes >= 0]
                continue
            order = np.argsort(-S, axis=1, kind="stable")
            if boxes is not None:
                order = np.take_along_axis(boxes, order, axis=1)
            if variant is NmsVariant.FULL_INVERSE:
                systems += [row[row >= 0] for row in order]
            else:
                # One key per group of the block: its row's offset plus its top's sorted index.
                if block not in tops:
                    tops[block] = _row_tops(source, order, cfg)
                top = tops[block]
                keys = np.where(top >= 0, top + np.arange(len(order))[:, None] * order.shape[1], -1)
                systems += [order.ravel()[idx] for idx in _split_groups(keys.ravel())]
        # Each system, its boxes in score order, is one unit lower-triangular solve.
        small = [system for system in systems if system.size <= _WHOLE_MATRIX_BOXES]
        if small:
            _solve_small(source, small, s, cfg, pre_clip)
        large = [system for system in systems if system.size > _WHOLE_MATRIX_BOXES]
        label = None
        if large and variant is NmsVariant.FULL_INVERSE and isinstance(source, RectOverlaps) and prune(0.0, cfg) == 0.0:
            # Each box's zero-overlap cluster, as an index into clusters().
            units = clusters()
            label = np.empty(s.size, dtype=np.intp)
            label[np.concatenate(units)] = np.repeat(np.arange(len(units)), [unit.size for unit in units])
        for system in large:
            pre_clip[system] = _solve_pruned(source, system, s, cfg, label)
        rescores = _clip_clamp(pre_clip, s)
    scenes = [(rescores[lo:hi], pre_clip[lo:hi]) for lo, hi in zip(bounds[:-1].tolist(), bounds[1:].tolist())]
    return [RescoreResult(r, np.flatnonzero(r >= cfg.valid_threshold), p) for r, p in scenes]


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
    round's top. An inverse system (a group, or full-inverse's scene) of at
    most _WHOLE_MATRIX_BOXES boxes is read whole, in one read with the other
    systems of its size; a larger one reads its triangle a bounded block of
    rows at a time, so on a RectOverlaps no variant holds an (N, N) array.

    This is the corpus pass of ``diffnms run`` (_nms_scenes) on a one-scene
    corpus. Under hard, linear and exponential pruning, p(0) = 0, and on a
    RectOverlaps of more than _WHOLE_MATRIX_BOXES boxes the overlap of two
    boxes in different zero-overlap clusters is never read: classical and
    soft run the clusters in lockstep, one top per cluster and round (see
    _greedy_nms), and full-inverse reads its triangle only within a cluster,
    every other entry being +0.0. Touching edges count as zero overlap. The
    bytes are those of the one global loop and the full triangle. Sigmoid
    pruning and a matrix run as one lane, one overlap row per round, and
    full-inverse reads their whole triangle.
    """
    variant = NmsVariant(variant)
    _check_variant(variant, cfg.pruning)
    s = _validate_scores(scores, _score_upper(variant))
    source = _overlap_source(overlaps, s.size)
    return _nms_scenes(s, source, np.array([0, s.size]), cfg, variant)[0]
