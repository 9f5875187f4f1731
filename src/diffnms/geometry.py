"""Overlap geometry for axis-aligned rectangles and upright 3D cuboids.

All measures are pure functions of immutable inputs. Generalized IoU variants
penalize the empty space inside the smallest enclosing (hull) region, so they
stay informative for non-intersecting boxes where plain IoU is zero.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from operator import attrgetter
from typing import Sequence

import numpy as np

__all__ = [
    "Cuboid3D",
    "Rect2D",
    "RectOverlaps",
    "cuboid_array",
    "giou3d",
    "giou3d_matrix",
    "iou2d",
    "iou2d_matrix",
    "iou3d",
    "iou3d_axis_aligned",
    "iou3d_matrix",
    "iou3d_pairs",
    "overlap_matrix",
    "rect_array",
    "rotated_bev_intersection_area",
]

# Clipped-polygon vertices closer than this are merged into one.
_VERTEX_MERGE_TOL = 1e-9


def _require_finite(obj: object, names: Sequence[str]) -> None:
    for name in names:
        value = getattr(obj, name)
        if not math.isfinite(value):
            raise ValueError(f"{type(obj).__name__}.{name} must be finite, got {value!r}")


@dataclass(frozen=True)
class Rect2D:
    """Axis-aligned rectangle with corners (x1, y1) and (x2, y2)."""

    x1: float
    y1: float
    x2: float
    y2: float

    def __post_init__(self) -> None:
        _require_finite(self, ("x1", "y1", "x2", "y2"))
        if self.x1 > self.x2 or self.y1 > self.y2:
            raise ValueError(
                "Rect2D corners must satisfy x1 <= x2 and y1 <= y2, got "
                f"({self.x1}, {self.y1}, {self.x2}, {self.y2})"
            )
        area = (self.x2 - self.x1) * (self.y2 - self.y1)
        if not math.isfinite(area):
            raise ValueError(
                f"Rect2D area must be finite, got {area!r} for corners "
                f"({self.x1}, {self.y1}, {self.x2}, {self.y2})"
            )


@dataclass(frozen=True)
class Cuboid3D:
    """Upright cuboid in camera coordinates.

    (cx, cy, cz) is the geometric center in meters. h is the vertical extent
    along y, while l and w span the footprint in the x-z ground plane; at
    yaw = 0 the l dimension runs along x and the w dimension along z. yaw
    rotates the footprint about the vertical axis and enters all rotated
    measures through its sine and cosine, so any finite value is accepted.

    Zero-sized (degenerate) cuboids are valid inputs; every overlap measure
    treats them as empty rather than raising.
    """

    cx: float
    cy: float
    cz: float
    w: float
    h: float
    l: float
    yaw: float

    def __post_init__(self) -> None:
        _require_finite(self, ("cx", "cy", "cz", "w", "h", "l", "yaw"))
        if self.w < 0 or self.h < 0 or self.l < 0:
            raise ValueError(f"Cuboid3D dimensions must be non-negative, got w={self.w}, h={self.h}, l={self.l}")

    def bev_footprint(self) -> tuple[tuple[float, float], ...]:
        """The four (x, z) corners of the yaw-rotated footprint, counter-clockwise."""
        cos_y, sin_y = math.cos(self.yaw), math.sin(self.yaw)
        hl, hw = self.l / 2.0, self.w / 2.0
        corners = ((hl, hw), (-hl, hw), (-hl, -hw), (hl, -hw))
        return tuple((self.cx + cos_y * u - sin_y * v, self.cz + sin_y * u + cos_y * v) for u, v in corners)


def iou2d(a: Rect2D, b: Rect2D) -> float:
    """Intersection over union of two rectangles, 0.0 when disjoint or degenerate: ``iou2d_matrix`` of one pair."""
    return float(RectOverlaps(rect_array([a, b])).pairs([0], [1])[0])


def overlap_matrix(rects: Sequence[Rect2D]) -> np.ndarray:
    """Symmetric matrix of pairwise rectangle IoU values, ``iou2d_matrix(a, a)`` from one ``RectOverlaps``.

    Entry (i, j) equals ``iou2d(rects[i], rects[j])``, so the diagonal is 1
    for every non-degenerate rectangle and 0 for degenerate ones.
    """
    boxes = np.arange(len(rects))
    return RectOverlaps(rect_array(rects)).pairs(boxes[:, None], boxes)


# Batched forms. The rectangle IoU and the rotated cuboid measures exist only
# here, and replay operation for operation, in the same operand order, the
# scalar forms that the tests keep as their reference.
# Python's min/max keep the first argument on ties, which decides the sign of
# a zero result, so they are written as np.where rather than np.minimum or
# np.maximum.

# Cuboid pairs evaluated per block; bounds the scratch memory.
_PAIRS_PER_BLOCK = 1024


def rect_array(rects: Sequence[Rect2D]) -> np.ndarray:
    """Rectangles as an (N, 4) float array in x1, y1, x2, y2 order."""
    return np.array(list(map(attrgetter("x1", "y1", "x2", "y2"), rects)), dtype=float).reshape(-1, 4)


def cuboid_array(cuboids: Sequence[Cuboid3D]) -> np.ndarray:
    """Cuboids as an (N, 7) float array in cx, cy, cz, w, h, l, yaw order."""
    fields = attrgetter("cx", "cy", "cz", "w", "h", "l", "yaw")
    return np.array(list(map(fields, cuboids)), dtype=float).reshape(-1, 7)


def _box_array(values, width: int, name: str) -> np.ndarray:
    arr = np.asarray(values, dtype=float)
    if arr.size == 0:
        arr = arr.reshape(0, width)
    if arr.ndim != 2 or arr.shape[1] != width:
        raise ValueError(f"{name} must have shape (N, {width}), got {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} values must be finite")
    if width == 4 and (np.any(arr[:, 0] > arr[:, 2]) or np.any(arr[:, 1] > arr[:, 3])):
        raise ValueError(f"{name} corners must satisfy x1 <= x2 and y1 <= y2")
    if width == 7 and np.any(arr[:, 3:6] < 0.0):
        raise ValueError(f"{name} dimensions w, h, l must be non-negative")
    return arr


def _min(x, y):
    return np.where(y < x, y, x)


def _max(x, y):
    return np.where(y > x, y, x)


# Up to this corner magnitude no step of _rect_iou overflows, and it divides
# only by positive unions, so it raises no floating-point warning; larger
# corners need numpy's silent mode.
_QUIET_RECT_BOUND = 2.0**500


def _rect_iou(a, b) -> np.ndarray:
    """IoU of rectangles a and b, each the rows x1, y1, x2, y2, area of ``RectOverlaps._columns``.

    The rows of a broadcast against the rows of b; at least one operand must
    hold an array. ``RectOverlaps.pairs`` is its only caller, and runs it
    under ``np.errstate(all="ignore")`` unless every corner lies within
    _QUIET_RECT_BOUND: corners near +-1e308 overflow the extents and make the
    union NaN, which run_nms rejects like any other NaN.
    """
    ax1, ay1, ax2, ay2, a_area = a
    bx1, by1, bx2, by2, b_area = b
    # np.minimum/np.maximum may pick the other zero on a signed-zero tie, but
    # ix and iy are then zero and the entry is 0.0 either way. In-place steps
    # keep the overlap matrix of a large scene to few (N, M) temporaries.
    ix = np.minimum(ax2, bx2)
    ix -= np.maximum(ax1, bx1)
    iy = np.minimum(ay2, by2)
    iy -= np.maximum(ay1, by1)
    inter = ix * iy
    union = a_area + b_area
    union -= inter
    empty = ix <= 0.0
    empty |= iy <= 0.0
    empty |= union <= 0.0
    # Empty entries are zeroed below, so they need no division.
    ratio = np.divide(inter, union, out=inter, where=~empty)
    np.minimum(ratio, 1.0, out=ratio)
    ratio[empty] = 0.0
    return ratio


def iou2d_matrix(a, b) -> np.ndarray:
    """(N, M) matrix whose entry (i, j) is ``iou2d(a[i], b[j])``.

    a and b are (N, 4) and (M, 4) arrays in x1, y1, x2, y2 order, as built by
    ``rect_array``.
    """
    a = _box_array(a, 4, "a")
    b = _box_array(b, 4, "b")
    return RectOverlaps(np.concatenate([a, b])).pairs(np.arange(len(a))[:, None], len(a) + np.arange(len(b)))


class RectOverlaps:
    """The rectangle IoU between any two of N boxes, evaluated on demand.

    ``pairs(i, j)`` is bit-identical to ``overlap_matrix(rects)[i, j]`` for
    index arrays i and j that broadcast together, but costs only the entries
    it returns. The (N, 4) array, in x1, y1, x2, y2 order as built by
    ``rect_array``, is validated once, here; ``run_nms`` accepts this object
    in place of the overlap matrix.
    """

    def __init__(self, rects) -> None:
        x1, y1, x2, y2 = _box_array(rects, 4, "rects").T
        # Corners near +-1e308 overflow the area to inf without a warning;
        # run_nms then rejects such boxes through ``finite``.
        with np.errstate(over="ignore", invalid="ignore"):
            self._columns = np.stack([x1, y1, x2, y2, (x2 - x1) * (y2 - y1)])
        # Entering np.errstate costs a few microseconds, a fixed cost of every
        # round of the greedy loop; only corners this large need it.
        self._quiet = bool(np.all(np.abs(self._columns[:4]) <= _QUIET_RECT_BOUND))

    def __len__(self) -> int:
        return self._columns.shape[1]

    def pairs(self, i, j) -> np.ndarray:
        """Overlaps of boxes i with boxes j, by original index."""
        # np.take gathers along axis 1 faster than fancy indexing does.
        a, b = np.take(self._columns, i, axis=1), np.take(self._columns, j, axis=1)
        if self._quiet:
            return _rect_iou(a, b)
        with np.errstate(all="ignore"):
            return _rect_iou(a, b)

    @property
    def finite(self) -> bool:
        """False when a box's area overflows to infinity: its own overlap is then NaN."""
        return not np.isposinf(self._columns[4]).any()

    def _take(self, boxes: np.ndarray) -> RectOverlaps:
        """The overlaps of boxes[k] with boxes[m], read as pairs(k, m)."""
        taken = object.__new__(RectOverlaps)
        taken._columns = self._columns[:, boxes]
        taken._quiet = self._quiet
        return taken

    def _clusters(self, bounds=None) -> list[np.ndarray]:
        """Clusters of boxes whose overlap with every box of another cluster is exactly 0.0.

        Sweep-and-prune: the parts start as the scenes, boxes
        bounds[k]:bounds[k + 1] forming part k (one part by default). Each
        part is sorted by x1 and cut wherever x1 reaches the running maximum
        of x2, then each piece the same way on y, then x again, until a pass
        cuts nothing. Boxes on either side of a cut have intersection width
        (or height) at most 0, which ``_rect_iou`` maps to exactly 0.0, so
        touching edges do not join clusters, and no cluster crosses a scene.
        Coordinates are compared as dense ranks, so one stable sort of
        (part, rank) keys runs every part's sweep at once and no pair is
        evaluated. Returns each cluster's original indices in ascending order.
        """
        n = len(self)
        # Per axis, the dense ranks, all below 2 n, of the lo and hi coordinates
        # among both; -0.0 and 0.0 share a rank, as they compare equal.
        ranks = []
        for lo in (0, 1):
            coords = self._columns[[lo, lo + 2]].ravel()
            order = np.argsort(coords, kind="stable")
            rank = np.empty(2 * n, dtype=np.int64)
            rank[order] = np.cumsum(np.concatenate([[False], coords[order][1:] != coords[order][:-1]]))
            ranks.append(rank.reshape(2, n))
        if bounds is None:
            part = np.zeros(n, dtype=np.int64)
        else:
            part = np.repeat(np.arange(len(bounds) - 1), np.diff(bounds))
        count = min(n, 1)
        for sweep in itertools.count():
            lo, hi = ranks[sweep % 2]
            # part * 2 n + rank orders by part first, so one running maximum of
            # the hi keys never carries a value across a part boundary.
            base = part * (2 * n)
            lo_key, hi_key = base + lo, base + hi
            order = np.argsort(lo_key, kind="stable")
            reach = np.maximum.accumulate(hi_key[order])
            part[order] = np.concatenate([[0], np.cumsum(lo_key[order][1:] >= reach[:-1])])
            parts = part.max(initial=0) + 1
            if sweep and parts == count:
                break
            count = parts
        by_part = np.argsort(part, kind="stable")
        return np.split(by_part, np.flatnonzero(np.diff(part[by_part])) + 1)


def _cuboid_features(c: np.ndarray) -> np.ndarray:
    """Per-box columns the pair arithmetic reads.

    Columns: the 7 fields; the 4 footprint corner x, then the 4 corner z, as
    ``Cuboid3D.bev_footprint`` computes them; footprint area, volume and
    vertical extent (lo, hi), as the scalar references in ``tests/oracles.py``
    compute them; and the yaw-free footprint box (x1, z1, x2, z2).
    """
    cx, cy, cz, w, h, l, yaw = c.T
    # math.cos/sin, not np.cos/sin: bev_footprint uses libm, and numpy's
    # vectorised trigonometry may differ from it in the last bit.
    cos_y = np.array([math.cos(v) for v in yaw.tolist()], dtype=float)
    sin_y = np.array([math.sin(v) for v in yaw.tolist()], dtype=float)
    hl, hw = l / 2.0, w / 2.0
    corners = ((hl, hw), (-hl, hw), (-hl, -hw), (hl, -hw))
    xs = [cx + cos_y * u - sin_y * v for u, v in corners]
    zs = [cz + sin_y * u + cos_y * v for u, v in corners]
    half = h / 2.0
    extra = [w * l, w * h * l, cy - half, cy + half, cx - hl, cz - hw, cx + hl, cz + hw]
    return np.column_stack([c, *xs, *zs, *extra])


# Column offsets into _cuboid_features.
_X, _Z, _AREA, _VOL, _LO, _HI, _X1, _Z1, _X2, _Z2 = 7, 11, 15, 16, 17, 18, 19, 20, 21, 22


def _next_slot(values: np.ndarray, last: np.ndarray) -> np.ndarray:
    """Each slot's successor in its row's cyclic vertex order; last marks each row's final vertex."""
    shifted = np.concatenate([values[:, 1:], values[:, :1]], axis=1)
    return np.where(last, values[:, :1], shifted)


def _clipped_area(sx: np.ndarray, sz: np.ndarray, kx: np.ndarray, kz: np.ndarray) -> np.ndarray:
    """Area of the subject footprint clipped to the clip footprint, per pair, for (P, 4) corners.

    Sutherland-Hodgman clipping of counter-clockwise polygons: each clip edge
    keeps the vertices on or left of it and emits the crossing points, then
    vertices closer than _VERTEX_MERGE_TOL merge and the shoelace sum gives
    the area. Vertices live in padded (P, K) buffers with a per-pair count; K
    grows to the largest count any pair reaches. Pairs whose polygon has
    fewer than 3 vertices are dropped with area 0.0.
    """
    area = np.zeros(len(sx))
    live = np.arange(len(sx))
    xs, zs = sx, sz
    count = np.full(len(sx), 4)
    for k in range(4):
        if np.any(count < 3):
            keep = count >= 3
            live, xs, zs, count, kx, kz = live[keep], xs[keep], zs[keep], count[keep], kx[keep], kz[keep]
        if live.size == 0:
            return area
        px, pz = kx[:, k : k + 1], kz[:, k : k + 1]
        ex, ez = kx[:, (k + 1) % 4, None] - px, kz[:, (k + 1) % 4, None] - pz
        # cross(edge, point - edge start); >= 0 means on or left of the edge.
        sides = ex * (zs - pz) - ez * (xs - px)
        slot = np.arange(xs.shape[1])
        last = slot == (count - 1)[:, None]
        t_val = _next_slot(sides, last)
        end_x, end_z = _next_slot(xs, last), _next_slot(zs, last)
        inside = sides >= 0.0
        frac = sides / (sides - t_val)
        # Each slot emits its start vertex when inside, then the crossing
        # point when the edge crosses; interleave both and pack them left.
        emit = np.stack([inside, inside != (t_val >= 0.0)], axis=2) & (slot < count[:, None])[:, :, None]
        emit = emit.reshape(len(live), -1)
        place = np.cumsum(emit, axis=1)
        count = place[:, -1]
        width = max(int(count.max()), 1)
        target = (np.arange(len(live)) * width)[:, None] + place - 1
        target = target[emit]
        new_x = np.zeros((len(live), width))
        new_z = np.zeros((len(live), width))
        new_x.ravel()[target] = np.stack([xs, xs + frac * (end_x - xs)], axis=2).reshape(len(live), -1)[emit]
        new_z.ravel()[target] = np.stack([zs, zs + frac * (end_z - zs)], axis=2).reshape(len(live), -1)[emit]
        xs, zs = new_x, new_z

    # Vertex merge: drop a vertex close to the last kept one, then pop
    # trailing vertices close to the first. Only rows with two consecutive
    # close vertices can drop one, so only they replay the sequential scan.
    width = xs.shape[1]
    slot = np.arange(width)
    near = (
        (np.abs(xs[:, 1:] - xs[:, :-1]) <= _VERTEX_MERGE_TOL)
        & (np.abs(zs[:, 1:] - zs[:, :-1]) <= _VERTEX_MERGE_TOL)
        & (slot[1:] < count[:, None])
    )
    scan = np.flatnonzero(near.any(axis=1))
    if scan.size:
        sub_x, sub_z, sub_count = xs[scan], zs[scan], count[scan]
        out_x, out_z = np.zeros_like(sub_x), np.zeros_like(sub_z)
        rows = np.arange(scan.size)
        kept = np.zeros(scan.size, dtype=np.intp)
        last_x, last_z = np.zeros(scan.size), np.zeros(scan.size)
        for i in range(width):
            x, z = sub_x[:, i], sub_z[:, i]
            close = (kept > 0) & (np.abs(x - last_x) <= _VERTEX_MERGE_TOL) & (np.abs(z - last_z) <= _VERTEX_MERGE_TOL)
            take = (i < sub_count) & ~close
            out_x[rows[take], kept[take]] = x[take]
            out_z[rows[take], kept[take]] = z[take]
            last_x, last_z = np.where(take, x, last_x), np.where(take, z, last_z)
            kept += take
        xs, zs, count = xs.copy(), zs.copy(), count.copy()
        xs[scan], zs[scan], count[scan] = out_x, out_z, kept
    rows = np.arange(len(live))
    while True:
        tail = np.maximum(count - 1, 0)
        pop = (
            (count > 1)
            & (np.abs(xs[:, 0] - xs[rows, tail]) <= _VERTEX_MERGE_TOL)
            & (np.abs(zs[:, 0] - zs[rows, tail]) <= _VERTEX_MERGE_TOL)
        )
        if not pop.any():
            break
        count = count - pop

    # Shoelace sum in vertex order, then max(0.5 * acc, 0).
    # acc starts at +0.0 and can never become -0.0, so adding +0.0 for the
    # padding slots leaves it unchanged.
    n = np.where(count < 3, 0, count)[:, None]
    last = slot == n - 1
    after_x, after_z = _next_slot(xs, last), _next_slot(zs, last)
    terms = np.where(slot < n, xs * after_z - after_x * zs, 0.0)
    acc = np.zeros(len(live))
    for i in range(width):
        acc = acc + terms[:, i]
    area[live] = _max(0.5 * acc, 0.0)
    return area


def _ordered_pairs(features: np.ndarray, first: np.ndarray, second: np.ndarray):
    """(pa, pb, equal) for the pairs (features[first[k]], features[second[k]]).

    Each pair's operands are ordered by a lexicographic compare of the 7
    fields, so that both argument orders run identical arithmetic; equal
    marks pairs whose 7 fields are equal, which keep their given order.
    """
    fields_a, fields_b = features[first, :7], features[second, :7]
    differs = fields_a != fields_b
    equal = ~differs.any(axis=1)
    lead = differs.argmax(axis=1)
    picks = np.arange(len(first))
    swap = ~equal & (fields_a[picks, lead] > fields_b[picks, lead])
    pa = features[np.where(swap, second, first)]
    pb = features[np.where(swap, first, second)]
    return pa, pb, equal


def _bev_overlap(pa: np.ndarray, pb: np.ndarray, equal: np.ndarray, area: np.ndarray) -> np.ndarray:
    """The clipped footprint area, clamped to the smaller footprint area.

    Equal boxes overlap by their footprint area exactly.
    """
    return np.where(equal, pa[:, _AREA], _min(_min(area, pa[:, _AREA]), pb[:, _AREA]))


def _volume_overlap(pa: np.ndarray, pb: np.ndarray, area: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(iou, union volume) from a footprint overlap area and the vertical overlap."""
    lo_a, hi_a, lo_b, hi_b = pa[:, _LO], pa[:, _HI], pb[:, _LO], pb[:, _HI]
    v_inter = area * _max(_min(hi_a, hi_b) - _max(lo_a, lo_b), 0.0)
    v_union = pa[:, _VOL] + pb[:, _VOL] - v_inter
    return np.where(v_union > 0.0, _min(v_inter / v_union, 1.0), 0.0), v_union


def _iou(pa: np.ndarray, pb: np.ndarray, equal: np.ndarray, area: np.ndarray) -> np.ndarray:
    """Rotated 3D IoU; exactly 1 for equal boxes with volume, 0 for equal boxes without."""
    iou, _ = _volume_overlap(pa, pb, _bev_overlap(pa, pb, equal, area))
    return np.where(equal, np.where(pa[:, _VOL] > 0.0, 1.0, 0.0), iou)


def _aa_iou(pa: np.ndarray, pb: np.ndarray, equal: np.ndarray, area: np.ndarray) -> np.ndarray:
    """3D IoU of the yaw-free footprint boxes; equal boxes give what ``_iou`` gives.

    The clipped area is not read, so the kernel clips nothing for this measure.
    """
    ix = _max(_min(pa[:, _X2], pb[:, _X2]) - _max(pa[:, _X1], pb[:, _X1]), 0.0)
    iz = _max(_min(pa[:, _Z2], pb[:, _Z2]) - _max(pa[:, _Z1], pb[:, _Z1]), 0.0)
    iou, _ = _volume_overlap(pa, pb, ix * iz)
    return np.where(equal, np.where(pa[:, _VOL] > 0.0, 1.0, 0.0), iou)


def _giou(pa: np.ndarray, pb: np.ndarray, equal: np.ndarray, area: np.ndarray) -> np.ndarray:
    """Generalized 3D IoU, iou + union / hull - 1, with an axis-aligned hull."""
    iou, v_union = _volume_overlap(pa, pb, _bev_overlap(pa, pb, equal, area))
    hull_area = (_max(pa[:, _X2], pb[:, _X2]) - _min(pa[:, _X1], pb[:, _X1])) * (
        _max(pa[:, _Z2], pb[:, _Z2]) - _min(pa[:, _Z1], pb[:, _Z1])
    )
    v_hull = hull_area * (_max(pa[:, _HI], pb[:, _HI]) - _min(pa[:, _LO], pb[:, _LO]))
    # A union of underflowed volumes can come out as -v_inter; clamping it at 0
    # keeps the result in [-1, 1].
    enclosure = np.where(v_hull > 0.0, _min(_max(v_union, 0.0) / v_hull, 1.0), 0.0)
    return np.where(equal & (pa[:, _VOL] > 0.0), 1.0, iou + enclosure - 1.0)


# The broad phase calls a pair apart only when the bounding boxes of its two
# footprints leave a gap on x or z wider than this fraction of the pair's
# largest corner coordinate, both footprints are wider and longer than that
# gap bound, and that coordinate lies in _APART_SCALE.
_APART_MARGIN = 2.0**-20
# Within this range of corner magnitudes the clipper's products neither
# overflow nor underflow.
_APART_SCALE = (2.0**-400, 2.0**400)


def _may_meet(features: np.ndarray, first: np.ndarray, second: np.ndarray) -> np.ndarray:
    """False for the pairs (features[first[k]], features[second[k]]) that ``_clipped_area`` clips to exactly 0.0.

    Rounding moves each clipped vertex by a few units in the last place of
    the largest coordinate, so a gap of 2**-20 of it cannot close. The bound
    on w and l keeps every clip edge's direction accurate: the corners of a
    footprint thinner than rounding coincide, the clipper then clips against
    the whole line through it, and a box far along that line keeps a sliver
    of positive area. NaN and inf compare false, so such pairs may meet.
    """
    xs, zs = features[:, _X:_Z], features[:, _Z:_AREA]
    lo_x, hi_x, lo_z, hi_z = xs.min(axis=1), xs.max(axis=1), zs.min(axis=1), zs.max(axis=1)
    box_scale = np.abs(features[:, _X:_AREA]).max(axis=1)
    scale = np.maximum(box_scale[first], box_scale[second])
    margin = _APART_MARGIN * scale
    gap = np.maximum(
        np.maximum(lo_x[first] - hi_x[second], lo_x[second] - hi_x[first]),
        np.maximum(lo_z[first] - hi_z[second], lo_z[second] - hi_z[first]),
    )
    side = np.minimum(features[:, 3], features[:, 5])
    apart = (gap > margin) & (np.minimum(side[first], side[second]) > margin)
    apart &= (scale > _APART_SCALE[0]) & (scale < _APART_SCALE[1])
    return ~apart


def _cuboid_values(a: np.ndarray, b: np.ndarray, rows: np.ndarray, cols: np.ndarray, measure) -> np.ndarray:
    """measure (_bev_overlap, _iou, _aa_iou or _giou) of the pairs (a[rows[k]], b[cols[k]]).

    Broad phase first: ``_may_meet`` tests every pair at once, and only the
    pairs that may meet go through ``_clipped_area``; every other pair's
    clipped area is the 0.0 the clipper would return. The measure then runs
    a block of pairs at a time, the pairs that may meet first, so that each
    block but one is clipped whole or not at all. ``_iou`` of an apart pair
    is +0.0 unless a box's top is zero (below), so ``_iou`` skips the other
    apart pairs; ``_giou``'s enclosure term needs every pair. ``_aa_iou``
    reads no clipped area, so it clips nothing.
    """
    out = np.zeros(len(rows))
    if out.size == 0:
        return out
    # Python float arithmetic overflows to inf and divides inf by inf into nan
    # without complaint; so does this kernel, from the features on.
    with np.errstate(all="ignore"):
        # One table holds the features of a, then those of b.
        features = _cuboid_features(np.concatenate([a, b]))
        cols = len(a) + cols
        if measure is _aa_iou:
            near, measured = 0, np.arange(len(rows))
        else:
            meets = _may_meet(features, rows, cols)
            rest = ~meets
            if measure is _iou:
                # The footprints of an apart pair are wider and longer than the
                # margin and not equal, so their overlap is +0.0, and so is the
                # IoU, unless the vertical overlap is -0.0: the lower top of the
                # two is -0.0 and the higher bottom +0.0.
                top_zero = features[:, _HI] == 0.0
                rest &= top_zero[rows] | top_zero[cols]
            near = int(np.count_nonzero(meets))
            measured = np.concatenate([np.flatnonzero(meets), np.flatnonzero(rest)])
        for start in range(0, measured.size, _PAIRS_PER_BLOCK):
            block = measured[start : start + _PAIRS_PER_BLOCK]
            pa, pb, equal = _ordered_pairs(features, rows[block], cols[block])
            area = np.zeros(len(block))
            clipped = min(max(near - start, 0), len(block))
            if clipped:
                area[:clipped] = _clipped_area(
                    pa[:clipped, _X:_Z], pa[:clipped, _Z:_AREA], pb[:clipped, _X:_Z], pb[:clipped, _Z:_AREA]
                )
            out[block] = measure(pa, pb, equal, area)
    return out


def _cuboid_matrix(a, b, measure) -> np.ndarray:
    n, m = len(_box_array(a, 7, "a")), len(_box_array(b, 7, "b"))
    return _cuboid_pairs(a, b, np.repeat(np.arange(n), m), np.tile(np.arange(m), n), measure).reshape(n, m)


def _one_pair(a: Cuboid3D, b: Cuboid3D, measure) -> float:
    pair = cuboid_array([a, b])
    return float(_cuboid_pairs(pair[:1], pair[1:], [0], [0], measure)[0])


def rotated_bev_intersection_area(a: Cuboid3D, b: Cuboid3D) -> float:
    """Intersection area of the two yaw-rotated footprints.

    One footprint polygon is clipped against the other. The result is clamped
    to the smaller footprint area, so rounding can never report an
    intersection larger than either box, and equal boxes return their
    footprint area exactly. One call evaluates one pair of the batched kernel.
    """
    return _one_pair(a, b, _bev_overlap)


def iou3d(a: Cuboid3D, b: Cuboid3D) -> float:
    """Rotated 3D IoU: clipped footprint overlap times vertical overlap, over union.

    ``iou3d_matrix`` or ``iou3d_pairs`` of one pair; for many pairs, call
    those once instead.
    """
    return _one_pair(a, b, _iou)


def giou3d(a: Cuboid3D, b: Cuboid3D) -> float:
    """Generalized 3D IoU with a rotated intersection and an axis-aligned hull.

    The intersection volume uses the exact clipped footprint overlap. The
    enclosing hull is deliberately coarser: axis-aligned footprint hull (yaws
    discarded) times the vertical hull extent. The result is
    iou + union/hull - 1, which equals plain IoU for identical boxes and
    approaches -1 for distant ones. ``giou3d_matrix`` of one pair; for many
    pairs, call that once instead.
    """
    return _one_pair(a, b, _giou)


def iou3d_axis_aligned(a: Cuboid3D, b: Cuboid3D) -> float:
    """3D IoU with both yaws discarded, for axis-aligned comparison columns.

    One pair of the batched kernel, like ``iou3d``.
    """
    return _one_pair(a, b, _aa_iou)


def iou3d_matrix(a, b) -> np.ndarray:
    """(N, M) matrix whose entry (i, j) is ``iou3d(a[i], b[j])``.

    a and b are (N, 7) and (M, 7) arrays in cx, cy, cz, w, h, l, yaw order, as
    built by ``cuboid_array``. A broad phase first compares the bounding boxes
    of the rotated footprints of all pairs at once; only the pairs whose
    footprints may meet are clipped, and the others take the clipped area
    0.0, which is what clipping them gives. Pairs are then evaluated a block
    at a time, so scratch memory stays proportional to the result, whatever
    N * M is.
    """
    return _cuboid_matrix(a, b, _iou)


def giou3d_matrix(a, b) -> np.ndarray:
    """(N, M) matrix whose entry (i, j) is ``giou3d(a[i], b[j])``.

    Same array layout as ``iou3d_matrix``.
    """
    return _cuboid_matrix(a, b, _giou)


def iou3d_pairs(a, b, rows, cols) -> np.ndarray:
    """Entries ``iou3d_matrix(a, b)[rows, cols]``, without evaluating the others.

    Entry k is ``iou3d(a[rows[k]], b[cols[k]])``. One call
    can cover a sparse set of pairs, such as the box x ground-truth pairs of
    many scenes stacked into a and b. The broad phase of ``iou3d_matrix``
    runs over all the given pairs at once, so one call over many scenes
    clips only their near pairs, packed into full blocks.
    """
    return _cuboid_pairs(a, b, rows, cols, _iou)


def _iou3d_rows(a, b, cols: Sequence[Sequence[int]]) -> tuple[np.ndarray, list[int]]:
    """One flat ``iou3d_pairs`` call and its row bounds: ``values[bounds[k]:bounds[k + 1]]`` is row k,
    ``iou3d(a[k], b[j])`` for each j in cols[k]."""
    lengths = [len(c) for c in cols]
    flat = np.fromiter(itertools.chain.from_iterable(cols), dtype=np.intp, count=sum(lengths))
    values = iou3d_pairs(a, b, np.repeat(np.arange(len(cols)), lengths), flat)
    return values, list(itertools.accumulate(lengths, initial=0))


def _cuboid_pairs(a, b, rows, cols, measure) -> np.ndarray:
    """measure of the pairs (a[rows[k]], b[cols[k]]), after checking the arrays and indices."""
    a = _box_array(a, 7, "a")
    b = _box_array(b, 7, "b")
    rows = np.asarray(rows, dtype=np.intp).reshape(-1)
    cols = np.asarray(cols, dtype=np.intp).reshape(-1)
    if rows.shape != cols.shape:
        raise ValueError(f"rows and cols must have the same length, got {rows.size} and {cols.size}")
    if np.any(rows < 0) or np.any(rows >= len(a)) or np.any(cols < 0) or np.any(cols >= len(b)):
        raise ValueError("rows and cols must index into a and b")
    return _cuboid_values(a, b, rows, cols, measure)
