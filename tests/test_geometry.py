import math
import warnings

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from diffnms import (
    Cuboid3D,
    Rect2D,
    RectOverlaps,
    cuboid_array,
    giou3d,
    giou3d_matrix,
    iou2d,
    iou2d_matrix,
    iou3d,
    iou3d_axis_aligned,
    iou3d_matrix,
    iou3d_pairs,
    overlap_matrix,
    rect_array,
    rotated_bev_intersection_area,
)
from diffnms.geometry import (
    _AREA,
    _HI,
    _LO,
    _VOL,
    _X,
    _Z,
    _bev_overlap,
    _cuboid_features,
    _giou,
    _iou,
    _iou3d_rows,
)
from oracles import (
    ConvexPolygon,
    clip_convex,
    footprint_area,
    mc_intersection_area,
    rect_area,
    reference_bev_intersection_area,
    reference_giou3d,
    reference_iou2d,
    reference_iou3d,
    reference_iou3d_axis_aligned,
    reference_may_meet,
    slow_cuboid_values,
    vertical_extent,
    volume,
)


def rect(x1, y1, x2, y2):
    return Rect2D(x1=x1, y1=y1, x2=x2, y2=y2)


def cuboid(cx=0.0, cy=0.5, cz=0.0, w=1.0, h=1.0, l=1.0, yaw=0.0):
    return Cuboid3D(cx=cx, cy=cy, cz=cz, w=w, h=h, l=l, yaw=yaw)


coords = st.floats(min_value=-50.0, max_value=50.0, allow_nan=False, allow_infinity=False)
sizes = st.floats(min_value=0.1, max_value=10.0, allow_nan=False, allow_infinity=False)
yaws = st.floats(min_value=-math.pi, max_value=math.pi, allow_nan=False, allow_infinity=False)

cuboids = st.builds(
    Cuboid3D, cx=coords, cy=coords, cz=coords, w=sizes, h=sizes, l=sizes, yaw=yaws
)
rects = st.builds(
    lambda x, y, w, h: Rect2D(x1=x, y1=y, x2=x + w, y2=y + h),
    x=coords, y=coords, w=sizes, h=sizes,
)


class TestRect2D:
    def test_dimensions(self):
        r = rect(1.0, 2.0, 4.0, 8.0)
        assert r.y2 - r.y1 == 6.0

    def test_rejects_inverted_corners(self):
        with pytest.raises(ValueError):
            rect(4.0, 0.0, 1.0, 2.0)

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            rect(0.0, 0.0, math.inf, 1.0)

    @pytest.mark.parametrize("corners", [(-1e308, 0.0, 1e308, 10.0), (-1e308, 0.0, 1e308, 0.0), (0.0, 0.0, 1e200, 1e200)])
    def test_rejects_overflowing_area(self, corners):
        with pytest.raises(ValueError, match="Rect2D area must be finite"):
            rect(*corners)


class TestCuboid3D:
    def test_rejects_negative_dimension(self):
        with pytest.raises(ValueError):
            cuboid(w=-1.0)

    def test_footprint_is_counter_clockwise(self):
        poly = ConvexPolygon(cuboid(w=2.0, l=4.0, yaw=0.7).bev_footprint())
        assert poly.area == pytest.approx(8.0, abs=1e-12)

    def test_footprint_respects_yaw(self):
        flat = cuboid(w=1.0, l=3.0, yaw=0.0).bev_footprint()
        assert len(flat) == 4
        xs = [v[0] for v in flat]
        zs = [v[1] for v in flat]
        assert max(xs) - min(xs) == pytest.approx(3.0)
        assert max(zs) - min(zs) == pytest.approx(1.0)


class TestClipConvex:
    """The scalar clipper that the tests keep as the reference for the kernel."""

    def test_self_clip_is_identity_area(self):
        square = ConvexPolygon(((0.0, 0.0), (2.0, 0.0), (2.0, 2.0), (0.0, 2.0)))
        assert clip_convex(square, square).area == pytest.approx(4.0, abs=1e-12)

    def test_half_overlap(self):
        a = ConvexPolygon(((0.0, 0.0), (2.0, 0.0), (2.0, 2.0), (0.0, 2.0)))
        b = ConvexPolygon(((1.0, 0.0), (3.0, 0.0), (3.0, 2.0), (1.0, 2.0)))
        assert clip_convex(a, b).area == pytest.approx(2.0, abs=1e-12)

    def test_disjoint_is_empty(self):
        a = ConvexPolygon(((0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0)))
        b = ConvexPolygon(((5.0, 5.0), (6.0, 5.0), (6.0, 6.0), (5.0, 6.0)))
        assert clip_convex(a, b).vertices == ()


class TestIou2d:
    def test_hand_value_one_third(self):
        # inter 2, union 6
        assert iou2d(rect(0, 0, 2, 2), rect(1, 0, 3, 2)) == pytest.approx(1.0 / 3.0)

    def test_identity(self):
        r = rect(3.0, 4.0, 10.0, 9.0)
        assert iou2d(r, r) == 1.0

    def test_disjoint(self):
        assert iou2d(rect(0, 0, 1, 1), rect(2, 2, 3, 3)) == 0.0

    def test_touching_edges_do_not_overlap(self):
        assert iou2d(rect(0, 0, 1, 1), rect(1, 0, 2, 1)) == 0.0

    def test_degenerate_rect_scores_zero(self):
        assert iou2d(rect(0, 0, 0, 1), rect(0, 0, 1, 1)) == 0.0

    @given(a=rects, b=rects)
    def test_symmetric_and_bounded(self, a, b):
        v = iou2d(a, b)
        assert v == iou2d(b, a)
        assert 0.0 <= v <= 1.0


class TestOverlapMatrix:
    def test_matches_pairwise_iou2d(self):
        rs = [rect(0, 0, 2, 2), rect(1, 0, 3, 2), rect(10, 10, 12, 12), rect(0, 1, 2, 3)]
        m = overlap_matrix(rs)
        for i, a in enumerate(rs):
            for j, b in enumerate(rs):
                assert m[i, j] == pytest.approx(reference_iou2d(a, b), abs=1e-15)

    def test_symmetric_with_unit_diagonal(self):
        rs = [rect(0, 0, 3, 1), rect(1, 0, 2, 5), rect(-4, -4, 0, 0.5)]
        m = overlap_matrix(rs)
        assert np.array_equal(m, m.T)
        assert np.array_equal(np.diag(m), np.ones(3))

    def test_empty(self):
        assert overlap_matrix([]).shape == (0, 0)


class TestRotatedIntersection:
    def test_unit_square_vs_rotated_square_is_octagon(self):
        a = cuboid(yaw=0.0)
        b = cuboid(yaw=math.pi / 4.0)
        expected = 2.0 * (math.sqrt(2.0) - 1.0)
        assert rotated_bev_intersection_area(a, b) == pytest.approx(expected, abs=1e-12)

    def test_identical_boxes_return_exact_footprint(self):
        c = cuboid(cx=3.3, cz=-1.7, w=1.55, l=4.12, yaw=0.613)
        assert rotated_bev_intersection_area(c, c) == footprint_area(c)

    def test_never_exceeds_either_footprint(self):
        a = cuboid(w=1.0, l=10.0)
        b = cuboid(w=10.0, l=1.0, yaw=0.3)
        v = rotated_bev_intersection_area(a, b)
        assert v <= min(footprint_area(a), footprint_area(b))

    def test_monte_carlo_oracle_agreement(self):
        rng = np.random.default_rng(2024)
        for trial in range(25):
            a = cuboid(
                cx=rng.uniform(-2, 2), cz=rng.uniform(-2, 2),
                w=rng.uniform(0.5, 3), l=rng.uniform(0.5, 5),
                yaw=rng.uniform(-math.pi, math.pi),
            )
            b = cuboid(
                cx=a.cx + rng.uniform(-2, 2), cz=a.cz + rng.uniform(-2, 2),
                w=rng.uniform(0.5, 3), l=rng.uniform(0.5, 5),
                yaw=rng.uniform(-math.pi, math.pi),
            )
            exact = rotated_bev_intersection_area(a, b)
            est, sigma = mc_intersection_area(a, b, samples=200_000, rng=rng)
            assert abs(exact - est) <= 3.0 * sigma, f"trial {trial}: {exact} vs {est} +- {sigma}"

    @given(a=cuboids, b=cuboids)
    def test_symmetric(self, a, b):
        assert rotated_bev_intersection_area(a, b) == rotated_bev_intersection_area(b, a)


class TestIou3d:
    def test_identity_is_exactly_one(self):
        c = cuboid(cx=1.0, cy=0.8, cz=20.0, w=1.6, h=1.5, l=3.9, yaw=-0.4)
        assert iou3d(c, c) == 1.0

    def test_matches_axis_aligned_at_zero_yaw(self):
        a = cuboid(cx=0.0, w=2.0, l=4.0)
        b = cuboid(cx=1.0, w=2.0, l=4.0)
        assert iou3d(a, b) == pytest.approx(iou3d_axis_aligned(a, b), abs=1e-12)

    def test_half_height_offset(self):
        # unit cubes offset by half the height: inter 0.5, union 1.5
        a = cuboid(cy=0.5)
        b = cuboid(cy=1.0)
        assert iou3d(a, b) == pytest.approx(1.0 / 3.0, abs=1e-12)

    def test_no_vertical_overlap_is_zero(self):
        assert iou3d(cuboid(cy=0.5), cuboid(cy=5.0)) == 0.0

    def test_degenerate_cuboid_scores_zero(self):
        flat = cuboid(h=0.0)
        assert iou3d(flat, flat) == 0.0
        assert iou3d(flat, cuboid()) == 0.0

    @given(a=cuboids, b=cuboids)
    def test_symmetric_and_bounded(self, a, b):
        v = iou3d(a, b)
        assert v == iou3d(b, a)
        assert 0.0 <= v <= 1.0

    @given(c=cuboids, dx=coords, dz=coords)
    def test_translation_invariant(self, c, dx, dz):
        d = Cuboid3D(cx=c.cx + 1.0, cy=c.cy, cz=c.cz - 0.5, w=c.w, h=c.h, l=c.l, yaw=c.yaw)
        moved_c = Cuboid3D(cx=c.cx + dx, cy=c.cy, cz=c.cz + dz, w=c.w, h=c.h, l=c.l, yaw=c.yaw)
        moved_d = Cuboid3D(cx=d.cx + dx, cy=d.cy, cz=d.cz + dz, w=d.w, h=d.h, l=d.l, yaw=d.yaw)
        assert iou3d(moved_c, moved_d) == pytest.approx(iou3d(c, d), abs=1e-9)


class TestGiou3d:
    def test_identity_is_exactly_one(self):
        c = cuboid(cx=-2.0, cy=0.9, cz=33.0, w=1.7, h=1.4, l=4.4, yaw=2.1)
        assert giou3d(c, c) == 1.0

    def test_stacked_touching_cubes_score_zero(self):
        # same footprint, vertical extents [0,1] and [1,2]: union fills the hull
        a = cuboid(cy=0.5)
        b = cuboid(cy=1.5)
        assert giou3d(a, b) == 0.0

    def test_contained_half_volume(self):
        # b spans [0,2] vertically and contains a spanning [0,1]: iou 1/2, no gap
        a = cuboid(cy=0.5, h=1.0)
        b = cuboid(cy=1.0, h=2.0)
        assert giou3d(a, b) == 0.5

    def test_distant_boxes_go_negative(self):
        assert giou3d(cuboid(), cuboid(cx=50.0)) < -0.9

    @given(a=cuboids, b=cuboids)
    def test_never_exceeds_iou3d(self, a, b):
        assert giou3d(a, b) <= iou3d(a, b) + 1e-15

    @given(a=cuboids, b=cuboids)
    def test_symmetric_and_in_range(self, a, b):
        v = giou3d(a, b)
        assert v == giou3d(b, a)
        assert -1.0 <= v <= 1.0


# The batched kernel against the scalar oracle, compared by bit pattern so
# that a differently signed zero counts as a mismatch.


def bits(values) -> np.ndarray:
    return np.asarray(values, dtype=float).view(np.uint64)


def scalar_matrix(fn, a, b) -> np.ndarray:
    return np.array([[fn(x, y) for y in b] for x in a], dtype=float).reshape(len(a), len(b))


def assert_bit_identical(fast, reference):
    assert fast.shape == reference.shape
    mismatched = np.argwhere(bits(fast) != bits(reference))
    assert mismatched.size == 0, f"first mismatch at {mismatched[0]}: {fast[tuple(mismatched[0])]!r} vs {reference[tuple(mismatched[0])]!r}"


def assert_cuboid_matrices_exact(a, b):
    arr_a, arr_b = cuboid_array(a), cuboid_array(b)
    assert_bit_identical(iou3d_matrix(arr_a, arr_b), scalar_matrix(reference_iou3d, a, b))
    assert_bit_identical(giou3d_matrix(arr_a, arr_b), scalar_matrix(reference_giou3d, a, b))


def assert_rect_matrix_exact(a, b):
    assert_bit_identical(iou2d_matrix(rect_array(a), rect_array(b)), scalar_matrix(reference_iou2d, a, b))


near_coords = st.floats(min_value=-2.0, max_value=2.0, allow_nan=False, allow_infinity=False)
near_sizes = st.one_of(
    st.sampled_from([0.0, 0.5, 1.0, 2.0]),
    st.floats(min_value=0.0, max_value=3.0, allow_nan=False, allow_infinity=False),
)
near_yaws = st.one_of(st.sampled_from([0.0, math.pi / 2, -math.pi / 2, math.pi]), yaws)
# Cuboids within a few meters of the origin, so that most pairs overlap.
near_cuboids = st.builds(
    Cuboid3D, cx=near_coords, cy=near_coords, cz=near_coords, w=near_sizes, h=near_sizes, l=near_sizes, yaw=near_yaws
)
near_rects = st.builds(
    lambda x, y, w, h: Rect2D(x1=x, y1=y, x2=x + w, y2=y + h),
    x=near_coords, y=near_coords, w=near_sizes, h=near_sizes,
)

BASE = cuboid(cx=1.0, cy=0.5, cz=2.0, w=1.5, h=1.2, l=4.0, yaw=0.0)
FAR = 1e6


def _moved(c: Cuboid3D, **changes) -> Cuboid3D:
    fields = {k: getattr(c, k) for k in ("cx", "cy", "cz", "w", "h", "l", "yaw")}
    fields.update(changes)
    return Cuboid3D(**fields)


EDGE_CUBOIDS = [
    BASE,
    _moved(BASE),  # an equal copy
    _moved(BASE, cx=BASE.cx + BASE.l),  # touching along l
    _moved(BASE, cz=BASE.cz + BASE.w),  # touching along w
    _moved(BASE, cy=BASE.cy + BASE.h),  # stacked on top
    _moved(BASE, w=0.0),
    _moved(BASE, h=0.0),
    _moved(BASE, l=0.0),
    _moved(BASE, w=-0.0),
    _moved(BASE, cy=-0.0, h=-0.0),
    _moved(BASE, yaw=math.pi / 2),
    _moved(BASE, yaw=-math.pi / 2),
    _moved(BASE, yaw=math.pi),
    _moved(BASE, yaw=-0.0),
    _moved(BASE, cx=BASE.cx + 1e-12),
    _moved(BASE, yaw=1e-12),
    _moved(BASE, w=BASE.w + 1e-12),
    _moved(BASE, cx=BASE.cx + BASE.l + 1e-12),
    _moved(BASE, cx=BASE.cx + FAR, cz=BASE.cz - FAR),
    _moved(BASE, cx=BASE.cx + FAR + 0.5, cz=BASE.cz - FAR, yaw=0.3),
    _moved(BASE, cx=BASE.cx + FAR + 1e-12, cz=BASE.cz - FAR),
    cuboid(cx=0.0, cy=0.0, cz=0.0, w=0.0, h=0.0, l=0.0),
    # The volume underflows to 0 while the footprint area and height do not,
    # so the equal pair's union comes out as -v_inter; clamped at 0, it gives
    # a giou3d of -1.
    cuboid(cx=0.0, cy=0.0, cz=0.0, w=1e-160, h=1e-200, l=1e160),
]

EDGE_RECTS = [
    rect(0.0, 0.0, 2.0, 2.0),
    rect(0.0, 0.0, 2.0, 2.0),
    rect(2.0, 0.0, 4.0, 2.0),  # touching
    rect(1.0, 1.0, 1.5, 1.5),  # nested
    rect(0.0, 0.0, 0.0, 2.0),  # zero width
    rect(-0.0, 0.0, 2.0, 2.0),
    rect(1e-12, 0.0, 2.0, 2.0 + 1e-12),
    rect(FAR, FAR, FAR + 2.0, FAR + 2.0),
    rect(FAR + 1.0, FAR, FAR + 3.0, FAR + 2.0),
    rect(5.0, 5.0, 6.0, 6.0),
]


class TestBatchedMatrices:
    def test_edge_cases_match_scalar_bitwise(self):
        # The full cross product covers identical and swapped arguments.
        assert_cuboid_matrices_exact(EDGE_CUBOIDS, EDGE_CUBOIDS)

    def test_edge_giou3d_stays_in_its_range(self):
        values = giou3d_matrix(cuboid_array(EDGE_CUBOIDS), cuboid_array(EDGE_CUBOIDS))
        assert np.all((values >= -1.0) & (values <= 1.0))

    def test_edge_rects_match_scalar_bitwise(self):
        assert_rect_matrix_exact(EDGE_RECTS, EDGE_RECTS)

    @given(a=st.lists(near_cuboids, max_size=5), b=st.lists(st.one_of(near_cuboids, cuboids), max_size=5))
    def test_fuzzed_cuboids_match_scalar_bitwise(self, a, b):
        assert_cuboid_matrices_exact(a, b)
        assert_cuboid_matrices_exact(b, a)

    @given(a=st.lists(near_cuboids, min_size=1, max_size=4), data=st.data())
    def test_nudged_copies_match_scalar_bitwise(self, a, data):
        nudge = data.draw(st.sampled_from([1e-12, -1e-12, 1e-9, 0.5]))
        field = data.draw(st.sampled_from(["cx", "cz", "yaw", "w", "l"]))
        values = [getattr(c, field) + nudge for c in a]
        if field in ("w", "l"):
            values = [abs(v) for v in values]
        b = [_moved(c, **{field: v}) for c, v in zip(a, values)]
        assert_cuboid_matrices_exact(a, a + b)

    @given(a=st.lists(near_rects, max_size=5), b=st.lists(st.one_of(near_rects, rects), max_size=5))
    def test_fuzzed_rects_match_scalar_bitwise(self, a, b):
        assert_rect_matrix_exact(a, b)

    def test_seeded_clusters_match_scalar_bitwise(self):
        rng = np.random.default_rng(17)
        for _ in range(6):
            arr = np.column_stack(
                [
                    rng.uniform(-3.0, 3.0, (24, 3)),
                    rng.uniform(0.0, 3.0, (24, 3)),
                    rng.uniform(-math.pi, math.pi, (24, 1)),
                ]
            )
            # Snap some fields to a coarse grid, to provoke ties and collinear edges.
            snap = rng.random(arr.shape) < 0.3
            arr[snap] = np.round(arr[snap] * 2.0) / 2.0
            boxes = [Cuboid3D(*row) for row in arr.tolist()]
            assert_cuboid_matrices_exact(boxes[:12], boxes[12:])

    @pytest.mark.parametrize("n, m", [(0, 3), (3, 0), (0, 0)])
    def test_empty_sides(self, n, m):
        a, b = EDGE_CUBOIDS[:n], EDGE_CUBOIDS[:m]
        assert iou3d_matrix(cuboid_array(a), cuboid_array(b)).shape == (n, m)
        assert giou3d_matrix(cuboid_array(a), cuboid_array(b)).shape == (n, m)
        assert iou2d_matrix(rect_array(EDGE_RECTS[:n]), rect_array(EDGE_RECTS[:m])).shape == (n, m)

    def test_pairs_are_the_selected_matrix_entries(self):
        a, b = cuboid_array(EDGE_CUBOIDS), cuboid_array(EDGE_CUBOIDS[::-1])
        rng = np.random.default_rng(3)
        rows = rng.integers(0, len(a), 200)
        cols = rng.integers(0, len(b), 200)
        assert_bit_identical(iou3d_pairs(a, b, rows, cols), iou3d_matrix(a, b)[rows, cols])
        assert iou3d_pairs(a, b, [], []).shape == (0,)

    def test_rows_are_the_selected_matrix_entries(self):
        a, b = cuboid_array(EDGE_CUBOIDS), cuboid_array(EDGE_CUBOIDS[::-1])
        rng = np.random.default_rng(5)
        # Random, empty, repeated and unsorted column lists, and a range.
        cols = [rng.integers(0, len(b), rng.integers(0, 6)).tolist() for _ in range(len(a) - 4)]
        cols += [[], [3, 3, 3], [len(b) - 1, 0, 2, 0], range(len(b))]
        values, bounds = _iou3d_rows(a, b, cols)
        assert len(bounds) == len(a) + 1
        assert bounds[-1] == len(values)
        matrix = iou3d_matrix(a, b)
        for k in range(len(a)):
            assert_bit_identical(values[bounds[k] : bounds[k + 1]], matrix[k, list(cols[k])])
        values, bounds = _iou3d_rows(a[:0], b, [])
        assert values.shape == (0,) and bounds == [0]
        values, bounds = _iou3d_rows(a[:1], b, [[]])
        assert values.shape == (0,) and bounds == [0, 0]

    @pytest.mark.parametrize(
        "call",
        [
            lambda: iou3d_matrix(np.zeros((2, 6)), np.zeros((1, 7))),
            lambda: giou3d_matrix(np.zeros((1, 7)), np.array([[0, 0, 0, -1.0, 1, 1, 0]])),
            lambda: iou3d_matrix(np.array([[0, 0, 0, 1, 1, 1, math.nan]]), np.zeros((1, 7))),
            lambda: iou2d_matrix(np.array([[2.0, 0.0, 1.0, 1.0]]), np.zeros((1, 4))),
            lambda: iou3d_pairs(np.zeros((2, 7)), np.zeros((2, 7)), [0, 2], [0, 0]),
            lambda: iou3d_pairs(np.zeros((2, 7)), np.zeros((2, 7)), [0, 1], [0]),
        ],
    )
    def test_rejects_malformed_arrays(self, call):
        with pytest.raises(ValueError):
            call()


def _random_pairs(seed: int, count: int) -> list[tuple[Cuboid3D, Cuboid3D]]:
    rng = np.random.default_rng(seed)

    def draw() -> Cuboid3D:
        return Cuboid3D(*rng.uniform(-2.0, 2.0, 3), *rng.uniform(0.0, 3.0, 3), rng.uniform(-math.pi, math.pi))

    return [(draw(), draw()) for _ in range(count)]


class TestOneKernel:
    """iou3d, giou3d, iou3d_axis_aligned and rotated_bev_intersection_area are one-pair calls of the batched kernel."""

    # Random pairs, and every pair of the edge cases: equal, degenerate and touching boxes.
    PAIRS = _random_pairs(5, 40) + [(a, b) for a in EDGE_CUBOIDS for b in EDGE_CUBOIDS]

    @pytest.mark.parametrize(
        "fast, oracle",
        [
            (iou3d, reference_iou3d),
            (giou3d, reference_giou3d),
            (rotated_bev_intersection_area, reference_bev_intersection_area),
            (iou3d_axis_aligned, reference_iou3d_axis_aligned),
        ],
    )
    def test_wrappers_match_the_oracle_bitwise_in_both_orders(self, fast, oracle):
        for a, b in self.PAIRS:
            for x, y in ((a, b), (b, a)):
                value = fast(x, y)
                assert type(value) is float
                assert bits(value) == bits(oracle(x, y)), (x, y, value, oracle(x, y))

    @given(
        a=st.one_of(near_cuboids, cuboids, st.sampled_from(EDGE_CUBOIDS)),
        b=st.one_of(near_cuboids, cuboids, st.sampled_from(EDGE_CUBOIDS)),
    )
    def test_axis_aligned_matches_the_oracle_bitwise(self, a, b):
        for x, y in ((a, b), (b, a)):
            assert bits(iou3d_axis_aligned(x, y)) == bits(reference_iou3d_axis_aligned(x, y))

    @pytest.mark.filterwarnings("error")
    def test_overflowing_boxes_raise_no_warning(self):
        huge = cuboid(w=1e200, h=1e200, l=1e200)
        far = cuboid(cx=1e308, cz=-1e308, w=1e308, l=1e308, yaw=0.3)
        boxes = [huge, far, cuboid()]
        arr = cuboid_array(boxes)
        iou3d_matrix(arr, arr)
        giou3d_matrix(arr, arr)
        iou3d_pairs(arr, arr, [0, 1, 2], [2, 1, 0])
        for a in boxes:
            for b in boxes:
                iou3d(a, b)
                giou3d(a, b)
                iou3d_axis_aligned(a, b)
                rotated_bev_intersection_area(a, b)


@st.composite
def related_rects(draw) -> list[Rect2D]:
    """A rectangle and others that touch it, nest in it, have zero width, or carry -0.0 corners."""
    a = draw(st.one_of(near_rects, st.sampled_from(EDGE_RECTS)))
    w, h = draw(near_sizes), draw(near_sizes)
    t, u = draw(st.floats(min_value=0.0, max_value=1.0)), draw(st.floats(min_value=0.0, max_value=1.0))
    x = min(a.x1 + t * (a.x2 - a.x1), a.x2)
    x_lo, x_hi = sorted([x, min(a.x1 + u * (a.x2 - a.x1), a.x2)])
    y_lo, y_hi = sorted([min(a.y1 + t * (a.y2 - a.y1), a.y2), min(a.y1 + u * (a.y2 - a.y1), a.y2)])
    related = [
        Rect2D(a.x2, a.y1, a.x2 + w, a.y1 + h),  # touching on x
        Rect2D(a.x1, a.y2, a.x1 + w, a.y2 + h),  # touching on y
        Rect2D(a.x2, a.y2, a.x2 + w, a.y2 + h),  # touching at a corner
        Rect2D(x_lo, y_lo, x_hi, y_hi),  # nested
        Rect2D(x, a.y1, x, a.y2),  # zero width
        Rect2D(0.0, 0.0, 0.0, h),
        Rect2D(-0.0, -0.0, w, h),
        Rect2D(-0.0, 0.0, -0.0 if w == 0.0 else w, h),
    ]
    return [a, *draw(st.lists(st.sampled_from(related), min_size=1, max_size=4))]


class TestOneRectKernel:
    """iou2d, iou2d_matrix, overlap_matrix and RectOverlaps.pairs all run the one rectangle kernel."""

    @given(rs=related_rects())
    def test_every_form_matches_the_oracle_bitwise(self, rs):
        reference = scalar_matrix(reference_iou2d, rs, rs)
        for i, x in enumerate(rs):
            for j, y in enumerate(rs):
                value = iou2d(x, y)
                assert type(value) is float
                assert bits(value) == bits(reference[i, j]), (x, y, value)
        arr = rect_array(rs)
        assert_bit_identical(iou2d_matrix(arr, arr), reference)
        assert_bit_identical(iou2d_matrix(arr[:1], arr[1:]), reference[:1, 1:])
        assert_bit_identical(overlap_matrix(rs), reference)
        boxes = np.arange(len(rs))
        source = RectOverlaps(arr)
        assert_bit_identical(source.pairs(boxes[:, None], boxes), reference)
        assert_bit_identical(source.pairs(boxes, boxes[::-1]), reference[boxes, boxes[::-1]])

    def test_overflowing_corners_raise_no_warning(self):
        a = np.array([[-1e308, -1e308, 1e308, 1e308], [0, 0, 1, 1], [1e200, 0, 2e200, 1e-200], [-0.0, 0, 1, 1]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            matrix = iou2d_matrix(a, a)
        expected = [[np.nan, 0, 0, 0], [0, 1, 0, 1], [0, 0, 1, 0], [0, 1, 0, 1]]
        assert np.array_equal(matrix, expected, equal_nan=True)

    @given(rs=st.one_of(related_rects(), st.lists(st.one_of(near_rects, rects), max_size=8)))
    @example(rs=EDGE_RECTS)
    def test_overlap_matrix_is_iou2d_matrix(self, rs):
        arr = rect_array(rs)
        assert_bit_identical(overlap_matrix(rs), iou2d_matrix(arr, arr))


# Zero, -0.0, subnormal, ordinary and near-1e300 sizes, whose products span
# underflow to 0 and overflow to inf.
column_sizes = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, 1e-310, 1e-300, 1e300, 8.9e307]),
    st.floats(min_value=0.0, max_value=1e-307),
    st.floats(min_value=0.0, max_value=10.0),
    st.floats(min_value=1e299, max_value=1e301),
)
column_coords = st.one_of(coords, st.floats(min_value=-1e300, max_value=1e300))
any_yaws = st.one_of(yaws, st.floats(allow_nan=False, allow_infinity=False))


@st.composite
def column_rects(draw) -> Rect2D:
    x, y, w, h = draw(coords), draw(coords), draw(column_sizes), draw(column_sizes)
    # Rect2D rejects an area that overflows.
    assume(math.isfinite(w * h))
    return Rect2D(x, y, x + w, y + h)


class TestKernelColumns:
    """The kernels' per-box quantities are the scalar formulas of tests/oracles.py, bit for bit."""

    @given(
        boxes=st.lists(
            st.builds(
                Cuboid3D,
                cx=column_coords, cy=column_coords, cz=column_coords,
                w=column_sizes, h=column_sizes, l=column_sizes, yaw=any_yaws,
            ),
            min_size=1,
            max_size=6,
        )
    )
    def test_cuboid_features_are_the_scalar_quantities(self, boxes):
        with np.errstate(all="ignore"):
            features = _cuboid_features(cuboid_array(boxes))
        for c, row in zip(boxes, features):
            corners = c.bev_footprint()
            assert bits(row[_X:_Z]).tolist() == bits([x for x, _ in corners]).tolist()
            assert bits(row[_Z:_AREA]).tolist() == bits([z for _, z in corners]).tolist()
            expected = [footprint_area(c), volume(c), *vertical_extent(c)]
            assert bits(row[[_AREA, _VOL, _LO, _HI]]).tolist() == bits(expected).tolist(), c

    @given(rs=st.lists(column_rects(), min_size=1, max_size=6))
    def test_rect_area_row_is_the_scalar_area(self, rs):
        areas = RectOverlaps(rect_array(rs))._columns[4]
        assert bits(areas).tolist() == bits([rect_area(r) for r in rs]).tolist()


# The broad phase against the slow path it replaced: pairs whose footprint
# bounding boxes are placed a hair apart, touching or a hair overlapping, at
# magnitudes up to 1e160, with signed zeros, zero and tiny sizes, and boxes
# whose features overflow to inf.

signed_units = st.one_of(st.just(-0.0), st.floats(min_value=-1.0, max_value=1.0))
pair_sizes = st.one_of(st.sampled_from([0.0, -0.0, 1e-300, 1e-5, 1.0]), st.floats(min_value=0.0, max_value=4.0))
pair_yaws = st.one_of(st.sampled_from([0.0, -0.0, math.pi / 2, math.pi, 1e-12]), yaws)
# Absolute gaps, and multiples of the coordinate scale on both sides of the
# broad phase's margin of 2**-20.
gaps = st.sampled_from([0.0, 1e-15, -1e-15, 1e-12, -1e-12, 1e-9, 1e-6, 1e-3, 2.0**-21, 2.0**-19, 2.0**-17])

# The clipper gives these two footprints, 1e6 apart, an area of 2.09e-160,
# so the broad phase must call them near, although the gap alone is wide.
FAR_AT_1E160 = (
    Cuboid3D(1000001.5, 0.5, -999998.0, 1.5, 1.2, 4.0, 0.3),
    Cuboid3D(0.0, 0.0, 0.0, 1e-160, 1e-200, 1e160, 0.0),
)
# A footprint thinner than rounding is clipped against the whole line through
# it, so a box 1e8 away along that line keeps a positive area; only the
# broad phase's bound on w and l keeps such a pair clipped.
NEEDLE = (
    Cuboid3D(0.0, 0.0, 0.0, 1e-300, 1.0, 2.0, 2.5),
    Cuboid3D(-80114362.0, 0.0, 59847214.0, 1.0, 1.0, 2.0, 0.0),
)
EXTREME_CUBOIDS = [
    *FAR_AT_1E160,
    *NEEDLE,
    _moved(NEEDLE[0], w=-0.0),
    cuboid(w=1e200, h=1e200, l=1e200),
    cuboid(cx=1e308, cz=-1e308, w=1e308, l=1e308, yaw=0.3),
    cuboid(cx=-1e308, cz=1e308, w=1e308, l=1e308),
    cuboid(cx=1e5, w=1e150, h=1e150, l=1e150),
]



def _at_scale(scale: float, cx: float) -> Cuboid3D:
    """A footprint 2**-10 of scale wide and long, ending at cx + l/2; its largest corner magnitude is that end."""
    side = scale / 1024.0
    return cuboid(cx=cx - side / 2.0, w=side, l=side)


# Cuboids whose pairs are mostly apart, at the edges of the kernel's skip of
# apart pairs in iou3d: a top of -0.0 above a bottom of +0.0, which makes the
# IoU of the apart pair -0.0; -0.0 sizes; largest corner magnitudes at both
# ends of _APART_SCALE and one step inside them; and volumes and vertical
# extents that overflow.
APART_EDGES = [
    cuboid(cy=-0.0, h=-0.0),
    cuboid(cx=10.0, cy=0.5, h=1.0),
    cuboid(cx=-10.0, cy=0.0, h=0.0),
    cuboid(cx=20.0, cy=-0.0, h=-0.0, w=-0.0),
    cuboid(cz=30.0, cy=-0.0, h=-0.0, l=-0.0),
    cuboid(cz=-30.0, w=-0.0, h=-0.0, l=-0.0),
    *(
        _at_scale(scale, cx)
        for scale in (2.0**400, math.nextafter(2.0**400, 0.0), 2.0**-400, math.nextafter(2.0**-400, 1.0))
        for cx in (scale, -scale / 2.0)
    ),
    cuboid(cx=1e5, w=1e103, h=1e103, l=1e103),
    cuboid(cx=-1e5, cy=-1e308, h=1.7e308),
    cuboid(cz=1e5, cy=1e308, h=1.7e308),
]


def _footprint_box(c: Cuboid3D) -> tuple[float, float, float, float]:
    xs, zs = zip(*c.bev_footprint())
    return min(xs), min(zs), max(xs), max(zs)


@st.composite
def gapped_pairs(draw) -> tuple[Cuboid3D, Cuboid3D]:
    """A cuboid and a second one whose footprint box starts a drawn gap past the first's, on x or z."""
    scale = draw(st.sampled_from([0.0, 1.0, 100.0, 1e8, 1e20, 1e160]))
    size = draw(st.sampled_from([1.0, max(scale, 1.0) / 4.0]))
    # Half the pairs have footprints no thinner than 0.25 size, the rest any
    # of pair_sizes.
    lengths = pair_sizes if draw(st.booleans()) else st.floats(min_value=0.25, max_value=4.0)

    def fields() -> dict:
        return {
            "cy": draw(signed_units),
            "w": abs(draw(lengths)) * size,
            "h": draw(pair_sizes),
            "l": abs(draw(lengths)) * size,
            "yaw": draw(pair_yaws),
        }

    a = Cuboid3D(cx=draw(signed_units) * scale, cz=draw(signed_units) * scale, **fields())
    b = Cuboid3D(cx=0.0, cz=0.0, **fields())
    a_box, b_box = _footprint_box(a), _footprint_box(b)
    gap = draw(gaps) * draw(st.sampled_from([1.0, max(scale, 1.0)]))
    axis = draw(st.sampled_from([0, 1]))
    # Past the first box on the drawn axis, and somewhere along its extent on the other.
    lead = a_box[axis + 2] + gap - b_box[axis]
    other = 1 - axis
    side = a.cz if axis == 0 else a.cx
    side += draw(signed_units) * (a_box[other + 2] - a_box[other] + b_box[other + 2] - b_box[other])
    cx, cz = (lead, side) if axis == 0 else (side, lead)
    return a, _moved(b, cx=cx, cz=cz)


class TestBroadPhase:
    """The kernel skips the clip of pairs whose footprints cannot meet, and changes no bit."""

    @staticmethod
    def assert_kernel_is_the_slow_path(a: list, b: list):
        arr_a, arr_b = cuboid_array(a), cuboid_array(b)
        rows = np.repeat(np.arange(len(a)), len(b))
        cols = np.tile(np.arange(len(b)), len(a))
        for fast, measure in ((iou3d_matrix, _iou), (giou3d_matrix, _giou)):
            reference = slow_cuboid_values(arr_a, arr_b, rows, cols, measure).reshape(len(a), len(b))
            assert_bit_identical(fast(arr_a, arr_b), reference)

    @settings(max_examples=200)
    @given(
        pairs=st.lists(gapped_pairs(), min_size=1, max_size=6),
        extra=st.lists(st.sampled_from(EXTREME_CUBOIDS + APART_EDGES), max_size=3),
    )
    def test_gapped_pairs_match_the_slow_path_bitwise(self, pairs, extra):
        firsts = [a for a, _ in pairs] + extra
        seconds = [b for _, b in pairs] + extra[::-1]
        self.assert_kernel_is_the_slow_path(firsts, seconds)
        self.assert_kernel_is_the_slow_path(seconds, firsts)
        for a, b in pairs:
            for x, y in ((a, b), (b, a)):
                expected = slow_cuboid_values(cuboid_array([x]), cuboid_array([y]), [0], [0], _bev_overlap)[0]
                assert bits(rotated_bev_intersection_area(x, y)) == bits(expected), (x, y)

    def test_extreme_cuboids_match_the_slow_path_bitwise(self):
        boxes = EXTREME_CUBOIDS + EDGE_CUBOIDS
        self.assert_kernel_is_the_slow_path(boxes, boxes)

    def test_apart_pairs_at_the_edges_match_the_slow_path_bitwise(self):
        """iou3d evaluates an apart pair only when a box's top is zero; every other one is +0.0, bit for bit."""
        self.assert_kernel_is_the_slow_path(APART_EDGES, APART_EDGES)
        self.assert_kernel_is_the_slow_path(APART_EDGES + EXTREME_CUBOIDS, EXTREME_CUBOIDS + APART_EDGES)
        top, bottom = APART_EDGES[:2]
        assert not reference_may_meet(top, bottom)
        assert bits(iou3d(top, bottom)) == bits(-0.0)
        # At each end of _APART_SCALE the pair is near, and one step inside it apart.
        scaled = APART_EDGES[6:14]
        assert [reference_may_meet(a, b) for a, b in zip(scaled[::2], scaled[1::2])] == [True, False, True, False]

    @pytest.mark.parametrize("pair, area", [(FAR_AT_1E160, 2.0935032030025057e-160), (NEEDLE, 2e-300)])
    def test_far_pairs_keep_the_clippers_positive_area(self, pair, area):
        a, b = pair
        assert rotated_bev_intersection_area(a, b) == area
        assert rotated_bev_intersection_area(b, a) == area
