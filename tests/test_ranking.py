import numpy as np
import pytest
from hypothesis import given, strategies as st

from diffnms import (
    DEFAULT_BETA,
    DEFAULT_DIFFICULTY_RULES,
    Cuboid3D,
    DetectionBox,
    Difficulty,
    DifficultyRule,
    GroundTruth,
    Rect2D,
    ap_loss_gradient,
    assign_targets,
    average_precision,
    eval_ap_r40,
    filter_gts,
    imagewise_ap_loss,
    q_match,
)
from oracles import reference_ap_r40


def make_gt(cx=0.0, cz=10.0, w=1.6, h=1.5, l=4.0, yaw=0.0, rect=None, **kwargs):
    cub = Cuboid3D(cx=cx, cy=0.75, cz=cz, w=w, h=h, l=l, yaw=yaw)
    if rect is None:
        rect = Rect2D(x1=cx * 10 + 400, y1=100.0, x2=cx * 10 + 450, y2=160.0)
    return GroundTruth(rect=rect, cuboid=cub, **kwargs)


def make_det(gt: GroundTruth, score: float, dx=0.0) -> DetectionBox:
    c = gt.cuboid
    cub = Cuboid3D(cx=c.cx + dx, cy=c.cy, cz=c.cz, w=c.w, h=c.h, l=c.l, yaw=c.yaw)
    r = gt.rect
    rect = Rect2D(x1=r.x1 + dx * 10.0, y1=r.y1, x2=r.x2 + dx * 10.0, y2=r.y2)
    return DetectionBox(rect=rect, cuboid=cub, score=score)


class TestQMatch:
    def test_identical_pair_is_one(self):
        gt = make_gt()
        det = make_det(gt, score=1.0)
        assert q_match(det, gt) == 1.0

    def test_zero_iou2d_forces_zero(self):
        gt = make_gt(rect=Rect2D(x1=0, y1=0, x2=10, y2=10))
        det = DetectionBox(rect=Rect2D(x1=100, y1=100, x2=110, y2=110), cuboid=gt.cuboid)
        assert q_match(det, gt) == 0.0

    def test_missing_cuboid_scores_zero(self):
        gt = make_gt()
        det = DetectionBox(rect=gt.rect, cuboid=None)
        assert q_match(det, gt) == 0.0

    def test_dyadic_hand_value(self):
        # 2D IoU exactly 1/2; cuboid b contains a with double the height, so
        # gIoU3D is exactly 1/2; q = 0.5 * (1 + 0.5) / 2 = 0.375
        gt = GroundTruth(
            rect=Rect2D(x1=0, y1=0, x2=2, y2=1),
            cuboid=Cuboid3D(cx=0, cy=1.0, cz=0, w=1, h=2, l=1, yaw=0),
        )
        det = DetectionBox(
            rect=Rect2D(x1=0, y1=0, x2=1, y2=1),
            cuboid=Cuboid3D(cx=0, cy=0.5, cz=0, w=1, h=1, l=1, yaw=0),
        )
        assert q_match(det, gt) == 0.375


class TestAssignTargets:
    def test_no_gts_all_negative(self):
        det = make_det(make_gt(), 0.9)
        out = assign_targets([det], [])
        assert np.array_equal(out.targets, [0])

    def test_best_box_above_beta_is_positive(self):
        gt = make_gt()
        close = make_det(gt, 0.9)
        far = make_det(gt, 0.8, dx=3.0)
        out = assign_targets([far, close], [gt])
        assert np.array_equal(out.targets, [0, 1])
        assert out.matched_gt[1] == 0

    def test_below_beta_stays_negative(self):
        gt = make_gt()
        det = make_det(gt, 0.9, dx=3.5)
        assert q_match(det, gt) < DEFAULT_BETA
        out = assign_targets([det], [gt])
        assert np.array_equal(out.targets, [0])

    def test_one_box_argmax_for_two_gts_counts_once(self):
        gt = make_gt()
        twin = make_gt()
        det = make_det(gt, 0.9)
        out = assign_targets([det], [gt, twin])
        assert int(out.targets.sum()) == 1
        assert out.matched_gt[0] == 0  # first gt that chose the box

    def test_dontcare_gt_assigns_nothing(self):
        gt = make_gt(dontcare=True)
        det = make_det(gt, 0.9)
        out = assign_targets([det], [gt])
        assert np.array_equal(out.targets, [0])
        assert np.array_equal(out.quality, [[0.0]])

    def test_gt_without_cuboid_assigns_nothing_even_at_zero_beta(self):
        gt = make_gt()
        boxes = [make_det(gt, 0.9), make_det(gt, 0.8)]
        out = assign_targets(boxes, [GroundTruth(rect=gt.rect, cuboid=None)], beta=0.0)
        assert np.array_equal(out.targets, [0, 0])
        assert np.array_equal(out.matched_gt, [-1, -1])
        assert np.array_equal(out.quality, [[0.0], [0.0]])

    def test_box_without_cuboid_is_never_picked_even_at_zero_beta(self):
        gt = make_gt()
        out = assign_targets([DetectionBox(rect=gt.rect, cuboid=None)], [gt], beta=0.0)
        assert np.array_equal(out.targets, [0])
        assert np.array_equal(out.matched_gt, [-1])
        # The cuboid-less box comes first; the ground truth still picks the one with a cuboid.
        far = make_det(gt, 0.5, dx=3.5)
        out = assign_targets([DetectionBox(rect=gt.rect, cuboid=None), far], [gt], beta=0.0)
        assert np.array_equal(out.targets, [0, 1])
        assert np.array_equal(out.matched_gt, [-1, 0])

    def test_positive_count_bounded_by_gts(self):
        gts = [make_gt(cx=float(i) * 12.0) for i in range(3)]
        dets = [make_det(g, 0.5 + 0.1 * k) for k, g in enumerate(gts) for _ in range(4)]
        out = assign_targets(dets, gts)
        assert out.targets.sum() <= len(gts)


class TestAveragePrecision:
    def test_perfect_ranking(self):
        assert average_precision([0.9, 0.8, 0.2], [1, 1, 0]) == 1.0

    def test_single_positive_ranked_second(self):
        assert average_precision([0.9, 0.4], [0, 1]) == 0.5

    def test_two_positives_ranks_one_and_three(self):
        value = average_precision([0.9, 0.8, 0.7], [1, 0, 1])
        assert value == pytest.approx(5.0 / 6.0)

    def test_no_positives_returns_none(self):
        assert average_precision([0.9, 0.1], [0, 0]) is None

    def test_ties_break_by_index(self):
        # equal rescores: the positive at the lower index ranks first
        assert average_precision([0.5, 0.5], [1, 0]) == 1.0
        assert average_precision([0.5, 0.5], [0, 1]) == 0.5

    def test_shape_mismatch_raises(self):
        with pytest.raises(ValueError):
            average_precision([0.5], [1, 0])

    @given(
        grid=st.lists(st.integers(min_value=0, max_value=64), min_size=2, max_size=12),
        data=st.data(),
    )
    def test_invariant_under_monotone_transform(self, grid, data):
        targets = data.draw(
            st.lists(st.integers(min_value=0, max_value=1), min_size=len(grid), max_size=len(grid))
        )
        r = np.array(grid) / 64.0
        transformed = 0.2 + 0.6 * r  # strictly increasing, preserves ties on this grid
        assert average_precision(r, targets) == average_precision(transformed, targets)


class TestImagewiseApLoss:
    def test_hand_value(self):
        batch = [
            ([0.9, 0.1], [1, 0]),  # AP 1
            ([0.9, 0.4], [0, 1]),  # AP 0.5
        ]
        out = imagewise_ap_loss(batch)
        assert out.value == pytest.approx(0.25)
        assert out.images_with_positives == 2
        assert not out.no_signal

    def test_positive_free_images_are_excluded(self):
        batch = [
            ([0.9, 0.4], [0, 1]),
            ([0.9, 0.1], [0, 0]),
        ]
        out = imagewise_ap_loss(batch)
        assert out.value == pytest.approx(0.5)
        assert out.images_with_positives == 1

    def test_all_positive_free_flags_no_signal(self):
        out = imagewise_ap_loss([([0.5], [0]), ([0.3], [0])])
        assert out.value == 0.0
        assert out.no_signal

    def test_empty_batch_raises(self):
        with pytest.raises(ValueError):
            imagewise_ap_loss([])

    def test_single_positive_box(self):
        out = imagewise_ap_loss([([0.7], [1])])
        assert out.value == 0.0


class TestApLossGradient:
    def test_zero_at_perfect_ranking(self):
        grad = ap_loss_gradient([0.9, 0.8, 0.2, 0.1], [1, 1, 0, 0])
        assert np.array_equal(grad, np.zeros(4))

    def test_single_violating_pair(self):
        grad = ap_loss_gradient([0.4, 0.9], [1, 0])
        assert np.array_equal(grad, [-1.0, 1.0])

    def test_degenerate_inputs_give_zero(self):
        assert np.array_equal(ap_loss_gradient([0.5, 0.4], [1, 1]), np.zeros(2))
        assert np.array_equal(ap_loss_gradient([0.5, 0.4], [0, 0]), np.zeros(2))

    def test_gradient_sums_to_zero(self):
        rng = np.random.default_rng(77)
        for _ in range(20):
            n = int(rng.integers(2, 15))
            r = rng.uniform(0.0, 1.0, n)
            t = rng.integers(0, 2, n)
            grad = ap_loss_gradient(r, t)
            assert abs(grad.sum()) <= 1e-12

    def test_margin_widens_violations(self):
        r = [0.6, 0.5]
        t = [1, 0]
        assert np.array_equal(ap_loss_gradient(r, t, margin=0.0), np.zeros(2))
        assert np.array_equal(ap_loss_gradient(r, t, margin=0.2), [-1.0, 1.0])

    def test_perfect_image_untouched_in_batch(self):
        perfect = ap_loss_gradient([0.9, 0.1], [1, 0])
        mixed = ap_loss_gradient([0.2, 0.8], [1, 0])
        assert np.array_equal(perfect, np.zeros(2))
        assert not np.array_equal(mixed, np.zeros(2))

    def test_descent_reaches_perfect_ranking(self):
        rng = np.random.default_rng(123)
        r = rng.uniform(0.0, 1.0, 10)
        t = np.array([1, 0, 1, 0, 0, 1, 0, 0, 0, 1])
        for _ in range(200):
            r = r - 0.05 * ap_loss_gradient(r, t)
        assert average_precision(r, t) == 1.0


class TestFilterGts:
    def test_default_rules_table(self):
        assert DEFAULT_DIFFICULTY_RULES[Difficulty.EASY] == DifficultyRule(40.0, 0, 0.15)
        assert DEFAULT_DIFFICULTY_RULES[Difficulty.MODERATE] == DifficultyRule(25.0, 1, 0.30)
        assert DEFAULT_DIFFICULTY_RULES[Difficulty.HARD] == DifficultyRule(25.0, 2, 0.50)

    def test_filters_by_height_occlusion_truncation(self):
        tall = make_gt(rect=Rect2D(x1=0, y1=0, x2=30, y2=50))
        short = make_gt(rect=Rect2D(x1=0, y1=0, x2=30, y2=30))
        occluded = make_gt(rect=Rect2D(x1=0, y1=0, x2=30, y2=50), occlusion=2)
        truncated = make_gt(rect=Rect2D(x1=0, y1=0, x2=30, y2=50), truncation=0.4)
        rule = DEFAULT_DIFFICULTY_RULES[Difficulty.EASY]
        assert filter_gts([tall, short, occluded, truncated], rule) == [tall]

    def test_dontcare_and_missing_cuboid_always_dropped(self):
        dc = make_gt(dontcare=True)
        flat = GroundTruth(rect=Rect2D(x1=0, y1=0, x2=10, y2=50))
        keep = make_gt()
        assert filter_gts([dc, flat, keep], None) == [keep]


class TestEvalApR40:
    def test_perfect_detections_score_100(self):
        gts = [make_gt(cx=float(i) * 15.0) for i in range(4)]
        dets = [make_det(g, 1.0) for g in gts]
        assert eval_ap_r40([(dets, gts)]) == 100.0

    def test_no_detections_score_zero(self):
        gts = [make_gt()]
        assert eval_ap_r40([([], gts)]) == 0.0

    def test_half_detected_scores_50(self):
        gts = [make_gt(cx=float(i) * 15.0) for i in range(4)]
        dets = [make_det(g, 1.0) for g in gts[:2]]
        assert eval_ap_r40([(dets, gts)]) == 50.0

    def test_no_gts_returns_none(self):
        det = make_det(make_gt(), 0.9)
        assert eval_ap_r40([([det], [])]) is None

    def test_gt_matched_at_most_once(self):
        gt = make_gt()
        dets = [make_det(gt, 0.9), make_det(gt, 0.8)]
        # second perfect duplicate is a false positive, pulling AP below 100
        value = eval_ap_r40([(dets, [gt])])
        assert value == 100.0  # recall 1 reached before the duplicate counts

    def test_duplicate_before_recall_complete_hurts(self):
        gts = [make_gt(cx=0.0), make_gt(cx=20.0)]
        dets = [make_det(gts[0], 0.9), make_det(gts[0], 0.8), make_det(gts[1], 0.7)]
        value = eval_ap_r40([(dets, gts)])
        assert value < 100.0

    def test_matches_brute_force_reference(self):
        rng = np.random.default_rng(31)
        scenes = []
        for _ in range(10):
            gts = [make_gt(cx=float(i) * 14.0 + rng.uniform(-1, 1)) for i in range(3)]
            dets = []
            for g in gts:
                for _ in range(int(rng.integers(1, 4))):
                    dets.append(make_det(g, float(rng.uniform(0.1, 1.0)), dx=float(rng.uniform(0.0, 2.5))))
            scenes.append((dets, gts))
        mine = eval_ap_r40(scenes, 0.5)
        ref = reference_ap_r40(scenes, 0.5)
        assert mine == pytest.approx(ref, abs=1e-9)
