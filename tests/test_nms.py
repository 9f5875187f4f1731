import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from diffnms import (
    NmsConfig,
    NmsVariant,
    Pruning,
    ScoreRangeError,
    group_boxes,
    masked_rescore,
    prune,
    prune_derivative,
    random_instance,
    run_nms,
    sort_by_score,
)
from oracles import build_mask, rescore_product_oracle, rescore_recursive_oracle

LINEAR = NmsConfig(pruning=Pruning.LINEAR)
HARD = NmsConfig(pruning=Pruning.HARD)


def greedy_nms(scores, overlaps, cfg):
    """run_nms with the greedy variant that cfg's pruning kind allows."""
    variant = NmsVariant.CLASSICAL if cfg.pruning is Pruning.HARD else NmsVariant.SOFT
    return run_nms(scores, overlaps, cfg, variant)


def full_solve(scores, overlaps, cfg):
    """The full-inverse pre-clip values, (I + P)^-1 s, in score order."""
    order = np.argsort(-np.asarray(scores, dtype=float), kind="stable")
    return run_nms(scores, overlaps, cfg, NmsVariant.FULL_INVERSE).pre_clip[order]


class TestConfig:
    def test_defaults(self):
        cfg = NmsConfig()
        assert cfg.nt == 0.4
        assert cfg.valid_threshold == 0.3
        assert cfg.max_group_size == 100
        assert cfg.pruning is Pruning.HARD
        assert cfg.tau is None

    def test_tau_defaults_per_kind(self):
        assert NmsConfig(pruning=Pruning.EXPONENTIAL).tau == 0.5
        assert NmsConfig(pruning=Pruning.SIGMOIDAL).tau == 0.1

    def test_rejects_bad_values(self):
        with pytest.raises(ValueError):
            NmsConfig(nt=1.5)
        with pytest.raises(ValueError):
            NmsConfig(valid_threshold=-0.1)
        with pytest.raises(ValueError):
            NmsConfig(max_group_size=0)
        for cap in (2.5, 2.0, True, np.float64(3.0), np.bool_(True)):
            with pytest.raises(ValueError, match="max_group_size must be an integer"):
                NmsConfig(max_group_size=cap)
        with pytest.raises(ValueError):
            NmsConfig(pruning=Pruning.EXPONENTIAL, tau=0.0)
        for tau in (math.inf, math.nan, -math.inf):
            with pytest.raises(ValueError, match="tau must be finite and positive for sigmoid pruning"):
                NmsConfig(pruning=Pruning.SIGMOIDAL, tau=tau)

    def test_plain_string_pruning_becomes_its_kind(self):
        exp = NmsConfig(pruning="exp")
        assert exp.pruning is Pruning.EXPONENTIAL
        assert exp.tau == 0.5
        assert prune(0.3, exp) == prune(0.3, NmsConfig(pruning=Pruning.EXPONENTIAL))
        assert prune(0.3, exp) == pytest.approx(0.1647, abs=1e-4)
        linear = NmsConfig(pruning="linear")
        assert linear.pruning is Pruning.LINEAR
        assert prune(0.3, linear) == 0.3

    def test_unknown_pruning_is_rejected_at_construction(self):
        with pytest.raises(ValueError, match="'bogus' is not a valid Pruning"):
            NmsConfig(pruning="bogus")

    def test_accepts_integer_caps(self):
        for cap in (1, 7, np.int64(3), np.int32(2)):
            assert NmsConfig(max_group_size=cap).max_group_size == cap


class TestPrune:
    def test_hard_is_step_at_nt(self):
        cfg = HARD
        assert prune(0.4, cfg) == 0.0  # boundary stays unpruned
        assert prune(0.41, cfg) == 1.0
        assert prune(0.0, cfg) == 0.0

    def test_linear_is_identity(self):
        assert prune(0.5, LINEAR) == 0.5
        assert prune(0.0, LINEAR) == 0.0

    def test_exponential_at_zero(self):
        cfg = NmsConfig(pruning=Pruning.EXPONENTIAL, tau=0.5)
        assert prune(0.0, cfg) == 0.0
        assert prune(0.5, cfg) == pytest.approx(1.0 - math.exp(-0.5))

    def test_sigmoidal_half_at_nt(self):
        cfg = NmsConfig(pruning=Pruning.SIGMOIDAL, tau=0.1)
        assert prune(cfg.nt, cfg) == pytest.approx(0.5)

    def test_array_input(self):
        out = prune(np.array([0.0, 0.5, 1.0]), LINEAR)
        assert np.array_equal(out, [0.0, 0.5, 1.0])

    @given(o=st.floats(min_value=0.0, max_value=1.0))
    def test_all_kinds_stay_in_unit_interval(self, o):
        for cfg in (
            HARD,
            LINEAR,
            NmsConfig(pruning=Pruning.EXPONENTIAL),
            NmsConfig(pruning=Pruning.SIGMOIDAL),
        ):
            assert 0.0 <= prune(o, cfg) <= 1.0


class TestPruneDerivative:
    def test_hard_raises(self):
        with pytest.raises(ValueError, match="non-differentiable"):
            prune_derivative(0.5, HARD)

    def test_linear_is_one(self):
        assert prune_derivative(0.73, LINEAR) == 1.0

    def test_exponential_at_zero(self):
        cfg = NmsConfig(pruning=Pruning.EXPONENTIAL, tau=0.5)
        assert prune_derivative(0.0, cfg) == 0.0

    def test_sigmoidal_peak_at_nt(self):
        cfg = NmsConfig(pruning=Pruning.SIGMOIDAL, tau=0.1)
        assert prune_derivative(cfg.nt, cfg) == pytest.approx(2.5)

    @given(o=st.floats(min_value=1e-4, max_value=1.0 - 1e-4))
    def test_matches_central_difference(self, o):
        eps = 1e-7
        for cfg in (
            LINEAR,
            NmsConfig(pruning=Pruning.EXPONENTIAL, tau=0.7),
            NmsConfig(pruning=Pruning.SIGMOIDAL, tau=0.2),
        ):
            fd = (prune(o + eps, cfg) - prune(o - eps, cfg)) / (2.0 * eps)
            assert prune_derivative(o, cfg) == pytest.approx(fd, abs=1e-5)


class TestSortAndPruneMatrix:
    def test_sort_order(self):
        s = np.array([0.2, 0.9, 0.5])
        o = np.eye(3)
        s_sorted, o_sorted, order = sort_by_score(s, o)
        assert np.array_equal(order, [1, 2, 0])
        assert np.array_equal(s_sorted, [0.9, 0.5, 0.2])
        assert np.array_equal(o_sorted, np.eye(3))

    def test_sort_is_stable_on_ties(self):
        s = np.array([0.5, 0.9, 0.5])
        _, _, order = sort_by_score(s, np.eye(3))
        assert np.array_equal(order, [1, 0, 2])


class TestGrouping:
    def test_chain_splits_after_top_absorbs(self):
        # 0-1 and 1-2 overlap above nt but 0-2 does not: 1 joins 0's group,
        # leaving 2 alone because grouping only compares against the top.
        o = np.array([[1.0, 0.6, 0.1], [0.6, 1.0, 0.6], [0.1, 0.6, 1.0]])
        part = group_boxes(o, HARD)
        assert part.groups == ((0, 1), (2,))
        assert part.capped_out == ()

    def test_everything_disjoint(self):
        part = group_boxes(np.eye(4), HARD)
        assert part.groups == ((0,), (1,), (2,), (3,))

    def test_group_size_cap(self):
        o = np.full((4, 4), 0.9)
        np.fill_diagonal(o, 1.0)
        part = group_boxes(o, NmsConfig(max_group_size=2))
        assert part.groups == ((0, 1),)
        assert part.capped_out == (2, 3)

    def test_degenerate_top_still_anchors_its_group(self):
        # zero self-overlap on the diagonal must not orphan the top box
        o = np.zeros((2, 2))
        part = group_boxes(o, HARD)
        assert part.groups == ((0,), (1,))

    def test_mask_shape(self):
        m = build_mask(3)
        assert np.array_equal(m, np.array([[1, 0, 0], [1, 0, 0], [1, 0, 0]], dtype=float))
        with pytest.raises(ValueError):
            build_mask(0)


class TestClassicalSoftNms:
    def test_hard_pair_suppresses(self):
        s = np.array([0.9, 0.6])
        o = np.array([[1.0, 0.5], [0.5, 1.0]])
        res = greedy_nms(s, o, HARD)
        assert np.array_equal(res.rescores, [0.9, 0.0])
        assert np.array_equal(res.kept, [0])

    def test_soft_linear_pair_decays(self):
        s = np.array([0.9, 0.6])
        o = np.array([[1.0, 0.5], [0.5, 1.0]])
        res = greedy_nms(s, o, LINEAR)
        assert res.rescores[1] == pytest.approx(0.3)
        assert np.array_equal(res.kept, [0, 1])

    def test_tie_goes_to_lower_index(self):
        s = np.array([0.7, 0.7])
        o = np.array([[1.0, 0.9], [0.9, 1.0]])
        res = greedy_nms(s, o, HARD)
        assert np.array_equal(res.rescores, [0.7, 0.0])

    def test_suppressed_box_no_longer_suppresses(self):
        # box 1 dies to box 0, so box 2 (overlapping only box 1) survives
        s = np.array([0.9, 0.8, 0.7])
        o = np.array([[1.0, 0.9, 0.0], [0.9, 1.0, 0.9], [0.0, 0.9, 1.0]])
        res = greedy_nms(s, o, HARD)
        assert np.array_equal(res.kept, [0, 2])
        assert np.array_equal(res.rescores, [0.9, 0.0, 0.7])


class TestMaskedRescore:
    def test_pair_hand_value(self):
        s = np.array([0.9, 0.6])
        o = np.array([[1.0, 0.5], [0.5, 1.0]])
        res = masked_rescore(s, o, NmsConfig(pruning=Pruning.LINEAR, nt=0.4))
        assert res.rescores[0] == 0.9
        assert res.rescores[1] == pytest.approx(0.15)
        assert res.pre_clip[1] == pytest.approx(0.6 - 0.5 * 0.9)

    def test_group_tops_keep_their_scores(self):
        rng = np.random.default_rng(5)
        s, o = random_instance(rng, 40)
        res = masked_rescore(s, o, LINEAR)
        part = group_boxes(sort_by_score(s, o)[1], LINEAR)
        order = np.argsort(-s, kind="stable")
        for group in part.groups:
            top_original = order[group[0]]
            assert res.rescores[top_original] == s[top_original]

    def test_capped_out_boxes_score_zero(self):
        s = np.array([0.9, 0.8, 0.7, 0.6])
        o = np.full((4, 4), 0.9)
        np.fill_diagonal(o, 1.0)
        cfg = NmsConfig(pruning=Pruning.LINEAR, max_group_size=2)
        res = masked_rescore(s, o, cfg)
        assert res.rescores[2] == 0.0
        assert res.rescores[3] == 0.0

    def test_input_order_does_not_matter(self):
        rng = np.random.default_rng(11)
        s, o = random_instance(rng, 25)
        perm = rng.permutation(25)
        base = masked_rescore(s, o, LINEAR).rescores
        shuffled = masked_rescore(s[perm], o[np.ix_(perm, perm)], LINEAR).rescores
        assert np.allclose(base[perm], shuffled, atol=1e-12)

    def test_rejects_scores_above_one(self):
        with pytest.raises(ValueError):
            masked_rescore(np.array([1.2]), np.eye(1), LINEAR)

    def test_empty_input(self):
        res = masked_rescore(np.zeros(0), np.zeros((0, 0)), LINEAR)
        assert res.rescores.size == 0 and res.kept.size == 0

    @given(seed=st.integers(min_value=0, max_value=10_000))
    def test_bounded_by_original_scores(self, seed):
        rng = np.random.default_rng(seed)
        s, o = random_instance(rng, int(rng.integers(1, 30)))
        res = masked_rescore(s, o, LINEAR)
        assert np.all(res.rescores >= 0.0)
        assert np.all(res.rescores <= s + 1e-15)


class TestInverseRescoring:
    def test_pair_matches_masked(self):
        s = np.array([0.9, 0.6])
        o = np.array([[1.0, 0.5], [0.5, 1.0]])
        assert run_nms(s, o, LINEAR, NmsVariant.FULL_INVERSE).rescores[1] == pytest.approx(0.15)
        assert run_nms(s, o, LINEAR, NmsVariant.GROUPED_INVERSE).rescores[1] == pytest.approx(0.15)

    def test_solve_matches_dense_linear_algebra(self):
        rng = np.random.default_rng(42)
        for _ in range(50):
            n = int(rng.integers(1, 30))
            L = np.tril(rng.uniform(0.0, 1.0, (n, n)), k=-1)
            b = rng.uniform(0.0, 1.0, n)
            # Descending scores keep the boxes in place, and linear pruning
            # passes the overlaps through, so P is L itself.
            b = -np.sort(-b)
            x = full_solve(b, L + L.T + np.eye(n), LINEAR)
            ref = np.linalg.solve(np.eye(n) + L, b)
            assert np.max(np.abs(x - ref)) <= 1e-12

    def test_recursive_oracle_equals_solve_when_unclipped(self):
        rng = np.random.default_rng(7)
        hits = 0
        for _ in range(200):
            n = int(rng.integers(2, 12))
            s, o = random_instance(rng, n)
            cfg = NmsConfig(pruning=Pruning.EXPONENTIAL, tau=1.5)
            s_sorted, o_sorted, _ = sort_by_score(s, o)
            pre = full_solve(s, o, cfg)
            if np.all(pre >= 0.0) and np.all(pre <= 1.0):
                oracle = rescore_recursive_oracle(s_sorted, o_sorted, cfg)
                assert np.array_equal(pre, oracle)
                hits += 1
        assert hits >= 20

    def test_product_oracle_converges_to_recursive_as_weights_vanish(self):
        rng = np.random.default_rng(3)
        s, o = random_instance(rng, 15)
        cfg = NmsConfig(pruning=Pruning.LINEAR)
        last = np.inf
        for scale in (0.1, 0.01, 0.001):
            s_sorted, o_sorted, _ = sort_by_score(s, o * scale)
            recursive = rescore_recursive_oracle(s_sorted, o_sorted, cfg)
            product = rescore_product_oracle(s_sorted, o_sorted, cfg)
            gap = float(np.max(np.abs(recursive - product)))
            assert gap < last
            last = gap
        assert last < 1e-3

    def test_negative_propagation_cannot_raise_a_score(self):
        # box 1 is pushed below zero by box 0; without the clamp the raw
        # solve would lift box 2 above its own score via the double negative
        s = np.array([0.9, 0.8, 0.79])
        o = np.array([[1.0, 0.9, 0.0], [0.9, 1.0, 0.9], [0.0, 0.9, 1.0]])
        pre = full_solve(s, o, LINEAR)
        assert pre[2] > s[2]
        r = run_nms(s, o, LINEAR, NmsVariant.FULL_INVERSE).rescores
        assert r[2] == s[2]
        assert np.all(r <= s)

    def test_frobenius_identity(self):
        rng = np.random.default_rng(9)
        for _ in range(25):
            n = int(rng.integers(1, 30))
            mp = build_mask(n) * np.tril(rng.uniform(0.0, 1.0, (n, n)), k=-1)
            product = (np.eye(n) + mp) @ (np.eye(n) - mp)
            assert np.max(np.abs(product - np.eye(n))) <= 1e-12


class TestRunNms:
    def test_variant_pruning_conflicts(self):
        s = np.array([0.5])
        o = np.eye(1)
        with pytest.raises(ValueError, match="classical"):
            run_nms(s, o, LINEAR, NmsVariant.CLASSICAL)
        with pytest.raises(ValueError, match="soft"):
            run_nms(s, o, HARD, NmsVariant.SOFT)

    @pytest.mark.parametrize("variant", list(NmsVariant))
    def test_out_of_range_score_reports_first_index(self, variant):
        s = np.array([0.5, -0.1, 0.2, -0.3])
        cfg = HARD if variant in (NmsVariant.CLASSICAL, NmsVariant.MASKED) else LINEAR
        with pytest.raises(ScoreRangeError, match="non-negative, got -0.1") as exc:
            run_nms(s, np.eye(4), cfg, variant)
        assert exc.value.index == 1

    def test_masked_accepts_hard_pruning(self):
        s = np.array([0.9, 0.6])
        o = np.array([[1.0, 0.5], [0.5, 1.0]])
        res = run_nms(s, o, HARD, NmsVariant.MASKED)
        assert np.array_equal(res.rescores, [0.9, 0.0])

    def test_all_variants_agree_on_disjoint_boxes(self):
        s = np.array([0.9, 0.6, 0.4])
        o = np.eye(3)
        for variant, cfg in (
            (NmsVariant.CLASSICAL, HARD),
            (NmsVariant.SOFT, LINEAR),
            (NmsVariant.MASKED, LINEAR),
            (NmsVariant.FULL_INVERSE, LINEAR),
            (NmsVariant.GROUPED_INVERSE, LINEAR),
        ):
            res = run_nms(s, o, cfg, variant)
            assert np.array_equal(res.rescores, s), variant

    def test_valid_threshold_controls_kept(self):
        s = np.array([0.9, 0.6])
        o = np.array([[1.0, 0.5], [0.5, 1.0]])
        low = run_nms(s, o, NmsConfig(pruning=Pruning.LINEAR, valid_threshold=0.1), NmsVariant.MASKED)
        high = run_nms(s, o, NmsConfig(pruning=Pruning.LINEAR, valid_threshold=0.3), NmsVariant.MASKED)
        assert np.array_equal(low.kept, [0, 1])
        assert np.array_equal(high.kept, [0])

    def test_deterministic_across_calls(self):
        rng = np.random.default_rng(21)
        s, o = random_instance(rng, 60)
        first = run_nms(s, o, LINEAR, NmsVariant.GROUPED_INVERSE)
        second = run_nms(s, o, LINEAR, NmsVariant.GROUPED_INVERSE)
        assert np.array_equal(first.rescores, second.rescores)
        assert np.array_equal(first.kept, second.kept)

    def test_string_variant_accepted(self):
        s = np.array([0.5])
        res = run_nms(s, np.eye(1), LINEAR, "full-inverse")
        assert res.rescores[0] == 0.5
