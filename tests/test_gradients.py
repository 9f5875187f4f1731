import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from diffnms import (
    NmsConfig,
    Pruning,
    RectOverlaps,
    ScoreRangeError,
    finite_difference_check,
    masked_backward,
    masked_jacobians,
    masked_rescore,
    random_instance,
)
from diffnms import gradients, nms
from oracles import reference_finite_difference_check

LINEAR = NmsConfig(pruning=Pruning.LINEAR)

SOFT_CONFIGS = [
    LINEAR,
    NmsConfig(pruning=Pruning.EXPONENTIAL, tau=0.1),
    NmsConfig(pruning=Pruning.EXPONENTIAL, tau=0.5),
    NmsConfig(pruning=Pruning.EXPONENTIAL, tau=1.0),
    NmsConfig(pruning=Pruning.SIGMOIDAL, tau=0.1),
]


def pair_instance():
    s = np.array([0.9, 0.6])
    o = np.array([[1.0, 0.5], [0.5, 1.0]])
    return s, o


class TestMaskedBackward:
    def test_two_box_hand_gradient(self):
        s, o = pair_instance()
        g = masked_backward(s, o, LINEAR, upstream=np.array([0.0, 1.0]))
        assert np.allclose(g.score_grad, [-0.5, 1.0], atol=1e-15)
        assert set(g.overlap_grad) == {(1, 0)}
        assert g.overlap_grad[(1, 0)] == pytest.approx(-0.9)

    def test_no_overlap_is_identity(self):
        s = np.array([0.8, 0.5, 0.2])
        up = np.array([1.0, -2.0, 3.0])
        g = masked_backward(s, np.eye(3), LINEAR, upstream=up)
        assert np.max(np.abs(g.score_grad - up)) <= 1e-10
        assert g.overlap_grad == {}

    def test_clipped_member_gets_no_gradient(self):
        s = np.array([0.9, 0.3])
        o = np.array([[1.0, 0.9], [0.9, 1.0]])
        g = masked_backward(s, o, LINEAR, upstream=np.array([1.0, 1.0]))
        # pre-clip of box 1 is 0.3 - 0.81 < 0: its gate closes every path
        assert g.score_grad[1] == 0.0
        assert g.score_grad[0] == 1.0
        assert g.overlap_grad == {}

    def test_hard_pruning_raises(self):
        s, o = pair_instance()
        with pytest.raises(ValueError, match="non-differentiable"):
            masked_backward(s, o, NmsConfig(pruning=Pruning.HARD), upstream=np.ones(2))

    @pytest.mark.parametrize("upstream", [np.ones(3), np.ones((2, 1)), np.float64(1.0)])
    def test_upstream_of_the_wrong_shape_raises(self, upstream):
        s, o = pair_instance()
        message = f"upstream gradient must have shape (2,), got {np.shape(upstream)}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            masked_backward(s, o, LINEAR, upstream=upstream)

    def test_linear_in_upstream(self):
        rng = np.random.default_rng(13)
        s, o = random_instance(rng, 20)
        u1 = rng.normal(size=20)
        u2 = rng.normal(size=20)
        combined = masked_backward(s, o, LINEAR, 2.0 * u1 - 3.0 * u2)
        g1 = masked_backward(s, o, LINEAR, u1)
        g2 = masked_backward(s, o, LINEAR, u2)
        assert np.allclose(combined.score_grad, 2.0 * g1.score_grad - 3.0 * g2.score_grad, atol=1e-12)
        for key in set(g1.overlap_grad) | set(g2.overlap_grad):
            expected = 2.0 * g1.overlap_grad.get(key, 0.0) - 3.0 * g2.overlap_grad.get(key, 0.0)
            assert combined.overlap_grad.get(key, 0.0) == pytest.approx(expected, abs=1e-12)

    def test_matches_jacobian_contraction(self):
        rng = np.random.default_rng(29)
        s, o = random_instance(rng, 30)
        up = rng.normal(size=30)
        g = masked_backward(s, o, LINEAR, up)
        jac, o_grads = masked_jacobians(s, o, LINEAR)
        assert np.allclose(g.score_grad, up @ jac, atol=1e-12)
        assert set(g.overlap_grad) == set(o_grads)
        for (i, t), value in o_grads.items():
            assert g.overlap_grad[(i, t)] == pytest.approx(up[i] * value, abs=1e-12)


class TestMaskedJacobians:
    def test_diagonal_entries_are_gates(self):
        rng = np.random.default_rng(4)
        s, o = random_instance(rng, 25)
        jac, _ = masked_jacobians(s, o, LINEAR)
        res = masked_rescore(s, o, LINEAR)
        for i in range(25):
            expected = 1.0 if 0.0 <= res.pre_clip[i] <= 1.0 else 0.0
            assert jac[i, i] == expected

    def test_cross_group_entries_are_zero(self):
        # two far-apart overlapping pairs: no gradient crosses the gap
        s = np.array([0.9, 0.6, 0.8, 0.5])
        o = np.eye(4)
        o[0, 1] = o[1, 0] = 0.45
        o[2, 3] = o[3, 2] = 0.45
        jac, o_grads = masked_jacobians(s, o, LINEAR)
        for i in (0, 1):
            for j in (2, 3):
                assert jac[i, j] == 0.0
                assert jac[j, i] == 0.0
        assert set(o_grads) == {(1, 0), (3, 2)}

    def test_capped_out_rows_are_zero(self):
        s = np.array([0.9, 0.8, 0.7])
        o = np.full((3, 3), 0.9)
        np.fill_diagonal(o, 1.0)
        cfg = NmsConfig(pruning=Pruning.LINEAR, max_group_size=2)
        jac, o_grads = masked_jacobians(s, o, cfg)
        assert np.array_equal(jac[2], np.zeros(3))
        assert (2, 0) not in o_grads


class TestFiniteDifferenceCheck:
    @pytest.mark.parametrize("cfg", SOFT_CONFIGS, ids=lambda c: f"{c.pruning.value}-tau{c.tau}")
    def test_passes_on_random_instances(self, cfg):
        rng = np.random.default_rng(1234)
        for _ in range(10):
            n = int(rng.integers(4, 16))
            s, o = random_instance(rng, n)
            report = finite_difference_check(s, o, cfg)
            assert report.passed, (cfg.pruning, report.max_rel_error, report.worst)
            assert report.max_rel_error <= 1e-4

    def test_counts_add_up(self):
        rng = np.random.default_rng(8)
        s, o = random_instance(rng, 12)
        report = finite_difference_check(s, o, LINEAR)
        _, o_grads = masked_jacobians(s, o, LINEAR)
        assert report.checked + report.skipped == 12 * 12 + len(o_grads)

    def test_tolerance_zero_fails(self):
        rng = np.random.default_rng(15)
        s, o = random_instance(rng, 10)
        report = finite_difference_check(s, o, LINEAR, tolerance=0.0)
        assert not report.passed
        assert report.worst is not None

    def test_hard_pruning_raises(self):
        s, o = pair_instance()
        with pytest.raises(ValueError, match="non-differentiable"):
            finite_difference_check(s, o, NmsConfig(pruning=Pruning.HARD))

    @given(seed=st.integers(min_value=0, max_value=500))
    def test_sigmoidal_never_exceeds_tolerance(self, seed):
        rng = np.random.default_rng(seed)
        s, o = random_instance(rng, 8)
        cfg = NmsConfig(pruning=Pruning.SIGMOIDAL, tau=0.1)
        report = finite_difference_check(s, o, cfg)
        assert report.passed, (seed, report.max_rel_error, report.worst)

    @pytest.mark.parametrize("eps", [0.0, -1e-6, np.nan, np.inf])
    def test_eps_must_be_finite_and_positive(self, eps):
        s, o = pair_instance()
        with pytest.raises(ValueError, match="eps must be finite and positive"):
            finite_difference_check(s, o, LINEAR, eps=eps)

    @pytest.mark.parametrize("tolerance", [-1.0, np.nan])
    def test_tolerance_must_not_be_negative(self, tolerance):
        s, o = pair_instance()
        with pytest.raises(ValueError, match="tolerance must be at least 0"):
            finite_difference_check(s, o, LINEAR, tolerance=tolerance)

    @pytest.mark.parametrize("bad", [np.nan, 1.5, -0.25])
    def test_out_of_range_overlaps_are_rejected(self, bad):
        s, o = pair_instance()
        o[1, 0] = bad
        with pytest.raises(ValueError, match=r"^overlap values must be finite and lie in \[0, 1\]$"):
            finite_difference_check(s, o, LINEAR)


BACKWARDS = pytest.mark.parametrize(
    "backward",
    [
        lambda s, o: masked_backward(s, o, LINEAR, np.ones(s.size)),
        lambda s, o: masked_jacobians(s, o, LINEAR),
        lambda s, o: finite_difference_check(s, o, LINEAR),
    ],
    ids=["masked_backward", "masked_jacobians", "finite_difference_check"],
)


@pytest.mark.parametrize(
    "overlaps, message",
    [("high", "str"), ([["a", "b"], ["c", "d"]], "list")],
    ids=["string", "strings"],
)
@BACKWARDS
def test_backward_takes_the_overlap_matrix(overlaps, message, backward):
    s, _ = pair_instance()
    with pytest.raises(ValueError, match=rf"^expected the \(2, 2\) overlap matrix, got {message}$"):
        backward(s, overlaps)


@pytest.mark.parametrize(
    "rects, message",
    [
        (np.zeros((1, 4)), r"overlaps must cover 2 boxes, got 1"),
        # The area of the first rectangle overflows, so its own overlap is NaN.
        (
            np.array([[-1e308, -1e308, 1e308, 1e308], [0.0, 0.0, 1.0, 1.0]]),
            r"overlap values must be finite and lie in \[0, 1\]",
        ),
    ],
    ids=["count", "overflow"],
)
@BACKWARDS
def test_backward_rect_errors_are_the_forwards(rects, message, backward):
    s, _ = pair_instance()
    with pytest.raises(ValueError) as forward:
        masked_rescore(s, RectOverlaps(rects), LINEAR)
    with pytest.raises(ValueError, match=rf"^{message}$") as raised:
        backward(s, RectOverlaps(rects))
    assert str(raised.value) == str(forward.value)


@pytest.mark.parametrize("overlaps", [np.eye(3), np.ones(2), np.zeros((2, 2, 1))], ids=["3x3", "1-d", "3-d"])
@BACKWARDS
def test_backward_shape_error_is_the_forwards(overlaps, backward):
    s, _ = pair_instance()
    with pytest.raises(ValueError) as forward:
        masked_rescore(s, overlaps, LINEAR)
    with pytest.raises(ValueError, match=r"^overlap matrix must have shape \(2, 2\), got ") as raised:
        backward(s, overlaps)
    assert str(raised.value) == str(forward.value)


@pytest.mark.parametrize("bad", [np.nan, -0.25, 1.5])
@BACKWARDS
def test_backward_rejects_the_scores_the_forward_rejects(bad, backward):
    s, o = pair_instance()
    s[0] = bad
    with pytest.raises(ScoreRangeError) as forward:
        masked_rescore(s, o, LINEAR)
    with pytest.raises(ScoreRangeError) as raised:
        backward(s, o)
    assert str(raised.value) == str(forward.value)


def test_backward_checks_a_matrix_by_shape_only():
    # Box 1 joins box 0's group, so no forward reads o[0, 1]; the check's
    # range test alone sees it.
    s, o = pair_instance()
    bad = o.copy()
    bad[0, 1] = 1.5
    up = np.array([0.5, -1.0])
    assert masked_backward(s, bad, LINEAR, up).overlap_grad == masked_backward(s, o, LINEAR, up).overlap_grad
    assert np.array_equal(masked_jacobians(s, bad, LINEAR)[0], masked_jacobians(s, o, LINEAR)[0])
    with pytest.raises(ValueError, match=r"^overlap values must be finite and lie in \[0, 1\]$"):
        finite_difference_check(s, bad, LINEAR)


SOFT = [p for p in Pruning if p is not Pruning.HARD]


def _perturbed_rescores(S, base, width, inst, patch, cfg):
    """The masked forward's rescores of validated rows S, row r reading instance inst[r] of base, perturbed."""
    slots = np.where(S > -np.inf, np.arange(S.size).reshape(S.shape), -1)
    return nms._masked_sorted(S, gradients._RowOverlaps(base, width, inst, patch), cfg, slots)[3]


def _patched_rescores(scores, o, i, t, delta, cfg):
    """masked_rescore on a copy of o whose entries (i, t) and (t, i) are each delta higher, when i >= 0."""
    patched = o.copy()
    if i >= 0:
        patched[i, t] += delta
        patched[t, i] += delta
    return masked_rescore(scores, patched, cfg).rescores


def _kinked_instance(draw, n):
    """A random instance of n boxes with some scores near a tie or near 0 or 1."""
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    scores, overlaps = random_instance(rng, n)
    for k in draw(st.lists(st.integers(min_value=0, max_value=n - 1), max_size=3)) if n else []:
        offset = draw(st.floats(min_value=0.0, max_value=2e-2))
        kind = draw(st.sampled_from(["tie", "zero", "one"]))
        if kind == "tie":
            scores[k] = min(1.0, scores[(k + 1) % n] + offset / 20.0)
        else:
            scores[k] = offset if kind == "zero" else 1.0 - offset
    return scores, overlaps


def _soft_config(draw):
    return NmsConfig(pruning=draw(st.sampled_from(SOFT)), max_group_size=draw(st.sampled_from([1, 3, None])))


@st.composite
def kinked_instances(draw):
    """A random instance with some scores near a tie or near 0 or 1, a soft config and an eps."""
    scores, overlaps = _kinked_instance(draw, draw(st.integers(min_value=1, max_value=10)))
    cfg = _soft_config(draw)
    return scores, overlaps, cfg, draw(st.sampled_from([1e-6, 1e-2]))


@st.composite
def kinked_batches(draw):
    """0 to 8 kinked instances of 0 to 12 boxes, one perhaps of up to 60, a soft config and an eps."""
    sizes = draw(st.lists(st.integers(min_value=0, max_value=12), max_size=8))
    if sizes and draw(st.booleans()):
        sizes[draw(st.integers(min_value=0, max_value=len(sizes) - 1))] = draw(st.integers(min_value=13, max_value=60))
    instances = [_kinked_instance(draw, n) for n in sizes]
    return instances, _soft_config(draw), draw(st.sampled_from([1e-6, 1e-2]))


class TestBatchedFiniteDifferences:
    """The batched check against the per-coordinate loop it replaced, bit for bit."""

    @settings(max_examples=150)
    @given(case=kinked_instances(), block=st.sampled_from(["default", "1", "2n+1", "6n+1"]))
    def test_report_matches_reference(self, case, block):
        scores, overlaps, cfg, eps = case
        # One coordinate per block, or three so that the last block is often
        # partial, besides the default bound.
        n = scores.size
        entries = {"default": gradients._BLOCK_ENTRIES, "1": 1, "2n+1": 2 * n + 1, "6n+1": 6 * n + 1}[block]
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(gradients, "_BLOCK_ENTRIES", entries)
            got = finite_difference_check(scores, overlaps, cfg, eps=eps)
        want = reference_finite_difference_check(scores, overlaps, cfg, eps=eps)
        assert got == want
        assert got.max_rel_error.hex() == want.max_rel_error.hex()

    def test_worst_is_none_when_every_checked_error_is_zero(self):
        # Apart boxes under linear pruning: each rescore is its score, and a
        # step of 2^-20 on these dyadic scores differentiates exactly.
        scores, overlaps = np.array([0.5, 0.25]), np.eye(2)
        got = finite_difference_check(scores, overlaps, LINEAR, eps=2.0**-20)
        assert (got.checked, got.skipped, got.max_rel_error, got.worst) == (4, 0, 0.0, None)
        assert got == reference_finite_difference_check(scores, overlaps, LINEAR, eps=2.0**-20)

    @settings(max_examples=150)
    @given(
        case=kinked_batches(),
        block=st.sampled_from([gradients._BLOCK_ENTRIES, 1, 200]),
        chunk=st.sampled_from([gradients._CHUNK_ENTRIES, 1, 300, 1000]),
    )
    def test_batched_reports_match_reference(self, case, block, chunk):
        """The reports of one batched pass equal the per-coordinate loop's on each instance.

        Small block and chunk bounds split blocks inside an instance (200
        entries hold 8 coordinates of 12 boxes) and chunks inside the batch
        (300 entries hold two instances of 12 boxes, 1000 hold six).
        """
        instances, cfg, eps = case
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(gradients, "_BLOCK_ENTRIES", block)
            patch.setattr(gradients, "_CHUNK_ENTRIES", chunk)
            got = list(gradients._check_instances(instances, cfg, eps, 1e-4))
        want = [reference_finite_difference_check(s, o, cfg, eps=eps) for s, o in instances]
        assert got == want
        assert [r.max_rel_error.hex() for r in got] == [r.max_rel_error.hex() for r in want]

    @settings(max_examples=150)
    @given(
        n=st.integers(min_value=1, max_value=40),
        rows=st.integers(min_value=1, max_value=6),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        pruning=st.sampled_from(SOFT),
        cap=st.sampled_from([1, 2, 3, None]),
        symmetric=st.booleans(),
        eps=st.sampled_from([1e-6, 1e-2]),
    )
    def test_batch_rows_match_masked_rescore(self, n, rows, seed, pruning, cap, symmetric, eps):
        rng = np.random.default_rng(seed)
        cfg = NmsConfig(pruning=pruning, max_group_size=cap)
        _, o = random_instance(rng, n)
        if not symmetric:
            o = np.where(rng.random((n, n)) < 0.5, o, o.T * rng.uniform(0.5, 1.0, (n, n)))
        # A zero-area box overlaps nothing, itself included; it still anchors its group.
        o[0, :] = o[:, 0] = 0.0
        # Rounded scores tie, and a -0.0 must read as 0.0.
        S = np.round(rng.uniform(0.01, 0.99, (rows, n)), 2)
        S[0, -1] = -0.0
        # Every row but the first perturbs one pair of boxes, whose overlaps sit
        # half a step on the other side of nt, so that the step regroups the
        # row. A lone row is perturbed too: it is grouped by _group_tops, which
        # reads with one lead box for all the boxes.
        i, t = np.full(rows, -1), np.full(rows, -1)
        delta = rng.choice([eps, -eps], rows)
        for b in range(min(1, rows - 1), rows):
            if n > 2:
                i[b], t[b] = rng.choice(np.arange(1, n), 2, replace=False)
                o[i[b], t[b]] = o[t[b], i[b]] = cfg.nt - delta[b] / 2.0
        # The forward takes validated rows, as run_nms validates its scores.
        valid = np.stack([nms._validate_scores(row) for row in S])
        got = _perturbed_rescores(valid, nms._MatrixOverlaps(o), n, np.zeros(rows, dtype=int), (i, t, delta), cfg)
        for b in range(rows):
            assert got[b].tobytes() == _patched_rescores(S[b], o, i[b], t[b], delta[b], cfg).tobytes(), b

    @settings(max_examples=100)
    @given(
        sizes=st.lists(st.integers(min_value=0, max_value=12), min_size=2, max_size=5).filter(any),
        rows=st.integers(min_value=1, max_value=8),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        pruning=st.sampled_from(SOFT),
        cap=st.sampled_from([1, 3, None]),
        eps=st.sampled_from([1e-6, 1e-2]),
    )
    def test_padded_rows_of_stacked_instances_match_masked_rescore(self, sizes, rows, seed, pruning, cap, eps):
        """Rows of several instances, padded to the widest, over their stacked matrices, as _check_chunk reads them."""
        rng = np.random.default_rng(seed)
        cfg = NmsConfig(pruning=pruning, max_group_size=cap)
        w = max(sizes)
        matrices = [random_instance(rng, n)[1] for n in sizes]
        inst = rng.integers(0, len(sizes), rows)
        S = np.full((rows, w), -np.inf)
        i, t = np.full(rows, -1), np.full(rows, -1)
        delta = rng.choice([eps, -eps], rows)
        for r, k in enumerate(inst.tolist()):
            S[r, : sizes[k]] = np.round(rng.uniform(0.01, 0.99, sizes[k]), 2)
            if sizes[k] > 1:
                # The step takes the pair's overlaps across nt.
                i[r], t[r] = rng.choice(sizes[k], 2, replace=False)
                matrices[k][i[r], t[r]] = matrices[k][t[r], i[r]] = cfg.nt - delta[r] / 2.0
        stack = np.zeros((len(sizes), w, w))
        for k, (matrix, n) in enumerate(zip(matrices, sizes)):
            stack[k, :n, :n] = matrix
        base = nms._MatrixOverlaps(stack.reshape(-1, w))
        got = _perturbed_rescores(S, base, w, inst, (i, t, delta), cfg)
        for r, k in enumerate(inst.tolist()):
            n = sizes[k]
            want = _patched_rescores(S[r, :n], matrices[k], i[r], t[r], delta[r], cfg)
            assert got[r, :n].tobytes() == want.tobytes(), r

    def test_a_perturbed_pair_reads_its_step_in_either_order(self):
        """On an asymmetric matrix, each read of the pair adds the step to its own entry; no other read changes."""
        o = np.arange(9.0).reshape(3, 3) / 10.0
        base = nms._MatrixOverlaps(o)
        patch = (np.array([2, -1]), np.array([0, -1]), np.array([0.5, 0.25]))
        source = gradients._RowOverlaps(base, 3, np.zeros(2, dtype=int), patch)
        want = o.copy()
        want[2, 0] += 0.5
        want[0, 2] += 0.5
        # Row 0 holds slots 0 to 2 and row 1, which perturbs nothing, slots 3 to 5.
        first, second = np.arange(3), np.arange(3, 6)
        i, j = np.divmod(np.arange(9), 3)
        assert source.pairs(first[i], first[j]).tolist() == want.ravel().tolist()
        assert source.pairs(second[i], second[j]).tolist() == o.ravel().tolist()
        # One lead box for all the boxes, as _group_tops reads.
        assert source.pairs(first, first[2]).tolist() == want[:, 2].tolist()
        unpatched = gradients._RowOverlaps(base, 3, np.zeros(1, dtype=int))
        assert unpatched.pairs(first[i], first[j]).tolist() == o.ravel().tolist()

    def test_a_chunk_of_empty_instances_gives_a_report_for_each(self):
        instances = [(np.zeros(0), np.zeros((0, 0)))] * 3
        got = list(gradients._check_instances(instances, LINEAR, 1e-6, 1e-4))
        assert got == [reference_finite_difference_check(s, o, LINEAR) for s, o in instances]
        assert [(r.checked, r.skipped, r.worst) for r in got] == [(0, 0, None)] * 3

    @settings(max_examples=150)
    @given(
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        sizes=st.lists(st.integers(min_value=0, max_value=12), min_size=1, max_size=8),
        faults=st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=7),
                st.sampled_from(["nan", "high", "negative", "range", "shape", "ndim", "rects"]),
            ),
            max_size=3,
        ),
        chunk=st.sampled_from([gradients._CHUNK_ENTRIES, 1, 300]),
    )
    def test_a_bad_instance_raises_the_first_error_of_a_check_one_by_one(self, seed, sizes, faults, chunk):
        """A chunk's values are checked at once, but the error and the reports before it are those of
        validating each instance as it is drawn."""
        rng = np.random.default_rng(seed)
        instances = [list(random_instance(rng, n)) for n in sizes]
        for k, kind in faults:
            instance = instances[k % len(instances)]
            s, o = instance
            n = s.size
            if kind in ("nan", "high", "negative") and n:
                s[rng.integers(n)] = {"nan": np.nan, "high": 1.5, "negative": -0.25}[kind]
            elif kind == "range" and n:
                o[rng.integers(n), rng.integers(n)] = 1.5
            elif kind == "shape":
                instance[1] = np.eye(n + 1)
            elif kind == "ndim":
                instance[0] = s[None]
            elif kind == "rects":
                instance[1] = RectOverlaps(np.zeros((n + 1, 4)))
        want = None
        for k, (s, o) in enumerate(instances):
            try:
                gradients._validated_inputs(s, o, LINEAR, in_range=True)
            except ValueError as exc:
                want = (k, type(exc), str(exc))
                break
        # Before the error come the reports of the chunks that the instances
        # before the bad one closed.
        reported, held, width = 0, 0, 0
        for n in sizes[: len(sizes) if want is None else want[0]]:
            held, width = held + 1, max(width, n)
            if held > 1 and held * width * width > chunk:
                reported, held, width = reported + held - 1, 1, n
        got = []
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(gradients, "_CHUNK_ENTRIES", chunk)
            try:
                got.extend(gradients._check_instances(map(tuple, instances), LINEAR, 1e-6, 1e-4))
            except ValueError as exc:
                assert want is not None and (type(exc), str(exc)) == want[1:]
                assert len(got) == reported
            else:
                assert want is None and len(got) == len(instances)
        assert got == [reference_finite_difference_check(s, o, LINEAR) for s, o in instances[: len(got)]]

    def test_a_bad_instance_raises_before_a_later_draw_fails(self):
        """Instances are drawn past a bad one before its chunk's values are checked; its error still comes first."""

        def drawn():
            yield pair_instance()
            yield np.array([0.5, np.nan]), np.eye(2)
            raise RuntimeError("exhausted")

        with pytest.raises(ScoreRangeError, match=r"^scores must be finite, got nan \(score index 1\)$"):
            list(gradients._check_instances(drawn(), LINEAR, 1e-6, 1e-4))

    def test_large_instance_is_checked_in_bounded_memory(self):
        scores, overlaps = random_instance(np.random.default_rng(3), 300)
        cfg = NmsConfig(pruning=Pruning.SIGMOIDAL)
        tracemalloc.start()
        try:
            report = finite_difference_check(scores, overlaps, cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64 * 2**20
        assert report == reference_finite_difference_check(scores, overlaps, cfg)

    def test_many_instances_are_checked_in_bounded_memory(self):
        """Instances are drawn as the check goes and checked a chunk at a time, as gradcheck does."""
        rng = np.random.default_rng(7)
        cfg = NmsConfig(pruning=Pruning.SIGMOIDAL)
        instances = (random_instance(rng, int(rng.integers(4, 13))) for _ in range(2000))
        tracemalloc.start()
        try:
            checked = sum(report.checked for report in gradients._check_instances(instances, cfg, 1e-6, 1e-4))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert checked > 0
        assert peak < 64 * 2**20

    def test_chunks_hold_at_most_the_chunk_bound(self, monkeypatch):
        """A chunk's stack of padded matrices stays within _CHUNK_ENTRIES, or holds one instance."""
        chunks = []
        check_chunk = gradients._check_chunk

        def spy(chunk, *args):
            chunks.append([s.size for s, _ in chunk])
            return check_chunk(chunk, *args)

        monkeypatch.setattr(gradients, "_check_chunk", spy)
        rng = np.random.default_rng(5)
        sizes = [4, 12, 7, 30, 3, 12, 12, 0, 9]
        instances = [random_instance(rng, n) for n in sizes]
        monkeypatch.setattr(gradients, "_CHUNK_ENTRIES", 300)
        reports = list(gradients._check_instances(instances, LINEAR, 1e-6, 1e-4))
        assert [n for chunk in chunks for n in chunk] == sizes
        assert all(len(chunk) == 1 or len(chunk) * max(chunk) ** 2 <= 300 for chunk in chunks)
        assert chunks == [[4, 12], [7], [30], [3, 12], [12, 0], [9]]
        assert reports == [finite_difference_check(s, o, LINEAR) for s, o in instances]
