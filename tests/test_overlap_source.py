"""Rectangles as an overlap source, against the overlap matrix of the same rectangles.

run_nms and the backward pass accept either an (N, N) overlap matrix or a
RectOverlaps, which evaluates only the pairs they read. Both must give the
same bytes, and the greedy variants must match the loop that ran every round
to the last box.
"""

import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from diffnms import (
    NmsConfig,
    NmsVariant,
    Pruning,
    Rect2D,
    RectOverlaps,
    finite_difference_check,
    iou2d_matrix,
    masked_backward,
    masked_jacobians,
    overlap_matrix,
    random_instance,
    rect_array,
    run_nms,
)
from diffnms import nms
from oracles import (
    reference_closed_form,
    reference_greedy_nms,
    reference_masked_backward,
    reference_masked_jacobians,
)

# Few distinct coordinates, so duplicates, touching edges and zero-area
# rectangles are common; -0.0 and 0.0 both occur as corners.
COORDS = (-0.0, 0.0, 0.5, 1.0, 1.5, 2.0, 3.0, 4.0)


@st.composite
def rects(draw):
    n = draw(st.integers(min_value=0, max_value=24))
    out = []
    for _ in range(n):
        x1, x2 = sorted((draw(st.sampled_from(COORDS)), draw(st.sampled_from(COORDS))))
        y1, y2 = sorted((draw(st.sampled_from(COORDS)), draw(st.sampled_from(COORDS))))
        out.append(Rect2D(x1, y1, x2, y2))
    return out


@st.composite
def scenes(draw, prunings=tuple(Pruning)):
    """Rectangles, scores with ties and zeros, and a config with a random nt and cap."""
    boxes = draw(rects())
    values = st.one_of(st.sampled_from([0.0, -0.0, 0.25, 0.5, 1.0]), st.floats(min_value=0.0, max_value=1.0))
    scores = np.array([draw(values) for _ in boxes], dtype=float)
    pruning = draw(st.sampled_from(prunings))
    cfg = NmsConfig(
        nt=draw(st.floats(min_value=0.01, max_value=0.99)),
        pruning=pruning,
        max_group_size=draw(st.sampled_from([None, 100, 3, 1])),
        tau=draw(st.sampled_from([None, 0.05, 0.5])) if pruning in (Pruning.EXPONENTIAL, Pruning.SIGMOIDAL) else None,
    )
    return boxes, scores, cfg


# Blob offsets: COORDS span [0, 4], so blobs 4 apart touch edge to edge,
# blobs 2 apart overlap, and blobs 8 or more apart are disjoint.
OFFSETS = (0.0, 2.0, 4.0, 8.0, 12.0)


@st.composite
def blob_scenes(draw):
    """scenes() whose rectangles are shifted into up to four blobs, with a fresh score per box."""
    boxes, _, cfg = draw(scenes())
    blobs = [(draw(st.sampled_from(OFFSETS)), draw(st.sampled_from(OFFSETS))) for _ in range(draw(st.integers(1, 4)))]
    moved = []
    for box in boxes + draw(rects()):
        dx, dy = draw(st.sampled_from(blobs))
        moved.append(Rect2D(box.x1 + dx, box.y1 + dy, box.x2 + dx, box.y2 + dy))
    values = st.one_of(st.sampled_from([0.0, -0.0, 0.25, 0.5, 1.0]), st.floats(min_value=0.0, max_value=1.0))
    return moved, np.array([draw(values) for _ in moved], dtype=float), cfg


def _variants(cfg: NmsConfig) -> list[NmsVariant]:
    greedy = NmsVariant.CLASSICAL if cfg.pruning is Pruning.HARD else NmsVariant.SOFT
    return [greedy, NmsVariant.MASKED, NmsVariant.FULL_INVERSE, NmsVariant.GROUPED_INVERSE]


def _same(a: np.ndarray, b: np.ndarray) -> bool:
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def _assert_same_result(a, b) -> None:
    for field in ("rescores", "kept", "pre_clip"):
        assert _same(getattr(a, field), getattr(b, field)), field


@settings(max_examples=300)
@given(
    case=scenes(),
    whole_matrix=st.booleans(),
    solve_block=st.sampled_from([nms._SOLVE_BLOCK_ENTRIES, 1, 100]),
)
def test_rect_source_matches_overlap_matrix(case, whole_matrix, solve_block):
    boxes, scores, cfg = case
    matrix = overlap_matrix(boxes)
    source = RectOverlaps(rect_array(boxes))
    # Small scenes evaluate every pair at once; a limit of 0 makes them read
    # one overlap column or row at a time, as large scenes do. A small solve
    # block splits even these scenes into many row blocks.
    limit = nms._WHOLE_MATRIX_BOXES if whole_matrix else 0
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(nms, "_WHOLE_MATRIX_BOXES", limit)
        patch.setattr(nms, "_SOLVE_BLOCK_ENTRIES", solve_block)
        for variant in _variants(cfg):
            _assert_same_result(run_nms(scores, source, cfg, variant), run_nms(scores, matrix, cfg, variant))


@settings(max_examples=200)
@given(case=scenes())
def test_greedy_variants_match_the_loop_without_early_stop(case):
    boxes, scores, cfg = case
    matrix = overlap_matrix(boxes)
    variant = _variants(cfg)[0]
    expected = reference_greedy_nms(scores, matrix, cfg)
    for overlaps in (matrix, RectOverlaps(rect_array(boxes))):
        _assert_same_result(run_nms(scores, overlaps, cfg, variant), expected)


@settings(max_examples=100)
@given(seed=st.integers(min_value=0, max_value=2**32 - 1), pruning=st.sampled_from(list(Pruning)))
def test_greedy_variants_match_the_loop_on_random_matrices(seed, pruning):
    rng = np.random.default_rng(seed)
    scores, overlaps = random_instance(rng, int(rng.integers(0, 40)))
    cfg = NmsConfig(pruning=pruning)
    _assert_same_result(run_nms(scores, overlaps, cfg, _variants(cfg)[0]), reference_greedy_nms(scores, overlaps, cfg))


SOFT = tuple(p for p in Pruning if p is not Pruning.HARD)


@settings(max_examples=200)
@given(case=scenes(prunings=SOFT), whole_matrix=st.booleans())
def test_masked_gradients_on_rect_overlaps_match_reference(case, whole_matrix):
    # A limit of 0 makes these small scenes read rectangles on demand.
    boxes, scores, cfg = case
    scores = scores + 0.0
    matrix = overlap_matrix(boxes)
    upstream = np.linspace(-1.0, 1.0, scores.size)
    want = reference_masked_backward(scores, matrix, cfg, upstream)
    ref_jac, ref_o_grads = reference_masked_jacobians(scores, matrix, cfg)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(nms, "_WHOLE_MATRIX_BOXES", nms._WHOLE_MATRIX_BOXES if whole_matrix else 0)
        for overlaps in (matrix, RectOverlaps(rect_array(boxes))):
            got = masked_backward(scores, overlaps, cfg, upstream)
            assert _same(got.score_grad, want.score_grad)
            assert got.overlap_grad == want.overlap_grad
            jac, o_grads = masked_jacobians(scores, overlaps, cfg)
            assert _same(jac, ref_jac)
            assert o_grads == ref_o_grads


def _assert_same_gradcheck(scores, rects, cfg) -> None:
    want = finite_difference_check(scores, iou2d_matrix(rects, rects), cfg)
    got = finite_difference_check(scores, RectOverlaps(rects), cfg)
    assert got == want
    assert got.max_rel_error.hex() == want.max_rel_error.hex()


@settings(max_examples=100)
@given(case=scenes(prunings=SOFT), whole_matrix=st.booleans())
def test_gradcheck_on_rect_overlaps_matches_its_matrix(case, whole_matrix):
    # A limit of 0 makes the perturbed rows read rectangles on demand.
    boxes, scores, cfg = case
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(nms, "_WHOLE_MATRIX_BOXES", nms._WHOLE_MATRIX_BOXES if whole_matrix else 0)
        _assert_same_gradcheck(scores, rect_array(boxes), cfg)


@pytest.mark.parametrize("pruning", SOFT)
@pytest.mark.parametrize("cap", [None, 3])
def test_gradcheck_on_a_large_rect_scene_matches_its_matrix(pruning, cap):
    # More than _WHOLE_MATRIX_BOXES boxes, so the check reads rectangles as given.
    rng = np.random.default_rng(4)
    rects = _clustered_rects(rng, 10, 8)
    assert len(rects) > nms._WHOLE_MATRIX_BOXES
    scores = rng.uniform(0.0, 1.0, len(rects))
    _assert_same_gradcheck(scores, rects, NmsConfig(pruning=pruning, max_group_size=cap))


@settings(max_examples=300)
@given(case=blob_scenes())
def test_greedy_cluster_lanes_match_the_loop_without_early_stop(case):
    # A limit of 0 sends these small scenes through the zero-overlap clusters.
    boxes, scores, cfg = case
    expected = reference_greedy_nms(scores, overlap_matrix(boxes), cfg)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(nms, "_WHOLE_MATRIX_BOXES", 0)
        got = run_nms(scores, RectOverlaps(rect_array(boxes)), cfg, _variants(cfg)[0])
    _assert_same_result(got, expected)


@settings(max_examples=300)
@given(case=blob_scenes())
def test_clusters_cover_every_box_once_with_zero_overlap_between_them(case):
    boxes = case[0]
    source = RectOverlaps(rect_array(boxes))
    clusters = source._clusters()
    assert np.array_equal(np.sort(np.concatenate(clusters)), np.arange(len(boxes)))
    assert all(np.all(np.diff(c) > 0) for c in clusters)
    assert all(c.size for c in clusters) or not boxes
    label = np.zeros(len(boxes), dtype=int)
    for k, members in enumerate(clusters):
        label[members] = k
    everything = np.arange(len(boxes))
    across = source.pairs(everything[:, None], everything)[label[:, None] != label]
    assert np.all(across == 0.0) and not np.any(np.signbit(across))


def test_clusters_split_on_touching_edges_and_alternate_axes():
    # Boxes 0-2 touch edge to edge; 3 and 4 overlap. The bar 7 spans 5 and 6
    # on x, so only the y pass cuts it off and the next x pass splits 5 from 6.
    rects = np.array([
        [0, 0, 1, 1], [1, 0, 2, 1], [0, 1, 1, 2], [5, 5, 6, 6], [5.5, 5.5, 6.5, 6.5],
        [20, 0, 21, 1], [22, 0, 23, 1], [20, 2, 23, 3],
    ], dtype=float)
    clusters = RectOverlaps(rects)._clusters()
    assert sorted(c.tolist() for c in clusters) == [[0], [1], [2], [3, 4], [5], [6], [7]]
    assert [c.tolist() for c in RectOverlaps(np.zeros((0, 4)))._clusters()] == [[]]


def test_cluster_lanes_pack_uneven_clusters_into_few_slots():
    # One cluster of 6 and twelve singletons: lanes of width 6, not 13 x 6 slots.
    clusters = [np.arange(6)] + [np.array([k]) for k in range(6, 18)]
    slots = nms._lanes(clusters)
    assert slots.shape == (3, 6)
    assert sorted(slots[slots >= 0].tolist()) == list(range(18))
    assert slots[0].tolist() == list(range(6))


def test_greedy_loop_stops_once_every_rescore_is_zero():
    # Box 0 zeroes the other boxes in its first round; no later row is read.
    reads = []

    class Counting(nms._MatrixOverlaps):
        def pairs(self, i, j):
            reads.append(i)
            return super().pairs(i, j)

    overlaps = np.full((4, 4), 0.9)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(nms, "_overlap_source", lambda o, n: Counting(o))
        result = run_nms(np.array([0.9, 0.8, 0.7, 0.6]), overlaps, NmsConfig(), NmsVariant.CLASSICAL)
    assert np.array_equal(result.rescores, [0.9, 0.0, 0.0, 0.0])
    assert reads == [0]


def _clustered_rects(rng, clusters: int, per_cluster: int) -> np.ndarray:
    """per_cluster jittered rectangles around each of clusters random centers."""
    centers = np.repeat(rng.uniform(0.0, 5000.0, (clusters, 2)), per_cluster, axis=0)
    corners = centers + rng.normal(0.0, 1.0, centers.shape)
    return np.hstack([corners, corners + rng.uniform(5.0, 10.0, centers.shape)])


def _peak_bytes(scores, source, cfg, variant) -> int:
    tracemalloc.start()
    try:
        result = run_nms(scores, source, cfg, variant)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert result.rescores.shape == scores.shape
    return peak


@pytest.mark.parametrize("variant", [NmsVariant.MASKED, NmsVariant.GROUPED_INVERSE, NmsVariant.FULL_INVERSE])
def test_closed_form_variants_do_no_quadratic_work_on_rects(variant):
    # 5,000 boxes in 250 clusters: the overlap matrix alone would take 200 MB.
    rng = np.random.default_rng(0)
    rects = _clustered_rects(rng, 250, 20)
    scores = rng.uniform(0.0, 1.0, len(rects))
    assert _peak_bytes(scores, RectOverlaps(rects), NmsConfig(pruning=Pruning.LINEAR), variant) < 20 * 2**20


def test_backward_does_no_quadratic_work_on_rects():
    # A training step on moving boxes hands the backward pass their rectangles.
    rng = np.random.default_rng(0)
    rects = _clustered_rects(rng, 250, 20)
    scores = rng.uniform(0.0, 1.0, len(rects))
    tracemalloc.start()
    try:
        grads = masked_backward(scores, RectOverlaps(rects), NmsConfig(pruning=Pruning.LINEAR), np.ones(len(rects)))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert grads.score_grad.shape == scores.shape and grads.overlap_grad
    assert peak < 20 * 2**20


def test_uncapped_group_is_solved_in_bounded_memory():
    # One group of 2,000 boxes: its overlap block alone would take 32 MB.
    rng = np.random.default_rng(1)
    corners = rng.normal(0.0, 0.3, (2000, 2))
    rects = np.hstack([corners, corners + rng.uniform(9.5, 10.0, corners.shape)])
    scores = rng.uniform(0.0, 1.0, len(rects))
    source = RectOverlaps(rects)
    cfg = NmsConfig(pruning=Pruning.LINEAR, max_group_size=None)
    assert np.all(source.pairs(np.arange(len(rects)), int(np.argmax(scores))) > cfg.nt)
    assert _peak_bytes(scores, source, cfg, NmsVariant.GROUPED_INVERSE) < 20 * 2**20


@pytest.mark.parametrize("pruning", list(Pruning))
def test_inverse_variants_on_a_large_scene_match_the_dense_solve(pruning):
    # 1,500 boxes span many row blocks of the solve; the reference holds the
    # whole prune matrix and solves it one row per step.
    rng = np.random.default_rng(2)
    rects = _clustered_rects(rng, 75, 20)
    scores = rng.uniform(0.0, 1.0, len(rects))
    matrix = iou2d_matrix(rects, rects)
    cfg = NmsConfig(pruning=pruning, max_group_size=None)
    for variant in (NmsVariant.FULL_INVERSE, NmsVariant.GROUPED_INVERSE):
        got = run_nms(scores, RectOverlaps(rects), cfg, variant)
        _assert_same_result(got, reference_closed_form(scores, matrix, cfg, variant))


def _in_cluster_lower_pairs(source: RectOverlaps) -> int:
    return sum(c.size * (c.size - 1) // 2 for c in source._clusters())


@pytest.mark.parametrize("pruning", [Pruning.HARD, Pruning.LINEAR])
def test_full_inverse_reads_only_the_pairs_within_a_cluster(monkeypatch, pruning):
    # 1,500 boxes in 75 clusters: every pair across two clusters is +0.0, and
    # under p(0) = 0 so is its prune weight, so the solve need not read it.
    rng = np.random.default_rng(2)
    rects = _clustered_rects(rng, 75, 20)
    scores = rng.uniform(0.0, 1.0, len(rects))
    in_cluster = _in_cluster_lower_pairs(RectOverlaps(rects))
    assert 0 < in_cluster < len(rects) * (len(rects) - 1) // 20
    reads = []
    pairs = RectOverlaps.pairs

    def counting(self, i, j):
        values = pairs(self, i, j)
        reads.append(np.size(values))
        return values

    monkeypatch.setattr(RectOverlaps, "pairs", counting)
    run_nms(scores, RectOverlaps(rects), NmsConfig(pruning=pruning), NmsVariant.FULL_INVERSE)
    assert 0 < sum(reads) <= in_cluster


def _awkward_rects(rng) -> np.ndarray:
    """Clusters that touch along an edge, duplicates, zero-width and zero-height boxes, and jittered clusters."""
    cells = [[x, y, x + 1.0, y + 1.0] for x in range(4) for y in range(4)]
    duplicates = cells[::5] * 2
    needles = [[0.5, 0.0, 0.5, 1.0], [0.0, 0.5, 1.0, 0.5], [2.5, 2.5, 2.5, 2.5], [-0.0, 0.0, 0.0, 3.0]]
    jittered = _clustered_rects(rng, 5, 10) / 100.0 + 10.0
    return np.vstack([cells, duplicates, needles, jittered])


@pytest.mark.parametrize("pruning", list(Pruning))
@pytest.mark.parametrize("solve_block", [nms._SOLVE_BLOCK_ENTRIES, 1, 100])
@pytest.mark.parametrize("cap", [None, 3])
def test_inverse_reads_on_awkward_clusters_match_the_matrix_and_the_dense_solve(pruning, solve_block, cap):
    # More than _WHOLE_MATRIX_BOXES boxes, so full-inverse reads rectangles
    # by cluster under p(0) = 0; scores rounded to one decimal tie often,
    # so clusters interleave in score order and straddle every row block.
    rng = np.random.default_rng(7)
    rects = _awkward_rects(rng)
    assert len(rects) > nms._WHOLE_MATRIX_BOXES
    scores = np.round(rng.uniform(0.0, 1.0, len(rects)), 1)
    matrix = iou2d_matrix(rects, rects)
    cfg = NmsConfig(pruning=pruning, max_group_size=cap)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(nms, "_SOLVE_BLOCK_ENTRIES", solve_block)
        for variant in (NmsVariant.FULL_INVERSE, NmsVariant.GROUPED_INVERSE):
            got = run_nms(scores, RectOverlaps(rects), cfg, variant)
            _assert_same_result(got, run_nms(scores, matrix, cfg, variant))
            _assert_same_result(got, reference_closed_form(scores, matrix, cfg, variant))


@settings(max_examples=200)
@given(
    corpus=st.lists(blob_scenes(), min_size=1, max_size=4),
    whole_matrix=st.booleans(),
    solve_block=st.sampled_from([nms._SOLVE_BLOCK_ENTRIES, 1, 100]),
)
def test_inverse_corpus_reads_match_the_matrix_and_the_dense_solve(corpus, whole_matrix, solve_block):
    # A limit of 0 sends every system of these small scenes through the
    # cluster reads; by default their systems are solved in padded blocks.
    cfg = corpus[0][2]
    bounds = np.cumsum([0] + [len(boxes) for boxes, _, _ in corpus])
    s = nms._validate_scores(np.concatenate([scores for _, scores, _ in corpus]), 1.0)
    rects = rect_array([box for boxes, _, _ in corpus for box in boxes])
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(nms, "_WHOLE_MATRIX_BOXES", nms._WHOLE_MATRIX_BOXES if whole_matrix else 0)
        patch.setattr(nms, "_SOLVE_BLOCK_ENTRIES", solve_block)
        source = nms._overlap_source(RectOverlaps(rects), s.size)
        for variant in (NmsVariant.FULL_INVERSE, NmsVariant.GROUPED_INVERSE):
            got = nms._nms_scenes(s, source, bounds, cfg, variant)
            for result, (boxes, scores, _) in zip(got, corpus):
                matrix = overlap_matrix(boxes)
                _assert_same_result(result, run_nms(scores, matrix, cfg, variant))
                _assert_same_result(result, reference_closed_form(scores, matrix, cfg, variant))


class TestRectOverlaps:
    def test_pairs_broadcast_like_the_matrix(self):
        boxes = [Rect2D(0, 0, 2, 2), Rect2D(1, 1, 3, 3), Rect2D(1, 1, 1, 4), Rect2D(2, 0, 4, 2)]
        matrix = overlap_matrix(boxes)
        source = RectOverlaps(rect_array(boxes))
        i = np.array([3, 0, 1])
        assert _same(source.pairs(i, 2), matrix[i, 2])
        assert _same(source.pairs(i[:, None], i), matrix[np.ix_(i, i)])
        assert len(source) == 4

    def test_rejects_malformed_rects(self):
        with pytest.raises(ValueError, match="x1 <= x2"):
            RectOverlaps(np.array([[2.0, 0.0, 1.0, 1.0]]))
        with pytest.raises(ValueError, match="finite"):
            RectOverlaps(np.array([[0.0, 0.0, np.inf, 1.0]]))

    def test_box_count_must_match_scores(self):
        with pytest.raises(ValueError, match="overlaps must cover 2 boxes, got 1"):
            run_nms(np.array([0.5, 0.4]), RectOverlaps(np.zeros((1, 4))), NmsConfig(), NmsVariant.MASKED)

    # Rect2D rejects such corners; a raw array reaches iou2d_matrix and
    # RectOverlaps, which take them without a warning and are rejected by
    # run_nms.
    @pytest.mark.parametrize("variant", list(NmsVariant))
    def test_overflowing_area_is_rejected_like_its_nan_matrix(self, variant):
        rects = np.array([[-1e308, -1e308, 1e308, 1e308], [0.0, 0.0, 1.0, 1.0]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            matrix = iou2d_matrix(rects, rects)
            source = RectOverlaps(rects)
            boxes = np.arange(2)
            assert np.array_equal(source.pairs(boxes[:, None], boxes), matrix, equal_nan=True)
        assert np.isnan(matrix[0, 0])
        cfg = NmsConfig() if variant in (NmsVariant.CLASSICAL, NmsVariant.MASKED) else NmsConfig(pruning=Pruning.LINEAR)
        for overlaps in (matrix, source):
            with pytest.raises(ValueError, match=r"overlap values must be finite and lie in \[0, 1\]"):
                run_nms(np.array([0.5, 0.4]), overlaps, cfg, variant)


class TestOverlapMatrixValidation:
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf, -1e-300, 1.0 + 2.0**-52])
    @pytest.mark.parametrize("variant", [NmsVariant.CLASSICAL, NmsVariant.MASKED])
    def test_out_of_range_values_are_rejected(self, value, variant):
        overlaps = np.eye(3)
        overlaps[2, 1] = value
        with pytest.raises(ValueError, match=r"overlap values must be finite and lie in \[0, 1\]"):
            run_nms(np.array([0.5, 0.4, 0.3]), overlaps, NmsConfig(), variant)

    @pytest.mark.parametrize("value", [0.0, -0.0, 1.0])
    def test_unit_interval_bounds_are_accepted(self, value):
        overlaps = np.full((3, 3), value)
        result = run_nms(np.array([0.5, 0.4, 0.3]), overlaps, NmsConfig(), NmsVariant.MASKED)
        assert result.rescores.shape == (3,)

    def test_empty_matrix_is_accepted_and_wrong_shapes_are_not(self):
        assert run_nms(np.zeros(0), np.zeros((0, 0)), NmsConfig(), NmsVariant.MASKED).kept.size == 0
        with pytest.raises(ValueError, match=r"overlap matrix must have shape \(2, 2\), got \(0, 0\)"):
            run_nms(np.array([0.5, 0.4]), np.zeros((0, 0)), NmsConfig(), NmsVariant.MASKED)
