"""One NMS pass over a corpus against run_nms on one scene at a time, bit for bit.

The harness stacks the rectangles of every scene and rescores the corpus in
one pass per variant, with the scenes as lanes. Scenes never interact, so
every result must be the one run_nms gives on each scene alone, and every
error the first one that the scene-by-scene loop meets
(tests/oracles.py: reference_scene_results).
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from diffnms import DetectionBox, NmsConfig, NmsVariant, Pruning, Rect2D, RectOverlaps, Scene, run_nms
from diffnms import nms
from diffnms.harness import _corpus_results
from oracles import reference_scene_results

# Each pruning kind with every variant that accepts it.
VARIANTS = {
    pruning: [NmsVariant.CLASSICAL if pruning is Pruning.HARD else NmsVariant.SOFT]
    + [NmsVariant.MASKED, NmsVariant.FULL_INVERSE, NmsVariant.GROUPED_INVERSE]
    for pruning in Pruning
}
# Few distinct values, so that scores tie within and across scenes.
TIED = (0.0, -0.0, 0.3, 0.5, 0.9, 1.0)


def _scene(scene_id: str, rng: np.random.Generator, n: int, grid: int, dontcare: float, tied: bool) -> Scene:
    """n boxes with integer corners on a grid, so that edges touch; widths and heights
    of 0 make zero-area boxes, and every fourth box repeats an earlier one."""
    x1, y1 = rng.integers(0, grid, (2, n))
    x2, y2 = x1 + rng.integers(0, 5, n), y1 + rng.integers(0, 5, n)
    for k in range(3, n, 4):
        j = int(rng.integers(0, k))
        x1[k], y1[k], x2[k], y2[k] = x1[j], y1[j], x2[j], y2[j]
    if tied:
        scores = rng.choice(TIED, n)
    else:
        scores = rng.uniform(0.0, 1.0, n)
        scores[rng.random(n) < 0.1] = -0.0
    flags = rng.random(n) < dontcare
    boxes = [
        DetectionBox(Rect2D(float(a), float(b), float(c), float(d)), score=float(s), dontcare=bool(f))
        for a, b, c, d, s, f in zip(x1, y1, x2, y2, scores, flags)
    ]
    return Scene(scene_id, boxes=boxes)


@st.composite
def corpora(draw, max_boxes=200):
    """0 to 8 scenes of 0 to max_boxes boxes: sparse and cluttered, some all DontCare."""
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    scenes = []
    for k in range(draw(st.integers(min_value=0, max_value=8))):
        n = draw(st.integers(min_value=0, max_value=max_boxes))
        grid = draw(st.sampled_from([4, 12, 40, 200]))
        dontcare = draw(st.sampled_from([0.0, 0.2, 1.0]))
        scenes.append(_scene(f"s{k}", rng, n, grid, dontcare, draw(st.booleans())))
    return scenes


@st.composite
def configs(draw):
    pruning = draw(st.sampled_from(list(Pruning)))
    return NmsConfig(
        nt=draw(st.sampled_from([0.1, 0.4, 0.7])),
        valid_threshold=draw(st.sampled_from([0.0, 0.3])),
        max_group_size=draw(st.sampled_from([1, 3, None])),
        pruning=pruning,
    )


def _same(a: np.ndarray, b: np.ndarray) -> bool:
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def _assert_same_results(got, expected) -> None:
    for variant_got, variant_expected in zip(got, expected, strict=True):
        for a, b in zip(variant_got, variant_expected, strict=True):
            for field in ("rescores", "kept", "pre_clip"):
                assert _same(getattr(a, field), getattr(b, field)), field


@settings(max_examples=150, deadline=None)
@given(scenes=corpora(), cfg=configs())
def test_corpus_pass_is_run_nms_scene_by_scene(scenes, cfg):
    variants = VARIANTS[cfg.pruning]
    got, seconds, index_maps = _corpus_results(scenes, cfg, variants, None)
    expected, expected_maps = reference_scene_results(scenes, cfg, variants)
    assert index_maps == expected_maps
    assert len(seconds) == len(variants)
    _assert_same_results(got, expected)


# Values that some variant or score mode rejects: negative, above 1 (only the
# closed-form variants reject it), infinite, and a missing confidence.
BAD_SCORES = (-0.5, 1.5, float("inf"))


@st.composite
def faulty_corpora(draw):
    """Small corpora in which a few boxes carry a bad score or confidence, in any scene."""
    scenes = draw(corpora(max_boxes=12))
    for scene in scenes:
        for box in scene.boxes:
            fault = draw(st.sampled_from([None] * 6 + ["score", "class_conf", "pred_conf", "both"]))
            if fault == "score":
                box.score = draw(st.sampled_from(BAD_SCORES))
            elif fault in ("class_conf", "pred_conf"):
                setattr(box, fault, draw(st.sampled_from([*BAD_SCORES, 0.5])))
            elif fault == "both":
                box.class_conf, box.pred_conf = draw(st.sampled_from([(0.5, 0.8), (-0.0, 0.5), (1.5, 0.9)]))
    return scenes


@settings(max_examples=200, deadline=None)
@given(
    scenes=faulty_corpora(),
    cfg=configs(),
    score_mode=st.sampled_from([None, "product", "class", "pred"]),
    data=st.data(),
)
def test_corpus_pass_raises_the_first_error_of_the_scene_by_scene_loop(scenes, cfg, score_mode, data):
    variants = data.draw(st.permutations(VARIANTS[cfg.pruning]))[: data.draw(st.integers(1, 4))]
    try:
        expected = reference_scene_results(scenes, cfg, variants, score_mode)
    except ValueError as exc:
        with pytest.raises(ValueError) as raised:
            _corpus_results(scenes, cfg, variants, score_mode)
        assert str(raised.value) == str(exc)
    else:
        got, _, index_maps = _corpus_results(scenes, cfg, variants, score_mode)
        assert index_maps == expected[1]
        _assert_same_results(got, expected[0])


@pytest.mark.parametrize("pruning", list(Pruning))
def test_disjoint_boxes_are_split_into_clusters_except_under_sigmoid(pruning):
    # Under p(0) = 0 the sweep splits every scene into its clusters, so three
    # scenes of 100 disjoint boxes are one round; under sigmoid each scene is
    # one lane of 100 rounds, and its rescores still match run_nms.
    corners = np.arange(100.0) * 10.0
    rects = np.stack([corners, corners, corners + 5.0, corners + 5.0], axis=1)
    scores = np.linspace(0.9, 0.1, 100)
    source = RectOverlaps(np.concatenate([rects, rects + 3.0, rects]))
    bounds = np.array([0, 100, 200, 300])
    cfg = NmsConfig(pruning=pruning)
    variant = NmsVariant.CLASSICAL if pruning is Pruning.HARD else NmsVariant.SOFT
    units = nms._scenes(bounds) if pruning is Pruning.SIGMOIDAL else source._clusters(bounds)
    assert nms._lanes(units).shape == ((3, 100) if pruning is Pruning.SIGMOIDAL else (300, 1))
    got = nms._nms_scenes(np.tile(scores, 3), source, bounds, cfg, variant)
    for k, result in enumerate(got):
        expected = run_nms(scores, RectOverlaps(rects + (3.0 if k == 1 else 0.0)), cfg, variant)
        assert _same(result.rescores, expected.rescores)


@pytest.mark.parametrize("pruning", [Pruning.LINEAR, Pruning.SIGMOIDAL])
def test_a_lane_shared_by_two_scenes_decays_only_the_top_s_scene(pruning):
    # Scene 0 is a cluster of three boxes and a lone box; scenes 1 and 2 each
    # repeat the lone box twice. Under linear pruning the clusters of scenes
    # 2 and 0 share a lane, under sigmoid scenes 1 and 2 do, and in both a
    # top must not decay the overlapping boxes of the other scene.
    lone = [[20, 20, 24, 24], [21, 20, 25, 24]]
    rects = np.array([[0, 0, 4, 4], [1, 0, 5, 4], [0, 1, 4, 5], lone[0], *lone, *lone], dtype=float)
    source, bounds = RectOverlaps(rects), np.array([0, 4, 6, 8])
    units = source._clusters(bounds) if pruning is Pruning.LINEAR else nms._scenes(bounds)
    lanes = [np.unique(np.searchsorted(bounds, lane[lane >= 0], side="right")).size for lane in nms._lanes(units)]
    assert max(lanes) == 2
    scores = np.array([0.9, 0.8, 0.7, 0.6, 0.95, 0.85, 0.75, 0.65])
    cfg = NmsConfig(pruning=pruning)
    got = nms._nms_scenes(scores, source, bounds, cfg, NmsVariant.SOFT)
    for result, lo, hi in zip(got, bounds, bounds[1:]):
        assert _same(result.rescores, run_nms(scores[lo:hi], RectOverlaps(rects[lo:hi]), cfg, NmsVariant.SOFT).rescores)


def test_scene_blocks_keep_small_scenes_apart_from_a_large_one():
    # Sizes 1, 2, 3, 4, 100 and 40: padding never doubles a block.
    bounds = np.cumsum([0, 1, 2, 0, 3, 4, 100, 40])
    blocks = nms._scene_blocks(bounds)
    assert [block.shape for block in blocks] == [(1, 1), (1, 2), (2, 4), (1, 40), (1, 100)]
    boxes = np.sort(np.concatenate([block[block >= 0] for block in blocks]))
    assert np.array_equal(boxes, np.arange(bounds[-1]))
