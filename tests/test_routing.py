"""The callers of the batched IoU matrices against the per-pair loops they replaced.

oracle_scores, assign_targets, eval_ap_r40 and score_iou_correlation must give
exactly what the scalar loops in tests/oracles.py give, on the golden corpus,
on a variant of it with DontCare records and missing cuboids, and on one
cluttered scene of 1500 boxes.
"""

import dataclasses
from pathlib import Path

import numpy as np
import pytest

from diffnms import (
    DEFAULT_DIFFICULTY_RULES,
    Cuboid3D,
    GroundTruth,
    NmsConfig,
    NmsVariant,
    Pruning,
    Rect2D,
    SyntheticConfig,
    assign_targets,
    eval_ap_r40,
    generate_synthetic,
    oracle_scores,
    read_scenes_jsonl,
    score_iou_correlation,
)
from oracles import (
    reference_correlation_rows,
    reference_eval_ap_r40,
    reference_oracle_scores,
    reference_quality,
)

GOLDEN = Path(__file__).parent / "data" / "golden_scenes.jsonl"


def bits(values) -> np.ndarray:
    return np.asarray(values, dtype=float).view(np.uint64)


def _mixed(scenes):
    """Every 5th box loses its cuboid, every 7th is DontCare; some gts are DontCare or cuboid-less."""
    out = []
    for s, scene in enumerate(scenes):
        boxes = [
            dataclasses.replace(b, cuboid=None if i % 5 == 4 else b.cuboid, dontcare=i % 7 == 6)
            for i, b in enumerate(scene.boxes)
        ]
        gts = list(scene.gts)
        if s % 4 == 0:
            gts[0] = dataclasses.replace(gts[0], dontcare=True)
        if s % 3 == 0:
            gts.append(GroundTruth(rect=gts[-1].rect, cuboid=None))
        out.append(dataclasses.replace(scene, boxes=boxes, gts=gts))
    return out


def _dense():
    """A cluttered scene plus a ground truth no box reaches, which is never claimed."""
    (scene,) = generate_synthetic(
        SyntheticConfig(seed=5, num_scenes=1, num_objects=10, proposals_per_object=150, score_noise=0.1)
    )
    lonely = GroundTruth(
        rect=Rect2D(0.0, 0.0, 10.0, 10.0), cuboid=Cuboid3D(500.0, 1.0, 500.0, 1.6, 1.5, 4.0, 0.0)
    )
    return [dataclasses.replace(scene, gts=scene.gts + [lonely])]


@pytest.fixture(scope="module", params=["golden", "mixed", "dense"])
def scenes(request):
    golden = read_scenes_jsonl(GOLDEN)
    return {"golden": lambda: golden, "mixed": lambda: _mixed(golden), "dense": _dense}[request.param]()


@pytest.mark.parametrize("mode", ["iou3d", "iou2d"])
def test_oracle_scores_match_per_pair_loop(scenes, mode):
    for scene in scenes:
        got = [b.score for b in oracle_scores(scene, mode).boxes]
        assert np.array_equal(bits(got), bits(reference_oracle_scores(scene, mode))), scene.scene_id


def test_assign_targets_quality_matches_per_pair_loop(scenes):
    for scene in scenes:
        quality = assign_targets(scene.boxes, scene.gts).quality
        assert np.array_equal(bits(quality), bits(reference_quality(scene.boxes, scene.gts))), scene.scene_id


@pytest.mark.parametrize("iou_threshold", [0.25, 0.5, 0.7])
def test_eval_ap_r40_matches_per_pair_matching(scenes, iou_threshold):
    pairs = [(s.boxes, s.gts) for s in scenes]
    for rule in [None, *DEFAULT_DIFFICULTY_RULES.values()]:
        assert eval_ap_r40(pairs, iou_threshold, rule) == reference_eval_ap_r40(pairs, iou_threshold, rule)


def test_score_iou_correlation_matches_per_pair_loop(scenes):
    cfg = NmsConfig(pruning=Pruning.LINEAR, valid_threshold=0.05)
    rows = score_iou_correlation(scenes, cfg, NmsVariant.SOFT).rows
    got = [(r.scene_id, r.box_index, r.rescore, r.iou3d_rotated, r.iou3d_axis_aligned) for r in rows]
    expected = reference_correlation_rows(scenes, cfg, NmsVariant.SOFT)
    assert [(a, b) for a, b, *_ in got] == [(a, b) for a, b, *_ in expected]
    assert np.array_equal(bits([r[2:] for r in got]), bits([r[2:] for r in expected]))
