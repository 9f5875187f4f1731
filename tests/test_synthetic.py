import dataclasses
import math
import os
import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from diffnms import (
    NmsConfig,
    NmsVariant,
    Pruning,
    ScoreRangeError,
    SyntheticConfig,
    build_comparison,
    combine_scores,
    effective_scores,
    generate_synthetic,
    iou2d,
    iou3d,
    oracle_scores,
    random_instance,
    rect_from_cuboid,
    rescore_scene,
    rescored_boxes,
    score_iou_correlation,
    write_scenes_jsonl,
)
from diffnms.boxes import DetectionBox, GroundTruth, Scene, _Columns
from diffnms.geometry import Cuboid3D, Rect2D
from diffnms.synthetic import _GT_HIGH, _GT_LOW, _apart
from oracles import (
    reference_effective_scores,
    reference_generate_synthetic,
    reference_iou2d,
    reference_oracle_scores,
    reference_random_instance,
    reference_rect_from_cuboid,
)

confidences = st.one_of(st.none(), st.floats(), st.sampled_from([-0.0, math.inf, -math.inf, math.nan]))
scored_boxes = st.builds(
    lambda score, class_conf, pred_conf: DetectionBox(
        Rect2D(0.0, 0.0, 1.0, 1.0), score=score, class_conf=class_conf, pred_conf=pred_conf
    ),
    st.one_of(st.floats(), st.just(-0.0)),
    confidences,
    confidences,
)


def _scores_or_error(effective, boxes, mode):
    """(the scores' bytes, None), or (None, the ScoreRangeError's reason and index)."""
    try:
        return effective(boxes, mode).tobytes(), None
    except ScoreRangeError as exc:
        return None, (exc.reason, exc.index)


class TestSyntheticScenes:
    def test_counts_match_config(self):
        cfg = SyntheticConfig(seed=1, num_scenes=3, num_objects=4, proposals_per_object=5)
        scenes = generate_synthetic(cfg)
        assert len(scenes) == 3
        for scene in scenes:
            assert len(scene.gts) == 4
            assert len(scene.boxes) == 20

    def test_deterministic_per_seed(self):
        cfg = SyntheticConfig(seed=9, num_scenes=2, num_objects=3, proposals_per_object=4)
        assert generate_synthetic(cfg) == generate_synthetic(cfg)

    def test_different_seeds_differ(self):
        a = generate_synthetic(SyntheticConfig(seed=1, num_objects=2, proposals_per_object=2))
        b = generate_synthetic(SyntheticConfig(seed=2, num_objects=2, proposals_per_object=2))
        assert a != b

    def test_exact_first_proposal_matches_its_object(self):
        cfg = SyntheticConfig(seed=5, num_objects=4, proposals_per_object=3, score_noise=0.0)
        scene = generate_synthetic(cfg)[0]
        for k, gt in enumerate(scene.gts):
            first = scene.boxes[k * 3]
            assert iou3d(first.cuboid, gt.cuboid) == 1.0
            assert first.score == 1.0

    def test_ground_truths_do_not_overlap(self):
        scene = generate_synthetic(SyntheticConfig(seed=3, num_objects=8))[0]
        for i, a in enumerate(scene.gts):
            for b in scene.gts[i + 1:]:
                assert iou2d(a.rect, b.rect) == 0.0

    def test_placement_rule_is_zero_iou2d(self):
        # Candidates drawn as placement draws them, and copies moved to touch
        # them exactly on x, on y and at a corner.
        rng = np.random.default_rng(11)
        rects = [rect_from_cuboid(Cuboid3D(*rng.uniform(_GT_LOW, _GT_HIGH))) for _ in range(120)]
        touching = []
        for r in rects[:40]:
            touching += [
                (r, Rect2D(r.x2, r.y1, r.x2 + (r.x2 - r.x1), r.y2)),
                (r, Rect2D(r.x1, r.y2 - 2 * (r.y2 - r.y1), r.x2, r.y1)),
                (r, Rect2D(r.x2, r.y2, r.x2 + 1.0, r.y2 + 1.0)),
            ]
        pairs = [(a, b) for a in rects for b in rects] + touching + [(b, a) for a, b in touching]
        apart = [_apart(dataclasses.astuple(a), dataclasses.astuple(b)) for a, b in pairs]
        assert apart == [reference_iou2d(a, b) == 0.0 for a, b in pairs]
        assert 0 < sum(apart) < len(pairs)
        assert all(apart[-2 * len(touching):])

    def test_rejects_a_negative_seed(self):
        with pytest.raises(ValueError, match="seed must be a non-negative integer, got -1"):
            SyntheticConfig(seed=-1)

    def test_scores_live_in_unit_interval(self):
        cfg = SyntheticConfig(seed=2, num_objects=5, proposals_per_object=10, score_noise=0.5)
        for scene in generate_synthetic(cfg):
            for box in scene.boxes:
                assert 0.0 <= box.score <= 1.0

    def test_scene_ids_are_stable(self):
        cfg = SyntheticConfig(seed=6, num_scenes=2, num_objects=2, proposals_per_object=2)
        assert [s.scene_id for s in generate_synthetic(cfg)] == ["synth-6-0000", "synth-6-0001"]

    def test_rect_projection_is_well_formed(self):
        scene = generate_synthetic(SyntheticConfig(seed=4, num_objects=6))[0]
        for gt in scene.gts:
            rect = rect_from_cuboid(gt.cuboid)
            assert rect.x2 > rect.x1 and rect.y2 > rect.y1

    def test_config_validation(self):
        with pytest.raises(ValueError):
            SyntheticConfig(num_objects=0)
        with pytest.raises(ValueError):
            SyntheticConfig(center_jitter=-1.0)

    @pytest.mark.parametrize(
        "field, value, message",
        [
            ("num_scenes", 2.5, "num_scenes must be an integer, got 2.5"),
            ("num_objects", True, "num_objects must be an integer, got True"),
            ("proposals_per_object", 2.0, "proposals_per_object must be an integer, got 2.0"),
            ("num_scenes", "3", "num_scenes must be an integer, got '3'"),
            ("seed", 1.5, "seed must be a non-negative integer, got 1.5"),
            ("seed", False, "seed must be a non-negative integer, got False"),
        ],
    )
    def test_counts_and_seed_must_be_integers(self, field, value, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            SyntheticConfig(**{field: value})

    def test_numpy_integers_are_integers(self):
        cfg = SyntheticConfig(seed=np.int64(3), num_scenes=np.int32(2), num_objects=np.uint8(2), proposals_per_object=np.int64(3))
        assert repr(generate_synthetic(cfg)) == repr(generate_synthetic(SyntheticConfig(3, 2, 2, 3)))

    def test_too_many_objects_for_the_scene_is_an_error(self):
        # The default scene holds 27 objects that do not overlap; the 28th finds no free place.
        with pytest.raises(ValueError, match="^could not place object 27 after 500 attempts; lower num_objects$"):
            generate_synthetic(SyntheticConfig(num_objects=60))


def _outcome(generate, cfg, tmp_path):
    """What generate makes of cfg, with warnings as errors: the written JSONL bytes and the records' repr, or
    the error's type and message."""
    path = tmp_path / "scenes.jsonl"
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            scenes = generate(cfg)
            write_scenes_jsonl(path, scenes)
    except Exception as exc:
        return type(exc).__name__, str(exc)
    return path.read_bytes(), repr(scenes)


# The benchmark's corpus shapes at three seeds, one proposal per object, zero
# jitter, zero scenes, a placement failure, and the jitters that overflow a
# cuboid, a rectangle or a size factor, in the first scene or a later one.
GENERATOR_CONFIGS = [
    *(
        SyntheticConfig(seed=seed * 16 + k, num_scenes=n, num_objects=o, proposals_per_object=p, score_noise=0.1)
        for seed in (1, 7, 101)
        for k, (n, o, p) in enumerate([(60, 8, 5), (2, 10, 150), (1, 10, 120)])
    ),
    SyntheticConfig(seed=42, num_scenes=2, num_objects=4, proposals_per_object=5, center_jitter=0.6, size_jitter=0.2,
                    score_noise=0.1),
    SyntheticConfig(seed=3, num_scenes=3, proposals_per_object=1, score_noise=0.5),
    SyntheticConfig(seed=4, num_scenes=2, center_jitter=0.0, size_jitter=0.0),
    SyntheticConfig(num_scenes=0),
    SyntheticConfig(num_scenes=2, num_objects=60),
    SyntheticConfig(seed=5, num_scenes=3, num_objects=25, proposals_per_object=2),
    SyntheticConfig(num_scenes=2, center_jitter=1e308),
    SyntheticConfig(num_scenes=2, center_jitter=3e307),
    SyntheticConfig(num_scenes=2, size_jitter=1e3),
    SyntheticConfig(num_scenes=2, size_jitter=1e308),
    SyntheticConfig(num_scenes=2, score_noise=1e308),
    SyntheticConfig(seed=9, num_scenes=3, num_objects=2, proposals_per_object=3, size_jitter=300.0),
    SyntheticConfig(seed=5, num_scenes=3, num_objects=2, proposals_per_object=2, size_jitter=300.0),
    SyntheticConfig(seed=5, num_scenes=3, num_objects=25, proposals_per_object=2, size_jitter=300.0),
    SyntheticConfig(seed=11, num_scenes=4, num_objects=3, proposals_per_object=3, center_jitter=1e306),
]


class TestGeneratorMatchesTheProposalLoop:
    @pytest.mark.parametrize("cfg", GENERATOR_CONFIGS, ids=range(len(GENERATOR_CONFIGS)))
    def test_bytes_records_and_errors(self, tmp_path, cfg):
        """The same JSONL bytes and records as the per-proposal loop, or the same first error."""
        assert _outcome(generate_synthetic, cfg, tmp_path) == _outcome(reference_generate_synthetic, cfg, tmp_path)

    def test_the_configs_cover_every_outcome(self, tmp_path):
        errors = [_outcome(generate_synthetic, cfg, tmp_path) for cfg in GENERATOR_CONFIGS[9:]]
        messages = [message for kind, message in errors if kind == "ValueError"]
        assert any(m.startswith("could not place object") for m in messages)
        assert any(m.startswith("Cuboid3D.") for m in messages)
        assert any(m.startswith("Rect2D.") for m in messages)
        assert any(m.startswith("Rect2D area") for m in messages)
        assert any(" jitter exp(" in m and m.startswith("scene 'synth-5-0002'") for m in messages)

    def test_scenes_hold_the_columns_their_records_give(self):
        cfg = SyntheticConfig(seed=8, num_scenes=3, num_objects=4, proposals_per_object=3, score_noise=0.2)
        for scene in generate_synthetic(cfg):
            for name, kind in (("boxes", DetectionBox), ("gts", GroundTruth)):
                columns = scene._columns(name)
                assert scene._held_records(name) is None
                expected = _Columns.from_records(kind, columns.records())
                for slot in _Columns.__slots__:
                    got, want = getattr(columns, slot), getattr(expected, slot)
                    if isinstance(want, np.ndarray):
                        assert (got.dtype, got.shape, got.tobytes()) == (want.dtype, want.shape, want.tobytes()), slot
                    else:
                        assert got == want, slot

    def test_rect_from_cuboid_is_the_min_max_of_the_footprint(self):
        rng = np.random.default_rng(4)
        cuboids = [Cuboid3D(*rng.uniform(_GT_LOW, _GT_HIGH)) for _ in range(200)]
        # Signed zeros and equal corners, where the first of equal values decides the sign.
        cuboids += [Cuboid3D(-40.0, 1.0, 0.0, 0.0, 1.0, 0.0, yaw) for yaw in (0.0, -0.0, math.pi / 2, -math.pi)]
        cuboids += [Cuboid3D(0.0, 1.0, -0.0, 2.0, 1.0, 4.0, math.pi / 4), Cuboid3D(1e306, 1.0, -1e306, 1e150, 1.0, 1e150, 1.0)]
        for c in cuboids:
            got, expected = rect_from_cuboid(c), reference_rect_from_cuboid(c)
            assert np.array(dataclasses.astuple(got)).tobytes() == np.array(dataclasses.astuple(expected)).tobytes()

    def test_rect_from_cuboid_raises_what_rect2d_raises(self):
        cuboid = Cuboid3D(1.7e308, 1.0, 0.0, 2.0, 1.0, 4.0, 0.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="^Rect2D.x1 must be finite, got inf$"):
                rect_from_cuboid(cuboid)
        with pytest.raises(ValueError, match="^Rect2D.x1 must be finite, got inf$"):
            reference_rect_from_cuboid(cuboid)


class TestRandomInstance:
    def test_shapes_and_ranges(self):
        rng = np.random.default_rng(0)
        scores, overlaps = random_instance(rng, 17)
        assert scores.shape == (17,)
        assert overlaps.shape == (17, 17)
        assert np.all(scores >= 0.01) and np.all(scores <= 0.99)
        assert np.array_equal(overlaps, overlaps.T)
        assert np.array_equal(np.diag(overlaps), np.ones(17))

    def test_tiny_instances(self):
        rng = np.random.default_rng(1)
        scores, overlaps = random_instance(rng, 1)
        assert scores.shape == (1,) and overlaps.shape == (1, 1)

    def test_produces_overlapping_pairs(self):
        rng = np.random.default_rng(2)
        _, overlaps = random_instance(rng, 40)
        off_diag = overlaps[~np.eye(40, dtype=bool)]
        assert np.any(off_diag > 0.4)

    def test_draws_what_the_rect2d_loop_drew(self):
        """The same RNG calls in the same order, the same overlap bits, and the generator left in the same state."""
        for seed in range(6):
            rng, reference = np.random.default_rng(seed), np.random.default_rng(seed)
            for n in (0, 1, 2, 4, 13, 60):
                scores, overlaps = random_instance(rng, n)
                expected_scores, expected = reference_random_instance(reference, n)
                assert scores.tobytes() == expected_scores.tobytes()
                assert overlaps.tobytes() == expected.tobytes()
            assert rng.bit_generator.state == reference.bit_generator.state


class TestScoreCombination:
    def test_product_mode(self):
        assert combine_scores(0.8, 0.5, "product") == pytest.approx(0.4)
        assert combine_scores(0.8, None, "product") == 0.8
        assert combine_scores(None, 0.5, "product") == 0.5
        with pytest.raises(ValueError):
            combine_scores(None, None, "product")

    @pytest.mark.parametrize(
        "class_conf, pred_conf, message",
        [
            (-0.5, -0.9, "class_conf must be non-negative, got -0.5"),
            (0.8, -0.9, "pred_conf must be non-negative, got -0.9"),
            (-0.5, 0.0, "class_conf must be non-negative, got -0.5"),
            (0.0, -0.25, "pred_conf must be non-negative, got -0.25"),
        ],
    )
    def test_product_mode_rejects_a_negative_factor(self, class_conf, pred_conf, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            combine_scores(class_conf, pred_conf, "product")

    def test_product_mode_accepts_negative_zero_and_a_lone_negative(self):
        assert math.copysign(1.0, combine_scores(-0.0, 0.5, "product")) == -1.0
        assert math.copysign(1.0, combine_scores(0.5, -0.0, "product")) == -1.0
        # A lone confidence is the score itself, which NMS validates.
        assert combine_scores(-0.5, None, "product") == -0.5
        assert combine_scores(None, -0.5, "product") == -0.5

    def test_single_confidence_modes(self):
        assert combine_scores(0.8, 0.5, "class") == 0.8
        assert combine_scores(0.8, 0.5, "pred") == 0.5
        with pytest.raises(ValueError):
            combine_scores(None, 0.5, "class")
        with pytest.raises(ValueError):
            combine_scores(0.8, None, "pred")

    def test_unknown_mode(self):
        with pytest.raises(ValueError):
            combine_scores(0.5, 0.5, "mean")

    def test_effective_scores_fall_back_to_raw(self):
        scene = generate_synthetic(SyntheticConfig(seed=7, num_objects=2, proposals_per_object=2))[0]
        raw = effective_scores(scene.boxes, None)
        fallback = effective_scores(scene.boxes, "product")
        assert np.array_equal(raw, fallback)  # no confidences present

    def test_effective_scores_use_confidences_when_present(self):
        scene = generate_synthetic(SyntheticConfig(seed=7, num_objects=2, proposals_per_object=2))[0]
        boxes = [
            DetectionBox(rect=b.rect, cuboid=b.cuboid, score=b.score, class_conf=0.5, pred_conf=0.5)
            for b in scene.boxes
        ]
        assert np.all(effective_scores(boxes, "product") == 0.25)


    @settings(max_examples=300)
    @given(boxes=st.lists(scored_boxes, max_size=8), mode=st.sampled_from([None, "product", "class", "pred", "mean"]))
    def test_effective_scores_match_the_per_record_loop(self, boxes, mode):
        """The column rule gives the per-record loop's scores bit for bit, or its error for the same box."""
        got = _scores_or_error(effective_scores, boxes, mode)
        assert got == _scores_or_error(reference_effective_scores, boxes, mode)


class TestHarnessPipelines:
    def test_rescore_scene_skips_dontcare(self):
        scene = generate_synthetic(SyntheticConfig(seed=8, num_objects=3, proposals_per_object=3))[0]
        scene.boxes[4].dontcare = True
        cfg = NmsConfig(pruning=Pruning.LINEAR)
        result, index_map = rescore_scene(scene, cfg, NmsVariant.MASKED)
        assert 4 not in index_map
        assert len(index_map) == 8
        assert result.rescores.shape == (8,)

    def test_rescored_boxes_carry_new_scores(self):
        scene = generate_synthetic(SyntheticConfig(seed=8, num_objects=3, proposals_per_object=3))[0]
        cfg = NmsConfig(pruning=Pruning.LINEAR)
        result, index_map = rescore_scene(scene, cfg, NmsVariant.MASKED)
        kept = rescored_boxes(scene, result, index_map)
        assert len(kept) == len(result.kept)
        for box, k in zip(kept, result.kept):
            assert box.score == result.rescores[int(k)]

    def test_rescored_boxes_keep_all_keeps_every_box_in_order(self):
        scene = generate_synthetic(SyntheticConfig(seed=8, num_objects=3, proposals_per_object=3))[0]
        scene.boxes[4].dontcare = True
        cfg = NmsConfig(pruning=Pruning.LINEAR)
        result, index_map = rescore_scene(scene, cfg, NmsVariant.MASKED)
        boxes = rescored_boxes(scene, result, index_map, kept_only=False)
        assert boxes[4] is scene.boxes[4]
        rescores = dict(zip(index_map, result.rescores.tolist()))
        assert [b.score for b in boxes] == [rescores.get(i, b.score) for i, b in enumerate(scene.boxes)]
        assert [dataclasses.replace(b, score=0.0) for b in boxes] == [
            dataclasses.replace(b, score=0.0) for b in scene.boxes
        ]

    def test_oracle_scores_hit_one_for_exact_proposals(self):
        scene = generate_synthetic(SyntheticConfig(seed=10, num_objects=3, proposals_per_object=2))[0]
        oracled = oracle_scores(scene, "iou3d")
        firsts = [oracled.boxes[k * 2].score for k in range(3)]
        assert firsts == [1.0, 1.0, 1.0]
        assert oracle_scores(scene, "iou2d").boxes[0].score == 1.0
        with pytest.raises(ValueError):
            oracle_scores(scene, "giou")

    def test_oracle_scores_of_a_record_scene_hold_box_columns(self):
        """Records in, box columns out: the input records with the oracle scores, and the input ground truths."""
        scene = generate_synthetic(SyntheticConfig(seed=10, num_objects=3, proposals_per_object=3))[0]
        scene.boxes[0].cuboid = None
        scene.boxes[1].dontcare = True
        scene.boxes[2] = dataclasses.replace(scene.boxes[2], class_conf=0.5, extra={"track": [1, {"w": 2.5}]})
        scene.gts.append(GroundTruth(rect=scene.gts[0].rect, dontcare=True))
        for mode in ("iou3d", "iou2d"):
            oracled = oracle_scores(scene, mode)
            assert oracled._held_records("boxes") is None
            assert oracled.gts is scene.gts
            expected = reference_oracle_scores(scene, mode)
            assert oracled.boxes == [dataclasses.replace(b, score=v) for b, v in zip(scene.boxes, expected)]
            assert np.array(expected).tobytes() == np.array([b.score for b in oracled.boxes]).tobytes()

    def test_correlation_positive_on_jittered_scenes(self):
        cfg_s = SyntheticConfig(seed=12, num_scenes=4, num_objects=4, proposals_per_object=10,
                                score_noise=0.05, center_jitter=0.5)
        scenes = generate_synthetic(cfg_s)
        cfg = NmsConfig(pruning=Pruning.EXPONENTIAL, valid_threshold=0.01)
        out = score_iou_correlation(scenes, cfg, NmsVariant.MASKED)
        assert out.coefficient is not None
        assert out.coefficient > 0.5
        assert all(0.0 <= r.iou3d_rotated <= 1.0 for r in out.rows)

    def test_correlation_skips_a_scene_whose_only_gt_is_dontcare(self):
        cuboid = Cuboid3D(0.0, 0.75, 10.0, 1.6, 1.5, 4.0, 0.0)
        rect = Rect2D(0.0, 0.0, 10.0, 10.0)

        def scene(scene_id, dontcare):
            gt = GroundTruth(rect, cuboid, dontcare=dontcare)
            return Scene(scene_id, boxes=[DetectionBox(rect, cuboid, score=0.9)], gts=[gt])

        cfg = NmsConfig(pruning=Pruning.LINEAR)
        assert score_iou_correlation([scene("a", True)], cfg, NmsVariant.MASKED).rows == []
        out = score_iou_correlation([scene("a", True), scene("b", False)], cfg, NmsVariant.MASKED)
        assert [(r.scene_id, r.box_index, r.iou3d_rotated) for r in out.rows] == [("b", 0, 1.0)]
        assert out.coefficient is None

    def test_build_comparison_report(self):
        scenes = generate_synthetic(
            SyntheticConfig(seed=15, num_scenes=3, num_objects=3, proposals_per_object=5)
        )
        cfg = NmsConfig(pruning=Pruning.HARD)
        report = build_comparison(
            scenes, cfg, [NmsVariant.CLASSICAL, NmsVariant.MASKED], None, iou_threshold=0.7
        )
        # masked NMS with hard pruning reproduces classical kept sets
        assert report.jaccard[("classical", "masked")] == 1.0
        assert report.kept_mean["classical"] == report.kept_mean["masked"]
        assert report.ap_r40["classical"] == report.ap_r40["masked"]
        rows = report.rows()
        assert rows[0] == ["kind", "name", "value", "detail"]
        assert "classical" in report.table()

    @pytest.mark.parametrize("variants", [["masked", "masked"], [NmsVariant.CLASSICAL, NmsVariant.MASKED, "classical"]])
    def test_build_comparison_rejects_a_repeated_variant(self, variants):
        scenes = generate_synthetic(SyntheticConfig(seed=15, num_scenes=3, num_objects=3, proposals_per_object=5))
        repeated = NmsVariant(variants[0]).value
        with pytest.raises(ValueError, match=f"variant {repeated} is listed more than once"):
            build_comparison(scenes, NmsConfig(pruning=Pruning.HARD), variants)
