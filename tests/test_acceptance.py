"""End-to-end acceptance checks with pinned tolerances and budgets.

Each test here pins down one externally visible guarantee of the package:
agreement with classical NMS, exact algebraic identities, gradient accuracy,
score domination, oracle-level numerical agreement, evaluator correctness,
and byte-level determinism of the CLI and serializers.
"""

import dataclasses
import time
from pathlib import Path

import numpy as np
import pytest

from diffnms import (
    Cuboid3D,
    DetectionBox,
    GroundTruth,
    NmsConfig,
    NmsVariant,
    Pruning,
    Rect2D,
    ap_loss_gradient,
    average_precision,
    eval_ap_r40,
    format_kitti_label,
    generate_synthetic,
    giou3d,
    iou3d,
    masked_rescore,
    oracle_scores,
    parse_kitti_label,
    random_instance,
    read_scenes_jsonl,
    rescore_scene,
    rescored_boxes,
    rotated_bev_intersection_area,
    run_nms,
    sort_by_score,
    write_scenes_jsonl,
    finite_difference_check,
    SyntheticConfig,
)
from diffnms.cli import main as cli_main
from oracles import build_mask, mc_intersection_area, reference_ap_r40, rescore_recursive_oracle

DATA = Path(__file__).parent / "data"


def test_masked_hard_kept_sets_match_classical():
    # With hard pruning, no group cap, and a negligible keep threshold, the
    # masked rescorer must reproduce classical NMS keep decisions exactly.
    budget = 30.0
    t0 = time.perf_counter()
    rng = np.random.default_rng(1001)
    cfg = NmsConfig(pruning=Pruning.HARD, max_group_size=None, valid_threshold=1e-6)
    mismatches = 0
    for _ in range(1000):
        n = int(rng.integers(1, 201))
        scores, overlaps = random_instance(rng, n)
        classical = run_nms(scores, overlaps, cfg, NmsVariant.CLASSICAL)
        masked = masked_rescore(scores, overlaps, cfg)
        if not np.array_equal(classical.kept, masked.kept):
            mismatches += 1
    elapsed = time.perf_counter() - t0
    assert mismatches == 0
    assert elapsed < budget
    print(f"[1] masked+hard == classical on 1000 scenes (n<=200) in {elapsed:.2f}s")


def test_masked_prune_matrix_is_its_own_inverse_correction():
    # The masked prune matrix A = M * P is nilpotent of order 2, so
    # (I + A)(I - A) = I holds exactly up to rounding.
    budget = 5.0
    t0 = time.perf_counter()
    rng = np.random.default_rng(1002)
    worst = 0.0
    for trial in range(500):
        n = trial % 50 + 1
        p = np.tril(rng.uniform(0.0, 1.0, size=(n, n)), k=-1)
        a = build_mask(n) * p
        eye = np.eye(n)
        residual = (eye + a) @ (eye - a) - eye
        worst = max(worst, float(np.max(np.abs(residual))))
    elapsed = time.perf_counter() - t0
    assert worst <= 1e-12
    assert elapsed < budget
    print(f"[2] (I+A)(I-A)=I residual {worst:.2e} over 500 groups in {elapsed:.2f}s")


def test_analytic_gradients_match_finite_differences():
    # Central differences with eps=1e-6 must agree with the analytic
    # jacobians to 1e-4 relative error away from clip kinks, sort ties,
    # grouping thresholds, and domain boundaries.
    budget = 60.0
    t0 = time.perf_counter()
    configs = [
        NmsConfig(pruning=Pruning.LINEAR),
        NmsConfig(pruning=Pruning.EXPONENTIAL, tau=0.1),
        NmsConfig(pruning=Pruning.EXPONENTIAL, tau=0.5),
        NmsConfig(pruning=Pruning.EXPONENTIAL, tau=1.0),
        NmsConfig(pruning=Pruning.SIGMOIDAL, tau=0.1),
    ]
    rng = np.random.default_rng(1003)
    worst = 0.0
    checked = 0
    for cfg in configs:
        for _ in range(100):
            n = int(rng.integers(4, 21))
            scores, overlaps = random_instance(rng, n)
            report = finite_difference_check(scores, overlaps, cfg, eps=1e-6, tolerance=1e-4)
            assert report.passed, (cfg.pruning, cfg.tau, report.worst, report.max_rel_error)
            worst = max(worst, report.max_rel_error)
            checked += report.checked
    elapsed = time.perf_counter() - t0
    assert worst <= 1e-4
    assert elapsed < budget
    print(f"[3] gradcheck worst rel err {worst:.2e} over {checked} entries in {elapsed:.2f}s")


def test_rescores_are_bounded_by_original_scores():
    # Suppression may only ever lower a score: 0 <= r_i <= s_i for every
    # variant and every compatible pruning kind, with zero violations.
    soft_kinds = (Pruning.LINEAR, Pruning.EXPONENTIAL, Pruning.SIGMOIDAL)
    combos = [(NmsVariant.CLASSICAL, Pruning.HARD)]
    combos += [(NmsVariant.SOFT, kind) for kind in soft_kinds]
    for variant in (NmsVariant.MASKED, NmsVariant.FULL_INVERSE, NmsVariant.GROUPED_INVERSE):
        combos += [(variant, kind) for kind in (Pruning.HARD,) + soft_kinds]
    rng = np.random.default_rng(1004)
    instances = 0
    violations = 0
    per_combo = 650
    for variant, kind in combos:
        cfg = NmsConfig(pruning=kind)
        for _ in range(per_combo):
            n = int(rng.integers(1, 20))
            scores, overlaps = random_instance(rng, n)
            result = run_nms(scores, overlaps, cfg, variant)
            r = result.rescores
            if not (np.all(r >= 0.0) and np.all(r <= scores)):
                violations += 1
            instances += 1
    assert instances >= 10_000
    assert violations == 0
    print(f"[4] score domination held on {instances} instances across {len(combos)} combos")


def test_forward_substitution_matches_recursive_oracle_bitwise():
    # Whenever the unclipped solve stays inside [0, 1]^n it must equal the
    # recursive oracle bit for bit: both run the same accumulation order.
    rng = np.random.default_rng(1005)
    cfg = NmsConfig(pruning=Pruning.EXPONENTIAL, tau=1.5)
    in_range = 0
    for _ in range(800):
        n = int(rng.integers(2, 15))
        scores, overlaps = random_instance(rng, n)
        s, o, order = sort_by_score(scores, overlaps)
        pre = run_nms(scores, overlaps, cfg, NmsVariant.FULL_INVERSE).pre_clip[order]
        if np.all(pre >= 0.0) and np.all(pre <= 1.0):
            assert np.array_equal(pre, rescore_recursive_oracle(s, o, cfg))
            in_range += 1
    assert in_range >= 200
    print(f"[5a] bitwise equality on {in_range} unclipped instances of 800")


def test_grouped_solve_matches_full_solve_on_separated_clusters():
    # When overlap is block diagonal and every in-block pair exceeds the
    # grouping threshold, per-group solves must agree with the full solve.
    # Sigmoidal pruning is excluded: its weight at zero overlap is nonzero,
    # so the full solve couples the blocks by construction.
    rng = np.random.default_rng(1006)
    worst = 0.0
    for _ in range(300):
        parts = int(rng.integers(2, 5))
        blocks, scores = [], []
        for _ in range(parts):
            m = int(rng.integers(1, 8))
            block = np.zeros((m, m))
            iu = np.triu_indices(m, 1)
            block[iu] = rng.uniform(0.45, 0.95, size=len(iu[0]))
            block += block.T
            blocks.append(block)
            scores.append(rng.uniform(0.05, 1.0, size=m))
        n = sum(b.shape[0] for b in blocks)
        overlaps = np.zeros((n, n))
        start = 0
        for block in blocks:
            stop = start + block.shape[0]
            overlaps[start:stop, start:stop] = block
            start = stop
        s = np.concatenate(scores)
        for kind in (Pruning.HARD, Pruning.LINEAR, Pruning.EXPONENTIAL):
            cfg = NmsConfig(pruning=kind, max_group_size=None)
            full = run_nms(s, overlaps, cfg, NmsVariant.FULL_INVERSE)
            grouped = run_nms(s, overlaps, cfg, NmsVariant.GROUPED_INVERSE)
            worst = max(worst, float(np.max(np.abs(full.rescores - grouped.rescores))))
    assert worst <= 1e-12
    print(f"[5b] grouped vs full solve gap {worst:.2e} on 300 block-diagonal instances")


def _random_cuboid(rng: np.random.Generator, offset: float = 0.0) -> Cuboid3D:
    return Cuboid3D(
        cx=float(rng.uniform(-2.0, 2.0)) + offset,
        cy=0.5,
        cz=float(rng.uniform(-2.0, 2.0)),
        w=float(rng.uniform(0.5, 3.0)),
        h=1.0,
        l=float(rng.uniform(0.5, 5.0)),
        yaw=float(rng.uniform(-np.pi, np.pi)),
    )


def test_rotated_intersection_agrees_with_monte_carlo():
    # Exact polygon clipping must land within 3 standard errors of a
    # 1e6-sample Monte-Carlo estimate on every random rotated pair.
    rng = np.random.default_rng(60)
    fails = 0
    for _ in range(100):
        a = _random_cuboid(rng)
        b = _random_cuboid(rng, offset=float(rng.uniform(-2.0, 2.0)))
        exact = rotated_bev_intersection_area(a, b)
        estimate, sigma = mc_intersection_area(a, b, 1_000_000, rng)
        if abs(exact - estimate) > 3.0 * sigma:
            fails += 1
    assert fails == 0
    print("[6a] rotated intersection within 3 sigma of MC on all 100 pairs")


def test_giou3d_identity_and_ordering():
    rng = np.random.default_rng(61)
    for _ in range(50):
        a = _random_cuboid(rng)
        assert giou3d(a, a) == 1.0
    for _ in range(300):
        a = _random_cuboid(rng)
        b = _random_cuboid(rng, offset=float(rng.uniform(-3.0, 3.0)))
        # One ulp of slack: the hull correction is added before the -1.
        assert giou3d(a, b) <= iou3d(a, b) + 1e-15
    print("[6b] giou3d(a,a)=1 exactly; giou3d <= iou3d on 300 pairs")


def _make_gt(cx: float = 0.0) -> GroundTruth:
    cub = Cuboid3D(cx=cx, cy=0.75, cz=10.0, w=1.6, h=1.5, l=4.0, yaw=0.0)
    rect = Rect2D(x1=cx * 10 + 400, y1=100.0, x2=cx * 10 + 450, y2=160.0)
    return GroundTruth(rect=rect, cuboid=cub)


def _make_det(gt: GroundTruth, score: float, dx: float = 0.0) -> DetectionBox:
    c = gt.cuboid
    cub = Cuboid3D(cx=c.cx + dx, cy=c.cy, cz=c.cz, w=c.w, h=c.h, l=c.l, yaw=c.yaw)
    r = gt.rect
    rect = Rect2D(x1=r.x1 + dx * 10.0, y1=r.y1, x2=r.x2 + dx * 10.0, y2=r.y2)
    return DetectionBox(rect=rect, cuboid=cub, score=score)


def test_ranking_hand_values_gradient_and_reference_evaluator():
    # Exact AP values on dyadic hand cases.
    assert average_precision([0.9, 0.8], [0, 1]) == 0.5
    assert average_precision([0.9, 0.8, 0.7], [1, 0, 1]) == (1.0 + 2.0 / 3.0) / 2.0

    # A perfect ranking has zero loss gradient.
    grad = ap_loss_gradient([0.9, 0.8, 0.2, 0.1], [1, 1, 0, 0])
    assert np.array_equal(grad, np.zeros(4))

    # Plain gradient descent on the scores must reach a perfect ranking.
    rng = np.random.default_rng(123)
    r = rng.uniform(0.0, 1.0, 10)
    t = np.array([1, 0, 1, 0, 0, 1, 0, 0, 0, 1])
    for _ in range(200):
        r = r - 0.05 * ap_loss_gradient(r, t)
    assert average_precision(r, t) == 1.0

    # The vectorized evaluator must match a plain-Python reference.
    rng = np.random.default_rng(131)
    scenes = []
    for _ in range(50):
        gts = [_make_gt(cx=float(i) * 14.0 + float(rng.uniform(-1, 1))) for i in range(3)]
        dets = []
        for gt in gts:
            for _ in range(int(rng.integers(1, 4))):
                dets.append(_make_det(gt, float(rng.uniform(0.1, 1.0)), dx=float(rng.uniform(0.0, 2.5))))
        scenes.append((dets, gts))
    for threshold in (0.5, 0.7):
        mine = eval_ap_r40(scenes, threshold)
        ref = reference_ap_r40(scenes, threshold)
        assert mine == pytest.approx(ref, abs=1e-9)
    print("[7] AP hand values, zero gradient, descent to AP=1, reference match on 50 scenes")


def test_oracle_scores_recover_perfect_ap():
    # Scoring proposals by true 3D IoU, then classical NMS, must yield a
    # perfect AP|R40 at IoU 0.7 on noise-free synthetic scenes; random
    # scores on the same proposals must land far below.
    budget = 10.0
    t0 = time.perf_counter()
    synth_cfg = SyntheticConfig(
        seed=77, num_scenes=12, num_objects=6, proposals_per_object=12,
        score_noise=0.0, center_jitter=0.4, size_jitter=0.08,
    )
    scenes = generate_synthetic(synth_cfg)
    nms_cfg = NmsConfig(pruning=Pruning.HARD)

    def pipeline(scene_list):
        pairs = []
        for scene in scene_list:
            result, index_map = rescore_scene(scene, nms_cfg, NmsVariant.CLASSICAL)
            pairs.append((rescored_boxes(scene, result, index_map), scene.gts))
        return eval_ap_r40(pairs, 0.7)

    oracle_ap = pipeline([oracle_scores(s, mode="iou3d") for s in scenes])
    assert oracle_ap == 100.0

    rng = np.random.default_rng(123)
    shuffled = []
    for scene in scenes:
        boxes = [
            dataclasses.replace(b, score=float(rng.uniform(0.0, 1.0)))
            for b in scene.boxes
        ]
        shuffled.append(dataclasses.replace(scene, boxes=boxes))
    random_ap = pipeline(shuffled)
    elapsed = time.perf_counter() - t0
    assert oracle_ap - random_ap >= 20.0
    assert elapsed < budget
    print(f"[8] oracle AP {oracle_ap:.1f} vs random {random_ap:.1f} in {elapsed:.2f}s")


def test_cli_outputs_are_byte_deterministic(tmp_path):
    synth_args = ["synth", "--seed", "9", "--scenes", "3", "--objects", "4", "--proposals", "5"]
    a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    assert cli_main(synth_args + ["--out", str(a)]) == 0
    assert cli_main(synth_args + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()

    run_args = ["run", "--input", str(a), "--nms", "grouped-inverse", "--pruning", "exp"]
    ra, rb = tmp_path / "ra.jsonl", tmp_path / "rb.jsonl"
    assert cli_main(run_args + ["--out", str(ra)]) == 0
    assert cli_main(run_args + ["--out", str(rb)]) == 0
    assert ra.read_bytes() == rb.read_bytes()
    print("[9a] synth and run outputs byte-identical across repeat invocations")


def test_serialization_round_trips_are_fixpoints(tmp_path):
    # 100-line label corpus: parse then format must reproduce every line.
    lines = (DATA / "golden_labels.txt").read_text(encoding="utf-8").splitlines()
    assert len(lines) == 100
    for i, line in enumerate(lines):
        assert format_kitti_label(parse_kitti_label(line, line_number=i + 1)) == line

    # 100-scene JSONL corpus: read then write must reproduce the bytes.
    golden = DATA / "golden_scenes.jsonl"
    scenes = read_scenes_jsonl(golden)
    assert len(scenes) == 100
    out = tmp_path / "echo.jsonl"
    write_scenes_jsonl(out, scenes)
    assert out.read_bytes() == golden.read_bytes()
    print("[9b] label and JSONL round trips are byte fixpoints on 100-entry corpora")
