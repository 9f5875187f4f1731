"""The callers of the batched IoU matrices against the per-pair loops they replaced.

oracle_scores, assign_targets, eval_ap_r40 and score_iou_correlation must give
exactly what the scalar loops in tests/oracles.py give, on the golden corpus,
on a variant of it with DontCare records and missing cuboids, on a variant
with tied, zero and negative-zero scores, and on one cluttered scene of 1500
boxes. Each overlap kernel has one entry: every path into the rectangle IoU
goes through RectOverlaps.pairs, and every path into the cuboid kernel
through _cuboid_pairs. Each rescoring command runs each NMS loop once per
variant and block of scenes of similar size, not once per scene, reads the
small inverse systems once per block of systems of similar size, not once
per group, and finds a corpus's zero-overlap clusters at most once; gradcheck
runs the masked forward once per batch of trials, not per trial. No command
that reads scenes builds a box or ground-truth record: run and oracle write
their scenes from columns.
"""

import dataclasses
import json
import math
import sys
from collections import Counter
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
    RectOverlaps,
    SyntheticConfig,
    assign_targets,
    eval_ap_r40,
    filter_gts,
    generate_synthetic,
    giou3d,
    iou2d,
    iou2d_matrix,
    iou3d,
    iou3d_axis_aligned,
    oracle_scores,
    overlap_matrix,
    q_match,
    rect_array,
    rotated_bev_intersection_area,
    run_nms,
    read_kitti_dir,
    read_scenes_jsonl,
    rescore_scene,
    score_iou_correlation,
    write_scenes_jsonl,
)
from diffnms import geometry
from diffnms.cli import main
from diffnms.harness import _corpus_results, _oracle_scenes
from oracles import (
    reference_correlation_rows,
    reference_eval_ap_r40,
    reference_format_kitti_label,
    reference_group_boxes,
    reference_may_meet,
    reference_oracle_scores,
    reference_quality,
    reference_read_kitti_file,
    reference_read_scenes_jsonl,
    reference_scene_line,
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


def _tied(scenes):
    """Scores rounded to one decimal, so equal scores occur within and across scenes;
    box 5 of every scene scores 0.0 and box 11 scores -0.0."""
    signed_zero = {5: 0.0, 11: -0.0}
    return [
        dataclasses.replace(
            scene,
            boxes=[
                dataclasses.replace(b, score=signed_zero.get(i, round(b.score, 1)))
                for i, b in enumerate(scene.boxes)
            ],
        )
        for scene in scenes
    ]


def _dense():
    """A cluttered scene plus a ground truth no box reaches, which is never claimed."""
    (scene,) = generate_synthetic(
        SyntheticConfig(seed=5, num_scenes=1, num_objects=10, proposals_per_object=150, score_noise=0.1)
    )
    lonely = GroundTruth(
        rect=Rect2D(0.0, 0.0, 10.0, 10.0), cuboid=Cuboid3D(500.0, 1.0, 500.0, 1.6, 1.5, 4.0, 0.0)
    )
    return [dataclasses.replace(scene, gts=scene.gts + [lonely])]


@pytest.fixture(scope="module", params=["golden", "mixed", "tied", "dense"])
def scenes(request):
    golden = read_scenes_jsonl(GOLDEN)
    return {
        "golden": lambda: golden,
        "mixed": lambda: _mixed(golden),
        "tied": lambda: _tied(golden),
        "dense": _dense,
    }[request.param]()


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


def _oracle_edge_scenes(scene):
    """Copies of a scene with no usable ground truth, only DontCare ground truths,
    boxes without cuboids, some boxes without cuboids, and no boxes."""
    replace = dataclasses.replace
    return [
        replace(scene, scene_id="no-gts", gts=[]),
        replace(scene, scene_id="cuboid-less-gts", gts=[replace(g, cuboid=None) for g in scene.gts]),
        replace(scene, scene_id="dontcare-gts", gts=[replace(g, dontcare=True) for g in scene.gts]),
        replace(scene, scene_id="cuboid-less-boxes", boxes=[replace(b, cuboid=None) for b in scene.boxes]),
        replace(
            scene,
            scene_id="some-cuboid-less-boxes",
            boxes=[replace(b, cuboid=None if i % 3 else b.cuboid) for i, b in enumerate(scene.boxes)],
        ),
        replace(scene, scene_id="no-boxes", boxes=[]),
    ]


def _with_scores(scene, scores):
    return dataclasses.replace(scene, boxes=[dataclasses.replace(b, score=v) for b, v in zip(scene.boxes, scores)])


@pytest.mark.parametrize("mode", ["iou3d", "iou2d"])
def test_oracle_corpus_is_oracle_scores_per_scene(mode):
    golden = read_scenes_jsonl(GOLDEN)
    corpus = golden[:6] + _oracle_edge_scenes(golden[6]) + golden[7:12]
    got = _oracle_scenes(corpus, mode)
    assert len(got) == len(corpus)
    for scene, out in zip(corpus, got):
        per_scene = oracle_scores(scene, mode)
        scores = [b.score for b in out.boxes]
        assert np.array_equal(bits(scores), bits([b.score for b in per_scene.boxes])), scene.scene_id
        assert np.array_equal(bits(scores), bits(reference_oracle_scores(scene, mode))), scene.scene_id
        # Only the scores change.
        assert out == _with_scores(scene, scores)
    assert _oracle_scenes([], mode) == []


@pytest.mark.parametrize("mode", ["iou3d", "iou2d"])
def test_cli_oracle_writes_the_per_pair_scores(mode, tmp_path):
    out, expected = tmp_path / "oracle.jsonl", tmp_path / "expected.jsonl"
    assert main(["oracle", "--input", str(GOLDEN), "--mode", mode, "--out", str(out)]) == 0
    scenes = read_scenes_jsonl(GOLDEN)
    write_scenes_jsonl(expected, [_with_scores(scene, reference_oracle_scores(scene, mode)) for scene in scenes])
    assert out.read_bytes() == expected.read_bytes()


def test_oracle_makes_one_kernel_call_and_clips_only_the_near_pairs(monkeypatch, tmp_path):
    calls, clipped = [], Counter()
    values, clip = geometry._cuboid_values, geometry._clipped_area

    def counting(a, b, rows, cols, measure):
        calls.append(len(rows))
        return values(a, b, rows, cols, measure)

    def recording(sx, sz, kx, kz):
        for subject, clip_box in zip(np.hstack([sx, sz]).tolist(), np.hstack([kx, kz]).tolist()):
            clipped[tuple(sorted([tuple(subject), tuple(clip_box)]))] += 1
        return clip(sx, sz, kx, kz)

    monkeypatch.setattr(geometry, "_cuboid_values", counting)
    monkeypatch.setattr(geometry, "_clipped_area", recording)
    assert main(["oracle", "--input", str(GOLDEN), "--out", str(tmp_path / "oracle.jsonl")]) == 0

    def corners(c):
        xs, zs = zip(*c.bev_footprint())
        return xs + zs

    scenes = read_scenes_jsonl(GOLDEN)
    pairs = [
        (b.cuboid, g.cuboid)
        for scene in scenes
        for b in scene.boxes
        if b.cuboid is not None
        for g in filter_gts(scene.gts, None)
    ]
    near = Counter(tuple(sorted([corners(a), corners(b)])) for a, b in pairs if reference_may_meet(a, b))
    assert len(scenes) > 1
    assert calls == [len(pairs)]
    assert 0 < sum(near.values()) < len(pairs)
    assert clipped == near


def _run_nms_all_variants(boxes: int):
    rng = np.random.default_rng(boxes)
    corners = rng.uniform(0.0, 200.0, (boxes, 2))
    rects = np.hstack([corners, corners + rng.uniform(5.0, 30.0, (boxes, 2))])
    scores = rng.uniform(0.0, 1.0, boxes)
    for variant in NmsVariant:
        for pruning in Pruning:
            if variant is NmsVariant.CLASSICAL and pruning is not Pruning.HARD:
                continue
            if variant is NmsVariant.SOFT and pruning is Pruning.HARD:
                continue
            run_nms(scores, RectOverlaps(rects), NmsConfig(pruning=pruning), variant)


RECT, CUBOID = {"_rect_iou"}, {"_cuboid_values"}
# Each entry point, the kernels it must reach, and a call of it on a scene
# and an output path; run_nms on more than 64 boxes takes the lockstep path.
ENTRY_POINTS = {
    "iou2d": (RECT, lambda scene, out: iou2d(scene.boxes[0].rect, scene.gts[0].rect)),
    "iou2d_matrix": (RECT, lambda scene, out: iou2d_matrix(rect_array([b.rect for b in scene.boxes]), np.ones((2, 4)))),
    "overlap_matrix": (RECT, lambda scene, out: overlap_matrix([b.rect for b in scene.boxes])),
    "run_nms-64-boxes": (RECT, lambda scene, out: _run_nms_all_variants(64)),
    "run_nms-65-boxes": (RECT, lambda scene, out: _run_nms_all_variants(65)),
    "q_match": (RECT | CUBOID, lambda scene, out: q_match(scene.boxes[0], scene.gts[0])),
    "assign_targets": (RECT | CUBOID, lambda scene, out: assign_targets(scene.boxes, scene.gts)),
    "oracle-iou2d": (RECT, lambda scene, out: main(["oracle", "--input", str(GOLDEN), "--mode", "iou2d", "--out", out])),
    "oracle-iou3d": (CUBOID, lambda scene, out: main(["oracle", "--input", str(GOLDEN), "--mode", "iou3d", "--out", out])),
    "iou3d": (CUBOID, lambda scene, out: iou3d(scene.boxes[0].cuboid, scene.gts[0].cuboid)),
    "giou3d": (CUBOID, lambda scene, out: giou3d(scene.boxes[0].cuboid, scene.gts[0].cuboid)),
    "iou3d_axis_aligned": (CUBOID, lambda scene, out: iou3d_axis_aligned(scene.boxes[0].cuboid, scene.gts[0].cuboid)),
    "rotated_bev_intersection_area": (
        CUBOID,
        lambda scene, out: rotated_bev_intersection_area(scene.boxes[0].cuboid, scene.gts[0].cuboid),
    ),
}


@pytest.mark.parametrize("name", ENTRY_POINTS)
def test_each_overlap_kernel_is_entered_only_through_its_one_entry(monkeypatch, tmp_path, name):
    """Every _rect_iou call comes from RectOverlaps.pairs, every _cuboid_values call from _cuboid_pairs."""
    entries = {"_rect_iou": RectOverlaps.pairs.__code__, "_cuboid_values": geometry._cuboid_pairs.__code__}
    calls, strays = Counter(), []

    def guarded(kernel):
        def call(*args):
            caller = sys._getframe(1).f_code
            calls[kernel.__name__] += 1
            if caller is not entries[kernel.__name__]:
                strays.append((kernel.__name__, caller.co_name))
            return kernel(*args)

        return call

    for kernel in entries:
        monkeypatch.setattr(geometry, kernel, guarded(getattr(geometry, kernel)))
    kernels, run = ENTRY_POINTS[name]
    run(read_scenes_jsonl(GOLDEN)[0], str(tmp_path / "out.jsonl"))
    assert strays == []
    assert set(calls) == kernels


# Each rescoring command on the golden corpus, and how often each NMS loop
# must run: once per variant and corpus, never once per scene. Every golden
# scene has the same number of boxes, so the corpus is one block of scenes.
CORPUS_PASSES = {
    "run-masked": (["run", "--nms", "masked"], {"_nms_scenes": 1, "_masked_sorted": 1, "_group_rows": 1}),
    "run-classical": (["run", "--nms", "classical"], {"_nms_scenes": 1, "_greedy_nms": 1}),
    "run-soft-sigmoid": (["run", "--nms", "soft", "--pruning", "sigmoid"], {"_nms_scenes": 1, "_greedy_nms": 1}),
    "run-grouped-inverse": (["run", "--nms", "grouped-inverse"], {"_nms_scenes": 1, "_group_rows": 1}),
    "run-full-inverse": (["run", "--nms", "full-inverse"], {"_nms_scenes": 1}),
    "correlate": (["correlate", "--nms", "soft", "--pruning", "linear"], {"_nms_scenes": 1, "_greedy_nms": 1}),
    "compare-hard": (
        ["compare", "--nms", "classical,masked,full-inverse,grouped-inverse"],
        {"_nms_scenes": 4, "_greedy_nms": 1, "_masked_sorted": 1, "_group_rows": 1},
    ),
    "compare-linear": (
        ["compare", "--nms", "soft,grouped-inverse", "--pruning", "linear"],
        {"_nms_scenes": 2, "_greedy_nms": 1, "_group_rows": 1},
    ),
}


@pytest.mark.parametrize("name", CORPUS_PASSES)
def test_each_variant_rescores_the_corpus_in_one_pass(monkeypatch, tmp_path, name):
    from diffnms import harness, nms

    calls = Counter()

    def counting(module, loop):
        def call(*args, **kwargs):
            calls[loop.__name__] += 1
            return loop(*args, **kwargs)

        monkeypatch.setattr(module, loop.__name__, call)

    counting(harness, harness._nms_scenes)
    for loop in (nms._greedy_nms, nms._masked_sorted, nms._group_rows, nms._group_tops):
        counting(nms, loop)
    args, expected = CORPUS_PASSES[name]
    out = ["--out", str(tmp_path / "out.jsonl")] if args[0] == "run" else []
    assert len(read_scenes_jsonl(GOLDEN)) > 1
    assert main([args[0], "--input", str(GOLDEN), *args[1:], *out]) == 0
    assert calls == Counter(expected)


def test_grouped_inverse_reads_its_small_groups_once_per_size_class(monkeypatch):
    """The golden corpus's groups, none larger than _WHOLE_MATRIX_BOXES, are
    read with one pairs call per block of groups of similar size (as
    _scene_blocks sizes them), not one per group; grouping reads the rest."""
    from diffnms import nms

    cfg = NmsConfig()
    scenes = read_scenes_jsonl(GOLDEN)
    sizes = []
    for scene in scenes:
        overlaps = overlap_matrix([b.rect for b in scene.boxes])
        order = np.argsort([-b.score for b in scene.boxes], kind="stable")
        sizes += [len(group) for group in reference_group_boxes(overlaps[np.ix_(order, order)], cfg)[0]]
    classes = Counter(math.ceil(math.log2(size)) for size in sizes)
    # Each size class fits one read of at most _SOLVE_BLOCK_ENTRIES entries.
    assert max(sizes) <= nms._WHOLE_MATRIX_BOXES
    assert all(count * 4**level <= nms._SOLVE_BLOCK_ENTRIES for level, count in classes.items())
    assert len(classes) < len(sizes)
    callers = Counter()
    pairs = RectOverlaps.pairs

    def counting(self, i, j):
        callers[sys._getframe(1).f_code.co_name] += 1
        return pairs(self, i, j)

    monkeypatch.setattr(RectOverlaps, "pairs", counting)
    _corpus_results(scenes, cfg, [NmsVariant.GROUPED_INVERSE], None)
    assert callers.pop("_group_rows") > 0
    assert callers == Counter({"_solve_small": len(classes)})


@pytest.mark.parametrize(
    "variants, pruning, finds",
    [
        (["classical", "masked", "full-inverse", "grouped-inverse"], Pruning.HARD, 1),
        (["full-inverse"], Pruning.LINEAR, 1),
        (["soft", "full-inverse"], Pruning.EXPONENTIAL, 1),
        (["masked", "grouped-inverse"], Pruning.HARD, 0),
        (["soft", "full-inverse"], Pruning.SIGMOIDAL, 0),
    ],
)
def test_the_zero_overlap_clusters_are_found_once_per_corpus(monkeypatch, variants, pruning, finds):
    """The greedy lanes and the full-inverse reads of a corpus with a scene
    of more than _WHOLE_MATRIX_BOXES boxes share one partition, which
    sigmoid pruning (p(0) > 0) and the grouping variants never need."""
    calls = []
    clusters = RectOverlaps._clusters

    def counting(self, bounds=None):
        calls.append(bounds)
        return clusters(self, bounds)

    monkeypatch.setattr(RectOverlaps, "_clusters", counting)
    _corpus_results(_dense() + read_scenes_jsonl(GOLDEN)[:3], NmsConfig(pruning=pruning), variants, None)
    assert len(calls) == finds


def test_gradcheck_checks_its_trials_in_batches(monkeypatch, capsys):
    """gradcheck checks its trials a chunk at a time, each with one masked
    forward for the analytic terms of every trial and one per block of
    perturbed rows; 120 trials of at most 12 boxes are one chunk and one block."""
    from diffnms import gradients

    calls = Counter()

    def counting(loop):
        def call(*args, **kwargs):
            calls[loop.__name__] += 1
            return loop(*args, **kwargs)

        monkeypatch.setattr(gradients, loop.__name__, call)

    for loop in (gradients._check_chunk, gradients._masked_sorted):
        counting(loop)
    assert main(["gradcheck", "--pruning", "sigmoid", "--seed", "7", "--trials", "120"]) == 0
    assert "PASS" in capsys.readouterr().out
    assert calls == Counter({"_check_chunk": 1, "_masked_sorted": 2})


def _counting_records(monkeypatch) -> Counter:
    """Count every DetectionBox and GroundTruth built from here on, dataclasses.replace included."""
    from diffnms import DetectionBox

    built = Counter()
    for kind in (DetectionBox, GroundTruth):

        def counting(self, *args, _init=kind.__init__, _name=kind.__name__, **kwargs):
            built[_name] += 1
            _init(self, *args, **kwargs)

        monkeypatch.setattr(kind, "__init__", counting)
    return built


def _kitti_corpus(tmp_path) -> list[str]:
    """The golden corpus as one KITTI label file per scene, with a DontCare box in the first."""
    from diffnms import DetectionBox, write_kitti_dir

    scenes = read_scenes_jsonl(GOLDEN)
    first = scenes[0]
    first.boxes.append(
        DetectionBox(rect=first.boxes[0].rect, cuboid=first.boxes[0].cuboid, score=0.5, label="DontCare", dontcare=True)
    )
    write_kitti_dir(tmp_path / "frames", scenes)
    return ["--input", str(tmp_path / "frames"), "--format", "kitti"]


@pytest.mark.parametrize("corpus", ["jsonl", "kitti"])
@pytest.mark.parametrize(
    "args",
    [
        ["eval"],
        ["compare", "--nms", "classical,masked,full-inverse,grouped-inverse"],
        ["compare", "--nms", "soft,grouped-inverse", "--pruning", "linear"],
        ["correlate", "--nms", "soft", "--pruning", "linear"],
        ["correlate", "--nms", "masked", "--score-mode", "product"],
    ],
)
def test_commands_that_write_no_scenes_build_no_records(monkeypatch, tmp_path, corpus, args):
    """eval, compare and correlate read the scenes' columns and never build a box or ground-truth record."""
    inputs = _kitti_corpus(tmp_path) if corpus == "kitti" else ["--input", str(GOLDEN)]
    built = _counting_records(monkeypatch)
    assert main([*args, *inputs]) == 0
    assert built == Counter()


@pytest.mark.parametrize("command", ["run", "compare", "correlate"])
def test_a_score_mode_error_builds_no_records(monkeypatch, tmp_path, capsys, command):
    """A box that lacks the confidence --score-mode needs is named from the columns, without building records."""
    cuboid = {"cx": 0.0, "cy": 0.75, "cz": 10.0, "w": 1.6, "h": 1.5, "l": 4.0, "yaw": 0.0}
    box = {"x1": 0.0, "y1": 0.0, "x2": 10.0, "y2": 10.0, **cuboid}
    boxes = [{**box, "score": 0.9, "class_conf": 0.9}, {**box, "score": 0.5, "pred_conf": 0.5}]
    path = tmp_path / "missing.jsonl"
    path.write_text(json.dumps({"id": "a", "boxes": boxes, "gts": [box]}) + "\n", encoding="utf-8")
    message = "scene 'a' box 1: score mode 'class' requires class_conf"
    out = ["--out", str(tmp_path / "out.jsonl")] if command == "run" else []
    built = _counting_records(monkeypatch)
    assert main([command, "--input", str(path), "--score-mode", "class", *out]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert built == Counter()
    (scene,) = read_scenes_jsonl(path)
    with pytest.raises(ValueError, match=f"^{message}$"):
        rescore_scene(scene, NmsConfig(), NmsVariant.MASKED, "class")
    assert scene._held_records("boxes") is None
    assert built == Counter()


@pytest.mark.parametrize("corpus", ["jsonl", "kitti"])
def test_occlusions_beyond_int64_are_read_into_columns(monkeypatch, tmp_path, corpus):
    """Occlusions that int64 cannot hold are valid and read into an object column, not into records."""
    if corpus == "kitti":
        frames = Path(_kitti_corpus(tmp_path)[1])
        path = sorted(frames.iterdir())[0]
        lines = path.read_text(encoding="ascii").splitlines()
        lines[0] = " ".join([*lines[0].split()[:2], "1e19", *lines[0].split()[3:]])
        path.write_text("\n".join(lines) + "\n", encoding="ascii")
        inputs = ["--input", str(frames), "--format", "kitti"]
        read = lambda: read_kitti_dir(frames)
        reference = lambda: [reference_read_kitti_file(p) for p in sorted(frames.iterdir())]
    else:
        scenes = [json.loads(line) for line in GOLDEN.read_text(encoding="utf-8").splitlines()]
        scenes[0]["gts"][0]["occlusion"] = 2**70
        scenes[0]["boxes"][1]["occlusion"] = 1e19
        path = tmp_path / "scenes.jsonl"
        path.write_text("".join(json.dumps(scene) + "\n" for scene in scenes), encoding="utf-8")
        inputs = ["--input", str(path)]
        read = lambda: read_scenes_jsonl(path)
        reference = lambda: reference_read_scenes_jsonl(path)
    built = _counting_records(monkeypatch)
    assert main(["eval", *inputs]) == 0
    assert built == Counter()
    got = read()
    assert all(scene._held_records(kind) is None for scene in got for kind in ("boxes", "gts"))
    assert any(occlusion >= 10**19 for scene in got for occlusion in scene._columns("gts").occlusion.tolist())
    monkeypatch.undo()
    assert repr(got) == repr(reference())


def _with_extra_keys(scenes):
    """Every 3rd box and every 2nd ground truth carry keys the reader does not know, nested ones included."""
    def tagged(records, every):
        return [
            dataclasses.replace(r, extra={"track": i, "flags": ["edge", {"w": 0.5, "note": "\u00e9"}]})
            if i % every == 0 else r
            for i, r in enumerate(records)
        ]

    return [dataclasses.replace(s, boxes=tagged(s.boxes, 3), gts=tagged(s.gts, 2)) for s in scenes]


def _corpus_inputs(tmp_path, corpus: str) -> list[str]:
    """The input flags of the golden corpus as JSONL, its mixed or extra-key variant, or as KITTI frames."""
    if corpus == "kitti":
        return _kitti_corpus(tmp_path)
    if corpus == "jsonl":
        return ["--input", str(GOLDEN)]
    variant = {"jsonl-mixed": _mixed, "jsonl-extra": _with_extra_keys}[corpus]
    path = tmp_path / "corpus.jsonl"
    write_scenes_jsonl(path, variant(read_scenes_jsonl(GOLDEN)))
    return ["--input", str(path)]


@pytest.mark.parametrize("corpus", ["jsonl", "jsonl-mixed", "jsonl-extra", "kitti"])
@pytest.mark.parametrize(
    "args",
    [
        ["run"],
        ["run", "--keep-all"],
        ["run", "--nms", "soft", "--pruning", "linear", "--valid", "0.5"],
        ["oracle", "--mode", "iou3d"],
        ["oracle", "--mode", "iou2d"],
    ],
)
def test_commands_that_write_scenes_build_no_records(monkeypatch, tmp_path, corpus, args):
    """run and oracle keep the scenes' columns from the read to the write, and build no box or ground-truth
    record; what they write is what the record writers write for the records it reads back as."""
    inputs = _corpus_inputs(tmp_path, corpus)
    out = tmp_path / ("out" if corpus == "kitti" else "out.jsonl")
    built = _counting_records(monkeypatch)
    assert main([*args, *inputs, "--out", str(out)]) == 0
    assert built == Counter()
    monkeypatch.undo()
    if corpus == "kitti":
        for path in sorted(out.iterdir()):
            scene = reference_read_kitti_file(path)
            lines = [reference_format_kitti_label(r) + "\n" for r in [*scene.gts, *scene.boxes]]
            assert path.read_text(encoding="ascii") == "".join(lines)
    else:
        scenes = reference_read_scenes_jsonl(out)
        assert sum(len(s.boxes) for s in scenes) > 0
        assert out.read_text(encoding="utf-8") == "".join(reference_scene_line(s) + "\n" for s in scenes)
