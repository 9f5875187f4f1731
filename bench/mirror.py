"""In-process mirror of the CLI, with spans around each public call.

Each ``cmd_*`` function calls the package's public functions in the order the
matching ``diffnms`` subcommand calls them, so its output files must be
byte-identical to the subprocess's. Spans are recorded by the benchmark around
those calls, never inside the package, so a span's self time is the time of
the public call minus the spans the benchmark opened within it.

The replay functions time lower layers that the harness functions call
internally (overlap matrix, each NMS variant, grouping, rotated IoU) over the
same inputs, because a span cannot be opened inside a package function.
"""

from __future__ import annotations

import os

import numpy as np

from diffnms import (
    DEFAULT_DIFFICULTY_RULES,
    Difficulty,
    NmsConfig,
    NmsVariant,
    Pruning,
    Scene,
    ap_loss_gradient,
    build_comparison,
    eval_ap_r40,
    finite_difference_check,
    giou3d,
    group_boxes,
    imagewise_ap_loss,
    iou3d,
    masked_backward,
    masked_rescore,
    oracle_scores,
    overlap_matrix,
    random_instance,
    read_kitti_dir,
    read_scenes_jsonl,
    rescore_scene,
    rescored_boxes,
    run_nms,
    score_iou_correlation,
    sort_by_score,
    write_kitti_dir,
    write_scenes_jsonl,
)

from spans import Tracer
from workloads import GRADCHECK_TRIALS, Corpus, TrainImage, count_rows

# The CLI's defaults: nt 0.4, valid 0.3, group cap 100.
HARD = NmsConfig(pruning=Pruning.HARD)
LINEAR = NmsConfig(pruning=Pruning.LINEAR)
SIGMOID = NmsConfig(pruning=Pruning.SIGMOIDAL)
COMPARE_VARIANTS = (
    NmsVariant.CLASSICAL,
    NmsVariant.MASKED,
    NmsVariant.FULL_INVERSE,
    NmsVariant.GROUPED_INVERSE,
)
LEARNING_RATE = 0.05


def read(tr: Tracer, fmt: str, path: str, labels: str | None = None) -> list[Scene]:
    """Read scenes the way the CLI does for a JSONL file or a KITTI directory."""
    if fmt == "jsonl":
        with tr.span("io_jsonl.read"):
            scenes = read_scenes_jsonl(path)
        tr.count("io_jsonl.bytes", os.path.getsize(path))
        return scenes
    with tr.span("io_kitti.read_dir"):
        scenes = read_kitti_dir(path, labels_dir=labels)
    tr.count("io_kitti.files", len(scenes) * (2 if labels else 1))
    tr.count("io_kitti.rows", count_rows(scenes))
    return scenes


def load(tr: Tracer, corpus: Corpus) -> list[Scene]:
    return read(tr, corpus.fmt, corpus.input, corpus.labels)


def write(tr: Tracer, fmt: str, scenes: list[Scene], dest: str) -> None:
    if fmt == "jsonl":
        with tr.span("io_jsonl.write"):
            write_scenes_jsonl(dest, scenes)
        tr.count("io_jsonl.bytes", os.path.getsize(dest))
        return
    with tr.span("io_kitti.write_dir"):
        write_kitti_dir(dest, scenes)
    tr.count("io_kitti.files", len(scenes))
    tr.count("io_kitti.rows", count_rows(scenes))


def cmd_run(tr: Tracer, corpus: Corpus, dest: str) -> None:
    """``run --nms masked --pruning hard``."""
    with tr.span("cli.run"):
        scenes = load(tr, corpus)
        out = []
        for scene in scenes:
            with tr.span("harness.rescore_scene", scene.scene_id):
                result, index_map = rescore_scene(scene, HARD, NmsVariant.MASKED)
            with tr.span("harness.rescored_boxes", scene.scene_id):
                boxes = rescored_boxes(scene, result, index_map)
            out.append(Scene(scene.scene_id, boxes, scene.gts, scene.camera, scene.extra))
        write(tr, corpus.fmt, out, dest)


def cmd_compare(tr: Tracer, corpus: Corpus) -> str:
    """``compare --nms classical,masked,full-inverse,grouped-inverse``."""
    with tr.span("cli.compare"):
        scenes = load(tr, corpus)
        with tr.span("harness.build_comparison"):
            report = build_comparison(scenes, HARD, COMPARE_VARIANTS, None, iou_threshold=0.7)
        return report.table()


def cmd_eval(tr: Tracer, corpus: Corpus) -> list[float | None]:
    """``eval`` with the default difficulty table (easy, moderate, hard)."""
    with tr.span("cli.eval"):
        scenes = load(tr, corpus)
        pairs = [(s.boxes, s.gts) for s in scenes]
        values = []
        for difficulty in Difficulty:
            with tr.span("ranking.eval_ap_r40"):
                values.append(eval_ap_r40(pairs, 0.7, DEFAULT_DIFFICULTY_RULES[difficulty]))
        return values


def cmd_oracle(tr: Tracer, corpus: Corpus, dest: str) -> None:
    """``oracle`` with the default iou3d mode."""
    with tr.span("cli.oracle"):
        scenes = load(tr, corpus)
        out = []
        for scene in scenes:
            with tr.span("harness.oracle_scores", scene.scene_id):
                out.append(oracle_scores(scene, "iou3d"))
        write(tr, corpus.fmt, out, dest)


def cmd_correlate(tr: Tracer, corpus: Corpus) -> float | None:
    """``correlate --nms soft --pruning linear``."""
    with tr.span("cli.correlate"):
        scenes = load(tr, corpus)
        with tr.span("harness.score_iou_correlation"):
            return score_iou_correlation(scenes, LINEAR, NmsVariant.SOFT).coefficient


def cmd_gradcheck(tr: Tracer, seed: int) -> bool:
    """``gradcheck --pruning sigmoid``: the same random instances, checked in-process."""
    with tr.span("cli.gradcheck"):
        rng = np.random.default_rng(seed)
        passed = True
        for trial in range(GRADCHECK_TRIALS):
            n = int(rng.integers(4, 12 + 1))
            with tr.span("synthetic.random_instance", str(trial)):
                scores, overlaps = random_instance(rng, n)
            with tr.span("gradients.fd_check", str(trial)):
                report = finite_difference_check(scores, overlaps, SIGMOID, eps=1e-6, tolerance=1e-4)
            tr.count("gradients.fd_checked", report.checked)
            tr.count("gradients.fd_skipped", report.skipped)
            passed = passed and report.passed
        return passed


REPLAY_VARIANTS = (
    ("nms.classical", NmsVariant.CLASSICAL, HARD),
    ("nms.soft", NmsVariant.SOFT, LINEAR),
    ("nms.masked", NmsVariant.MASKED, HARD),
    ("nms.full_inverse", NmsVariant.FULL_INVERSE, HARD),
    ("nms.grouped_inverse", NmsVariant.GROUPED_INVERSE, HARD),
)


def replay_layers(tr: Tracer, scenes: list[Scene], train: list[TrainImage]) -> None:
    """Time, per scene, the lower-layer work the harness functions do internally.

    The overlap matrix, grouping and every NMS variant run on the boxes
    ``rescore_scene`` feeds them; ``iou3d`` runs over the box x ground-truth
    pairs ``oracle_scores`` visits, and ``giou3d`` over the pairs
    ``assign_targets`` visits on the training images. The counters come from
    the public ``group_boxes`` and ``RescoreResult``.
    """
    for scene in scenes:
        sid = scene.scene_id
        boxes = [b for b in scene.boxes if not b.dontcare]
        scores = np.array([b.score for b in boxes], dtype=float)
        with tr.span("geometry.overlap_matrix", sid):
            overlaps = overlap_matrix([b.rect for b in boxes])
        tr.count("geometry.overlap_pairs", len(boxes) ** 2)
        _, sorted_overlaps, _ = sort_by_score(scores, overlaps)
        with tr.span("nms.group_boxes", sid):
            part = group_boxes(sorted_overlaps, HARD)
        tr.count("nms.groups", len(part.groups))
        tr.count("nms.capped_out", len(part.capped_out))
        for name, variant, cfg in REPLAY_VARIANTS:
            with tr.span(name, sid):
                result = run_nms(scores, overlaps, cfg, variant)
            if variant is NmsVariant.MASKED:
                tr.count("nms.kept", result.kept.size)
                clipped = (result.pre_clip < 0.0) | (result.pre_clip > 1.0)
                tr.count("nms.clip_active_rows", int(np.count_nonzero(clipped)))
        gts = [g for g in scene.gts if not g.dontcare and g.cuboid is not None]
        cuboids = [b.cuboid for b in scene.boxes if b.cuboid is not None]
        with tr.span("geometry.iou3d", sid):
            for cuboid in cuboids:
                for gt in gts:
                    iou3d(cuboid, gt.cuboid)
        tr.count("geometry.iou3d_pairs", len(cuboids) * len(gts))
    for image in train:
        scene = image.scene
        gts = [g for g in scene.gts if not g.dontcare and g.cuboid is not None]
        cuboids = [b.cuboid for b in scene.boxes if b.cuboid is not None]
        with tr.span("geometry.giou3d", scene.scene_id):
            for gt in gts:
                for cuboid in cuboids:
                    giou3d(cuboid, gt.cuboid)
        tr.count("geometry.giou3d_pairs", len(cuboids) * len(gts))


def replay_other_format(tr: Tracer, corpus: Corpus, directory: str) -> int:
    """Round-trip the corpus through the I/O layer its CLI path does not use.

    JSONL workloads write and read it as per-frame KITTI files, the KITTI
    workload as one JSONL file, so both I/O layers are timed on every corpus
    shape. Returns how many records failed to come back.
    """
    scenes = corpus.scenes
    other = "kitti" if corpus.fmt == "jsonl" else "jsonl"
    path = os.path.join(directory, "roundtrip" + (".jsonl" if other == "jsonl" else ""))
    write(tr, other, scenes, path)
    back = read(tr, other, path)
    return abs(count_rows(back) - count_rows(scenes)) + abs(len(back) - len(scenes))


def train_step(tr: Tracer, images: list[TrainImage], scores: list[np.ndarray], step: int) -> float:
    """One training step over the batch; updates ``scores`` in place, returns the loss.

    Masked forward with sigmoid pruning per image, the imagewise AP loss and
    its gradient, the masked backward pass, and a clipped gradient step.
    """
    with tr.span("train.step", str(step)):
        rescores = []
        for image, s in zip(images, scores):
            with tr.span("nms.masked", image.scene.scene_id):
                rescores.append(masked_rescore(s, image.overlaps, SIGMOID).rescores)
        with tr.span("ranking.ap_loss"):
            loss = imagewise_ap_loss((r, image.targets) for r, image in zip(rescores, images))
            upstream = [ap_loss_gradient(r, image.targets) for r, image in zip(rescores, images)]
        for k, image in enumerate(images):
            with tr.span("gradients.masked_backward", image.scene.scene_id):
                grads = masked_backward(scores[k], image.overlaps, SIGMOID, upstream[k])
            scores[k] = np.clip(scores[k] - LEARNING_RATE * grads.score_grad, 0.0, 1.0)
    return loss.value


def ap_loss(images: list[TrainImage], scores: list[np.ndarray]) -> float:
    """The imagewise AP loss of the masked rescores, untimed."""
    rescores = [masked_rescore(s, image.overlaps, SIGMOID).rescores for image, s in zip(images, scores)]
    return imagewise_ap_loss((r, image.targets) for r, image in zip(rescores, images)).value
