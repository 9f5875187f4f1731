"""Benchmark workloads: corpus shapes, set-up, and the CLI invocations timed on them.

Every workload is a corpus made by ``generate_synthetic`` from the run's seed
(``score_noise=0.1``), written in the format its users feed the CLI, plus the
shared training images that the train-step loop works on. The sizes are fixed
here, once, so that runs of two commits measure the same work.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

from diffnms import (
    Scene,
    SyntheticConfig,
    assign_targets,
    generate_synthetic,
    overlap_matrix,
    write_kitti_dir,
    write_scenes_jsonl,
)

from spans import NO_TRACE, Tracer

# (scenes, objects per scene, proposals per object) per generator call.
Groups = tuple[tuple[int, int, int], ...]

# The training images: 10 objects x {5, 20, 60, 120} proposals, i.e. images of
# 50, 200, 600 and 1200 boxes. One train step is one pass over all four.
TRAIN_GROUPS: Groups = ((1, 10, 5), (1, 10, 20), (1, 10, 60), (1, 10, 120))

GRADCHECK_TRIALS = 120

# Subcommands timed on every workload, in the order the benchmark runs them.
COMMANDS = ("run", "compare", "eval", "oracle", "correlate", "gradcheck")


@dataclass(frozen=True)
class Workload:
    name: str
    fmt: str  # "jsonl", or "kitti" for per-frame label files plus a labels directory
    groups: Groups
    why: str


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "sparse-jsonl",
            "jsonl",
            ((60, 8, 5),),
            "many small KITTI-like scenes: per-box JSONL record building and scalar iou3d pairs dominate",
        ),
        Workload(
            "dense-jsonl",
            "jsonl",
            ((2, 10, 150),),
            "cluttered scenes of 1500 boxes: O(n^2) overlaps, grouping, the group cap and the Python solves dominate",
        ),
        Workload(
            "kitti-frames",
            "kitti",
            ((60, 8, 5),),
            "the sparse corpus as per-frame KITTI files plus a labels directory: the only io_kitti path",
        ),
    )
}


def shrink(workload: Workload) -> Workload:
    """A copy of a workload with a tiny corpus, for the harness self-test.

    The training images keep their size: the loss-decrease check needs
    images large enough that the ranking has room to improve.
    """
    groups = tuple((min(s, 3), min(o, 3), min(p, 4)) for s, o, p in workload.groups)
    return Workload(workload.name, workload.fmt, groups, workload.why)


def generate(groups: Groups, seed: int) -> list[Scene]:
    """Scenes for every group; group k is seeded with seed * 16 + k, so ids never clash."""
    scenes: list[Scene] = []
    for k, (n_scenes, objects, proposals) in enumerate(groups):
        cfg = SyntheticConfig(
            seed=seed * 16 + k,
            num_scenes=n_scenes,
            num_objects=objects,
            proposals_per_object=proposals,
            score_noise=0.1,
        )
        scenes.extend(generate_synthetic(cfg))
    return scenes


@dataclass
class TrainImage:
    """A training image with its overlap matrix and assigned targets."""

    scene: Scene
    scores: np.ndarray
    overlaps: np.ndarray
    targets: np.ndarray


@dataclass
class Corpus:
    """A written corpus: where the CLI reads it and what it holds."""

    fmt: str
    input: str
    labels: str | None
    scenes: list[Scene]
    train: list[TrainImage]
    bytes: int

    @property
    def boxes(self) -> int:
        return sum(len(s.boxes) for s in self.scenes)

    @property
    def gts(self) -> int:
        return sum(len(s.gts) for s in self.scenes)

    def input_args(self) -> list[str]:
        if self.fmt == "jsonl":
            return ["--input", self.input]
        return ["--input", self.input, "--format", "kitti", "--labels", self.labels]

    def output_path(self, directory: str, stem: str) -> str:
        """Where run/oracle write: a file for JSONL, a per-frame directory for KITTI."""
        return os.path.join(directory, stem + (".jsonl" if self.fmt == "jsonl" else ""))


def _tree_bytes(path: str) -> int:
    if os.path.isfile(path):
        return os.path.getsize(path)
    return sum(os.path.getsize(os.path.join(path, name)) for name in os.listdir(path))


def write_corpus(fmt: str, scenes: list[Scene], directory: str) -> tuple[str, str | None]:
    """Write scenes as the CLI input; KITTI splits detections and labels into two directories."""
    os.makedirs(directory, exist_ok=True)
    if fmt == "jsonl":
        path = os.path.join(directory, "corpus.jsonl")
        write_scenes_jsonl(path, scenes)
        return path, None
    dets = os.path.join(directory, "dets")
    labels = os.path.join(directory, "labels")
    write_kitti_dir(dets, [Scene(scene_id=s.scene_id, boxes=s.boxes) for s in scenes])
    write_kitti_dir(labels, [Scene(scene_id=s.scene_id, gts=s.gts) for s in scenes])
    return dets, labels


def count_rows(scenes: list[Scene]) -> int:
    return sum(len(s.boxes) + len(s.gts) for s in scenes)


def setup(workload: Workload, seed: int, directory: str, tr: Tracer = NO_TRACE) -> Corpus:
    """Generate and write the corpus, and prepare the training images.

    The training images' overlap matrices and assigned targets are computed
    here, once, so a train step does no geometry and no target assignment.
    """
    with tr.span("setup"):
        with tr.span("synthetic.generate"):
            scenes = generate(workload.groups, seed)
        with tr.span("io_jsonl.write" if workload.fmt == "jsonl" else "io_kitti.write_dir"):
            path, labels = write_corpus(workload.fmt, scenes, directory)
        if workload.fmt == "jsonl":
            tr.count("io_jsonl.bytes", os.path.getsize(path))
        else:
            tr.count("io_kitti.files", 2 * len(scenes))
            tr.count("io_kitti.rows", count_rows(scenes))
        with tr.span("synthetic.generate"):
            train_scenes = generate(TRAIN_GROUPS, seed)
        train = []
        for scene in train_scenes:
            with tr.span("geometry.overlap_matrix", scene.scene_id):
                overlaps = overlap_matrix([b.rect for b in scene.boxes])
            with tr.span("ranking.assign_targets", scene.scene_id):
                targets = assign_targets(scene.boxes, scene.gts).targets
            scores = np.array([b.score for b in scene.boxes], dtype=float)
            train.append(TrainImage(scene, scores, overlaps, targets))
    size = _tree_bytes(path) + (_tree_bytes(labels) if labels else 0)
    return Corpus(workload.fmt, path, labels, scenes, train, size)


def cli_args(command: str, corpus: Corpus, out_dir: str, seed: int) -> list[str]:
    """Arguments of one timed ``diffnms`` invocation."""
    if command == "gradcheck":
        return ["gradcheck", "--pruning", "sigmoid", "--seed", str(seed), "--trials", str(GRADCHECK_TRIALS)]
    args = [command] + corpus.input_args()
    if command == "run":
        return args + ["--nms", "masked", "--pruning", "hard", "--out", corpus.output_path(out_dir, "run")]
    if command == "compare":
        return args + ["--nms", "classical,masked,full-inverse,grouped-inverse"]
    if command == "oracle":
        return args + ["--out", corpus.output_path(out_dir, "oracle")]
    if command == "correlate":
        return args + ["--nms", "soft", "--pruning", "linear"]
    return args
