"""Seeded synthetic scenes: separated ground truths with jittered proposals.

Scenes are deterministic functions of the configuration; the per-scene
generator is seeded with (seed, scene index), so any scene can be regenerated
independently and two runs with the same configuration produce identical
streams.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .boxes import DetectionBox, GroundTruth, Scene
from .geometry import Cuboid3D, Rect2D, cuboid_array, iou2d, iou3d_pairs, overlap_matrix

__all__ = ["SyntheticConfig", "generate_synthetic", "random_instance", "rect_from_cuboid"]

# The top-view "camera": image x = (x + _X_OFFSET) * _IMAGE_SCALE, image y = z * _IMAGE_SCALE.
_IMAGE_SCALE = 10.0
_X_OFFSET = 40.0
# Ground-truth placement: bird's-eye centers at least this far apart, tried this often.
_MIN_SEPARATION = 8.0
_PLACEMENT_ATTEMPTS = 500


@dataclass(frozen=True)
class SyntheticConfig:
    """Knobs for the generator.

    Ground truths are placed so that no two image rectangles overlap and
    bird's-eye centers stay 8 m apart.
    Each object gets proposals_per_object proposals: jittered copies whose
    centers move by Normal(0, center_jitter) meters and whose dimensions
    scale by exp(Normal(0, size_jitter)). A proposal's score is its true
    rotated 3D IoU with its own ground truth plus Normal(0, score_noise),
    clamped to [0, 1]; with zero jitter and zero noise every proposal
    duplicates its ground truth with score 1. The first proposal of each
    object is always the unjittered copy. Image rectangles are the
    rotated-footprint bounds mapped through the top-view camera.
    """

    seed: int = 0
    num_scenes: int = 1
    num_objects: int = 10
    proposals_per_object: int = 20
    center_jitter: float = 0.3
    size_jitter: float = 0.05
    score_noise: float = 0.0

    def __post_init__(self) -> None:
        if self.num_scenes < 0 or self.num_objects < 1 or self.proposals_per_object < 1:
            raise ValueError("num_scenes must be >= 0 and object/proposal counts >= 1")
        for name in ("center_jitter", "size_jitter", "score_noise"):
            if getattr(self, name) < 0.0:
                raise ValueError(f"{name} must be non-negative")


def rect_from_cuboid(cuboid: Cuboid3D) -> Rect2D:
    """Image rectangle of a cuboid: rotated footprint bounds, shifted and scaled.

    The synthetic "camera" is a top view, so the rectangle tracks the true
    footprint and stays consistent with the 3D geometry under jitter.
    """
    corners = cuboid.bev_footprint()
    xs = [x for x, _ in corners]
    zs = [z for _, z in corners]
    return Rect2D(
        (min(xs) + _X_OFFSET) * _IMAGE_SCALE,
        min(zs) * _IMAGE_SCALE,
        (max(xs) + _X_OFFSET) * _IMAGE_SCALE,
        max(zs) * _IMAGE_SCALE,
    )


def _sample_gt_cuboid(rng: np.random.Generator) -> Cuboid3D:
    return Cuboid3D(
        cx=rng.uniform(-25.0, 25.0),
        cy=rng.uniform(0.6, 1.1),
        cz=rng.uniform(8.0, 55.0),
        w=rng.uniform(1.5, 1.9),
        h=rng.uniform(1.3, 1.8),
        l=rng.uniform(3.4, 4.6),
        yaw=rng.uniform(-math.pi, math.pi),
    )


def _place_ground_truths(rng: np.random.Generator, cfg: SyntheticConfig) -> list[Cuboid3D]:
    cuboids: list[Cuboid3D] = []
    rects: list[Rect2D] = []
    for index in range(cfg.num_objects):
        for _ in range(_PLACEMENT_ATTEMPTS):
            cand = _sample_gt_cuboid(rng)
            rect = rect_from_cuboid(cand)
            far_enough = all(
                math.hypot(cand.cx - c.cx, cand.cz - c.cz) >= _MIN_SEPARATION for c in cuboids
            )
            if far_enough and all(iou2d(rect, r) == 0.0 for r in rects):
                cuboids.append(cand)
                rects.append(rect)
                break
        else:
            raise ValueError(
                f"could not place object {index} after {_PLACEMENT_ATTEMPTS} attempts; "
                "lower num_objects"
            )
    return cuboids


def _jitter(rng: np.random.Generator, gt: Cuboid3D, cfg: SyntheticConfig) -> Cuboid3D:
    return Cuboid3D(
        cx=gt.cx + rng.normal(0.0, cfg.center_jitter),
        cy=gt.cy + rng.normal(0.0, cfg.center_jitter / 2.0),
        cz=gt.cz + rng.normal(0.0, cfg.center_jitter),
        w=gt.w * math.exp(rng.normal(0.0, cfg.size_jitter)),
        h=gt.h * math.exp(rng.normal(0.0, cfg.size_jitter)),
        l=gt.l * math.exp(rng.normal(0.0, cfg.size_jitter)),
        yaw=gt.yaw,
    )


def generate_synthetic(cfg: SyntheticConfig) -> list[Scene]:
    """Generate the configured number of scenes, deterministically."""
    scenes = []
    for index in range(cfg.num_scenes):
        rng = np.random.default_rng([cfg.seed, index])
        gt_cuboids = _place_ground_truths(rng, cfg)
        gts = [GroundTruth(rect=rect_from_cuboid(c), cuboid=c) for c in gt_cuboids]
        # Draw every proposal's jitter and score noise in proposal order, then
        # score all proposals against their own ground truths in one call.
        proposals: list[Cuboid3D] = []
        noise: list[float] = []
        for gt_cuboid in gt_cuboids:
            for j in range(cfg.proposals_per_object):
                proposals.append(gt_cuboid if j == 0 else _jitter(rng, gt_cuboid, cfg))
                noise.append(rng.normal(0.0, cfg.score_noise))
        owner = np.repeat(np.arange(len(gt_cuboids)), cfg.proposals_per_object)
        true_iou = iou3d_pairs(cuboid_array(proposals), cuboid_array(gt_cuboids), np.arange(len(proposals)), owner)
        scores = np.clip(true_iou + np.array(noise), 0.0, 1.0)
        boxes = [
            DetectionBox(rect=rect_from_cuboid(proposal), cuboid=proposal, score=score)
            for proposal, score in zip(proposals, scores.tolist())
        ]
        scenes.append(Scene(scene_id=f"synth-{cfg.seed}-{index:04d}", boxes=boxes, gts=gts))
    return scenes


def random_instance(rng: np.random.Generator, n_boxes: int) -> tuple[np.ndarray, np.ndarray]:
    """Random (scores, overlap matrix) pair with a realistic overlap spread.

    Rectangles are sampled around a few cluster centers so the matrix mixes
    heavy, partial, and zero overlaps; scores are uniform in [0.01, 0.99].
    """
    if n_boxes == 0:
        return np.zeros(0), np.zeros((0, 0))
    n_clusters = max(1, n_boxes // 4)
    centers = rng.uniform(0.0, 120.0, size=(n_clusters, 2))
    rects = []
    for _ in range(n_boxes):
        cx, cy = centers[rng.integers(n_clusters)] + rng.normal(0.0, 5.0, size=2)
        w, h = rng.uniform(8.0, 22.0, size=2)
        rects.append(Rect2D(cx - w / 2.0, cy - h / 2.0, cx + w / 2.0, cy + h / 2.0))
    scores = rng.uniform(0.01, 0.99, size=n_boxes)
    return scores, overlap_matrix(rects)
