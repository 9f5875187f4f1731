"""Seeded synthetic scenes: separated ground truths with jittered proposals.

Scenes are deterministic functions of the configuration; the per-scene
generator is seeded with (seed, scene index), so any scene can be regenerated
independently and two runs with the same configuration produce identical
streams. Each scene draws one placement candidate with one uniform call per
attempt, and then all of its jitter and score noise with one normal call.
The proposals, their image rectangles and their scores are computed for the
whole configuration at once, in arrays, with one ``iou3d_pairs`` call, and
every scene holds its boxes and ground truths as columns, not records.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from numbers import Integral

import numpy as np

from .boxes import DetectionBox, GroundTruth, Scene, _Columns, _geometry_ok
from .geometry import Cuboid3D, Rect2D, RectOverlaps, _footprint_corners, _max, _min, cuboid_array, iou3d_pairs

__all__ = ["SyntheticConfig", "generate_synthetic", "random_instance", "rect_from_cuboid"]

# The top-view "camera": image x = (x + _X_OFFSET) * _IMAGE_SCALE, image y = z * _IMAGE_SCALE.
_IMAGE_SCALE = 10.0
_X_OFFSET = 40.0
# Ground-truth placement: bird's-eye centers at least this far apart, tried this often.
_MIN_SEPARATION = 8.0
_PLACEMENT_ATTEMPTS = 500
# A placement candidate's cx, cy, cz, w, h, l and yaw are uniform between these bounds.
_GT_LOW = np.array([-25.0, 0.6, 8.0, 1.5, 1.3, 3.4, -math.pi])
_GT_HIGH = np.array([25.0, 1.1, 55.0, 1.9, 1.8, 4.6, math.pi])


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
    rotated-footprint bounds mapped through the top-view camera. The seed
    and the three counts are integers (not bools).
    """

    seed: int = 0
    num_scenes: int = 1
    num_objects: int = 10
    proposals_per_object: int = 20
    center_jitter: float = 0.3
    size_jitter: float = 0.05
    score_noise: float = 0.0

    def __post_init__(self) -> None:
        if not _is_integer(self.seed) or self.seed < 0:
            raise ValueError(f"seed must be a non-negative integer, got {self.seed!r}")
        for name in ("num_scenes", "num_objects", "proposals_per_object"):
            value = getattr(self, name)
            if not _is_integer(value):
                raise ValueError(f"{name} must be an integer, got {value!r}")
        if self.num_scenes < 0 or self.num_objects < 1 or self.proposals_per_object < 1:
            raise ValueError("num_scenes must be >= 0 and object/proposal counts >= 1")
        for name in ("center_jitter", "size_jitter", "score_noise"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value >= 0.0):
                raise ValueError(f"{name} must be finite and non-negative, got {value!r}")


def _is_integer(value) -> bool:
    return isinstance(value, Integral) and not isinstance(value, bool)


def _image_rects(cuboids: np.ndarray) -> np.ndarray:
    """(N, 4) image rectangles of (N, 7) cuboids: the rotated footprints' bounds, shifted and scaled.

    The corner bounds are _min/_max chains over the corners in order, which
    keep the first of equal values as Python's min and max do. Callers run
    this under ``np.errstate`` for overflow and invalid values, which Python
    float arithmetic ignores too.
    """
    xs, zs = _footprint_corners(cuboids)
    x_lo, z_lo, x_hi, z_hi = xs[0], zs[0], xs[0], zs[0]
    for x, z in zip(xs[1:], zs[1:]):
        x_lo, z_lo, x_hi, z_hi = _min(x_lo, x), _min(z_lo, z), _max(x_hi, x), _max(z_hi, z)
    return np.column_stack(
        [(x_lo + _X_OFFSET) * _IMAGE_SCALE, z_lo * _IMAGE_SCALE, (x_hi + _X_OFFSET) * _IMAGE_SCALE, z_hi * _IMAGE_SCALE]
    )


def rect_from_cuboid(cuboid: Cuboid3D) -> Rect2D:
    """Image rectangle of a cuboid: rotated footprint bounds, shifted and scaled.

    The synthetic "camera" is a top view, so the rectangle tracks the true
    footprint and stays consistent with the 3D geometry under jitter. This is
    the generator's rectangle arithmetic on one row.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        rect = _image_rects(cuboid_array([cuboid]))
    return Rect2D(*rect[0].tolist())


def _apart(a, b) -> bool:
    """True when rectangles a and b, each (x1, y1, x2, y2), share no area; touching edges do not overlap."""
    return min(a[2], b[2]) <= max(a[0], b[0]) or min(a[3], b[3]) <= max(a[1], b[1])


def _place_ground_truths(
    rngs: list[np.random.Generator], num_objects: int
) -> tuple[np.ndarray, np.ndarray, ValueError | None]:
    """Each scene's ground-truth cuboids, (S, num_objects, 7), and image rectangles, (S, num_objects, 4).

    Scene s draws its candidates from rngs[s], each with one uniform call,
    and keeps a candidate whose bird's-eye center is at least
    _MIN_SEPARATION from, and whose rectangle is apart from, those of every
    object it kept. The scenes place in lockstep, so one ``_image_rects``
    call maps every scene's candidate of a round. A scene that spends
    _PLACEMENT_ATTEMPTS candidates on one object fails: the arrays then hold
    only the scenes before the first that failed, and its error is returned
    with them.
    """
    kept: list[list] = [[] for _ in rngs]
    misses = [0] * len(rngs)
    placing, failed, error = list(range(len(rngs))), len(rngs), None
    while placing:
        candidates = np.array([rngs[s].uniform(_GT_LOW, _GT_HIGH) for s in placing])
        still = []
        for s, cand, rect in zip(placing, candidates.tolist(), _image_rects(candidates).tolist()):
            if all(
                math.hypot(cand[0] - c[0], cand[2] - c[2]) >= _MIN_SEPARATION and _apart(rect, r) for c, r in kept[s]
            ):
                kept[s].append((cand, rect))
                misses[s] = 0
                if len(kept[s]) < num_objects:
                    still.append(s)
            elif misses[s] + 1 < _PLACEMENT_ATTEMPTS:
                misses[s] += 1
                still.append(s)
            elif s < failed:
                failed, error = s, ValueError(
                    f"could not place object {len(kept[s])} after {_PLACEMENT_ATTEMPTS} attempts; lower num_objects"
                )
        placing = [s for s in still if s < failed]
    cuboids = np.array([[c for c, _ in objects] for objects in kept[:failed]]).reshape(failed, num_objects, 7)
    rects = np.array([[r for _, r in objects] for objects in kept[:failed]]).reshape(failed, num_objects, 4)
    return cuboids, rects, error


def _scales(cfg: SyntheticConfig) -> np.ndarray:
    """One object's normal scales in draw order: the copy's score noise, then, per jittered proposal, its
    cx, cy, cz, w, h, l jitter and score noise."""
    jittered = [cfg.center_jitter, cfg.center_jitter / 2.0, cfg.center_jitter, *[cfg.size_jitter] * 3, cfg.score_noise]
    return np.array([cfg.score_noise, *jittered * (cfg.proposals_per_object - 1)])


def _libm_exp(values: np.ndarray) -> np.ndarray:
    """math.exp of each value, as the scalar arithmetic takes it; inf where it overflows, which the error replay
    names."""
    out = []
    for value in values.ravel().tolist():
        try:
            out.append(math.exp(value))
        except OverflowError:
            out.append(math.inf)
    return np.array(out, dtype=float).reshape(values.shape)


def _raise_first_error(ids: list[str], jitter: np.ndarray, proposals: np.ndarray, rects: np.ndarray) -> None:
    """Raise the first error the proposals hold, in generation order: per scene, each jittered proposal's
    size factors (an exp that overflows) and then its Cuboid3D, and then every proposal's Rect2D."""
    for scene_id, scene_jitter, scene_proposals, scene_rects in zip(ids, jitter, proposals, rects):
        for k, (object_jitter, object_proposals) in enumerate(zip(scene_jitter.tolist(), scene_proposals.tolist())):
            for j, (draws, cuboid) in enumerate(zip(object_jitter, object_proposals[1:]), start=1):
                for name, value in zip("whl", draws[3:6]):
                    try:
                        math.exp(value)
                    except OverflowError:
                        raise ValueError(
                            f"scene {scene_id!r} object {k} proposal {j}: the {name} jitter exp({value!r}) overflows; "
                            "lower size_jitter"
                        ) from None
                Cuboid3D(*cuboid)
        for rect in scene_rects.tolist():
            Rect2D(*rect)


def generate_synthetic(cfg: SyntheticConfig) -> list[Scene]:
    """Generate the configured number of scenes, deterministically, each holding columns.

    A proposal whose geometry Cuboid3D or Rect2D would reject, or whose size
    factor overflows, raises the ValueError of the first such proposal in
    scene, object and proposal order; a scene whose objects cannot be
    placed raises once the scenes before it are found valid.
    """
    rngs = [np.random.default_rng([cfg.seed, index]) for index in range(cfg.num_scenes)]
    gts, gt_rects, placement_error = _place_ground_truths(rngs, cfg.num_objects)
    n_scenes, n_objects, n_proposals = len(gts), cfg.num_objects, cfg.proposals_per_object
    per_object = _scales(cfg)
    scales = np.tile(per_object, n_objects)
    draws = np.array([rng.normal(0.0, scales) for rng in rngs[:n_scenes]]).reshape(n_scenes, n_objects, len(per_object))
    # Per object: the copy's score noise, then (proposals - 1) rows of cx, cy, cz, w, h, l and noise.
    jitter = draws[..., 1:].reshape(n_scenes, n_objects, n_proposals - 1, 7)
    noise = np.concatenate([draws[..., :1], jitter[..., 6]], axis=2).reshape(-1)
    proposals = np.repeat(gts[:, :, None], n_proposals, axis=2)
    moved = proposals[:, :, 1:]
    cuboids = proposals.reshape(-1, 7)
    with np.errstate(over="ignore", invalid="ignore"):
        moved[..., :3] += jitter[..., :3]
        moved[..., 3:6] *= _libm_exp(jitter[..., 3:6])
        rects = _image_rects(cuboids)
    ids = [f"synth-{cfg.seed}-{index:04d}" for index in range(n_scenes)]
    per_scene = (n_scenes, n_objects * n_proposals)
    if not _geometry_ok(rects, cuboids):
        _raise_first_error(ids, jitter, proposals, rects.reshape(*per_scene, 4))
    if placement_error is not None:
        raise placement_error
    owner = np.repeat(np.arange(n_scenes * n_objects), n_proposals)
    true_iou = iou3d_pairs(cuboids, gts.reshape(-1, 7), np.arange(len(owner)), owner)
    scores = np.clip(true_iou + noise, 0.0, 1.0).reshape(per_scene)
    rects, cuboids = rects.reshape(*per_scene, 4), cuboids.reshape(*per_scene, 7)
    return [
        Scene._of_columns(
            scene_id,
            _Columns.of_geometry(DetectionBox, rects[s], cuboids[s], scores[s]),
            _Columns.of_geometry(GroundTruth, gt_rects[s], gts[s]),
        )
        for s, scene_id in enumerate(ids)
    ]


def random_instance(rng: np.random.Generator, n_boxes: int) -> tuple[np.ndarray, np.ndarray]:
    """Random (scores, overlap matrix) pair with a realistic overlap spread.

    Rectangles are sampled around a few cluster centers so the matrix mixes
    heavy, partial, and zero overlaps; scores are uniform in [0.01, 0.99].
    The rectangles are drawn into one array, and the matrix is
    ``overlap_matrix`` of them.
    """
    if n_boxes == 0:
        return np.zeros(0), np.zeros((0, 0))
    n_clusters = max(1, n_boxes // 4)
    centers = rng.uniform(0.0, 120.0, size=(n_clusters, 2))
    # Each box draws its cluster, its offset and then its size, box after box.
    middle, size = np.empty((n_boxes, 2)), np.empty((n_boxes, 2))
    for k in range(n_boxes):
        middle[k] = centers[rng.integers(n_clusters)] + rng.normal(0.0, 5.0, size=2)
        size[k] = rng.uniform(8.0, 22.0, size=2)
    half = size / 2.0
    rects = np.concatenate([middle - half, middle + half], axis=1)
    scores = rng.uniform(0.01, 0.99, size=n_boxes)
    boxes = np.arange(n_boxes)
    return scores, RectOverlaps(rects).pairs(boxes[:, None], boxes)
