"""Detection and ground-truth records shared by the ranking and I/O layers."""

from __future__ import annotations

from dataclasses import dataclass, field

from .geometry import Cuboid3D, Rect2D

__all__ = ["DetectionBox", "GroundTruth", "Scene"]


@dataclass
class GroundTruth:
    """One annotated object: image rectangle, optional cuboid, difficulty attributes.

    DontCare regions carry a rectangle but no usable cuboid; they are flagged
    and excluded from target assignment and evaluation matching. raw_fields
    preserves the 14 numbers after the type of the KITTI line this record
    came from (if any) so serialization is lossless.
    """

    rect: Rect2D
    cuboid: Cuboid3D | None = None
    label: str = "Car"
    truncation: float = 0.0
    occlusion: int = 0
    alpha: float = 0.0
    dontcare: bool = False
    raw_fields: tuple[float, ...] | None = None
    extra: dict = field(default_factory=dict)

    @property
    def height(self) -> float:
        """Image-space height in pixels."""
        return self.rect.height


@dataclass
class DetectionBox:
    """One detector candidate: rectangle, cuboid, raw score, optional confidences.

    class_conf and pred_conf are the optional classification and localization
    confidences some detectors emit alongside the raw score; see
    :func:`diffnms.harness.combine_scores` for how they fold into one value.
    raw_fields is as on GroundTruth: the KITTI score column is not among them.
    """

    rect: Rect2D
    cuboid: Cuboid3D | None = None
    score: float = 0.0
    label: str = "Car"
    truncation: float = 0.0
    occlusion: int = 0
    alpha: float = 0.0
    class_conf: float | None = None
    pred_conf: float | None = None
    dontcare: bool = False
    raw_fields: tuple[float, ...] | None = None
    extra: dict = field(default_factory=dict)


@dataclass
class Scene:
    """One image worth of detections and ground truths."""

    scene_id: str
    boxes: list[DetectionBox] = field(default_factory=list)
    gts: list[GroundTruth] = field(default_factory=list)
    camera: str | None = None
    extra: dict = field(default_factory=dict)
