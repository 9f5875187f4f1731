"""Detection and ground-truth records shared by the ranking and I/O layers, and the columns a scene stores them in."""

from __future__ import annotations

from dataclasses import dataclass, field
from operator import attrgetter
from typing import Sequence

import numpy as np

from .geometry import Cuboid3D, Rect2D, cuboid_array, rect_array

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


# The fields ``_Columns.from_records`` reads from a record of each kind.
_RECORD_FIELDS = {
    GroundTruth: ("rect", "cuboid", "label", "truncation", "occlusion", "alpha", "dontcare", "extra", "raw_fields"),
}
_RECORD_FIELDS[DetectionBox] = (*_RECORD_FIELDS[GroundTruth], "score", "class_conf", "pred_conf")


def _occlusions(values) -> np.ndarray:
    """An int64 column, or an object column when some value is not an integer int64 holds."""
    column = np.array(values).reshape(-1)
    if not column.size or (column.dtype.kind in "biu" and column.dtype != np.uint64):
        return column.astype(np.int64)
    return np.array(values, dtype=object).reshape(-1)


def _geometry_ok(rects: np.ndarray, cuboids: np.ndarray) -> bool:
    """Whether Rect2D accepts every row of rects and Cuboid3D every row of cuboids: finite values, ordered
    corners, a finite area and non-negative sizes."""
    x1, y1, x2, y2 = rects.T
    # A corner that is not finite makes the area NaN or infinite.
    with np.errstate(over="ignore", invalid="ignore"):
        area = (x2 - x1) * (y2 - y1)
    return bool(
        np.isfinite(area).all() and (x1 <= x2).all() and (y1 <= y2).all()
        and np.isfinite(cuboids).all() and (cuboids[:, 3:6] >= 0.0).all()
    )


def _check_geometry(rect: Sequence[float], cuboid: Sequence[float] | None) -> None:
    """Raise the ValueError of Rect2D on rect, then of Cuboid3D on cuboid unless it is None."""
    Rect2D(*rect)
    if cuboid is not None:
        Cuboid3D(*cuboid)


class _Columns:
    """N records of one kind, DetectionBox or GroundTruth, as columns: what a Scene stores.

    rects is (N, 4) in x1, y1, x2, y2 order and cuboids (N, 7) in cx, cy, cz,
    w, h, l, yaw order, as ``rect_array`` and ``cuboid_array`` build them; a
    row whose has_cuboid is False holds zeros. label is a list; truncation,
    alpha and dontcare are arrays, and occlusion is ``_occlusions``'s. score,
    class_conf and pred_conf exist for detections only (None for ground
    truths); a confidence is NaN where its has_ mask is False, the record's
    None, and a detection's confidence not passed is NaN throughout. extra
    and raw_fields are sparse: position -> the record's nonempty extra dict,
    or its raw_fields tuple.
    """

    __slots__ = (
        "kind", "rects", "cuboids", "has_cuboid", "label", "truncation", "occlusion", "alpha", "dontcare",
        "score", "class_conf", "has_class_conf", "pred_conf", "has_pred_conf", "extra", "raw_fields",
    )

    def __init__(self, kind: type, **columns) -> None:
        self.kind = kind
        for name in self.__slots__[1:]:
            setattr(self, name, columns.get(name))
        self.extra = self.extra or {}
        self.raw_fields = self.raw_fields or {}
        for name in ("class_conf", "pred_conf") if kind is DetectionBox else ():
            if getattr(self, name) is None:
                setattr(self, name, np.full(len(self.rects), np.nan))
                setattr(self, "has_" + name, np.zeros(len(self.rects), dtype=bool))

    def __len__(self) -> int:
        return len(self.rects)

    @classmethod
    def from_records(cls, kind: type, records: Sequence) -> _Columns:
        """The columns of records of kind: the one place records become arrays."""
        names = _RECORD_FIELDS[kind]
        fields = dict(zip(names, zip(*map(attrgetter(*names), records)))) if records else dict.fromkeys(names, ())
        has_cuboid = np.array([c is not None for c in fields["cuboid"]], dtype=bool)
        cuboids = np.zeros((len(records), 7))
        cuboids[has_cuboid] = cuboid_array([c for c in fields["cuboid"] if c is not None])
        columns = dict(
            rects=rect_array(fields["rect"]),
            cuboids=cuboids,
            has_cuboid=has_cuboid,
            label=list(fields["label"]),
            truncation=np.array(fields["truncation"], dtype=float),
            occlusion=_occlusions(fields["occlusion"]),
            alpha=np.array(fields["alpha"], dtype=float),
            dontcare=np.array(fields["dontcare"], dtype=bool),
            extra={i: extra for i, extra in enumerate(fields["extra"]) if extra},
            raw_fields={i: raw for i, raw in enumerate(fields["raw_fields"]) if raw is not None},
        )
        if kind is DetectionBox:
            columns["score"] = np.array(fields["score"], dtype=float)
            for name in ("class_conf", "pred_conf"):
                values = fields[name]
                columns["has_" + name] = np.array([v is not None for v in values], dtype=bool)
                columns[name] = np.array(values, dtype=float)
        return cls(kind, **columns)

    def take(self, at, score: np.ndarray) -> _Columns:
        """The detections at positions at as new columns, scored score, one score per position."""
        at = np.asarray(at, dtype=np.intp)
        rows = at.tolist()
        columns = {}
        for name in self.__slots__[1:]:
            value = getattr(self, name)
            if isinstance(value, np.ndarray):
                value = value[at]
            elif isinstance(value, dict):
                value = {k: value[i] for k, i in enumerate(rows) if i in value} if value else {}
            columns[name] = value
        columns["label"] = [self.label[i] for i in rows]
        columns["score"] = np.asarray(score, dtype=float)
        return _Columns(self.kind, **columns)

    def records(self) -> list:
        """The records, built from the columns."""
        rows = zip(
            self.label,
            self.rects.tolist(),
            self.cuboids.tolist(),
            self.has_cuboid.tolist(),
            self.truncation.tolist(),
            self.occlusion.tolist(),
            self.alpha.tolist(),
            self.dontcare.tolist(),
        )
        detections = self.kind is DetectionBox
        if detections:
            scores = self.score.tolist()
            class_conf = np.where(self.has_class_conf, self.class_conf, None).tolist()
            pred_conf = np.where(self.has_pred_conf, self.pred_conf, None).tolist()
        out = []
        for i, (label, rect, cuboid, has_cuboid, truncation, occlusion, alpha, dontcare) in enumerate(rows):
            fields = dict(
                rect=Rect2D(*rect),
                cuboid=Cuboid3D(*cuboid) if has_cuboid else None,
                label=label,
                truncation=truncation,
                occlusion=occlusion,
                alpha=alpha,
                dontcare=dontcare,
                raw_fields=self.raw_fields.get(i),
                extra=self.extra.get(i) or {},
            )
            if detections:
                fields.update(score=scores[i], class_conf=class_conf[i], pred_conf=pred_conf[i])
            out.append(self.kind(**fields))
        return out


class _RecordList:
    """Scene.boxes or Scene.gts: the scene's records of one kind.

    The scene holds either the records or their ``_Columns``; reading the
    attribute builds the records from the columns on first access, and the
    scene then keeps the records instead.
    """

    def __set_name__(self, owner, name: str) -> None:
        self.slot = "_" + name

    def __get__(self, scene, owner=None):
        if scene is None:
            # The dataclass default; __set__ makes it a new empty list.
            return None
        records, columns = getattr(scene, self.slot)
        if records is None:
            records = columns.records()
            setattr(scene, self.slot, (records, None))
        return records

    def __set__(self, scene, records) -> None:
        setattr(scene, self.slot, ([] if records is None else records, None))


@dataclass
class Scene:
    """One image worth of detections and ground truths.

    A scene read from a file always stores its boxes and ground truths as
    columns; the boxes and gts lists are built from them on first access and
    kept from then on. A scene built from records keeps its records. The
    package's consumers read columns (``_columns``), which a scene holding
    records derives from them at each call, so a record edited in place is
    seen.
    """

    scene_id: str
    boxes: list[DetectionBox] = _RecordList()
    gts: list[GroundTruth] = _RecordList()
    camera: str | None = None
    extra: dict = field(default_factory=dict)

    @classmethod
    def _of_columns(cls, scene_id: str, boxes: _Columns, gts: _Columns, camera=None, extra=None) -> Scene:
        scene = cls(scene_id, camera=camera, extra={} if extra is None else extra)
        scene._boxes, scene._gts = (None, boxes), (None, gts)
        return scene

    def _with_boxes(self, boxes: _Columns) -> Scene:
        """This scene with the columns boxes in place of its boxes; it shares the ground truths, held as
        records or as columns, the camera and the extra keys."""
        scene = Scene._of_columns(self.scene_id, boxes, None, self.camera, self.extra)
        scene._gts = self._gts
        return scene

    def _columns(self, name: str) -> _Columns:
        """The columns of "boxes" or "gts": the scene's own, or derived from the records it holds."""
        records, columns = getattr(self, "_" + name)
        if records is None:
            return columns
        return _Columns.from_records(DetectionBox if name == "boxes" else GroundTruth, records)

    def _held_records(self, name: str) -> list | None:
        """The records of "boxes" or "gts" if the scene holds records, else None."""
        return getattr(self, "_" + name)[0]
