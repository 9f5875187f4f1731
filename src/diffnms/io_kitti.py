"""KITTI label-file parsing and serialization.

Line layout (whitespace separated):

    type truncated occluded alpha x1 y1 x2 y2 h w l X Y Z ry [score]

15 fields parse as a ground truth, 16 as a scored detection. (X, Y, Z) is the
bottom-face center in camera coordinates while cuboids store the geometric
center, so parsing shifts Y up by h/2. The 14 numbers before the score are
kept on the record as raw_fields and reused on write, making parse ->
serialize lossless; a detection's score lives only in its score field.
DontCare rows (and their sentinel geometry) are parsed with the flag set and
no cuboid. The truncation, the alpha and a detection's score must be finite:
ranking cannot order a NaN score, and a NaN truncation would pass every
difficulty rule's bound.
"""

from __future__ import annotations

import math
import os
from typing import Iterable, Sequence

from .boxes import DetectionBox, GroundTruth, Scene
from .geometry import Cuboid3D, Rect2D
from .io_jsonl import _integer, _require_decodable

__all__ = [
    "format_kitti_label",
    "parse_kitti_label",
    "read_kitti_file",
    "read_kitti_dir",
    "write_kitti_file",
    "write_kitti_dir",
]

_GT_FIELDS = 15
_DET_FIELDS = 16


def parse_kitti_label(line: str, line_number: int | None = None) -> GroundTruth | DetectionBox:
    """Parse one label line into a ground truth (15 fields) or detection (16).

    Raises ValueError naming the line number on wrong field counts, numeric
    garbage, a non-integral occlusion, a non-finite truncation, alpha or
    score, or invalid geometry.
    """
    where = f"line {line_number}: " if line_number is not None else ""
    tokens = line.split()
    if len(tokens) not in (_GT_FIELDS, _DET_FIELDS):
        raise ValueError(f"{where}expected {_GT_FIELDS} or {_DET_FIELDS} fields, got {len(tokens)}")
    label = tokens[0]
    try:
        values = tuple(float(tok) for tok in tokens[1:])
    except ValueError as exc:
        raise ValueError(f"{where}non-numeric field: {exc}") from None
    truncation, occlusion_raw, alpha = values[0], values[1], values[2]
    try:
        occlusion = _integer(occlusion_raw)
    except TypeError:
        raise ValueError(f"{where}occlusion must be an integer, got {occlusion_raw!r}") from None
    checked = {"truncation": truncation, "alpha": alpha}
    if len(tokens) == _DET_FIELDS:
        checked["score"] = values[14]
    for name, value in checked.items():
        if not math.isfinite(value):
            raise ValueError(f"{where}{name} must be finite, got {value!r}")
    dontcare = label == "DontCare"
    try:
        rect = Rect2D(*values[3:7])
        cuboid = None
        if not dontcare:
            h, w, length = values[7:10]
            x, y, z = values[10:13]
            cuboid = Cuboid3D(cx=x, cy=y - h / 2.0, cz=z, w=w, h=h, l=length, yaw=values[13])
    except ValueError as exc:
        raise ValueError(f"{where}{exc}") from None
    common = dict(
        rect=rect,
        cuboid=cuboid,
        label=label,
        truncation=truncation,
        occlusion=occlusion,
        alpha=alpha,
        dontcare=dontcare,
        raw_fields=values[: _GT_FIELDS - 1],
    )
    if len(tokens) == _DET_FIELDS:
        return DetectionBox(score=values[14], **common)
    return GroundTruth(**common)


def _format_float(value: float) -> str:
    # repr gives the shortest string that parses back to the same float.
    return repr(float(value))


def format_kitti_label(obj: GroundTruth | DetectionBox) -> str:
    """Serialize one record back to a label line.

    Records that came from a file reuse their raw fields verbatim; records
    built programmatically are written from their geometry, with the location
    recomputed as the bottom-face center. Detections end with their score.
    """
    if obj.raw_fields is not None:
        if len(obj.raw_fields) != _GT_FIELDS - 1:
            raise ValueError(f"raw_fields must hold {_GT_FIELDS - 1} numbers, got {len(obj.raw_fields)}")
        values = obj.raw_fields
    else:
        if obj.cuboid is None:
            raise ValueError("cannot serialize a record with neither raw fields nor a cuboid")
        c = obj.cuboid
        values = (
            obj.truncation,
            float(obj.occlusion),
            obj.alpha,
            obj.rect.x1,
            obj.rect.y1,
            obj.rect.x2,
            obj.rect.y2,
            c.h,
            c.w,
            c.l,
            c.cx,
            c.cy + c.h / 2.0,
            c.cz,
            c.yaw,
        )
    if isinstance(obj, DetectionBox):
        values = values + (obj.score,)
    return " ".join([obj.label] + [_format_float(v) for v in values])


def read_kitti_file(path: str | os.PathLike, labels_dir: str | os.PathLike | None = None) -> Scene:
    """Read one label file into a scene named after the file; 15-field lines
    become ground truths and 16-field lines detections. Blank lines are
    skipped. When labels_dir holds a file of the same name, its ground truths
    are merged in."""
    scene = Scene(scene_id=os.path.splitext(os.path.basename(os.fspath(path)))[0])
    # Undecodable bytes are read as surrogates so that the error can name their file and line.
    with open(path, "r", encoding="ascii", errors="surrogateescape") as handle:
        for number, line in enumerate(handle, start=1):
            if not line.isascii():
                _require_decodable(line, "ascii", f"{os.fspath(path)}: line {number}")
            if not line.strip():
                continue
            record = parse_kitti_label(line, line_number=number)
            if isinstance(record, DetectionBox):
                scene.boxes.append(record)
            else:
                scene.gts.append(record)
    if labels_dir is not None:
        label_path = os.path.join(labels_dir, os.path.basename(os.fspath(path)))
        if os.path.exists(label_path):
            scene.gts.extend(read_kitti_file(label_path).gts)
    return scene


def write_kitti_file(path: str | os.PathLike, scene: Scene) -> None:
    """Write a scene as one label file, ground truths first, then detections."""
    with open(path, "w", encoding="ascii", newline="\n") as handle:
        for gt in scene.gts:
            handle.write(format_kitti_label(gt) + "\n")
        for box in scene.boxes:
            handle.write(format_kitti_label(box) + "\n")


def read_kitti_dir(path: str | os.PathLike, labels_dir: str | os.PathLike | None = None) -> list[Scene]:
    """Read every .txt label file under a directory, one scene per file.

    Files are visited in sorted name order. When labels_dir is given, ground
    truths from its same-named files are merged into each scene.
    """
    scenes = []
    for name in sorted(os.listdir(path)):
        if not name.endswith(".txt"):
            continue
        scenes.append(read_kitti_file(os.path.join(path, name), labels_dir=labels_dir))
    return scenes


def write_kitti_dir(path: str | os.PathLike, scenes: Iterable[Scene]) -> None:
    """Write one label file per scene under a directory, named by scene id."""
    os.makedirs(path, exist_ok=True)
    for scene in scenes:
        write_kitti_file(os.path.join(path, f"{scene.scene_id}.txt"), scene)
