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

import numpy as np

from .boxes import DetectionBox, GroundTruth, Scene, _Columns, _geometry_accepted
from .geometry import Cuboid3D, Rect2D
from .io_jsonl import _integer, _text_lines

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


def _check_labels_dir(labels_dir: str | os.PathLike | None) -> None:
    if labels_dir is not None and not os.path.isdir(labels_dir):
        raise ValueError(f"{os.fspath(labels_dir)}: labels path is not a directory")


def _kitti_columns(kind: type, rows: list[list[float]], labels: list[str]) -> _Columns | None:
    """The columns of the records parse_kitti_label makes of lines of labels and numbers rows, or None
    when some line is one it rejects, or one whose occlusion int64 cannot hold."""
    width = _DET_FIELDS if kind is DetectionBox else _GT_FIELDS
    values = np.array(rows, dtype=float).reshape(-1, width - 1)
    truncation, occlusion, alpha = values[:, 0], values[:, 1], values[:, 2]
    rects = values[:, 3:7]
    h, w, length, x, y, z, yaw = values[:, 7:14].T
    dontcare = np.array([label == "DontCare" for label in labels], dtype=bool)
    has_cuboid = ~dontcare
    # Overflows and NaNs are rejected below, as the records reject them.
    with np.errstate(over="ignore", invalid="ignore"):
        cuboids = np.stack([x, y - h / 2.0, z, w, h, length, yaw], axis=1)[has_cuboid]
        integral = np.abs(occlusion) < 2.0**63
    finite = [truncation, alpha, values[:, _GT_FIELDS - 1 : width - 1]]
    if not all(np.isfinite(column).all() for column in finite) or not integral.all():
        return None
    if (occlusion != np.floor(occlusion)).any() or not _geometry_accepted(rects, cuboids):
        return None
    columns = np.zeros((len(rows), 7))
    columns[has_cuboid] = cuboids
    out = dict(
        rects=rects.copy(),
        cuboids=columns,
        has_cuboid=has_cuboid,
        label=labels,
        truncation=truncation.copy(),
        occlusion=occlusion.astype(np.int64),
        alpha=alpha.copy(),
        dontcare=dontcare,
        raw_fields={i: tuple(row[: _GT_FIELDS - 1]) for i, row in enumerate(rows)},
    )
    if kind is DetectionBox:
        n = len(rows)
        out.update(
            score=values[:, 14].copy(),
            class_conf=np.full(n, np.nan),
            has_class_conf=np.zeros(n, dtype=bool),
            pred_conf=np.full(n, np.nan),
            has_pred_conf=np.zeros(n, dtype=bool),
        )
    return _Columns(kind, **out)


def _read_kitti_columns(scene_id: str, paths: list[str]) -> Scene | None:
    """The scene read_kitti_file reads from the label file paths[0] and the labels file paths[1:], as columns.

    Each line is split and its numbers parsed with float(), as
    parse_kitti_label does; the checks then run over all lines at once. None
    when any line or file would raise, or is one the columns cannot hold: the
    caller reads the files again, line by line, which raises the first error
    in the order the line-by-line read meets it.
    """
    parsed = {_GT_FIELDS: ([], []), _DET_FIELDS: ([], [])}
    try:
        for k, path in enumerate(paths):
            for _, line in _text_lines(path, "ascii"):
                tokens = line.split()
                if len(tokens) not in parsed or (k and len(tokens) == _DET_FIELDS):
                    return None
                rows, labels = parsed[len(tokens)]
                rows.append(list(map(float, tokens[1:])))
                labels.append(tokens[0])
    except (ValueError, OSError):
        return None
    boxes = _kitti_columns(DetectionBox, *parsed[_DET_FIELDS])
    gts = _kitti_columns(GroundTruth, *parsed[_GT_FIELDS])
    if boxes is None or gts is None:
        return None
    return Scene._of_columns(scene_id, boxes, gts)


def read_kitti_file(path: str | os.PathLike, labels_dir: str | os.PathLike | None = None) -> Scene:
    """Read one label file into a scene named after the file; 15-field lines
    become ground truths and 16-field lines detections. Blank lines are
    skipped. When labels_dir holds a file of the same name, its ground truths
    are merged in; a scored line there, or a labels_dir that is not a
    directory, raises ValueError naming its path. The scene holds its
    records as columns (``_read_kitti_columns``) unless a line needs the
    line-by-line parse."""
    _check_labels_dir(labels_dir)
    scene_id = os.path.splitext(os.path.basename(os.fspath(path)))[0]
    paths = [path]
    if labels_dir is not None:
        label_path = os.path.join(labels_dir, os.path.basename(os.fspath(path)))
        if os.path.exists(label_path):
            paths.append(label_path)
    scene = _read_kitti_columns(scene_id, paths)
    if scene is not None:
        return scene
    scene = Scene(scene_id=scene_id)
    for number, line in _text_lines(path, "ascii", f"{os.fspath(path)}: "):
        record = parse_kitti_label(line, line_number=number)
        if isinstance(record, DetectionBox):
            scene.boxes.append(record)
        else:
            scene.gts.append(record)
    for label_path in paths[1:]:
        for number, line in _text_lines(label_path, "ascii", f"{label_path}: "):
            record = parse_kitti_label(line, line_number=number)
            if isinstance(record, DetectionBox):
                raise ValueError(f"{label_path}: line {number}: a labels file holds no scored detections")
            scene.gts.append(record)
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

    Files are visited in sorted name order. Ground truths from the same-named
    files of labels_dir, which must be a directory, are merged into each scene.
    """
    _check_labels_dir(labels_dir)
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
