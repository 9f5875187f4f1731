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
difficulty rule's bound. A file's errors name it and the line. The reader
fills a scene's columns, and the writer encodes them, a column at a time,
into lines the reader reads back to the values written.
"""

from __future__ import annotations

import math
import os
from typing import Iterable

import numpy as np

from .boxes import DetectionBox, GroundTruth, Scene, _Columns, _check_geometry, _geometry_ok, _occlusions
from .io_jsonl import _text_lines

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
    score, or invalid geometry. This is the label-file reader on one line.
    """
    boxes, gts = _kitti_columns([_label_row(line, (None, line_number))])
    return (boxes or gts).records()[0]


def format_kitti_label(obj: GroundTruth | DetectionBox) -> str:
    """Serialize one record back to a label line: the label-file writer on one record.

    Records that came from a file reuse their raw fields verbatim; records
    built programmatically are written from their geometry, with the location
    recomputed as the bottom-face center. Detections end with their score.
    """
    kind = DetectionBox if isinstance(obj, DetectionBox) else GroundTruth
    return _label_lines(_Columns.from_records(kind, [obj]), ascii_only=False)[0]


def _label_lines(columns: _Columns, ascii_only: bool) -> list[str]:
    """The label line of each record of columns, built a column at a time.

    A record writes its raw fields as they are, or else its truncation,
    occlusion, alpha, rectangle and cuboid, the location lifted to the
    bottom-face center; a detection adds its score. Numbers are written with
    repr, the shortest text that parses back to them. The reader's checks
    run on the lines, and each label must be one token, and ASCII with
    ascii_only. If a check fails, the first record that fails one raises the
    error of its first: raw fields of 14 numbers, or else a cuboid; the
    label; ``_check_row``.
    """
    n = len(columns)
    if not n:
        return []
    # A record whose line cannot be built keeps a row of NaNs, which the checks reject.
    values = np.full((n, _GT_FIELDS - 1), np.nan)
    raw = {i: fields for i, fields in columns.raw_fields.items() if len(fields) == _GT_FIELDS - 1}
    values[list(raw)] = np.array(list(raw.values()), dtype=float).reshape(-1, _GT_FIELDS - 1)
    at = [i for i in np.flatnonzero(columns.has_cuboid).tolist() if i not in columns.raw_fields]
    if at:
        cx, cy, cz, w, h, length, yaw = columns.cuboids[at].T
        # As in Python, the bottom-face center overflows to infinity without complaint.
        with np.errstate(over="ignore"):
            y = cy + h / 2.0
        occlusion = np.asarray(columns.occlusion[at], dtype=float)
        values[at] = np.column_stack(
            [columns.truncation[at], occlusion, columns.alpha[at], columns.rects[at], h, w, length, cx, y, cz, yaw]
        )
    if columns.kind is DetectionBox:
        values = np.column_stack([values, columns.score])
    # A label is the first token of its line, and in a label file ASCII.
    bad_labels = [str.split(label) != [label] or (ascii_only and not label.isascii()) for label in columns.label]
    if any(bad_labels) or not _rows_ok(values, _cuboids(columns.label, values)[1]):
        for i, (label, row) in enumerate(zip(columns.label, values.tolist())):
            fields = columns.raw_fields.get(i)
            if fields is not None and len(fields) != _GT_FIELDS - 1:
                raise ValueError(f"raw_fields must hold {_GT_FIELDS - 1} numbers, got {len(fields)}")
            if fields is None and not columns.has_cuboid[i]:
                raise ValueError("cannot serialize a record with neither raw fields nor a cuboid")
            if bad_labels[i]:
                raise ValueError(f"label must be one {'ASCII ' * ascii_only}token without whitespace, got {label!r}")
            _check_row(label, row)
    template = "%s" + " %r" * values.shape[1]
    return list(map(template.__mod__, zip(columns.label, *values.T.tolist())))


def _check_labels_dir(labels_dir: str | os.PathLike | None) -> None:
    if labels_dir is not None and not os.path.isdir(labels_dir):
        raise ValueError(f"{os.fspath(labels_dir)}: labels path is not a directory")


def _line(place: tuple[str | None, int | None]) -> str:
    """The prefix of a line's errors: its file, if it came from one, and its number, if it has one."""
    name, number = place
    if number is None:
        return ""
    return f"line {number}: " if name is None else f"{name}: line {number}: "


def _label_row(line: str, place: tuple[str | None, int | None]) -> tuple[str, list[float], bool, tuple]:
    """A label line's type, its numbers parsed with float() (0.0 stands in for a ground truth's score), whether
    it is scored, and its place, (file, number); ValueError named by ``_line(place)`` on a wrong field count or
    a token float() rejects."""
    tokens = line.split()
    if len(tokens) not in (_GT_FIELDS, _DET_FIELDS):
        raise ValueError(f"{_line(place)}expected {_GT_FIELDS} or {_DET_FIELDS} fields, got {len(tokens)}")
    try:
        row = list(map(float, tokens[1:]))
    except ValueError as exc:
        raise ValueError(f"{_line(place)}non-numeric field: {exc}") from None
    scored = len(tokens) == _DET_FIELDS
    if not scored:
        row.append(0.0)
    return tokens[0], row, scored, place


def _cuboids(labels, values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Whether each label line of labels and values is DontCare, and its cuboid: the location (X, Y, Z) moved up
    to the center, zeros on a DontCare line."""
    dontcare = np.array([label == "DontCare" for label in labels], dtype=bool)
    h, w, length, x, y, z, yaw = values[:, 7:14].T
    # Overflows and NaNs are rejected by the checks, as the records reject them.
    with np.errstate(over="ignore", invalid="ignore"):
        cuboids = np.stack([x, y - h / 2.0, z, w, h, length, yaw], axis=1)
    cuboids[dontcare] = 0.0
    return dontcare, cuboids


def _rows_ok(values: np.ndarray, cuboids: np.ndarray) -> bool:
    """Whether the reader accepts each label line's numbers, values (14, or 15 with a score), and cuboid: an
    integer occlusion; a finite truncation, alpha and score; Rect2D; Cuboid3D, each over all lines at once."""
    occlusion = values[:, 1]
    return bool(
        np.isfinite(values[:, :3]).all() and (occlusion == np.floor(occlusion)).all()
        and np.isfinite(values[:, 14:]).all()
        and _geometry_ok(values[:, 3:7], cuboids)
    )


def _check_row(label: str, row: list[float]) -> None:
    """Raise the error of the first of ``_rows_ok``'s checks that one label line, label and row, fails."""
    if not row[1].is_integer():
        raise ValueError(f"occlusion must be an integer, got {row[1]!r}")
    for name, value in zip(("truncation", "alpha", "score"), (row[0], row[2], *row[14:])):
        if not math.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value!r}")
    h, w, length, x, y, z, yaw = row[7:14]
    _check_geometry(row[3:7], None if label == "DontCare" else (x, y - h / 2.0, z, w, h, length, yaw))


def _kitti_columns(lines: list[tuple]) -> tuple[_Columns, _Columns]:
    """The detection and the ground-truth columns of ``_label_row``'s lines, checked by ``_rows_ok``; if a check
    fails, the error of the first line that ``_check_row`` rejects, named by its place."""
    labels, rows, scored, _ = zip(*lines) if lines else [()] * 4
    values = np.array(rows, dtype=float).reshape(-1, _DET_FIELDS - 1)
    dontcare, cuboids = _cuboids(labels, values)
    if not _rows_ok(values, cuboids):
        for label, row, _, place in lines:
            try:
                _check_row(label, row)
            except ValueError as exc:
                raise ValueError(f"{_line(place)}{exc}") from None
    occlusion = _occlusions([int(v) for v in values[:, 1].tolist()])
    scored = np.array(scored, dtype=bool)
    out = []
    for kind, at in ((DetectionBox, np.flatnonzero(scored)), (GroundTruth, np.flatnonzero(~scored))):
        out.append(_Columns(
            kind,
            rects=values[at, 3:7],
            cuboids=cuboids[at],
            has_cuboid=~dontcare[at],
            label=[labels[i] for i in at.tolist()],
            truncation=values[at, 0],
            occlusion=occlusion[at],
            alpha=values[at, 2],
            dontcare=dontcare[at],
            score=values[at, 14] if kind is DetectionBox else None,
            raw_fields={k: tuple(rows[i][: _GT_FIELDS - 1]) for k, i in enumerate(at.tolist())},
        ))
    return tuple(out)


def read_kitti_file(path: str | os.PathLike, labels_dir: str | os.PathLike | None = None) -> Scene:
    """Read one label file into a scene named after the file; 15-field lines
    become ground truths and 16-field lines detections. Blank lines are
    skipped. When labels_dir holds a file of the same name, its ground truths
    are merged in; a scored line there, or a labels_dir that is not a
    directory, raises ValueError naming its path. A line that cannot be
    split into numbers, or a file that cannot be read, ends the read, and is
    raised once ``_kitti_columns`` has checked the lines before it: the
    first error in file and line order is the one raised. A line's error
    names the path of its file, then the line."""
    _check_labels_dir(labels_dir)
    return _read_frame(path, labels_dir)


def _read_frame(path: str | os.PathLike, labels_dir: str | os.PathLike | None) -> Scene:
    """read_kitti_file once labels_dir is checked."""
    scene_id = os.path.splitext(os.path.basename(os.fspath(path)))[0]
    paths = [os.fspath(path)]
    if labels_dir is not None:
        label_path = os.path.join(labels_dir, os.path.basename(paths[0]))
        if os.path.exists(label_path):
            paths.append(label_path)
    lines, error = [], None
    try:
        for k, name in enumerate(paths):
            for number, line in _text_lines(name, "ascii", f"{name}: "):
                lines.append(_label_row(line, (name, number)))
                if k and lines[-1][2]:
                    raise ValueError(f"{name}: line {number}: a labels file holds no scored detections")
    except (ValueError, OSError) as exc:
        error = exc
    boxes, gts = _kitti_columns(lines)
    if error is not None:
        raise error
    return Scene._of_columns(scene_id, boxes, gts)


def write_kitti_file(path: str | os.PathLike, scene: Scene) -> None:
    """Write a scene as one label file, ground truths first, then detections, from its columns."""
    lines = [line for name in ("gts", "boxes") for line in _label_lines(scene._columns(name), ascii_only=True)]
    with open(path, "w", encoding="ascii", newline="\n") as handle:
        handle.write("".join(line + "\n" for line in lines))


def read_kitti_dir(path: str | os.PathLike, labels_dir: str | os.PathLike | None = None) -> list[Scene]:
    """Read every .txt label file under a directory, one scene per file.

    Files are visited in sorted name order. Ground truths from the same-named
    files of labels_dir, which must be a directory, are merged into each scene.
    """
    _check_labels_dir(labels_dir)
    names = sorted(name for name in os.listdir(path) if name.endswith(".txt"))
    return [_read_frame(os.path.join(path, name), labels_dir) for name in names]


def write_kitti_dir(path: str | os.PathLike, scenes: Iterable[Scene]) -> None:
    """Write one label file per scene under a directory, named by scene id; an id that is empty, holds a path
    separator or a NUL, or repeats another is a ValueError naming it, raised before any file is written."""
    scenes, seen = list(scenes), set()
    for scene_id in (scene.scene_id for scene in scenes):
        if not scene_id or {os.sep, os.altsep, "\0"} & set(scene_id) or scene_id in seen:
            raise ValueError(f"scene id {scene_id!r} cannot name a label file of its own")
        seen.add(scene_id)
    os.makedirs(path, exist_ok=True)
    for scene in scenes:
        write_kitti_file(os.path.join(path, f"{scene.scene_id}.txt"), scene)
