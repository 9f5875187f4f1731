"""JSON-lines scene serialization with lossless round-tripping.

One scene per line:

    {"id": ..., "camera"?: ..., "boxes": [...], "gts": [...], ...}

Box and gt objects carry the rectangle corners (x1, y1, x2, y2), the cuboid
center and dimensions (cx, cy, cz, w, h, l, yaw: all seven, or none when
there is no cuboid), then the fields of one table per record kind:
_BOX_FIELDS for boxes, _GT_FIELDS for ground truths. One reader and one
writer serve both kinds. Keys the reader does not know are preserved on the
record and written back after the known ones, in their original order, so
files survive a read-write cycle unchanged. Floats are written with the
shortest representation that parses back to the same value (Python's
default). NaN or infinite values are rejected: on read, the constants NaN,
Infinity and -Infinity anywhere on a line, and a number that overflows to
infinity, in a known field or anywhere under a kept key; on write, any of
them.
"""

from __future__ import annotations

import json
import math
import os
from operator import attrgetter
from typing import Iterable, Iterator

from .boxes import DetectionBox, GroundTruth, Scene
from .geometry import Cuboid3D, Rect2D

__all__ = ["iter_scenes_jsonl", "read_scenes_jsonl", "write_scenes_jsonl"]

_RECT_KEYS = ("x1", "y1", "x2", "y2")
_CUBOID_KEYS = ("cx", "cy", "cz", "w", "h", "l", "yaw")
_rect_coords = attrgetter(*_RECT_KEYS)
_cuboid_coords = attrgetter(*_CUBOID_KEYS)


def _number(value) -> float:
    """A finite JSON number as a float; strings and booleans are not numbers.

    A literal too large for a float, such as 1e400, parses as infinity and is
    rejected here.
    """
    if type(value) is not float:
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise TypeError
        value = float(value)
    if not math.isfinite(value):
        raise ValueError
    return value


def _integer(value) -> int:
    """A JSON integer; a float counts only when it is integral."""
    if type(value) is int:
        return value
    if isinstance(value, float) and value.is_integer():
        return int(value)
    if isinstance(value, bool) or not isinstance(value, int):
        raise TypeError
    return value


def _flag(value) -> bool:
    if not isinstance(value, bool):
        raise TypeError
    return value


def _string(value) -> str:
    if not isinstance(value, str):
        raise TypeError
    return value


_KINDS = {_number: "a number", _integer: "an integer", _flag: "a boolean", _string: "a string"}

# One row per record field: key (also the attribute name), converter, default,
# and whether the writer emits it even at its default. A field whose default
# is None also reads a JSON null as absent.
_GT_FIELDS = (
    ("label", _string, "Car", True),
    ("truncation", _number, 0.0, False),
    ("occlusion", _integer, 0, False),
    ("alpha", _number, 0.0, False),
    ("dontcare", _flag, False, False),
)
_BOX_FIELDS = (
    ("score", _number, 0.0, True),
    ("class_conf", _number, None, False),
    ("pred_conf", _number, None, False),
    *_GT_FIELDS,
)


def _field_error(where: str, key: str, convert, value) -> ValueError:
    return ValueError(f"{where}: {key} must be {_KINDS[convert]}, got {value!r}")


def _require_finite_extra(extra: dict, where: str) -> None:
    """Reject a non-finite float anywhere under keys the reader keeps but does not know.

    json parses a literal too large for a float, such as 1e400, as infinity,
    which the writer could not write back. The walk uses a stack, not
    recursion, so any depth json accepted is walked.
    """
    for key, value in extra.items():
        stack = [value]
        while stack:
            item = stack.pop()
            if type(item) is float:
                if not math.isfinite(item):
                    raise ValueError(f"{where}: {key} must be finite, got {item!r}")
            elif isinstance(item, dict):
                stack.extend(item.values())
            elif isinstance(item, list):
                stack.extend(item)


def _require_object(data, where: str) -> None:
    if not isinstance(data, dict):
        raise ValueError(f"{where}: expected a JSON object, got {type(data).__name__}")


def _record_from_dict(kind: type, data, where: str) -> DetectionBox | GroundTruth:
    """A DetectionBox or GroundTruth from its JSON object, each field converted once.

    Keys outside the field table stay on the record as extra. The first
    malformed field raises a ValueError naming where and the field.
    """
    _require_object(data, where)
    rest = dict(data)
    for key in _RECT_KEYS:
        if key not in rest:
            raise ValueError(f"{where}: missing rectangle key {key!r}")
    missing = [key for key in _CUBOID_KEYS if key not in rest]
    if 0 < len(missing) < len(_CUBOID_KEYS):
        raise ValueError(f"{where}: missing cuboid key {missing[0]!r}")
    has_cuboid = not missing
    fields = {}
    convert = _number
    try:
        coords = []
        for key in _RECT_KEYS + _CUBOID_KEYS if has_cuboid else _RECT_KEYS:
            value = rest.pop(key)
            coords.append(_number(value))
        for key, convert, default, _ in _BOX_FIELDS if kind is DetectionBox else _GT_FIELDS:
            value = rest.pop(key, default)
            fields[key] = value if value is default else convert(value)
    except (TypeError, ValueError, OverflowError):
        raise _field_error(where, key, convert, value) from None
    _require_finite_extra(rest, where)
    try:
        rect = Rect2D(*coords[:4])
        cuboid = Cuboid3D(*coords[4:]) if has_cuboid else None
    except ValueError as exc:
        raise ValueError(f"{where}: {exc}") from None
    return kind(rect=rect, cuboid=cuboid, extra=rest, **fields)


def _record_to_dict(record: DetectionBox | GroundTruth) -> dict:
    """The JSON object of a record: geometry keys, table fields, then extra keys."""
    out = dict(zip(_RECT_KEYS, _rect_coords(record.rect)))
    if record.cuboid is not None:
        out.update(zip(_CUBOID_KEYS, _cuboid_coords(record.cuboid)))
    for key, _, default, always in _BOX_FIELDS if isinstance(record, DetectionBox) else _GT_FIELDS:
        value = getattr(record, key)
        if always or value != default:
            out[key] = value
    out.update(record.extra)
    return out


def scene_to_dict(scene: Scene) -> dict:
    out: dict = {"id": scene.scene_id}
    if scene.camera is not None:
        out["camera"] = scene.camera
    out["boxes"] = [_record_to_dict(b) for b in scene.boxes]
    out["gts"] = [_record_to_dict(g) for g in scene.gts]
    out.update(scene.extra)
    return out


def scene_from_dict(data: dict, where: str = "scene") -> Scene:
    """Build a scene from its JSON object.

    Errors are ValueErrors that name where, then the scene id and the box or
    gt position of the malformed record.
    """
    _require_object(data, where)
    data = dict(data)
    if "id" not in data:
        raise ValueError(f"{where}: missing scene id")
    scene_id = data.pop("id")
    if not isinstance(scene_id, str):
        raise _field_error(where, "id", _string, scene_id)
    boxes_raw = data.pop("boxes", [])
    gts_raw = data.pop("gts", [])
    if not isinstance(boxes_raw, list) or not isinstance(gts_raw, list):
        raise ValueError(f"{where}: boxes and gts must be arrays")
    where = f"{where}: scene {scene_id!r}"
    _require_finite_extra(data, where)
    camera = data.pop("camera", None)
    boxes = [_record_from_dict(DetectionBox, b, f"{where} box {i}") for i, b in enumerate(boxes_raw)]
    gts = [_record_from_dict(GroundTruth, g, f"{where} gt {i}") for i, g in enumerate(gts_raw)]
    return Scene(scene_id=scene_id, boxes=boxes, gts=gts, camera=camera, extra=data)


def _require_decodable(line: str, encoding: str, where: str) -> None:
    """Raise a ValueError naming where if a line read with surrogateescape held undecodable bytes."""
    try:
        line.encode(encoding, "surrogateescape").decode(encoding)
    except UnicodeDecodeError as exc:
        raise ValueError(f"{where}: {exc}") from None


def _reject_constant(name: str):
    """json's hook for the constants NaN, Infinity and -Infinity, which are not JSON."""
    raise ValueError(f"{name} is not a finite number")


def iter_scenes_jsonl(path: str | os.PathLike) -> Iterator[Scene]:
    """Yield scenes from a JSON-lines file; malformed lines raise with their number."""
    # Undecodable bytes are read as surrogates so that the error can name their line.
    with open(path, "r", encoding="utf-8", errors="surrogateescape") as handle:
        for number, line in enumerate(handle, start=1):
            if not line.isascii():
                _require_decodable(line, "utf-8", f"line {number}")
            if not line.strip():
                continue
            try:
                data = json.loads(line, parse_constant=_reject_constant)
            except ValueError as exc:
                raise ValueError(f"line {number}: invalid JSON: {exc}") from None
            except RecursionError:
                raise ValueError(f"line {number}: invalid JSON: nested too deeply") from None
            if not isinstance(data, dict):
                raise ValueError(f"line {number}: expected a JSON object")
            yield scene_from_dict(data, where=f"line {number}")


def read_scenes_jsonl(path: str | os.PathLike) -> list[Scene]:
    return list(iter_scenes_jsonl(path))


def write_scenes_jsonl(path: str | os.PathLike, scenes: Iterable[Scene]) -> None:
    """Write scenes one JSON object per line; NaN and infinities are rejected."""
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        for scene in scenes:
            handle.write(json.dumps(scene_to_dict(scene), allow_nan=False, separators=(",", ":")))
            handle.write("\n")
