"""JSON-lines scene serialization with lossless round-tripping.

One scene per line:

    {"id": ..., "camera"?: ..., "boxes": [...], "gts": [...], ...}

Box objects carry the rectangle corners (x1, y1, x2, y2), the cuboid center
and dimensions (cx, cy, cz, w, h, l, yaw; omitted when there is no cuboid),
the score, and optional class_conf / pred_conf. Keys the reader does not know
are preserved on the record and written back after the known ones, in their
original order, so files survive a read-write cycle unchanged. Floats are
written with the shortest representation that parses back to the same value
(Python's default), and NaN or infinite values are rejected.
"""

from __future__ import annotations

import json
import os
from typing import Iterable, Iterator

from .boxes import DetectionBox, GroundTruth, Scene
from .geometry import Cuboid3D, Rect2D

__all__ = [
    "box_from_dict",
    "box_to_dict",
    "gt_from_dict",
    "gt_to_dict",
    "iter_scenes_jsonl",
    "read_scenes_jsonl",
    "scene_from_dict",
    "scene_to_dict",
    "write_scenes_jsonl",
]

_RECT_KEYS = ("x1", "y1", "x2", "y2")
_CUBOID_KEYS = ("cx", "cy", "cz", "w", "h", "l", "yaw")


def _cuboid_to_items(cuboid: Cuboid3D | None) -> dict:
    if cuboid is None:
        return {}
    return {key: getattr(cuboid, key) for key in _CUBOID_KEYS}


def _number(value) -> float:
    """A JSON number as a float; strings and booleans are not numbers."""
    if type(value) is float:
        return value
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise TypeError(f"expected a number, got {value!r}")
    return float(value)


def _integer(value) -> int:
    """A JSON integer; a float counts only when it is integral."""
    if type(value) is int:
        return value
    if isinstance(value, float) and value.is_integer():
        return int(value)
    if isinstance(value, bool) or not isinstance(value, int):
        raise TypeError(f"expected an integer, got {value!r}")
    return value


def _flag(value) -> bool:
    if not isinstance(value, bool):
        raise TypeError(f"expected a boolean, got {value!r}")
    return value


# Typed fields, with the converter the readers apply to each.
_TYPED_FIELDS = (
    *((k, _number) for k in _RECT_KEYS + _CUBOID_KEYS),
    ("score", _number),
    ("class_conf", _number),
    ("pred_conf", _number),
    ("truncation", _number),
    ("occlusion", _integer),
    ("alpha", _number),
    ("dontcare", _flag),
)
_KINDS = {_number: "a number", _integer: "an integer", _flag: "a boolean"}
_OPTIONAL_NUMBERS = ("class_conf", "pred_conf")


def _record_error(data: dict, where: str, exc: Exception) -> ValueError:
    """The error for a box or gt object that failed to build, naming the first bad field."""
    for key, convert in _TYPED_FIELDS:
        value = data.get(key)
        if key not in data or (value is None and key in _OPTIONAL_NUMBERS):
            continue
        try:
            convert(value)
        except (TypeError, ValueError, OverflowError):
            return ValueError(f"{where}: {key} must be {_KINDS[convert]}, got {value!r}")
    return ValueError(f"{where}: {exc}")


def _require_object(data, where: str) -> None:
    if not isinstance(data, dict):
        raise ValueError(f"{where}: expected a JSON object, got {type(data).__name__}")


def _geometry_from_dict(data: dict) -> tuple[Rect2D, Cuboid3D | None]:
    try:
        rect = Rect2D(*(_number(data.pop(k)) for k in _RECT_KEYS))
    except KeyError as exc:
        raise ValueError(f"missing rectangle key {exc}") from None
    cuboid = None
    if all(k in data for k in _CUBOID_KEYS):
        cuboid = Cuboid3D(**{k: _number(data.pop(k)) for k in _CUBOID_KEYS})
    return rect, cuboid


def box_to_dict(box: DetectionBox) -> dict:
    out: dict = {k: getattr(box.rect, k) for k in _RECT_KEYS}
    out.update(_cuboid_to_items(box.cuboid))
    out["score"] = box.score
    if box.class_conf is not None:
        out["class_conf"] = box.class_conf
    if box.pred_conf is not None:
        out["pred_conf"] = box.pred_conf
    out["label"] = box.label
    if box.truncation != 0.0:
        out["truncation"] = box.truncation
    if box.occlusion != 0:
        out["occlusion"] = box.occlusion
    if box.alpha != 0.0:
        out["alpha"] = box.alpha
    if box.dontcare:
        out["dontcare"] = True
    out.update(box.extra)
    return out


def box_from_dict(data: dict, where: str = "box") -> DetectionBox:
    """Build a detection from its JSON object; malformed fields raise ValueError naming where."""
    _require_object(data, where)
    fields = dict(data)
    try:
        rect, cuboid = _geometry_from_dict(fields)
        return DetectionBox(
            rect=rect,
            cuboid=cuboid,
            score=_number(fields.pop("score", 0.0)),
            class_conf=_opt_float(fields.pop("class_conf", None)),
            pred_conf=_opt_float(fields.pop("pred_conf", None)),
            label=str(fields.pop("label", "Car")),
            truncation=_number(fields.pop("truncation", 0.0)),
            occlusion=_integer(fields.pop("occlusion", 0)),
            alpha=_number(fields.pop("alpha", 0.0)),
            dontcare=_flag(fields.pop("dontcare", False)),
            extra=fields,
        )
    except (TypeError, ValueError, OverflowError) as exc:
        raise _record_error(data, where, exc) from None


def gt_to_dict(gt: GroundTruth) -> dict:
    out: dict = {k: getattr(gt.rect, k) for k in _RECT_KEYS}
    out.update(_cuboid_to_items(gt.cuboid))
    out["label"] = gt.label
    if gt.truncation != 0.0:
        out["truncation"] = gt.truncation
    if gt.occlusion != 0:
        out["occlusion"] = gt.occlusion
    if gt.alpha != 0.0:
        out["alpha"] = gt.alpha
    if gt.dontcare:
        out["dontcare"] = True
    out.update(gt.extra)
    return out


def gt_from_dict(data: dict, where: str = "gt") -> GroundTruth:
    """Build a ground truth from its JSON object; malformed fields raise ValueError naming where."""
    _require_object(data, where)
    fields = dict(data)
    try:
        rect, cuboid = _geometry_from_dict(fields)
        return GroundTruth(
            rect=rect,
            cuboid=cuboid,
            label=str(fields.pop("label", "Car")),
            truncation=_number(fields.pop("truncation", 0.0)),
            occlusion=_integer(fields.pop("occlusion", 0)),
            alpha=_number(fields.pop("alpha", 0.0)),
            dontcare=_flag(fields.pop("dontcare", False)),
            extra=fields,
        )
    except (TypeError, ValueError, OverflowError) as exc:
        raise _record_error(data, where, exc) from None


def _opt_float(value) -> float | None:
    return None if value is None else _number(value)


def scene_to_dict(scene: Scene) -> dict:
    out: dict = {"id": scene.scene_id}
    if scene.camera is not None:
        out["camera"] = scene.camera
    out["boxes"] = [box_to_dict(b) for b in scene.boxes]
    out["gts"] = [gt_to_dict(g) for g in scene.gts]
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
    scene_id = str(data.pop("id"))
    camera = data.pop("camera", None)
    boxes_raw = data.pop("boxes", [])
    gts_raw = data.pop("gts", [])
    if not isinstance(boxes_raw, list) or not isinstance(gts_raw, list):
        raise ValueError(f"{where}: boxes and gts must be arrays")
    boxes = [box_from_dict(b, f"{where}: scene {scene_id!r} box {i}") for i, b in enumerate(boxes_raw)]
    gts = [gt_from_dict(g, f"{where}: scene {scene_id!r} gt {i}") for i, g in enumerate(gts_raw)]
    return Scene(scene_id=scene_id, boxes=boxes, gts=gts, camera=camera, extra=data)


def iter_scenes_jsonl(path: str | os.PathLike) -> Iterator[Scene]:
    """Yield scenes from a JSON-lines file; malformed lines raise with their number."""
    with open(path, "r", encoding="utf-8") as handle:
        for number, line in enumerate(handle, start=1):
            if not line.strip():
                continue
            try:
                data = json.loads(line)
            except json.JSONDecodeError as exc:
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
