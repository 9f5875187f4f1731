"""JSON-lines scene serialization with lossless round-tripping.

One scene per line:

    {"id": ..., "camera"?: ..., "boxes": [...], "gts": [...], ...}

Box and gt objects carry the rectangle corners (x1, y1, x2, y2), the cuboid
center and dimensions (cx, cy, cz, w, h, l, yaw: all seven, or none when
there is no cuboid), then the fields of one table per record kind:
_BOX_FIELDS for boxes, _GT_FIELDS for ground truths. One reader and one
writer serve both kinds; the reader fills a scene's columns, checked a field
at a time, and reads a scene whose checks fail record by record, for its
error. Keys the reader does not know are preserved on the
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
from operator import attrgetter, itemgetter
from typing import Iterable, Iterator

import numpy as np

from .boxes import DetectionBox, GroundTruth, Scene, _Columns, _geometry_accepted, _occlusions
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


# The number keys of each record kind, in the row order of the reader's number table, and all its known keys.
_NUMBER_KEYS = {
    GroundTruth: (*_RECT_KEYS, *_CUBOID_KEYS, "truncation", "alpha"),
    DetectionBox: (*_RECT_KEYS, *_CUBOID_KEYS, "truncation", "alpha", "score"),
}
_KNOWN_KEYS = {
    GroundTruth: {*_NUMBER_KEYS[GroundTruth], *(key for key, *_ in _GT_FIELDS)},
    DetectionBox: {*_NUMBER_KEYS[DetectionBox], *(key for key, *_ in _BOX_FIELDS)},
}
_DEFAULTS = {key: default for key, _, default, _ in _BOX_FIELDS}


def _columns_from_dicts(kind: type, raw: list) -> _Columns | None:
    """The columns of the records ``_record_from_dict`` reads from the objects of raw, a field at a time.

    Objects with the same keys in the same order are read together, each key
    of all of them at once, and every type and range check of the record
    path runs over a whole column. None when some object is not one the
    columns hold exactly as ``_record_from_dict`` reads it: a malformed one,
    or a rare valid one, such as an occlusion beyond int64. The caller then
    runs ``_record_from_dict`` on each object in turn, which raises the
    first error, or builds the records.
    """
    if set(map(type, raw)) - {dict}:
        return None
    known = _KNOWN_KEYS[kind]
    groups: dict[tuple, list[int]] = {}
    for i, shape in enumerate(map(tuple, raw)):
        groups.setdefault(shape, []).append(i)
    # Each known key's values in group order; a group without the key takes its default.
    columns: dict[str, list] = {}
    has_cuboid, extra, done = [], {}, 0
    for shape, members in groups.items():
        keys = set(shape)
        cuboid = keys.issuperset(_CUBOID_KEYS)
        if not keys.issuperset(_RECT_KEYS) or (keys.intersection(_CUBOID_KEYS) and not cuboid):
            return None
        records = [raw[i] for i in members]
        for key, values in zip(shape, zip(*map(itemgetter(*shape), records))):
            if key in known:
                column = columns.setdefault(key, [])
                column += [_DEFAULTS.get(key, 0.0)] * (done - len(column))
                column += values
        has_cuboid += [cuboid] * len(members)
        unknown = [key for key in shape if key not in known]
        for i, record in zip(members, records) if unknown else ():
            extra[i] = {key: record[key] for key in unknown}
            try:
                _require_finite_extra(extra[i], "")
            except ValueError:
                return None
        done += len(members)
    for key in known:
        column = columns.setdefault(key, [])
        column += [_DEFAULTS.get(key, 0.0)] * (done - len(column))
    types = {key: set(map(type, column)) for key, column in columns.items()}
    confs = ("class_conf", "pred_conf") if kind is DetectionBox else ()
    if not (
        set().union(*(types[key] for key in _NUMBER_KEYS[kind])) <= {float, int}
        and types["label"] <= {str}
        and types["dontcare"] <= {bool}
        and types["occlusion"] <= {float, int}
        and all(types[key] <= {float, int, type(None)} for key in confs)
    ):
        return None
    occlusion = columns["occlusion"]
    if float in types["occlusion"]:
        if not all(type(v) is int or v.is_integer() for v in occlusion):
            return None
        occlusion = [int(v) for v in occlusion]
    occlusion = _occlusions(occlusion)
    try:
        numbers = np.array([columns[key] for key in _NUMBER_KEYS[kind]], dtype=float)
        # A null confidence reads as NaN, and as absent.
        conf = {key: np.array(columns[key], dtype=float) for key in confs}
    except OverflowError:  # an integer too large for a float
        return None
    if occlusion.dtype != np.int64 or not np.isfinite(numbers).all():
        return None
    table = dict(
        has_cuboid=np.array(has_cuboid, dtype=bool),
        label=columns["label"],
        truncation=numbers[11],
        occlusion=occlusion,
        alpha=numbers[12],
        dontcare=np.array(columns["dontcare"], dtype=bool),
        extra=extra,
    )
    if kind is DetectionBox:
        table["score"] = numbers[13]
    for key in confs:
        table["has_" + key] = has = np.array([v is not None for v in columns[key]], dtype=bool)
        table[key] = conf[key]
        if not np.isfinite(conf[key][has]).all():
            return None
    if len(groups) > 1:
        # Back from group order to the objects' order.
        order = np.argsort(np.concatenate(list(groups.values())), kind="stable")
        numbers = numbers[:, order]
        table = {
            key: [value[i] for i in order.tolist()] if key == "label" else value if key == "extra" else value[order]
            for key, value in table.items()
        }
    rects, cuboids = numbers[:4].T.copy(), numbers[4:11].T.copy()
    if not _geometry_accepted(rects, cuboids):
        return None
    return _Columns(kind, rects=rects, cuboids=cuboids, **table)


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
    box_columns = _columns_from_dicts(DetectionBox, boxes_raw)
    gt_columns = _columns_from_dicts(GroundTruth, gts_raw)
    if box_columns is not None and gt_columns is not None:
        return Scene._of_columns(scene_id, box_columns, gt_columns, camera, data)
    boxes = [_record_from_dict(DetectionBox, b, f"{where} box {i}") for i, b in enumerate(boxes_raw)]
    gts = [_record_from_dict(GroundTruth, g, f"{where} gt {i}") for i, g in enumerate(gts_raw)]
    return Scene(scene_id=scene_id, boxes=boxes, gts=gts, camera=camera, extra=data)


def _text_lines(path: str | os.PathLike, encoding: str, where: str = "") -> Iterator[tuple[int, str]]:
    """(number, line) of each non-blank line; undecodable bytes raise a ValueError naming where and the line."""
    # Undecodable bytes are read as surrogates so that the error can name their line.
    with open(path, "r", encoding=encoding, errors="surrogateescape") as handle:
        for number, line in enumerate(handle, start=1):
            if not line.isascii():
                try:
                    line.encode(encoding, "surrogateescape").decode(encoding)
                except UnicodeDecodeError as exc:
                    raise ValueError(f"{where}line {number}: {exc}") from None
            if line.strip():
                yield number, line


def _reject_constant(name: str):
    """json's hook for the constants NaN, Infinity and -Infinity, which are not JSON."""
    raise ValueError(f"{name} is not a finite number")


def iter_scenes_jsonl(path: str | os.PathLike) -> Iterator[Scene]:
    """Yield scenes from a JSON-lines file; malformed lines raise with their number."""
    for number, line in _text_lines(path, "utf-8"):
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
