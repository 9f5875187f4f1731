"""JSON-lines scene serialization with lossless round-tripping.

One scene per line:

    {"id": ..., "camera"?: ..., "boxes": [...], "gts": [...], ...}

Box and gt objects carry the rectangle corners (x1, y1, x2, y2), the cuboid
center and dimensions (cx, cy, cz, w, h, l, yaw: all seven, or none when
there is no cuboid), then the fields of one table per record kind:
_BOX_FIELDS for boxes, _GT_FIELDS for ground truths. One reader and one
writer serve both kinds; the reader fills a scene's columns, checked a column
at a time, and a failed check sends it through the records in order for the
first record's error; the writer encodes a scene's columns, a key of all its
records at a time, into the bytes json.dumps would write for the records.
Keys the reader does not know are preserved on the
record and written back after the known ones, in their original order, so
files survive a read-write cycle unchanged. Floats are written with the
shortest representation that parses back to the same value (Python's
default). NaN or infinite values are rejected: on read, the constants NaN,
Infinity and -Infinity anywhere on a line, and a number that overflows to
infinity, in a known field or anywhere under a kept key; on write, any of
them, with an error that names the scene, the record and the key (the
known fields of a scene's boxes, or of its ground truths, are checked
before their kept keys).
"""

from __future__ import annotations

import bisect
import json
import math
import os
from operator import itemgetter
from typing import Iterable, Iterator, NoReturn

import numpy as np

from .boxes import DetectionBox, GroundTruth, Scene, _Columns, _check_geometry, _geometry_ok, _occlusions

__all__ = ["iter_scenes_jsonl", "read_scenes_jsonl", "write_scenes_jsonl"]

_RECT_KEYS = ("x1", "y1", "x2", "y2")
_CUBOID_KEYS = ("cx", "cy", "cz", "w", "h", "l", "yaw")


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
    return int(value)


def _flag(value) -> bool:
    if not isinstance(value, bool):
        raise TypeError
    return value


def _string(value) -> str:
    if not isinstance(value, str):
        raise TypeError
    return str(value)


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
    recursion, so any depth json accepted is walked. It descends into what
    json.dumps writes as arrays and objects, and checks what it writes as
    floats, so a record built in Python is checked as it will be written.
    """
    for key, value in extra.items():
        stack = [value]
        while stack:
            item = stack.pop()
            if isinstance(item, float):
                if not math.isfinite(item):
                    raise ValueError(f"{where}: {key} must be finite, got {float(item)!r}")
            elif isinstance(item, dict):
                stack.extend(item.values())
            elif isinstance(item, (list, tuple)):
                stack.extend(item)


def _require_object(data, where: str) -> None:
    if not isinstance(data, dict):
        raise ValueError(f"{where}: expected a JSON object, got {type(data).__name__}")


# The checks of a record's fields, in the order the reader runs them: each coordinate, then each field of the kind's
# table. A row holds the key, its converter, the value of a record without the key, and the types a column takes
# as they are.
_PLAIN = {_number: {float, int}, _integer: {float, int}, _flag: {bool}, _string: {str}}


def _checks(fields: tuple) -> tuple:
    rows = [(key, _number, 0.0) for key in _RECT_KEYS + _CUBOID_KEYS] + [row[:3] for row in fields]
    return tuple((key, convert, default, {*_PLAIN[convert], type(default)}) for key, convert, default in rows)


_CHECKS = {GroundTruth: _checks(_GT_FIELDS), DetectionBox: _checks(_BOX_FIELDS)}
# The number keys of each record kind, in the row order of the reader's number table; its known keys; their defaults.
_NUMBER_KEYS = {
    GroundTruth: (*_RECT_KEYS, *_CUBOID_KEYS, "truncation", "alpha"),
    DetectionBox: (*_RECT_KEYS, *_CUBOID_KEYS, "truncation", "alpha", "score"),
}
_KNOWN_KEYS = {kind: {key for key, *_ in checks} for kind, checks in _CHECKS.items()}
_DEFAULTS = {key: default for key, _, default, _ in _CHECKS[DetectionBox]}
_CONFS = {GroundTruth: (), DetectionBox: ("class_conf", "pred_conf")}


def _plain_arrays(kind: type, columns: dict) -> tuple[np.ndarray, dict]:
    """The number table of the known keys' columns, in _NUMBER_KEYS order, and their occlusion and confidence
    columns. TypeError, ValueError or OverflowError unless each value is of a type its column takes as it is, and
    one its converter accepts."""
    types = {key: set(map(type, column)) for key, column in columns.items()}
    if not all(types[key] <= plain for key, _, _, plain in _CHECKS[kind]):
        raise TypeError
    occlusion = columns["occlusion"]
    if float in types["occlusion"]:
        occlusion = list(map(_integer, occlusion))
    numbers = np.array([columns[key] for key in _NUMBER_KEYS[kind]], dtype=float)
    table = {"occlusion": _occlusions(occlusion)}
    for key in _CONFS[kind]:
        # A null confidence reads as NaN, and as absent.
        table[key] = conf = np.array(columns[key], dtype=float)
        table["has_" + key] = has = np.array([v is not None for v in columns[key]], dtype=bool)
        if not np.isfinite(conf[has]).all():
            raise ValueError
    if not np.isfinite(numbers).all():
        raise ValueError
    return numbers, table


def _scan_records(kind: type, raw: list, where: str) -> NoReturn:
    """Raise the error of the first object of raw, named "{where} {i}" by its position i, that is not a record of
    kind, of its first failing check: an object; every rectangle key, and every cuboid key or none; each coordinate
    and table field; no non-finite value under a kept key; Rect2D; Cuboid3D. It builds no records."""
    known = _KNOWN_KEYS[kind]
    for i, data in enumerate(raw):
        at = f"{where} {i}"
        _require_object(data, at)
        absent = [key for key in _RECT_KEYS + _CUBOID_KEYS if key not in data]
        if absent and (absent[0] in _RECT_KEYS or len(absent) < len(_CUBOID_KEYS)):
            name = "rectangle" if absent[0] in _RECT_KEYS else "cuboid"
            raise ValueError(f"{at}: missing {name} key {absent[0]!r}")
        for key, convert, default, _ in _CHECKS[kind]:
            value = data.get(key, default)
            if value is not default:
                try:
                    convert(value)
                except (TypeError, ValueError, OverflowError):
                    raise _field_error(at, key, convert, value) from None
        _require_finite_extra({key: value for key, value in data.items() if key not in known}, at)
        coords = [_number(data.get(key, 0.0)) for key in _RECT_KEYS + _CUBOID_KEYS]
        try:
            _check_geometry(coords[:4], None if absent else coords[4:])
        except ValueError as exc:
            raise ValueError(f"{at}: {exc}") from None
    # Only a value of a type json does not parse to, such as a numpy float, fails a column check alone.
    raise ValueError(f"{where}: a value is of a type json does not parse to")


def _columns_from_dicts(kind: type, raw: list, where: str) -> _Columns:
    """The columns of the records of kind that the objects of raw hold.

    Objects with the same keys in the same order are read together, each key
    of all of them at once, and each of ``_scan_records``'s checks runs over
    a whole column; if one fails, ``_scan_records`` raises.
    """
    if not set(map(type, raw)) <= {dict}:
        return _scan_records(kind, raw, where)
    known = _KNOWN_KEYS[kind]
    groups: dict[tuple, list[int]] = {}
    for i, shape in enumerate(map(tuple, raw)):
        groups.setdefault(shape, []).append(i)
    # Each known key's values in group order; a group without the key takes its default.
    columns: dict[str, list] = {}
    has_cuboid, extra, done = [], {}, 0
    for shape, members in groups.items():
        start, done = done, done + len(members)
        keys = set(shape)
        cuboid = keys.issuperset(_CUBOID_KEYS)
        if not keys.issuperset(_RECT_KEYS) or (keys.intersection(_CUBOID_KEYS) and not cuboid):
            return _scan_records(kind, raw, where)
        has_cuboid += [cuboid] * len(members)
        records = [raw[i] for i in members]
        for key, values in zip(shape, zip(*map(itemgetter(*shape), records))):
            if key in known:
                column = columns.setdefault(key, [])
                column += [_DEFAULTS[key]] * (start - len(column))
                column += values
        unknown = [key for key in shape if key not in known]
        for i, record in zip(members, records) if unknown else ():
            extra[i] = {key: record[key] for key in unknown}
    for key in known:
        column = columns.setdefault(key, [])
        column += [_DEFAULTS[key]] * (done - len(column))
    try:
        for values in extra.values():
            _require_finite_extra(values, "")
        numbers, table = _plain_arrays(kind, columns)
    except (TypeError, ValueError, OverflowError):
        return _scan_records(kind, raw, where)
    rects, cuboids = numbers[:4].T.copy(), numbers[4:11].T.copy()
    if not _geometry_ok(rects, cuboids):
        return _scan_records(kind, raw, where)
    table.update(
        has_cuboid=np.array(has_cuboid, dtype=bool),
        label=columns["label"],
        truncation=numbers[11],
        alpha=numbers[12],
        dontcare=np.array(columns["dontcare"], dtype=bool),
    )
    if kind is DetectionBox:
        table["score"] = numbers[13]
    if len(groups) > 1:
        # Back from group order to the objects' order.
        order = np.argsort([i for members in groups.values() for i in members], kind="stable")
        rects, cuboids = rects[order], cuboids[order]
        table = {
            key: [value[i] for i in order.tolist()] if key == "label" else value[order] for key, value in table.items()
        }
    return _Columns(kind, rects=rects, cuboids=cuboids, extra=extra, **table)


def _json(value) -> str:
    """value as the writer encodes it: compact, ASCII only; a non-finite float raises ValueError."""
    return json.dumps(value, allow_nan=False, separators=(",", ":"))


def _item(key, value) -> str:
    """The text of one member of a JSON object, "key":value, as ``_json`` writes it inside the object."""
    return _json({key: value})[1:-1]


class _Text(str):
    """JSON text already encoded: the value of a known key among a record's extra keys."""


def _record_keys(columns: _Columns) -> list[tuple[np.ndarray | None, list[tuple]]]:
    """The keys the records of columns may write, in writing order, in groups that share a mask: (written, keys)
    with written None where every record writes them. Each key is (key, form, values): values (one per record)
    go through the %-format form, and values None means the form is the text itself."""
    n = len(columns)
    groups = [(None, [(key, "%r", values) for key, values in zip(_RECT_KEYS, columns.rects.T)])]
    groups.append((columns.has_cuboid, [(key, "%r", values) for key, values in zip(_CUBOID_KEYS, columns.cuboids.T)]))
    for key, _, default, always in _BOX_FIELDS if columns.kind is DetectionBox else _GT_FIELDS:
        if key == "label":
            labels = np.empty(n, dtype=object)
            labels[:] = list(map(json.encoder.encode_basestring_ascii, columns.label))
            groups.append((None, [(key, "%s", labels)]))
        elif key == "dontcare":
            groups.append((columns.dontcare, [(key, "true", None)]))
        elif key in _CONFS[DetectionBox]:
            groups.append((getattr(columns, "has_" + key), [(key, "%r", getattr(columns, key))]))
        elif key == "occlusion" and columns.occlusion.dtype == object:
            # Python integers beyond int64, or the values of records that hold other types.
            texts = np.empty(n, dtype=object)
            texts[:] = [_json(value) for value in columns.occlusion.tolist()]
            groups.append((columns.occlusion != 0, [(key, "%s", texts)]))
        else:
            values = getattr(columns, key)
            groups.append((None if always else values != default, [(key, "%r", values)]))
    return groups


def _require_finite(columns: _Columns, groups: list, where: str) -> None:
    """ValueError naming the first record of columns, "{where} {i}", and its first written number that is NaN
    or infinite: one check over all numbers, then, if it fails, a scan of the records in order."""
    numbers = [columns.rects.ravel(), columns.cuboids.ravel(), columns.truncation, columns.alpha]
    if columns.kind is DetectionBox:
        numbers.append(columns.score)
        for key in _CONFS[DetectionBox]:
            numbers.append(np.where(getattr(columns, "has_" + key), getattr(columns, key), 0.0))
    if np.isfinite(np.concatenate(numbers)).all():
        return
    for i in range(len(columns)):
        for written, keys in groups:
            for key, _, values in keys if written is None or written[i] else ():
                if values is not None and values.dtype == float and not np.isfinite(values[i]):
                    raise ValueError(f"{where} {i}: {key} must be finite, got {values[i].item()!r}")


def _record_texts(columns: _Columns, where: str) -> list[str]:
    """The JSON object of each record of columns: geometry keys, table fields, then extra keys.

    Numbers are written with repr and labels with the JSON string escape.
    A field at its default is omitted unless its table row says to write it
    always, as is a missing cuboid and an absent confidence. Records that
    write the same keys are encoded together, one %-format per record from
    one .tolist() per column. An extra key that repeats a known one takes
    its place.
    """
    n = len(columns)
    groups = _record_keys(columns)
    _require_finite(columns, groups, where)
    for i in sorted(columns.extra):
        _require_finite_extra(columns.extra[i], f"{where} {i}")
    # Drop the keys no record writes; a key every record writes needs no mask.
    kept, varying = [], []
    for written, keys in groups:
        count = n if written is None else int(np.count_nonzero(written))
        if count == n:
            kept.append((None, keys))
        elif count:
            kept.append((written, keys))
            varying.append(written)
    # Sort the records by the keys they write, stably.
    order = None
    if varying:
        shape = sum(written.astype(np.int64) << bit for bit, written in enumerate(varying))
        order = np.argsort(shape, kind="stable")
    starts = [0] if order is None else [0, *(np.flatnonzero(np.diff(shape[order])) + 1).tolist()]
    lists = {
        key: (values if order is None else values[order]).tolist()
        for _, keys in kept
        for key, _, values in keys
        if values is not None
    }
    texts, layouts = [], []
    for lo, hi in zip(starts, [*starts[1:], n]):
        first = lo if order is None else int(order[lo])
        layout = [(key, form) for written, keys in kept if written is None or written[first] for key, form, _ in keys]
        template = "{" + ",".join(f'"{key}":{form}' for key, form in layout) + "}"
        texts += map(template.__mod__, zip(*(lists[key][lo:hi] for key, _ in layout if key in lists)))
        layouts.append(layout)
    rank = None if order is None else np.argsort(order)
    for i, extra in columns.extra.items():
        at = i if rank is None else int(rank[i])
        layout = layouts[bisect.bisect_right(starts, at) - 1]
        items = {key: _Text(form % lists[key][at] if key in lists else form) for key, form in layout}
        items.update(extra)
        texts[at] = "{" + ",".join(
            f'"{key}":{value}' if type(value) is _Text else _item(key, value) for key, value in items.items()
        ) + "}"
    return texts if rank is None else [texts[k] for k in rank.tolist()]


# Where a scene's object holds its boxes or ground truths.
_RECORDS = object()


def _scene_text(scene: Scene) -> str:
    """The JSON object of a scene: id, camera if any, boxes, gts, then its extra keys."""
    out: dict = {"id": scene.scene_id}
    if scene.camera is not None:
        out["camera"] = scene.camera
    out.update(boxes=_RECORDS, gts=_RECORDS)
    out.update(scene.extra)
    items = []
    where = f"scene {scene.scene_id!r}"
    for key, value in out.items():
        if value is _RECORDS:
            texts = _record_texts(scene._columns(key), f"{where} {'box' if key == 'boxes' else 'gt'}")
            items.append(f'"{key}":[' + ",".join(texts) + "]")
        else:
            _require_finite_extra({key: value}, where)
            items.append(_item(key, value))
    return "{" + ",".join(items) + "}"


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
    boxes = _columns_from_dicts(DetectionBox, boxes_raw, f"{where} box")
    gts = _columns_from_dicts(GroundTruth, gts_raw, f"{where} gt")
    return Scene._of_columns(scene_id, boxes, gts, camera, data)


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
        yield scene_from_dict(data, where=f"line {number}")


def read_scenes_jsonl(path: str | os.PathLike) -> list[Scene]:
    return list(iter_scenes_jsonl(path))


def write_scenes_jsonl(path: str | os.PathLike, scenes: Iterable[Scene]) -> None:
    """Write scenes one JSON object per line, a scene at a time, from their columns; NaN and infinities are
    rejected."""
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        for scene in scenes:
            handle.write(_scene_text(scene))
            handle.write("\n")
