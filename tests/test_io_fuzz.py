"""Structured garbage against the JSONL and KITTI readers.

Every input has one of two outcomes. Either reading or writing raises
ValueError, or the records survive a write and a second read unchanged and a
second write reproduces the first byte for byte.
"""

import json
import re

import pytest
from hypothesis import Phase, find, given, settings, strategies as st

from diffnms import format_kitti_label, iter_scenes_jsonl, parse_kitti_label, write_scenes_jsonl
from diffnms.io_jsonl import scene_from_dict

# Number literals Python floats cannot hold. They ride through json.dumps as
# marked strings and are spliced into the line as bare tokens.
RAW_TOKENS = ["1e400", "-1e400", "1e-400", "2E+999", "1" + "0" * 400]
_MARK = "\x00"
_MARKED = re.compile(r'"\\u0000(.*?)\\u0000"')

scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-(10**30), max_value=10**30),
    st.floats(allow_nan=True, allow_infinity=True),
    st.text(max_size=6),
    st.sampled_from(RAW_TOKENS).map(lambda token: f"{_MARK}{token}{_MARK}"),
)
garbage = st.recursive(
    scalars,
    lambda inner: st.one_of(st.lists(inner, max_size=3), st.dictionaries(st.text(max_size=4), inner, max_size=3)),
    max_leaves=6,
)
coords = st.one_of(st.integers(-100, 100), st.floats(-1e3, 1e3))
sizes = st.one_of(st.integers(0, 50), st.floats(0.0, 50.0))
unit = st.floats(0.0, 1.0)

# Plausible values per record field, so that many records get as far as the round trip.
PLAUSIBLE = {
    "score": unit,
    "class_conf": st.one_of(st.none(), unit),
    "pred_conf": st.one_of(st.none(), unit),
    "label": st.text(max_size=6),
    "truncation": coords,
    "occlusion": st.one_of(st.integers(-1, 3), st.sampled_from([-1.0, 0.0, 2.0])),
    "alpha": coords,
    "dontcare": st.booleans(),
}


@st.composite
def records(draw):
    if draw(st.integers(0, 19)) == 0:
        return draw(garbage)
    x1, y1 = draw(coords), draw(coords)
    record = {"x1": x1, "y1": y1, "x2": x1 + draw(sizes), "y2": y1 + draw(sizes)}
    if draw(st.booleans()):
        record.update(cx=draw(coords), cy=draw(coords), cz=draw(coords), w=draw(sizes), h=draw(sizes), l=draw(sizes))
        record["yaw"] = draw(coords)
    for key, plausible in PLAUSIBLE.items():
        if draw(st.booleans()):
            record[key] = draw(plausible)
    record.update(draw(st.dictionaries(st.text(max_size=5), garbage, max_size=1)))
    if draw(st.integers(0, 3)) == 0:
        key = draw(st.sampled_from(sorted(record)))
        if draw(st.booleans()):
            record[key] = draw(garbage)
        else:
            del record[key]
    return record


@st.composite
def scenes(draw):
    scene = {"id": draw(st.text(max_size=6)) if draw(st.integers(0, 9)) else draw(garbage)}
    if draw(st.booleans()):
        scene["camera"] = draw(st.one_of(st.text(max_size=4), garbage))
    for key in ("boxes", "gts"):
        if draw(st.integers(0, 19)) == 0:
            scene[key] = draw(garbage)
        elif draw(st.integers(0, 4)):
            scene[key] = draw(st.lists(records(), max_size=3))
    scene.update(draw(st.dictionaries(st.text(max_size=5), garbage, max_size=1)))
    if draw(st.integers(0, 19)) == 0:
        scene.pop("id", None)
    return scene


@pytest.fixture(scope="module")
def scratch(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


def _round_trips_or_raises(read, scratch):
    """Read, write, read, write: ValueError anywhere in the first two steps, or a fixpoint."""
    first, second = scratch / "first.jsonl", scratch / "second.jsonl"
    try:
        scenes = read()
        write_scenes_jsonl(first, scenes)
    except ValueError:
        return False
    again = list(iter_scenes_jsonl(first))
    assert again == scenes
    write_scenes_jsonl(second, again)
    assert second.read_bytes() == first.read_bytes()
    return True


@settings(max_examples=250)
@given(scene=scenes(), ascii_only=st.booleans(), bad_byte=st.integers(0, 9))
def test_jsonl_readers_round_trip_or_raise(scene, ascii_only, bad_byte, scratch):
    """scene_from_dict on the object, then iter_scenes_jsonl on its line with the raw tokens spliced in."""
    _round_trips_or_raises(lambda: [scene_from_dict(scene)], scratch)
    line = _MARKED.sub(lambda m: m.group(1), json.dumps(scene, ensure_ascii=ascii_only)).encode("utf-8")
    if bad_byte == 0:
        line = line[: len(line) // 2] + b"\xff" + line[len(line) // 2 :]
    path = scratch / "input.jsonl"
    path.write_bytes(line + b"\n")
    _round_trips_or_raises(lambda: list(iter_scenes_jsonl(path)), scratch)


def test_fuzzed_scenes_reach_the_round_trip(scratch):
    """The strategy is not all garbage: some scene with boxes and gts survives."""
    find(
        scenes(),
        lambda s: bool(s.get("boxes")) and bool(s.get("gts"))
        and _round_trips_or_raises(lambda: [scene_from_dict(s)], scratch),
        settings=settings(phases=[Phase.generate], max_examples=300),
    )


kitti_garbage = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True).map(repr),
    st.sampled_from(["nan", "inf", "-inf", "NaN", "Infinity", "1e400", "-1e400", "1e-400", "-0.0", "1_0", "0x1"]),
    st.text(min_size=1, max_size=4).filter(lambda t: t.split() == [t]),
)


@st.composite
def kitti_lines(draw):
    label = draw(st.one_of(st.sampled_from(["Car", "Pedestrian", "DontCare"]), kitti_garbage))
    x1, y1 = draw(coords), draw(coords)
    numbers = [
        draw(unit), draw(st.integers(-1, 3)), draw(coords),
        x1, y1, x1 + draw(sizes), y1 + draw(sizes),
        draw(sizes), draw(sizes), draw(sizes), draw(coords), draw(coords), draw(coords), draw(coords),
    ]
    if draw(st.booleans()):
        numbers.append(draw(unit))
    tokens = [label] + [repr(float(v)) if draw(st.booleans()) else str(v) for v in numbers]
    for _ in range(draw(st.integers(0, 2))):
        tokens[draw(st.integers(1, len(tokens) - 1))] = draw(kitti_garbage)
    if draw(st.integers(0, 4)) == 0:
        tokens[2] = draw(kitti_garbage)  # the occlusion, the one integer field
    if draw(st.integers(0, 9)) == 0:
        del tokens[draw(st.integers(0, len(tokens) - 1))]
    return " ".join(tokens)


@settings(max_examples=250)
@given(line=kitti_lines())
def test_kitti_parser_round_trips_or_raises(line):
    try:
        record = parse_kitti_label(line, 9)
    except ValueError as exc:
        assert str(exc).startswith("line 9: ")
        return
    once = format_kitti_label(record)
    again = parse_kitti_label(once, 9)
    # repr compares NaN fields and the sign of zeros, which == does not.
    assert repr(again) == repr(record)
    assert format_kitti_label(again) == once
