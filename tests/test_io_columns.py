"""The column readers against the record readers they replaced.

For every input, valid or malformed, read_scenes_jsonl, scene_from_dict and
read_kitti_file must give what the per-record readers in tests/oracles.py
give: equal records, columns whose bytes are rect_array/cuboid_array of those
records, or the same exception type and message.
"""

import json
import math
import os
import shutil

import pytest
from hypothesis import given, settings, strategies as st

from diffnms import cuboid_array, read_kitti_dir, read_kitti_file, read_scenes_jsonl, rect_array
from diffnms.io_jsonl import scene_from_dict
from oracles import reference_read_kitti_file, reference_read_scenes_jsonl, reference_scene_from_dict
from test_io_fuzz import _MARKED, kitti_lines, scenes

DATA = os.path.join(os.path.dirname(__file__), "data")

# Values at the edge of each field's checks: signs, zeros, sizes a float or
# int64 cannot hold, integral floats, and the JSON types next to numbers.
EDGE_VALUES = [-1.0, -0.0, 0.0, 0.5, 2, -2, 2.0, 1.5, 1e308, -1e308, math.inf, math.nan, 2**63, 10**400, True, None, "1"]
FIELDS = ["x1", "y1", "x2", "y2", "cx", "cy", "cz", "w", "h", "l", "yaw", "score", "class_conf", "pred_conf",
          "label", "truncation", "occlusion", "alpha", "dontcare"]


@st.composite
def edged_scenes(draw):
    """test_io_fuzz's scenes, with a field of some records set to an edge value."""
    scene = draw(scenes())
    for key in ("boxes", "gts"):
        for record in scene.get(key) if isinstance(scene.get(key), list) else ():
            if isinstance(record, dict) and draw(st.booleans()):
                record[draw(st.sampled_from(FIELDS))] = draw(st.sampled_from(EDGE_VALUES))
    return scene


def _outcome(read):
    """(scenes, None) or (None, (exception type, message))."""
    try:
        return read(), None
    except ValueError as exc:
        return None, (type(exc), str(exc))


def _assert_same_scenes(got, expected):
    """Columns first, while the scenes still hold them, then the records they build."""
    assert len(got) == len(expected)
    for scene, reference in zip(got, expected):
        for name in ("boxes", "gts"):
            columns, records = scene._columns(name), getattr(reference, name)
            assert len(columns) == len(records)
            assert columns.rects.tobytes() == rect_array([r.rect for r in records]).tobytes()
            with_cuboid = [r.cuboid for r in records if r.cuboid is not None]
            assert columns.cuboids[columns.has_cuboid].tobytes() == cuboid_array(with_cuboid).tobytes()
    # repr tells -0.0 from 0.0 and shows NaN raw fields, which == does not.
    assert repr(got) == repr(expected)
    assert got == expected or "nan" in repr(expected)


def _assert_same_outcome(read, reference):
    got, error = _outcome(read)
    expected, expected_error = _outcome(reference)
    assert error == expected_error
    if expected is not None:
        _assert_same_scenes(got, expected)


@settings(max_examples=200)
@given(corpus=st.lists(edged_scenes(), min_size=1, max_size=4), bad_byte=st.integers(0, 9))
def test_jsonl_columns_match_the_record_reader(corpus, bad_byte, tmp_path_factory):
    _assert_same_outcome(
        lambda: [scene_from_dict(scene) for scene in corpus],
        lambda: [reference_scene_from_dict(scene) for scene in corpus],
    )
    lines = [_MARKED.sub(lambda m: m.group(1), json.dumps(scene)).encode("utf-8") for scene in corpus]
    if bad_byte == 0:
        lines[-1] = lines[-1][:3] + b"\xff" + lines[-1][3:]
    path = tmp_path_factory.mktemp("jsonl") / "corpus.jsonl"
    path.write_bytes(b"\n".join(lines) + b"\n")
    _assert_same_outcome(lambda: read_scenes_jsonl(path), lambda: reference_read_scenes_jsonl(path))


@settings(max_examples=200)
@given(
    frame=st.lists(st.one_of(kitti_lines(), st.just("")), max_size=6),
    labels=st.one_of(st.none(), st.lists(kitti_lines(), max_size=4)),
    bad_byte=st.integers(0, 9),
)
def test_kitti_columns_match_the_record_reader(frame, labels, bad_byte, tmp_path_factory):
    root = tmp_path_factory.mktemp("kitti")
    (root / "labels").mkdir()
    data = "\n".join(frame).encode("ascii", "replace") + b"\n"
    if bad_byte == 0:
        data = b"\xff" + data
    (root / "000001.txt").write_bytes(data)
    if labels is not None:
        (root / "labels" / "000001.txt").write_text("\n".join(labels) + "\n", encoding="ascii", errors="replace")
    for labels_dir in (None, root / "labels"):
        _assert_same_outcome(
            lambda: [read_kitti_file(root / "000001.txt", labels_dir)],
            lambda: [reference_read_kitti_file(root / "000001.txt", labels_dir)],
        )


def _golden_scene() -> dict:
    with open(os.path.join(DATA, "golden_scenes.jsonl"), encoding="utf-8") as handle:
        scene = json.loads(handle.readline())
    scene["gts"][0].update(truncation=0.25, occlusion=1, alpha=-1.5)
    scene["boxes"][2].update(class_conf=0.5, pred_conf=0.25)
    del scene["boxes"][3]["cx"], scene["boxes"][3]["cy"], scene["boxes"][3]["cz"]
    del scene["boxes"][3]["w"], scene["boxes"][3]["h"], scene["boxes"][3]["l"], scene["boxes"][3]["yaw"]
    return scene


@pytest.mark.parametrize("kind, index", [("boxes", 1), ("boxes", 2), ("boxes", 3), ("gts", 0)])
@pytest.mark.parametrize("field", FIELDS)
def test_each_edge_value_of_each_field_matches_the_record_reader(kind, index, field):
    """Every edge value in every field of one record of an otherwise valid scene."""
    for value in EDGE_VALUES:
        scene = _golden_scene()
        scene[kind][index][field] = value
        _assert_same_outcome(lambda: [scene_from_dict(scene)], lambda: [reference_scene_from_dict(scene)])


KITTI_EDGES = [
    "-1", "-0.0", "0", "1.5", "2", "nan", "inf", "-inf", "1e400", "1.7e308", "-1.7e308", "9.3e18", "1_0", "0x1"
]


@pytest.mark.parametrize("line", [0, 1, 2])
@pytest.mark.parametrize("token", range(1, 16))
def test_each_edge_token_of_each_kitti_field_matches_the_record_reader(tmp_path, line, token):
    """Every edge token in every numeric field of a ground-truth, DontCare or scored line."""
    with open(os.path.join(DATA, "golden_labels.txt"), encoding="ascii") as handle:
        lines = [handle.readline().split() for _ in range(2)]
    lines.append(lines[0] + ["0.75"])
    path = tmp_path / "000001.txt"
    for edge in KITTI_EDGES:
        tokens = [list(t) for t in lines]
        if token < len(tokens[line]):
            tokens[line][token] = edge
        path.write_text("\n".join(" ".join(t) for t in tokens) + "\n", encoding="ascii")
        _assert_same_outcome(lambda: [read_kitti_file(path)], lambda: [reference_read_kitti_file(path)])


@pytest.mark.parametrize("name", sorted(n for n in os.listdir(DATA) if n.endswith(".jsonl")))
def test_every_golden_corpus_is_read_into_columns(name):
    path = os.path.join(DATA, name)
    got = read_scenes_jsonl(path)
    assert all(scene._held_records(kind) is None for scene in got for kind in ("boxes", "gts"))
    _assert_same_scenes(got, reference_read_scenes_jsonl(path))


def test_golden_kitti_labels_are_read_into_columns(tmp_path):
    shutil.copy(os.path.join(DATA, "golden_labels.txt"), tmp_path / "000001.txt")
    (got,) = read_kitti_dir(tmp_path)
    assert got._held_records("gts") is None and len(got._columns("gts")) > 0
    _assert_same_scenes([got], [reference_read_kitti_file(tmp_path / "000001.txt")])


def test_a_kitti_center_that_overflows_is_the_record_reader_s_error(tmp_path):
    """y - h / 2 overflows to -inf without a warning, and the cuboid is rejected as the record reader rejects it."""
    path = tmp_path / "000001.txt"
    path.write_text("Car 0 0 0 1 2 3 4 1.7e308 1 1 0 -1.7e308 5 0\n", encoding="ascii")
    _assert_same_outcome(lambda: [read_kitti_file(path)], lambda: [reference_read_kitti_file(path)])
    assert "must be finite" in _outcome(lambda: read_kitti_file(path))[1][1]


# One fault of each check of a JSONL record, in the order the checks run.
RECORD_FAULTS = {
    "not an object": lambda record: 7,
    "missing rectangle key": lambda record: {k: v for k, v in record.items() if k != "y2"},
    "partial cuboid": lambda record: {k: v for k, v in record.items() if k != "cz"},
    "coordinate type": lambda record: {**record, "cx": "1"},
    "field type": lambda record: {**record, "label": None},
    "occlusion": lambda record: {**record, "occlusion": 1.5},
    "extra non-finite": lambda record: {**record, "note": [1.0, math.inf]},
    "rectangle": lambda record: {**record, "x1": record["x2"] + 1.0},
    "cuboid": lambda record: {**record, "h": -1.0},
}


# Box 4 keys its fields as box 0 does, so it is read with box 0, before a box 1 whose fault changes its keys.
@pytest.mark.parametrize(
    "first, second", [(("boxes", 1), ("boxes", 4)), (("boxes", 2), ("gts", 0)), (("boxes", 1), ("boxes", 1))]
)
@pytest.mark.parametrize("fault", RECORD_FAULTS)
@pytest.mark.parametrize("other", RECORD_FAULTS)
def test_the_first_of_two_faults_raises(first, second, fault, other):
    """Faults of any two checks, in two records or in one: the record read first raises, and within a record
    the check that runs first."""
    scene = _golden_scene()
    for (kind, index), name in ((first, fault), (second, other)):
        record = scene[kind][index]
        scene[kind][index] = RECORD_FAULTS[name](record) if isinstance(record, dict) else record
    _assert_same_outcome(lambda: [scene_from_dict(scene)], lambda: [reference_scene_from_dict(scene)])
    kind, index = first
    assert f"{dict(boxes='box', gts='gt')[kind]} {index}: " in _outcome(lambda: [scene_from_dict(scene)])[1][1]


# KITTI lines that fail a check stopping the read at their line, and lines that fail a value check.
STRUCTURAL_FAULTS = {
    "field count": lambda tokens: tokens[:-1],
    "non-numeric": lambda tokens: [*tokens[:5], "x", *tokens[6:]],
    "undecodable": lambda tokens: ["C\xe4r", *tokens[1:]],
}
VALUE_FAULTS = {
    "occlusion": lambda tokens: [*tokens[:2], "1.5", *tokens[3:]],
    "truncation": lambda tokens: [tokens[0], "nan", *tokens[2:]],
    "alpha": lambda tokens: [*tokens[:3], "-inf", *tokens[4:]],
    "score": lambda tokens: [*tokens[:15], "nan"],
    "rectangle": lambda tokens: [*tokens[:4], "9999", *tokens[5:]],
    "cuboid": lambda tokens: [*tokens[:8], "-1", *tokens[9:]],
}


def _write_label_lines(path, lines) -> None:
    path.write_bytes(b"".join(" ".join(tokens).encode("latin-1") + b"\n" for tokens in lines))


@pytest.mark.parametrize(
    "structural, structural_first, across",
    [(name, first, across) for name in STRUCTURAL_FAULTS for first in (True, False) for across in (False, True)]
    # A scored line is a fault only in the labels file, which is read after the frame file.
    + [("scored label", False, True)],
)
@pytest.mark.parametrize("value", VALUE_FAULTS)
def test_the_first_of_a_structural_and_a_value_fault_raises(tmp_path, structural, value, structural_first, across):
    """A line the read stops at and a line a value check rejects, in either order, both in the frame file or one in
    each of the frame and labels files: the fault on the frame's first line raises."""
    with open(os.path.join(DATA, "golden_labels.txt"), encoding="ascii") as handle:
        frame = [line.split() for line in handle.read().splitlines()[:4]]
    labels = [list(tokens) for tokens in frame]
    break_structure = STRUCTURAL_FAULTS.get(structural, lambda tokens: [*tokens, "0.5"])
    first, second = (frame, 0), (labels, 1) if across else (frame, 3)
    (s_lines, s_at), (v_lines, v_at) = (first, second) if structural_first else (second, first)
    s_lines[s_at] = break_structure(s_lines[s_at])
    v_lines[v_at] = VALUE_FAULTS[value](v_lines[v_at])
    (tmp_path / "labels").mkdir()
    _write_label_lines(tmp_path / "000001.txt", frame)
    _write_label_lines(tmp_path / "labels" / "000001.txt", labels)
    labels_dir = tmp_path / "labels" if across else None
    read = lambda: [read_kitti_file(tmp_path / "000001.txt", labels_dir)]
    _assert_same_outcome(read, lambda: [reference_read_kitti_file(tmp_path / "000001.txt", labels_dir)])
    assert f"{tmp_path / '000001.txt'}: line 1: " in _outcome(read)[1][1]


@pytest.mark.parametrize("fault", VALUE_FAULTS)
@pytest.mark.parametrize("other", VALUE_FAULTS)
@pytest.mark.parametrize("second", [0, 3])
def test_the_first_of_two_value_faults_raises(tmp_path, fault, other, second):
    """Two value faults on one line, or on the first and the fourth: the first line raises, and within a line the
    check that runs first."""
    with open(os.path.join(DATA, "golden_labels.txt"), encoding="ascii") as handle:
        frame = [line.split() for line in handle.read().splitlines()[:4]]
    frame[0] = VALUE_FAULTS[fault](frame[0])
    frame[second] = VALUE_FAULTS[other](frame[second])
    _write_label_lines(tmp_path / "000001.txt", frame)
    read = lambda: [read_kitti_file(tmp_path / "000001.txt")]
    _assert_same_outcome(read, lambda: [reference_read_kitti_file(tmp_path / "000001.txt")])
    assert _outcome(read)[1][1].startswith(f"{tmp_path / '000001.txt'}: line 1: ")
