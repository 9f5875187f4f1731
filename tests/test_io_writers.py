"""The column writers against the record writers they replaced.

write_scenes_jsonl, write_kitti_file and format_kitti_label encode a scene's
columns; the record writers in tests/oracles.py encode one record at a time
with json.dumps or one label line per record. For every scene, read from
JSON or built from records, both must write the same bytes, or both raise:
the same error for KITTI, a ValueError for a JSONL value that is NaN or
infinite.
"""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from diffnms import (
    Cuboid3D,
    DetectionBox,
    GroundTruth,
    Rect2D,
    Scene,
    format_kitti_label,
    parse_kitti_label,
    read_kitti_file,
    write_kitti_file,
    write_scenes_jsonl,
)
from diffnms.io_jsonl import scene_from_dict
from oracles import reference_format_kitti_label, reference_scene_from_dict, reference_scene_line
from test_io_columns import edged_scenes
from test_io_fuzz import kitti_lines

coords = st.one_of(st.floats(-1e6, 1e6), st.sampled_from([0.0, -0.0, 5e-324, 1e-300]))
sizes = st.one_of(st.floats(0.0, 1e3), st.sampled_from([0.0, -0.0, 5e-324]))
# Mostly finite; NaN and the infinities make both writers raise.
values = st.one_of(coords, coords, coords, st.sampled_from([math.nan, math.inf, -math.inf]))
labels = st.one_of(st.sampled_from(["Car", "DontCare", "Pedestrian"]), st.text(max_size=6))
occlusions = st.one_of(st.integers(-1, 3), st.just(0), st.sampled_from([2**63, -(2**70), 10**30]))
json_values = st.recursive(
    st.one_of(st.none(), st.booleans(), st.integers(-(2**70), 2**70), st.floats(), st.text(max_size=4)),
    lambda inner: st.one_of(st.lists(inner, max_size=3), st.dictionaries(st.text(max_size=4), inner, max_size=3)),
    max_leaves=6,
)
# Extra keys, some of which repeat a known key of a record or of a scene.
extras = st.dictionaries(
    st.one_of(st.text(max_size=5), st.sampled_from(["score", "x1", "label", "truncation", "cz", "dontcare"])),
    json_values,
    max_size=3,
)
scene_extras = st.dictionaries(
    st.one_of(st.text(max_size=5), st.sampled_from(["id", "camera", "boxes", "gts"])), json_values, max_size=2
)


@st.composite
def records(draw, kind):
    x1, y1 = draw(coords), draw(coords)
    rect = Rect2D(x1, y1, x1 + draw(sizes), y1 + draw(sizes))
    cuboid = None
    if draw(st.integers(0, 3)):
        cuboid = Cuboid3D(draw(coords), draw(coords), draw(coords), draw(sizes), draw(sizes), draw(sizes), draw(coords))
    fields = dict(
        rect=rect,
        cuboid=cuboid,
        label=draw(labels),
        truncation=draw(st.one_of(st.just(0.0), values)),
        occlusion=draw(occlusions),
        alpha=draw(st.one_of(st.just(0.0), values)),
        dontcare=draw(st.booleans()),
        extra=draw(st.one_of(st.just({}), extras)),
    )
    if kind is DetectionBox:
        confs = st.one_of(st.none(), st.none(), values)
        fields.update(score=draw(values), class_conf=draw(confs), pred_conf=draw(confs))
    return kind(**fields)


@st.composite
def record_scenes(draw):
    return Scene(
        scene_id=draw(st.text(max_size=6)),
        boxes=draw(st.lists(records(DetectionBox), max_size=5)),
        gts=draw(st.lists(records(GroundTruth), max_size=3)),
        camera=draw(st.one_of(st.none(), st.text(max_size=4))),
        extra=draw(st.one_of(st.just({}), scene_extras)),
    )


def _written(write, path) -> tuple[str | None, type | None]:
    """(text, None) of what write(path) wrote, or (None, the type of the error it raised)."""
    try:
        write(path)
    except (ValueError, TypeError) as exc:
        return None, type(exc)
    return path.read_text(encoding="utf-8"), None


def _reference_lines(scenes) -> tuple[str | None, type | None]:
    try:
        return "".join(reference_scene_line(scene) + "\n" for scene in scenes), None
    except (ValueError, TypeError) as exc:
        return None, type(exc)


def _assert_jsonl_writers_agree(scenes, path) -> None:
    got = _written(lambda p: write_scenes_jsonl(p, scenes), path)
    assert got == _reference_lines(scenes)


@settings(max_examples=200, suppress_health_check=[HealthCheck.too_slow])
@given(scene=edged_scenes())
def test_jsonl_writer_matches_the_record_writer_on_read_scenes(scene, tmp_path_factory):
    """Scenes read from the column-reader corpora: their columns, and the records the record reader builds."""
    try:
        columns, records = scene_from_dict(scene), reference_scene_from_dict(scene)
    except ValueError:
        return
    path = tmp_path_factory.mktemp("jsonl") / "out.jsonl"
    got = _written(lambda p: write_scenes_jsonl(p, [columns]), path)
    # The column writer builds no records.
    assert columns._held_records("boxes") is None and columns._held_records("gts") is None
    assert got == _reference_lines([records])
    _assert_jsonl_writers_agree([records], path)


@settings(max_examples=300, suppress_health_check=[HealthCheck.too_slow])
@given(scenes=st.lists(record_scenes(), min_size=1, max_size=3))
def test_jsonl_writer_matches_the_record_writer_on_record_scenes(scenes, tmp_path_factory):
    _assert_jsonl_writers_agree(scenes, tmp_path_factory.mktemp("jsonl") / "out.jsonl")


def test_an_extra_key_that_repeats_a_known_key_takes_its_place(tmp_path):
    box = DetectionBox(Rect2D(0.0, 0.0, 1.0, 1.0), score=0.5, extra={"note": 1, "score": 0.75, "alpha": 2.0})
    scene = Scene("s", boxes=[box], extra={"camera": "front", "boxes": []})
    write_scenes_jsonl(tmp_path / "out.jsonl", [scene])
    line = (tmp_path / "out.jsonl").read_text(encoding="utf-8")
    assert line == '{"id":"s","boxes":[],"gts":[],"camera":"front"}\n'
    scene.extra = {}
    write_scenes_jsonl(tmp_path / "out.jsonl", [scene])
    line = (tmp_path / "out.jsonl").read_text(encoding="utf-8")
    assert line == (
        '{"id":"s","boxes":[{"x1":0.0,"y1":0.0,"x2":1.0,"y2":1.0,"score":0.75,"label":"Car",'
        '"note":1,"alpha":2.0}],"gts":[]}\n'
    )
    assert line == reference_scene_line(scene) + "\n"


def _format_outcome(format_label, record) -> tuple[str | None, tuple | None]:
    try:
        return format_label(record), None
    except (ValueError, TypeError) as exc:
        return None, (type(exc), str(exc))


def _label_records(line: str) -> list:
    """The record of a parsed label line, as read and without its raw fields, or none for a line that fails."""
    try:
        record = parse_kitti_label(line, 1)
    except ValueError:
        return []
    return [record, dataclasses.replace(record, raw_fields=None), dataclasses.replace(record, raw_fields=(1.0,) * 13)]


def _writable(record) -> bool:
    """Whether the record writer writes the record, and as ASCII, as a label file must be."""
    line, _ = _format_outcome(reference_format_kitti_label, record)
    return line is not None and line.isascii()


@settings(max_examples=300, suppress_health_check=[HealthCheck.too_slow])
@given(
    lines=st.lists(kitti_lines(), max_size=6),
    built=st.lists(st.one_of(records(DetectionBox), records(GroundTruth)), max_size=4),
)
def test_kitti_writer_matches_the_record_writer(lines, built, tmp_path_factory):
    """Frames with and without raw fields, line by line and as one file: the same lines or the same error."""
    parsed = [record for line in lines for record in _label_records(line)]
    for record in parsed + built:
        assert _format_outcome(format_kitti_label, record) == _format_outcome(reference_format_kitti_label, record)
    kept = [r for r in parsed + built if _writable(r)]
    scene = Scene(
        "000001",
        boxes=[r for r in kept if isinstance(r, DetectionBox)],
        gts=[r for r in kept if not isinstance(r, DetectionBox)],
    )
    path = tmp_path_factory.mktemp("kitti") / "000001.txt"
    write_kitti_file(path, scene)
    expected = [reference_format_kitti_label(r) + "\n" for r in [*scene.gts, *scene.boxes]]
    assert path.read_text(encoding="ascii") == "".join(expected)


def test_kitti_writer_raises_the_first_record_s_error(tmp_path):
    """Ground truths first, then detections; a record's raw fields are checked before its cuboid."""
    short = GroundTruth(Rect2D(0.0, 0.0, 1.0, 1.0), raw_fields=(0.0,) * 3)
    bare = DetectionBox(Rect2D(0.0, 0.0, 1.0, 1.0))
    for scene, message in [
        (Scene("a", boxes=[bare], gts=[short]), "raw_fields must hold 14 numbers, got 3"),
        (Scene("b", boxes=[bare]), "cannot serialize a record with neither raw fields nor a cuboid"),
    ]:
        got = _format_outcome(lambda s: write_kitti_file(tmp_path / "out.txt", s), scene)
        assert got == (None, (ValueError, message))


def _box(score=0.5, **fields) -> DetectionBox:
    return DetectionBox(Rect2D(0.0, 0.0, 1.0, 1.0), Cuboid3D(0.0, 0.0, 5.0, 1.0, 1.0, 1.0, 0.0), score, **fields)


@settings(max_examples=300, suppress_health_check=[HealthCheck.too_slow])
@given(
    lines=st.lists(kitti_lines(), max_size=3),
    built=st.lists(st.one_of(records(DetectionBox), records(GroundTruth)), max_size=4),
)
def test_every_written_kitti_line_reads_back_to_what_was_written(lines, built, tmp_path_factory):
    """format_kitti_label writes a line that parse_kitti_label reads back to the label and numbers written, or
    raises; write_kitti_file writes a file that read_kitti_file reads back, or raises before it opens the file."""
    kept = [record for line in lines for record in _label_records(line)] + built
    for record in kept:
        try:
            line = format_kitti_label(record)
        except ValueError:
            continue
        back = parse_kitti_label(line, 1)
        numbers = [*back.raw_fields, *([back.score] if isinstance(back, DetectionBox) else [])]
        assert [back.label, *map(repr, numbers)] == line.split(" ")
        assert isinstance(back, DetectionBox) == isinstance(record, DetectionBox)
    scene = Scene(
        "000001",
        boxes=[r for r in kept if isinstance(r, DetectionBox)],
        gts=[r for r in kept if not isinstance(r, DetectionBox)],
    )
    path = tmp_path_factory.mktemp("kitti") / "000001.txt"
    try:
        write_kitti_file(path, scene)
    except ValueError:
        assert not path.exists()
        return
    again = read_kitti_file(path)
    assert path.read_text(encoding="ascii") == "".join(format_kitti_label(r) + "\n" for r in [*again.gts, *again.boxes])


@pytest.mark.parametrize(
    "record, message",
    [
        (_box(score=math.nan, truncation=math.inf), "truncation must be finite, got inf"),
        (_box(score=math.nan), "score must be finite, got nan"),
        (_box(occlusion=1.5), "occlusion must be an integer, got 1.5"),
        (_box(label="Big Car"), "label must be one token without whitespace, got 'Big Car'"),
        (_box(label=""), "label must be one token without whitespace, got ''"),
        (
            GroundTruth(Rect2D(0.0, 0.0, 1.0, 1.0), raw_fields=(0.0, 0.0, 0.0, 2.0, 0.0, 1.0, 1.0, *[0.0] * 7)),
            "Rect2D corners must satisfy x1 <= x2 and y1 <= y2, got (2.0, 0.0, 1.0, 1.0)",
        ),
    ],
    ids=["truncation-before-score", "score", "occlusion", "spaced-label", "empty-label", "raw-rectangle"],
)
def test_the_kitti_writer_rejects_a_line_its_reader_would(tmp_path, record, message):
    """The reader's error, unprefixed, as the record writer gives it; a label file is not opened."""
    expected = (None, (ValueError, message))
    assert _format_outcome(format_kitti_label, record) == expected
    assert _format_outcome(reference_format_kitti_label, record) == expected
    detection = isinstance(record, DetectionBox)
    scene = Scene("a", boxes=[record] if detection else [], gts=[] if detection else [record])
    got = _format_outcome(lambda s: write_kitti_file(tmp_path / "out.txt", s), scene)
    assert got == (None, (ValueError, message.replace("one token", "one ASCII token")))
    assert not (tmp_path / "out.txt").exists()


def test_a_label_file_holds_only_ascii_labels(tmp_path):
    """A line may carry any one-token label, but a label file is ASCII: the error comes before the file opens."""
    assert format_kitti_label(_box(label="Caf\u00e9")).startswith("Caf\u00e9 0.0 0.0 0.0 ")
    scene = Scene("a", boxes=[_box(), _box(label="Caf\u00e9")])
    got = _format_outcome(lambda s: write_kitti_file(tmp_path / "out.txt", s), scene)
    assert got == (None, (ValueError, "label must be one ASCII token without whitespace, got 'Caf\u00e9'"))
    assert not (tmp_path / "out.txt").exists()


@pytest.mark.parametrize(
    "scene, message",
    [
        (Scene("a", boxes=[_box(extra={"note": math.inf})]), "scene 'a' box 0: note must be finite, got inf"),
        (
            Scene("a", boxes=[_box(), _box(extra={"note": [1, {"deep": [math.nan]}]})]),
            "scene 'a' box 1: note must be finite, got nan",
        ),
        (
            Scene("a", gts=[GroundTruth(Rect2D(0.0, 0.0, 1.0, 1.0), extra={"tags": {"w": [2.0, -math.inf]}})]),
            "scene 'a' gt 0: tags must be finite, got -inf",
        ),
        (
            Scene("a", gts=[GroundTruth(Rect2D(0.0, 0.0, 1.0, 1.0), extra={"tags": (1.0, math.nan)})]),
            "scene 'a' gt 0: tags must be finite, got nan",
        ),
        (
            Scene("a", boxes=[_box(extra={"note": np.float64(-math.inf)})]),
            "scene 'a' box 0: note must be finite, got -inf",
        ),
        (Scene("a", extra={"note": {"x": [0.5, math.inf]}}), "scene 'a': note must be finite, got inf"),
        (Scene("a", camera=math.nan), "scene 'a': camera must be finite, got nan"),
        # A record's known fields are checked before any record's kept keys.
        (
            Scene("a", boxes=[_box(extra={"note": math.inf}), _box(score=math.inf)]),
            "scene 'a' box 1: score must be finite, got inf",
        ),
    ],
    ids=["box", "nested-box", "nested-gt", "tuple", "numpy-float", "scene", "camera", "known-field-first"],
)
def test_a_non_finite_kept_value_names_its_scene_record_and_key(tmp_path, scene, message):
    """NaN and infinities under kept keys, nested or not, raise the reader's error for them, not json's."""
    got = _format_outcome(lambda s: write_scenes_jsonl(tmp_path / "out.jsonl", [s]), scene)
    assert got == (None, (ValueError, message))
    assert _reference_lines([scene])[1] is ValueError


def test_a_non_finite_kept_value_of_a_read_scene_names_its_record(tmp_path):
    box = {"x1": 0.0, "y1": 0.0, "x2": 1.0, "y2": 1.0, "score": 0.5}
    scene = scene_from_dict({"id": "a", "boxes": [{**box, "note": [1.0]}, {**box, "note": [1.0]}]})
    scene._columns("boxes").extra[1]["note"][0] = -math.inf
    got = _format_outcome(lambda s: write_scenes_jsonl(tmp_path / "out.jsonl", [s]), scene)
    assert got == (None, (ValueError, "scene 'a' box 1: note must be finite, got -inf"))
