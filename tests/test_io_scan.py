"""The readers' column checks and the in-order scan they fall back on.

read_scenes_jsonl and read_kitti_file run each check over whole columns. Only
when one fails do they scan the raw records (JSONL objects, or parsed label
lines) in reading order for the first record's first failing check. For each
kind of column-check failure the scan must raise exactly the error of the
record readers in tests/oracles.py, and valid input must never reach a scan,
on read or on write.
"""

import json
import math
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from diffnms import Scene, io_jsonl, io_kitti, read_kitti_dir, read_kitti_file, read_scenes_jsonl, write_kitti_dir
from diffnms.io_jsonl import scene_from_dict
from oracles import reference_read_kitti_file, reference_scene_from_dict

DATA = Path(__file__).parent / "data"
GOLDEN = DATA / "golden_scenes.jsonl"


@pytest.fixture
def scans(monkeypatch) -> Counter:
    """Count the calls of the JSONL scan and of the line check that the KITTI reader's and writer's scans run,
    from here on."""
    calls = Counter()
    for module, name in ((io_jsonl, "_scan_records"), (io_kitti, "_check_row")):

        def counting(*args, _scan=getattr(module, name), _name=name):
            calls[_name] += 1
            return _scan(*args)

        monkeypatch.setattr(module, name, counting)
    return calls


def _error(read) -> tuple[type, str]:
    with pytest.raises(ValueError) as info:
        read()
    return type(info.value), str(info.value)


# One fault of each kind of JSONL column check, put on box 2 of the golden corpus's first scene.
JSONL_FAULTS = {
    "non-object": lambda record: [record],
    "missing rectangle key": lambda record: {k: v for k, v in record.items() if k != "y1"},
    "partial cuboid": lambda record: {k: v for k, v in record.items() if k != "cz"},
    "bad field": lambda record: {**record, "score": "0.5"},
    "non-finite kept value": lambda record: {**record, "note": {"trail": [1.0, -math.inf]}},
    "Rect2D": lambda record: {**record, "x1": record["x2"] + 1.0},
    "Cuboid3D": lambda record: {**record, "l": -1.0},
}


@pytest.mark.parametrize("fault", JSONL_FAULTS)
def test_a_failed_jsonl_column_check_scans_for_the_record_reader_s_error(scans, fault):
    scene = json.loads(GOLDEN.read_text(encoding="utf-8").splitlines()[0])
    scene["boxes"][2] = JSONL_FAULTS[fault](scene["boxes"][2])
    got = _error(lambda: scene_from_dict(scene))
    assert got == _error(lambda: reference_scene_from_dict(scene))
    assert got[1].startswith("scene: scene 'synth-100-0000' box 2: ")
    assert scans == Counter({"_scan_records": 1})


# One fault of each kind of KITTI column check, put on the fourth line, which is scored.
KITTI_FAULTS = {
    "occlusion": (2, "1.5"),
    "truncation": (1, "nan"),
    "alpha": (3, "-inf"),
    "score": (15, "nan"),
    "Rect2D": (4, "9999"),
    "Cuboid3D": (8, "-1"),
}


@pytest.mark.parametrize("fault", KITTI_FAULTS)
def test_a_failed_kitti_column_check_scans_for_the_record_reader_s_error(scans, tmp_path, fault):
    lines = [line.split() for line in (DATA / "golden_labels.txt").read_text(encoding="ascii").splitlines()[:4]]
    lines[3].append("0.75")
    token, value = KITTI_FAULTS[fault]
    lines[3][token] = value
    path = tmp_path / "000001.txt"
    path.write_text("".join(" ".join(tokens) + "\n" for tokens in lines), encoding="ascii")
    got = _error(lambda: read_kitti_file(path))
    assert got == _error(lambda: reference_read_kitti_file(path))
    assert got[1].startswith(f"{path}: line 4: ")
    # The scan checks the three lines before the faulty one, then raises.
    assert scans == Counter({"_check_row": 4})


def test_valid_input_never_reaches_a_scan(scans, tmp_path):
    """The golden corpus read from JSONL, written as KITTI frames and labels, and read back."""
    scenes = read_scenes_jsonl(GOLDEN)
    write_kitti_dir(tmp_path / "frames", [Scene(s.scene_id, boxes=s.boxes) for s in scenes])
    write_kitti_dir(tmp_path / "labels", [Scene(s.scene_id, gts=s.gts) for s in scenes])
    frames = read_kitti_dir(tmp_path / "frames", labels_dir=tmp_path / "labels")
    assert sum(len(s._columns("boxes")) + len(s._columns("gts")) for s in frames) == sum(
        len(s.boxes) + len(s.gts) for s in scenes
    )
    read_kitti_file(DATA / "golden_labels.txt")
    assert scans == Counter()


class _Level(int):
    """An int subclass: a Python value json writes as an integer but never parses to."""


@pytest.mark.parametrize(
    "field, value", [("score", np.float64(0.5)), ("occlusion", _Level(1))], ids=["numpy-float", "int-subclass"]
)
def test_a_value_of_a_type_json_does_not_parse_to_fails_only_the_column_check(field, value):
    """A value every record check accepts but whose type no JSON parse gives fails the column check alone, and the
    scan then names the record kind, not a record."""
    box = {"x1": 0.0, "y1": 0.0, "x2": 1.0, "y2": 1.0, "score": 0.5, field: value}
    assert _error(lambda: scene_from_dict({"id": "a", "boxes": [box]})) == (
        ValueError,
        "scene: scene 'a' box: a value is of a type json does not parse to",
    )
