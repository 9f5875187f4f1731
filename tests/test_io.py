import dataclasses
import json
import math
import os
from pathlib import Path

import pytest

from diffnms import (
    Cuboid3D,
    DetectionBox,
    GroundTruth,
    Rect2D,
    Scene,
    format_kitti_label,
    iter_scenes_jsonl,
    parse_kitti_label,
    read_kitti_dir,
    read_kitti_file,
    read_scenes_jsonl,
    write_kitti_dir,
    write_kitti_file,
    write_scenes_jsonl,
)
from diffnms.io_jsonl import scene_from_dict

DATA = os.path.join(os.path.dirname(__file__), "data")
GOLDEN_KITTI = os.path.join(DATA, "golden_labels.txt")
GOLDEN_JSONL = os.path.join(DATA, "golden_scenes.jsonl")

SAMPLE_GT = "Car 0.00 0 -1.58 587.01 173.33 614.12 200.12 1.65 1.67 3.64 -0.65 1.71 46.70 -1.59"
SAMPLE_DET = SAMPLE_GT + " 0.87"
SAMPLE_DONTCARE = "DontCare -1 -1 -10 503.89 169.71 590.61 190.13 -1 -1 -1 -1000 -1000 -1000 -10"


class TestParseKittiLabel:
    def test_ground_truth_fields(self):
        gt = parse_kitti_label(SAMPLE_GT, 1)
        assert isinstance(gt, GroundTruth)
        assert gt.label == "Car"
        assert gt.truncation == 0.0
        assert gt.occlusion == 0
        assert gt.alpha == -1.58
        assert gt.rect == Rect2D(x1=587.01, y1=173.33, x2=614.12, y2=200.12)
        assert not gt.dontcare

    def test_camera_y_becomes_vertical_center(self):
        gt = parse_kitti_label(SAMPLE_GT, 1)
        # KITTI stores the bottom-face center; cy = Y - h/2
        assert gt.cuboid == Cuboid3D(cx=-0.65, cy=1.71 - 1.65 / 2, cz=46.7, w=1.67, h=1.65, l=3.64, yaw=-1.59)

    def test_detection_line_gets_score(self):
        det = parse_kitti_label(SAMPLE_DET, 1)
        assert isinstance(det, DetectionBox)
        assert det.score == 0.87
        assert det.cuboid is not None

    def test_dontcare_has_no_cuboid(self):
        gt = parse_kitti_label(SAMPLE_DONTCARE, 1)
        assert gt.dontcare
        assert gt.cuboid is None
        assert gt.rect.x1 == 503.89

    def test_bad_field_count_reports_line_number(self):
        with pytest.raises(ValueError, match="line 7:"):
            parse_kitti_label("Car 1 2 3", 7)

    def test_non_numeric_field_reports_line_number(self):
        bad = SAMPLE_GT.replace("587.01", "oops")
        with pytest.raises(ValueError, match="line 3:"):
            parse_kitti_label(bad, 3)


class TestFormatKittiLabel:
    def test_raw_fields_round_trip_exactly(self):
        for line in (SAMPLE_GT, SAMPLE_DET, SAMPLE_DONTCARE):
            once = format_kitti_label(parse_kitti_label(line, 1))
            twice = format_kitti_label(parse_kitti_label(once, 1))
            assert once == twice

    def test_values_survive_round_trip(self):
        gt = parse_kitti_label(SAMPLE_GT, 1)
        again = parse_kitti_label(format_kitti_label(gt), 1)
        assert again == gt

    def test_recomputes_camera_y_without_raw_fields(self):
        gt = GroundTruth(
            rect=Rect2D(x1=10.0, y1=20.0, x2=60.0, y2=80.0),
            cuboid=Cuboid3D(cx=1.0, cy=0.75, cz=30.0, w=1.5, h=1.5, l=4.0, yaw=0.25),
            alpha=-0.5,
        )
        fields = format_kitti_label(gt).split()
        assert fields[0] == "Car"
        assert float(fields[12]) == 0.75 + 0.75  # bottom-face center restored
        assert parse_kitti_label(" ".join(fields), 1) == parse_kitti_label(format_kitti_label(gt), 1)

    def test_detection_without_raw_fields_appends_score(self):
        det = DetectionBox(
            rect=Rect2D(x1=0.0, y1=0.0, x2=10.0, y2=10.0),
            cuboid=Cuboid3D(cx=0.0, cy=0.9, cz=12.0, w=1.6, h=1.4, l=3.8, yaw=0.0),
            score=0.625,
        )
        assert format_kitti_label(det).split()[-1] == "0.625"

    def test_parsed_detection_writes_its_current_score(self):
        det = parse_kitti_label(SAMPLE_DET, 1)
        assert len(det.raw_fields) == 14
        line = format_kitti_label(dataclasses.replace(det, score=0.25))
        assert line == format_kitti_label(det).rsplit(" ", 1)[0] + " 0.25"

    def test_rejects_record_without_geometry(self):
        gt = GroundTruth(rect=Rect2D(x1=0, y1=0, x2=1, y2=1))
        with pytest.raises(ValueError):
            format_kitti_label(gt)


class TestKittiFiles:
    def test_golden_corpus_is_a_serialization_fixpoint(self):
        with open(GOLDEN_KITTI, encoding="utf-8") as fh:
            lines = fh.read().splitlines()
        assert len(lines) == 100
        for number, line in enumerate(lines, start=1):
            assert format_kitti_label(parse_kitti_label(line, number)) == line

    def test_file_round_trip(self, tmp_path):
        scene = read_kitti_file(GOLDEN_KITTI)
        assert scene.scene_id == "golden_labels"
        assert len(scene.gts) + len(scene.boxes) == 100
        out = tmp_path / "copy.txt"
        write_kitti_file(out, scene)
        assert out.read_text(encoding="utf-8") == Path(GOLDEN_KITTI).read_text(encoding="utf-8")

    def test_blank_lines_skipped(self, tmp_path):
        path = tmp_path / "gap.txt"
        path.write_text(SAMPLE_GT + "\n\n" + SAMPLE_DET + "\n", encoding="utf-8")
        scene = read_kitti_file(path)
        assert len(scene.gts) == 1 and len(scene.boxes) == 1

    def test_parse_error_names_the_line(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text(SAMPLE_GT + "\nnot a label\n", encoding="utf-8")
        with pytest.raises(ValueError, match="line 2:"):
            read_kitti_file(path)

    def test_dir_round_trip_with_label_merge(self, tmp_path):
        pred_dir = tmp_path / "pred"
        gt_dir = tmp_path / "gt"
        pred_dir.mkdir()
        gt_dir.mkdir()
        (pred_dir / "000001.txt").write_text(SAMPLE_DET + "\n", encoding="utf-8")
        (pred_dir / "000002.txt").write_text("", encoding="utf-8")
        (gt_dir / "000001.txt").write_text(SAMPLE_GT + "\n", encoding="utf-8")
        scenes = read_kitti_dir(pred_dir, labels_dir=gt_dir)
        assert [s.scene_id for s in scenes] == ["000001", "000002"]
        assert len(scenes[0].boxes) == 1 and len(scenes[0].gts) == 1
        out_dir = tmp_path / "out"
        write_kitti_dir(out_dir, scenes)
        assert sorted(os.listdir(out_dir)) == ["000001.txt", "000002.txt"]


class TestJsonl:
    def test_golden_corpus_is_a_serialization_fixpoint(self, tmp_path):
        scenes = read_scenes_jsonl(GOLDEN_JSONL)
        assert len(scenes) == 100
        out = tmp_path / "copy.jsonl"
        write_scenes_jsonl(out, scenes)
        assert out.read_bytes() == Path(GOLDEN_JSONL).read_bytes()

    def test_unknown_keys_preserved(self):
        scenes = read_scenes_jsonl(GOLDEN_JSONL)
        assert scenes[0].extra == {"weather": "rain", "frame": 17}
        assert scenes[3].boxes[2].extra == {"track_id": 42, "flags": ["blurry", "edge"]}
        assert scenes[7].gts[1].extra == {"source": "manual"}

    def test_blank_lines_skipped(self, tmp_path):
        path = tmp_path / "gap.jsonl"
        with open(GOLDEN_JSONL, encoding="utf-8") as fh:
            first = fh.readline()
        path.write_text(first + "\n" + first, encoding="utf-8")
        assert len(read_scenes_jsonl(path)) == 2

    def test_error_names_the_line(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"id": "a", "boxes": [], "gts": []}\n{broken\n', encoding="utf-8")
        with pytest.raises(ValueError, match="line 2:"):
            read_scenes_jsonl(path)

    def test_error_names_scene_and_record(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"id": "s1", "boxes": [], "gts": [{"x1": 0, "y1": 0, "x2": 1, "y2": null}]}\n', encoding="utf-8")
        with pytest.raises(ValueError, match="line 1: scene 's1' gt 0: y2 must be a number, got None"):
            read_scenes_jsonl(path)

    def test_numeric_scene_id_is_an_error(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"id": "a"}\n{"id": 7, "boxes": [], "gts": []}\n', encoding="utf-8")
        with pytest.raises(ValueError, match=r"^line 2: id must be a string, got 7$"):
            read_scenes_jsonl(path)

    def test_numeric_label_is_an_error(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        box = {"x1": 0, "y1": 0, "x2": 1, "y2": 1, "score": 0.5}
        path.write_text(json.dumps({"id": "s1", "boxes": [box, dict(box, label=5)]}) + "\n", encoding="utf-8")
        with pytest.raises(ValueError, match=r"^line 1: scene 's1' box 1: label must be a string, got 5$"):
            read_scenes_jsonl(path)

    def test_non_object_records_rejected(self):
        with pytest.raises(ValueError, match="expected a JSON object"):
            scene_from_dict(["id", "a"])
        with pytest.raises(ValueError, match="box 0: expected a JSON object"):
            scene_from_dict({"id": "a", "boxes": [None]})

    def test_missing_id_rejected(self, tmp_path):
        path = tmp_path / "noid.jsonl"
        path.write_text('{"boxes": [], "gts": []}\n', encoding="utf-8")
        with pytest.raises(ValueError, match="line 1:"):
            read_scenes_jsonl(path)

    def test_iter_is_lazy_equivalent(self, tmp_path):
        scenes = list(iter_scenes_jsonl(GOLDEN_JSONL))
        assert len(scenes) == 100
        assert scenes[5].scene_id == read_scenes_jsonl(GOLDEN_JSONL)[5].scene_id

    def test_non_finite_values_rejected_on_write(self, tmp_path):
        scene = Scene(scene_id="x", boxes=[], gts=[], extra={"bad": math.inf})
        with pytest.raises(ValueError):
            write_scenes_jsonl(tmp_path / "inf.jsonl", [scene])

    def test_compact_canonical_encoding(self, tmp_path):
        scene = Scene(
            scene_id="s",
            boxes=[
                DetectionBox(
                    rect=Rect2D(x1=1.0, y1=2.0, x2=3.0, y2=4.0),
                    cuboid=None,
                    score=0.5,
                )
            ],
            gts=[],
        )
        path = tmp_path / "one.jsonl"
        write_scenes_jsonl(path, [scene])
        line = path.read_text(encoding="utf-8").strip()
        assert " " not in line
        payload = json.loads(line)
        assert payload["id"] == "s"
        assert payload["boxes"][0]["x1"] == 1.0
        # default-valued attribute keys are omitted from the stream
        assert "truncation" not in payload["boxes"][0]
        assert "dontcare" not in payload["boxes"][0]
