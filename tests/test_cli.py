import json
import os
from pathlib import Path

import pytest

from diffnms.cli import main

DATA = Path(__file__).parent / "data"
GOLDEN = DATA / "golden_scenes.jsonl"


def run_cli(*args):
    return main(list(args))


@pytest.fixture()
def scene_file(tmp_path):
    path = tmp_path / "scenes.jsonl"
    assert run_cli(
        "synth", "--seed", "3", "--scenes", "2", "--objects", "3",
        "--proposals", "4", "--score-noise", "0.05", "--out", str(path),
    ) == 0
    return path


class TestSynth:
    def test_writes_requested_scene_count(self, tmp_path):
        out = tmp_path / "s.jsonl"
        assert run_cli("synth", "--scenes", "3", "--objects", "2", "--proposals", "2", "--out", str(out)) == 0
        lines = out.read_text(encoding="utf-8").splitlines()
        assert len(lines) == 3
        payload = json.loads(lines[0])
        assert len(payload["gts"]) == 2 and len(payload["boxes"]) == 4

    def test_byte_deterministic(self, tmp_path):
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        args = ["synth", "--seed", "42", "--scenes", "2", "--objects", "3", "--proposals", "3"]
        assert main(args + ["--out", str(a)]) == 0
        assert main(args + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()


class TestRun:
    def test_writes_kept_boxes(self, scene_file, tmp_path):
        out = tmp_path / "kept.jsonl"
        assert run_cli(
            "run", "--input", str(scene_file), "--nms", "masked",
            "--pruning", "linear", "--out", str(out),
        ) == 0
        scenes = [json.loads(l) for l in out.read_text(encoding="utf-8").splitlines()]
        assert len(scenes) == 2
        for scene in scenes:
            assert 0 < len(scene["boxes"]) <= 12
            assert len(scene["gts"]) == 3

    def test_byte_deterministic(self, scene_file, tmp_path):
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        args = ["run", "--input", str(scene_file), "--nms", "grouped-inverse", "--pruning", "exp"]
        assert main(args + ["--out", str(a)]) == 0
        assert main(args + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_keep_all_writes_everything(self, scene_file, tmp_path):
        out = tmp_path / "all.jsonl"
        assert run_cli(
            "run", "--input", str(scene_file), "--nms", "masked", "--pruning", "linear",
            "--keep-all", "--out", str(out),
        ) == 0
        scenes = [json.loads(l) for l in out.read_text(encoding="utf-8").splitlines()]
        assert all(len(s["boxes"]) == 12 for s in scenes)

    def test_kitti_directory_round_trip(self, scene_file, tmp_path):
        kitti_in = tmp_path / "kitti_in"
        kitti_out = tmp_path / "kitti_out"
        from diffnms import read_scenes_jsonl, write_kitti_dir

        write_kitti_dir(kitti_in, read_scenes_jsonl(scene_file))
        assert run_cli(
            "run", "--input", str(kitti_in), "--format", "kitti",
            "--nms", "classical", "--pruning", "hard", "--out", str(kitti_out),
        ) == 0
        assert sorted(os.listdir(kitti_out)) == sorted(os.listdir(kitti_in))

    def test_missing_input_is_runtime_error(self, tmp_path, capsys):
        code = run_cli("run", "--input", str(tmp_path / "nope.jsonl"), "--out", str(tmp_path / "o.jsonl"))
        assert code == 1
        assert "error:" in capsys.readouterr().err


class TestUsageConflicts:
    def test_soft_with_hard_pruning(self, scene_file, tmp_path):
        with pytest.raises(SystemExit) as exc:
            run_cli("run", "--input", str(scene_file), "--nms", "soft",
                    "--pruning", "hard", "--out", str(tmp_path / "x.jsonl"))
        assert exc.value.code == 2

    def test_classical_with_soft_pruning(self, scene_file, tmp_path):
        with pytest.raises(SystemExit) as exc:
            run_cli("run", "--input", str(scene_file), "--nms", "classical",
                    "--pruning", "linear", "--out", str(tmp_path / "x.jsonl"))
        assert exc.value.code == 2

    def test_gradcheck_requires_soft_pruning(self):
        with pytest.raises(SystemExit) as exc:
            run_cli("gradcheck", "--pruning", "hard")
        assert exc.value.code == 2

    def test_invalid_config_value(self, scene_file, tmp_path):
        with pytest.raises(SystemExit) as exc:
            run_cli("run", "--input", str(scene_file), "--nt", "1.5", "--out", str(tmp_path / "x.jsonl"))
        assert exc.value.code == 2

    def test_unknown_variant_rejected_at_parse(self, scene_file, tmp_path):
        with pytest.raises(SystemExit) as exc:
            run_cli("run", "--input", str(scene_file), "--nms", "famous", "--out", str(tmp_path / "x.jsonl"))
        assert exc.value.code == 2

    def test_compare_needs_two_variants(self, scene_file):
        with pytest.raises(SystemExit) as exc:
            run_cli("compare", "--input", str(scene_file), "--nms", "masked")
        assert exc.value.code == 2


class TestGradcheck:
    def test_passes_and_prints_summary(self, capsys):
        assert run_cli("gradcheck", "--pruning", "linear", "--trials", "3", "--seed", "5") == 0
        out = capsys.readouterr().out
        assert "PASS" in out
        assert "max_rel_error" in out

    def test_sigmoid_kind(self, capsys):
        assert run_cli("gradcheck", "--pruning", "sigmoid", "--trials", "2") == 0
        assert "pruning=sigmoid" in capsys.readouterr().out


class TestEval:
    def test_prints_difficulty_table(self, scene_file, capsys):
        assert run_cli("eval", "--input", str(scene_file), "--difficulty", "all") == 0
        out = capsys.readouterr().out
        for name in ("easy", "moderate", "hard"):
            assert name in out

    def test_difficulty_none_evaluates_everything(self, scene_file, capsys):
        assert run_cli("eval", "--input", str(scene_file), "--difficulty", "none", "--iou", "0.5") == 0
        assert "all boxes" in capsys.readouterr().out

    def test_difficulty_config_override(self, scene_file, tmp_path, capsys):
        cfg = tmp_path / "rules.json"
        cfg.write_text(
            json.dumps({"easy": {"min_height": 0, "max_occlusion": 2, "max_truncation": 1.0}}),
            encoding="utf-8",
        )
        assert run_cli(
            "eval", "--input", str(scene_file), "--difficulty", "easy",
            "--difficulty-config", str(cfg),
        ) == 0
        assert "easy" in capsys.readouterr().out


class TestCompareOracleCorrelate:
    def test_compare_writes_csv(self, scene_file, tmp_path, capsys):
        out = tmp_path / "report.csv"
        assert run_cli(
            "compare", "--input", str(scene_file), "--nms", "classical,masked",
            "--pruning", "hard", "--out", str(out),
        ) == 0
        lines = out.read_text(encoding="utf-8").splitlines()
        assert lines[0] == "kind,name,value,detail"
        assert "agreement" in capsys.readouterr().out

    def test_oracle_rewrites_scores(self, scene_file, tmp_path):
        out = tmp_path / "oracle.jsonl"
        assert run_cli("oracle", "--input", str(scene_file), "--mode", "iou3d", "--out", str(out)) == 0
        scenes = [json.loads(l) for l in out.read_text(encoding="utf-8").splitlines()]
        scores = [b["score"] for s in scenes for b in s["boxes"]]
        assert max(scores) == 1.0

    def test_correlate_prints_coefficient(self, scene_file, tmp_path, capsys):
        out = tmp_path / "corr.csv"
        assert run_cli(
            "correlate", "--input", str(scene_file), "--nms", "masked",
            "--pruning", "exp", "--valid", "0.01", "--out", str(out),
        ) == 0
        assert "pearson" in capsys.readouterr().out
        header = out.read_text(encoding="utf-8").splitlines()[0]
        assert header == "scene_id,box_index,rescore,iou3d_rotated,iou3d_axis_aligned"


class TestGoldenOutputs:
    """Outputs on the golden corpus stay byte-identical to the committed files."""

    def test_oracle_iou3d(self, tmp_path):
        out = tmp_path / "oracle.jsonl"
        assert run_cli("oracle", "--input", str(GOLDEN), "--mode", "iou3d", "--out", str(out)) == 0
        assert out.read_bytes() == (DATA / "golden_oracle_iou3d.jsonl").read_bytes()

    def test_correlate_soft_linear(self, tmp_path):
        out = tmp_path / "corr.csv"
        assert run_cli(
            "correlate", "--input", str(GOLDEN), "--nms", "soft", "--pruning", "linear", "--out", str(out)
        ) == 0
        assert out.read_bytes() == (DATA / "golden_correlate_soft_linear.csv").read_bytes()

    def test_eval_all_difficulties(self, capsys):
        assert run_cli("eval", "--input", str(GOLDEN), "--difficulty", "all") == 0
        assert capsys.readouterr().out == (DATA / "golden_eval_all.txt").read_text(encoding="utf-8")


def _box(score=0.5, **fields):
    return {"x1": 0, "y1": 0, "x2": 10, "y2": 10, "score": score, **fields}


class TestMalformedInput:
    """Malformed records exit 1 with one error line that names where they are."""

    @pytest.mark.parametrize(
        "record, fragments",
        [
            ({"id": "a", "boxes": [1]}, ["scene 'a' box 0", "expected a JSON object"]),
            ({"id": "a", "boxes": [_box(), _box(score=None)]}, ["scene 'a' box 1", "score must be a number, got None"]),
            ({"id": "a", "gts": [{"x1": 0, "y1": 0, "x2": 1, "y2": "wide"}]}, ["scene 'a' gt 0", "y2 must be a number"]),
            ({"id": "a", "boxes": [_box(occlusion=1e400)]}, ["scene 'a' box 0", "occlusion must be an integer"]),
            ({"id": "a", "boxes": [_box(x1=20)]}, ["scene 'a' box 0", "x1 <= x2"]),
            ({"id": "a", "boxes": [{"y1": 0}]}, ["scene 'a' box 0", "missing rectangle key"]),
            (
                {"id": "a", "boxes": [_box(cx=0, cy=0, cz=0, w=-1, h=1, l=1, yaw=0)]},
                ["scene 'a' box 0", "non-negative"],
            ),
            ({"id": "a", "boxes": {}}, ["boxes and gts must be arrays"]),
        ],
    )
    def test_bad_record_is_a_clean_error(self, tmp_path, capsys, record, fragments):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"id": "fine", "boxes": [], "gts": []}\n' + json.dumps(record) + "\n", encoding="utf-8")
        assert run_cli("run", "--input", str(path), "--out", str(tmp_path / "o.jsonl")) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: line 2: ")
        assert err.count("\n") == 1
        for fragment in fragments:
            assert fragment in err

    def test_deeply_nested_json_is_a_clean_error(self, tmp_path, capsys):
        path = tmp_path / "deep.jsonl"
        path.write_text('{"id": "a", "extra": ' + "[" * 100_000 + "]" * 100_000 + "}\n", encoding="utf-8")
        assert run_cli("run", "--input", str(path), "--out", str(tmp_path / "o.jsonl")) == 1
        assert capsys.readouterr().err == "error: line 1: invalid JSON: nested too deeply\n"

    @pytest.mark.parametrize("nms, pruning, bad", [("masked", "hard", 1.5), ("classical", "hard", -0.25)])
    def test_out_of_range_score_names_scene_and_box(self, tmp_path, capsys, nms, pruning, bad):
        boxes = [_box(dontcare=True), _box(score=0.9), _box(score=bad), _box(score=2.5)]
        path = tmp_path / "scores.jsonl"
        path.write_text(json.dumps({"id": "frame-7", "boxes": boxes}) + "\n", encoding="utf-8")
        code = run_cli("run", "--input", str(path), "--nms", nms, "--pruning", pruning, "--out", str(tmp_path / "o.jsonl"))
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: scene 'frame-7' box 2: ")
        assert repr(bad) in err
