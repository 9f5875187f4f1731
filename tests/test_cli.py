import json
import math
import os
import subprocess
import sys
import warnings
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

    def test_keep_all_writes_dontcare_boxes_unchanged(self, tmp_path, capsys):
        # The DontCare box comes first and takes no part in NMS; box 2 is suppressed by box 1.
        boxes = [
            _box(score=0.7, label="DontCare", dontcare=True, note="kept"),
            _box(score=0.5, label="Car"),
            _box(score=0.4, label="Car", x2=9),
        ]
        path, out = tmp_path / "dc.jsonl", tmp_path / "out.jsonl"
        path.write_text(json.dumps({"id": "d", "boxes": boxes}) + "\n", encoding="utf-8")
        assert run_cli(
            "run", "--input", str(path), "--nms", "masked", "--pruning", "linear", "--keep-all", "--out", str(out)
        ) == 0
        assert capsys.readouterr().out == f"rescored 3 boxes over 1 scenes; wrote 3 to {out}\n"
        written = json.loads(out.read_text(encoding="utf-8"))["boxes"]
        assert written[0] == boxes[0] and written[1] == boxes[1]
        assert 0.0 <= written[2]["score"] < 0.4

    def test_keep_all_writes_kitti_dontcare_lines_unchanged(self, tmp_path, capsys):
        dontcare = "DontCare -1 -1 -10.0 503.89 169.71 590.61 190.13 -1 -1 -1 -1000 -1000 -1000 -10 0.3"
        car = KITTI_ROW.format(occlusion="0")
        path, out = tmp_path / "000001.txt", tmp_path / "out.txt"
        path.write_text(f"{dontcare}\n{car}\n", encoding="ascii")
        assert run_cli("run", "--input", str(path), "--format", "kitti", "--keep-all", "--out", str(out)) == 0
        assert capsys.readouterr().out == f"rescored 2 boxes over 1 scenes; wrote 2 to {out}\n"
        first, second = out.read_text(encoding="ascii").splitlines()
        assert first == "DontCare -1.0 -1.0 -10.0 503.89 169.71 590.61 190.13 -1.0 -1.0 -1.0 -1000.0 -1000.0 -1000.0 -10.0 0.3"
        assert second.split()[0] == "Car"

    @pytest.mark.parametrize("nms", ["masked", "full-inverse", "grouped-inverse"])
    def test_negative_zero_score_is_written_as_zero(self, tmp_path, nms):
        # Box 1 is suppressed by box 0 and box 2 tops its own group; both score -0.0.
        boxes = [_box(score=0.9), _box(score=-0.0), _box(score=-0.0, x1=50, x2=60)]
        path = tmp_path / "zero.jsonl"
        path.write_text(json.dumps({"id": "z", "boxes": boxes}) + "\n", encoding="utf-8")
        out = tmp_path / "out.jsonl"
        assert run_cli(
            "run", "--input", str(path), "--nms", nms, "--pruning", "linear", "--keep-all", "--out", str(out)
        ) == 0
        text = out.read_text(encoding="utf-8")
        assert [b["score"] for b in json.loads(text)["boxes"]] == [0.9, 0.0, 0.0]
        assert text.count('"score":0.0,') == 2 and "-0.0" not in text

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
    def test_soft_with_hard_pruning(self, scene_file, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            run_cli("run", "--input", str(scene_file), "--nms", "soft",
                    "--pruning", "hard", "--out", str(tmp_path / "x.jsonl"))
        assert exc.value.code == 2
        assert "error: soft NMS requires a soft pruning kind" in capsys.readouterr().err

    def test_classical_with_soft_pruning(self, scene_file, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            run_cli("run", "--input", str(scene_file), "--nms", "classical",
                    "--pruning", "linear", "--out", str(tmp_path / "x.jsonl"))
        assert exc.value.code == 2
        assert "error: classical NMS requires hard pruning" in capsys.readouterr().err

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

    def test_compare_rejects_an_unknown_variant(self, scene_file, capsys):
        with pytest.raises(SystemExit) as exc:
            run_cli("compare", "--input", str(scene_file), "--nms", "classical,bogus")
        assert exc.value.code == 2
        assert capsys.readouterr().err.endswith("error: 'bogus' is not a valid NmsVariant\n")

    def test_compare_needs_two_variants(self, scene_file):
        with pytest.raises(SystemExit) as exc:
            run_cli("compare", "--input", str(scene_file), "--nms", "masked")
        assert exc.value.code == 2

    @pytest.mark.parametrize("nms", ["masked,masked", "classical,masked,classical"])
    def test_compare_rejects_a_repeated_variant(self, scene_file, capsys, nms):
        with pytest.raises(SystemExit) as exc:
            run_cli("compare", "--input", str(scene_file), "--nms", nms)
        assert exc.value.code == 2
        assert f"--nms lists {nms.split(',')[0]} more than once" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["eval", "compare"])
    @pytest.mark.parametrize("iou", ["2", "-1", "0", "nan"])
    def test_iou_outside_unit_interval(self, scene_file, capsys, command, iou):
        with pytest.raises(SystemExit) as exc:
            run_cli(command, "--input", str(scene_file), "--iou", iou)
        assert exc.value.code == 2
        assert f"--iou must lie in (0, 1], got {float(iou):g}" in capsys.readouterr().err

    def test_iou_of_one_is_accepted(self, scene_file):
        assert run_cli("eval", "--input", str(scene_file), "--iou", "1") == 0
        assert run_cli("compare", "--input", str(scene_file), "--iou", "1") == 0

    @pytest.mark.parametrize("boxes", ["3", "0", "-5"])
    def test_gradcheck_boxes_below_four(self, capsys, boxes):
        with pytest.raises(SystemExit) as exc:
            run_cli("gradcheck", "--pruning", "linear", "--boxes", boxes)
        assert exc.value.code == 2
        assert f"--boxes must be at least 4, got {boxes}" in capsys.readouterr().err


class TestGradcheck:
    def test_passes_and_prints_summary(self, capsys):
        assert run_cli("gradcheck", "--pruning", "linear", "--trials", "3", "--seed", "5") == 0
        out = capsys.readouterr().out
        assert "PASS" in out
        assert "max_rel_error" in out

    def test_sigmoid_kind(self, capsys):
        assert run_cli("gradcheck", "--pruning", "sigmoid", "--trials", "2") == 0
        assert "pruning=sigmoid" in capsys.readouterr().out

    def test_zero_tolerance_fails_every_trial(self, capsys):
        assert run_cli("gradcheck", "--pruning", "linear", "--trials", "3", "--tolerance", "0") == 1
        last = capsys.readouterr().out.splitlines()[-1]
        assert last.startswith("max_rel_error=") and last.endswith(" tolerance=0: FAIL (3/3 trials)")


class TestEval:
    def test_prints_difficulty_table(self, scene_file, capsys):
        assert run_cli("eval", "--input", str(scene_file), "--difficulty", "all") == 0
        out = capsys.readouterr().out
        for name in ("easy", "moderate", "hard"):
            assert name in out

    def test_difficulty_none_evaluates_everything(self, scene_file, capsys):
        assert run_cli("eval", "--input", str(scene_file), "--difficulty", "none", "--iou", "0.5") == 0
        assert "all boxes" in capsys.readouterr().out

    def test_kitti_file_merges_labels_like_its_directory(self, scene_file, tmp_path, capsys):
        from diffnms import Scene, read_scenes_jsonl, write_kitti_file

        scene = read_scenes_jsonl(scene_file)[0]
        frames, labels = tmp_path / "frames", tmp_path / "labels"
        frames.mkdir()
        labels.mkdir()
        write_kitti_file(frames / "000001.txt", Scene(scene_id="000001", boxes=scene.boxes))
        write_kitti_file(labels / "000001.txt", Scene(scene_id="000001", gts=scene.gts))
        tables = []
        for source in (frames, frames / "000001.txt"):
            args = ["eval", "--input", str(source), "--format", "kitti", "--labels", str(labels)]
            assert run_cli(*args, "--difficulty", "none") == 0
            tables.append(capsys.readouterr().out)
        assert tables[0] == tables[1]
        assert "n/a" not in tables[0]

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

    @pytest.mark.parametrize(
        "config, fragment",
        [
            ({"easy": {"min_height": 0, "max_occlusion": 2}}, "rule 'easy': missing key 'max_truncation'"),
            ([{"min_height": 0}], "expected a JSON object of rules, got list"),
            ({"simple": {"min_height": 0, "max_occlusion": 2, "max_truncation": 1.0}}, "rule 'simple'"),
            ("{not json", "invalid JSON"),
            ({"easy": "fast"}, "rule 'easy': expected an object with min_height, max_occlusion and max_truncation, got str"),
            (
                {"id": "a", "boxes": [], "gts": []},
                "rule 'id': unknown difficulty, expected one of easy, moderate, hard",
            ),
            (
                {"easy": {"min_height": math.nan, "max_occlusion": 0, "max_truncation": 0.15}},
                "rule 'easy': min_height must be finite, got nan",
            ),
            (
                {"hard": {"min_height": 25, "max_occlusion": 2, "max_truncation": -math.inf}},
                "rule 'hard': max_truncation must be finite, got -inf",
            ),
            (
                {"easy": {"min_height": 40, "max_occlusion": 0.9, "max_truncation": 0.15}},
                "rule 'easy': max_occlusion must be an integer, got 0.9",
            ),
            (
                {"moderate": {"min_height": 25, "max_occlusion": True, "max_truncation": 0.3}},
                "rule 'moderate': max_occlusion must be an integer, got True",
            ),
            (
                {"easy": {"min_height": 40, "max_occlusion": "0", "max_truncation": 0.15}},
                "rule 'easy': max_occlusion must be an integer, got '0'",
            ),
            (
                {"easy": {"min_height": True, "max_occlusion": 0, "max_truncation": 0.15}},
                "rule 'easy': min_height must be a number, got True",
            ),
            (
                {"moderate": {"min_height": 25, "max_occlusion": 1, "max_truncation": "0.15"}},
                "rule 'moderate': max_truncation must be a number, got '0.15'",
            ),
            (
                {"hard": {"min_height": 10**400, "max_occlusion": 2, "max_truncation": 0.5}},
                "rule 'hard': min_height must be a number, got 100000",
            ),
            (
                {"hard": {"min_height": 25, "max_occlusion": 2, "max_truncation": -(10**400)}},
                "rule 'hard': max_truncation must be a number, got -100000",
            ),
            pytest.param("[" * 100_000 + "]" * 100_000, "invalid JSON: nested too deeply", id="deep-nesting"),
            # Python's limit on integer digits makes this invalid JSON; without it, not a number.
            pytest.param(
                '{"easy": {"min_height": ' + "1" * 5000 + "}}", "difficulty config: ", id="integer-of-5000-digits"
            ),
        ],
    )
    def test_bad_difficulty_config_is_a_clean_error(self, scene_file, tmp_path, capsys, config, fragment):
        path = tmp_path / "rules.json"
        path.write_text(config if isinstance(config, str) else json.dumps(config), encoding="utf-8")
        assert run_cli("eval", "--input", str(scene_file), "--difficulty-config", str(path)) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error: difficulty config: ")
        assert err.count("\n") == 1
        assert fragment in err


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

    def test_synth(self, tmp_path):
        out = tmp_path / "synth.jsonl"
        assert run_cli(
            "synth", "--seed", "42", "--scenes", "2", "--objects", "4", "--proposals", "5",
            "--center-jitter", "0.6", "--size-jitter", "0.2", "--score-noise", "0.1", "--out", str(out),
        ) == 0
        assert out.read_bytes() == (DATA / "golden_synth.jsonl").read_bytes()

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

    def test_run_soft_exp_on_a_clustered_scene(self, tmp_path):
        # 120 boxes in four zero-overlap clusters: past the whole-matrix size,
        # the greedy loop runs the clusters in lockstep; the bytes are the
        # one global loop's.
        from diffnms import RectOverlaps, read_scenes_jsonl, rect_array

        scene, out = tmp_path / "synth.jsonl", tmp_path / "run.jsonl"
        assert run_cli(
            "synth", "--seed", "42", "--scenes", "1", "--objects", "4", "--proposals", "30", "--out", str(scene)
        ) == 0
        boxes = read_scenes_jsonl(scene)[0].boxes
        assert len(RectOverlaps(rect_array([b.rect for b in boxes]))._clusters()) == 4
        assert run_cli(
            "run", "--input", str(scene), "--nms", "soft", "--pruning", "exp", "--keep-all", "--out", str(out)
        ) == 0
        assert out.read_bytes() == (DATA / "golden_run_soft_exp_120.jsonl").read_bytes()

    def test_eval_all_difficulties(self, capsys):
        assert run_cli("eval", "--input", str(GOLDEN), "--difficulty", "all") == 0
        assert capsys.readouterr().out == (DATA / "golden_eval_all.txt").read_text(encoding="utf-8")

    # The first sigmoid call is the benchmark's; the linear one reaches larger
    # instances, and the last is one 813-box trial over several check blocks.
    @pytest.mark.parametrize(
        "pruning, extra, golden",
        [
            ("sigmoid", ("--seed", "7", "--trials", "120"), "sigmoid"),
            ("linear", ("--boxes", "20"), "linear"),
            ("sigmoid", ("--boxes", "1000", "--trials", "1", "--seed", "3"), "sigmoid_1000"),
        ],
        ids=["sigmoid-extra0", "linear-extra1", "sigmoid-1000"],
    )
    def test_gradcheck(self, capsys, pruning, extra, golden):
        assert run_cli("gradcheck", "--pruning", pruning, *extra) == 0
        golden = DATA / f"golden_gradcheck_{golden}.txt"
        assert capsys.readouterr().out == golden.read_text(encoding="utf-8")

    # The sigmoid run uses tau 0.5: at the default tau every suppressed member
    # clips to 0, and the file would equal the hard one.
    @pytest.mark.parametrize(
        "nms, pruning, extra",
        [
            ("masked", "hard", ()),
            ("masked", "sigmoid", ("--tau", "0.5")),
            ("full-inverse", "linear", ()),
            ("grouped-inverse", "linear", ()),
            ("classical", "hard", ()),
            ("soft", "linear", ()),
        ],
    )
    def test_run_keep_all(self, tmp_path, nms, pruning, extra):
        out = tmp_path / "run.jsonl"
        assert run_cli(
            "run", "--input", str(GOLDEN), "--nms", nms, "--pruning", pruning, *extra, "--keep-all", "--out", str(out)
        ) == 0
        golden = DATA / f"golden_run_{nms.replace('-', '_')}_{pruning}.jsonl"
        assert out.read_bytes() == golden.read_bytes()


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
            # json.dumps writes the infinite occlusion as Infinity, which is not JSON.
            ({"id": "a", "boxes": [_box(occlusion=1e400)]}, ["invalid JSON: Infinity is not a finite number"]),
            ({"id": "a", "boxes": [_box(x1=20)]}, ["scene 'a' box 0", "x1 <= x2"]),
            ({"id": "a", "boxes": [{"y1": 0}]}, ["scene 'a' box 0", "missing rectangle key"]),
            (
                {"id": "a", "boxes": [_box(cx=0, cy=0, cz=0, w=1, h=1, l=1, yw=0)]},
                ["scene 'a' box 0", "missing cuboid key 'yaw'"],
            ),
            (
                {"id": "a", "boxes": [_box(cx=0, cy=0, cz=0, w=-1, h=1, l=1, yaw=0)]},
                ["scene 'a' box 0", "non-negative"],
            ),
            ({"id": "a", "boxes": {}}, ["boxes and gts must be arrays"]),
            ({"id": "a", "boxes": [_box(score="0.5")]}, ["scene 'a' box 0", "score must be a number, got '0.5'"]),
            ({"id": "a", "boxes": [_box(x2=True)]}, ["scene 'a' box 0", "x2 must be a number, got True"]),
            ({"id": "a", "gts": [_box(alpha=True)]}, ["scene 'a' gt 0", "alpha must be a number, got True"]),
            ({"id": "a", "boxes": [_box(occlusion=1.7)]}, ["scene 'a' box 0", "occlusion must be an integer, got 1.7"]),
            ({"id": "a", "gts": [_box(occlusion=False)]}, ["scene 'a' gt 0", "occlusion must be an integer, got False"]),
            ({"id": "a", "boxes": [_box(dontcare="no")]}, ["scene 'a' box 0", "dontcare must be a boolean, got 'no'"]),
            ({"id": "a", "gts": [_box(dontcare=0)]}, ["scene 'a' gt 0", "dontcare must be a boolean, got 0"]),
            ({"id": "a", "boxes": [_box(x1=-1e308, x2=1e308)]}, ["scene 'a' box 0", "area must be finite, got inf"]),
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

    @pytest.mark.parametrize("line, kind", [("[1, 2]", "list"), ('"scene"', "str"), ("7", "int"), ("null", "NoneType")])
    def test_a_line_that_is_not_an_object_names_its_type(self, tmp_path, capsys, line, kind):
        path = tmp_path / "bad.jsonl"
        path.write_text(line + "\n", encoding="utf-8")
        assert run_cli("run", "--input", str(path), "--out", str(tmp_path / "o.jsonl")) == 1
        assert capsys.readouterr().err == f"error: line 1: expected a JSON object, got {kind}\n"

    @pytest.mark.parametrize(
        "field, literal, message",
        [
            ("truncation", "NaN", "invalid JSON: NaN is not a finite number"),
            ("score", "-Infinity", "invalid JSON: -Infinity is not a finite number"),
            ("score", "1e400", "scene 'a' box 0: score must be a number, got inf"),
            ("occlusion", "-1e400", "scene 'a' box 0: occlusion must be an integer, got -inf"),
        ],
    )
    @pytest.mark.parametrize("command", ["run", "oracle"])
    def test_non_finite_number_is_a_read_error(self, tmp_path, capsys, command, field, literal, message):
        path = tmp_path / "bad.jsonl"
        record = f'{{"x1": 0, "y1": 0, "x2": 10, "y2": 10, "{field}": {literal}}}'
        path.write_text('{"id": "fine"}\n{"id": "a", "boxes": [%s]}\n' % record, encoding="utf-8")
        out = tmp_path / "o.jsonl"
        assert run_cli(command, "--input", str(path), "--out", str(out)) == 1
        assert capsys.readouterr().err == f"error: line 2: {message}\n"
        assert not out.exists()

    # json reads 1e400 as infinity, which the writer could not write back.
    @pytest.mark.parametrize(
        "scene, message",
        [
            ('{"id": "a", "note": 1e400}', "scene 'a': note must be finite, got inf"),
            ('{"id": "a", "camera": {"k": [1, -1e400]}}', "scene 'a': camera must be finite, got -inf"),
            (
                '{"id": "a", "boxes": [{"x1": 0, "y1": 0, "x2": 1, "y2": 1, "tag": {"v": 1e999}}]}',
                "scene 'a' box 0: tag must be finite, got inf",
            ),
        ],
    )
    @pytest.mark.parametrize("command", ["run", "oracle"])
    def test_overflowing_unknown_key_is_a_read_error(self, tmp_path, capsys, command, scene, message):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"id": "fine", "note": [1e300, {"k": -2.5}]}\n' + scene + "\n", encoding="utf-8")
        out = tmp_path / "o.jsonl"
        assert run_cli(command, "--input", str(path), "--out", str(out)) == 1
        assert capsys.readouterr().err == f"error: line 2: {message}\n"
        assert not out.exists()

    def test_undecodable_byte_names_its_line(self, tmp_path, capsys):
        path = tmp_path / "bytes.jsonl"
        path.write_bytes(b'{"id": "fine"}\n{"id": "a", "note": "\xff"}\n')
        assert run_cli("run", "--input", str(path), "--out", str(tmp_path / "o.jsonl")) == 1
        assert capsys.readouterr().err == (
            "error: line 2: 'utf-8' codec can't decode byte 0xff in position 21: invalid start byte\n"
        )

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


    @pytest.mark.parametrize("command", ["run", "compare", "correlate"])
    @pytest.mark.parametrize("mode, missing", [("class", "class_conf"), ("pred", "pred_conf")])
    def test_missing_confidence_names_scene_and_box(self, tmp_path, capsys, command, mode, missing):
        # Box 0 is DontCare and box 1 has no confidences, so both keep their raw score.
        boxes = [
            _box(dontcare=True),
            _box(),
            _box(class_conf=0.5, pred_conf=0.5),
            _box(**{"class_conf": 0.5, "pred_conf": 0.5, missing: None}),
        ]
        cuboid = {"cx": 0.0, "cy": 0.75, "cz": 10.0, "w": 1.6, "h": 1.5, "l": 4.0, "yaw": 0.0}
        gt = {"x1": 0, "y1": 0, "x2": 10, "y2": 10, **cuboid}
        path = tmp_path / "conf.jsonl"
        path.write_text(json.dumps({"id": "frame-3", "boxes": boxes, "gts": [gt]}) + "\n", encoding="utf-8")
        args = ["--input", str(path), "--score-mode", mode]
        if command == "run":
            args += ["--out", str(tmp_path / "o.jsonl")]
        assert run_cli(command, *args) == 1
        assert capsys.readouterr().err == f"error: scene 'frame-3' box 3: score mode {mode!r} requires {missing}\n"

    @pytest.mark.parametrize("command", ["run", "compare", "correlate"])
    @pytest.mark.parametrize(
        "mode, confs, message",
        [
            ("product", (-0.5, -0.9), "class_conf must be non-negative, got -0.5"),
            ("product", (0.9, -0.5), "pred_conf must be non-negative, got -0.5"),
            ("product", (-0.5, 0.0), "class_conf must be non-negative, got -0.5"),
            ("product", (0.0, -0.5), "pred_conf must be non-negative, got -0.5"),
            ("product", (-0.0, 0.5), None),
            ("product", (0.5, -0.0), None),
            # The single-confidence modes leave the check to NMS.
            ("class", (-0.5, -0.9), "scores must be non-negative, got -0.5"),
        ],
    )
    def test_negative_confidence_names_scene_and_box(self, tmp_path, capsys, command, mode, confs, message):
        cuboid = {"cx": 0.0, "cy": 0.75, "cz": 10.0, "w": 1.6, "h": 1.5, "l": 4.0, "yaw": 0.0}
        gt = {"x1": 0, "y1": 0, "x2": 10, "y2": 10, **cuboid}
        box = _box(class_conf=confs[0], pred_conf=confs[1])
        path = tmp_path / "conf.jsonl"
        path.write_text(json.dumps({"id": "a", "boxes": [box], "gts": [gt]}) + "\n", encoding="utf-8")
        args = ["--input", str(path), "--score-mode", mode]
        if command == "run":
            args += ["--out", str(tmp_path / "o.jsonl")]
        code = run_cli(command, *args)
        err = capsys.readouterr().err
        if message is None:
            assert (code, err) == (0, "")
        else:
            assert (code, err) == (1, f"error: scene 'a' box 0: {message}\n")


# Two-scene inputs with one fault per scene; the corpus pass must report
# the fault that rescoring the scenes one by one meets first.
_OVERFLOW = [_box(0.9), _box(x1=-1e308, x2=1e308)]
_NEGATIVE = [_box(0.9), _box(-0.5)]
_ABOVE_ONE = [_box(0.9), _box(1.5, class_conf=1.5)]
_MISSING = [_box(0.9, class_conf=0.9), _box(0.5, pred_conf=0.5)]
_AREA_ERROR = "scene '{}' box 1: Rect2D area must be finite, got inf for corners (-1e+308, 0.0, 1e+308, 10.0)"


class TestCorpusErrorOrder:
    @staticmethod
    def _corpus(tmp_path, first, second):
        cuboid = {"cx": 0.0, "cy": 0.75, "cz": 10.0, "w": 1.6, "h": 1.5, "l": 4.0, "yaw": 0.0}
        gt = {"x1": 0, "y1": 0, "x2": 10, "y2": 10, **cuboid}
        path = tmp_path / "two.jsonl"
        lines = [json.dumps({"id": sid, "boxes": boxes, "gts": [gt]}) + "\n" for sid, boxes in zip("ab", (first, second))]
        path.write_text("".join(lines), encoding="utf-8")
        return path

    @pytest.mark.parametrize("command", ["run", "compare", "correlate"])
    @pytest.mark.parametrize(
        "first, second, message",
        [
            (_OVERFLOW, _NEGATIVE, "line 1: " + _AREA_ERROR.format("a")),
            (_NEGATIVE, _OVERFLOW, "line 2: " + _AREA_ERROR.format("b")),
        ],
        ids=["overflow-then-negative", "negative-then-overflow"],
    )
    def test_read_error_comes_before_any_score_error(self, tmp_path, capsys, command, first, second, message):
        path = self._corpus(tmp_path, first, second)
        out = ["--out", str(tmp_path / "o.jsonl")] if command == "run" else []
        assert run_cli(command, "--input", str(path), *out) == 1
        assert capsys.readouterr().err == f"error: {message}\n"

    @pytest.mark.parametrize("nms", ["classical,masked", "masked,classical"])
    @pytest.mark.parametrize(
        "first, second, mode, message",
        [
            (_ABOVE_ONE, _MISSING, None, "scene 'a' box 1: scores must lie in [0, 1] for this rescorer, got 1.5"),
            (_ABOVE_ONE, _MISSING, "class", "scene 'a' box 1: scores must lie in [0, 1] for this rescorer, got 1.5"),
            (_MISSING, _ABOVE_ONE, None, "scene 'b' box 1: scores must lie in [0, 1] for this rescorer, got 1.5"),
            (_MISSING, _ABOVE_ONE, "class", "scene 'a' box 1: score mode 'class' requires class_conf"),
        ],
        ids=["above-one-first", "above-one-first-class-mode", "missing-first", "missing-first-class-mode"],
    )
    def test_compare_reports_the_first_scene_s_fault(self, tmp_path, capsys, nms, first, second, mode, message):
        path = self._corpus(tmp_path, first, second)
        args = ["compare", "--input", str(path), "--nms", nms, *(("--score-mode", mode) if mode else ())]
        assert run_cli(*args) == 1
        assert capsys.readouterr().err == f"error: {message}\n"

    def test_correlate_checks_scenes_without_ground_truths(self, tmp_path, capsys):
        path = tmp_path / "nogt.jsonl"
        record = {"id": "a", "boxes": [_box(class_conf=-0.5, pred_conf=0.9)]}
        path.write_text(json.dumps(record) + "\n", encoding="utf-8")
        assert run_cli("correlate", "--input", str(path), "--score-mode", "product") == 1
        assert capsys.readouterr().err == "error: scene 'a' box 0: class_conf must be non-negative, got -0.5\n"


def _scene_line(score):
    cuboid = {"cx": 0.0, "cy": 0.75, "cz": 10.0, "w": 1.6, "h": 1.5, "l": 4.0, "yaw": 0.0}
    gt = {"x1": 0, "y1": 0, "x2": 10, "y2": 10, **cuboid}
    return json.dumps({"id": "s1", "boxes": [_box(score=score, **cuboid)], "gts": [gt]}) + "\n"


# Per command: whether it takes --out, a usage error (a threshold out of range;
# oracle has no threshold, so an unknown --mode), and whether it rescores, so
# that a score outside a variant's domain is an error rather than a value.
CONTRACT_COMMANDS = {
    "run": (True, ("--nt", "1.5"), True),
    "compare": (True, ("--iou", "2"), True),
    "eval": (False, ("--iou", "2"), False),
    "oracle": (True, ("--mode", "iou4d"), False),
    "correlate": (True, ("--valid", "2"), True),
}
CONTRACT_CASES = ["undecodable", "overflow", "empty", "directory", "missing", "unwritable-out", "score", "threshold"]


class TestCliContract:
    """Every input ends in the documented exit code: 0 for an empty file, 2 for
    a usage error, 1 for a runtime error, which prints one line starting with
    error:. No input prints a traceback or a warning."""

    @pytest.mark.parametrize(
        "command, case",
        [
            (command, case)
            for command, (writes, _, _) in CONTRACT_COMMANDS.items()
            for case in CONTRACT_CASES
            if writes or case != "unwritable-out"
        ],
    )
    def test_exit_code_and_stderr(self, tmp_path, capsys, command, case):
        writes, usage_error, rescores = CONTRACT_COMMANDS[command]
        source = tmp_path / "in.jsonl"
        source.write_text(_scene_line(0.5), encoding="utf-8")
        out, extra, expected = tmp_path / "out", (), 1
        if case == "undecodable":
            source.write_bytes(b'{"id": "s1", "note": "\xff"}\n')
        elif case == "overflow":
            source.write_text('{"id": "s1", "note": 1e400}\n', encoding="utf-8")
        elif case == "empty":
            source.write_text("", encoding="utf-8")
            expected = 0
        elif case == "directory":
            source = tmp_path
        elif case == "missing":
            source = tmp_path / "missing.jsonl"
        elif case == "unwritable-out":
            out = tmp_path
        elif case == "score":
            source.write_text(_scene_line(1.5), encoding="utf-8")
            expected = 1 if rescores else 0
        else:
            extra, expected = usage_error, 2
        args = [command, "--input", str(source), *extra, *(("--out", str(out)) if writes else ())]
        assert _contract_exit(capsys, args)[0] == expected

    @pytest.mark.parametrize(
        "args, expected, message",
        [
            (("gradcheck", "--eps", "0"), 2, "--eps must be finite and positive, got 0"),
            (("gradcheck", "--eps", "nan"), 2, "--eps must be finite and positive, got nan"),
            (("gradcheck", "--eps", "-0.5"), 2, "--eps must be finite and positive, got -0.5"),
            (("gradcheck", "--tolerance", "nan"), 2, "--tolerance must be at least 0, got nan"),
            (("gradcheck", "--tolerance", "-1"), 2, "--tolerance must be at least 0, got -1"),
            (("gradcheck", "--trials", "0"), 2, "--trials must be at least 1, got 0"),
            (("gradcheck", "--trials", "-3"), 2, "--trials must be at least 1, got -3"),
            (("synth", "--out", "{dir}"), 1, "Is a directory"),
            (("synth", "--scenes", "-1", "--out", "{file}"), 1, "num_scenes must be >= 0"),
            (("synth", "--center-jitter", "nan", "--out", "{file}"), 1, "center_jitter must be finite"),
            # Jitters so large that a size factor, a cuboid or a rectangle overflows.
            (
                ("synth", "--size-jitter", "1e3", "--out", "{file}"),
                1,
                "error: scene 'synth-0-0000' object 0 proposal 1: the l jitter exp(1031.4530848694724) overflows; "
                "lower size_jitter\n",
            ),
            (("synth", "--center-jitter", "1e308", "--out", "{file}"), 1, "error: Cuboid3D.cx must be finite, got -inf\n"),
            (("synth", "--center-jitter", "3e307", "--out", "{file}"), 1, "error: Rect2D.y1 must be finite, got -inf\n"),
            (("gradcheck", "--boxes", "1001"), 2, "--boxes must be at most 1000, got 1001"),
            (("gradcheck", "--tau", "inf"), 2, "tau must be finite and positive for sigmoid pruning, got inf"),
            # Below the smallest normal float, the pruning's division by tau overflows.
            (
                ("gradcheck", "--tau", "1e-309"),
                2,
                "tau must be at least 2.2250738585072014e-308 for sigmoid pruning, got 1e-309",
            ),
            (
                ("gradcheck", "--pruning", "exp", "--tau", "2.225073858507201e-308"),
                2,
                "tau must be at least 2.2250738585072014e-308 for exp pruning, got 2.225073858507201e-308",
            ),
            (
                ("run", "--input", "{file}", "--out", "{file}", "--pruning", "sigmoid", "--tau", "1e-309"),
                2,
                "tau must be at least 2.2250738585072014e-308 for sigmoid pruning, got 1e-309",
            ),
            (
                ("run", "--input", "{file}", "--out", "{file}", "--nms", "soft", "--pruning", "exp", "--tau", "5e-324"),
                2,
                "tau must be at least 2.2250738585072014e-308 for exp pruning, got 5e-324",
            ),
            (
                ("correlate", "--input", "{file}", "--nms", "soft", "--pruning", "sigmoid", "--tau", "1e-309"),
                2,
                "tau must be at least 2.2250738585072014e-308 for sigmoid pruning, got 1e-309",
            ),
            (
                ("correlate", "--input", "{file}", "--nms", "grouped-inverse", "--pruning", "exp", "--tau", "1e-309"),
                2,
                "tau must be at least 2.2250738585072014e-308 for exp pruning, got 1e-309",
            ),
            (("eval", "--input", "{file}", "--labels", "{dir}"), 2, "--labels needs --format kitti"),
            # The masked Jacobians that gradcheck checks read no variant, survival threshold or score mode.
            (("gradcheck", "--nms", "masked"), 2, "unrecognized arguments: --nms masked"),
            (("gradcheck", "--valid", "0.3"), 2, "unrecognized arguments: --valid 0.3"),
            (("gradcheck", "--score-mode", "product"), 2, "unrecognized arguments: --score-mode product"),
            (("gradcheck", "--seed", "-5"), 2, "--seed must be at least 0, got -5"),
            (("synth", "--seed", "-1", "--out", "{file}"), 1, "seed must be a non-negative integer, got -1"),
            (("gradcheck", "--alpha", "-3"), 2, "--alpha must be at least 0, got -3"),
            (("run", "--input", "{file}", "--out", "{file}", "--alpha", "-3"), 2, "--alpha must be at least 0, got -3"),
            (("compare", "--input", "{file}", "--alpha", "-3"), 2, "--alpha must be at least 0, got -3"),
            (("correlate", "--input", "{file}", "--alpha", "-3"), 2, "--alpha must be at least 0, got -3"),
        ],
    )
    def test_generator_flags(self, tmp_path, capsys, args, expected, message):
        if args[0] == "gradcheck":
            args = ("gradcheck", "--pruning", "sigmoid", *args[1:])
        args = [a.format(dir=tmp_path, file=tmp_path / "out.jsonl") for a in args]
        code, err = _contract_exit(capsys, args)
        assert code == expected
        assert message in err
        assert not (tmp_path / "out.jsonl").exists()

    def test_memory_error_is_a_clean_error(self, capsys, monkeypatch):
        def exhausted(rng, n):
            raise MemoryError("Unable to allocate 74.5 GiB for an array with shape (100000, 100000)")

        monkeypatch.setattr("diffnms.cli.random_instance", exhausted)
        code, err = _contract_exit(capsys, ["gradcheck", "--pruning", "linear", "--boxes", "1000"])
        assert code == 1
        assert err == "error: out of memory: Unable to allocate 74.5 GiB for an array with shape (100000, 100000)\n"


def _contract_exit(capsys, args):
    """Run the CLI and check the contract's stderr; return the exit code and stderr."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            code = run_cli(*args)
        except SystemExit as exc:
            code = exc.code
    err = capsys.readouterr().err
    assert [str(w.message) for w in caught] == []
    assert "Traceback" not in err and "Warning" not in err
    if code == 0:
        assert err == ""
    elif code == 1:
        assert err.startswith("error: ") and err.count("\n") == 1
    else:
        assert err.startswith("usage: diffnms") and ": error: " in err.splitlines()[-1]
    return code, err


KITTI_ROW = "Car 0.00 {occlusion} -1.58 587.01 173.33 614.12 200.12 1.65 1.67 3.64 -0.65 1.71 46.70 -1.59 0.87"


class TestMalformedKitti:
    """Malformed KITTI rows exit 1 with one error line that names the file and the line."""

    @pytest.mark.parametrize(
        "occlusion, shown", [("inf", "inf"), ("1e400", "inf"), ("nan", "nan"), ("1.5", "1.5")]
    )
    def test_non_integral_occlusion_is_a_clean_error(self, tmp_path, capsys, occlusion, shown):
        path = tmp_path / "000001.txt"
        rows = [KITTI_ROW.format(occlusion="0"), KITTI_ROW.format(occlusion=occlusion)]
        path.write_text("\n".join(rows) + "\n", encoding="ascii")
        code = run_cli("run", "--input", str(path), "--format", "kitti", "--out", str(tmp_path / "out.txt"))
        assert code == 1
        assert capsys.readouterr().err == f"error: {path}: line 2: occlusion must be an integer, got {shown}\n"

    @pytest.mark.parametrize("score", ["nan", "inf", "-inf", "1e400"])
    def test_non_finite_score_is_a_clean_error(self, tmp_path, capsys, score):
        path = tmp_path / "000001.txt"
        gt = KITTI_ROW.format(occlusion="0").rsplit(" ", 1)[0]
        rows = [gt, f"{gt} 0.9", f"{gt} {score}", f"{gt} 0.5"]
        path.write_text("\n".join(rows) + "\n", encoding="ascii")
        assert run_cli("eval", "--input", str(path), "--format", "kitti") == 1
        shown = repr(float(score))
        assert capsys.readouterr().err == f"error: {path}: line 3: score must be finite, got {shown}\n"

    # A NaN truncation would pass every difficulty rule and count as easy.
    @pytest.mark.parametrize(
        "field, index, value", [("truncation", 1, "nan"), ("alpha", 3, "nan"), ("alpha", 3, "-1e400")]
    )
    def test_non_finite_truncation_or_alpha_is_a_clean_error(self, tmp_path, capsys, field, index, value):
        path = tmp_path / "000001.txt"
        tokens = KITTI_ROW.format(occlusion="0").rsplit(" ", 1)[0].split()
        tokens[index] = value
        path.write_text(KITTI_ROW.format(occlusion="0") + "\n" + " ".join(tokens) + "\n", encoding="ascii")
        assert run_cli("eval", "--input", str(path), "--format", "kitti") == 1
        shown = repr(float(value))
        assert capsys.readouterr().err == f"error: {path}: line 2: {field} must be finite, got {shown}\n"

    def test_occlusion_is_checked_before_the_score(self, tmp_path, capsys):
        path = tmp_path / "000001.txt"
        path.write_text(KITTI_ROW.format(occlusion="1.5").replace(" 0.87", " nan") + "\n", encoding="ascii")
        assert run_cli("eval", "--input", str(path), "--format", "kitti") == 1
        assert capsys.readouterr().err == f"error: {path}: line 1: occlusion must be an integer, got 1.5\n"

    def test_undecodable_label_names_its_file_and_line(self, tmp_path, capsys):
        frames = tmp_path / "frames"
        frames.mkdir()
        path = frames / "000001.txt"
        row = KITTI_ROW.format(occlusion="0")
        path.write_bytes((row + "\n" + row.replace("Car", "C\u00e4r") + "\n").encode("utf-8"))
        code = run_cli("run", "--input", str(frames), "--format", "kitti", "--out", str(tmp_path / "out"))
        assert code == 1
        assert capsys.readouterr().err == (
            f"error: {path}: line 2: 'ascii' codec can't decode byte 0xc3 in position 1: ordinal not in range(128)\n"
        )

    @pytest.mark.parametrize("kind", ["missing", "file"])
    @pytest.mark.parametrize("frames", [True, False])
    def test_labels_that_are_not_a_directory_are_a_clean_error(self, tmp_path, capsys, kind, frames):
        directory = tmp_path / "frames"
        directory.mkdir()
        path = directory / "000001.txt"
        row = KITTI_ROW.format(occlusion="0")
        path.write_text(row + "\n", encoding="ascii")
        labels = tmp_path / "labelz"
        if kind == "file":
            labels.write_text(row.rsplit(" ", 1)[0] + "\n", encoding="ascii")
        source = directory if frames else path
        assert run_cli("eval", "--input", str(source), "--format", "kitti", "--labels", str(labels)) == 1
        assert capsys.readouterr().err == f"error: {labels}: labels path is not a directory\n"

    def test_scored_line_in_a_labels_file_is_a_clean_error(self, tmp_path, capsys):
        # Passing the detections themselves as labels would leave every frame without ground truths.
        frames = tmp_path / "frames"
        frames.mkdir()
        path = frames / "000001.txt"
        path.write_text(KITTI_ROW.format(occlusion="0") + "\n", encoding="ascii")
        assert run_cli("eval", "--input", str(frames), "--format", "kitti", "--labels", str(frames)) == 1
        assert capsys.readouterr().err == f"error: {path}: line 1: a labels file holds no scored detections\n"

    @pytest.mark.parametrize("entry", ["frame", "labels"])
    def test_a_directory_in_place_of_a_label_file_is_a_clean_error(self, tmp_path, capsys, entry):
        frames, labels = tmp_path / "frames", tmp_path / "labels"
        frames.mkdir()
        labels.mkdir()
        (frames / "000001.txt").write_text(KITTI_ROW.format(occlusion="0") + "\n", encoding="ascii")
        directory = frames / "000002.txt" if entry == "frame" else labels / "000001.txt"
        directory.mkdir()
        code = run_cli("eval", "--input", str(frames), "--format", "kitti", "--labels", str(labels))
        assert code == 1
        assert capsys.readouterr().err == f"error: [Errno 21] Is a directory: {str(directory)!r}\n"

    def test_integral_float_occlusion_still_parses(self, tmp_path):
        path = tmp_path / "000001.txt"
        path.write_text(KITTI_ROW.format(occlusion="-1.0") + "\n", encoding="ascii")
        out = tmp_path / "out.txt"
        assert run_cli("run", "--input", str(path), "--format", "kitti", "--keep-all", "--out", str(out)) == 0
        assert out.read_text(encoding="ascii").split()[2] == "-1.0"


# Runs every command in one fresh interpreter, then checks that none of them
# imported numpy.ma, which costs megabytes and milliseconds per CLI run.
_STARTUP_SCRIPT = """
import sys
from diffnms.cli import main
golden, out = sys.argv[1:]
commands = [
    ["synth", "--scenes", "2", "--objects", "3", "--proposals", "3", "--out", out + "/synth.jsonl"],
    ["run", "--input", golden, "--out", out + "/run.jsonl"],
    ["compare", "--input", golden, "--nms", "classical,masked,full-inverse,grouped-inverse"],
    ["eval", "--input", golden],
    ["oracle", "--input", golden, "--out", out + "/oracle.jsonl"],
    ["correlate", "--input", golden],
    ["gradcheck", "--pruning", "sigmoid", "--trials", "5"],
]
for command in commands:
    assert main(command) == 0, command
assert "numpy.ma" not in sys.modules, "a command imported numpy.ma"
"""


def test_no_command_imports_numpy_ma(tmp_path):
    """The suite imports numpy.ma itself, so only a fresh interpreter shows what the commands import."""
    src = str(Path(__file__).parents[1] / "src")
    path = os.environ.get("PYTHONPATH")
    env = {**os.environ, "PYTHONPATH": src if not path else src + os.pathsep + path}
    done = subprocess.run(
        [sys.executable, "-c", _STARTUP_SCRIPT, str(GOLDEN), str(tmp_path)],
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert done.returncode == 0, done.stderr
