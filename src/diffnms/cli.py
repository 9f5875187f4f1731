"""Command-line harness for the NMS engine.

Subcommands: synth (generate scenes), run (rescore detections), compare
(variant agreement report), gradcheck (finite-difference verification), eval
(AP|R40 table), oracle (replace scores with ground-truth overlap), and
correlate (score versus IoU3D scatter). Outputs are deterministic for a fixed
seed and input, except compare's timings (seconds_per_scene and ms/scene).
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import json
import os
import sys

import numpy as np

from .boxes import Scene
from .gradients import _check_instances
from .harness import (
    SCORE_MODES,
    _corpus_results,
    _oracle_scenes,
    _rescored_scene,
    build_comparison,
    score_iou_correlation,
)
from .io_jsonl import read_scenes_jsonl, write_scenes_jsonl
from .io_kitti import read_kitti_dir, read_kitti_file, write_kitti_dir, write_kitti_file
from .nms import NmsConfig, NmsVariant, Pruning, _check_variant
from .ranking import DEFAULT_DIFFICULTY_RULES, Difficulty, DifficultyRule, _eval_columns
from .synthetic import SyntheticConfig, generate_synthetic, random_instance

__all__ = ["main"]


def _add_input_flags(cmd: argparse.ArgumentParser) -> None:
    cmd.add_argument("--input", required=True, help="input file (jsonl) or file/directory (kitti)")
    cmd.add_argument("--format", choices=("kitti", "jsonl"), default="jsonl", help="input format")
    cmd.add_argument("--labels", default=None, help="directory of KITTI ground-truth files to merge in")


def _add_config_flags(cmd: argparse.ArgumentParser) -> None:
    cmd.add_argument("--pruning", choices=[p.value for p in Pruning], default=Pruning.HARD.value)
    cmd.add_argument("--nt", type=float, default=0.4, help="overlap threshold for grouping and hard pruning")
    cmd.add_argument("--tau", type=float, default=None, help="temperature for exp/sigmoid pruning")
    cmd.add_argument("--alpha", type=int, default=100, help="group size cap; 0 disables the cap")


def _add_nms_flags(cmd: argparse.ArgumentParser, multi_variant: bool = False) -> None:
    """The flags of the commands that rescore scenes: the variants, the NmsConfig and the score mode."""
    if multi_variant:
        cmd.add_argument(
            "--nms",
            default="classical,masked",
            help="comma-separated NMS variants: classical, soft, masked, full-inverse, grouped-inverse",
        )
    else:
        cmd.add_argument(
            "--nms",
            choices=[v.value for v in NmsVariant],
            default=NmsVariant.MASKED.value,
            help="NMS variant",
        )
    _add_config_flags(cmd)
    cmd.add_argument("--valid", type=float, default=0.3, help="rescore a box needs to survive")
    cmd.add_argument("--score-mode", choices=SCORE_MODES, default=None, help="confidence combination")


def _nms_config(args: argparse.Namespace, parser: argparse.ArgumentParser, variants) -> NmsConfig:
    """The NmsConfig the flags describe, checked against each variant to run.

    A bad value is a usage error. gradcheck has no --valid, since the masked
    Jacobians it checks do not read the threshold.
    """
    if args.alpha < 0:
        parser.error(f"--alpha must be at least 0, got {args.alpha}")
    try:
        cfg = NmsConfig(
            nt=args.nt,
            valid_threshold=getattr(args, "valid", NmsConfig.valid_threshold),
            max_group_size=None if args.alpha == 0 else args.alpha,
            pruning=Pruning(args.pruning),
            tau=args.tau,
        )
        for variant in variants:
            _check_variant(variant, cfg.pruning)
    except ValueError as exc:
        parser.error(str(exc))
    return cfg


def _check_iou(args: argparse.Namespace, parser: argparse.ArgumentParser) -> None:
    if not 0.0 < args.iou <= 1.0:
        parser.error(f"--iou must lie in (0, 1], got {args.iou:g}")


def _load_scenes(args: argparse.Namespace) -> list[Scene]:
    if args.format == "jsonl":
        return read_scenes_jsonl(args.input)
    if os.path.isdir(args.input):
        return read_kitti_dir(args.input, labels_dir=args.labels)
    return [read_kitti_file(args.input, labels_dir=args.labels)]


def _write_scenes(args: argparse.Namespace, scenes: list[Scene]) -> None:
    if args.format == "jsonl":
        write_scenes_jsonl(args.out, scenes)
    elif os.path.isdir(args.input):
        write_kitti_dir(args.out, scenes)
    else:
        write_kitti_file(args.out, scenes[0])


def _write_csv(path: str, rows: list[list[str]]) -> None:
    with open(path, "w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerows(rows)


def cmd_synth(args: argparse.Namespace, parser: argparse.ArgumentParser) -> int:
    cfg = SyntheticConfig(
        seed=args.seed,
        num_scenes=args.scenes,
        num_objects=args.objects,
        proposals_per_object=args.proposals,
        center_jitter=args.center_jitter,
        size_jitter=args.size_jitter,
        score_noise=args.score_noise,
    )
    scenes = generate_synthetic(cfg)
    write_scenes_jsonl(args.out, scenes)
    print(f"wrote {len(scenes)} scenes to {args.out}")
    return 0


def cmd_run(args: argparse.Namespace, parser: argparse.ArgumentParser) -> int:
    variant = NmsVariant(args.nms)
    cfg = _nms_config(args, parser, [variant])
    scenes = _load_scenes(args)

    passes, index_maps, boxes = _corpus_results(scenes, cfg, [variant], args.score_mode)
    out_scenes = [
        _rescored_scene(scene, result, index_map, kept_only=not args.keep_all)
        for scene, result, index_map in zip(scenes, next(passes), index_maps)
    ]
    _write_scenes(args, out_scenes)
    boxes_in = sum(map(len, boxes))
    boxes_out = sum(len(s._columns("boxes")) for s in out_scenes)
    print(f"rescored {boxes_in} boxes over {len(scenes)} scenes; wrote {boxes_out} to {args.out}")
    return 0


def cmd_compare(args: argparse.Namespace, parser: argparse.ArgumentParser) -> int:
    try:
        variants = [NmsVariant(v.strip()) for v in args.nms.split(",") if v.strip()]
    except ValueError as exc:
        parser.error(str(exc))
    if len(variants) < 2:
        parser.error("--nms must list at least two variants to compare")
    for k, variant in enumerate(variants):
        if variant in variants[:k]:
            parser.error(f"--nms lists {variant.value} more than once")
    cfg = _nms_config(args, parser, variants)
    _check_iou(args, parser)
    scenes = _load_scenes(args)
    report = build_comparison(scenes, cfg, variants, args.score_mode, iou_threshold=args.iou)
    print(report.table())
    if args.out:
        _write_csv(args.out, report.rows())
        print(f"wrote report to {args.out}")
    return 0


def cmd_gradcheck(args: argparse.Namespace, parser: argparse.ArgumentParser) -> int:
    cfg = _nms_config(args, parser, [NmsVariant.MASKED])
    if cfg.pruning is Pruning.HARD:
        parser.error("gradcheck requires a soft pruning kind (linear, exp, or sigmoid)")
    if args.boxes < 4:
        parser.error(f"--boxes must be at least 4, got {args.boxes}")
    # Each trial holds several n x n arrays, so the cost grows quadratically.
    if args.boxes > 1000:
        parser.error(f"--boxes must be at most 1000, got {args.boxes}")
    if args.trials < 1:
        parser.error(f"--trials must be at least 1, got {args.trials}")
    if args.seed < 0:
        parser.error(f"--seed must be at least 0, got {args.seed}")
    if not (np.isfinite(args.eps) and args.eps > 0.0):
        parser.error(f"--eps must be finite and positive, got {args.eps:g}")
    if not args.tolerance >= 0.0:
        parser.error(f"--tolerance must be at least 0, got {args.tolerance:g}")
    rng = np.random.default_rng(args.seed)
    # Each trial draws its size, then its instance; the check draws nothing,
    # so checking the trials in batches leaves every draw where it was.
    instances = (random_instance(rng, int(rng.integers(4, args.boxes + 1))) for _ in range(args.trials))
    worst = None
    max_err = 0.0
    checked = skipped = 0
    failed = 0
    for trial, report in enumerate(_check_instances(instances, cfg, args.eps, args.tolerance)):
        checked += report.checked
        skipped += report.skipped
        if report.max_rel_error > max_err:
            max_err = report.max_rel_error
            worst = (trial, report.worst)
        if not report.passed:
            failed += 1
    status = "PASS" if failed == 0 else f"FAIL ({failed}/{args.trials} trials)"
    print(
        f"gradcheck pruning={cfg.pruning.value} tau={cfg.tau} trials={args.trials} "
        f"checked={checked} skipped={skipped}"
    )
    print(f"max_rel_error={max_err:.3e} worst={worst} tolerance={args.tolerance:g}: {status}")
    return 0 if failed == 0 else 1


def _json_number(fields: dict, key: str) -> float:
    """fields[key] as a float if it is a JSON number; DifficultyRule checks that it is finite."""
    value = fields[key]
    if not isinstance(value, bool) and isinstance(value, (int, float)):
        with contextlib.suppress(OverflowError):  # an integer too large for a float
            return float(value)
    raise ValueError(f"{key} must be a number, got {value!r}")


def _difficulty_rules(args: argparse.Namespace, parser: argparse.ArgumentParser) -> dict[str, DifficultyRule | None]:
    rules: dict[Difficulty, DifficultyRule] = dict(DEFAULT_DIFFICULTY_RULES)
    if args.difficulty_config:
        with open(args.difficulty_config, "r", encoding="utf-8") as handle:
            try:
                raw = json.load(handle)
            except ValueError as exc:
                raise ValueError(f"difficulty config: invalid JSON: {exc}") from None
            except RecursionError:
                raise ValueError("difficulty config: invalid JSON: nested too deeply") from None
        if not isinstance(raw, dict):
            raise ValueError(f"difficulty config: expected a JSON object of rules, got {type(raw).__name__}")
        names = [d.value for d in Difficulty]
        for name, fields in raw.items():
            if name not in names:
                raise ValueError(
                    f"difficulty config: rule {name!r}: unknown difficulty, expected one of {', '.join(names)}"
                )
            if not isinstance(fields, dict):
                raise ValueError(
                    f"difficulty config: rule {name!r}: expected an object with min_height, max_occlusion "
                    f"and max_truncation, got {type(fields).__name__}"
                )
            try:
                rules[Difficulty(name)] = DifficultyRule(
                    min_height=_json_number(fields, "min_height"),
                    max_occlusion=fields["max_occlusion"],
                    max_truncation=_json_number(fields, "max_truncation"),
                )
            except (KeyError, TypeError, ValueError) as exc:
                detail = f"missing key {exc}" if isinstance(exc, KeyError) else str(exc)
                raise ValueError(f"difficulty config: rule {name!r}: {detail}") from None
    if args.difficulty == "all":
        return {d.value: rules[d] for d in Difficulty}
    if args.difficulty == "none":
        return {"all boxes": None}
    return {args.difficulty: rules[Difficulty(args.difficulty)]}


def cmd_eval(args: argparse.Namespace, parser: argparse.ArgumentParser) -> int:
    _check_iou(args, parser)
    rules = _difficulty_rules(args, parser)
    scenes = _load_scenes(args)
    pairs = [(s._columns("boxes"), s._columns("gts")) for s in scenes]
    print(f"AP|R40 (IoU3D >= {args.iou:g}) over {len(scenes)} scenes")
    for name, rule in rules.items():
        ap = _eval_columns(pairs, args.iou, rule)
        print(f"  {name:<10} {'n/a (no ground truths)' if ap is None else format(ap, '.4f')}")
    return 0


def cmd_oracle(args: argparse.Namespace, parser: argparse.ArgumentParser) -> int:
    scenes = _load_scenes(args)
    out_scenes = _oracle_scenes(scenes, args.mode)
    _write_scenes(args, out_scenes)
    print(f"wrote {len(out_scenes)} scenes with {args.mode} oracle scores to {args.out}")
    return 0


def cmd_correlate(args: argparse.Namespace, parser: argparse.ArgumentParser) -> int:
    variant = NmsVariant(args.nms)
    cfg = _nms_config(args, parser, [variant])
    scenes = _load_scenes(args)
    result = score_iou_correlation(scenes, cfg, variant, args.score_mode)
    text = "n/a (needs two rows with variance)" if result.coefficient is None else f"{result.coefficient:.6f}"
    print(f"pearson(rescore, iou3d_rotated) = {text} over {len(result.rows)} kept boxes")
    if args.out:
        rows = [["scene_id", "box_index", "rescore", "iou3d_rotated", "iou3d_axis_aligned"]]
        rows += [
            [r.scene_id, str(r.box_index), repr(r.rescore), repr(r.iou3d_rotated), repr(r.iou3d_axis_aligned)]
            for r in result.rows
        ]
        _write_csv(args.out, rows)
        print(f"wrote scatter data to {args.out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="diffnms", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    synth = sub.add_parser("synth", help="generate synthetic scenes")
    synth.add_argument("--seed", type=int, default=0)
    synth.add_argument("--scenes", type=int, default=1)
    synth.add_argument("--objects", type=int, default=10)
    synth.add_argument("--proposals", type=int, default=20)
    synth.add_argument("--center-jitter", type=float, default=0.3)
    synth.add_argument("--size-jitter", type=float, default=0.05)
    synth.add_argument("--score-noise", type=float, default=0.0)
    synth.add_argument("--out", required=True)
    synth.set_defaults(func=cmd_synth)

    run = sub.add_parser("run", help="rescore detections with one NMS variant")
    _add_input_flags(run)
    _add_nms_flags(run)
    run.add_argument("--keep-all", action="store_true", help="write every box, not only survivors")
    run.add_argument("--out", required=True)
    run.set_defaults(func=cmd_run)

    compare = sub.add_parser("compare", help="compare kept sets and AP across variants")
    _add_input_flags(compare)
    _add_nms_flags(compare, multi_variant=True)
    compare.add_argument("--iou", type=float, default=0.7)
    compare.add_argument("--out", default=None, help="CSV report path")
    compare.set_defaults(func=cmd_compare)

    grad = sub.add_parser("gradcheck", help="verify analytic gradients with finite differences")
    _add_config_flags(grad)
    grad.add_argument("--seed", type=int, default=0)
    grad.add_argument("--trials", type=int, default=20)
    grad.add_argument("--boxes", type=int, default=12, help="maximum boxes per trial (4 to 1000)")
    grad.add_argument("--eps", type=float, default=1e-6)
    grad.add_argument("--tolerance", type=float, default=1e-4)
    grad.set_defaults(func=cmd_gradcheck)

    evaluate = sub.add_parser("eval", help="AP|R40 table per difficulty")
    _add_input_flags(evaluate)
    evaluate.add_argument("--iou", type=float, default=0.7)
    evaluate.add_argument(
        "--difficulty", choices=("all", "easy", "moderate", "hard", "none"), default="all"
    )
    evaluate.add_argument("--difficulty-config", default=None, help="JSON file overriding the rules")
    evaluate.set_defaults(func=cmd_eval)

    oracle = sub.add_parser("oracle", help="replace scores with best ground-truth overlap")
    _add_input_flags(oracle)
    oracle.add_argument("--mode", choices=("iou2d", "iou3d"), default="iou3d")
    oracle.add_argument("--out", required=True)
    oracle.set_defaults(func=cmd_oracle)

    correlate = sub.add_parser("correlate", help="post-NMS score versus IoU3D correlation")
    _add_input_flags(correlate)
    _add_nms_flags(correlate)
    correlate.add_argument("--out", default=None, help="CSV scatter path")
    correlate.set_defaults(func=cmd_correlate)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "labels", None) is not None and args.format != "kitti":
        parser.error("--labels needs --format kitti")
    try:
        return args.func(args, parser)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:
        print(f"error: out of memory: {exc}" if str(exc) else "error: out of memory", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
