#!/usr/bin/env python3
"""Benchmark of the diffnms CLI and of its differentiable training step.

Run from the root of a checkout:

    python3 bench/run.py --workload sparse-jsonl --seed 1 --seconds 40 --trace 0

With ``--trace 0`` every ``diffnms`` subcommand runs as a subprocess, with the
environment users get (NMS_THREADS unset), and the training step is timed in
this process; the end-to-end metrics are printed, each time scaled to a
machine of fixed speed by reference probes taken between the operations
(see reference.py). With ``--trace 1`` the same
work runs in-process under spans and the per-layer metrics are printed. The
last line of standard output is one JSON object; see bench/README.md.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")

MIN_ROUNDS = 3
EPOCH_STEPS = 28
TRAIN_STEPS = 4 * EPOCH_STEPS
MIN_TRACE_PASSES = 3
CLI_TIMEOUT_S = 150.0
COMMAND_BOXES = ("run", "compare", "eval", "oracle", "correlate")

END_TO_END = {
    "setup_s": "s",
    **{f"{c}.boxes_per_s": "boxes/s" for c in COMMAND_BOXES},
    "train_step.p50_ms": "ms",
    "train_step.p90_ms": "ms",
    "gradcheck.coords_per_s": "coords/s",
    "peak_rss_mb": "MB",
}

# Self time in seconds of the spans with the same name, "_s" dropped.
LAYER_TIMES = (
    "io_jsonl.read_s", "io_jsonl.write_s", "io_kitti.read_dir_s", "io_kitti.write_dir_s",
    "geometry.overlap_matrix_s", "geometry.iou3d_s", "geometry.giou3d_s",
    "nms.classical_s", "nms.soft_s", "nms.masked_s", "nms.full_inverse_s",
    "nms.grouped_inverse_s", "nms.group_boxes_s",
    "gradients.masked_backward_s", "gradients.fd_check_s",
    "ranking.eval_ap_r40_s", "ranking.assign_targets_s", "ranking.ap_loss_s",
    "harness.rescore_scene_s", "harness.rescored_boxes_s", "harness.oracle_scores_s",
    "harness.build_comparison_s", "harness.score_iou_correlation_s",
    "synthetic.generate_s",
)
LAYER_COUNTS = (
    "io_jsonl.bytes", "io_kitti.files", "io_kitti.rows",
    "geometry.overlap_pairs", "geometry.iou3d_pairs", "geometry.giou3d_pairs",
    "nms.groups", "nms.capped_out", "nms.kept", "nms.clip_active_rows",
    "gradients.fd_checked", "gradients.fd_skipped",
)
PER_LAYER = {
    **{name: "s" for name in LAYER_TIMES},
    **{name: ("bytes" if name.endswith("bytes") else "count") for name in LAYER_COUNTS},
    "geometry.iou3d_us_per_pair": "us",
    "cli.startup_s": "s",
    "cli.overhead_s": "s",
    "trace.overhead_s": "s",
}


@dataclass
class CliRun:
    wall: float
    rss_mb: float
    code: int
    stdout: str
    stderr: str


class Cli:
    """Runs ``python -m diffnms.cli`` through the launcher process (see launch.py).

    The launcher is started before the benchmark imports numpy or builds a
    corpus, and the subprocesses get the environment users get: NMS_THREADS
    unset, the package on PYTHONPATH.
    """

    def __init__(self) -> None:
        env = dict(os.environ)
        env.pop("NMS_THREADS", None)
        env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
        self.env = env
        self.log_dir = os.path.join(ROOT, ".bench_work", f"cli-{os.getpid()}")
        os.makedirs(self.log_dir, exist_ok=True)
        launcher = os.path.join(os.path.dirname(os.path.abspath(__file__)), "launch.py")
        self.proc = subprocess.Popen(
            [sys.executable, launcher], stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True
        )

    def run(self, args: list[str]) -> CliRun:
        out_path = os.path.join(self.log_dir, "stdout.txt")
        err_path = os.path.join(self.log_dir, "stderr.txt")
        request = {
            "argv": [sys.executable, "-m", "diffnms.cli", *args],
            "env": self.env,
            "cwd": ROOT,
            "stdout": out_path,
            "stderr": err_path,
            "timeout": CLI_TIMEOUT_S,
        }
        self.proc.stdin.write(json.dumps(request) + "\n")
        self.proc.stdin.flush()
        reply = json.loads(self.proc.stdout.readline())
        with open(out_path, encoding="utf-8", errors="replace") as handle:
            stdout = handle.read()
        with open(err_path, encoding="utf-8", errors="replace") as handle:
            stderr = handle.read()
        return CliRun(reply["wall"], reply["maxrss_kb"] / 1024.0, reply["code"], stdout, stderr)

    def close(self) -> None:
        self.proc.stdin.close()
        try:
            self.proc.wait(timeout=CLI_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()
        shutil.rmtree(self.log_dir, ignore_errors=True)


def git_sha() -> str:
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return "unknown"
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def metadata(workload, seed: int, corpus) -> dict:
    import numpy
    from diffnms import harness

    # None once the package no longer maps scenes over a thread pool.
    thread_count = getattr(harness, "thread_count", None)
    return {
        "git_sha": git_sha(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "cpus_used": sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "scene_workers": thread_count() if thread_count else None,
        "loadavg_at_start": os.getloadavg()[0],
        "workload": workload.name,
        "seed": seed,
        "scenes": len(corpus.scenes),
        "boxes": corpus.boxes,
        "gts": corpus.gts,
        "bytes": corpus.bytes,
        "train_boxes": [int(img.scores.size) for img in corpus.train],
    }


class Trainer:
    """Training epochs of EPOCH_STEPS steps, each from the initial scores, a few steps at a time.

    Every step must give a finite loss, and each epoch must end with a lower
    AP loss than it started with.
    """

    def __init__(self, images, ops, tracer) -> None:
        self.images = images
        self.ops = ops
        self.tracer = tracer
        self.times: list[float] = []
        self.done = 0
        self.step = 0
        self.scores: list = []
        self.loss_before = 0.0

    def run(self, steps: int) -> None:
        import mirror

        for _ in range(steps):
            if self.step == 0:
                self.scores = [img.scores.copy() for img in self.images]
                self.loss_before = mirror.ap_loss(self.images, self.scores)
            start = time.perf_counter()
            try:
                loss = mirror.train_step(self.tracer, self.images, self.scores, self.step)
            except (ValueError, FloatingPointError) as exc:
                self.ops.check("train step", [str(exc)])
            else:
                self.times.append(time.perf_counter() - start)
                self.ops.check("train step", [] if math.isfinite(loss) else [f"loss {loss}"])
            self.done += 1
            self.step += 1
            if self.step == EPOCH_STEPS:
                self.step = 0
                after = mirror.ap_loss(self.images, self.scores)
                problems = [] if after < self.loss_before else [f"AP loss {self.loss_before} -> {after}"]
                self.ops.check("train loss decreases", problems)



def check_outputs(corpus, out_dir: str, ref_dir: str, ops) -> None:
    """Bounds of the run output, byte identity with the in-process outputs, oracle AP."""
    import checks
    import mirror
    from spans import NO_TRACE

    run_out = corpus.output_path(out_dir, "run")
    oracle_out = corpus.output_path(out_dir, "oracle")
    ops.check("run output bytes", checks.identical_problems(run_out, corpus.output_path(ref_dir, "run")))
    ops.check("oracle output bytes", checks.identical_problems(oracle_out, corpus.output_path(ref_dir, "oracle")))
    inputs = mirror.load(NO_TRACE, corpus)
    ops.check("run rescore bounds", checks.rescore_problems(inputs, mirror.read(NO_TRACE, corpus.fmt, run_out)))
    ops.check("oracle AP|R40", checks.oracle_ap_problems(mirror.read(NO_TRACE, corpus.fmt, oracle_out)))


def measure(workload, seed: int, seconds: float, work: str, cli: Cli):
    """The untraced run: set-up, then rounds of every subcommand plus training epochs.

    Every timing is scaled to the nominal machine by the reference probes
    taken between the measured operations (see reference.py).
    """
    import checks
    import mirror
    from reference import SpeedClock
    from spans import NO_TRACE
    from workloads import COMMANDS, cli_args, setup

    ops = checks.Ops()
    clock = SpeedClock()
    start = time.perf_counter()
    corpus = setup(workload, seed, os.path.join(work, "corpus"))
    raw_setup = [time.perf_counter() - start]
    setup_times = [raw_setup[0] * clock.interval()]
    meta = metadata(workload, seed, corpus)
    # The corpus held here is not the program's heap: keep it out of the
    # collections that the timed training steps trigger.
    gc.collect()
    gc.freeze()

    out_dir = os.path.join(work, "out")
    os.makedirs(out_dir)
    walls: dict[str, list[float]] = {c: [] for c in COMMANDS}
    raw_walls: dict[str, list[float]] = {c: [] for c in COMMANDS}
    step_times: list[float] = []
    round_rss: list[float] = []
    first_digest: dict[str, str] = {}
    coords = 0
    trainer = Trainer(corpus.train, ops, NO_TRACE)

    def train(steps: int) -> float:
        """Run steps, probe the machine, and keep the steps' scaled times."""
        done = len(trainer.times)
        trainer.run(steps)
        scale = clock.interval()
        step_times.extend(t * scale for t in trainer.times[done:])
        return scale

    start = time.perf_counter()
    deadline = start + seconds
    rounds = 0
    while True:
        round_start = time.perf_counter()
        peak = 0.0
        for command in COMMANDS:
            done = cli.run(cli_args(command, corpus, out_dir, seed))
            peak = max(peak, done.rss_mb)
            ops.check(f"{command} process", checks.process_problems(done.code, done.stdout, done.stderr))
            if command == "gradcheck":
                ops.check("gradcheck PASS", checks.gradcheck_problems(done.stdout))
                coords = checks.gradcheck_coords(done.stdout)
            if command in ("run", "oracle"):
                got = checks.digest(corpus.output_path(out_dir, command))
                want = first_digest.setdefault(command, got)
                ops.check(f"{command} output repeats", [] if got == want else ["output changed between rounds"])
            # Train steps keep pace with the clock, so they sample the whole run.
            due = math.ceil(TRAIN_STEPS * (time.perf_counter() - start) / seconds)
            scale = train(min(due, TRAIN_STEPS) - trainer.done)
            walls[command].append(done.wall * scale)
            raw_walls[command].append(done.wall)
        round_rss.append(peak)
        # Set-up is timed again every round, so its median samples the whole run too.
        repeat_dir = os.path.join(work, "setup-repeat")
        shutil.rmtree(repeat_dir, ignore_errors=True)
        gc.unfreeze()
        setup_start = time.perf_counter()
        setup(workload, seed, repeat_dir)
        raw_setup.append(time.perf_counter() - setup_start)
        setup_times.append(raw_setup[-1] * clock.interval())
        gc.collect()
        gc.freeze()
        rounds += 1
        now = time.perf_counter()
        if rounds >= MIN_ROUNDS and now + (now - round_start) > deadline:
            break
    train(TRAIN_STEPS - trainer.done)
    train((EPOCH_STEPS - trainer.step) % EPOCH_STEPS)
    gc.unfreeze()

    ref_dir = os.path.join(work, "ref")
    os.makedirs(ref_dir)
    mirror.cmd_run(NO_TRACE, corpus, corpus.output_path(ref_dir, "run"))
    mirror.cmd_oracle(NO_TRACE, corpus, corpus.output_path(ref_dir, "oracle"))
    check_outputs(corpus, out_dir, ref_dir, ops)

    median = statistics.median
    metrics = {"setup_s": median(setup_times)}
    for command in COMMAND_BOXES:
        metrics[f"{command}.boxes_per_s"] = corpus.boxes / median(walls[command])
    metrics["train_step.p50_ms"] = 1e3 * median(step_times)
    metrics["train_step.p90_ms"] = 1e3 * statistics.quantiles(step_times, n=10)[8]
    metrics["gradcheck.coords_per_s"] = coords / median(walls["gradcheck"])
    metrics["peak_rss_mb"] = median(round_rss)
    meta.update(
        rounds=rounds,
        train_steps=len(step_times),
        setup_repeats=len(setup_times),
        probe_median_s=round(median(clock.probes), 5),
        probe_samples_s=[round(p, 5) for p in clock.probes],
        raw_setup_median_s=round(median(raw_setup), 4),
        raw_step_median_ms=round(1e3 * median(trainer.times), 3),
        raw_cli_median_s={command: round(median(raw_walls[command]), 4) for command in COMMANDS},
        cli_median_s={command: round(median(walls[command]), 4) for command in COMMANDS},
        cli_samples_s={command: [round(w, 4) for w in walls[command]] for command in COMMANDS},
        raw_cli_samples_s={command: [round(w, 4) for w in raw_walls[command]] for command in COMMANDS},
        step_samples_ms=[round(1e3 * t, 2) for t in step_times],
    )
    return metrics, END_TO_END, ops, meta


def in_process_pass(workload, seed: int, tracer, directory: str, ops):
    """Set-up, every subcommand, the layer replays, one training epoch: all in-process."""
    import checks
    import mirror
    from workloads import setup

    corpus = setup(workload, seed, os.path.join(directory, "corpus"), tracer)
    mirror.cmd_run(tracer, corpus, corpus.output_path(directory, "run"))
    mirror.cmd_compare(tracer, corpus)
    mirror.cmd_eval(tracer, corpus)
    mirror.cmd_oracle(tracer, corpus, corpus.output_path(directory, "oracle"))
    mirror.cmd_correlate(tracer, corpus)
    ops.check("in-process gradcheck", [] if mirror.cmd_gradcheck(tracer, seed) else ["gradcheck failed"])
    mirror.replay_layers(tracer, corpus.scenes, corpus.train)
    lost = mirror.replay_other_format(tracer, corpus, directory)
    ops.check("format round trip", [f"{lost} records lost"] if lost else [])
    Trainer(corpus.train, ops, tracer).run(EPOCH_STEPS)
    return corpus


def traced(workload, seed: int, seconds: float, work: str, cli: Cli):
    """The traced run: per-layer self times and counters, and the cost of tracing."""
    import checks
    from spans import Tracer, write_trace
    from workloads import COMMANDS, cli_args, setup

    ops = checks.Ops()
    deadline = time.perf_counter() + seconds
    corpus = setup(workload, seed, os.path.join(work, "corpus"))
    meta = metadata(workload, seed, corpus)
    out_dir = os.path.join(work, "cli")
    os.makedirs(out_dir)
    cli_walls = {}
    for command in COMMANDS:
        done = cli.run(cli_args(command, corpus, out_dir, seed))
        cli_walls[command] = done.wall
        ops.check(f"{command} process", checks.process_problems(done.code, done.stdout, done.stderr))
    startup = [cli.run(["--help"]).wall for _ in range(3)]

    walls: dict[bool, list[float]] = {False: [], True: []}
    tracers: list[Tracer] = []
    counts: dict[str, int] | None = None
    passes = 0
    # Traced and untraced passes alternate, starting and ending traced, so
    # the counters of two traced passes can be compared.
    while True:
        enabled = passes % 2 == 0
        tracer = Tracer(enabled)
        gc.collect()
        gc.freeze()
        directory = os.path.join(work, f"pass-{passes}")
        start = time.perf_counter()
        in_process_pass(workload, seed, tracer, directory, ops)
        walls[enabled].append(time.perf_counter() - start)
        gc.unfreeze()
        if enabled:
            for command in ("run", "oracle"):
                ops.check(
                    f"{command} CLI matches in-process",
                    checks.identical_problems(
                        corpus.output_path(out_dir, command), corpus.output_path(directory, command)
                    ),
                )
            tracers.append(tracer)
            counts = dict(tracer.counts) if counts is None else counts
            ops.check("counters repeat", [] if dict(tracer.counts) == counts else ["counters changed"])
        shutil.rmtree(directory)
        passes += 1
        now = time.perf_counter()
        if passes >= MIN_TRACE_PASSES and enabled and now + 2 * walls[True][-1] > deadline:
            break

    trace_dir = os.path.join(ROOT, ".bench_out")
    os.makedirs(trace_dir, exist_ok=True)
    trace_path = os.path.join(trace_dir, f"trace-{workload.name}-{seed}.jsonl")
    write_trace(trace_path, tracers)

    median = statistics.median
    self_times = [tracer.self_seconds() for tracer in tracers]
    root_times = [sum(tracer.total_seconds(f"cli.{c}") for c in COMMANDS) for tracer in tracers]
    metrics = {}
    for name in LAYER_TIMES:
        metrics[name] = median(times.get(name[:-2], 0.0) for times in self_times)
    for name in LAYER_COUNTS:
        metrics[name] = counts.get(name, 0)
    pairs = counts.get("geometry.iou3d_pairs", 0)
    metrics["geometry.iou3d_us_per_pair"] = 1e6 * metrics["geometry.iou3d_s"] / pairs if pairs else 0.0
    metrics["cli.startup_s"] = median(startup)
    metrics["cli.overhead_s"] = sum(cli_walls.values()) - median(root_times)
    metrics["trace.overhead_s"] = median(walls[True]) - median(walls[False])
    meta.update(traced_passes=len(walls[True]), untraced_passes=len(walls[False]),
                trace_file=os.path.relpath(trace_path, ROOT), spans_per_pass=len(tracers[0].names))
    return metrics, PER_LAYER, ops, meta


def run_workload(workload, seed: int, seconds: float, trace: bool, cli: Cli) -> dict:
    """Measure one workload and return the result object that is printed last."""
    work = os.path.join(ROOT, ".bench_work", f"{workload.name}-{seed}-{os.getpid()}")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    try:
        run = traced if trace else measure
        values, units, ops, meta = run(workload, seed, seconds, work, cli)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
    meta["ops_failed_share"] = ops.failed / ops.attempted
    meta["problems"] = ops.problems
    return {
        "meta": meta,
        "result": {"correct": ops.failed == 0, "attempted": ops.attempted, "failed": ops.failed, "metrics": metrics},
    }


def pin_to_one_cpu() -> None:
    """Run this process, and every process it starts, on one CPU.

    On a shared 2-vCPU machine the second vCPU came and went for minutes at
    a time, and took the scene thread pool's parallel gain with it: `run` on
    dense-jsonl took 0.42 s or 0.70 s depending on the minute. On one CPU,
    every timing depends on one CPU's speed, which the reference probes,
    taken on that same CPU, scale out.
    """
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "diffnms", "__init__.py")):
        print(f"error: no diffnms package under {SRC}; run from a checkout of the repository", file=sys.stderr)
        return 2
    if args.seed < 0:
        print("error: --seed must be non-negative", file=sys.stderr)
        return 2
    pin_to_one_cpu()
    cli = Cli()
    try:
        if SRC not in sys.path:
            sys.path.insert(0, SRC)
        from workloads import WORKLOADS

        if args.workload not in WORKLOADS:
            print(f"error: unknown workload {args.workload!r}; choose from {', '.join(WORKLOADS)}", file=sys.stderr)
            return 2
        report = run_workload(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace), cli)
    finally:
        cli.close()
    print("meta " + json.dumps(report["meta"], sort_keys=True))
    for name, metric in report["result"]["metrics"].items():
        print(f"  {name:<34} {metric['value']:>16.6g} {metric['unit']}")
    print(json.dumps(report["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
