#!/usr/bin/env python3
"""Self-test of the benchmark harness. Run from the root of a checkout:

    python3 bench/selftest.py

It runs every workload at a tiny size, untraced and traced, and checks that
each metric of BENCHMARK.json is printed with its unit and that no operation
failed; that counters repeat exactly between two traced runs of one seed; that
a deliberately raised score in the ``run`` output is counted as a failure; and
that the benchmark refuses to run without the package sources.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import run

FAILURES: list[str] = []


def expect(condition: bool, message: str) -> None:
    print(("ok    " if condition else "FAIL  ") + message)
    if not condition:
        FAILURES.append(message)


def declared_metrics(section: str) -> dict[str, str]:
    with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    return {m["name"]: m["unit"] for m in spec[section]}


def check_workloads(cli: run.Cli) -> None:
    from workloads import WORKLOADS, shrink

    wanted = {0: declared_metrics("end_to_end"), 1: declared_metrics("per_layer")}
    for name, workload in WORKLOADS.items():
        counts = []
        for trace in (0, 1, 1):
            result = run.run_workload(shrink(workload), 3, 0.5, bool(trace), cli)["result"]
            printed = {k: v["unit"] for k, v in result["metrics"].items()}
            expect(printed == wanted[trace], f"{name} trace={trace}: every metric printed with its unit")
            expect(
                result["failed"] == 0 and result["correct"],
                f"{name} trace={trace}: {result['attempted']} operations, none failed",
            )
            if trace:
                counts.append({k: v["value"] for k, v in result["metrics"].items() if v["unit"] in ("count", "bytes")})
        expect(counts[0] == counts[1], f"{name}: counters repeat exactly across traced runs")


def check_corruption_is_counted(cli: run.Cli) -> None:
    import checks
    from workloads import WORKLOADS, cli_args, setup, shrink

    work = os.path.join(run.ROOT, ".bench_work", "selftest-corrupt")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    try:
        workload = shrink(WORKLOADS["sparse-jsonl"])
        corpus = setup(workload, 3, os.path.join(work, "corpus"))
        out_dir = os.path.join(work, "out")
        ref_dir = os.path.join(work, "ref")
        for directory in (out_dir, ref_dir):
            os.makedirs(directory)
            for command in ("run", "oracle"):
                cli.run(cli_args(command, corpus, directory, 3))

        clean = checks.Ops()
        run.check_outputs(corpus, out_dir, ref_dir, clean)
        expect(clean.failed == 0, "unmodified outputs pass every output check")

        path = corpus.output_path(out_dir, "run")
        with open(path, encoding="utf-8") as handle:
            lines = handle.read().splitlines()
        scene = json.loads(lines[0])
        scene["boxes"][0]["score"] += 0.25
        lines[0] = json.dumps(scene, separators=(",", ":"))
        with open(path, "w", encoding="utf-8") as handle:
            handle.write("\n".join(lines) + "\n")
        corrupted = checks.Ops()
        run.check_outputs(corpus, out_dir, ref_dir, corrupted)
        expect(
            corrupted.failed == 2 and any("outside" in p for p in corrupted.problems),
            f"a raised score fails the bound and byte-identity checks: {corrupted.problems}",
        )
    finally:
        shutil.rmtree(work, ignore_errors=True)


def check_refuses_without_sources() -> None:
    bare = os.path.join(run.ROOT, ".bench_work", "selftest-bare")
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(os.path.dirname(os.path.abspath(__file__)), os.path.join(bare, "bench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), bare)
    try:
        done = subprocess.run(
            [sys.executable, "bench/run.py", "--workload", "sparse-jsonl", "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=180,
        )
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    expect(done.returncode != 0 and '"metrics"' not in done.stdout, "without src/ the benchmark exits non-zero and prints no result")


def main() -> int:
    check_refuses_without_sources()
    if run.SRC not in sys.path:
        sys.path.insert(0, run.SRC)
    cli = run.Cli()
    try:
        check_corruption_is_counted(cli)
        check_workloads(cli)
    finally:
        cli.close()
    print(f"{len(FAILURES)} failure(s)")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
