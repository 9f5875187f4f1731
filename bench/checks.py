"""Output checks and failure accounting.

A failed check is counted, never raised: the run goes on and reports how many
of its operations failed.
"""

from __future__ import annotations

import hashlib
import os
import re

from diffnms import NmsVariant, Scene, eval_ap_r40, rescore_scene, rescored_boxes

from mirror import HARD


class Ops:
    """Attempted and failed operations, with the first problems kept for the report."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def check(self, what: str, problems: list[str]) -> bool:
        self.attempted += 1
        if problems:
            self.failed += 1
            if len(self.problems) < 20:
                extra = f" (+{len(problems) - 1} more)" if len(problems) > 1 else ""
                self.problems.append(f"{what}: {problems[0]}{extra}")
        return not problems


def process_problems(code: int, stdout: str, stderr: str) -> list[str]:
    """A subcommand must exit 0, print nothing on stderr and no traceback."""
    problems = []
    if code != 0:
        problems.append(f"exit code {code}")
    if stderr:
        problems.append(f"stderr: {stderr.strip()[:200]}")
    if "Traceback" in stdout:
        problems.append("traceback on stdout")
    return problems


def gradcheck_problems(stdout: str) -> list[str]:
    lines = stdout.strip().splitlines()
    return [] if lines and lines[-1].endswith(": PASS") else [f"gradcheck did not pass: {stdout.strip()[-200:]}"]


def gradcheck_coords(stdout: str) -> int:
    """Checked plus skipped coordinates reported by ``diffnms gradcheck``."""
    match = re.search(r"checked=(\d+) skipped=(\d+)", stdout)
    return int(match.group(1)) + int(match.group(2)) if match else 0


def digest(path: str) -> str:
    """SHA-256 over a file, or over a directory's files in name order."""
    h = hashlib.sha256()
    names = sorted(os.listdir(path)) if os.path.isdir(path) else [""]
    for name in names:
        h.update(name.encode())
        with open(os.path.join(path, name) if name else path, "rb") as handle:
            h.update(handle.read())
    return h.hexdigest()


def identical_problems(got: str, want: str) -> list[str]:
    return [] if digest(got) == digest(want) else [f"{got} differs from the in-process output {want}"]


def rescore_problems(inputs: list[Scene], outputs: list[Scene]) -> list[str]:
    """Every written box is an input box whose new score lies in [0, its input score].

    ``run`` writes the surviving boxes of each scene in input order, so each
    output box is matched to the next input box with the same geometry.
    """
    if [s.scene_id for s in outputs] != [s.scene_id for s in inputs]:
        return ["output scenes differ from the input scenes"]
    problems = []
    for source, written in zip(inputs, outputs):
        k = 0
        for box in written.boxes:
            key = (box.rect, box.cuboid)
            while k < len(source.boxes) and (source.boxes[k].rect, source.boxes[k].cuboid) != key:
                k += 1
            if k == len(source.boxes):
                problems.append(f"{source.scene_id}: written box has no matching input box")
                break
            if not 0.0 <= box.score <= source.boxes[k].score:
                problems.append(
                    f"{source.scene_id}: rescore {box.score!r} outside [0, {source.boxes[k].score!r}]"
                )
            k += 1
    return problems


def oracle_ap_problems(oracle_scenes: list[Scene]) -> list[str]:
    """Oracle scores plus classical NMS must give AP|R40 = 100 at IoU 0.7."""
    pairs = []
    for scene in oracle_scenes:
        result, index_map = rescore_scene(scene, HARD, NmsVariant.CLASSICAL)
        pairs.append((rescored_boxes(scene, result, index_map), scene.gts))
    ap = eval_ap_r40(pairs, 0.7)
    return [] if ap == 100.0 else [f"oracle AP|R40 is {ap}, expected 100.0"]
