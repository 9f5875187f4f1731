"""Launches and times ``diffnms`` subprocesses on behalf of the benchmark.

Linux charges a child with its parent's peak resident memory when the child is
spawned, so a CLI started straight from the benchmark process, which holds the
corpus in memory, would report the benchmark's peak instead of its own. This
small process is started before the benchmark loads anything and starts every
timed subprocess, so ``ru_maxrss`` is the CLI's own peak.

Protocol: one JSON request per line on stdin,
``{"argv": [...], "env": {...}, "cwd": ..., "stdout": path, "stderr": path, "timeout": s}``,
answered by one JSON line on stdout, ``{"wall": s, "maxrss_kb": n, "code": n}``.
End of input ends the process.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import threading
import time


def run(request: dict) -> dict:
    with open(request["stdout"], "wb") as out, open(request["stderr"], "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(request["argv"], stdout=out, stderr=err, env=request["env"], cwd=request["cwd"])
        watchdog = threading.Timer(request["timeout"], proc.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            watchdog.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {"wall": wall, "maxrss_kb": usage.ru_maxrss, "code": proc.returncode}


def main() -> None:
    for line in sys.stdin:
        sys.stdout.write(json.dumps(run(json.loads(line))) + "\n")
        sys.stdout.flush()


if __name__ == "__main__":
    main()
