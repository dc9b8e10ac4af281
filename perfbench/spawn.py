"""Run one command; write its wall time, wait status and peak RSS as JSON.

    python3 -S perfbench/spawn.py REPORT_PATH COMMAND [ARG...]

run.py starts every timed invocation through this small process.  Linux
keeps a process's RSS high-water mark across exec, and a forked child starts
with its parent's pages, so a child forked straight from the benchmark would
report at least the benchmark's own RSS.  This process stays small, so the
command's `ru_maxrss` is its own, and the wall time excludes this process's
start-up.
"""
import json
import os
import signal
import sys
import time


def main() -> int:
    report, argv = sys.argv[1], sys.argv[2:]
    # SIGTERM (the benchmark's timeout) kills the command, which is then
    # reaped below, so nothing outlives this process.
    child = []

    def stop(signum, frame):
        for pid in child:
            os.kill(pid, signal.SIGKILL)

    signal.signal(signal.SIGTERM, stop)
    start = time.perf_counter()
    child.append(os.posix_spawn(argv[0], argv, os.environ))
    _, status, usage = os.wait4(child[0], 0)
    wall = time.perf_counter() - start
    with open(report, "w") as fh:
        json.dump({"maxrss_kb": usage.ru_maxrss, "status": status,
                   "wall_s": wall}, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
