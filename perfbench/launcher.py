"""Starts benchmark jobs from a process whose own memory stays small.

Linux charges a new process's peak RSS (ru_maxrss) with the peak of the
process it was forked from, so jobs started by the harness would report the
harness's memory whenever it is the larger.  The harness instead starts
this process once, with `python -S`, and sends it one JSON request per line
on stdin:

    {"argv": [...], "env": {...}, "stdout": path, "stderr": path, "timeout": s}

It runs the job with stdin from /dev/null and its output in the two files,
kills it at the timeout, and answers with one JSON line per job: exit code,
wall seconds, the job's own cpu seconds and peak RSS, and whether it was
killed.  It exits at the end of its input.
"""

import json
import os
import signal
import sys
import time

_running = {"pid": None, "killed": False}


def _expire(signum, frame):
    if _running["pid"] is not None:
        _running["killed"] = True
        os.kill(_running["pid"], signal.SIGKILL)


def run(request: dict) -> dict:
    flags = os.O_WRONLY | os.O_CREAT | os.O_TRUNC
    actions = [
        (os.POSIX_SPAWN_OPEN, 0, os.devnull, os.O_RDONLY, 0),
        (os.POSIX_SPAWN_OPEN, 1, request["stdout"], flags, 0o644),
        (os.POSIX_SPAWN_OPEN, 2, request["stderr"], flags, 0o644),
    ]
    _running["killed"] = False
    start = time.perf_counter()
    pid = os.posix_spawn(request["argv"][0], request["argv"], request["env"],
                         file_actions=actions)
    _running["pid"] = pid
    signal.setitimer(signal.ITIMER_REAL, request["timeout"])
    try:
        _, status, usage = os.wait4(pid, 0)
        wall = time.perf_counter() - start
    finally:
        _running["pid"] = None
        signal.setitimer(signal.ITIMER_REAL, 0)
    return {
        "rc": os.waitstatus_to_exitcode(status),
        "wall": wall,
        "cpu": usage.ru_utime + usage.ru_stime,
        "rss_kb": usage.ru_maxrss,
        "killed": _running["killed"],
    }


def main() -> None:
    signal.signal(signal.SIGALRM, _expire)
    for line in sys.stdin:
        sys.stdout.write(json.dumps(run(json.loads(line))) + "\n")
        sys.stdout.flush()


if __name__ == "__main__":
    main()
