"""Start the benchmark's child processes and measure each one on its own.

    python3 -S bench/spawner.py

Reads one JSON request per line on stdin,
``{"argv": [...], "stdout": path, "stderr": path, "timeout": seconds}``,
runs it to the end, and answers one JSON line on stdout,
``{"code": exit code or null on timeout, "seconds": wall time, "maxrss_kib": peak RSS}``.

It is a process of its own, started with ``-S`` and few imports, because
Linux carries a parent's resident set into its child's ``ru_maxrss``
across fork and exec.  Spawned from here, a child's peak RSS has this
process's few MiB as its floor, below that of any Python program, instead of
the benchmark's own footprint.
"""

import json
import os
import signal
import sys
import time


def main() -> None:
    env = dict(os.environ)
    write = os.O_WRONLY | os.O_CREAT | os.O_TRUNC
    for line in sys.stdin:
        req = json.loads(line)
        actions = [
            (os.POSIX_SPAWN_OPEN, 0, os.devnull, os.O_RDONLY, 0),
            (os.POSIX_SPAWN_OPEN, 1, req["stdout"], write, 0o644),
            (os.POSIX_SPAWN_OPEN, 2, req["stderr"], write, 0o644),
        ]
        timed_out = []
        start = time.perf_counter()
        pid = os.posix_spawn(req["argv"][0], req["argv"], env, file_actions=actions)

        def kill(signum, frame, pid=pid):
            timed_out.append(pid)
            os.kill(pid, signal.SIGKILL)

        signal.signal(signal.SIGALRM, kill)
        signal.setitimer(signal.ITIMER_REAL, req["timeout"])
        _, status, usage = os.wait4(pid, 0)
        signal.setitimer(signal.ITIMER_REAL, 0)
        seconds = time.perf_counter() - start
        code = None if timed_out else os.waitstatus_to_exitcode(status)
        print(json.dumps({"code": code, "seconds": seconds, "maxrss_kib": usage.ru_maxrss}),
              flush=True)


if __name__ == "__main__":
    main()
