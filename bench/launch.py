"""Run one command and print its wall time and its own resource usage as JSON.

    python bench/launch.py LOG TIMEOUT_S -- COMMAND...

The command's stdout and stderr go to LOG.out and LOG.err. On Linux a
process keeps the peak RSS of the process it was forked from, so a command
started directly by the benchmark would report at least the benchmark's own
RSS as its ``ru_maxrss``. Started from this small launcher, the floor is the
launcher's few MiB. The command is killed after TIMEOUT_S seconds.
"""

import json
import os
import signal
import sys
import time


def main() -> int:
    log, timeout = sys.argv[1], int(sys.argv[2])
    argv = sys.argv[4:] if sys.argv[3] == "--" else sys.argv[3:]
    flags = os.O_WRONLY | os.O_CREAT | os.O_TRUNC
    actions = [(os.POSIX_SPAWN_OPEN, 1, log + ".out", flags, 0o644), (os.POSIX_SPAWN_OPEN, 2, log + ".err", flags, 0o644)]
    started = time.perf_counter()
    pid = os.posix_spawnp(argv[0], argv, os.environ, file_actions=actions)
    signal.signal(signal.SIGALRM, lambda signum, frame: os.kill(pid, signal.SIGKILL))
    signal.alarm(timeout)
    _, status, rusage = os.wait4(pid, 0)
    wall = time.perf_counter() - started
    signal.alarm(0)
    print(json.dumps({
        "wall_s": wall,
        "code": os.waitstatus_to_exitcode(status),
        "cpu_s": rusage.ru_utime + rusage.ru_stime,
        "maxrss_kib": rusage.ru_maxrss,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
