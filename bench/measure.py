"""Run one command and record its wall time, peak RSS and exit code.

    python3 -I -S bench/measure.py RESULT_JSON LOG -- COMMAND...

Linux keeps a process's peak RSS across exec, so a command spawned straight
from the benchmark, which holds generated tables and numpy, would report the
benchmark's peak instead of its own. Started from this small interpreter, the
command's peak RSS is its own. SIGTERM kills the command before this exits.
"""

import json
import os
import signal
import sys
import time


def main(argv: list[str]) -> int:
    if len(argv) < 4 or argv[2] != "--":
        print(__doc__, file=sys.stderr)
        return 2
    result, log, cmd = argv[0], argv[1], argv[3:]
    child = []
    signal.signal(signal.SIGTERM, lambda signum, frame: [os.kill(pid, signal.SIGKILL) for pid in child])
    fd = os.open(log, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644)
    actions = [(os.POSIX_SPAWN_DUP2, fd, 1), (os.POSIX_SPAWN_DUP2, fd, 2)]
    begin = time.perf_counter()
    child.append(os.posix_spawnp(cmd[0], cmd, os.environ, file_actions=actions))
    _, status, usage = os.wait4(child[0], 0)
    end = time.perf_counter()
    child.clear()
    os.close(fd)
    with open(result, "w", encoding="utf-8") as fh:
        json.dump({"seconds": end - begin, "peak_rss_kb": usage.ru_maxrss, "exit": os.waitstatus_to_exitcode(status)}, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
