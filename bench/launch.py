"""Run one command; print its wall and CPU seconds, peak RSS and exit code.

    python3 launch.py STDOUT_FILE STDERR_FILE PROGRAM [ARG...]

The benchmark starts every measured command through this small process.
On Linux, exec records the peak RSS of the memory image it replaces in the
new program's ``ru_maxrss``, so a command started straight from the
benchmark, which holds numpy, scipy and the fixtures, would read at least
the benchmark's own peak.  Started from here, the floor is this process's
few MB.  The result is one JSON object on standard output.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time


def main(argv: list[str]) -> int:
    stdout_path, stderr_path, *command = argv
    with open(stdout_path, "wb") as out, open(stderr_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(command, stdin=subprocess.DEVNULL, stdout=out, stderr=err)
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    print(json.dumps({"wall": wall, "cpu": usage.ru_utime + usage.ru_stime,
                      "rss_mb": usage.ru_maxrss / 1024.0, "code": proc.returncode}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
