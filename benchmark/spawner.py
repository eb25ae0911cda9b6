"""Start CLI processes on request and report their time and peak RSS.

A process started straight from the benchmark would carry the
benchmark's own resident high-water mark into its rusage: exec folds the
replaced address space's peak into ``ru_maxrss``, and Python spawns
children with vfork, whose address space is the parent's. This small
process is started before the benchmark allocates anything large, so
the children it starts report their own peak.

Children inherit this process's environment and working directory.
Protocol: one JSON request per stdin line (argv, stdout and stderr file
paths); one JSON reply per stdout line with the start time
(``time.perf_counter``), seconds from spawn to exit, exit code and
``ru_maxrss`` in KiB from ``os.wait4``.
"""

import json
import os
import subprocess
import sys
import time


def main() -> int:
    for line in sys.stdin:
        request = json.loads(line)
        with open(request["stdout"], "wb") as out, open(request["stderr"], "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(request["argv"], stdin=subprocess.DEVNULL, stdout=out,
                                    stderr=err)
            _, status, usage = os.wait4(proc.pid, 0)
            seconds = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        print(json.dumps({"start": start, "seconds": seconds, "exit": proc.returncode,
                          "maxrss_kib": usage.ru_maxrss}), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
