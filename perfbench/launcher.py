"""Start the CLI processes of a benchmark run from a process that stays small.

run.py holds the checks' arrays in memory.  A child started straight from
it would count the parent's resident pages in its own peak RSS (Linux
charges the pre-exec address space to ``ru_maxrss``), so run.py starts
this launcher first and sends it one JSON request per line on stdin:
``{"cmd": [...], "env": {...}, "cwd": ..., "log": ...}``.  For each one
it runs the command to completion and answers with one JSON line holding
the exit code and the child's resource usage.
"""

import json
import os
import subprocess
import sys


def main() -> int:
    for line in sys.stdin:
        request = json.loads(line)
        with open(request["log"], "ab") as log:
            proc = subprocess.Popen(request["cmd"], stdout=log, stderr=log,
                                    env=request["env"], cwd=request["cwd"])
            _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
        print(json.dumps({
            "returncode": proc.returncode,
            "maxrss_kb": usage.ru_maxrss,
            "cpu_s": usage.ru_utime + usage.ru_stime,
            "minflt": usage.ru_minflt,
        }), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
