"""Run the isoprofile CLI as `python3 -m isoprofile.cli` does and record
this process's peak resident set size.

    python3 bench/peak_rss.py OUT_FILE CLI_ARGS...

At exit it writes VmHWM from /proc/self/status, in KiB, to OUT_FILE: the
high-water mark of this process's own address space since exec. The
ru_maxrss that os.wait4 returns is not used, because Linux folds into it
the high-water mark of the address space that exec replaced, which is the
benchmark's own, so it never reads below the size of the benchmark process.
"""

import atexit
import os
import runpy
import sys


def _record(path: str) -> None:
    with open("/proc/self/status") as status:
        kib = next(line.split()[1] for line in status if line.startswith("VmHWM:"))
    with open(path, "w") as out:
        out.write(kib)


if __name__ == "__main__":
    atexit.register(_record, sys.argv[1])
    sys.argv = ["isoprofile.cli", *sys.argv[2:]]
    sys.path[0] = os.getcwd()  # what -m puts first on the path
    runpy.run_module("isoprofile.cli", run_name="__main__", alter_sys=True)
