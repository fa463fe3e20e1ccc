"""Host-speed probe, run by the benchmark as a child process.

    python3 perfbench/speedprobe.py PERIOD_S

Prints ``ready``, then every PERIOD_S moves itself onto the CPU its parent
last ran on and times ``probe_loop`` there, until its standard input is
closed; then it prints the samples as one JSON object
``{"t": [start, ...], "c": [duration, ...]}``.  Times are
``time.perf_counter``, which on Linux reads the system-wide monotonic clock,
so they compare directly with the parent's.

The probe runs in its own process so that nothing the benchmarked program
does inside the benchmark's process (holding the GIL, long C calls, its own
threads) slows the probe; it runs on the parent's CPU because the host's
slowdowns differ between CPUs.
"""

from __future__ import annotations

import json
import os
import select
import sys
import time


def probe_loop() -> float:
    """Pure-Python arithmetic: the package's ops are interpreter-bound, and
    their speed followed this loop more closely than numpy-heavy loops."""
    s = 0.0
    for i in range(3000):
        s += (i * 0.5) % 7.0
    return s


def follow(pid: int) -> None:
    """Pin this process to the CPU that process ``pid`` last ran on."""
    try:
        with open(f"/proc/{pid}/stat", encoding="ascii") as fh:
            # field 39, "processor"; the fields after the command name
            # start at field 3
            cpu = int(fh.read().rsplit(")", 1)[1].split()[36])
        os.sched_setaffinity(0, {cpu})
    except (OSError, ValueError, IndexError):
        pass


def main() -> int:
    period = float(sys.argv[1])
    parent = os.getppid()
    t, c = [], []
    print("ready", flush=True)
    while True:
        follow(parent)
        t0 = time.perf_counter()
        probe_loop()
        t.append(t0)
        c.append(time.perf_counter() - t0)
        # the parent writes nothing: stdin turns readable only at its EOF
        if select.select([sys.stdin], [], [], period)[0]:
            break
    json.dump({"t": t, "c": c}, sys.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
