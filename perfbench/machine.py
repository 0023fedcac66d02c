"""What the machine did during a run, read from ``/proc``.

These figures are reported next to the metrics, not as metrics: they let a
reader tell a run on a busy or throttled machine from a regression.
"""

from __future__ import annotations

import contextlib
import os
import subprocess
import sys
from pathlib import Path

THREAD_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
              "NUMEXPR_NUM_THREADS")


def cpu_times() -> list[int]:
    """The aggregate ``cpu`` line of ``/proc/stat`` (jiffies per state)."""
    with open("/proc/stat") as handle:
        return [int(value) for value in handle.readline().split()[1:]]


def steal_share(before: list[int], after: list[int]) -> float:
    """Share of busy CPU time the hypervisor stole between two readings."""
    delta = [b - a for a, b in zip(before, after)]
    idle = delta[3] + delta[4]
    busy = sum(delta[:8]) - idle
    return delta[7] / busy if busy > 0 else 0.0


def loadavg() -> float:
    """One-minute load average."""
    with open("/proc/loadavg") as handle:
        return float(handle.read().split()[0])


def thread_settings() -> dict:
    """The thread-count settings the run saw (the benchmark sets none)."""
    return {
        "env": {name: os.environ.get(name) for name in THREAD_ENV},
        "cpu_count": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
    }


#: One idle-class busy loop; it ends when the process that started it does.
_AWAKE_LOOP = ("import os, sys\n"
               "os.sched_setscheduler(0, os.SCHED_IDLE, os.sched_param(0))\n"
               "parent = int(sys.argv[1])\n"
               "while os.getppid() == parent:\n"
               "    pass\n")


@contextlib.contextmanager
def keep_awake():
    """Keep every CPU of the run out of idle; yields the loops' processes.

    On a VM a virtual CPU that goes idle is descheduled by the hypervisor
    and waits for the host to run it again when work arrives.  On a busy
    host that wait shows as steal and lands on whichever request woke the
    CPU, so request latency follows the host's load rather than the
    program's.  One ``SCHED_IDLE`` busy loop per CPU keeps the CPUs awake
    (as the kernel's ``idle=poll`` would) without taking their time: an
    idle-class task runs only when nothing else on its CPU can, and any
    other task that wakes preempts it.
    """
    loops = [subprocess.Popen([sys.executable, "-c", _AWAKE_LOOP, str(os.getpid())],
                              stdin=subprocess.DEVNULL)
             for _ in range(len(os.sched_getaffinity(0)))]
    try:
        yield loops
    finally:
        for loop in loops:
            loop.kill()
        for loop in loops:
            loop.wait()


def _status(pid: int) -> dict[str, str]:
    fields = {}
    with open(f"/proc/{pid}/status") as handle:
        for line in handle:
            key, _, value = line.partition(":")
            fields[key] = value.strip()
    return fields


def descendants(pid: int) -> list[int]:
    """Every live process below ``pid`` (scans ``/proc`` for parent links)."""
    parents: dict[int, list[int]] = {}
    for entry in Path("/proc").iterdir():
        if not entry.name.isdigit():
            continue
        try:
            stat = (entry / "stat").read_text()
        except OSError:
            continue
        ppid = int(stat.rsplit(")", 1)[1].split()[1])
        parents.setdefault(ppid, []).append(int(entry.name))
    found, frontier = [], [pid]
    while frontier:
        children = parents.get(frontier.pop(), [])
        found.extend(children)
        frontier.extend(children)
    return found


def peak_rss_mb(pids: list[int]) -> float:
    """Peak resident memory (``VmHWM``) summed over ``pids``, in MB."""
    return sum(int(_status(pid)["VmHWM"].split()[0]) for pid in pids) / 1024.0


def cpu_seconds(pids: list[int]) -> float:
    """User plus system CPU time consumed so far, summed over ``pids``."""
    ticks = 0
    for pid in pids:
        with open(f"/proc/{pid}/stat") as handle:
            fields = handle.read().rsplit(")", 1)[1].split()
        ticks += int(fields[11]) + int(fields[12])
    return ticks / os.sysconf("SC_CLK_TCK")


def threads(pids: list[int]) -> int:
    """Live threads summed over ``pids``."""
    return sum(int(_status(pid)["Threads"]) for pid in pids)
