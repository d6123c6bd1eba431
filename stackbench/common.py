"""Measurement and placement helpers shared by the workloads.

Everything here reads the benchmark's own clocks and the kernel's
per-process accounting under ``/proc``, or sets the CPU affinity of the
benchmark's own process tree; nothing reaches into the program under test.
"""

from __future__ import annotations

import os
import threading
import time

_TICK = os.sysconf("SC_CLK_TCK")


def _descendants(root: int) -> list[int]:
    """Pids of every live process below ``root`` (children, grandchildren)."""
    parent: dict[int, int] = {}
    for name in os.listdir("/proc"):
        if not name.isdigit():
            continue
        try:
            with open(f"/proc/{name}/stat") as fh:
                stat = fh.read()
        except OSError:
            continue
        fields = stat[stat.rfind(")") + 2:].split()
        parent[int(name)] = int(fields[1])
    out, frontier = [], [root]
    while frontier:
        pid = frontier.pop()
        kids = [p for p, pp in parent.items() if pp == pid]
        out.extend(kids)
        frontier.extend(kids)
    return out


def _proc_cpu_s(pid: int) -> float:
    """User + system CPU seconds of one process (kernel tick resolution)."""
    try:
        with open(f"/proc/{pid}/stat") as fh:
            stat = fh.read()
    except OSError:
        return 0.0
    fields = stat[stat.rfind(")") + 2:].split()
    return (int(fields[11]) + int(fields[12])) / _TICK


def _proc_hwm_kb(pid: int) -> int:
    """Peak resident set (VmHWM) of one process in KiB."""
    try:
        with open(f"/proc/{pid}/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


def pin_self() -> tuple[int, int]:
    """Pin this process to its first allowed CPU.

    Returns ``(own_cpu, worker_cpu)``: the last allowed CPU is left for
    worker processes (the same CPU when only one is allowed).  On the 2-vCPU
    VM the benchmark was built on, the serving stack's GIL-bound threads
    floating over both CPUs ran search-closed at 53-79 req/s and 13 ms of
    CPU per request, pinned at 150-160 req/s and 6.5 ms: the unpinned
    figures measure cross-CPU lock hand-offs and the host's scheduling, not
    the program, and wander by 2x from run to run.
    """
    cpus = sorted(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpus[0]})
    return cpus[0], cpus[-1]


def pin_descendants(cpu: int) -> None:
    """Move every process this one started (workers) onto ``cpu``."""
    for pid in _descendants(os.getpid()):
        try:
            os.sched_setaffinity(pid, {cpu})
        except OSError:
            pass


class ProcessAccounting:
    """CPU of this process plus every process it started, over a window.

    Worker processes (and the multiprocessing fork server that starts
    them) are found as descendants of this process; each one's CPU is read
    from ``/proc/<pid>/stat`` at the window's start and end.
    """

    def __init__(self):
        self._me = os.getpid()
        self._start: dict[int, float] = {}
        self._self0 = 0.0

    def _self_cpu(self) -> float:
        t = os.times()
        return t.user + t.system

    def start(self) -> None:
        self._self0 = self._self_cpu()
        self._start = {p: _proc_cpu_s(p) for p in _descendants(self._me)}

    def stop(self) -> float:
        """CPU seconds spent by the whole process tree since :meth:`start`."""
        total = self._self_cpu() - self._self0
        for pid in _descendants(self._me):
            total += _proc_cpu_s(pid) - self._start.get(pid, 0.0)
        return total

    def peak_rss_mb(self) -> float:
        """Peak RSS summed over this process and its live descendants."""
        kb = _proc_hwm_kb(self._me)
        kb += sum(_proc_hwm_kb(p) for p in _descendants(self._me))
        return kb / 1024.0


class Samples:
    """Thread-safe named sample lists and counters for one run."""

    def __init__(self):
        self._lock = threading.Lock()
        self.lists: dict[str, list] = {}
        self.counts: dict[str, float] = {}

    def add(self, name: str, value: float) -> None:
        with self._lock:
            self.lists.setdefault(name, []).append(value)

    def count(self, name: str, amount: float = 1) -> None:
        with self._lock:
            self.counts[name] = self.counts.get(name, 0) + amount

    def get(self, name: str) -> list:
        with self._lock:
            return list(self.lists.get(name, ()))


def now() -> float:
    return time.perf_counter()
