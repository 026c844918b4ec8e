"""Environment recorded with every benchmark result.

Wall times on a shared VM move with the load of the host, so each result
carries two gauges of it: the steal time read from /proc/stat before and
after the run, and the time of a fixed pure-Python loop at both ends (the
host can slow a vCPU by half within a minute while reporting almost no
steal). Noisy runs can then be told apart. Only /proc is read: no pinning,
no cache dropping, nothing written.
"""

from __future__ import annotations

import os
import platform
import statistics
import time
from pathlib import Path

_STEAL_FIELD = 7   # user nice system idle iowait irq softirq steal ...


def cpu_ticks() -> tuple[int, int] | None:
    """(steal ticks, all ticks) summed over CPUs, or None without /proc."""
    try:
        first = Path("/proc/stat").read_text().splitlines()[0]
    except OSError:
        return None
    ticks = [int(v) for v in first.split()[1:]]
    return ticks[_STEAL_FIELD], sum(ticks)


def reference_loop_s(repeats: int = 5) -> float:
    """Median wall seconds of a fixed pure-Python loop (~20 ms on an idle host)."""
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        total = 0
        for i in range(200_000):
            total += i * i % 7
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def _cpu_model() -> str | None:
    try:
        lines = Path("/proc/cpuinfo").read_text().splitlines()
    except OSError:
        return None
    for line in lines:
        if line.startswith("model name"):
            return line.split(":", 1)[1].strip()
    return None


def gauges() -> dict:
    """Host-load gauges, read at both ends of a run."""
    return {"ticks": cpu_ticks(), "reference_loop_s": reference_loop_s()}


def environment(before: dict, after: dict) -> dict:
    import numpy

    env = {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "cpu": _cpu_model(),
        "steal_s": None,
        "steal_frac": None,
        "reference_loop_s": [before["reference_loop_s"], after["reference_loop_s"]],
    }
    if before["ticks"] is not None and after["ticks"] is not None:
        steal = after["ticks"][0] - before["ticks"][0]
        total = after["ticks"][1] - before["ticks"][1]
        env["steal_s"] = steal / os.sysconf("SC_CLK_TCK")
        env["steal_frac"] = steal / total if total else 0.0
    return env
