"""Machine facts, the calibration loop, percentiles, CPU and memory readings."""

from __future__ import annotations

import importlib.util
import multiprocessing
import os
import platform
import resource
import statistics
import time

import numpy as np

_CLOCK_TICKS = os.sysconf("SC_CLK_TCK") if hasattr(os, "sysconf") else 100


def machine_facts() -> dict[str, object]:
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "numba": importlib.util.find_spec("numba") is not None,
    }


def calibration_seconds(repeats: int = 3) -> float:
    """Median time of a fixed pure-Python loop; a slowed machine shows here.

    Recorded next to every run's numbers, never used as a metric.
    """
    times = []
    for _ in range(repeats):
        started = time.perf_counter()
        total = 0
        for value in range(400_000):
            total += (value * 7) % 13
        times.append(time.perf_counter() - started)
    return statistics.median(times)


def percentile_ms(values: list[float], q: float) -> float:
    """The ``q``-th percentile of ``values`` (seconds) in milliseconds."""
    return float(np.percentile(np.asarray(values), q)) * 1000.0


def _proc_cpu_seconds(pid: int) -> float:
    with open(f"/proc/{pid}/stat") as handle:
        fields = handle.read().rsplit(")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) / _CLOCK_TICKS


def _proc_peak_rss_mb(pid: int) -> float:
    with open(f"/proc/{pid}/status") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    return 0.0


def _live_children() -> list[int]:
    return [child.pid for child in multiprocessing.active_children()]


def cpu_seconds() -> dict[int, float]:
    """CPU seconds so far of this process and of every live worker process.

    Reaped children are included in this process's entry through ``os.times``.
    """
    times = os.times()
    readings = {0: times.user + times.system + times.children_user + times.children_system}
    for pid in _live_children():
        try:
            readings[pid] = _proc_cpu_seconds(pid)
        except OSError:
            continue
    return readings


def cpu_delta(before: dict[int, float], after: dict[int, float]) -> float:
    """CPU spent between two :func:`cpu_seconds` readings (workers included)."""
    return sum(value - before.get(pid, 0.0) for pid, value in after.items())


def pin_to_one_cpu() -> set[int] | None:
    """Confine this thread, and every thread and process it starts from now on, to one CPU.

    Takes the highest-numbered allowed CPU: device interrupts tend to land on
    CPU 0.  Returns the CPUs allowed before, for :func:`unpin`; ``None`` where
    affinity cannot be set.
    """
    if not hasattr(os, "sched_setaffinity"):
        return None
    allowed = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {max(allowed)})
    return allowed


def unpin(allowed: set[int] | None) -> None:
    if allowed is not None:
        os.sched_setaffinity(0, allowed)


def peak_rss_mb() -> float:
    """Peak resident memory of this process plus each live worker process."""
    total = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    for pid in _live_children():
        try:
            total += _proc_peak_rss_mb(pid)
        except OSError:
            continue
    return total
