"""Host facts and CPU-time readers (Linux ``/proc``)."""

from __future__ import annotations

import ctypes
import os
import platform

_TICK = os.sysconf("SC_CLK_TCK")


def process_cpu_s(pid: int) -> float:
    """User + system CPU seconds of process ``pid`` so far."""
    with open(f"/proc/{pid}/stat") as handle:
        # The command name may hold spaces; fields resume after its ')'.
        fields = handle.read().rsplit(")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) / _TICK


def own_cpu_s() -> float:
    times = os.times()
    return times.user + times.system


def cpu_counters() -> tuple[int, int]:
    """``(steal, total)`` jiffies over all CPUs, from ``/proc/stat``."""
    with open("/proc/stat") as handle:
        values = [int(v) for v in handle.readline().split()[1:]]
    # user nice system idle iowait irq softirq steal [guest guest_nice];
    # guest time is already counted inside user/nice.
    return values[7], sum(values[:8])


def steal_share(before: tuple[int, int], after: tuple[int, int]) -> float:
    total = after[1] - before[1]
    return (after[0] - before[0]) / total if total else 0.0


def _blas_threads() -> int | None:
    """Thread count of the OpenBLAS that numpy loaded, when it is one."""
    try:
        with open("/proc/self/maps") as handle:
            paths = {
                line.split()[-1]
                for line in handle
                if "openblas" in line.lower() and ".so" in line
            }
    except OSError:
        return None
    for path in sorted(paths):
        try:
            library = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in (
            "scipy_openblas_get_num_threads64_",
            "openblas_get_num_threads64_",
            "openblas_get_num_threads",
        ):
            function = getattr(library, symbol, None)
            if function is not None:
                function.restype = ctypes.c_int
                return int(function())
    return None


def facts() -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        blas_name = "unknown"
    return {
        "cpus": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_name,
        "blas_threads": _blas_threads(),
    }
