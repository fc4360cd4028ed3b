"""Process-level measurements and hygiene checks, read from ``/proc``.

Memory: a pass resets each program process's peak-RSS mark
(``/proc/<pid>/clear_refs``), so ``VmHWM`` at the end is the peak during
the pass. CPU: thread run times from ``/proc/<pid>/task/*/schedstat``
(nanoseconds). Hygiene: the benchmark must leave no descendant process,
no multiprocessing helper and no ``repro`` shared-memory segment behind.
"""

from __future__ import annotations

import ctypes
import os
import time
from multiprocessing import forkserver, resource_tracker

import numpy as np

SHM_DIR = "/dev/shm"
SHM_PREFIX = "repro"


def _status_kib(pid: int, field: str) -> int:
    with open(f"/proc/{pid}/status", encoding="ascii") as handle:
        for line in handle:
            if line.startswith(field + ":"):
                return int(line.split()[1])
    raise KeyError(field)


def reset_peak_rss(pids) -> dict[int, int]:
    """Reset each process's peak-RSS mark; returns current RSS (KiB)."""
    start = {}
    for pid in pids:
        with open(f"/proc/{pid}/clear_refs", "w", encoding="ascii") as handle:
            handle.write("5")
        start[pid] = _status_kib(pid, "VmRSS")
    return start


def peak_rss_growth_mib(start: dict[int, int]) -> float:
    """Sum over processes of (peak RSS since reset - RSS at reset), MiB."""
    return sum(_status_kib(pid, "VmHWM") - rss
               for pid, rss in start.items()) / 1024.0


def cpu_seconds(pids) -> float:
    """CPU time of this process (all threads) plus the listed others."""
    total = time.process_time()
    for pid in pids:
        task_dir = f"/proc/{pid}/task"
        for task in os.listdir(task_dir):
            with open(f"{task_dir}/{task}/schedstat", encoding="ascii") as f:
                total += int(f.read().split()[0]) / 1e9
    return total


def _parents() -> dict[int, int]:
    parents = {}
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat", encoding="ascii") as handle:
                stat = handle.read()
        except OSError:
            continue
        parents[int(entry)] = int(stat.rsplit(")", 1)[1].split()[1])
    return parents


def descendants() -> set[int]:
    """Live processes below this one."""
    parents = _parents()
    found: set[int] = set()
    frontier = {os.getpid()}
    while frontier:
        frontier = {child for child, parent in parents.items()
                    if parent in frontier and child not in found}
        found |= frontier
    return found


def alive(pid: int) -> bool:
    try:
        with open(f"/proc/{pid}/stat", encoding="ascii") as handle:
            return handle.read().rsplit(")", 1)[1].split()[0] != "Z"
    except OSError:
        return False


def helper_pids() -> list[int]:
    """The multiprocessing forkserver and resource tracker, if running."""
    pids = [forkserver._forkserver._forkserver_pid,
            resource_tracker._resource_tracker._pid]
    return [pid for pid in pids if pid is not None]


def stop_helpers() -> None:
    """Stop the forkserver and resource tracker this process started."""
    if forkserver._forkserver._forkserver_pid is not None:
        forkserver._forkserver._stop()
    if resource_tracker._resource_tracker._pid is not None:
        resource_tracker._resource_tracker._stop()


def shm_segments() -> set[str]:
    try:
        return {name for name in os.listdir(SHM_DIR)
                if name.startswith(SHM_PREFIX)}
    except FileNotFoundError:
        return set()


def leftovers(started: set[int], shm_before: set[str]) -> list[str]:
    """Everything the benchmark started that is still around."""
    problems = [f"process {pid} still alive"
                for pid in sorted(started | descendants()) if alive(pid)]
    problems += [f"shared-memory segment {SHM_DIR}/{name} left behind"
                 for name in sorted(shm_segments() - shm_before)]
    return problems


# -- run context -------------------------------------------------------------


def _blas_threads() -> str:
    """OpenBLAS's own thread count, asked of the loaded library."""
    with open("/proc/self/maps", encoding="ascii", errors="replace") as maps:
        paths = {line.split()[-1] for line in maps
                 if "openblas" in line.lower() and line.split()[-1][:1] == "/"}
    for path in sorted(paths):
        library = ctypes.CDLL(path)
        for symbol in ("openblas_get_num_threads64_",
                       "scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads",
                       "scipy_openblas_get_num_threads"):
            function = getattr(library, symbol, None)
            if function is not None:
                function.restype = ctypes.c_int
                return str(function())
    return "unknown"


def _blas_name() -> str:
    config = np.show_config(mode="dicts")
    blas = config.get("Build Dependencies", {}).get("blas", {})
    return f"{blas.get('name', '?')} {blas.get('version', '')}".strip()


def cpu_steal_ticks() -> int:
    with open("/proc/stat", encoding="ascii") as handle:
        fields = handle.readline().split()
    return int(fields[8]) if len(fields) > 8 else 0


def run_context() -> dict:
    env = {name: os.environ[name] for name in
           ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
           if name in os.environ}
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "blas": _blas_name(),
        "blas_threads": _blas_threads(),
        "blas_env": env or "unset",
        "numpy": np.__version__,
        "loadavg": os.getloadavg(),
    }
