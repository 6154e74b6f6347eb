"""The host record stored beside every run's metrics.

It describes the machine a number came from: cores and affinity,
Python/numpy/BLAS versions and the BLAS thread count, the load average,
the hypervisor's steal share over the run and a fixed-work CPU probe
timed before and after it.  The record is never used to rescale a
metric; it is there to explain one.
"""

from __future__ import annotations

import ctypes
import glob
import itertools
import os
import platform
import resource
import subprocess
import sys
import time
from contextlib import contextmanager
from pathlib import Path

import numpy as np

__all__ = ["HostMonitor", "hold_cpus", "cpu_rotation", "quiet_probe",
           "peak_rss_mb", "vm_hwm_mb"]


def _cpu_jiffies() -> tuple[int, int] | None:
    """``(steal, total)`` jiffies from the aggregate line of /proc/stat."""
    try:
        fields = Path("/proc/stat").read_text().split("\n", 1)[0].split()[1:]
    except OSError:
        return None
    values = [int(v) for v in fields[:8]]  # user..steal; guest is in user
    return (values[7] if len(values) > 7 else 0), sum(values)


def _blas() -> dict:
    info: dict = {"vendor": "unknown", "threads": None}
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info["vendor"] = f"{deps.get('name')} {deps.get('version')}"
    except (KeyError, TypeError, ValueError):
        pass
    libs = glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir,
                                  "numpy.libs", "*openblas*"))
    for lib in libs:
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                info["threads"] = int(fn())
                return info
    return info


def drift_probe() -> float:
    """Seconds for a fixed slice of Python + BLAS work (best of five)."""
    a = np.random.default_rng(0).standard_normal((160, 160))
    best = float("inf")
    for _ in range(5):
        t0 = time.perf_counter()
        acc = 0
        for i in range(120_000):
            acc += i * i
        for _ in range(20):
            a @ a
        best = min(best, time.perf_counter() - t0)
    return best


def quiet_probe() -> float:
    """CPU seconds of a fixed pure-Python loop (about 0.15 ms).

    Timed on either side of a measurement, it tells whether the vCPU ran
    at its quiet speed meanwhile: on the reference VM the same loop takes
    up to twice as long while the host's other tenants are busy.
    """
    t0 = time.thread_time()
    acc = 0
    for i in range(3000):
        acc += i * i
    return time.thread_time() - t0


def peak_rss_mb() -> float:
    """This process's peak resident set size in MB."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def vm_hwm_mb(pid: int) -> float | None:
    """Peak resident set (VmHWM) of a live process in MB."""
    try:
        for line in Path(f"/proc/{pid}/status").read_text().splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    except OSError:
        return None
    return None


class HostMonitor:
    """Host facts at start, steal share and drift probe across the run."""

    def __init__(self):
        self.record = {
            "nproc": os.cpu_count(),
            "affinity": sorted(os.sched_getaffinity(0))
            if hasattr(os, "sched_getaffinity") else None,
            "python": platform.python_version(),
            "numpy": np.__version__,
            "blas": _blas(),
            "loadavg_start": list(os.getloadavg()),
            "drift_probe_start_s": drift_probe(),
        }
        self._jiffies = _cpu_jiffies()

    def finish(self) -> dict:
        """Complete and return the record (call once, after the run)."""
        end = _cpu_jiffies()
        if self._jiffies is not None and end is not None:
            total = end[1] - self._jiffies[1]
            self.record["steal_share"] = ((end[0] - self._jiffies[0]) / total
                                          if total > 0 else 0.0)
        else:
            self.record["steal_share"] = None
        self.record["loadavg_end"] = list(os.getloadavg())
        self.record["drift_probe_end_s"] = drift_probe()
        return self.record


@contextmanager
def hold_cpus(root: Path):
    """Keep every CPU of this process's affinity out of the idle state.

    Starts one :mod:`garlbench.spin` process per CPU and yields the CPUs
    actually held (empty where ``SCHED_IDLE`` is unavailable); all of
    them are stopped and waited for on exit.
    """
    env = dict(os.environ, PYTHONPATH=str(root))
    cpus = sorted(os.sched_getaffinity(0))
    procs = [subprocess.Popen([sys.executable, "-m", "garlbench.spin", str(cpu),
                               str(os.getpid())], cwd=root, env=env)
             for cpu in cpus]
    try:
        time.sleep(0.2)
        yield [cpu for cpu, p in zip(cpus, procs) if p.poll() is None]
    finally:
        for p in procs:
            if p.poll() is None:
                p.kill()
            p.wait(timeout=30)


@contextmanager
def cpu_rotation():
    """Yield ``step()``, which moves the calling thread to the next CPU
    of its affinity; the affinity is restored on exit.

    On the reference VM each vCPU's speed switches between two levels
    about 1.6x apart, independently of the other vCPU and for tens of
    seconds at a time, and the kernel keeps a busy thread on one vCPU.
    Stepping once per unit of work makes a run sample every vCPU equally
    instead of whichever one it started on.  Where affinity cannot be
    set, ``step()`` does nothing.
    """
    try:
        cpus = sorted(os.sched_getaffinity(0))
    except AttributeError:
        yield lambda: None
        return
    turn = itertools.count()

    def step() -> None:
        os.sched_setaffinity(0, {cpus[next(turn) % len(cpus)]})

    try:
        yield step
    finally:
        os.sched_setaffinity(0, cpus)
