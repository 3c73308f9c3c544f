"""Same-run references of the machine: memcpy bandwidth, serial FFT, identity."""

from __future__ import annotations

import os
import platform
import statistics
import time

import numpy as np

MiB = 1 << 20
#: memcpy source size.  The rule for a bandwidth figure is an array of at
#: least 4x the last-level cache; with a 300 MiB L3 that is 1.2 GiB per
#: array, more than a shared box should hand one benchmark, so the figure
#: is labelled in-cache whenever the array is below that size.
MEMCPY_BYTES = 64 * MiB


def l3_bytes() -> int:
    """Size of the last-level cache from sysfs (0 when unknown)."""
    try:
        with open("/sys/devices/system/cpu/cpu0/cache/index3/size") as f:
            text = f.read().strip()
    except OSError:
        return 0
    units = {"K": 1 << 10, "M": 1 << 20, "G": 1 << 30}
    if text and text[-1] in units:
        return int(text[:-1]) * units[text[-1]]
    return int(text) if text.isdigit() else 0


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment() -> dict[str, object]:
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu_model(),
        "l3_bytes": l3_bytes(),
        "python": platform.python_version(),
        "numpy": np.__version__,
    }


def memcpy_gbps(nbytes: int = MEMCPY_BYTES, reps: int = 15) -> dict[str, object]:
    """Median ``np.copyto`` rate, bytes copied once per copy."""
    src = np.ones(nbytes, dtype=np.uint8)
    dst = np.empty_like(src)
    np.copyto(dst, src)  # fault both arrays in before timing
    times = []
    for _ in range(reps):
        t0 = time.perf_counter()
        np.copyto(dst, src)
        times.append(time.perf_counter() - t0)
    l3 = l3_bytes()
    return {
        "gbps": nbytes / statistics.median(times) / 1e9,
        "array_bytes": nbytes,
        "l3_bytes": l3,
        "in_cache": l3 == 0 or nbytes < 4 * l3,
    }


def fftn_pair_ms(x: np.ndarray, min_reps: int = 5, budget_s: float = 1.5) -> float:
    """Median serial ``numpy.fft.fftn`` + ``ifftn`` time on the workload's grid."""
    np.fft.ifftn(np.fft.fftn(x))
    times: list[float] = []
    start = time.perf_counter()
    while len(times) < min_reps or time.perf_counter() - start < budget_s:
        t0 = time.perf_counter()
        np.fft.ifftn(np.fft.fftn(x))
        times.append(time.perf_counter() - t0)
    return statistics.median(times) * 1e3
