"""Environment block written into every benchmark result (read-only probes)."""

from __future__ import annotations

import ctypes
import os
import platform
import statistics
import time
from pathlib import Path


def _read(path: str) -> str | None:
    try:
        return Path(path).read_text(encoding="utf-8").strip()
    except OSError:
        return None


def _cpu_model() -> str | None:
    for line in (_read("/proc/cpuinfo") or "").splitlines():
        if line.startswith("model name"):
            return line.split(":", 1)[1].strip()
    return platform.processor() or None


def _openblas():
    """ctypes handle of the OpenBLAS numpy loaded, and its symbol prefix."""
    for line in (_read("/proc/self/maps") or "").splitlines():
        path = line.split()[-1]
        name = Path(path).name.lower()
        if "openblas" in name and ".so" in name:
            lib = ctypes.CDLL(path)
            for prefix, suffix in (("scipy_openblas_", "64_"), ("openblas_", "64_"),
                                   ("openblas_", "")):
                if hasattr(lib, f"{prefix}get_num_threads{suffix}"):
                    return lib, prefix, suffix
    return None


def _eigvalsh_ms(np, order: int = 128, repeats: int = 15) -> float:
    rng = np.random.default_rng(0)
    m = rng.standard_normal((order, order))
    m = m + m.T
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        np.linalg.eigvalsh(m)
        times.append(time.perf_counter() - start)
    return statistics.median(times) * 1e3


def environment() -> dict:
    """Python, numpy, BLAS build and threads, CPUs, CPU model, THP mode.

    Also times a 128x128 ``eigvalsh`` at the default BLAS thread count and at
    one thread, because the effect of threads on small eigensolves is
    measured here rather than assumed.
    """
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    env = {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas_name": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_config": blas.get("openblas configuration"),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "transparent_hugepage": _read("/sys/kernel/mm/transparent_hugepage/enabled"),
        "blas_threads_env": {k: os.environ[k] for k in
                             ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")
                             if k in os.environ},
    }
    found = _openblas()
    if found is None:
        env["blas_threads"] = None
        return env
    lib, prefix, suffix = found
    get = getattr(lib, f"{prefix}get_num_threads{suffix}")
    set_ = getattr(lib, f"{prefix}set_num_threads{suffix}")
    get.restype = ctypes.c_int
    set_.argtypes = [ctypes.c_int]
    default = get()
    env["blas_threads"] = default
    env["eigvalsh_n128_ms_default_threads"] = _eigvalsh_ms(np)
    set_(1)
    env["eigvalsh_n128_ms_1_thread"] = _eigvalsh_ms(np)
    set_(default)
    return env
