"""The machine and library versions a run was measured on."""

from __future__ import annotations

import os
import platform

# Same-code runs on the 2-CPU reference box vary by about this share (see
# ROADMAP.md); bounds and claimed gains are set against it.
SAME_CODE_NOISE = 0.15


def nproc() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def cap_blas_threads() -> int:
    """Cap BLAS/OpenMP threads at nproc; call before NumPy is imported."""
    n = nproc()
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(n)
    return n


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _blas() -> str:
    import numpy as np

    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{deps.get('name', '?')} {deps.get('version', '?')}"
    except (KeyError, TypeError, ValueError):
        return "unknown"


def environment() -> dict:
    import numpy as np
    import scipy

    return {
        "cpu_model": _cpu_model(),
        "nproc": nproc(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": _blas(),
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS", "unset"),
        "same_code_noise": SAME_CODE_NOISE,
    }
