"""Host fingerprint attached to every benchmark result.

Wall-clock numbers only compare between runs on the same host and build of
the numeric stack, so each result carries what identifies them: CPU count
and model, load average at start, Python, numpy, the BLAS library numpy
links and its thread setting, and the code under test (git sha when the
checkout is a repository, else a digest of ``src/``).  :func:`comparable`
is the rule that labels a number from another host as not comparable.
"""

from __future__ import annotations

import hashlib
import os
import platform
import subprocess
import sys
from pathlib import Path

__all__ = [
    "fingerprint", "comparable", "cpu_ticks", "steal_share",
    "reset_peak_rss", "peak_rss_mb", "HOST_KEYS",
]

#: Fields that must agree for two results to be compared.
HOST_KEYS = ("nproc", "cpu_model", "python", "numpy", "blas", "blas_threads")

_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def _blas() -> tuple[str, str]:
    """(library name and version, thread setting) of numpy's BLAS."""
    import numpy as np

    name = "unknown"
    try:
        info = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        name = f"{info.get('name', '?')} {info.get('version', '?')}"
    except (TypeError, KeyError):
        pass
    threads = next(
        (f"{v}={os.environ[v]}" for v in _THREAD_VARS if v in os.environ), "default"
    )
    return name, threads


def _code_id(root: Path) -> dict:
    sha = None
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=root, capture_output=True, text=True, timeout=10,
        )
        if out.returncode == 0:
            sha = out.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    digest = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        digest.update(str(path.relative_to(root)).encode())
        digest.update(path.read_bytes())
    return {"git_sha": sha, "src_sha256": digest.hexdigest()[:16]}


def fingerprint(root: Path) -> dict:
    """Describe this host and the code under test."""
    import numpy as np

    blas, blas_threads = _blas()
    try:
        load = os.getloadavg()[0]
    except OSError:
        load = None
    return {
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "cpu_model": _cpu_model(),
        "load_avg_1m": load,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": blas_threads,
        "platform": sys.platform,
        **_code_id(root),
    }


def cpu_ticks() -> tuple[int, int] | None:
    """(steal, total) CPU ticks of the whole machine, from /proc/stat."""
    try:
        with open("/proc/stat") as fh:
            fields = [int(x) for x in fh.readline().split()[1:]]
    except (OSError, ValueError):
        return None
    return (fields[7] if len(fields) > 7 else 0), sum(fields[:8])


def steal_share(start, end) -> float | None:
    """Share of CPU time the hypervisor gave to other guests between two
    :func:`cpu_ticks` readings (None where the kernel does not report it)."""
    if start is None or end is None or end[1] <= start[1]:
        return None
    return (end[0] - start[0]) / (end[1] - start[1])


def reset_peak_rss() -> None:
    """Start a new peak-RSS window: return freed heap to the system, then
    reset the kernel's high-water mark to the current resident set."""
    try:
        import ctypes

        ctypes.CDLL("libc.so.6").malloc_trim(0)
    except (OSError, AttributeError):
        pass
    with open("/proc/self/clear_refs", "w") as fh:
        fh.write("5")


def peak_rss_mb() -> float:
    """Peak resident set size since :func:`reset_peak_rss`, in MB."""
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise OSError("no VmHWM in /proc/self/status")


def comparable(a: dict, b: dict) -> bool:
    """Whether two fingerprints describe the same host and numeric stack."""
    return all(a.get(k) == b.get(k) for k in HOST_KEYS)
