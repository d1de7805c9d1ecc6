"""Environment record attached to every benchmark result."""

from __future__ import annotations

import ctypes
import hashlib
import os
import platform
import subprocess
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"

_THREAD_GETTERS = (
    "scipy_openblas_get_num_threads64_",
    "openblas_get_num_threads64_",
    "openblas_get_num_threads",
)


def _cpu_model() -> str | None:
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def _blas() -> dict:
    """Name and version from numpy's build record; threads from the loaded library."""
    info: dict = {"name": None, "version": None, "library": None, "threads": None}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info["name"], info["version"] = blas.get("name"), blas.get("version")
    except (KeyError, TypeError):
        pass
    try:
        with open("/proc/self/maps") as handle:
            paths = {line.split()[-1] for line in handle if "blas" in line.lower()}
    except OSError:
        paths = set()
    for path in sorted(paths):
        library = ctypes.CDLL(path)
        for name in _THREAD_GETTERS:
            getter = getattr(library, name, None)
            if getter is not None:
                getter.restype = ctypes.c_int
                info["library"], info["threads"] = os.path.basename(path), int(getter())
                return info
    return info


def _commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    done = subprocess.run(
        ["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True
    )
    return done.stdout.strip() or None


def source_digest() -> str:
    """sha256 over the package sources, which identifies the code in a checkout without git."""
    digest = hashlib.sha256()
    for path in sorted((SRC / "lcutrunc").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def environment(seeds: dict | None = None) -> dict:
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "blas": _blas(),
        "numpy": np.__version__,
        "python": platform.python_version(),
        "cpu_model": _cpu_model(),
        "commit": _commit(),
        "source_sha256": source_digest(),
        "seeds": seeds or {},
        "executable": os.path.basename(sys.executable),
    }
