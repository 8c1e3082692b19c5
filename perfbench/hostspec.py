"""Host description recorded beside every benchmark result.

It names what the timings depend on: the processor and how many cores the
process may use, the interpreter and library versions, the thread-pool
variables of the BLAS/OpenMP runtimes and the commit of the checkout.
"""

from __future__ import annotations

import os
import platform
import sys
from pathlib import Path
from typing import Dict, Optional

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _version(module: str) -> str:
    from importlib import metadata

    try:
        return metadata.version(module)
    except metadata.PackageNotFoundError:
        return "missing"


def git_commit(root: Path) -> str:
    """The checkout's commit, read from ``.git`` without running git
    ("unknown" in an exported tree)."""
    head = root / ".git" / "HEAD"
    try:
        ref = head.read_text(encoding="utf-8").strip()
    except OSError:
        return "unknown"
    if not ref.startswith("ref: "):
        return ref
    name = ref[len("ref: "):]
    loose = root / ".git" / name
    if loose.is_file():
        return loose.read_text(encoding="utf-8").strip()
    packed = root / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + name):
                return line.split(" ", 1)[0]
    return "unknown"


def host_spec(root: Path) -> Dict[str, Optional[object]]:
    affinity = sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None
    return {
        "nproc": os.cpu_count(),
        "sched_getaffinity": affinity,
        "cpu_model": _cpu_model(),
        "python": sys.version.split()[0],
        "numpy": _version("numpy"),
        "networkx": _version("networkx"),
        "thread_env": {name: os.environ.get(name) for name in THREAD_VARS},
        "git_commit": git_commit(root),
    }
