"""The machine and code-surface block printed with every result."""

from __future__ import annotations

import ctypes
import os
import platform
import re
import subprocess
from pathlib import Path

_BLAS_GETTERS = (
    "openblas_get_num_threads",
    "openblas_get_num_threads64_",
    "scipy_openblas_get_num_threads64_",
)


def blas_threads() -> dict:
    """OpenBLAS threads, from the environment and the loaded library.

    The library is found among this process's mapped files after
    numpy is imported, and asked through its own getter.
    """
    import numpy  # noqa: F401  (loads the bundled BLAS)

    env = {name: os.environ.get(name)
           for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")}
    library, threads = None, None
    with open("/proc/self/maps") as maps:
        paths = {line.split()[-1] for line in maps
                 if "openblas" in line.lower() and "/" in line}
    for path in sorted(paths):
        lib = ctypes.CDLL(path)
        for getter in _BLAS_GETTERS:
            function = getattr(lib, getter, None)
            if function is not None:
                function.argtypes = []
                function.restype = ctypes.c_int
                library, threads = os.path.basename(path), function()
                break
        if threads is not None:
            break
    return {"env": env, "library": library, "threads": threads}


def serve_flag_count(python: str, root: Path, env: dict) -> int:
    """Distinct ``--flags`` in ``python -m repro.serve serve --help``."""
    text = subprocess.run(
        [python, "-m", "repro.serve", "serve", "--help"], cwd=root,
        env=env, capture_output=True, text=True, check=True, timeout=60,
    ).stdout
    options = text.split("options:", 1)[-1]
    flags = set(re.findall(r"^\s+(-[-\w]+)", options, flags=re.M))
    return len(flags - {"-h"})


def src_line_count(root: Path) -> int:
    return sum(
        len(path.read_bytes().splitlines())
        for path in (root / "src").rglob("*.py")
    )


def machine_block(python: str, root: Path, env: dict) -> dict:
    import numpy
    import scipy

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "affinity": sorted(os.sched_getaffinity(0)),
        "blas": blas_threads(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "src_lines": src_line_count(root),
        "serve_flags": serve_flag_count(python, root, env),
    }
