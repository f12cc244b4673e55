"""Environment record stored with every result: machine, versions, backend.

Reads only read-only system information (``/proc/cpuinfo`` and the CPU
cache entries under ``/sys``) and the checkout's own ``.git`` directory,
if there is one; it starts no process.  numpy is imported lazily so that
:func:`pin_blas_threads` can run first.
"""

from __future__ import annotations

import ctypes
import os
import platform
import sys
from importlib import metadata
from pathlib import Path

BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS")


def pin_blas_threads() -> None:
    """One BLAS thread; must run before numpy is first imported.

    Child processes inherit the setting through the environment.
    """
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"


def pin_cpu() -> int:
    """Keep this process and its children on one CPU; returns it.

    On a shared VM each virtual CPU slows down on its own schedule, so the
    speed reference (speed.py) must run where the measured work runs.
    """
    cpu = min(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


def _cpu_model() -> str | None:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        return None
    return platform.processor() or None


def _caches() -> dict[str, str]:
    out = {}
    base = Path("/sys/devices/system/cpu/cpu0/cache")
    for idx in sorted(base.glob("index*")):
        try:
            level = (idx / "level").read_text().strip()
            kind = (idx / "type").read_text().strip()
            size = (idx / "size").read_text().strip()
        except OSError:
            continue
        out[f"L{level}{'' if kind == 'Unified' else kind[0].lower()}"] = size
    return out


def _version(dist: str) -> str | None:
    try:
        return metadata.version(dist)
    except metadata.PackageNotFoundError:
        return None


def _blas() -> dict:
    import numpy as np

    deps = np.show_config(mode="dicts").get("Build Dependencies", {})
    blas = deps.get("blas", {})
    info = {
        "name": blas.get("name"),
        "version": blas.get("version"),
        "configuration": blas.get("openblas configuration"),
        "threads": None,
    }
    # numpy wheels bundle OpenBLAS next to the package; loading the already
    # mapped library again returns the same handle, so the thread count read
    # here is the one numpy uses.
    libdir = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib_path in sorted(libdir.glob("*openblas*")):
        try:
            lib = ctypes.CDLL(str(lib_path))
        except OSError:
            continue
        for fn_name in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, fn_name, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                info["threads"] = int(fn())
                break
    info["thread_env"] = {v: os.environ.get(v) for v in BLAS_THREAD_VARS}
    return info


def _git_commit(root: Path) -> str | None:
    head = root / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
    except OSError:
        return None
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = root / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = root / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def environment(root: Path, seed: int, backends: list[str]) -> dict:
    import numpy as np

    from wavegalerkin import kernels

    return {
        "cpu_model": _cpu_model(),
        "machine": platform.machine(),
        "nproc": os.cpu_count(),
        "pinned_cpus": sorted(os.sched_getaffinity(0)),
        "caches": _caches(),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": _version("scipy"),
        "jsonschema": _version("jsonschema"),
        "blas": _blas(),
        "backend": sorted(set(backends)),
        "numba_available": bool(kernels.NUMBA_AVAILABLE),
        "git_commit": _git_commit(root),
        "seed": seed,
    }
