"""The environment a result was measured in, recorded with every result."""

from __future__ import annotations

import ctypes
import hashlib
import os
import platform
import sys
from pathlib import Path

# OpenBLAS thread-count entry points, by symbol prefix of the bundled builds.
_BLAS_THREAD_SYMBOLS = (
    "openblas_get_num_threads",
    "openblas_get_num_threads64_",
    "scipy_openblas_get_num_threads",
    "scipy_openblas_get_num_threads64_",
)
_THREAD_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def git_rev(root: Path) -> str | None:
    """HEAD of the checkout, read from ``.git`` without running git."""
    head = root / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
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


def source_digest(root: Path) -> str:
    """sha256 over the package sources, for checkouts that are not git repos."""
    digest = hashlib.sha256()
    for path in sorted((root / "src" / "bsradar").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def process_threads() -> int:
    with open("/proc/self/status") as handle:
        for line in handle:
            if line.startswith("Threads:"):
                return int(line.split()[1])
    return 0


def blas_pools() -> list[dict]:
    """Thread count of every OpenBLAS library loaded in this process."""
    paths = set()
    with open("/proc/self/maps") as handle:
        for line in handle:
            path = line.split()[-1]
            if "openblas" in path.lower() and ".so" in path:
                paths.add(path)
    pools = []
    for path in sorted(paths):
        lib = ctypes.CDLL(path)
        for symbol in _BLAS_THREAD_SYMBOLS:
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                pools.append({"library": Path(path).name, "threads": int(fn())})
                break
    return pools


def _cpu_model() -> str | None:
    with open("/proc/cpuinfo") as handle:
        for line in handle:
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    return None


def environment(root: Path, seed: int) -> dict:
    import numpy
    import scipy

    def blas(module) -> dict:
        info = module.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return {k: info.get(k) for k in ("name", "version", "openblas configuration")}

    return {
        "git_rev": git_rev(root),
        "source_sha256": source_digest(root),
        "python": f"{platform.python_implementation()} {platform.python_version()}",
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numpy_blas": blas(numpy),
        "scipy_blas": blas(scipy),
        "blas_threads": blas_pools(),
        # bsradar's FFTs all go through numpy.fft (pocketfft), which runs on
        # the calling thread
        "fft": {"backend": "numpy.fft", "threads": 1},
        "thread_env": {k: os.environ.get(k) for k in _THREAD_ENV},
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "mem_total_mb": os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE") / 2**20,
        "platform": platform.platform(),
        "argv": sys.argv,
        "seed": seed,
    }


def thread_flags(env: dict, max_threads: int) -> dict:
    """Flag a run whose threads outnumber the CPUs it may use."""
    nproc = env["nproc"]
    pools = [p["threads"] for p in env["blas_threads"]]
    return {
        "max_process_threads": max_threads,
        "over_nproc": max_threads > nproc or any(t > nproc for t in pools),
    }
