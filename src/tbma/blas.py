"""Every OpenBLAS pool in the process on one thread while tbma computes.

numpy and scipy wheels each bundle their own OpenBLAS, and each library
keeps its own pool of worker threads.  ``blas_single_thread`` runs every
OpenBLAS library mapped into the process on one thread for the length of a
block, then gives each its thread count back.  ``TobitDataset.split`` and
``run_chain`` compute inside it, for three reasons:

* A threaded product sums in an order that depends on the thread count.
  OpenBLAS threads a ``ddot`` of more than 10 000 elements and a gemv of
  more than 460 800, so on data past the paper's shape a chain would depend
  on the thread count.  On one thread it does not, at any data size.
* On a machine with few cores the pools starve each other: after a call, a
  pool's threads keep spinning for a while, so scipy's pool, woken by every
  Cholesky call of the model scoring, holds the cores that numpy's products
  wait for.  The scoring factors matrices of at most p + q rows, too small
  for a second thread to help.
* numpy's pool, as loaded, sometimes runs a threaded product far slower than
  on one thread: on a 2-vCPU host the paper-shape Gram (112 x 5 192 times
  its transpose) took about 110 ms, against about 2 ms on one thread.

An explicit ``OPENBLAS_NUM_THREADS`` or ``OMP_NUM_THREADS`` wins: with
either set, the libraries are left alone.
"""

from __future__ import annotations

import ctypes
import os
from collections.abc import Callable
from contextlib import contextmanager
from dataclasses import dataclass
from functools import cache
from pathlib import Path

__all__ = ["OpenBLAS", "openblas_libraries", "blas_single_thread"]

# Either variable fixes every OpenBLAS pool's size at load time; an explicit
# choice wins over the pin.
THREAD_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")

# Thread-count entry points, by the symbol prefixes and suffixes of the
# scipy-openblas wheels and of plain OpenBLAS builds.
_SYMBOLS = (
    ("scipy_openblas_get_num_threads", "scipy_openblas_set_num_threads"),
    ("scipy_openblas_get_num_threads64_", "scipy_openblas_set_num_threads64_"),
    ("openblas_get_num_threads", "openblas_set_num_threads"),
    ("openblas_get_num_threads64_", "openblas_set_num_threads64_"),
)


@dataclass(frozen=True, eq=False)
class OpenBLAS:
    """One OpenBLAS library mapped into this process."""

    path: Path
    _get: Callable[[], int]
    _set: Callable[[int], None]

    def threads(self) -> int:
        return int(self._get())

    def set_threads(self, count: int) -> None:
        self._set(int(count))


def _openblas_paths() -> list[Path]:
    """Files of the OpenBLAS libraries mapped into this process."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            fields = [line.split(maxsplit=5) for line in fh if "openblas" in line]
    except OSError:
        return []
    paths = {Path(f[5].strip()) for f in fields if len(f) == 6}
    return sorted(path for path in paths if "openblas" in path.name and ".so" in path.name)


def _load(path: Path) -> OpenBLAS | None:
    lib = ctypes.CDLL(str(path))
    for get_name, set_name in _SYMBOLS:
        if hasattr(lib, get_name) and hasattr(lib, set_name):
            get, set_ = getattr(lib, get_name), getattr(lib, set_name)
            get.argtypes, get.restype = [], ctypes.c_int
            set_.argtypes, set_.restype = [ctypes.c_int], None
            return OpenBLAS(path, get, set_)
    return None


# The lookup reads /proc/self/maps, about a millisecond; the libraries mapped
# into the process no longer change once numpy and scipy are loaded.
@cache
def openblas_libraries() -> tuple[OpenBLAS, ...]:
    """Every OpenBLAS library mapped into this process whose thread count
    can be set: numpy's, scipy's, or the one they share."""
    import scipy.linalg  # noqa: F401  (maps scipy's LAPACK into the process)

    return tuple(lib for lib in map(_load, _openblas_paths()) if lib is not None)


@contextmanager
def blas_single_thread():
    """Run every OpenBLAS library on one thread inside the block, then restore
    each one's thread count, also when the block raises.  Does nothing when
    ``OPENBLAS_NUM_THREADS`` or ``OMP_NUM_THREADS`` is set."""
    libs = () if any(os.environ.get(name) for name in THREAD_ENV) else openblas_libraries()
    before = [lib.threads() for lib in libs]
    for lib in libs:
        lib.set_threads(1)
    try:
        yield
    finally:
        for lib, count in zip(libs, before):
            lib.set_threads(count)
