"""The thread counts of the OpenBLAS builds that numpy and scipy run on.

numpy and scipy wheels each bundle their own OpenBLAS, and each library
keeps its own pool of worker threads.  On a machine with few cores the two
pools starve each other: after a call, an OpenBLAS pool's threads keep
spinning for a while, so scipy's pool, woken by every Cholesky call of the
model scoring, holds the cores that numpy's matrix-vector products wait for.
``scipy_blas_single_thread`` runs scipy's pool on one thread for the length
of a block.  The scoring factors matrices of at most p + q rows, too small
for a second thread to help.  During the sweeps numpy's pool is left alone.

``numpy_blas_single_thread`` runs numpy's pool on one thread for a block:
``TobitDataset.split`` forms its two Gram products in one.  On a 2-vCPU
host the paper-shape product (112 x 5 192 times its transpose) took about
110 ms on numpy's pool as loaded, against about 2 ms on one thread, with
the same bits; on one thread the Grams do not depend on the thread count at
any data size.
"""

from __future__ import annotations

import ctypes
import os
from collections.abc import Callable
from contextlib import contextmanager
from dataclasses import dataclass
from functools import cache
from pathlib import Path

import numpy as np

__all__ = ["OpenBLAS", "scipy_openblas", "numpy_openblas", "scipy_blas_single_thread", "numpy_blas_single_thread"]

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


def _own_openblas(package, paths: list[Path]) -> OpenBLAS | None:
    """The one library of ``paths`` installed with ``package``: in its folder
    or in the ``<package>.libs`` folder beside it; None when there is not
    exactly one."""
    folder = Path(package.__file__).resolve().parent
    roots = (folder, folder.with_name(f"{folder.name}.libs"))
    own = [path for path in paths if any(root in path.resolve().parents for root in roots)]
    return _load(own[0]) if len(own) == 1 else None


# The lookups read /proc/self/maps, about a millisecond each; the libraries
# mapped into the process no longer change once numpy and scipy are loaded.
@cache
def scipy_openblas() -> OpenBLAS | None:
    """scipy's own OpenBLAS, or None when scipy has none that numpy lacks.

    When only one OpenBLAS is mapped, numpy and scipy share it, and pinning
    it would pin numpy's pool too.
    """
    import scipy
    import scipy.linalg  # noqa: F401  (maps scipy's LAPACK into the process)

    paths = _openblas_paths()
    return _own_openblas(scipy, paths) if len(paths) >= 2 else None


@cache
def numpy_openblas() -> OpenBLAS | None:
    """numpy's own OpenBLAS: the one installed with numpy, in its folder or in
    the ``numpy.libs`` folder beside it.  None otherwise, also when numpy
    runs on a system or conda OpenBLAS installed elsewhere."""
    return _own_openblas(np, _openblas_paths())


@contextmanager
def _single_thread(find: Callable[[], OpenBLAS | None]):
    """Run the library ``find`` gives on one thread inside the block, then
    restore its thread count, also when the block raises.  Does nothing when
    ``OPENBLAS_NUM_THREADS`` or ``OMP_NUM_THREADS`` is set, or when ``find``
    gives None."""
    lib = None if any(os.environ.get(name) for name in THREAD_ENV) else find()
    if lib is None:
        yield
        return
    before = lib.threads()
    lib.set_threads(1)
    try:
        yield
    finally:
        lib.set_threads(before)


def scipy_blas_single_thread():
    """``_single_thread`` on ``scipy_openblas``: for the sweeps."""
    return _single_thread(scipy_openblas)


def numpy_blas_single_thread():
    """``_single_thread`` on ``numpy_openblas``: for a dataset's Gram products."""
    return _single_thread(numpy_openblas)
