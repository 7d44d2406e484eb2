"""The thread count of the OpenBLAS build that scipy's LAPACK runs on.

numpy and scipy wheels each bundle their own OpenBLAS, and each library
keeps its own pool of worker threads.  On a machine with few cores the two
pools starve each other: after a call, an OpenBLAS pool's threads keep
spinning for a while, so scipy's pool, woken by every Cholesky call of the
model scoring, holds the cores that numpy's matrix-vector products wait for.
``scipy_blas_single_thread`` runs scipy's pool on one thread for the length
of a block.  The scoring factors matrices of at most p + q rows, too small
for a second thread to help.  numpy's pool is left alone.
"""

from __future__ import annotations

import ctypes
import os
from collections.abc import Callable
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path

__all__ = ["OpenBLAS", "scipy_openblas", "scipy_blas_single_thread"]

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


def scipy_openblas() -> OpenBLAS | None:
    """scipy's own OpenBLAS, or None when scipy has none that numpy lacks.

    scipy's library is the one installed with scipy: in its package or in
    the ``scipy.libs`` folder beside it.  When only one OpenBLAS is mapped,
    numpy and scipy share it, and pinning it would pin numpy's pool too.
    """
    import scipy
    import scipy.linalg  # noqa: F401  (maps scipy's LAPACK into the process)

    paths = _openblas_paths()
    package = Path(scipy.__file__).resolve().parent
    roots = (package, package.with_name("scipy.libs"))
    own = [path for path in paths if any(root in path.resolve().parents for root in roots)]
    if len(paths) < 2 or len(own) != 1:
        return None
    return _load(own[0])


@contextmanager
def scipy_blas_single_thread():
    """Run scipy's OpenBLAS on one thread inside the block, then restore its
    thread count, also when the block raises.

    Does nothing when ``OPENBLAS_NUM_THREADS`` or ``OMP_NUM_THREADS`` is set,
    or when ``scipy_openblas`` finds no library of scipy's own.
    """
    lib = None if any(os.environ.get(name) for name in THREAD_ENV) else scipy_openblas()
    if lib is None:
        yield
        return
    before = lib.threads()
    lib.set_threads(1)
    try:
        yield
    finally:
        lib.set_threads(before)
