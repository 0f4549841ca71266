"""BLAS thread pinning for worker processes.

numpy and scipy each bundle an OpenBLAS whose thread pool is sized to
the host, so N worker processes would oversubscribe the cores.
:func:`pin_blas_threads`, the workers' initializer, sets both pools
through the libraries' own setters, loaded with :mod:`ctypes` at call
time (importing this module loads nothing).  A library or setter that
this numpy / scipy build does not ship is skipped.
"""

from __future__ import annotations

import importlib.util
import pathlib

#: Threads per worker process: one, so N workers use N cores.
_THREADS = 1

#: ``(package, library glob, setter, getter)`` per bundled OpenBLAS.
_OPENBLAS = (
    ("numpy", "libscipy_openblas64_*.so", "scipy_openblas_set_num_threads64_",
     "scipy_openblas_get_num_threads64_"),
    ("scipy", "libscipy_openblas*.so", "scipy_openblas_set_num_threads",
     "scipy_openblas_get_num_threads"),
)


def _libraries():
    """``(package, setter, getter)`` for each bundled OpenBLAS found."""
    import ctypes

    for package, pattern, setter, getter in _OPENBLAS:
        spec = importlib.util.find_spec(package)
        if spec is None or spec.origin is None:
            continue
        libs = pathlib.Path(spec.origin).parent.parent / f"{package}.libs"
        for path in sorted(libs.glob(pattern)):
            library = ctypes.CDLL(str(path))
            if not (hasattr(library, setter) and hasattr(library, getter)):
                continue
            set_threads = getattr(library, setter)
            set_threads.argtypes, set_threads.restype = [ctypes.c_int], None
            get_threads = getattr(library, getter)
            get_threads.argtypes, get_threads.restype = [], ctypes.c_int
            yield package, set_threads, get_threads


def pin_blas_threads() -> None:
    """Set every bundled OpenBLAS pool to one thread."""
    for _, setter, _ in _libraries():
        setter(_THREADS)


def blas_threads() -> dict[str, int]:
    """``package -> threads`` of each bundled OpenBLAS pool."""
    return {package: getter() for package, _, getter in _libraries()}
