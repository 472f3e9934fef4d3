"""Run the process's OpenBLAS libraries on one thread.

The GP's matrices are small (a few hundred rows at the paper's scale),
and at these sizes OpenBLAS's extra threads only spin: by default a
serial BOiLS run burns about twice the CPU time for the same wall time,
and concurrent campaign workers oversubscribe the cores.  numpy and
scipy each load their own OpenBLAS (scipy's runs ``cholesky`` and
``solve_triangular``), usually before ``repro`` is imported, so setting
``OPENBLAS_NUM_THREADS`` from here would come too late.  Instead
:func:`pin_blas_threads` calls each loaded library's thread setter
through ``ctypes`` when :mod:`repro.gp.gp` is imported.

Set ``OPENBLAS_NUM_THREADS`` or ``OMP_NUM_THREADS`` to keep a thread
count of your own; the pin is then skipped.  On platforms without
``/proc/self/maps`` nothing is done.
"""

from __future__ import annotations

import ctypes
import os
from typing import Any, Dict, List, Optional, Tuple

from repro.config import env_blas_threads

#: Thread setters and getters in the order they are tried: numpy's
#: 64-bit-integer build, scipy's build, then system builds.
_SETTERS = ("scipy_openblas_set_num_threads64_",
            "scipy_openblas_set_num_threads",
            "openblas_set_num_threads64_",
            "openblas_set_num_threads")
_GETTERS = tuple(name.replace("_set_", "_get_") for name in _SETTERS)


def _loaded_openblas() -> List[str]:
    """Paths of every OpenBLAS shared library mapped into this process."""
    try:
        with open("/proc/self/maps") as maps:
            paths = sorted({line.split()[-1] for line in maps if "/" in line})
    except OSError:
        return []
    return [path for path in paths
            if "openblas" in os.path.basename(path).lower()]


def _symbol(path: str, names: Tuple[str, ...]) -> Optional[Any]:
    """The first of ``names`` the already-loaded library exports."""
    try:
        library = ctypes.CDLL(path, mode=os.RTLD_NOLOAD)
    except (OSError, AttributeError):  # not loaded, or no RTLD_NOLOAD
        return None
    for name in names:
        function = getattr(library, name, None)
        if function is not None:
            return function
    return None


def pin_blas_threads() -> None:
    """Set every loaded OpenBLAS to one thread, unless the user has set
    ``OPENBLAS_NUM_THREADS`` or ``OMP_NUM_THREADS``."""
    if env_blas_threads() is not None:
        return
    for path in _loaded_openblas():
        setter = _symbol(path, _SETTERS)
        if setter is not None:
            setter.argtypes = [ctypes.c_int]
            setter.restype = None
            setter(1)


def blas_threads() -> Dict[str, int]:
    """Thread count of each loaded OpenBLAS, by library file name."""
    counts = {}
    for path in _loaded_openblas():
        getter = _symbol(path, _GETTERS)
        if getter is not None:
            getter.argtypes = []
            getter.restype = ctypes.c_int
            counts[os.path.basename(path)] = int(getter())
    return counts
