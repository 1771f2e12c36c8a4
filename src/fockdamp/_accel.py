"""Backend selection for the hot kernels.

The heavy inner loops (dense generator application, sparse matvec, the
integrator's error norm) exist twice: a numba ``@njit`` version and a
pure-NumPy version. The environment variable ``FOCKDAMP_BACKEND`` picks
one at import time (``auto`` | ``numba`` | ``numpy``; default ``auto`` uses
numba when it imports). ``use_backend`` switches at runtime, which the tests use to
compare both paths in one process.
"""

from __future__ import annotations

import os
import warnings
from contextlib import contextmanager

# avoid the warning numba emits when it probes an outdated TBB first
os.environ.setdefault("NUMBA_THREADING_LAYER_PRIORITY", "omp workqueue tbb")

try:
    from numba import njit, prange

    HAVE_NUMBA = True
except ImportError:  # pragma: no cover - exercised via FOCKDAMP_BACKEND=numpy
    HAVE_NUMBA = False
    prange = range

    def njit(*args, **kwargs):
        # decorator passthrough so kernel sources still import
        if args and callable(args[0]):
            return args[0]

        def deco(func):
            return func

        return deco


_requested = os.environ.get("FOCKDAMP_BACKEND", "auto").strip().lower()
if _requested not in ("auto", "numba", "numpy"):
    warnings.warn(f"unknown FOCKDAMP_BACKEND={_requested!r}; falling back to 'auto'")
    _requested = "auto"
if _requested == "numba" and not HAVE_NUMBA:
    warnings.warn("FOCKDAMP_BACKEND=numba requested but numba is not importable; using numpy")

_active = "numba" if (HAVE_NUMBA and _requested in ("auto", "numba")) else "numpy"


def active_backend() -> str:
    return _active


def set_backend(name: str) -> None:
    global _active
    name = name.strip().lower()
    if name not in ("numba", "numpy"):
        raise ValueError(f"unknown backend {name!r}")
    if name == "numba" and not HAVE_NUMBA:
        raise ValueError("numba backend requested but numba is not importable")
    _active = name


@contextmanager
def use_backend(name: str):
    previous = _active
    set_backend(name)
    try:
        yield
    finally:
        set_backend(previous)


def dispatch(numpy_impl, numba_impl):
    """Route calls to the active backend's implementation."""

    def call(*args):
        if _active == "numba":
            return numba_impl(*args)
        return numpy_impl(*args)

    call.numpy_impl = numpy_impl
    call.numba_impl = numba_impl
    return call
