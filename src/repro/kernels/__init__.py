"""Compiled bit-serial kernel backends.

The batched CDR and DFE engines advance N scenarios one bit-step at a
time; the per-bit recurrence (interpolation sample → vote/decision →
state update) is inherently serial along the bit axis, so the Python
loop over bits is the wall-clock floor of every sweep once the analog
stages are vectorized.  This package lowers those recurrences into a
backend selected once per process:

* ``numba`` — ``@njit``-compiled per-row loops (parallel over rows),
  another order of magnitude over the NumPy batch path on the
  bit-serial stages.  Optional: ``pip install .[fast]``.
* ``numpy`` — the pure-NumPy per-bit-step loop, vectorized over rows
  and trimmed to a handful of NumPy calls per step; always available.

Selection order (decided lazily, on the first kernel call):

1. ``REPRO_KERNELS=numba`` or ``REPRO_KERNELS=numpy`` forces a backend;
   asking for ``numba`` without numba installed raises a clear error.
2. With the variable unset, ``numba`` is used when importable and the
   library falls back to ``numpy`` silently otherwise.

Both backends implement the same three kernels with identical floating
point expression order — the CDR phase/integral/slip recurrence with
Alexander votes, the DFE decision-feedback loop, and the shared
``sample_uniform`` linear interpolation — so switching backends is
bit-exact: same decisions, same phase tracks, same corrected samples.
``tests/test_kernels.py`` pins that equivalence and the benchmark
``benchmarks/bench_compiled_kernels.py`` gates the speedup.

Use :func:`use_backend` to pin a backend for a ``with`` block (tests,
A/B timing), :func:`set_backend` to switch the process default, and
:func:`backend_name` to see what is active.
"""

from __future__ import annotations

import contextlib
import os

__all__ = [
    "available_backends",
    "backend_name",
    "get_backend",
    "set_backend",
    "use_backend",
]

_BACKEND_NAMES = ("numba", "numpy")

#: The active backend module; ``None`` until first use (selection is
#: lazy so ``import repro`` never pays the numba import/compile cost).
_active = None


def _load(name: str):
    """Import one backend module by name."""
    if name == "numpy":
        from . import _numpy_backend
        return _numpy_backend
    if name == "numba":
        try:
            from . import _numba_backend
        except ImportError as error:
            raise RuntimeError(
                "REPRO_KERNELS requested the 'numba' kernel backend but "
                "numba is not importable; install the optional extra "
                "(pip install 'repro-cml-io-interface[fast]' or "
                "pip install numba) or set REPRO_KERNELS=numpy"
            ) from error
        return _numba_backend
    raise ValueError(
        f"unknown kernel backend {name!r}; choose from {_BACKEND_NAMES}"
    )


def _select_default():
    """Apply the documented selection order once."""
    requested = os.environ.get("REPRO_KERNELS", "").strip().lower()
    if requested:
        return _load(requested)
    try:
        from . import _numba_backend
        return _numba_backend
    except ImportError:
        from . import _numpy_backend
        return _numpy_backend


def get_backend(name: str | None = None):
    """The active backend module, or a specific one by name.

    With ``name=None`` this resolves (and caches) the process default
    per the selection order above; passing ``"numpy"``/``"numba"``
    loads that backend without changing the default.
    """
    global _active
    if name is not None:
        return _load(name)
    if _active is None:
        _active = _select_default()
    return _active


def set_backend(name: str):
    """Switch the process-default backend; returns the module."""
    global _active
    _active = _load(name)
    return _active


@contextlib.contextmanager
def use_backend(name: str):
    """Temporarily pin the default backend inside a ``with`` block."""
    global _active
    previous = _active
    _active = _load(name)
    try:
        yield _active
    finally:
        _active = previous


def backend_name() -> str:
    """Name of the active backend (resolving the default if needed)."""
    return get_backend().NAME


def available_backends() -> tuple:
    """Names of the backends importable in this environment."""
    names = []
    for name in _BACKEND_NAMES:
        try:
            _load(name)
        except (RuntimeError, ValueError):
            continue
        names.append(name)
    return tuple(names)
