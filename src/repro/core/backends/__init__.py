"""Pluggable kernel backends for the hot traversal kernels.

Every tier of the reproduction — the fused engine kernels, the
distributed rank-local pull, the union-find batch atomics under the
serving layer — bottoms out in the same handful of hot kernels.  This
package abstracts them behind the :class:`KernelBackend` protocol so a
compiled implementation can be swapped in per run without touching any
call site:

* ``"numpy"`` — the canonical pure-numpy backend, always registered.
  Its outputs (labels, changed masks, scan lengths, counters, traces)
  are the reproduction's ground truth.
* ``"numba"`` — an optional JIT-compiled backend registered
  automatically when :mod:`numba` is importable (declared under
  ``pip install repro[numba]``).  It must be bit-identical to
  ``"numpy"`` under the kernel property sweeps and the engine-level
  conformance suite; only wall-clock may differ.

:func:`get_backend` / :func:`register_backend` /
:func:`available_backends` are the one sanctioned extension point.
Selection flows through the typed front door: every engine-bearing
options dataclass has a ``backend`` field validated at construction
(:func:`validate_backend`), so
``connected_components(..., options=ThriftyOptions(backend="numba"))``
and CLI ``--opt backend=numba`` reach the engine without any global
state, and the serving layer keys caches and learned costs per
backend.

The implementation modules (``_numpy``, ``_numba``) are
backend-private: use the registry.  Code with no ``backend`` option
of its own calls ``get_backend()``, the canonical backend.
"""

from __future__ import annotations

import importlib
import warnings
from typing import Any, Protocol, runtime_checkable

import numpy as np

from ._numpy import NumpyBackend

__all__ = [
    "KernelBackend",
    "get_backend",
    "register_backend",
    "available_backends",
    "validate_backend",
    "canonical_backend",
    "DEFAULT_BACKEND",
]

#: The backend ``None`` resolves to everywhere a ``backend`` option is
#: accepted — the canonical numpy implementation.
DEFAULT_BACKEND = "numpy"


@runtime_checkable
class KernelBackend(Protocol):
    """The hot-kernel surface every registered backend implements.

    Semantics are pinned by the canonical numpy backend and its
    docstrings (``_numpy.py``); implementations must be
    bit-identical on every output — the cost model and counters only
    ever see *what* was computed, never how fast.  ``name`` is the
    registry key the backend was written for.
    """

    name: str

    def blockwise_sums(self, values: np.ndarray, starts: np.ndarray,
                       ends: np.ndarray) -> np.ndarray: ...

    def segment_min(self, values: np.ndarray, starts: np.ndarray,
                    ends: np.ndarray, fill: np.ndarray) -> np.ndarray: ...

    def pull_block(self, graph: Any, labels: np.ndarray, lo: int,
                   hi: int) -> tuple[np.ndarray, np.ndarray]: ...

    def pull_block_zero_cut(self, graph: Any, labels: np.ndarray,
                            lo: int, hi: int,
                            skip: np.ndarray | None = None
                            ) -> tuple[np.ndarray, np.ndarray,
                                       np.ndarray]: ...

    def intra_block_groups(self, graph: Any, block_bounds: np.ndarray
                           ) -> np.ndarray: ...

    def block_async_min(self, jacobi: np.ndarray,
                        groups_local: np.ndarray) -> np.ndarray: ...

    def chunked_cuts(self, boundaries: np.ndarray,
                     block_size: int) -> np.ndarray: ...

    def concat_adjacency(self, graph: Any, rows: np.ndarray
                         ) -> tuple[np.ndarray, np.ndarray]: ...

    def batch_atomic_min(self, array: np.ndarray, indices: np.ndarray,
                         values: np.ndarray) -> np.ndarray: ...

    def scatter_min_count(self, array: np.ndarray, indices: np.ndarray,
                          values: np.ndarray) -> int: ...


_REGISTRY: dict[str, KernelBackend] = {}
_NUMBA_PROBED = False


def register_backend(name: str, backend: KernelBackend) -> None:
    """Register ``backend`` under ``name`` (replacing any previous).

    The sanctioned extension point: third-party backends register
    here and become selectable through every ``backend=`` option and
    CLI ``--opt backend=...``.  The backend must be bit-identical to
    ``"numpy"`` — run ``tests/test_backend_conformance.py`` against
    it.
    """
    if not isinstance(name, str) or not name:
        raise ValueError("backend name must be a non-empty string")
    _REGISTRY[name] = backend


def _probe_numba() -> None:
    """One-shot attempt to register the compiled backend.

    numba is an optional dependency; when it is absent (or its import
    fails for any environmental reason) the registry simply never
    lists ``"numba"`` and everything runs on the canonical numpy
    backend.
    """
    global _NUMBA_PROBED
    if _NUMBA_PROBED:
        return
    _NUMBA_PROBED = True
    try:
        importlib.import_module("numba")
    except Exception:
        return
    try:
        from ._numba import NumbaBackend
        register_backend("numba", NumbaBackend())
    except Exception as exc:
        warnings.warn(
            f"numba is importable but the numba backend failed to "
            f"load ({exc!r}); continuing with numpy only",
            RuntimeWarning, stacklevel=2)


def get_backend(name: str | None = None) -> KernelBackend:
    """Return the backend registered under ``name``.

    ``None`` resolves to :data:`DEFAULT_BACKEND` (``"numpy"``) — the
    spelling every ``backend=None`` options field uses.  Unknown
    names raise ``ValueError`` listing :func:`available_backends`.
    """
    if name is None:
        name = DEFAULT_BACKEND
    if name not in _REGISTRY:
        _probe_numba()
    try:
        return _REGISTRY[name]
    except KeyError:
        raise ValueError(
            f"unknown backend {name!r}; available backends: "
            f"{available_backends()}") from None


def available_backends() -> list[str]:
    """Names of all registered backends (sorted).

    Includes ``"numba"`` only when the optional dependency imported
    successfully.
    """
    _probe_numba()
    return sorted(_REGISTRY)


def validate_backend(name: str | None) -> None:
    """Shared construction-time validator for ``backend`` options.

    ``None`` (use the default) always validates; any other value must
    name a registered backend.  Every frozen options dataclass with a
    ``backend`` field calls this from ``__post_init__`` so an invalid
    spelling fails at construction, not mid-run.
    """
    if name is None:
        return
    if not isinstance(name, str):
        raise ValueError(
            f"backend must be a string or None, got "
            f"{type(name).__name__}")
    if name not in _REGISTRY:
        _probe_numba()
    if name not in _REGISTRY:
        raise ValueError(
            f"unknown backend {name!r}; available backends: "
            f"{available_backends()}")


def canonical_backend(name: str | None) -> str | None:
    """Validate a ``backend`` option and fold it to canonical form.

    The default backend has two spellings — ``None`` and its explicit
    name — and the frozen options instance is a result-cache key
    component, so both must construct *equal* dataclasses.  Options
    ``__post_init__`` methods assign the returned value back onto the
    field: ``None`` for the default backend (either spelling), the
    validated name otherwise.
    """
    validate_backend(name)
    return None if name == DEFAULT_BACKEND else name


register_backend("numpy", NumpyBackend())
