"""Kernel backend selection and hypergraph encoding for the kernels.

The kernels are the brute-force counters and the one-extra-color scan.
Two backends compute identical results:

* ``numba``: the loop kernels from ``loops.py`` wrapped with ``@njit``,
  default whenever numba imports.
* ``numpy``: the vectorized implementations from ``vectorized.py``; no
  loop kernel runs on this backend.

The env var HYPERCHROM_KERNELS (``numba`` or ``numpy``) picks the default
at import; ``set_backend`` switches at run time (used by the tests).  All
kernel inputs are int64 numpy arrays produced by the encoders below, which
refuse invalid instances; callers keep counts below 2^63.
"""

from __future__ import annotations

import os

import numpy as np

from ..errors import InputError
from ..hypercore import require_valid
from . import loops, vectorized

try:
    import numba

    HAS_NUMBA = True
except ImportError:  # pragma: no cover - numba present in normal installs
    numba = None
    HAS_NUMBA = False

__all__ = [
    "HAS_NUMBA",
    "available_backends",
    "get_backend",
    "set_backend",
    "count_proper_colorings",
    "count_list_colorings",
    "batch_min_list_colorings",
    "omit_pattern_scan",
    "edges_csr",
    "edges_by_last_csr",
    "broken_csr",
]

_KERNEL_NAMES = (
    "count_proper_colorings",
    "count_list_colorings",
    "batch_min_list_colorings",
    "omit_pattern_scan",
)

_IMPLS: dict[str, dict] = {}


def _numpy_impls() -> dict:
    return {name: getattr(vectorized, name) for name in _KERNEL_NAMES}


def _numba_impls() -> dict:
    jit = numba.njit(cache=True)
    return {name: jit(getattr(loops, name)) for name in _KERNEL_NAMES}


def available_backends() -> tuple[str, ...]:
    return ("numba", "numpy") if HAS_NUMBA else ("numpy",)


def _impls_for(name: str) -> dict:
    if name not in ("numba", "numpy"):
        raise InputError(f"unknown kernel backend {name!r} (use numba or numpy)")
    if name == "numba" and not HAS_NUMBA:
        raise InputError("kernel backend numba requested but numba is not importable")
    if name not in _IMPLS:
        _IMPLS[name] = _numba_impls() if name == "numba" else _numpy_impls()
    return _IMPLS[name]


def _default_backend() -> str:
    env = os.environ.get("HYPERCHROM_KERNELS", "").strip().lower()
    if env:
        return env
    return "numba" if HAS_NUMBA else "numpy"


_ACTIVE = _default_backend()


def get_backend() -> str:
    return _ACTIVE


def set_backend(name: str) -> str:
    """Switch the active backend; returns the previous one."""
    global _ACTIVE
    _impls_for(name)
    previous = _ACTIVE
    _ACTIVE = name
    return previous


def _dispatch(name: str):
    return _impls_for(_ACTIVE)[name]


def count_proper_colorings(*args):
    return _dispatch("count_proper_colorings")(*args)


def count_list_colorings(*args):
    return _dispatch("count_list_colorings")(*args)


def batch_min_list_colorings(*args):
    return _dispatch("batch_min_list_colorings")(*args)


def omit_pattern_scan(*args):
    return _dispatch("omit_pattern_scan")(*args)


# ---------------------------------------------------------------------------
# encoders


def edges_csr(H) -> tuple[np.ndarray, np.ndarray]:
    """Edges in label order as CSR (vertices 0-based)."""
    key = "kern_edges_csr"
    if key not in H._cache:
        require_valid(H)
        flat = []
        offsets = [0]
        for edge in H.edges:
            flat.extend(v - 1 for v in edge)
            offsets.append(len(flat))
        H._cache[key] = (
            np.array(flat, dtype=np.int64),
            np.array(offsets, dtype=np.int64),
        )
    return H._cache[key]


def edges_by_last_csr(H) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Edges grouped by maximum vertex, for the odometer counting kernels.

    Returns (ce_vertices, ce_offsets, ce_starts): edges sorted by their last
    vertex; ce_starts[v]..ce_starts[v+1] index the edges whose maximum
    0-based vertex is v.
    """
    key = "kern_edges_by_last"
    if key not in H._cache:
        require_valid(H)
        order = sorted(range(H.m), key=lambda i: (H.edges[i][-1], i))
        flat = []
        offsets = [0]
        counts = [0] * (H.n + 1)
        for ei in order:
            edge = H.edges[ei]
            flat.extend(v - 1 for v in edge)
            offsets.append(len(flat))
            counts[edge[-1] - 1 + 1] += 1
        starts = [0] * (H.n + 1)
        for v in range(1, H.n + 1):
            starts[v] = starts[v - 1] + counts[v]
        H._cache[key] = (
            np.array(flat, dtype=np.int64),
            np.array(offsets, dtype=np.int64),
            np.array(starts, dtype=np.int64),
        )
    return H._cache[key]


def broken_csr(catalog, eta=None) -> tuple[np.ndarray, np.ndarray]:
    """Deduplicated broken family grouped by maximum edge index, as CSR."""
    from ..cycles import broken_by_max_edge, normalize_eta

    eta_t = normalize_eta(catalog.H, eta)
    key = ("csr", eta_t)
    if key not in catalog._broken_cache:
        masks = [b.mask for b in catalog.broken_family(eta_t)]
        groups = broken_by_max_edge(masks, catalog.H.m)
        flat = []
        offsets = [0]
        for group in groups:
            flat.extend(group)
            offsets.append(len(flat))
        catalog._broken_cache[key] = (
            np.array(flat, dtype=np.int64),
            np.array(offsets, dtype=np.int64),
        )
    return catalog._broken_cache[key]
