"""A fixed kernel that times how fast the host runs right now.

The host shares its cores with other tenants and runs the same code up to
twice as slowly for stretches of seconds to minutes.  The benchmark times
this kernel next to every operation and rescales the operation's time to the
speed at which the kernel takes ``REF_KERNEL_S``, so that a slow stretch of
the host moves both and cancels out.

The kernel mixes the kinds of work the workloads do: a sort (compute and
cache), sparse matrix-vector products (memory-bound, like a PDE step) and
elementwise array arithmetic (like a Monte Carlo step).  It calls neither
``safeprob`` nor BLAS, so a change to the program or to its BLAS thread
settings leaves the kernel's time alone.
"""

from __future__ import annotations

import time

import numpy as np
import scipy.sparse as sp

_rng = np.random.default_rng(20261018)
_keys = _rng.random(100_000)
_n = 200
_lap = sp.diags([-1.0, 2.0, -1.0], [-1, 0, 1], shape=(_n, _n))
_eye = sp.identity(_n)
_op = (sp.kron(_eye, _lap) + sp.kron(_lap, _eye)).tocsr()
_vec = _rng.random(_n * _n)
_paths = _rng.random((20_000, 2))

# The kernel's time on a quiet core of the machine the reference figures in
# bench/README.md come from.
REF_KERNEL_S = 0.08


def kernel_s() -> float:
    """Seconds the fixed kernel takes now (about 0.1 s)."""
    t0 = time.perf_counter()
    for _ in range(40):
        np.sort(_keys)
    for _ in range(200):
        _op @ _vec
    for _ in range(200):
        y = 0.3 * _paths[:, 0] - 0.7 * _paths[:, 1]
        np.exp(-y, out=y)
        y.sum()
    return time.perf_counter() - t0


def at_ref_speed(seconds: float, kernel_before: float, kernel_after: float) -> float:
    """``seconds`` rescaled to the host speed at which the kernel takes
    ``REF_KERNEL_S``, judged by its runs just before and after."""
    return seconds * REF_KERNEL_S / (0.5 * (kernel_before + kernel_after))


kernel_s()   # the first call in a process runs slower
