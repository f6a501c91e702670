"""BLAS-free dot-product reduction shared by every assessment path.

``np.dot`` on float64 vectors calls the linked BLAS's ``ddot``, and
OpenBLAS runs that on its own thread pool.  Inside a process or thread
pool that nests a second level of parallelism under the first: each
worker's BLAS threads spin on the cores the other workers need.  On a
2-core host one 102,400-element ``ddot`` took 4.8-8.0 ms with
OpenBLAS's default two threads and 0.03 ms with one, and each of two
concurrent pool workers took 97 ms per 16x80x80 pair, against 39 ms
once no reduction entered BLAS.

:func:`dot` evaluates the same sum with ``np.einsum``'s own
single-threaded loop, which never enters BLAS.  It runs within 1.5x of
a one-thread ``ddot`` (0.045 against 0.032 ms for the vector above),
needs no environment variable or process-wide thread cap, and sums in
the same order on every host, whatever its core count.
"""

from __future__ import annotations

import numpy as np

__all__ = ["dot"]

#: einsum subscripts summing the elementwise product over every axis
_SUBSCRIPTS = tuple(
    f"{axes},{axes}->" for axes in ("", "i", "ij", "ijk", "ijkl")
)


def dot(a: np.ndarray, b: np.ndarray) -> float:
    """``Σ a·b`` over two equal-shape arrays (views of any strides)."""
    return float(np.einsum(_SUBSCRIPTS[a.ndim], a, b))
