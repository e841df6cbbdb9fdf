"""Host speed: a fixed calibration kernel timed next to every measurement.

On a shared virtual machine the speed of a CPU drifts with the load of the
other guests on the host, by up to a quarter over a few minutes, with
almost no steal time to show for it.  Wall times taken minutes apart then
differ by more than any change in the program would move them.  The
kernel below does not touch the package under test; its time tracks the
drift (correlation 0.93-0.95 with the median ``verify-all`` time over
30-60 s windows on a 2-vCPU Xeon guest).  Set-up times, and the command
times of workloads with ``host_scaled`` set, are scaled by
``REFERENCE_S / kernel time``: the time the measurement would have taken on
a host that runs the kernel in ``REFERENCE_S``.  The raw times are kept next
to the scaled ones in the run's ``result.json``.
"""

from __future__ import annotations

import statistics
import time

# A typical kernel time on a 2-vCPU Intel Xeon @ 2.0 GHz KVM guest (Python
# 3.11, scipy 1.17); a fixed constant, so scaled times stay in seconds.
REFERENCE_S = 0.04

_REPEATS = 5
_LOOP = 200_000
_GRID = 50
_matrix = None


def _lu_matrix():
    """Complex-shifted 2-D Laplacian on a fixed grid, in CSC form."""
    global _matrix
    if _matrix is None:
        import scipy.sparse as sp
        one = sp.diags([-1.0, 2.0, -1.0], [-1, 0, 1], shape=(_GRID, _GRID))
        eye = sp.eye(_GRID)
        _matrix = (sp.kron(one, eye) + sp.kron(eye, one)
                   + 0.1j * sp.eye(_GRID * _GRID)).tocsc()
    return _matrix


def _kernel_once() -> float:
    from scipy.sparse.linalg import splu
    a = _lu_matrix()
    t0 = time.perf_counter()
    s = 0
    for i in range(_LOOP):
        s += i * i
    splu(a)
    splu(a)
    return time.perf_counter() - t0


def kernel_s() -> float:
    """Median time of the calibration kernel over a few repeats: a
    pure-Python integer loop (interpreter speed) and two sparse LU
    factorizations (floating point and memory)."""
    _lu_matrix()
    return statistics.median(_kernel_once() for _ in range(_REPEATS))


def scale(seconds: float, *kernel_times: float) -> float:
    """``seconds`` measured while the kernel took ``kernel_times``, scaled
    to the reference host speed."""
    return seconds * REFERENCE_S / statistics.mean(kernel_times)
