"""A fixed CPU kernel that does not use curvint, to track machine speed.

The machine the benchmark runs on is shared: over minutes its speed
changes by tens of percent for every process alike.  The kernel mixes the
two kinds of work curvint does, scalar float arithmetic in Python and
numpy calls on 4-element arrays, so that its time rises and falls with
curvint's.  It uses nothing under src/, so no change to the library can
move it.
"""

from time import perf_counter

# Seconds one kernel run takes between items on the machine the benchmark
# was defined on (2-core shared VM, Python 3.11, numpy 2.4).  Latencies are
# reported as if every kernel run had taken this long; see README.md.
NOMINAL_S = 0.004


def _rhs(y):
    x, v, px, py = y
    r3 = (x * x + v * v) ** 1.5
    return (px, py, -x / r3, -v / r3)


def kernel() -> tuple:
    """RK4 steps of a Kepler orbit in pure Python, then small-array numpy.

    numpy is imported here, not at module level, so that importing this
    module does not move numpy's import out of the timed set-up.
    """
    import numpy as np
    y = (1.0, 0.0, 0.0, 1.0)
    h = 1e-3
    for _ in range(400):
        k1 = _rhs(y)
        k2 = _rhs(tuple(a + 0.5 * h * b for a, b in zip(y, k1)))
        k3 = _rhs(tuple(a + 0.5 * h * b for a, b in zip(y, k2)))
        k4 = _rhs(tuple(a + h * b for a, b in zip(y, k3)))
        y = tuple(a + h / 6.0 * (b + 2.0 * c + 2.0 * d + e)
                  for a, b, c, d, e in zip(y, k1, k2, k3, k4))
    a = np.asarray(y)
    for _ in range(400):
        a = np.abs(a * 0.999 + 1e-3)
    return y + tuple(a)


def seconds() -> float:
    """Mean wall time of four kernel runs."""
    t0 = perf_counter()
    for _ in range(4):
        kernel()
    return (perf_counter() - t0) / 4
