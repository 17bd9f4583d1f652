"""The one hot float64 loop: the sampled digit path.

The digit recursion is sequential (each state feeds the next), so the
loop is jitted with numba when it is installed; everything else derived
from a path is a vectorised post-pass over the states it returns.
numba's own switch NUMBA_DISABLE_JIT=1 runs the Python original, which
a jitted function also keeps as `path_arrays.py_func`.  No fastmath:
the jitted and Python loops must agree bit for bit.
"""

from __future__ import annotations


def _path_arrays(a0, b0, c0, d0, a1, b1, c1, d1, gamma, uniforms, digits, states):
    t = 0.0
    for i in range(uniforms.shape[0]):
        states[i] = t
        p0 = (t + 1.0) / (t + gamma)
        if uniforms[i] < p0:
            digits[i] = 0
            t = (a0 * t + c0) / (b0 * t + d0)
        else:
            digits[i] = 1
            t = (a1 * t + c1) / (b1 * t + d1)


try:
    import numba
except ImportError:
    path_arrays = _path_arrays
else:
    path_arrays = numba.njit(cache=True)(_path_arrays)


def using_numba() -> bool:
    return path_arrays is not _path_arrays
