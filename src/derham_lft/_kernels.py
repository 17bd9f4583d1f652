"""The one hot float64 loop: the sampled digit path.

The digit recursion is sequential (each state feeds the next), so the
loop is jitted with numba when it is installed and runs once over the
whole path arrays; everything else derived from a path is a vectorised
post-pass over the states it returns.  Without numba the same Python
loop runs on lists in blocks of BLOCK steps (`fill_path`): list and
bytearray indexing is several times cheaper than numpy element access,
and blocks keep the lists small next to the path arrays.  numba's own
switch NUMBA_DISABLE_JIT=1 runs the Python original, which a jitted
function also keeps as `path_arrays.py_func`.  No fastmath: the jitted
and Python loops must agree bit for bit, and blocking does not change
the order of any float operation.
"""

from __future__ import annotations

#: Steps per block of the pure-Python loop.  Larger blocks cost memory:
#: one list for a 1e6-step path took `sample` to 120 MB peak RSS, 2^16
#: steps to 59 MB, 2^12 steps to 51.7 MB against 51 MB for no lists.
BLOCK = 1 << 12


def _path_arrays(a0, b0, c0, d0, a1, b1, c1, d1, gamma, t, uniforms, digits, states):
    """Fill digits and states from start state t; return the next state."""
    for i in range(len(uniforms)):
        states[i] = t
        p0 = (t + 1.0) / (t + gamma)
        if uniforms[i] < p0:
            digits[i] = 0
            t = (a0 * t + c0) / (b0 * t + d0)
        else:
            digits[i] = 1
            t = (a1 * t + c1) / (b1 * t + d1)
    return t


try:
    import numba
except ImportError:
    path_arrays = _path_arrays
else:
    path_arrays = numba.njit(cache=True)(_path_arrays)


def using_numba() -> bool:
    return path_arrays is not _path_arrays


def fill_path(params, uniforms, digits, states) -> None:
    """Fill the uint8 digits and float64 states arrays of a path from
    t = 0, one step per uniform.  The jitted path_arrays runs once over
    the arrays; the Python one runs on list copies of BLOCK steps each,
    carrying the state from block to block."""
    if using_numba():
        path_arrays(*params, 0.0, uniforms, digits, states)
        return
    t = 0.0
    for start in range(0, len(uniforms), BLOCK):
        block = slice(start, start + BLOCK)
        u = uniforms[block].tolist()
        d = bytearray(len(u))
        s = [0.0] * len(u)
        t = path_arrays(*params, t, u, d, s)
        digits[block] = d
        states[block] = s
