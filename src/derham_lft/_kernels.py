"""The one hot float64 loop: the sampled digit path.

The digit recursion is sequential (each state feeds the next), so
`path_arrays` is the one loop that defines the path; everything else
derived from a path is a vectorised post-pass over the states it
returns.  Every way of running it below must agree with it bit for bit.

`fill_path` runs a long path speculatively in LANES lanes.  The path
is cut into LANES chunks of equal length.  Lane 0 starts on the path's
start state, the true state of its chunk.  Lane j >= 1 starts at 0.0,
runs BURN_IN steps on the uniforms just before its chunk, and then all
lanes step through their chunks together, one numpy operation per
arithmetic operation of `path_arrays`, in the same order: IEEE +, *
and / round the same in a numpy array as in a Python float, so a lane
that starts on the true state of its chunk reproduces the Python loop
bit for bit.  The chain contracts on [alpha, beta] (Barnsley,
Demko, Elton and Geronimo, Ann. IHP 1988), so two copies fed the same
uniforms meet on the same float within a few hundred steps, and the
burn-in puts most lanes on the true state.  Each chunk's first state is
then checked against the true end state of the chunk before it; a chunk
that differs is re-run by the Python loop from the true state until that
loop lands bit for bit on a speculative state again, after which the
lane's remaining states are exact.  Measured at 10^6 + 3 steps (1024
chunks of 976 steps) on 16 float systems (walk:0.5, forced-float walk:1
and walk:3/2, 13 random admissible pairs) and 2 seeds: after 192
burn-in steps the three walks needed no repair, and all 32 paths
together 2646 of 32736 chunks (8 %), re-running 154 272 steps, 0.5 %
of the path; after 64 steps 67 % of the chunks, after 16 every chunk.
On walk:0.5 the lanes fill a 10^6-step path in about 0.06 s against
0.24 s for the Python loop (2-core Xeon, Python 3.11, numpy 2.4).  A
path too short for chunks of BURN_IN steps, and the tail past LANES
whole chunks, run the Python loop on lists in blocks of BLOCK steps:
list and bytearray indexing is several times cheaper than numpy element
access, and blocks keep the lists small next to the path arrays.

The arrays given to `fill_path` hold 9 bytes per step: the uniforms
are drawn into the states array itself, and each step's uniform is read
before that step's state is written over it.  The burn-in runs first
and reads only uniforms not yet overwritten; the Python loop copies
each block of uniforms to a list before it writes the block's states.
The uniform stream is counter-based, so the repairs and the non-finite
fallback draw the uniforms of the stretch they re-run again.  A
10^6-step walk:0.5 path allocates about 9.05 bytes per step in
`sample_path`.  `fill_path` starts from any state
and returns the state after the last step, so a path can also run in
windows of fixed length, each from the end state of the one before: a
report (`measure._sample_report`) holds one window, and `sample_path`
holds the whole path as one window.
"""

from __future__ import annotations

import numpy as np

#: Steps per block of the pure-Python loop.  Larger blocks cost memory:
#: one list for a 1e6-step path took `sample` to 120 MB peak RSS, 2^16
#: steps to 59 MB, 2^12 steps to 51.7 MB against 51 MB for no lists.
BLOCK = 1 << 12

#: Lanes of the speculative numpy sweep: enough to share each numpy
#: call's fixed cost among many steps, few enough that a 10^6-step
#: path gives chunks (976 steps) long next to their burn-in.
LANES = 1 << 10

#: Steps each lane j >= 1 runs before its chunk; also the shortest
#: chunk, so a path needs LANES * BURN_IN steps for the lane sweep.
BURN_IN = 192

#: Steps per Python re-run while a repaired chunk has not yet met its
#: speculative states.
REPAIR = 16


def path_arrays(a0, b0, c0, d0, a1, b1, c1, d1, gamma, t, uniforms, digits, states):
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


def fill_path(params, draw, digits, states, t=0.0) -> float:
    """Fill the uint8 digits and float64 states arrays of a path from
    the start state t, one step per uniform, and return the state after
    its last step; draw(start, out) fills the float64 array out with the
    path's uniforms start, start + 1, ....  The uniforms are drawn into
    states and overwritten there step by step.  A path of at least
    LANES * BURN_IN steps runs in lanes (see the module docstring), a
    shorter one in the Python loop.  If a lane state or lane end comes
    out non-finite, or at the pole -gamma of the digit law, where the
    Python loop could raise, the whole path runs in the Python loop
    instead."""
    draw(0, states)
    length = len(states) // LANES
    if length < BURN_IN:
        return _python_path(params, t, states, digits, states)
    # (lane, step) views of the path's own arrays: no copies.  The tail
    # past `cut` still holds its uniforms.
    cut = LANES * length
    d, s = (a[:cut].reshape(LANES, length) for a in (digits, states))
    with np.errstate(all="ignore"):
        ends = _sweep(params, t, d, s)
        lo = min(s.min(), ends.min())
        hi = max(s.max(), ends.max())
    gamma = params[-1]
    if not -gamma < lo <= hi < np.inf:  # also false on NaN
        draw(0, states[:cut])
        return _python_path(params, t, states, digits, states)
    # The bits of each chunk's first state and of each lane end are read
    # off int64 views: viewing the float t anew for each lane cost about
    # 2 ms a path, once per window of a report.
    first_bits = s[:, 0].view(np.int64)
    end_bits = ends.view(np.int64)
    t, t_bits = ends[0], end_bits[0]  # lane 0 started on the true state t
    for j in range(1, LANES):
        if first_bits[j] != t_bits:
            t = _repair(params, t, d[j], s[j], ends[j], draw, j * length)
            t_bits = np.float64(t).view(np.int64)
        else:
            t, t_bits = ends[j], end_bits[j]
    return _python_path(params, float(t), states[cut:], digits[cut:], states[cut:])


def _sweep(params, start, d, s):
    """Step every lane through its row of s, which holds the lane's
    uniforms, writing d and overwriting s with the states; lane 0 starts
    on the start state, the others on 0.0 before their burn-in.  Return
    the state after each lane's last step."""
    a0, b0, c0, d0, a1, b1, c1, d1, gamma = params
    lanes, length = s.shape

    def step(t, x):
        # path_arrays' operations in its order; ~(x < p0), not
        # x >= p0, so that a NaN p0 draws digit 1 as the loop does.
        one = ~(x < (t + 1.0) / (t + gamma))
        t0 = (a0 * t + c0) / (b0 * t + d0)
        t1 = (a1 * t + c1) / (b1 * t + d1)
        return one, np.where(one, t1, t0)

    t = np.zeros(lanes)
    t[0] = start
    # Lane j >= 1 burns in on the last BURN_IN uniforms of row j - 1,
    # before the sweep below overwrites any of them.
    for k in range(length - BURN_IN, length):
        t[1:] = step(t[1:], s[:-1, k])[1]
    for k in range(length):
        one, after = step(t, s[:, k])  # reads column k before writing it
        s[:, k] = t
        d[:, k] = one
        t = after
    return t


def _repair(params, t, d, s, end, draw, start):
    """Re-run one chunk, which starts at step `start` of the path, from
    its true start state t, REPAIR steps at a time, drawing each run's
    uniforms again into s, until the state after a run equals the
    speculative state there bit for bit; return the chunk's true end
    state (its speculative `end` once the runs have met the lane)."""
    bits = s.view(np.int64)
    t = float(t)
    for first in range(0, len(s), REPAIR):
        run = slice(first, first + REPAIR)
        draw(start + first, s[run])
        t = _python_path(params, t, s[run], d[run], s[run])
        if run.stop < len(s) and bits[run.stop] == np.float64(t).view(np.int64):
            return end
    return t


def _python_path(params, t, uniforms, digits, states):
    """The Python loop from state t on list copies of BLOCK steps each,
    carrying the state from block to block; return the next state."""
    for start in range(0, len(uniforms), BLOCK):
        block = slice(start, start + BLOCK)
        u = uniforms[block].tolist()
        d = bytearray(len(u))
        s = [0.0] * len(u)
        t = path_arrays(*params, t, u, d, s)
        digits[block] = d
        states[block] = s
    return t
