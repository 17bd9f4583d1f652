"""Dyadic interval masses, ratio states, and Monte Carlo sampling.

The measure mu whose distribution function solves the equation assigns
to the dyadic interval of an address the mass

    R = (p*s - q*r) / (s * (r + s))

computed from the word product ((p, q), (r, s)) of that address.  The
bottom-row ratio t = r/s is the orbit of 0 under the transposed maps,
stays inside [alpha, beta], and drives the digit law: the next digit is
0 with probability (t + 1)/(t + gamma).  Masses and states of given
addresses are read off the word (``DeRhamSystem.word_basis``); sampling only
needs the scalar recursion t -> tAi(t), one float (or Fraction) per step.

When c0 = c1 = 0 both transposed maps fix 0 (the pair is affine, and
alpha = beta = 0, as for the lebesgue presets): every state is 0, the
digits are i.i.d. with P(0) = 1/gamma, and sampling draws them in one
vectorised comparison in either mode (``DeRhamSystem.affine``).  A
report on such a path forms its one entropy term h once, in either
mode, and returns h * n / n: fsum of the n equal terms is h * n.
Otherwise exact sampling reads the state off the integer bottom row
(r, s) of the word, stepped by the coprime integer matrices of A0 and
A1 (``numerics.renormalize``), so it builds no ``word_basis``: each
step forms the next pair with Python ints and one gcd (the Fraction
constructor), and the digit probability is the correctly rounded
int/int quotient.  On a state interval with alpha < beta exact
states gain bits of denominator per step that depend on the pair (one
on exact walk:1, three on walk:3/7), so ``sample_path``, which returns
those Fraction states, stays at least quadratic in its length, and is
refused past the time walk:1 takes at _MAX_EXACT_GROWING_STEPS steps
(``_state_growth``, ``_exact_path_cap``).  Float paths run the loop
of ``_kernels``, imported for them alone: a long path in numpy lanes
that are checked and repaired against the Python loop bit for bit, a
short one in that loop.  Every path takes its uniforms from one Philox
stream per seed, Generator(Philox(seed)).  numpy draws it for float and
affine paths, entered at any position (``_uniforms``), so no such path
holds an array of uniforms beside its digits and states: float paths
draw them into the state array, which the loop overwrites step by
step, and repairs draw the stretch they re-run again; affine paths
read blocks of 2^16 uniforms (``_uniform_blocks``).  Exact reports, and
exact non-affine paths, draw the same stream bit for bit in pure
Python, its blocks advanced together as the slots of one int
(``_philox_lanes``), so an exact report imports no numpy (an affine
one up to _MAX_PURE_AFFINE_STEPS steps), whose import would cost more
start-up time than the whole report (0.13 s against 0.02 s at 3000
steps of walk:1).  The
entropy rate of a float path is the exact sum of its terms, an integer
total per numpy block of terms (``_exact_total``), summed and rounded
once, so it equals ``math.fsum`` over the terms bit for bit at about
0.4 of the cost (0.025 s against 0.065 s per 10^6 steps, 2-core Xeon).

``sample_path`` holds the whole path, about 9 bytes per step (more for
the Fraction states of an exact path).  A report (``_sample_report``:
``entropy_rate_estimate`` and the CLI's ``sample``) needs only the count
of digit 0, the least and greatest state and the entropy sum, so it
reads its path once and does not hold it, in time linear in its
length: a float path runs in windows
of ``_WINDOW`` steps in one reused pair of buffers, each window drawing
its own stretch of uniforms and starting from the true end state of the
window before, and the report adds the integer totals of
``_exact_total`` across the windows; an affine pair counts digit 0
block by block (``_philox_count_below`` in exact mode) and forms no
path at all; an exact non-affine path steps integer intervals that hold
its states (``_interval_report``), which decide each digit, P(0) and
the state range as the Fraction loop (``_exact_steps``) rounds them.
The report equals that of the whole path bit for bit; ``sample
walk:0.5 -n 8000000`` peaks at about 39 MB of resident memory.
"""

from __future__ import annotations

from array import array
from fractions import Fraction
from math import ceil, fsum, nan
from sys import byteorder
from typing import TYPE_CHECKING, Iterator, Sequence

from .errors import DomainError
from .numerics import Bits, MoebiusMatrix, Scalar, _Record, check_bits, renormalize
from .system import DeRhamSystem, binary_entropy, prob_digit0

if TYPE_CHECKING:  # imported on use, so `import derham_lft` does not load numpy
    import numpy as np

#: Containment of ratio states in [alpha, beta] is exact in exact mode;
#: float orbits are allowed to spill by this much.
STATE_ATOL = 1e-10

DEFAULT_SEED = 99991

#: Longest exact path drawn for a non-affine pair.  A report steps integer
#: intervals in time linear in n (walk:1 and walk:3/7 about 0.1 s in
#: process at 20k steps, 0.26 s as CLI runs that load no numpy).
#: sample_path holds Fraction states whose denominators grow by bits per
#: step that depend on the pair (1.00 on walk:1, 3.01 on walk:3/7), so its
#: time grows at least quadratically in n: walk:1 keeps this cap (about
#: 0.5 s in process; it was 0.85 s, 88 MB when reports held the path, and
#: 2.9 s, 244 MB at 40k, 2-core Xeon), and faster-growing pairs stop
#: where their path would take longer (_exact_path_cap).
_MAX_EXACT_GROWING_STEPS = 20_000

#: Longest path in any mode.  It bounds the arrays sample_path returns
#: (digits and states, about 9 bytes per step: 300 MB at the cap), and
#: the time a report takes, which holds one window of the path
#: (_sample_report: about 4.2 s for float walk:0.5 at the cap, 0.2 s for
#: an affine pair, and about 12 s where the pure-Python float loop runs,
#: on a 2-core Xeon).
_MAX_STEPS = 1 << 25


class MeasureNode(_Record):
    """Per-address interval mass and ratio state; `word` is formed on read.
    `system` is not a field: equality, hash and repr leave it out."""

    _fields = ("bits", "mass", "state")
    bits: Bits
    mass: Scalar
    state: Scalar
    system: DeRhamSystem

    def __init__(self, bits: Bits, mass: Scalar, state: Scalar, system: DeRhamSystem):
        self.__dict__.update(bits=bits, mass=mass, state=state, system=system)

    @property
    def word(self) -> MoebiusMatrix:
        """``word_matrix`` of the address: in float mode the product up to
        a positive factor, as ``word_matrix`` says."""
        from .solution import word_matrix

        return word_matrix(self.system, self.bits)


def mass_from_word(word: MoebiusMatrix) -> Scalar:
    """Interval mass (p*s - q*r)/(s*(r + s)) of a word ((p, q), (r, s)).
    On a long float word p*s and q*r nearly cancel, so float masses lose
    relative accuracy with the depth and can come out 0 or negative."""
    p, q, r, s = word.entries
    return (p * s - q * r) / (s * (r + s))


def interval_measure(sys: DeRhamSystem, bits: Bits) -> Scalar:
    """Mass of the dyadic interval named by the address, equal to the
    width of the value enclosure of the same address; in (0, 1] in exact
    mode.  Float masses lose relative accuracy with the depth and can be
    0 (walk:0.5 at (1,) * 30, not 6.1e-23) or negative (ROADMAP.md item 3)."""
    check_bits(bits)
    basis = sys.word_basis
    return basis.mass(basis.path(bits))


def ratio_state(sys: DeRhamSystem, bits: Bits) -> Scalar:
    """Bottom-row ratio r/s of the address word, in either mode; the orbit
    of t = 0 under the transposed maps t -> (a*t + c)/(b*t + d), up to
    float rounding.  Inside [alpha, beta], float states within STATE_ATOL
    of it."""
    check_bits(bits)
    basis = sys.word_basis
    return basis.state(basis.path(bits))


def in_state_interval(sys: DeRhamSystem, t: Scalar) -> bool:
    if sys.exact:
        return sys.alpha <= t <= sys.beta
    return sys.alpha - STATE_ATOL <= t <= sys.beta + STATE_ATOL


def digit_probability(sys: DeRhamSystem, t: Scalar, digit: int) -> Scalar:
    """Conditional probability of the given next digit at ratio state t.

    Equals the mass ratio R(child)/R(parent) for the corresponding child
    interval.
    """
    if digit not in (0, 1):
        raise DomainError(f"digit must be 0 or 1, got {digit!r}")
    if not in_state_interval(sys, t):
        raise DomainError(f"ratio state {t} outside [{sys.alpha}, {sys.beta}]")
    p0 = prob_digit0(sys, t)
    return p0 if digit == 0 else 1 - p0


def walk_tree(sys: DeRhamSystem, depth: int) -> Iterator[MeasureNode]:
    """Every node of the dyadic tree down to the given depth, pre-order.

    Word products share prefixes, so the full exhaustive sweep costs one
    matrix multiplication per node.  Masses and states are read off each
    node's word, as `interval_measure` and `ratio_state` read them, so
    float masses lose relative accuracy with the depth as theirs do.
    """
    if depth < 0:
        raise DomainError("depth must be >= 0")
    return _walk(sys, depth)  # not a generator itself: a bad depth raises here


def _walk(sys: DeRhamSystem, depth: int) -> Iterator[MeasureNode]:
    basis = sys.word_basis
    stack = [((), basis.identity)]  # (bits, parent word)
    while stack:
        bits, word = stack.pop()
        if bits:
            word = basis.step(word, bits[-1], len(bits))
        yield MeasureNode(bits, basis.mass(word), basis.state(word), sys)
        if len(bits) < depth:
            stack += ((bits + (1,), word), (bits + (0,), word))


class SamplePath(_Record):
    """A sampled digit string with the ratio states that produced it.

    states[n] is the state before digit n+1 was drawn (states[0] = 0);
    exact systems keep Fraction states, float systems a float64 array.
    """

    _fields = ("digits", "states", "seed")
    digits: np.ndarray
    states: Sequence[Scalar]
    seed: int

    def __len__(self) -> int:
        return int(self.digits.shape[0])


#: Uniforms per draw of an affine path, compared with P(0) a block at a
#: time, so that no path-sized array of uniforms is held.
_DRAW_BLOCK = 1 << 16

#: Longest exact affine report counted on the pure-Python stream
#: (_philox_count_below), which loads no numpy; a longer one imports
#: numpy, whose import and count cost less than the pure count there.
#: `sample --preset lebesgue:1/4 -n N` as a CLI run (medians of 7, 2-core
#: Xeon), pure against numpy: 0.171 / 0.187 s at N = 4e5, 0.168 / 0.168 s
#: at 4.5e5, 0.192 / 0.180 s at 5e5; peak RSS 21.7 against 35.2 MB.
_MAX_PURE_AFFINE_STEPS = 450_000


def _uniforms(seed: int, start: int, out: np.ndarray) -> None:
    """Fill the float64 array out with the uniforms start, start + 1, ...
    of the seed's stream: Generator(Philox(seed)).random(n)[start:start +
    len(out)], for any n past that stretch.  Philox is counter-based
    (Salmon, Moraes, Dror and Shaw, SC 2011): each counter step gives
    four 64-bit words, one per uniform, so the stream is entered at
    counter start // 4 and start % 4 words are discarded."""
    import numpy as np

    bit_generator = np.random.Philox(seed).advance(start // 4)
    bit_generator.random_raw(start % 4)
    np.random.Generator(bit_generator).random(out=out)


_MASK32 = (1 << 32) - 1
_MASK64 = (1 << 64) - 1


def _philox_keys(seed: int) -> list[tuple[int, int]]:
    """The ten round keys of Philox(seed): its key, numpy's
    SeedSequence(seed).generate_state(2, uint64), bumped by two Weyl
    constants before each round after the first.  SeedSequence (after
    O'Neill's seed_seq_fe) hashes the seed's 32-bit words, low first,
    into a pool of four words and draws four words from the pool, paired
    little-endian into the two 64-bit words of the key."""
    entropy = [seed >> k & _MASK32 for k in range(0, max(seed.bit_length(), 1), 32)]
    mult = 0x43B0D7E5

    def hashmix(value: int) -> int:
        nonlocal mult
        value ^= mult
        mult = mult * 0x931E8875 & _MASK32
        value = value * mult & _MASK32
        return value ^ value >> 16

    def mix(x: int, y: int) -> int:
        x = 0xCA01F9DD * x - 0x4973F715 * y & _MASK32
        return x ^ x >> 16

    pool = [hashmix(w) for w in (entropy + [0] * 4)[:4]]
    for i in range(4):
        for j in range(4):
            if i != j:
                pool[j] = mix(pool[j], hashmix(pool[i]))
    for w in entropy[4:]:
        for j in range(4):
            pool[j] = mix(pool[j], hashmix(w))
    mult, words = 0x8B51F9DD, []
    for value in pool:
        value ^= mult
        mult = mult * 0x58F38DED & _MASK32
        value = value * mult & _MASK32
        words.append(value ^ value >> 16)
    k0, k1 = words[0] | words[1] << 32, words[2] | words[3] << 32
    keys = []
    for _ in range(10):
        keys.append((k0, k1))
        k0, k1 = k0 + 0x9E3779B97F4A7C15 & _MASK64, k1 + 0xBB67AE8584CAA73B & _MASK64
    return keys


#: Philox blocks per stretch of the lane-packed stream: _DRAW_BLOCK
#: uniforms, whose packed words (256 KB each) stay in cache.
_LANE_BLOCKS = _DRAW_BLOCK // 4


def _lane_ones(blocks: int) -> tuple[int, int]:
    """(ones, ramp) of the lanes of `blocks` blocks: 1, and the block
    index j, in the 128-bit slot 128j of one int."""
    ones, ramp, width = 1, 0, 1
    while width < blocks:
        ramp |= ramp + width * ones << 128 * width
        ones |= ones << 128 * width
        width *= 2
    mask = (1 << 128 * blocks) - 1
    return ones & mask, ramp & mask


def _philox_lanes(counter: int, keys: list[tuple[int, int]], blocks: int) -> tuple[int, ...]:
    """Philox4x64-10 at the 256-bit counters counter, counter + 1, ...
    (modulo 2^256), up to _LANE_BLOCKS of them, as four ints: word i of
    block j fills the low 64 bits of the 128-bit slot 128j of the i-th
    (SIMD within a register: Lamport, CACM 1975).  A product of a word
    and a 64-bit multiplier stays below 2^128, inside its slot, so every
    round is a dozen operations on whole ints, whatever the blocks."""
    low = counter & _MASK64
    if low + blocks > 1 << 64:  # the low counter word carries inside the stretch
        head = (1 << 64) - low
        tail = _philox_lanes(counter + head & (1 << 256) - 1, keys, blocks - head)
        return tuple(x | y << 128 * head for x, y in zip(_philox_lanes(counter, keys, head), tail))
    ones, ramp = _lane_ones(blocks)
    mask = _MASK64 * ones
    x0 = low * ones + ramp
    x1, x2, x3 = ((counter >> k & _MASK64) * ones for k in (64, 128, 192))
    for k0, k1 in keys:
        p, q = 0xD2E7470EE14C6C93 * x0, 0xCA5A826395121157 * x2
        x0, x1 = (q >> 64 & mask) ^ x1 ^ k0 * ones, q & mask
        x2, x3 = (p >> 64 & mask) ^ x3 ^ k1 * ones, p & mask
    return x0, x1, x2, x3


def _philox_stretches(seed: int, n: int) -> Iterator[tuple[tuple[int, ...], int]]:
    """(lanes, blocks) of the Philox blocks that hold the seed's first n
    uniforms, _LANE_BLOCKS at a time: numpy increments the counter before
    each block, so the stream starts at counter 1."""
    keys = _philox_keys(seed)
    total = (n + 3) // 4
    for start in range(0, total, _LANE_BLOCKS):
        blocks = min(_LANE_BLOCKS, total - start)
        yield _philox_lanes(start + 1, keys, blocks), blocks


def _lane_words(lanes: tuple[int, ...], blocks: int) -> array:
    """The 64-bit words of the lanes in stream order: each block's four."""
    words = array("Q", bytes(32 * blocks))
    for i, x in enumerate(lanes):
        slots = array("Q", x.to_bytes(16 * blocks, "little"))
        if byteorder == "big":
            slots.byteswap()
        words[i::4] = slots[::2]
    return words


def _philox_uniforms(seed: int, n: int) -> list[float]:
    """Generator(Philox(seed)).random(n) as a list, in pure Python:
    random() reads one 64-bit word per uniform as (word >> 11) * 2**-53."""
    u: list[float] = []
    for lanes, blocks in _philox_stretches(seed, n):
        u += [(w >> 11) * 2.0**-53 for w in _lane_words(lanes, blocks)]
    del u[n:]
    return u


def _philox_count_below(seed: int, n: int, p0: float) -> int:
    """How many of the seed's first n uniforms lie below the float p0 in
    (0, 1], counted on the packed words.  A uniform (w >> 11) * 2**-53 is
    below p0 exactly when w < ceil(p0 * 2**53) << 11, one bound per word:
    with 2^64 added to each 128-bit slot and the bound subtracted, bit 64
    of a slot stays set exactly when its word is not below the bound."""
    bound = ceil(p0 * 2.0**53) << 11
    below = 0
    for lanes, blocks in _philox_stretches(seed, n):
        ones = _lane_ones(blocks)[0]
        high, subtract = ones << 64, bound * ones
        below += 4 * blocks - sum(((x | high) - subtract & high).bit_count() for x in lanes)
    # The words of the last block past the n-th uniform.
    return below - sum(x >> 128 * (blocks - 1) < bound for x in lanes[4 - (-n % 4) :])


def _float_params(sys: DeRhamSystem) -> tuple[float, ...]:
    return (*sys.A0.entries, *sys.A1.entries, sys.gamma)


def _check_request(sys: DeRhamSystem, n: int, seed: int) -> None:
    """Refuse a path of n steps before anything is drawn."""
    if n < 1:
        raise DomainError("n must be >= 1")
    if seed < 0:
        raise DomainError("seed must be >= 0")
    if n > _MAX_STEPS:
        raise DomainError(
            f"n = {n} exceeds {_MAX_STEPS}, the most steps one path runs (the cap on "
            "the arrays sample_path returns, about 9 bytes per step, and on the time a "
            "report takes); use a smaller n"
        )
    if sys.exact and not sys.affine and n > _MAX_EXACT_GROWING_STEPS:
        raise DomainError(
            f"n = {n} exceeds {_MAX_EXACT_GROWING_STEPS}, the cap for exact sampling "
            "of non-affine pairs (state denominators grow by bits per step that depend "
            "on the pair; timed on walk:1); use --mode approx (force_approx) or a smaller n"
        )


def _uniform_blocks(seed: int, n: int) -> Iterator[tuple[int, np.ndarray]]:
    """(start, uniforms start, start + 1, ...) of the seed's first n
    uniforms, _DRAW_BLOCK at a time in one reused buffer."""
    import numpy as np

    u = np.empty(min(n, _DRAW_BLOCK))
    for start in range(0, n, _DRAW_BLOCK):
        block = u[: n - start]
        _uniforms(seed, start, block)
        yield start, block


def _float_windows(
    sys: DeRhamSystem, n: int, seed: int, window: int
) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """The float path of n steps, `window` steps at a time: yields each
    window's (digits, states), views of one pair of buffers that the next
    window overwrites.  Each window draws its own stretch of the seed's
    uniforms and starts from the true end state of the window before,
    so the windows hold the bits of one path of n steps."""
    import numpy as np

    from . import _kernels

    params = _float_params(sys)
    size = min(n, window)
    digits = np.empty(size, dtype=np.uint8)
    states = np.empty(size, dtype=np.float64)
    t = 0.0
    for start in range(0, n, size):

        def draw(k: int, out: np.ndarray, start: int = start) -> None:
            _uniforms(seed, start + k, out)

        d, s = digits[: n - start], states[: n - start]
        t = _kernels.fill_path(params, draw, d, s, t)
        yield d, s


def sample_path(sys: DeRhamSystem, n: int, seed: int = DEFAULT_SEED) -> SamplePath:
    """Draw n digits with the exact conditional law, deterministically in
    the seed.  Affine pairs (c0 = c1 = 0) keep every state at 0, so their
    digits are one vectorised comparison of the uniforms with P(0) =
    1/gamma, the same float the step loops compare with.  Other exact
    systems step the integer bottom row (r, s) of the word, reduced by
    one gcd per step into a Fraction state, and compare the uniform with
    the correctly rounded float of the digit probability; state
    denominators grow with the path length there (about one bit per step
    on walk:1, three on walk:3/7, so the path is at least quadratic in
    n), and long paths over those belong in approximate mode, or in
    entropy_rate_estimate, which holds no path: non-affine exact systems
    are refused above _MAX_EXACT_GROWING_STEPS steps, and above the
    length whose time passes walk:1's there (_exact_path_cap), before
    anything is drawn.  Any path is refused above _MAX_STEPS steps,
    before its arrays are allocated."""
    _check_request(sys, n, seed)
    if sys.exact and not sys.affine:
        growth = _state_growth(sys)
        cap = _exact_path_cap(growth)
        if n > cap:
            raise DomainError(
                f"n = {n} exceeds {cap}, the cap for an exact sample_path of this pair "
                f"(its Fraction states grow by about {growth[0]:.3g} bits per step, and a "
                f"longer path takes longer than walk:1 at {_MAX_EXACT_GROWING_STEPS} steps); "
                "use force_approx, a smaller n, or entropy_rate_estimate, which holds no path"
            )
    import numpy as np

    if sys.affine:
        p0 = _affine_p0(sys)
        digits = np.empty(n, dtype=np.uint8)
        for start, block in _uniform_blocks(seed, n):
            np.greater_equal(block, p0, out=digits[start : start + len(block)])
        states = [sys.zero()] * n if sys.exact else np.zeros(n)
        return SamplePath(digits, states, seed)
    if not sys.exact:
        digits, states = next(_float_windows(sys, n, seed, n))
        return SamplePath(digits, states, seed)
    states, _, digits = zip(*_exact_steps(sys, _philox_uniforms(seed, n)))
    return SamplePath(np.array(digits, dtype=np.uint8), list(states), seed)


def _integer_maps(sys: DeRhamSystem) -> tuple[tuple[int, ...], tuple[int, ...]]:
    # The transposed step (a*t + c)/(b*t + d) is invariant under positive
    # scaling, so the coprime integer matrices serve as well as A0 and A1.
    return tuple(tuple(map(int, renormalize(m).entries)) for m in (sys.A0, sys.A1))


def _exact_steps(sys: DeRhamSystem, u: Sequence[float]) -> Iterator[tuple[Fraction, float, int]]:
    """(state, P(0) at it as a float, digit) of each step of the exact
    path of a non-affine pair on the uniforms u, yielded one step at a
    time, so a reader holds only what it keeps of each step (sample_path
    keeps the states)."""
    (a0, b0, c0, d0), (a1, b1, c1, d1) = _integer_maps(sys)
    gn, gd = sys.gamma.numerator, sys.gamma.denominator
    t = sys.zero()
    for x in u:
        r, s = t.numerator, t.denominator
        # float((t + 1)/(t + gamma)): int/int division rounds correctly.
        p0 = gd * (r + s) / (gd * r + gn * s)
        if x < p0:
            yield t, p0, 0
            t = Fraction(a0 * r + c0 * s, b0 * r + d0 * s)
        else:
            yield t, p0, 1
            t = Fraction(a1 * r + c1 * s, b1 * r + d1 * s)


#: Steps of the pilot path that sample_path reads the growth of a pair's
#: Fraction states off (_state_growth).
_PILOT_STEPS = 256

#: Continued-fraction quotients of a state's gcd that cost about as much
#: as one linear pass over the state (fitted on the pairs below).
_QUOTIENTS_PER_PASS = 600


def _state_growth(sys: DeRhamSystem) -> tuple[float, float]:
    """Bits and continued-fraction quotients per step of the Fraction
    states of an exact path, read off the last state of a pilot path of
    _PILOT_STEPS steps.  Its uniforms come from a fixed 64-bit LCG
    (Knuth's MMIX constants), so no uniform of the request is drawn."""
    x, u = 1, []
    for _ in range(_PILOT_STEPS):
        x = x * 6364136223846793005 + 1442695040888963407 & _MASK64
        u.append((x >> 11) * 2.0**-53)
    *_, (t, _, _) = _exact_steps(sys, u)
    r, s, quotients = t.numerator, t.denominator, 0
    while r:
        s, r = r, s % r
        quotients += 1
    return t.denominator.bit_length() / _PILOT_STEPS, quotients / _PILOT_STEPS


def _path_work(n: int, growth: tuple[float, float]) -> float:
    """The time of an exact sample_path of n steps, up to a constant: step
    k forms integers of about k*g bits and reduces the state by a gcd of
    about k*h quotients (g, h = growth)."""
    g, h = growth
    return n * n * g * (1 + n * h / _QUOTIENTS_PER_PASS)


#: _path_work of walk:1 at _MAX_EXACT_GROWING_STEPS, from its pilot growth
#: (257/256 bits and 4/256 quotients per step): the budget of every exact
#: sample_path.  walk:1's states have few, large quotients, so their gcds
#: are cheap; other pairs with 2- to 18-bit entries, whose states grow by
#: 0.7 to 13.6 bits per step, reach it at 10151 to 1476 steps.
_EXACT_PATH_WORK = _path_work(_MAX_EXACT_GROWING_STEPS, (257 / 256, 4 / 256))


def _exact_path_cap(growth: tuple[float, float]) -> int:
    """Most steps, at most _MAX_EXACT_GROWING_STEPS, whose _path_work at
    the growth stays within _EXACT_PATH_WORK."""
    lo, hi = 1, _MAX_EXACT_GROWING_STEPS
    while lo < hi:
        mid = (lo + hi + 1) // 2
        lo, hi = (mid, hi) if _path_work(mid, growth) <= _EXACT_PATH_WORK else (lo, mid - 1)
    return lo


#: Bits P of the first run of an exact report's interval states
#: (_interval_report); each undecided run is read again at twice P.
_STATE_BITS = 128

#: Past this P an undecided report is read from the Fraction loop, whose
#: states need no rounding: a state whose P(0) is a tie between two floats
#: is undecided at every P.  No run of the presets or of random pairs
#: was undecided at 128 bits.
_MAX_STATE_BITS = 1 << 12


def _interval_report(sys: DeRhamSystem, u: Sequence[float], bits: int) -> _SampleReport | None:
    """The report of the exact path on the uniforms u, with each state t
    carried as an integer interval [lo, hi] / 2^bits that holds it; None
    on an undecided step.  Each digit's map t -> (a*t + c)/(b*t + d)
    increases (det > 0) where it has no pole, so lo, rounded down, and
    hi, rounded up, bound the next state.  P(0) increases in t, and so
    do roundings: where the int/int-rounded P(0) at lo and at hi agree,
    that float is P(0) at t, as the Fraction loop rounds it, and it gives
    the digit.  The least and greatest state are decided the same way
    from the least and greatest ends, once, at the end."""
    one = 1 << bits
    maps = [(a, b, c << bits, d << bits) for a, b, c, d in _integer_maps(sys)]
    gn, gd = sys.gamma.numerator, sys.gamma.denominator
    g_one = gn << bits
    lo = hi = low_lo = low_hi = high_lo = high_hi = 0
    zeros, p0s = 0, []
    for x in u:
        low_lo, low_hi = min(low_lo, lo), min(low_hi, hi)
        high_lo, high_hi = max(high_lo, lo), max(high_hi, hi)
        den_lo, den_hi = gd * lo + g_one, gd * hi + g_one
        if den_lo <= 0:
            return None
        p0 = gd * (lo + one) / den_lo
        if p0 != gd * (hi + one) / den_hi:
            return None
        p0s.append(p0)
        if x < p0:
            zeros += 1
            a, b, c, d = maps[0]
        else:
            a, b, c, d = maps[1]
        den_lo, den_hi = b * lo + d, b * hi + d
        if den_lo * den_hi <= 0:  # a pole in the interval
            return None
        lo, hi = (a * lo + c << bits) // den_lo, -(-(a * hi + c << bits) // den_hi)
    state_min, state_max = low_lo / one, high_lo / one
    if state_min != low_hi / one or state_max != high_hi / one:
        return None
    return _SampleReport(zeros, state_min, state_max, fsum(map(binary_entropy, p0s)) / len(u))


def _affine_p0(sys: DeRhamSystem) -> float:
    # P(0) = 1/gamma rounded to float, as the step loops round
    # (t + 1)/(t + gamma) at t = 0 (float of a Fraction rounds correctly).
    return float(1 / sys.gamma)


def entropy_rate_estimate(sys: DeRhamSystem, n: int, seed: int = DEFAULT_SEED) -> float:
    """Average binary entropy of the digit law along a sampled path.

    Estimates the growth rate of -log(R_n)/n.  The estimate is the
    correctly rounded sum of the n summands, divided by n; every summand
    lies in [entropy_min, entropy_max] of the dimension bounds, so the
    estimate can leave that interval only by the roundings of that sum
    and of the division, a few units in the last place.  The path is
    that of sample_path(sys, n, seed), read once without being held
    (_sample_report).
    """
    return _sample_report(sys, n, seed).entropy_rate


#: Steps per window of a streamed report (about 2.3 MB of digits and
#: states): long next to the lanes' burn-in (LANES * 256 steps, against
#: BURN_IN = 192 per lane), a multiple of _ENTROPY_BLOCK.
_WINDOW = 1 << 18


class _SampleReport(_Record):
    """What `sample` reports of a path: the count of digit 0, the least
    and greatest state as floats, and the entropy-rate estimate."""

    _fields = ("zeros", "state_min", "state_max", "entropy_rate")
    zeros: int
    state_min: float
    state_max: float
    entropy_rate: float


def _sample_report(sys: DeRhamSystem, n: int, seed: int) -> _SampleReport:
    """The report of sample_path(sys, n, seed), read in one pass: the
    entropy rate is the correctly rounded sum of the binary entropy of
    the digit law at every state, divided by n.  Affine pairs count
    digit 0 per block of uniforms, and their n terms are one term h, so
    the sum is h * n; an exact one of at most _MAX_PURE_AFFINE_STEPS
    steps counts on the packed pure-Python stream.  Exact non-affine
    paths (at most _MAX_EXACT_GROWING_STEPS steps) step integer-interval
    states (_interval_report) at _STATE_BITS, twice that on an undecided
    step, and so on; past _MAX_STATE_BITS they are read from _exact_steps,
    the Fraction loop of sample_path.  Either way the float P(0) of each
    step is kept and the terms are summed with math.fsum.  Those branches
    come before numpy is imported: their uniforms are drawn in pure
    Python, so they load no numpy.  Float
    paths run in windows of _WINDOW steps, in one loop that tallies
    digit 0 and the state range and adds the integer total of each block
    of terms (_exact_total).

    _exact_total returns None only on a NaN term, and the rate is then
    NaN, as fsum's sum of the terms would be.  A term at a p0 in (0, 1)
    is the negated sum of two products that are negative, or one of them
    0, so it is positive and finite, at most log 2 up to rounding: no
    term reaches _EXACT_SUM_LIMIT and the sum is not zero.  A p0 outside
    (0, 1), or a non-finite one, gives NaN: the log of a negative
    number, 0 * (-inf) at p0 = 0 or 1, or inf * NaN at p0 = inf.
    """
    _check_request(sys, n, seed)
    if sys.exact and not sys.affine:  # before numpy: this branch needs none
        u = _philox_uniforms(seed, n)
        bits = _STATE_BITS
        while bits <= _MAX_STATE_BITS:
            report = _interval_report(sys, u, bits)
            if report is not None:
                return report
            bits *= 2
        states, p0s, digits = zip(*((float(t), p0, d) for t, p0, d in _exact_steps(sys, u)))
        rate = fsum(map(binary_entropy, p0s)) / n
        return _SampleReport(n - sum(digits), min(states), max(states), rate)
    if sys.affine and sys.exact and n <= _MAX_PURE_AFFINE_STEPS:  # before numpy too
        p0 = _affine_p0(sys)
        return _SampleReport(_philox_count_below(seed, n, p0), 0.0, 0.0, binary_entropy(p0) * n / n)
    import numpy as np

    if sys.affine:  # every state is 0
        p0 = _affine_p0(sys)
        zeros = sum(int(np.count_nonzero(block < p0)) for _, block in _uniform_blocks(seed, n))
        h = binary_entropy(p0) if sys.exact else float(_float_terms(sys.gamma, np.zeros(1))[0])
        return _SampleReport(zeros, 0.0, 0.0, h * n / n)
    zeros, lo, hi, total = 0, np.inf, -np.inf, 0
    for digits, states in _float_windows(sys, n, seed, _WINDOW):
        zeros += len(digits) - int(np.count_nonzero(digits))
        # np.minimum and np.maximum keep a NaN, as states.min() does.
        lo, hi = np.minimum(lo, states.min()), np.maximum(hi, states.max())
        for start in range(0, len(states), _ENTROPY_BLOCK):
            block = _exact_total(_float_terms(sys.gamma, states[start : start + _ENTROPY_BLOCK]))
            total = None if total is None or block is None else total + block
    rate = total / (1 << 1126) / n if total else nan
    return _SampleReport(zeros, float(lo), float(hi), rate)


#: States per numpy block of the float entropy terms.  Its temporaries
#: add about 1.4 MB to a float path's peak, against about 5.4 MB at 2^16
#: states, at the same speed; the per-exponent sums of _exact_total (at
#: most 2^16 halves below 2^27) stay exact in float64.
_ENTROPY_BLOCK = 1 << 14

#: Terms below this magnitude cannot overflow fsum's partial sums, even
#: 2^25 of them (_MAX_STEPS).
_EXACT_SUM_LIMIT = 2.0**970


def _float_terms(gamma: float, t: np.ndarray) -> np.ndarray:
    """Binary entropy of the digit law at each float state of t."""
    import numpy as np

    p0 = (t + 1.0) / (t + gamma)
    return -(p0 * np.log(p0) + (1.0 - p0) * np.log(1.0 - p0))


def _exact_total(x: np.ndarray) -> int | None:
    """The exact sum of the float64 block x, scaled by 2^1126, as one
    Python int, formed without a Python float per term: the totals of
    the blocks of a run, summed and divided by 2^1126, give math.fsum of
    all their terms bit for bit.  None if a term is non-finite or not
    below _EXACT_SUM_LIMIT; the caller's rate is then NaN, as it is on a
    zero total (fsum picks the sign of a zero sum), and _sample_report
    says why only a NaN term declines.

    Each term is m * 2^e with a 53-bit integer m (np.frexp), cut into a
    high and a low half of 27 and 26 bits.  np.bincount sums the halves
    of the block per exponent in float64, exactly as long as the block
    holds at most 2^16 terms (_ENTROPY_BLOCK is 2^14); the sums are then
    added as one int scaled by 2^1126 (the least subnormal is 2^-1074 =
    2^52 * 2^-1126).  int/int division rounds correctly, as CPython's
    fsum does, so both give the float nearest the exact sum, ties to even.
    """
    import numpy as np

    if not -_EXACT_SUM_LIMIT < x.min() <= x.max() < _EXACT_SUM_LIMIT:  # also NaN
        return None
    frac, exp = np.frexp(x)
    mant = np.ldexp(frac, 53).astype(np.int64)
    exp += 1126 - 53  # >= 0: frexp of the least subnormal gives 2^-1073
    high = np.bincount(exp, weights=mant >> 26)
    low = np.bincount(exp, weights=mant & ((1 << 26) - 1))
    nonzero = np.flatnonzero((high != 0) | (low != 0))
    return sum(
        ((int(h) << 26) + int(lo)) << k
        for k, h, lo in zip(nonzero.tolist(), high[nonzero].tolist(), low[nonzero].tolist())
    )
