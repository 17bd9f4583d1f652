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
states gain about one bit of denominator per step (exact walk:1), so
those paths stay quadratic in their length.  Float paths run the loop
of ``_kernels``, imported for them alone: a long path in numpy lanes
that are checked and repaired against the Python loop bit for bit, a
short one in that loop.  Every path takes its uniforms from one Philox
stream per seed, Generator(Philox(seed)).  numpy draws it for float and
affine paths, entered at any position (``_uniforms``), so no such path
holds an array of uniforms beside its digits and states: float paths
draw them into the state array, which the loop overwrites step by
step, and repairs draw the stretch they re-run again; affine paths
read blocks of 2^16 uniforms (``_uniform_blocks``).  An exact
non-affine path, at most _MAX_EXACT_GROWING_STEPS steps, draws the
same stream bit for bit in pure Python (``_philox_uniforms``), so its
report imports no numpy, which would cost more start-up time than the
whole report (0.13 s against 0.02 s at 3000 steps of walk:1).  The
entropy rate of a float path is the exact sum of its terms, an integer
total per numpy block of terms (``_exact_total``), summed and rounded
once, so it equals ``math.fsum`` over the terms bit for bit at about
0.4 of the cost (0.025 s against 0.065 s per 10^6 steps, 2-core Xeon).

``sample_path`` holds the whole path, about 9 bytes per step (more for
the Fraction states of an exact path).  A report (``_sample_report``:
``entropy_rate_estimate`` and the CLI's ``sample``) needs only the count
of digit 0, the least and greatest state and the entropy sum, so it
reads its path once and does not hold it: a float path runs in windows
of ``_WINDOW`` steps in one reused pair of buffers, each window drawing
its own stretch of uniforms and starting from the true end state of the
window before, and the report adds the integer totals of
``_exact_total`` across the windows; an affine pair counts digit 0
block by block and forms no path at all; an exact non-affine path is
read step by step (``_exact_steps``), keeping a float per state and
the float P(0) at each.  The report equals that of the whole path bit
for bit; ``sample walk:0.5 -n 8000000`` peaks at about 39 MB of
resident memory.
"""

from __future__ import annotations

from fractions import Fraction
from math import fsum, nan
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

#: Longest exact path drawn for a non-affine pair: state denominators grow
#: by bits per step that depend on the pair (1.00 on walk:1, 3.01 on
#: walk:3/7), so time grows quadratically in n, and so does the memory of
#: sample_path, which holds the Fraction states; a report holds a float per
#: state.  Timed on walk:1 only, as a report that held the path: 0.85 s,
#: 88 MB at 20k steps (20 MB as a report that holds floats and loads no
#: numpy); 2.9 s, 244 MB at 40k (2-core Xeon).
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


def _philox_block(counter: int, keys: list[tuple[int, int]]) -> tuple[int, int, int, int]:
    """The four 64-bit words of Philox4x64-10 at the 256-bit counter."""
    x0, x1, x2, x3 = (counter >> k & _MASK64 for k in (0, 64, 128, 192))
    for k0, k1 in keys:
        p, q = 0xD2E7470EE14C6C93 * x0, 0xCA5A826395121157 * x2
        x0, x1, x2, x3 = q >> 64 ^ x1 ^ k0, q & _MASK64, p >> 64 ^ x3 ^ k1, p & _MASK64
    return x0, x1, x2, x3


def _philox_uniforms(seed: int, n: int) -> list[float]:
    """Generator(Philox(seed)).random(n) as a list, in pure Python, so an
    exact non-affine path loads no numpy: numpy increments the counter
    before each block, so the stream starts at counter 1, and random()
    reads one 64-bit word per uniform as (word >> 11) * 2**-53."""
    keys = _philox_keys(seed)
    blocks = (_philox_block(counter, keys) for counter in range(1, (n + 3) // 4 + 1))
    return [(w >> 11) * 2.0**-53 for block in blocks for w in block][:n]


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
    on walk:1, so the path is quadratic in n), and long paths over those
    belong in approximate mode: non-affine exact systems are
    refused above _MAX_EXACT_GROWING_STEPS steps.  Any path is refused
    above _MAX_STEPS steps, before its arrays are allocated."""
    _check_request(sys, n, seed)
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
    states, _, digits = zip(*_exact_steps(sys, n, seed))
    return SamplePath(np.array(digits, dtype=np.uint8), list(states), seed)


def _exact_steps(sys: DeRhamSystem, n: int, seed: int) -> Iterator[tuple[Fraction, float, int]]:
    """(state, P(0) at it as a float, digit) of each step of the exact
    path of a non-affine pair, yielded one step at a time, so a reader
    holds only what it keeps of each step (sample_path keeps the states).
    Its uniforms come from the pure-Python stream (_philox_uniforms),
    which equals numpy's, so it loads no numpy."""
    # The transposed step (a*t + c)/(b*t + d) is invariant under positive
    # scaling, so the coprime integer matrices serve as well as A0 and A1.
    (a0, b0, c0, d0), (a1, b1, c1, d1) = (
        map(int, renormalize(m).entries) for m in (sys.A0, sys.A1)
    )
    gn, gd = sys.gamma.numerator, sys.gamma.denominator
    t = sys.zero()
    for x in _philox_uniforms(seed, n):
        r, s = t.numerator, t.denominator
        # float((t + 1)/(t + gamma)): int/int division rounds correctly.
        p0 = gd * (r + s) / (gd * r + gn * s)
        if x < p0:
            yield t, p0, 0
            t = Fraction(a0 * r + c0 * s, b0 * r + d0 * s)
        else:
            yield t, p0, 1
            t = Fraction(a1 * r + c1 * s, b1 * r + d1 * s)


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
    the sum is h * n.  Exact non-affine paths (at most
    _MAX_EXACT_GROWING_STEPS steps) are read step by step from
    _exact_steps, which sample_path holds whole and the report does not:
    it keeps a float per state and the float P(0) at each, and sums the
    terms with math.fsum.  That branch comes before numpy is imported:
    its uniforms are drawn in pure Python, so it loads no numpy.  Float
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
        steps = ((float(t), p0, digit) for t, p0, digit in _exact_steps(sys, n, seed))
        states, p0s, digits = zip(*steps)
        rate = fsum(map(binary_entropy, p0s)) / n
        return _SampleReport(n - sum(digits), min(states), max(states), rate)
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
