"""The pure-Python Philox4x64-10 stream against numpy's
Generator(Philox(seed)), which draws the float paths' uniforms and is the
oracle here: the key, the lane-packed blocks with carries between
counter words, the uniforms at every length mod 4 and across stretches,
the count below P(0) of exact affine reports, and the exact `sample`
report drawn either way."""

import json
import random
from math import ceil

import numpy as np
import pytest

from derham_lft import measure
from derham_lft.cli import main
from derham_lft.measure import (
    _DRAW_BLOCK,
    _lane_words,
    _philox_count_below,
    _philox_keys,
    _philox_lanes,
    _philox_uniforms,
)
from helpers import philox_uniforms, random_valid_system

SEEDS = (0, 1, 2**32 - 1, 2**32, 2**64 + 5, random.Random(200).getrandbits(200) | 1 << 199)

#: Every length mod 4 within the first block and across block boundaries,
#: and across the first boundary between stretches of _DRAW_BLOCK uniforms.
LENGTHS = (*range(1, 14), 4095, 4096, 4097, *range(_DRAW_BLOCK - 1, _DRAW_BLOCK + 6))


@pytest.mark.parametrize("seed", SEEDS)
def test_uniforms_equal_numpy(seed):
    want = philox_uniforms(seed, LENGTHS[-1]).tolist()
    for n in LENGTHS:
        assert _philox_uniforms(seed, n) == want[:n], (seed, n)


def test_key_equals_seed_sequence():
    # Seeds of 1 to 8 words of 32 bits: up to the pool's four words, and
    # past them, where the remaining words are mixed into the pool.
    rng = random.Random(33)
    seeds = [*SEEDS, measure.DEFAULT_SEED] + [rng.getrandbits(rng.randint(1, 256)) for _ in range(40)]
    for seed in seeds:
        want = np.random.SeedSequence(seed).generate_state(2, np.uint64).tolist()
        assert list(_philox_keys(seed)[0]) == want, seed


@pytest.mark.parametrize("low_words", (1, 2, 3, 4))
def test_block_carries_between_counter_words(low_words):
    # numpy increments the 256-bit counter before each block.  From this
    # counter the first block has its low words all ones, and the second
    # carries out of them into the next word (out of all four: it wraps
    # to 0), inside one stretch of lanes.
    keys = _philox_keys(2**64 + 5)
    k0, k1 = keys[0]
    counter = (5 << 192) + (1 << 64 * low_words) - 2 & (1 << 256) - 1
    want = np.random.Philox(key=k0 | k1 << 64, counter=counter).random_raw(12).tolist()
    assert _lane_words(_philox_lanes(counter + 1, keys, 3), 3).tolist() == want


def _lanes_of(words):
    """The lanes that hold the given 64-bit words, four per block."""
    return tuple(sum(w << 128 * j for j, w in enumerate(words[i::4])) for i in range(4))


def test_count_bound_is_exact(monkeypatch):
    # The word (K << 11) - 1 is the uniform (K - 1) * 2**-53 < p0, and the
    # word K << 11 the uniform K * 2**-53 >= p0, for K = ceil(p0 * 2**53).
    for p0 in (0.3, 1 / 3, 0.5, 2.0**-40, 1 - 2.0**-53, 1.0):
        k = ceil(p0 * 2.0**53)
        edge = [(k << 11) - 1, k << 11, (k << 11) + 2047, (k - 1) << 11, 0, (1 << 64) - 1]
        words = [w for w in edge if 0 <= w < 1 << 64] * 4
        monkeypatch.setattr(measure, "_philox_lanes", lambda c, keys, blocks: _lanes_of(words))
        # Every n that fills the last block but for 0 to 3 words.
        for n in range(len(words) - 3, len(words) + 1):
            want = sum((w >> 11) * 2.0**-53 < p0 for w in words[:n])
            assert _philox_count_below(0, n, p0) == want, (p0, n)


@pytest.mark.parametrize("seed", SEEDS[:4])
def test_count_below_equals_numpy(seed):
    u = philox_uniforms(seed, 2 * _DRAW_BLOCK + 3)
    for p0 in (0.25, 1 / 3, float(np.nextafter(u[5], 1.0)), float(u[7])):
        for n in (1, 2, 3, 4, 5, 4097, *range(_DRAW_BLOCK - 1, _DRAW_BLOCK + 6), len(u)):
            assert _philox_count_below(seed, n, p0) == int(np.count_nonzero(u[:n] < p0)), (p0, n)


def _numpy_stream(seed, n):
    return philox_uniforms(seed, n).tolist()


def _exact_systems():
    rng = random.Random(61)
    return [random_valid_system(rng, scaled=bool(i % 2)) for i in range(4)]


@pytest.mark.parametrize(
    "argv",
    [
        ["--preset", "walk:1", "-n", "20000"],
        ["--preset", "walk:1", "-n", "4097", "--seed", str(2**64 + 5)],
        ["--preset", "walk:3/7", "-n", "2000", "--seed", "7"],
    ]
    + [["-n", "1000", "--seed", str(i)] for i in range(4)],
)
def test_exact_sample_report_equals_the_numpy_draw(argv, capsys, tmp_path, monkeypatch):
    if argv[0] == "-n":  # a random exact pair, as a config
        system = _exact_systems()[int(argv[-1])]
        cfg = tmp_path / "pair.json"
        pair = {"A0": system.A0, "A1": system.A1}
        cfg.write_text(json.dumps({k: [str(e) for e in m.entries] for k, m in pair.items()}))
        argv = [*argv, "--config", str(cfg)]
    assert main(["sample", *argv]) == 0
    got = capsys.readouterr()
    monkeypatch.setattr(measure, "_philox_uniforms", _numpy_stream)
    assert main(["sample", *argv]) == 0
    assert capsys.readouterr() == got
    assert '"mode": "exact"' in got.out
