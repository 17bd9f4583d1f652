"""The pure-Python Philox4x64-10 stream of exact non-affine paths against
numpy's Generator(Philox(seed)), which draws every other path's uniforms
and is the oracle here: the key, the block function with carries between
counter words, the uniforms at every length mod 4, and the exact `sample`
report drawn either way."""

import json
import random

import numpy as np
import pytest

from derham_lft import measure
from derham_lft.cli import main
from derham_lft.measure import _philox_block, _philox_keys, _philox_uniforms
from helpers import philox_uniforms, random_valid_system

SEEDS = (0, 1, 2**32 - 1, 2**32, 2**64 + 5, random.Random(200).getrandbits(200) | 1 << 199)


@pytest.mark.parametrize("seed", SEEDS)
def test_uniforms_equal_numpy(seed):
    # Every length mod 4, within the first block and across block boundaries.
    for n in (*range(1, 14), 4095, 4096, 4097):
        assert _philox_uniforms(seed, n) == philox_uniforms(seed, n).tolist(), (seed, n)


def test_key_equals_seed_sequence():
    # Seeds of 1 to 8 words of 32 bits: up to the pool's four words, and
    # past them, where the remaining words are mixed into the pool.
    rng = random.Random(33)
    seeds = [*SEEDS, measure.DEFAULT_SEED] + [rng.getrandbits(rng.randint(1, 256)) for _ in range(40)]
    for seed in seeds:
        want = np.random.SeedSequence(seed).generate_state(2, np.uint64).tolist()
        assert list(_philox_keys(seed)[0]) == want, seed


@pytest.mark.parametrize("low_words", (1, 2, 3))
def test_block_carries_between_counter_words(low_words):
    # numpy increments the 256-bit counter before each block.  From this
    # counter the first block has its low words all ones, and the second
    # carries out of them into the next word.
    keys = _philox_keys(2**64 + 5)
    k0, k1 = keys[0]
    counter = (5 << 192) + (1 << 64 * low_words) - 2
    want = np.random.Philox(key=k0 | k1 << 64, counter=counter).random_raw(8).tolist()
    assert [*_philox_block(counter + 1, keys), *_philox_block(counter + 2, keys)] == want


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
