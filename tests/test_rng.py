"""The stream contract, checked against numpy's Philox itself.

Replicate r of ``RandomStream(seed, label)`` is the Philox stream keyed by
(seed, experiment_code(label)) whose 256-bit counter starts at block r << 128,
so any replicate can be regenerated from those three numbers alone.
"""

import numpy as np
import pytest

from lindeberg_lab.rng import RandomStream, experiment_code


def philox_uniforms(seed: int, label: str, replicate: int, n: int):
    bit_generator = np.random.Philox(
        key=np.array([seed, experiment_code(label)], dtype=np.uint64),
        counter=np.array([0, 0, replicate, 0], dtype=np.uint64))
    return np.random.Generator(bit_generator).random(n)


@pytest.mark.parametrize("seed", [3, 2**64 - 1])
@pytest.mark.parametrize("start", [0, 2**40, 2**53 - 2])
def test_fill_rows_are_philox_replicates(seed, start):
    out = np.empty((2, 9))
    assert RandomStream(seed, "stream-contract").fill(start, out) is out
    for k, row in enumerate(out):
        expect = philox_uniforms(seed, "stream-contract", start + k, 9)
        assert row.tobytes() == expect.tobytes()


@pytest.mark.parametrize("seed", [1.9, 1.0, -1, 2**64, "3"])
def test_a_seed_that_is_no_64_bit_count_is_refused(seed):
    # a float must not key the stream of its integer part
    with pytest.raises(ValueError, match="master_seed"):
        RandomStream(seed, "stream-contract")


@pytest.mark.parametrize("index", [1.5, 1.0, -1, 2**64, 2**70])
def test_a_replicate_index_that_is_no_64_bit_count_is_refused(index):
    # 1.5 must not name replicate 1, nor 2**64 overflow inside numpy
    with pytest.raises(ValueError, match="replicate index"):
        RandomStream(3, "stream-contract").replicate(index)


def test_numpy_integers_name_the_same_stream():
    seed, index = np.uint64(2**64 - 1), np.int64(2**40)
    got = RandomStream(seed, "stream-contract").replicate(index).random(9)
    expect = philox_uniforms(2**64 - 1, "stream-contract", 2**40, 9)
    assert got.tobytes() == expect.tobytes()
