"""The stream is the spec: a pure-Python Philox 4x64-10 (the Random123
constants; Salmon et al., SC 2011), keyed (seed, 0) with the first
block at counter 1, reproduces bit_stream bit for bit."""

import pytest

from hamext.rng import bit_stream

MASK = (1 << 64) - 1
MULTIPLIERS = (0xD2E7470EE14C6C93, 0xCA5A826395121157)
WEYL = (0x9E3779B97F4A7C15, 0xBB67AE8584CAA73B)


def philox_block(counter: int, key: tuple[int, int]) -> list[int]:
    """The four output words of the 256-bit counter under the 128-bit key."""
    x = [(counter >> (64 * i)) & MASK for i in range(4)]
    k0, k1 = key
    for _ in range(10):
        p0, p1 = MULTIPLIERS[0] * x[0], MULTIPLIERS[1] * x[2]
        x = [(p1 >> 64) ^ x[1] ^ k0, p1 & MASK, (p0 >> 64) ^ x[3] ^ k1, p0 & MASK]
        k0, k1 = (k0 + WEYL[0]) & MASK, (k1 + WEYL[1]) & MASK
    return x


def philox_bits(seed: int, length: int, first_counter: int = 1) -> list[int]:
    """The first `length` bits: words in counter order, each little-endian."""
    words = []
    counter = first_counter
    while 64 * len(words) < length:
        words += philox_block(counter, (seed, 0))
        counter += 1
    return [(words[i // 64] >> (i % 64)) & 1 for i in range(length)]


@pytest.mark.parametrize("seed", [0, 1, (1 << 64) - 1])
@pytest.mark.parametrize("length", [1, 63, 257, 1000])
def test_oracle_reproduces_bit_stream(seed, length):
    assert bit_stream(seed, length).tolist() == philox_bits(seed, length)


def test_the_first_block_is_counter_one_not_zero():
    assert bit_stream(1, 256).tolist() != philox_bits(1, 256, first_counter=0)
