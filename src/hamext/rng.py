"""Seeded pseudorandom bit streams.

All randomness in the package flows through Philox (4x64, 10 rounds), a
published counter-based generator, keyed directly by a 64-bit seed. The
stream is exactly this: the key is (seed, 0); the first block's 256-bit
counter is 1, not 0 (numpy steps the counter before each block), and
the next blocks count up from it; each block's four 64-bit output words
come in order, blocks in counter order; and the bits of each word come
little-endian, bit i of word w at stream position 64*w + i. Any
implementation of Philox can replicate it bit-exactly from that.
Derived seeds for independent trials are seed + trial index, which
never collides across a run's contiguous seed range.
"""

from __future__ import annotations

import numpy as np

from .bits import read_index


def _philox(seed: int, length: int = 0) -> np.random.Philox:
    """Philox keyed by `seed`, once the seed is a 64-bit key and the
    requested stream length is nonnegative (else a DomainError) and no
    longer than the largest numpy array (else a ResourceError)."""
    read_index(length, "length", ceiling=np.iinfo(np.intp).max)
    return np.random.Philox(key=read_index(seed, "seed", 0, (1 << 64) - 1))


def bit_stream(seed: int, length: int) -> np.ndarray:
    """First `length` bits (uint8) of the Philox stream for `seed`; a
    length no numpy array can hold raises ResourceError."""
    words = _philox(seed, length).random_raw((length + 63) // 64)
    bits = np.unpackbits(words.view(np.uint8), bitorder="little")
    return bits[:length]


def generator(seed: int) -> np.random.Generator:
    """A numpy Generator over the same Philox family (for sampling)."""
    return np.random.Generator(_philox(seed))
