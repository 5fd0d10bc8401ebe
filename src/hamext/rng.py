"""Seeded pseudorandom bit streams.

All randomness in the package flows through Philox (4x64, 10 rounds), a
published counter-based generator, keyed directly by a 64-bit seed. A
stream is the little-endian bit expansion of the raw 64-bit Philox
output words, so any implementation of Philox can replicate it
bit-exactly. Derived seeds for independent trials are seed + trial
index, which never collides across a run's contiguous seed range.
"""

from __future__ import annotations

import numpy as np

from .bits import read_index


def _philox(seed: int, length: int = 0) -> np.random.Philox:
    """Philox keyed by `seed`, once the seed is a 64-bit key and the
    requested stream length is nonnegative; else a DomainError."""
    read_index(length, "length")
    return np.random.Philox(key=read_index(seed, "seed", 0, (1 << 64) - 1))


def bit_stream(seed: int, length: int) -> np.ndarray:
    """First `length` bits (uint8) of the Philox stream for `seed`."""
    words = _philox(seed, length).random_raw((length + 63) // 64)
    bits = np.unpackbits(words.view(np.uint8), bitorder="little")
    return bits[:length]


def generator(seed: int) -> np.random.Generator:
    """A numpy Generator over the same Philox family (for sampling)."""
    return np.random.Generator(_philox(seed))
