"""Seeded pseudorandom bit streams.

All randomness in the package flows through Philox (4x64, 10 rounds), a
published counter-based generator, keyed directly by a 64-bit seed. A
stream is the little-endian bit expansion of the raw 64-bit Philox
output words, so any implementation of Philox can replicate it
bit-exactly. Derived seeds for independent trials are seed + trial
index, which never collides across a run's contiguous seed range.
"""

from __future__ import annotations

import operator

import numpy as np

from .errors import DomainError


def _philox(seed: int, length: int = 0) -> np.random.Philox:
    """Philox keyed by `seed`, once the seed is a 64-bit key and the
    requested stream length is nonnegative; else a DomainError."""
    try:
        seed, length = operator.index(seed), operator.index(length)
    except TypeError:
        raise DomainError(f"seed and length must be integers, got {seed!r}, {length!r}") from None
    if not 0 <= seed < 1 << 64:
        raise DomainError(f"seed must lie in [0, 2^64), got {seed}")
    if length < 0:
        raise DomainError(f"length must be nonnegative, got {length}")
    return np.random.Philox(key=seed)


def bit_stream(seed: int, length: int) -> np.ndarray:
    """First `length` bits (uint8) of the Philox stream for `seed`."""
    words = _philox(seed, length).random_raw((length + 63) // 64)
    bits = np.unpackbits(words.view(np.uint8), bitorder="little")
    return bits[:length]


def generator(seed: int) -> np.random.Generator:
    """A numpy Generator over the same Philox family (for sampling)."""
    return np.random.Generator(_philox(seed))
