"""Seeded pseudorandom bit streams.

All randomness in the package flows through Philox (4x64, 10 rounds), a
published counter-based generator, keyed directly by a 64-bit seed. The
stream is exactly this: the key is (seed, 0); the first block's 256-bit
counter is 1, not 0 (numpy steps the counter before each block), and
the next blocks count up from it; each block's four 64-bit output words
come in order, blocks in counter order; and the bits of each word come
little-endian, bit i of word w at stream position 64*w + i. Any
implementation of Philox can replicate it bit-exactly from that, and
the Sampler's draws from the same words too. Derived seeds for
independent trials are seed + trial index, which never collides across
a run's contiguous seed range.
"""

from __future__ import annotations

import numpy as np

from .bits import read_index
from .cube import CUBE_CEILING

WORD = 1 << 64


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


class Sampler:
    """Draws over the 64-bit words of bit_stream(seed), read in order;
    each draw takes the words after the previous draw's.

    below(m) is an integer in 0..m-1: the next word w under
    2^64 - 2^64 mod m (a rejected word is skipped), reduced mod m. Every
    call takes at least one word, m = 1 included.

    subset(n, k) is the membership row of k of the 2^n vertices of
    {0,1}^n, without replacement: vertex v's key is the v-th of the next
    2^n words with its low n bits replaced by v, so no two keys tie, and
    the k vertices with the least keys are chosen. It takes 2^n words.
    """

    def __init__(self, seed: int):
        self._words = _philox(seed).random_raw

    def below(self, m: int) -> int:
        limit = WORD - WORD % read_index(m, "m", 1, WORD)
        while (w := self._words()) >= limit:
            pass
        return w % m

    def subset(self, n: int, k: int) -> np.ndarray:
        n = read_index(n, "n", ceiling=CUBE_CEILING)
        k = read_index(k, "k", 0, 1 << n)
        shift = np.uint64(n)
        keys = self._words(1 << n) >> shift << shift | np.arange(1 << n, dtype=np.uint64)
        if not k:
            return np.zeros(1 << n, dtype=np.bool_)
        return keys <= np.partition(keys, k - 1)[k - 1]
