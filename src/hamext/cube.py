"""Exact combinatorics of the finite Hamming cube.

Distances, binomial ball sizes, d-neighborhood sizes, canonical spheres
(pinched between consecutive balls), and an exhaustive isoperimetric
minimizer. Points of {0,1}^n travel either as bit strings (see
hamext.bits) or as integer vertex masks with bit i = position i.

All cardinalities are exact python integers.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from functools import lru_cache
from itertools import islice
from math import comb

import numpy as np

from . import kernels
from .bits import as_bits, bits_to_mask, read_index, to_text
from .errors import DimensionError

HARPER_CEILING = 4
# the most bit-steps a binomial walk takes on: its steps times the bits of the
# largest integer it builds. The worst calls under it take 0.2-0.3 s on 2 cores:
# binomial_tails(16383) (a 30 MB row), b(32768, 8192) up the row and b(23168,
# 11581) from the middle; 1 << (2^28 - 1) at k >= n holds 34 MB
TAIL_CEILING = 1 << 28
# the largest n whose 2^n vertices a numpy array can index, as bit_stream's length rule
CUBE_CEILING = np.iinfo(np.intp).max.bit_length() - 1


def _running_tails(n: int):
    """Yield b(n,0), b(n,1), ..., b(n,n) by the running recurrence
    C(n,j+1) = C(n,j)(n-j)/(j+1); the last value is 2^n."""
    coeff, acc = 1, 0
    for j in range(n + 1):
        acc += coeff
        yield acc
        coeff = coeff * (n - j) // (j + 1)


def _middle_out_tails(n: int):
    """Yield b(n,h), b(n,h-1), ..., b(n,0) for h = (n-1)//2 and n >= 1,
    from the middle of the row outwards.

    The start needs one math.comb: by the symmetry C(n,j) = C(n,n-j) the
    lower half of the row holds 2^(n-1), less half the middle term
    C(n,n/2) when n is even. Each step down subtracts C(n,j) and takes
    the next term from C(n,j-1) = C(n,j)j/(n-j+1).
    """
    h = (n - 1) // 2
    coeff = comb(n, h)
    acc = 1 << (n - 1)
    if n % 2 == 0:
        acc -= coeff * (n - h) // (h + 1) // 2
    for j in range(h, -1, -1):
        yield acc
        acc -= coeff
        coeff = coeff * j // (n - j + 1)


def _price_walk(steps: int, bits: int) -> None:
    """Refuse a walk of `steps` steps over integers of up to `bits` bits
    past TAIL_CEILING bit-steps, before any of it is built."""
    read_index(steps * bits, "binomial walk in bit-steps", ceiling=TAIL_CEILING)


def binomial_tail(n: int, k: int) -> int:
    """b(n,k) = C(n,0)+...+C(n,k), exact; 0 for k<0, 2^n for k>=n.

    Past the middle of the row it uses the mirror identity
    b(n,k) = 2^n - b(n, n-k-1), so it needs b(n,t) for t = min(k, n-k-1)
    <= h = (n-1)//2. It walks to t from the nearer end of the lower half:
    up from j = 0 (t+1 terms), or down from the middle j = h (h-t+1
    terms after one math.comb), so a k within a few sqrt(n) of n/2 costs
    a few sqrt(n) steps rather than n/2.

    A walk past TAIL_CEILING bit-steps raises ResourceError. Its largest
    integer is 2^n at k >= n or past the middle, and C(n,h) from the
    middle, whose math.comb is priced as the h+1 steps up the row that
    reach it (1.3 s at n = 3*10^5, 10 s at 10^6).
    """
    n, k = read_index(n, "n"), read_index(k, "k", lo=None)
    if k < 0:
        return 0
    if k >= n:
        _price_walk(1, n + 1)
        return 1 << n
    t, h = min(k, n - k - 1), (n - 1) // 2
    if t <= h - t:
        # b(n,t) <= (n+1)^t has at most t times the bits of n+1
        _price_walk(t + 1, n + 1 if t < k else min(n, t * (n + 1).bit_length()) + 1)
        low = next(islice(_running_tails(n), t, None))
    else:
        _price_walk(h + 1, n + 1)
        low = next(islice(_middle_out_tails(n), h - t, None))
    return low if t == k else (1 << n) - low


def binomial_tails(n: int) -> list[int]:
    """[b(n,0), b(n,1), ..., b(n,n)], exact; the last entry is 2^n. A row
    past TAIL_CEILING bit-steps raises ResourceError."""
    n = read_index(n, "n")
    _price_walk(n + 1, n + 1)
    return list(_running_tails(n))


def bracket(tails: list[int], size: int) -> int:
    """Largest r with tails[r] = b(n,r) <= size; -1 when size < 1."""
    return bisect_right(tails, size) - 1


def distances_from(n: int, center: int = 0) -> np.ndarray:
    """popcount(v ^ center) for every vertex v of {0,1}^n: the distance
    of each vertex from the vertex mask `center`, an integer in 0..2^n-1;
    an n past CUBE_CEILING raises ResourceError."""
    n = read_index(n, "n", ceiling=CUBE_CEILING)
    center = read_index(center, "center", 0, (1 << n) - 1)
    return np.bitwise_count(np.arange(1 << n, dtype=np.uint64) ^ np.uint64(center))


@dataclass(frozen=True)
class SphereSpec:
    """The canonical sphere make_sphere builds around a (printable)
    center: full ball of inner_radius plus shell_count canonical points
    of the next shell."""

    center: str
    inner_radius: int
    shell_count: int

    @property
    def dimension(self) -> int:
        return len(self.center)

    def indicator(self) -> np.ndarray:
        """The ball of inner_radius, plus the first shell_count points of
        the next shell in the canonical order: descending value of
        (vertex XOR center). Initial segments of this order minimize
        iterated upper shadows, so the spheres attain the exhaustive
        isoperimetric minimum (the lexicographic order does not)."""
        n, r, c = self.dimension, self.inner_radius, bits_to_mask(as_bits(self.center))
        ind = distances_from(n, c) <= r
        offsets = np.flatnonzero(distances_from(n) == r + 1)[::-1]
        ind[offsets[:self.shell_count] ^ c] = True
        return ind

    def gamma_size(self, d: int) -> int:
        """|Γ_d(S)|: the points within distance d of S, counted exactly
        (none for the empty sphere, whose distances are all n+1 > d)."""
        d = read_index(d, "d", 0, self.dimension)
        dist = kernels.distance_to_set(self.indicator(), self.dimension)
        return int(np.count_nonzero(dist <= d))


def make_sphere(n: int, size: int, center) -> SphereSpec:
    """The canonical sphere of exactly `size` points around `center`."""
    n, cbits = read_index(n, "n"), as_bits(center)
    if cbits.size != n:  # refused before the n+1 big-integer tails are built
        raise DimensionError(f"center has length {cbits.size}, want {n}")
    size = read_index(size, "size", 0, 1 << n)
    tails = binomial_tails(n)
    k = bracket(tails, size)
    return SphereSpec(to_text(cbits), k, size - tails[k] if k >= 0 else size)


@lru_cache(maxsize=None)
def _harper_mins(n: int, d: int) -> tuple[int, ...]:
    # row v is the d-ball around v, packed as a vertex-set word
    inside = np.array([distances_from(n, v) <= d for v in range(1 << n)])
    weights = np.uint64(1) << np.arange(1 << n, dtype=np.uint64)
    ball = np.bitwise_or.reduce(inside * weights, axis=1)
    return tuple(int(x) for x in kernels.subset_min_gamma(ball))


def harper_min_neighborhood(n: int, size: int, d: int) -> tuple[int, int]:
    """(exhaustive min of |Γ_d(A)| over |A|=size, canonical-sphere value).

    The isoperimetric theorem says the two agree. Exhaustive search over
    all C(2^n, size) subsets, so n is capped at HARPER_CEILING; larger n
    raises rather than approximating.
    """
    n = read_index(n, "n", ceiling=HARPER_CEILING)
    size, d = read_index(size, "size", 0, 1 << n), read_index(d, "d", 0, n)
    exhaustive = _harper_mins(n, d)[size]
    sphere = make_sphere(n, size, "0" * n)
    return exhaustive, sphere.gamma_size(d)

