"""Exact combinatorics of the finite Hamming cube.

Distances, binomial ball sizes, d-neighborhoods, canonical spheres
(pinched between consecutive balls), and an exhaustive isoperimetric
minimizer. Points of {0,1}^n travel either as bit strings (see
hamext.bits) or as integer vertex masks with bit i = position i;
set-valued results use the printable string form so they stay hashable.

All cardinalities are exact python integers; probabilities are
fractions with power-of-two denominators.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import islice
from math import comb

import numpy as np

from . import kernels
from .bits import (_collection, as_bits, bits_to_mask, prefix_distances, read_index,
                   read_indices, to_text)
from .errors import DimensionError, DomainError, ResourceError

HARPER_CEILING = 4


def hamming_distance(sigma, tau) -> int:
    """Number of positions where two equal-length bit strings differ."""
    a = as_bits(sigma)
    return int(prefix_distances(a, tau, [a.size])[0])


def _running_tails(n: int):
    """Yield b(n,0), b(n,1), ..., b(n,n) by the running recurrence
    C(n,j+1) = C(n,j)(n-j)/(j+1); the last value is 2^n."""
    coeff, acc = 1, 0
    for j in range(n + 1):
        acc += coeff
        yield acc
        coeff = coeff * (n - j) // (j + 1)


def _middle_out_tails(n: int):
    """Yield b(n,h), b(n,h-1), ..., b(n,0) for h = (n-1)//2, from the
    middle of the row outwards; nothing for n = 0.

    The start needs one math.comb: by the symmetry C(n,j) = C(n,n-j) the
    lower half of the row holds 2^(n-1), less half the middle term
    C(n,n/2) when n is even. Each step down subtracts C(n,j) and takes
    the next term from C(n,j-1) = C(n,j)j/(n-j+1).
    """
    h = (n - 1) // 2
    if h < 0:
        return
    coeff = comb(n, h)
    acc = 1 << (n - 1)
    if n % 2 == 0:
        acc -= coeff * (n - h) // (h + 1) // 2
    for j in range(h, -1, -1):
        yield acc
        acc -= coeff
        coeff = coeff * j // (n - j + 1)


def binomial_tail(n: int, k: int) -> int:
    """b(n,k) = C(n,0)+...+C(n,k), exact; 0 for k<0, 2^n for k>=n.

    Past the middle of the row it uses the mirror identity
    b(n,k) = 2^n - b(n, n-k-1), so it needs b(n,t) for t = min(k, n-k-1)
    <= h = (n-1)//2. It walks to t from the nearer end of the lower half:
    up from j = 0 (t+1 terms), or down from the middle j = h (h-t+1
    terms after one math.comb), so a k within a few sqrt(n) of n/2 costs
    a few sqrt(n) steps rather than n/2.
    """
    n, k = read_index(n, "n"), read_index(k, "k", lo=None)
    if k < 0:
        return 0
    if k >= n:
        return 1 << n
    t, h = min(k, n - k - 1), (n - 1) // 2
    if t <= h - t:
        low = next(islice(_running_tails(n), t, None))
    else:
        low = next(islice(_middle_out_tails(n), h - t, None))
    return low if t == k else (1 << n) - low


def binomial_tails(n: int) -> list[int]:
    """[b(n,0), b(n,1), ..., b(n,n)], exact; the last entry is 2^n."""
    return list(_running_tails(read_index(n, "n")))


def bracket(tails: list[int], size: int) -> int:
    """Largest r with tails[r] = b(n,r) <= size; -1 when size < 1."""
    return bisect_right(tails, size) - 1


def vertex_text(v: int, n: int) -> str:
    return "".join("1" if (v >> i) & 1 else "0" for i in range(n))


def neighborhood(A, d: int) -> set[str]:
    """All strings within distance d of the set A (as printable strings).

    A is any iterable of equal-length bit strings. The empty set has an
    empty neighborhood for every d (distance to the empty set is +inf).
    """
    members = _collection(A, "neighborhood member")
    if not members:
        return set()
    family = EventFamily.from_strings(members)
    n = family.dimension
    d = read_index(d, "d", 0, n)
    dist = kernels.distance_to_set(family.indicator(), n)
    return {vertex_text(int(v), n) for v in np.flatnonzero(dist <= d)}


def distances_from(n: int, center: int = 0) -> np.ndarray:
    """popcount(v ^ center) for every vertex v of {0,1}^n: the distance
    of each vertex from the vertex mask `center`."""
    return np.bitwise_count(np.arange(1 << n, dtype=np.uint64) ^ np.uint64(center))


@dataclass(frozen=True)
class SphereSpec:
    """Canonical sphere around a (printable) center: full ball of
    inner_radius plus shell_count canonical points of the next shell."""

    dimension: int
    center: str
    inner_radius: int
    shell_count: int

    def __post_init__(self):
        n, center = read_index(self.dimension, "dimension"), as_bits(self.center)
        if center.size != n:
            raise DimensionError(f"center has length {center.size}, want {n}")
        k = read_index(self.inner_radius, "inner radius", -1, n)
        read_index(self.shell_count, "shell count", 0, comb(n, k + 1) if k < n else 0)
        object.__setattr__(self, "center", to_text(center))

    @property
    def size(self) -> int:
        return binomial_tail(self.dimension, self.inner_radius) + self.shell_count

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
    return SphereSpec(n, cbits, k, size - tails[k] if k >= 0 else size)


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
    n = read_index(n, "n")
    if n > HARPER_CEILING:
        raise ResourceError(
            f"exhaustive search needs n <= {HARPER_CEILING} (2^2^n subsets), got n={n}")
    size, d = read_index(size, "size", 0, 1 << n), read_index(d, "d", 0, n)
    exhaustive = _harper_mins(n, d)[size]
    sphere = make_sphere(n, size, "0" * n)
    return exhaustive, sphere.gamma_size(d)


@dataclass(frozen=True)
class EventFamily:
    """An explicit event E inside {0,1}^n with its exact probability."""

    dimension: int
    members: frozenset[int]

    def __post_init__(self):
        n = read_index(self.dimension, "dimension")
        members = read_indices(self.members, "event member", 0, (1 << n) - 1)
        unique = frozenset(members)
        if len(unique) < len(members):
            raise DomainError(f"event lists {len(members) - len(unique)} member(s) more than once")
        object.__setattr__(self, "members", unique)

    @classmethod
    def from_strings(cls, strings) -> "EventFamily":
        bit_arrays = [as_bits(s) for s in _collection(strings, "family member")]
        if not bit_arrays:
            raise DomainError("cannot infer dimension of an empty family; use EventFamily(n, frozenset())")
        n = bit_arrays[0].size
        if any(b.size != n for b in bit_arrays):
            raise DimensionError("family members must share one dimension")
        return cls(n, frozenset(bits_to_mask(b) for b in bit_arrays))

    @property
    def size(self) -> int:
        return len(self.members)

    @property
    def probability(self) -> Fraction:
        return Fraction(self.size, 1 << self.dimension)

    def indicator(self) -> np.ndarray:
        ind = np.zeros(1 << self.dimension, dtype=np.bool_)
        ind[np.fromiter(self.members, dtype=np.int64)] = True
        return ind
