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
from .bits import as_bits, bits_to_mask, read_index, to_text
from .errors import DimensionError, DomainError, ResourceError

HARPER_DEFAULT_CEILING = 4


def hamming_distance(sigma, tau) -> int:
    """Number of positions where two equal-length bit strings differ."""
    a, b = as_bits(sigma), as_bits(tau)
    if a.size != b.size:
        raise DimensionError(f"length mismatch: {a.size} vs {b.size}")
    return int(np.count_nonzero(a != b))


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


def _indicator(vertices, n: int) -> np.ndarray:
    ind = np.zeros(1 << n, dtype=np.bool_)
    ind[np.fromiter(vertices, dtype=np.int64)] = True
    return ind


def neighborhood(A, d: int) -> set[str]:
    """All strings within distance d of the set A (as printable strings).

    A is any iterable of equal-length bit strings. The empty set has an
    empty neighborhood for every d (distance to the empty set is +inf).
    """
    members = [as_bits(a) for a in A]
    if not members:
        return set()
    n = members[0].size
    if any(m.size != n for m in members):
        raise DimensionError("neighborhood members must share one dimension")
    d = read_index(d, "d", 0, n)
    dist = kernels.distance_to_set(_indicator((bits_to_mask(m) for m in members), n), n)
    return {vertex_text(int(v), n) for v in np.flatnonzero(dist <= d)}


def shell_vertices(n: int, level: int, center_vertex: int = 0) -> list[int]:
    """Vertices at distance exactly `level` from the center, in the
    canonical shell order: descending value of (vertex XOR center).

    Initial segments of this order minimize iterated upper shadows, so
    canonical spheres built from them attain the exhaustive
    isoperimetric minimum (the lexicographic order does not).
    """
    offs = [v for v in range(1 << n) if v.bit_count() == level]
    offs.sort(reverse=True)
    return [off ^ center_vertex for off in offs]


@dataclass(frozen=True)
class SphereSpec:
    """Canonical sphere: full ball of inner_radius plus shell_count
    canonical points of the next shell."""

    dimension: int
    center: str
    inner_radius: int
    shell_count: int

    def __post_init__(self):
        n = read_index(self.dimension, "dimension")
        if len(self.center) != n:
            raise DimensionError("center length must equal dimension")
        k = read_index(self.inner_radius, "inner radius", -1, n)
        read_index(self.shell_count, "shell count", 0, comb(n, k + 1) if k < n else 0)

    @property
    def size(self) -> int:
        return binomial_tail(self.dimension, self.inner_radius) + self.shell_count

    def members(self) -> list[int]:
        n, c = self.dimension, bits_to_mask(as_bits(self.center))
        out = [v for v in range(1 << n)
               if (v ^ c).bit_count() <= self.inner_radius]
        out.extend(shell_vertices(n, self.inner_radius + 1, c)[: self.shell_count])
        return out

    def indicator(self) -> np.ndarray:
        return _indicator(self.members(), self.dimension)

    def gamma_size(self, d: int) -> int:
        """|Γ_d(S)|: the points within distance d of S, counted exactly."""
        if self.size == 0:
            return 0
        dist = kernels.distance_to_set(self.indicator(), self.dimension)
        return int(np.count_nonzero(dist <= d))


def make_sphere(n: int, size: int, center) -> SphereSpec:
    """The canonical sphere of exactly `size` points around `center`."""
    n, cbits = read_index(n, "n"), as_bits(center)
    if cbits.size != n:
        raise DimensionError(f"center has length {cbits.size}, want {n}")
    size = read_index(size, "size", 0, 1 << n)
    tails = binomial_tails(n)
    k = bracket(tails, size)
    return SphereSpec(n, to_text(cbits), k, size - tails[k] if k >= 0 else size)


@lru_cache(maxsize=None)
def _harper_mins(n: int, d: int) -> tuple[int, ...]:
    # row v of the identity is the singleton {v}; its distance row read
    # at <= d is the d-ball around v, packed as a vertex-set word
    inside = kernels.distance_to_set(np.eye(1 << n, dtype=np.bool_), n) <= d
    weights = np.uint64(1) << np.arange(1 << n, dtype=np.uint64)
    ball = np.bitwise_or.reduce(inside * weights, axis=1)
    return tuple(int(x) for x in kernels.subset_min_gamma(ball))


def harper_min_neighborhood(n: int, size: int, d: int,
                            ceiling: int = HARPER_DEFAULT_CEILING) -> tuple[int, int]:
    """(exhaustive min of |Γ_d(A)| over |A|=size, canonical-sphere value).

    The isoperimetric theorem says the two agree. Exhaustive search over
    all C(2^n, size) subsets, so n is capped (default 4); larger n
    raises rather than approximating.
    """
    n = read_index(n, "n")
    if n > ceiling:
        raise ResourceError(
            f"exhaustive search needs n <= {ceiling} (2^2^n subsets), got n={n}")
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
        if not self.members:
            return
        try:
            values = np.array(list(self.members))
        except ValueError:  # ragged sequences among the members
            values = None
        if values is not None and values.ndim == 1 and values.dtype.kind in "iu":
            if int(values.min()) < 0 or int(values.max()) >= 1 << n:
                raise DomainError("event member outside the cube")
        else:
            # a float, a string or an int past uint64 among the members:
            # check them one by one, so 1.5 is refused rather than truncated
            for v in self.members:
                read_index(v, "event member", 0, (1 << n) - 1)

    @classmethod
    def from_strings(cls, strings) -> "EventFamily":
        bit_arrays = [as_bits(s) for s in strings]
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
        return _indicator(self.members, self.dimension)
