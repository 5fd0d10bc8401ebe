"""Quantitative probability at desk scale.

Exact binomial comparisons against the normal law (with the published
explicit constant), small-ball bounds for centered coin sums, dyadic
block-hit statistics calibrating iterated-logarithm rates along
subsequences, monotone selection rules with empirical frequency
reports, and the iterated majority-refinement of traced strings.

Everything that can be exact is exact: binomial masses and tails are
big integers, probabilities are fractions with power-of-two
denominators; only the normal CDF and the log statistics are floats
(math.erfc is correct to ~1 ulp, far inside the 1e-12 error budget the
comparisons allow).
"""

from __future__ import annotations

import math
import operator
from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from itertools import pairwise, starmap
from typing import Callable, NamedTuple, Optional

import numpy as np

from .bits import _collection, as_bits, read_index, read_indices
from .cube import _middle_out_tails
from .errors import ContractError, DimensionError, DomainError, ResourceError

#: the upper explicit constant in the quantitative CLT bound d*rho/(sigma^3 sqrt(n));
#: for centered fair coins rho = sigma^3 = 1/8, so the bound is just 0.71/sqrt(n).
BERRY_ESSEEN_D = 0.71

CDF_GAP_CEILING = 10 ** 5
# small_ball_probability sums one n-bit math.comb per term of its window:
# (10^4, 10^4), the worst call below the ceiling, takes 7-14 s on 2 cores,
# and (20000, 20000) over a minute
SMALL_BALL_CEILING = 10 ** 4
# the weber scans build 2^m for each block m <= n_max (2^4096 has 1 234 digits, under
# the 4 300 that int-to-text allows) and take time quadratic in n_max for a dense nu
WEBER_CEILING = 4096


def normal_cdf(x: float) -> float:
    return 0.5 * math.erfc(-x / math.sqrt(2.0))


def berry_esseen_bound(n: int) -> float:
    """0.71/sqrt(n): the explicit CLT error bound for fair coin sums."""
    return BERRY_ESSEEN_D / math.sqrt(read_index(n, "n", 1))


def binomial_cdf_gap(n: int) -> float:
    """sup over lattice points of |Binomial(n,1/2) CDF - normal CDF|.

    The binomial CDF is an exact big-integer partial sum divided by 2^n
    (one correctly-rounded float per lattice point x_j = (j-n/2)/(sqrt(n)/2)).

    The row is walked from the middle out: each lower point j <= (n-1)//2
    comes with its mirror n-1-j, whose CDF is 2^n - b(n,j); the point
    j = n (CDF 1) is taken first. Below the middle, a = CDF/2^n and
    phi = Phi(x_j) both rise with j and |a - phi| <= max(a, phi), so once
    both are at most the running maximum no lower point can exceed it.
    Above the middle the same holds for 1 - a and 1 - phi, which fall as
    j rises. Every visited point's gap is the same float a scan of the
    whole row computes, so the result equals that scan's bit for bit.
    """
    n = read_index(n, "n", 1)
    if n > CDF_GAP_CEILING:
        raise ResourceError(f"binomial_cdf_gap handles 1 <= n <= {CDF_GAP_CEILING}")
    denom = 1 << n
    scale = 2.0 / math.sqrt(n)
    half = n / 2.0
    worst = abs(1.0 - normal_cdf((n - half) * scale))
    below = above = True
    for j, cdf in zip(range((n - 1) // 2, -1, -1), _middle_out_tails(n)):
        if below:
            a, phi = cdf / denom, normal_cdf((j - half) * scale)
            worst = max(worst, abs(a - phi))
            below = a > worst or phi > worst
        if above:
            a, phi = (denom - cdf) / denom, normal_cdf((n - 1 - j - half) * scale)
            worst = max(worst, abs(a - phi))
            above = 1.0 - a > worst or 1.0 - phi > worst
        if not (below or above):
            break
    return worst


def small_ball_probability(n: int, g_of_n: int) -> Fraction:
    """Exact P(|S_n| <= g) for S_n = ones - n/2 over n fair bits; an n
    past SMALL_BALL_CEILING raises ResourceError."""
    n, g_of_n = read_index(n, "n", 1), read_index(g_of_n, "g")
    if n > SMALL_BALL_CEILING:
        raise ResourceError(f"small_ball_probability handles 1 <= n <= {SMALL_BALL_CEILING}")
    # |ones - n/2| <= g  <=>  ceil(n/2 - g) <= ones <= floor(n/2 + g)
    lo = max(0, -(-(n - 2 * g_of_n) // 2))
    hi = min(n, (n + 2 * g_of_n) // 2)
    total = sum(math.comb(n, j) for j in range(lo, hi + 1))
    return Fraction(total, 1 << n)


def small_ball_bound(n: int, g_of_n: int) -> float:
    """The explicit envelope 4g/sqrt(2 pi n) + 2*0.71/sqrt(n)."""
    n, g_of_n = read_index(n, "n", 1), read_index(g_of_n, "g")
    return 4.0 * g_of_n / math.sqrt(2.0 * math.pi * n) + 2.0 * BERRY_ESSEEN_D / math.sqrt(n)


# ---------------------------------------------------------------------------
# dyadic block hit counts along a subsequence

def _block_of(v: int) -> int:
    """Index m >= 1 of the dyadic block (2^(m-1), 2^m] containing v >= 2."""
    return (v - 1).bit_length()


@dataclass(frozen=True)
class WeberSeries:
    """Hit counts of a subsequence across dyadic blocks.

    p_count(n) = how many of the blocks (2^(m-1), 2^m], m <= n, meet the
    subsequence; the log statistic is constant on each block. hit_blocks
    lists the hit m in increasing order.
    """

    n_max: int
    hit_blocks: tuple[int, ...]

    def p_count(self, n: int) -> int:
        n = read_index(n, "n", 1, self.n_max)
        return bisect_right(self.hit_blocks, n)

    @property
    def p_counts(self) -> list[int]:
        return [self.p_count(n) for n in range(1, self.n_max + 1)]

    def log_rate(self, k: int) -> float:
        """ln p_n for k in the block (2^(n-1), 2^n]; -inf while no hits."""
        p = self.p_count(_block_of(read_index(k, "k", 2, 1 << self.n_max)))
        return math.log(p) if p else float("-inf")


def _n_max(n_max) -> int:
    n_max = read_index(n_max, "n_max", 1)
    if n_max > WEBER_CEILING:
        raise ResourceError(f"the weber scans handle 1 <= n_max <= {WEBER_CEILING}")
    return n_max


def weber_series(nu, n_max: int) -> WeberSeries:
    """Dyadic block hits of the subsequence nu (any iterable of integers).

    A range with a positive step is already strictly increasing and
    bisect searches it in place, so it is kept as it is rather than
    listed out. An n_max below 1 raises DomainError, one past
    WEBER_CEILING ResourceError.
    """
    n_max = _n_max(n_max)
    ranged = isinstance(nu, range) and nu.step > 0
    try:
        seq = nu if ranged else tuple(read_index(v, "subsequence member", lo=None) for v in nu)
    except TypeError:  # nu itself is not iterable
        raise DomainError(f"subsequence must be a collection of integers, got {nu!r}") from None
    if not (ranged or all(starmap(operator.lt, pairwise(seq)))) or (seq and seq[0] < 1):
        raise DomainError("subsequence must be strictly increasing positive integers")
    # block m = (2^(m-1), 2^m] is hit iff the first member past 2^(m-1) is at
    # most 2^m; no block past the last member's can be
    top = min(n_max, _block_of(seq[-1])) if seq else 0
    hits = tuple(m for m in range(1, top + 1) if seq[bisect_right(seq, 1 << (m - 1))] <= 1 << m)
    return WeberSeries(n_max, hits)


class SparseResult(NamedTuple):
    nu: list[int]
    threshold: int


def sparse_subsequence(f: Callable[[int], float], n_max: int) -> SparseResult:
    """A subsequence whose dyadic log statistic stays at or under f.

    Scans blocks m = 1..n_max and admits block m (adding its top point
    2^m) only once ln(hits so far + 1) <= f(2^(m-1)); f nondecreasing
    then keeps every k in admitted and skipped blocks alike under f, so
    the reported violation threshold is 0 for genuine order functions.
    n_max is read as in weber_series, before the scan.
    """
    n_max = _n_max(n_max)
    nu: list[int] = []
    threshold = 0
    for m in range(1, n_max + 1):
        if math.log(len(nu) + 1) <= f(1 << (m - 1)):
            nu.append(1 << m)
        # the admitted blocks are the hit blocks, so the statistic on block m
        # is ln len(nu) (-inf before the first admission, under any f)
        if nu and math.log(len(nu)) > f((1 << (m - 1)) + 1):
            threshold = 1 << m
    return SparseResult(nu, threshold)


# ---------------------------------------------------------------------------
# monotone selection rules and frequency tests

@dataclass
class FrequencyReport:
    positions_examined: int
    ones_count: int
    relative_frequency: Optional[float]
    deviation_from_half: Optional[float]
    checkpoint: Optional[int] = None

    @classmethod
    def of(cls, examined: int, ones: int, checkpoint: Optional[int] = None) -> "FrequencyReport":
        if examined:
            freq = ones / examined
            return cls(examined, ones, freq, freq - 0.5, checkpoint)
        return cls(0, 0, None, None, checkpoint)


#: monotone selection rules by name: mask(x)[i] says whether position i
#: is counted, and reads only the bits before it, x[:i]
SELECTION_RULES: dict[str, Callable[[np.ndarray], np.ndarray]] = {
    "all": lambda x: np.ones(x.size, dtype=np.bool_),
    "evens": lambda x: np.arange(x.size) % 2 == 0,
    # exclusive prefix sums: position i sees the ones of x[:i]
    "parity": lambda x: (np.cumsum(x, dtype=np.int64) - x) % 2 == 0,
}


def apply_selection(rule: Callable[[np.ndarray], np.ndarray], X) -> FrequencyReport:
    """Stream X through a selection rule (a mask function, such as a
    SELECTION_RULES value); report the ones-frequency among the selected
    positions."""
    x = as_bits(X)
    mask = rule(x)
    examined = int(np.count_nonzero(mask))
    ones = int(x[mask].sum())
    return FrequencyReport.of(examined, ones)


def frequency_on_set(X, N, checkpoints) -> list[FrequencyReport]:
    """Ones-frequency of X restricted to the position set N at each
    checkpoint n in 0..len(X) (undefined, not an error, while N∩n is empty)."""
    x = as_bits(X)
    pos = np.asarray(sorted(read_indices(N, "position", 0, x.size - 1)), dtype=np.int64)
    out = []
    for n in read_indices(checkpoints, "checkpoint", 0, x.size):
        upto = pos[pos < n]
        out.append(FrequencyReport.of(upto.size, int(x[upto].sum()), checkpoint=n))
    return out


# ---------------------------------------------------------------------------
# iterated majority refinement

def majority_refinement(strings) -> tuple[list[int], list[int]]:
    """Iteratively restrict to majority-agreeing positions.

    Starting from all positions of the first string, each step keeps
    the positions where the next string equals its majority value on
    the surviving set (ties keep the ones side). With q strings of
    length L the surviving set has at least L/2^q positions, so the
    precondition L*2^-q >= 1 guarantees it never empties.
    """
    arrs = [as_bits(s) for s in _collection(strings, "string")]
    if not arrs:
        raise DomainError("need at least one string")
    length = arrs[0].size
    if any(a.size != length for a in arrs):
        raise DimensionError("strings must share one length")
    if length * 2 ** -len(arrs) < 1:
        raise ContractError(
            f"{len(arrs)} strings of length {length} cannot guarantee a survivor")
    surviving = np.arange(length)
    constants: list[int] = []
    for a in arrs:
        vals = a[surviving]
        ones = int(vals.sum())
        maj = 1 if 2 * ones >= vals.size else 0
        constants.append(maj)
        surviving = surviving[vals == maj]
        if surviving.size == 0:
            raise ContractError("refinement emptied despite the size precondition")
    return [int(i) for i in surviving], constants
