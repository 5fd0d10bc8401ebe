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

from .bits import (FLOAT_CEILING, _collection, _real, as_bits, read_index, read_indices,
                   read_instance)
from .cube import _middle_out_tails
from .errors import ContractError, DimensionError, DomainError

#: the upper explicit constant in the quantitative CLT bound d*rho/(sigma^3 sqrt(n));
#: for centered fair coins rho = sigma^3 = 1/8, so the bound is just 0.71/sqrt(n).
BERRY_ESSEEN_D = 0.71

CDF_GAP_CEILING = 10 ** 5
# small_ball_probability sums one n-bit math.comb per term of its window:
# (10^4, 10^4), the worst call below the ceiling, takes 7-14 s on 2 cores,
# and (20000, 20000) over a minute
SMALL_BALL_CEILING = 10 ** 4
# the largest n whose 2.0 * math.pi * n in small_ball_bound is a finite float (past
# it the first term's denominator is inf and the term drops to 0): the largest float
# that keeps it finite plus its half ulp, 2^968, which still rounds down to it (a tie
# goes to the even mantissa)
SMALL_BALL_BOUND_CEILING = int(float.fromhex("0x1.45f306dc9c882p+1021")) + (1 << 968)
# the weber scans build 2^m for each block m <= n_max (2^4096 has 1 234 digits, under
# the 4 300 that int-to-text allows) and take time quadratic in n_max for a dense nu
WEBER_CEILING = 4096


def normal_cdf(x: float) -> float:
    return 0.5 * math.erfc(-x / math.sqrt(2.0))


def berry_esseen_bound(n: int) -> float:
    """0.71/sqrt(n): the explicit CLT error bound for fair coin sums; an
    n past FLOAT_CEILING, which has no float, raises ResourceError."""
    return BERRY_ESSEEN_D / math.sqrt(read_index(n, "n", 1, ceiling=FLOAT_CEILING))


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
    n = read_index(n, "n", 1, ceiling=CDF_GAP_CEILING)
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
    n, g_of_n = read_index(n, "n", 1, ceiling=SMALL_BALL_CEILING), read_index(g_of_n, "g")
    # |ones - n/2| <= g  <=>  ceil(n/2 - g) <= ones <= floor(n/2 + g)
    lo = max(0, -(-(n - 2 * g_of_n) // 2))
    hi = min(n, (n + 2 * g_of_n) // 2)
    total = sum(math.comb(n, j) for j in range(lo, hi + 1))
    return Fraction(total, 1 << n)


def small_ball_bound(n: int, g_of_n: int) -> float:
    """The explicit envelope 4g/sqrt(2 pi n) + 2*0.71/sqrt(n); an n past
    SMALL_BALL_BOUND_CEILING, or a g past a quarter of FLOAT_CEILING, where
    4.0 * g overflows, raises ResourceError."""
    n = read_index(n, "n", 1, ceiling=SMALL_BALL_BOUND_CEILING)
    g_of_n = read_index(g_of_n, "g", ceiling=FLOAT_CEILING // 4)
    return 4.0 * g_of_n / math.sqrt(2.0 * math.pi * n) + 2.0 * BERRY_ESSEEN_D / math.sqrt(n)


# ---------------------------------------------------------------------------
# dyadic block hit counts along a subsequence

def _block_of(v: int) -> int:
    """Index m >= 1 of the dyadic block (2^(m-1), 2^m] containing v >= 2."""
    return (v - 1).bit_length()


@dataclass(frozen=True)
class WeberSeries:
    """Hit counts of a subsequence across dyadic blocks.

    hit_blocks lists, in increasing order, the m whose block
    (2^(m-1), 2^m] meets the subsequence; p_counts[n-1] = how many of
    them are at most n. The log statistic is constant on each block.
    """

    n_max: int
    hit_blocks: tuple[int, ...]

    @property
    def p_counts(self) -> list[int]:
        return [bisect_right(self.hit_blocks, n) for n in range(1, self.n_max + 1)]

    @property
    def log_rates(self) -> list[tuple[int, int, float]]:
        """(m, its lowest k 2^(m-1) + 1, ln p_m) per block m <= n_max, -inf
        while no block is hit: the statistic is constant on a block, so its
        lowest k stands for it; criterion 9 and `hamext weber` read these rows."""
        return [(m, (1 << (m - 1)) + 1, math.log(p) if p else float("-inf"))
                for m, p in enumerate(self.p_counts, start=1)]


def weber_series(nu, n_max: int) -> WeberSeries:
    """Dyadic block hits of the subsequence nu (any iterable of integers).

    A range with a positive step is already strictly increasing and
    bisect searches it in place, so it is kept as it is rather than
    listed out. An n_max below 1 raises DomainError, one past
    WEBER_CEILING ResourceError.
    """
    n_max = read_index(n_max, "n_max", 1, ceiling=WEBER_CEILING)
    ranged = isinstance(nu, range) and nu.step > 0
    seq = nu if ranged else read_indices(nu, "subsequence member", lo=None)
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
    n_max is read as in weber_series, before the scan. Each f(k) is read
    exactly, by bits._real, so a rate past the float range still compares
    with the log; one that is no finite number raises DomainError.
    """
    read_instance(f, Callable, "f")
    n_max = read_index(n_max, "n_max", 1, ceiling=WEBER_CEILING)
    nu: list[int] = []
    threshold = 0
    for m in range(1, n_max + 1):
        if math.log(len(nu) + 1) <= _real(f(1 << (m - 1)), "f(k)"):
            nu.append(1 << m)
        # the admitted blocks are the hit blocks, so the statistic on block m
        # is ln len(nu) (-inf before the first admission, under any f)
        if nu and math.log(len(nu)) > _real(f((1 << (m - 1)) + 1), "f(k)"):
            threshold = 1 << m
    return SparseResult(nu, threshold)


# ---------------------------------------------------------------------------
# monotone selection rules and frequency tests

@dataclass
class FrequencyReport:
    """Ones among the examined positions; the frequency and its deviation
    from 1/2 are None while no position is examined."""

    positions_examined: int
    ones_count: int

    @property
    def relative_frequency(self) -> Optional[float]:
        return self.ones_count / self.positions_examined if self.positions_examined else None

    @property
    def deviation_from_half(self) -> Optional[float]:
        freq = self.relative_frequency
        return None if freq is None else freq - 0.5


def _evens(x: np.ndarray) -> np.ndarray:
    mask = np.zeros(x.size, dtype=np.bool_)
    mask[::2] = True
    return mask


#: monotone selection rules by name: mask(x)[i] says whether position i
#: is counted, and reads only the bits before it, x[:i]; each mask takes
#: one byte per bit, and no rule builds a wider temporary
SELECTION_RULES: dict[str, Callable[[np.ndarray], np.ndarray]] = {
    "all": lambda x: np.ones(x.size, dtype=np.bool_),
    "evens": _evens,
    # the running parity through x[i] equals x[i] iff x[:i] holds an even count of ones
    "parity": lambda x: np.bitwise_xor.accumulate(x) == x,
}


def apply_selection(rule: str, X) -> FrequencyReport:
    """Stream X through the selection rule named `rule` (a SELECTION_RULES
    key; anything else raises DomainError); report the ones-frequency
    among the selected positions."""
    if not (isinstance(rule, str) and rule in SELECTION_RULES):
        raise DomainError(f"unknown selection rule {rule!r}; have {sorted(SELECTION_RULES)}")
    x = as_bits(X)
    mask = SELECTION_RULES[rule](x)
    return FrequencyReport(int(np.count_nonzero(mask)), int(np.count_nonzero(x & mask)))


def frequency_on_set(X, N, checkpoints) -> list[FrequencyReport]:
    """Ones-frequency of X restricted to the position set N at each
    checkpoint n in 0..len(X), in the order given (undefined, not an error,
    while N∩n is empty). A position listed twice raises DomainError: a set
    holds each position once."""
    x = as_bits(X)
    positions = read_indices(N, "position", 0, x.size - 1)
    pos = np.unique(np.asarray(positions, dtype=np.int64))
    if pos.size < len(positions):
        raise DomainError(f"position set lists {len(positions) - pos.size} position(s) "
                          f"more than once")
    out = []
    for n in read_indices(checkpoints, "checkpoint", 0, x.size):
        upto = pos[pos < n]
        out.append(FrequencyReport(upto.size, int(x[upto].sum())))
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
    return [int(i) for i in surviving], constants
