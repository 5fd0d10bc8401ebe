"""Exhaustive finite verification of the ball-containment bound.

For an event E inside {0,1}^n holding at most a q_{r+1} fraction of the
cube (r the largest radius with b(n,r) <= |E|), the probability that
the whole radius-d ball around a uniform point stays inside E is at
most the shifted tail q_{r+1-d}. Everything here is computed exactly:
the containment count is 2^n - |Γ_d(complement)| from exact distances,
the tail is a big-integer binomial sum, and both sides are fractions
over 2^n.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import chain

import numpy as np

from . import kernels
from .bits import read_index
from .cube import EventFamily, binomial_tail, binomial_tails, bracket
from .errors import DomainError, ResourceError
from .rng import generator

CONTAINMENT_CEILING = 16

#: vertices swept per distance_to_set call, in whole rows (one row holds
#: at most 2^CONTAINMENT_CEILING of them): a batch's int64 histogram bins
#: take at most 512 KiB however many families one n has
BATCH_VERTICES = 1 << 16


@dataclass(frozen=True)
class KeyLemmaInstance:
    family: EventFamily
    ball_radius: int

    def __post_init__(self):
        read_index(self.ball_radius, "ball radius", 0, self.family.dimension)

    @property
    def r(self) -> int:
        """Largest r with b(n,r) <= |E| (and |E| < b(n,r+1)); -1 when empty."""
        size = self.family.size
        n = self.family.dimension
        if size >= 1 << n:
            raise DomainError("the bound needs P(E) < 1 (proper subset)")
        return bracket(binomial_tails(n), size)


def _check_ceiling(n: int):
    if n > CONTAINMENT_CEILING:
        raise ResourceError(
            f"exact containment enumerates 2^n points; n <= {CONTAINMENT_CEILING} required")


def _contained_counts(inside: np.ndarray, n: int) -> np.ndarray:
    """(families, n+1) int64: per row of the (families, 2^n) membership
    array and d = 0..n, the points whose radius-d ball stays inside it.

    A point fails iff it lies within d of the complement, so the count
    is 2^n minus the points at distance <= d from the complement. An
    empty complement sits at distance n+1 from every point and never
    counts. The complements go through distance_to_set in batches of
    whole rows; each batch is read as one histogram of distances (row
    r's values land in bins r*(n+2) .. r*(n+2)+n+1), whose running sums
    give every d at once.
    """
    counts = np.empty((len(inside), n + 1), dtype=np.int64)
    step = max(1, BATCH_VERTICES >> n)
    for lo in range(0, len(inside), step):
        dist = kernels.distance_to_set(~inside[lo:lo + step], n)
        rows = len(dist)
        bins = dist + np.arange(0, rows * (n + 2), n + 2)[:, None]
        hist = np.bincount(bins.ravel(), minlength=rows * (n + 2)).reshape(rows, n + 2)
        counts[lo:lo + rows] = (1 << n) - np.cumsum(hist[:, :n + 1], axis=1)
    return counts


def containment_profile(family: EventFamily, max_d: int | None = None) -> list[Fraction]:
    """P(ball_d(X) ⊆ E) for d = 0..max_d, exactly, in one sweep."""
    n = family.dimension
    _check_ceiling(n)
    max_d = n if max_d is None else read_index(max_d, "max_d")
    total = 1 << n
    counts = _contained_counts(family.indicator()[None], n)[0].tolist()
    return [Fraction(counts[min(d, n)], total) for d in range(max_d + 1)]


def ball_containment_probability(instance: KeyLemmaInstance) -> Fraction:
    return containment_profile(instance.family, instance.ball_radius)[-1]


def sphere_tail_bound(instance: KeyLemmaInstance) -> Fraction:
    """q_{r+1-d} = b(n, r+1-d)/2^n (zero once the index goes negative)."""
    n = instance.family.dimension
    return Fraction(binomial_tail(n, instance.r + 1 - instance.ball_radius), 1 << n)


def adversarial_families(n: int, max_size: int, rng) -> list[tuple[str, np.ndarray]]:
    """Deterministic stress set as (label, bool mask over the 2^n
    vertices) pairs: balls, coordinate half-spaces / weight cuts, and
    unions of two random balls, all within the size cap."""
    vertices = np.arange(1 << n, dtype=np.uint64)

    def distance_from(center: int) -> np.ndarray:
        return np.bitwise_count(vertices ^ np.uint64(center))

    out: list[tuple[str, np.ndarray]] = []
    center2 = int(rng.integers(0, 1 << n))
    for rho in range(n + 1):
        if binomial_tail(n, rho) > max_size:
            break
        for center in (0, center2):
            out.append((f"ball r={rho} c={center}", distance_from(center) <= rho))
    half = vertices & np.uint64(1) == 0
    if np.count_nonzero(half) <= max_size:
        out.append(("half-space x0=0", half))
    for trial in range(3):
        c1, c2 = int(rng.integers(0, 1 << n)), int(rng.integers(0, 1 << n))
        r1, r2 = int(rng.integers(0, max(1, n // 3))), int(rng.integers(0, max(1, n // 3)))
        union = (distance_from(c1) <= r1) | (distance_from(c2) <= r2)
        if np.count_nonzero(union) <= max_size:
            out.append((f"union of balls #{trial}", union))
    return out


def verify_key_lemma(n: int, trials: int, p_threshold: Fraction, seed: int) -> dict:
    """Sample event families under the probability threshold, add the
    deterministic stress set, and check exact containment against the
    shifted tail at every radius.

    Returns a report with per-family rows {d, exact, bound}, violation
    count (the claim is zero), the d where each family attains the
    preceding tail q_{r-d} (``tight_at``), and the empirical modulus:
    for each j, the least d whose bound falls to 2^-j for the largest
    admissible r at this threshold.
    """
    n, trials = read_index(n, "n"), read_index(trials, "trials")
    _check_ceiling(n)
    p_threshold = Fraction(p_threshold)
    if not 0 < p_threshold < 1:
        raise DomainError("threshold must lie strictly between 0 and 1")
    rng = generator(seed)
    max_size = int(p_threshold * (1 << n))
    # one membership row per family; the draws keep the order seeded
    # reports depend on: per sampled family a size, then its members,
    # and then the stress set
    sampled = np.zeros((trials, 1 << n), dtype=np.bool_)
    for row in sampled:
        size = int(rng.integers(0, max_size + 1))
        if size:
            row[rng.choice(1 << n, size=size, replace=False)] = True
    stress = adversarial_families(n, max_size, rng)
    labels = [f"sampled #{t}" for t in range(trials)] + [label for label, _ in stress]
    inside = np.vstack([sampled, *(mask for _, mask in stress)])
    sizes = np.count_nonzero(inside, axis=1).tolist()
    total = 1 << n
    tails = binomial_tails(n)  # numerators over 2^n; every family here is proper

    def tail(t: int) -> int:
        return tails[t] if t >= 0 else 0

    counts = _contained_counts(inside, n).tolist()
    # one Fraction per distinct numerator; the report rows share them
    over_total = {k: Fraction(k, total) for k in {0, *tails, *chain.from_iterable(counts)}}
    families = []
    violations = 0
    for label, size, contained in zip(labels, sizes, counts):
        r = bracket(tails, size)
        rows = []
        tight_at = []
        for d, exact in enumerate(contained):
            bound = tail(r + 1 - d)
            rows.append({"d": d, "exact": over_total[exact], "bound": over_total[bound]})
            if exact > bound:
                violations += 1
            if exact == tail(r - d):
                tight_at.append(d)
        families.append({"label": label, "n": n, "size": size, "r": r,
                         "rows": rows, "tight_at": tight_at})
    r_max = bracket(tails, max_size)
    modulus = {}
    for j in range(1, 9):
        # q_{r_max+1-d} <= 2^-j  <=>  b(n, r_max+1-d) * 2^j <= 2^n
        modulus[j] = next((d for d in range(n + 2) if tail(r_max + 1 - d) << j <= total), None)
    return {"n": n, "trials": trials, "p_threshold": p_threshold, "seed": seed,
            "violations": violations, "families": families, "modulus": modulus}
