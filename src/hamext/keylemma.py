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

from fractions import Fraction
from itertools import chain

import numpy as np

from . import kernels
from .bits import _real, read_index
from .cube import EventFamily, binomial_tail, binomial_tails, bracket, distances_from
from .errors import DomainError, ResourceError
from .rng import generator

CONTAINMENT_CEILING = 16
# verify_key_lemma holds (trials, 2^n) arrays several copies deep: 1024 trials at
# n = 16 peak near 360 MB in ~3.4 s on 2 cores, and 100 001 ran out of memory
TRIALS_CEILING = 1024


def _check_ceiling(n: int):
    if n > CONTAINMENT_CEILING:
        raise ResourceError(
            f"exact containment enumerates 2^n points; n <= {CONTAINMENT_CEILING} required")


def _contained_counts(inside: np.ndarray, n: int) -> np.ndarray:
    """(families, n+1): per row of the (families, 2^n) membership array
    and d = 0..n, the points whose radius-d ball stays inside it.

    A point fails iff it lies within d of the complement, so the count
    is 2^n minus the points at distance <= d from the complement. An
    empty complement sits at distance n+1 from every point and never
    counts. Every row's complement goes through one distance_to_set
    call.
    """
    dist = kernels.distance_to_set(~inside, n)
    return (1 << n) - np.stack([np.count_nonzero(dist <= d, axis=-1) for d in range(n + 1)],
                               axis=-1)


def containment_profile(family: EventFamily, max_d: int | None = None) -> list[Fraction]:
    """P(ball_d(X) ⊆ E) for d = 0..max_d, exactly, in one sweep."""
    n = family.dimension
    _check_ceiling(n)
    max_d = n if max_d is None else read_index(max_d, "max_d")
    total = 1 << n
    counts = _contained_counts(family.indicator()[None], n)[0].tolist()
    return [Fraction(counts[min(d, n)], total) for d in range(max_d + 1)]


def adversarial_families(n: int, max_size: int, rng) -> list[tuple[str, np.ndarray]]:
    """Deterministic stress set as (label, bool mask over the 2^n
    vertices) pairs: balls, coordinate half-spaces / weight cuts, and
    unions of two random balls, all within the size cap."""
    out: list[tuple[str, np.ndarray]] = []
    center2 = int(rng.integers(0, 1 << n))
    for rho in range(n + 1):
        if binomial_tail(n, rho) > max_size:
            break
        for center in (0, center2):
            out.append((f"ball r={rho} c={center}", distances_from(n, center) <= rho))
    half = np.arange(1 << n) % 2 == 0
    if np.count_nonzero(half) <= max_size:
        out.append(("half-space x0=0", half))
    for trial in range(3):
        c1, c2 = int(rng.integers(0, 1 << n)), int(rng.integers(0, 1 << n))
        r1, r2 = int(rng.integers(0, max(1, n // 3))), int(rng.integers(0, max(1, n // 3)))
        union = (distances_from(n, c1) <= r1) | (distances_from(n, c2) <= r2)
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
    if trials > TRIALS_CEILING:
        raise ResourceError(f"verify_key_lemma handles 0 <= trials <= {TRIALS_CEILING}")
    p_threshold = _real(p_threshold, "threshold")
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
