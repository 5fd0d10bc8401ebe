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

import numpy as np

from . import kernels
from .cube import EventFamily, binomial_tail, make_sphere
from .errors import DomainError, ResourceError
from .rng import generator

CONTAINMENT_CEILING = 16


@dataclass(frozen=True)
class KeyLemmaInstance:
    family: EventFamily
    ball_radius: int

    def __post_init__(self):
        n = self.family.dimension
        if not 0 <= self.ball_radius <= n:
            raise DomainError(f"ball radius must lie in 0..{n}")

    @property
    def r(self) -> int:
        """Largest r with b(n,r) <= |E| (and |E| < b(n,r+1)); -1 when empty."""
        size = self.family.size
        n = self.family.dimension
        if size >= 1 << n:
            raise DomainError("the bound needs P(E) < 1 (proper subset)")
        r = -1
        while binomial_tail(n, r + 1) <= size:
            r += 1
        return r


def _check_ceiling(n: int):
    if n > CONTAINMENT_CEILING:
        raise ResourceError(
            f"exact containment enumerates 2^n points; n <= {CONTAINMENT_CEILING} required")


def containment_profile(family: EventFamily, max_d: int | None = None) -> list[Fraction]:
    """P(ball_d(X) ⊆ E) for d = 0..max_d, exactly, in one sweep.

    A point fails iff it lies within d of the complement, so the count
    is 2^n minus the points at distance <= d from the complement. An
    empty complement sits at distance n+1 from every point and never
    counts.
    """
    n = family.dimension
    _check_ceiling(n)
    if max_d is None:
        max_d = n
    total = 1 << n
    dist = kernels.distance_to_set(~family.indicator(), n)
    within = np.cumsum(np.bincount(dist, minlength=n + 1)[:n + 1])
    return [Fraction(total - int(within[min(d, n)]), total) for d in range(max(max_d, 0) + 1)]


def ball_containment_probability(instance: KeyLemmaInstance) -> Fraction:
    return containment_profile(instance.family, instance.ball_radius)[-1]


def sphere_tail_bound(instance: KeyLemmaInstance) -> Fraction:
    """q_{r+1-d} = b(n, r+1-d)/2^n (zero once the index goes negative)."""
    n = instance.family.dimension
    return Fraction(binomial_tail(n, instance.r + 1 - instance.ball_radius), 1 << n)


def _tail_fraction(n: int, t: int) -> Fraction:
    return Fraction(binomial_tail(n, t), 1 << n)


def _sample_family(n: int, max_size: int, rng) -> EventFamily:
    size = int(rng.integers(0, max_size + 1))
    members = rng.choice(1 << n, size=size, replace=False) if size else np.empty(0, dtype=np.int64)
    return EventFamily(n, frozenset(members.tolist()))


def adversarial_families(n: int, max_size: int, rng) -> list[tuple[str, EventFamily]]:
    """Deterministic stress set: balls, coordinate half-spaces / weight
    cuts, and unions of two random balls, all within the size cap."""
    out: list[tuple[str, EventFamily]] = []
    center2 = int(rng.integers(0, 1 << n))
    for rho in range(n + 1):
        if binomial_tail(n, rho) > max_size:
            break
        for center in (0, center2):
            members = frozenset(v for v in range(1 << n)
                                if ((v ^ center).bit_count()) <= rho)
            out.append((f"ball r={rho} c={center}", EventFamily(n, members)))
    half = frozenset(v for v in range(1 << n) if not v & 1)
    if len(half) <= max_size:
        out.append(("half-space x0=0", EventFamily(n, half)))
    for trial in range(3):
        c1, c2 = int(rng.integers(0, 1 << n)), int(rng.integers(0, 1 << n))
        r1, r2 = int(rng.integers(0, max(1, n // 3))), int(rng.integers(0, max(1, n // 3)))
        members = frozenset(v for v in range(1 << n)
                            if (v ^ c1).bit_count() <= r1 or (v ^ c2).bit_count() <= r2)
        if len(members) <= max_size:
            out.append((f"union of balls #{trial}", EventFamily(n, members)))
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
    _check_ceiling(n)
    p_threshold = Fraction(p_threshold)
    if not 0 < p_threshold < 1:
        raise DomainError("threshold must lie strictly between 0 and 1")
    rng = generator(seed)
    max_size = int(p_threshold * (1 << n))
    labeled = [(f"sampled #{t}", _sample_family(n, max_size, rng)) for t in range(trials)]
    labeled += adversarial_families(n, max_size, rng)
    families = []
    violations = 0
    for label, fam in labeled:
        inst0 = KeyLemmaInstance(fam, 0)
        r = inst0.r
        profile = containment_profile(fam)
        rows = []
        tight_at = []
        for d, exact in enumerate(profile):
            bound = _tail_fraction(n, r + 1 - d)
            rows.append({"d": d, "exact": exact, "bound": bound})
            if exact > bound:
                violations += 1
            if exact == _tail_fraction(n, r - d):
                tight_at.append(d)
        families.append({"label": label, "n": n, "size": fam.size, "r": r,
                         "rows": rows, "tight_at": tight_at})
    r_max = KeyLemmaInstance(EventFamily(n, frozenset(range(max_size))), 0).r if max_size else -1
    modulus = {}
    for j in range(1, 9):
        target = Fraction(1, 1 << j)
        d_needed = next((d for d in range(n + 2)
                         if _tail_fraction(n, r_max + 1 - d) <= target), None)
        modulus[j] = d_needed
    return {"n": n, "trials": trials, "p_threshold": p_threshold, "seed": seed,
            "violations": violations, "families": families, "modulus": modulus}
