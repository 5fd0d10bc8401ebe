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

import numpy as np

from .bits import _real, read_index
from .cube import binomial_tails, bracket, distances_from, gamma_sizes
from .errors import DomainError
from .rng import Sampler

CONTAINMENT_CEILING = 16
# verify_key_lemma holds one (families, 2^n) complement array and gamma_sizes
# two int8 distance arrays of that shape: 1024 trials at n = 16 peak near 233 MB
# in 2-3 s on 2 cores, and 100 001 ran out of memory
TRIALS_CEILING = 1024


def adversarial_families(n: int, max_size: int, r_max: int,
                         draw: Sampler) -> list[tuple[str, np.ndarray]]:
    """Deterministic stress set as (label, bool mask over the 2^n
    vertices) pairs: balls of radius 0..r_max (the largest radius whose
    ball fits the size cap), coordinate half-spaces / weight cuts, and
    unions of two random balls, all within the size cap."""
    out: list[tuple[str, np.ndarray]] = []
    center2 = draw.below(1 << n)
    for rho in range(r_max + 1):
        for center in (0, center2):
            out.append((f"ball r={rho} c={center}", distances_from(n, center) <= rho))
    half = np.arange(1 << n) % 2 == 0
    if np.count_nonzero(half) <= max_size:
        out.append(("half-space x0=0", half))
    for trial in range(3):
        c1, c2 = draw.below(1 << n), draw.below(1 << n)
        r1, r2 = draw.below(max(1, n // 3)), draw.below(max(1, n // 3))
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
    n = read_index(n, "n", ceiling=CONTAINMENT_CEILING)
    trials = read_index(trials, "trials", ceiling=TRIALS_CEILING)
    p_threshold = _real(p_threshold, "threshold")
    if not 0 < p_threshold < 1:
        raise DomainError("threshold must lie strictly between 0 and 1")
    draw = Sampler(seed)
    max_size = int(p_threshold * (1 << n))
    total = 1 << n
    tails = binomial_tails(n)  # numerators over 2^n; every family here is proper
    r_max = bracket(tails, max_size)
    # one complement row per family, built in place; the draws keep the
    # order seeded reports depend on: per sampled family a size, then its
    # members, and then the stress set (at most 2(r_max+1) balls, a
    # half-space and 3 unions)
    outside = np.ones((trials + 2 * r_max + 6, total), dtype=np.bool_)
    for row in outside[:trials]:
        size = draw.below(max_size + 1)
        if size:
            np.logical_not(draw.subset(n, size), out=row)
    stress = adversarial_families(n, max_size, r_max, draw)
    for row, (_, mask) in zip(outside[trials:], stress):
        np.logical_not(mask, out=row)
    labels = [f"sampled #{t}" for t in range(trials)] + [label for label, _ in stress]
    outside = outside[:len(labels)]
    sizes = total - np.count_nonzero(outside, axis=1)

    # tail(t) = b(n, t), 0 for t < 0, is padded[t + n + 1] for every t
    # the rows read (r - d and r + 1 - d, within -n-1..n); every count
    # and tail is at most 2^16, inside int64
    padded = np.array([0] * (n + 1) + tails, dtype=np.int64)
    brackets = np.array([bracket(tails, s) for s in sizes.tolist()], dtype=np.int64)
    shifted = brackets[:, None] + n + 1 - np.arange(n + 1)  # (families, n+1): r - d + n + 1
    counts = total - gamma_sizes(outside, n)  # a point fails within d of the complement
    bounds = padded[shifted + 1]
    violations = int(np.count_nonzero(counts > bounds))
    is_tight = counts == padded[shifted]
    # one Fraction per distinct numerator; the report rows share them
    over_total = {k: Fraction(k, total) for k in {0, *tails, *counts.ravel().tolist()}}
    families = [
        {"label": label, "n": n, "size": size, "r": r,
         "rows": [{"d": d, "exact": over_total[e], "bound": over_total[b]}
                  for d, (e, b) in enumerate(zip(exact, bound))],
         "tight_at": [d for d, hit in enumerate(tight) if hit]}
        for label, size, r, exact, bound, tight in zip(
            labels, sizes.tolist(), brackets.tolist(), counts.tolist(), bounds.tolist(),
            is_tight.tolist())]
    modulus = {}
    for j in range(1, 9):
        # q_{r_max+1-d} <= 2^-j  <=>  b(n, r_max+1-d) * 2^j <= 2^n
        modulus[j] = next((d for d in range(n + 2) if padded[r_max + n + 2 - d] << j <= total),
                          None)
    return {"n": n, "trials": trials, "p_threshold": p_threshold, "seed": seed,
            "violations": violations, "families": families, "modulus": modulus}


def non_tight_balls(report: dict) -> list[tuple]:
    """The ball families of a verify_key_lemma report, labelled "ball ..." by
    adversarial_families, that are not tight: (n, label) for one that misses a preceding tail at some d, and
    (n, label, "d=0") for one whose d = 0 row is not its size over 2^n. The
    key-lemma verdict is this list empty and no violations; criterion 8 and
    `hamext keylemma` read it."""
    n = report["n"]
    loose = []
    for fam in report["families"]:
        if fam["label"].startswith("ball "):
            if fam["tight_at"] != list(range(n + 1)):
                loose.append((n, fam["label"]))
            if fam["rows"][0]["exact"] != Fraction(fam["size"], 1 << n):
                loose.append((n, fam["label"], "d=0"))
    return loose
