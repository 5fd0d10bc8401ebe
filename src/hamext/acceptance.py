"""End-to-end verification suite.

Each criterion is a standalone runner returning a CriterionResult, so
pytest and the CLI ``suite`` subcommand share one implementation. All
randomized criteria fix their Philox seeds, making every verdict
deterministic; the two statistical smoke checks (4 and 10) are
calibrated plausibility bounds, not theorems.
"""

from __future__ import annotations

import functools
import time
from fractions import Fraction
from itertools import pairwise
from typing import Callable, NamedTuple

import numpy as np

from . import kernels
from .adversary import StageRecord, corrupt, stages_from_blocks, verify_similarity
from .budgets import lnln, parse_budget
from .cube import harper_min_neighborhood
from .extractor import BlockSchedule, extract, make_schedule
from .keylemma import verify_key_lemma
from .rng import bit_stream
from .stats import (berry_esseen_bound, binomial_cdf_gap, small_ball_bound,
                    small_ball_probability, sparse_subsequence, weber_series)


class CriterionResult(NamedTuple):
    number: int
    name: str
    passed: bool
    detail: str
    elapsed: float


def _result(number: int, name: str, started: float, passed: bool, detail: str) -> CriterionResult:
    return CriterionResult(number, name, passed, detail, time.perf_counter() - started)


def crit_distribution_preservation() -> CriterionResult:
    """Blocks (3,5): over all 2^8 inputs each output bit is 1 exactly
    128 times and each output pair occurs exactly 64 times."""
    t0 = time.perf_counter()
    sched = BlockSchedule.from_sizes((3, 5))
    cores = np.array([(1 << e) - (1 << s) for s, e in sched.odd_cores], dtype=np.uint64)
    sizes = np.array([e - s for s, e in sched.odd_cores], dtype=np.int64)
    words = kernels.all_outputs(cores, sizes, 8)
    bit_counts = [int(((words >> k) & 1).sum()) for k in range(2)]
    pair_counts = np.bincount(words, minlength=4)
    ok = bit_counts == [128, 128] and all(int(c) == 64 for c in pair_counts)
    return _result(1, "distribution preservation (exhaustive, blocks 3+5)", t0, ok,
                   f"bit ones {bit_counts}, pair counts {pair_counts.tolist()}")


def crit_extractor_robustness() -> CriterionResult:
    """Blocks (3,5,6), all 2^14 inputs, all flip patterns with at most
    one flip per block: outputs agree wherever the margin exceeds 1."""
    t0 = time.perf_counter()
    sched = BlockSchedule.from_sizes((3, 5, 6))
    cores = np.array([(1 << e) - (1 << s) for s, e in sched.odd_cores], dtype=np.uint64)
    core_sizes = np.array([e - s for s, e in sched.odd_cores], dtype=np.int64)
    budgets2 = np.array([2, 2, 2], dtype=np.int64)  # 2*g with g == 1
    per_block = [[0] + [1 << i for i in range(s, e)] for s, e in sched.blocks]
    patterns = np.array([a | b | c for a in per_block[0] for b in per_block[1]
                         for c in per_block[2]], dtype=np.uint64)
    bad = int(kernels.robustness_violations(cores, core_sizes, budgets2, patterns, 14))
    return _result(2, "extractor robustness (exhaustive, L=14, g=1)", t0, bad == 0,
                   f"{patterns.size} patterns x 16384 inputs, {bad} violations")


class _AdversaryRun(NamedTuple):
    """What criteria 3 and 4 read of one seeded corruption; X and Y are
    dropped once the seed is done."""

    seed: int
    per_stage: tuple[StageRecord, ...]
    prefix_ok: bool  # budget_ok and the independent verify_similarity check
    corrupted_targets: tuple[int, ...]
    clean_targets: tuple[int, ...]


@functools.cache
def _adversary_runs():
    """The 100 seeded corruptions, built once per process and shared by
    criteria 3 and 4 (the seed range is fixed)."""
    g = parse_budget("power:1/3")
    p = parse_budget("power:2/3")
    sched = make_schedule(g, 4)
    adv = stages_from_blocks(sched, p)
    targets = list(adv.targets)
    runs = []
    for seed in range(1, 101):
        X = bit_stream(seed, sched.total_length)
        rep = corrupt(X, sched, adv)
        runs.append(_AdversaryRun(
            seed, tuple(rep.per_stage),
            rep.budget_ok and verify_similarity(rep, X, p, adv.stage_bounds),
            tuple(extract(rep.Y, sched).outputs[targets].tolist()),
            tuple(extract(X, sched).outputs[targets].tolist())))
    return sched, adv, p, tuple(runs)


def crit_adversary_soundness() -> CriterionResult:
    """100 seeded runs, p = ceil(n^(2/3)), 4 generated stages: every
    target re-extracts to 0, per-stage and cumulative costs within
    budget, independent similarity check agrees."""
    t0 = time.perf_counter()
    sched, adv, p, runs = _adversary_runs()
    failures = []
    worst = [0] * adv.stage_count
    for run in runs:
        seed = run.seed
        for rec in run.per_stage:
            a, b = rec.window
            worst[rec.stage] = max(worst[rec.stage], rec.cost)
            if not rec.forced or rec.cost > p(b - a):
                failures.append(f"seed {seed} stage {rec.stage} unforced/overranged")
            if any(not a <= i < b for i in rec.flips):
                failures.append(f"seed {seed} stage {rec.stage} flip outside window")
        if any(run.corrupted_targets):
            failures.append(f"seed {seed}: targeted output not 0 after re-extraction")
        if not run.prefix_ok:
            failures.append(f"seed {seed}: prefix budget violated")
    detail = (f"blocks {sched.sizes}, worst per-stage costs {worst} vs budgets "
              f"{[p(b - a) for s in range(adv.stage_count) for a, b in [adv.window(s)]]}")
    if failures:
        detail += "; " + "; ".join(failures[:4])
    return _result(3, "adversary soundness and budget (100 seeds)", t0, not failures, detail)


def crit_output_bias() -> CriterionResult:
    """Targeted outputs of the corrupted stream are all-zero; the same
    outputs on the uncorrupted stream average 0.5 +- 0.15 over seeds."""
    t0 = time.perf_counter()
    _, _, _, runs = _adversary_runs()
    corrupted_ones = sum(sum(run.corrupted_targets) for run in runs)
    clean_ones = sum(sum(run.clean_targets) for run in runs)
    total = sum(len(run.clean_targets) for run in runs)
    clean_freq = clean_ones / total
    ok = corrupted_ones == 0 and 0.35 <= clean_freq <= 0.65
    return _result(4, "output bias at targeted positions", t0, ok,
                   f"corrupted frequency {corrupted_ones}/{total}, clean frequency {clean_freq:.4f}")


def crit_harper_exhaustive() -> CriterionResult:
    """n in {2,3,4}, every size and radius: exhaustive minimum equals
    the canonical-sphere neighborhood size."""
    t0 = time.perf_counter()
    mismatches = []
    checked = 0
    for n in (2, 3, 4):
        for size in range((1 << n) + 1):
            for d in range(n + 1):
                mn, sph = harper_min_neighborhood(n, size, d)
                checked += 1
                if mn != sph:
                    mismatches.append((n, size, d, mn, sph))
    return _result(5, "isoperimetric minimum vs canonical sphere (n<=4)", t0,
                   not mismatches, f"{checked} cases, mismatches: {mismatches[:4]}")


def crit_clt_gap() -> CriterionResult:
    """Exact binomial-vs-normal lattice gap within 0.71/sqrt(n)."""
    t0 = time.perf_counter()
    rows = []
    ok = True
    for n in (10, 100, 1000, 10000):
        gap, bound = binomial_cdf_gap(n), berry_esseen_bound(n)
        ok &= gap <= bound
        rows.append(f"n={n}: {gap:.6f} <= {bound:.6f}")
    return _result(6, "CLT gap vs explicit constant", t0, ok, "; ".join(rows))


def crit_small_ball() -> CriterionResult:
    """Exact P(|S_n| <= ceil(n^(1/3))) within its explicit envelope for
    n = 16..4096 (powers of two)."""
    t0 = time.perf_counter()
    g = parse_budget("power:1/3")
    bad = []
    for e in range(4, 13):
        n = 1 << e
        exact = small_ball_probability(n, g(n))
        bound = small_ball_bound(n, g(n))
        if float(exact) > bound:
            bad.append(n)
    return _result(7, "small-ball probability envelope", t0, not bad,
                   f"n in 16..4096, violations: {bad}")


def crit_key_lemma() -> CriterionResult:
    """n = 4..12, 200 sampled families under P(E) <= 1/2 plus the
    deterministic stress set: containment <= shifted tail at every d,
    and ball families attain every preceding tail exactly."""
    t0 = time.perf_counter()
    violations = 0
    loose_balls = []
    for n in range(4, 13):
        rep = verify_key_lemma(n, trials=200, p_threshold=Fraction(1, 2), seed=1000 + n)
        violations += rep["violations"]
        for fam in rep["families"]:
            if fam["label"].startswith("ball "):
                if fam["tight_at"] != list(range(n + 1)):
                    loose_balls.append((n, fam["label"]))
                exact0 = fam["rows"][0]["exact"]
                if exact0 != Fraction(fam["size"], 1 << n):
                    loose_balls.append((n, fam["label"], "d=0"))
    ok = violations == 0 and not loose_balls
    return _result(8, "key inequality: ball containment vs shifted tail", t0, ok,
                   f"violations {violations}, non-tight ball families {loose_balls[:3]}")


def crit_weber() -> CriterionResult:
    """The sparse construction re-verifies against its target rate for
    every k <= 2^20, and the naturals hit every dyadic block."""
    t0 = time.perf_counter()
    nu, threshold = sparse_subsequence(lnln, 20)
    series = weber_series(nu, 20)
    ok = True
    for m in range(1, 21):
        low = (1 << (m - 1)) + 1
        if low > threshold and series.log_rate(low) > lnln(low):
            ok = False  # rate is constant per block and lnln nondecreasing
    for k in (2, 3, 100, 12345, 1 << 19, 1 << 20):
        if k > threshold and series.log_rate(k) > lnln(k):
            ok = False
    naturals = weber_series(range(1, (1 << 20) + 1), 20)
    ok &= naturals.p_counts == list(range(1, 21))
    return _result(9, "dyadic hit-rate construction (k <= 2^20)", t0, ok,
                   f"|nu| = {len(nu)}, threshold {threshold}, naturals p_n = n: "
                   f"{naturals.p_counts == list(range(1, 21))}")


def crit_lil_smoke() -> CriterionResult:
    """64 Philox streams of 2^20 bits: the max over dyadic checkpoints
    of |2*ones(n) - n| / sqrt(2 n lnln n) lands in [0.5, 1.6] for at
    least 60 seeds. Calibrated smoke bound for the limsup-1 law of the
    unit-variance walk, not a theorem."""
    t0 = time.perf_counter()
    length = 1 << 20
    cps = [1 << j for j in range(4, 21)]
    segments = list(pairwise([0, *cps]))  # [0, 16), [16, 32), ..., [2^19, length)
    denom = np.sqrt([2.0 * n * lnln(n) for n in cps])
    in_range = 0
    maxima = []
    for seed in range(64):
        x = bit_stream(seed, length)
        ones = np.cumsum([np.count_nonzero(x[a:b]) for a, b in segments])
        walk = 2.0 * ones - cps
        m = float(np.max(np.abs(walk) / denom))
        maxima.append(m)
        if 0.5 <= m <= 1.6:
            in_range += 1
    return _result(10, "iterated-logarithm smoke bound (64 streams)", t0, in_range >= 60,
                   f"{in_range}/64 maxima in [0.5, 1.6] (min {min(maxima):.3f}, max {max(maxima):.3f})")


ALL_CRITERIA: tuple[Callable[[], CriterionResult], ...] = (
    crit_distribution_preservation,
    crit_extractor_robustness,
    crit_adversary_soundness,
    crit_output_bias,
    crit_harper_exhaustive,
    crit_clt_gap,
    crit_small_ball,
    crit_key_lemma,
    crit_weber,
    crit_lil_smoke,
)

