"""The benchmark's workloads: seeded inputs, the timed library calls,
and the untimed independent checks of every result.

Each workload turns (seed, batch index) into a list of operation specs
with nothing but the standard `random` module, so inputs never depend
on the library under test. `run` makes the library calls of one
operation, each inside a span named after the module function it
times; `check` verifies the result and returns (problems, digest
record). Sums, majorities, prefix counts and output distributions are
recomputed here without hamext code; key-lemma reports, harper pairs
and acceptance criteria are held to the verdicts they carry.
"""

from __future__ import annotations

import itertools
import math
import os
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np

from hamext import acceptance, kernels
from hamext.adversary import corrupt, stages_from_blocks, verify_similarity
from hamext.bits import read_packed_bits, write_packed_bits
from hamext.budgets import parse_budget
from hamext.cube import binomial_tail, harper_min_neighborhood, make_sphere
from hamext.extractor import BlockSchedule, extract, make_schedule, similar_p_N
from hamext.keylemma import verify_key_lemma
from hamext.rng import bit_stream
from hamext.stats import (berry_esseen_bound, binomial_cdf_gap, small_ball_bound,
                          small_ball_probability, sparse_subsequence, weber_series)

G_THIRD = parse_budget("power:1/3")
G_HALF = parse_budget("power:1/2")
P_TWO_THIRDS = parse_budget("power:2/3")


class Context:
    """Per-process scratch state: where the packed round trip goes."""

    def __init__(self, scratch: Path):
        scratch.mkdir(parents=True, exist_ok=True)
        self.packed = scratch / f"y-{os.getpid()}.bits"


class Prediction(NamedTuple):
    """Expected share of traced time for the spans named in `keys`
    (a key matches a span name or a module prefix of it)."""

    keys: tuple[str, ...]
    kind: str  # "about": within SHARE_TOLERANCE; "below": under value; "none": no spans
    value: float
    source: str


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    batch: Callable[[int, int], list]
    run: Callable
    check: Callable
    warm: Callable[[Context], None]
    min_batches: int
    predictions: tuple[Prediction, ...]
    # run every batch in a new process, so no library cache carries over
    # from one batch to the next (as with one `hamext suite` per process)
    fresh_process: bool = False


def timed(tr, name, fn, *args, **kwargs):
    with tr.span(name):
        return fn(*args, **kwargs)


def budget(tr, g, n: int) -> int:
    with tr.span("budgets.eval"):
        return g(n)


def _rng(*key) -> random.Random:
    return random.Random("/".join(str(k) for k in key))


def _cycle_pick(items, key, index):
    """items[index] under a seeded permutation, so consecutive indices
    sweep every item once before any repeats."""
    order = list(items)
    _rng(*key).shuffle(order)
    return order[index % len(order)]


# ---------------------------------------------------------------------------
# independent oracles (no hamext code)

def tail_row(n: int) -> list[int]:
    """b(n,0), ..., b(n,n) by the running recurrence C(n,j+1) = C(n,j)(n-j)/(j+1)."""
    row, c, acc = [], 1, 0
    for j in range(n + 1):
        acc += c
        row.append(acc)
        c = c * (n - j) // (j + 1)
    return row


def tail_at(row: list[int], k: int) -> int:
    n = len(row) - 1
    if k < 0:
        return 0
    return row[min(k, n)]


def majority(bits: np.ndarray) -> int:
    return int(2 * int(bits.sum()) > bits.size)


# ---------------------------------------------------------------------------
# corrupt_campaign: the `hamext corrupt` pipeline on fresh Philox streams

CORRUPT_BATCH = 10
CORRUPT_BLOCKS = 4


def corrupt_batch(seed: int, b: int) -> list[int]:
    rng = _rng("corrupt_campaign", seed, b)
    return [rng.getrandbits(64) for _ in range(CORRUPT_BATCH)]


class CorruptResult(NamedTuple):
    sched: BlockSchedule
    X: np.ndarray
    adv: object
    report: object
    out_y: np.ndarray
    out_x: np.ndarray
    verified: bool
    similar: bool
    reread: np.ndarray


def corrupt_run(stream_seed: int, ctx: Context, tr) -> CorruptResult:
    sched = timed(tr, "extractor.make_schedule", make_schedule, G_THIRD, CORRUPT_BLOCKS)
    X = timed(tr, "rng.bit_stream", bit_stream, stream_seed, sched.total_length)
    adv = timed(tr, "adversary.stages_from_blocks", stages_from_blocks, sched, P_TWO_THIRDS)
    report = timed(tr, "adversary.corrupt", corrupt, X, sched, adv)
    out_y = timed(tr, "extractor.extract", extract, report.Y, sched).outputs
    out_x = timed(tr, "extractor.extract", extract, X, sched).outputs
    verified = timed(tr, "adversary.verify_similarity", verify_similarity,
                     report, X, P_TWO_THIRDS, adv.stage_bounds)
    similar = timed(tr, "extractor.similar_p_N", similar_p_N,
                    X, report.Y, P_TWO_THIRDS, adv.stage_bounds, n0=1)
    timed(tr, "bits.write_packed", write_packed_bits, ctx.packed, report.Y)
    reread = timed(tr, "bits.read_packed", read_packed_bits, ctx.packed)
    return CorruptResult(sched, X, adv, report, out_y, out_x, verified, similar, reread)


def corrupt_check(stream_seed: int, res: CorruptResult, tr):
    problems = []
    X, Y, sched, adv, rep = res.X, res.report.Y, res.sched, res.adv, res.report
    for k, (s, e) in enumerate(sched.odd_cores):
        if int(res.out_x[k]) != majority(X[s:e]):
            problems.append(f"extract(X) output {k} disagrees with the direct majority")
    flipped, running, prefix_ok = [], 0, True
    for rec in rep.per_stage:
        a, b = rec.window
        target = adv.targets[rec.stage]
        s, e = sched.odd_cores[target]
        need = max(0, int(X[s:e].sum()) - (e - s) // 2)
        allowed = budget(tr, P_TWO_THIRDS, b - a)
        if any(not a <= i < b for i in rec.flips):
            problems.append(f"stage {rec.stage}: flip outside window [{a},{b})")
        if rec.forced:
            if rec.cost != need or len(rec.flips) != need:
                problems.append(f"stage {rec.stage}: cost {rec.cost}, minimal is {need}")
            if rec.cost > allowed:
                problems.append(f"stage {rec.stage}: cost {rec.cost} over p(window) = {allowed}")
            if int(res.out_y[target]) != 0 or majority(Y[s:e]) != 0:
                problems.append(f"stage {rec.stage}: target {target} does not re-extract to 0")
        elif rec.flips or not rec.budget_exceeded or need <= allowed:
            problems.append(f"stage {rec.stage}: refused although minimal cost {need} <= {allowed}")
        flipped.extend(int(i) for i in rec.flips)
        running += len(rec.flips)
        prefix_ok &= running <= budget(tr, P_TWO_THIRDS, b)
    if np.flatnonzero(X != Y).tolist() != sorted(flipped):
        problems.append("Y differs from X outside the reported flips")
    if not res.verified == res.similar == prefix_ok:
        problems.append(f"similarity verdicts disagree: verify_similarity {res.verified}, "
                        f"similar_p_N {res.similar}, direct {prefix_ok}")
    if not np.array_equal(res.reread, Y):
        problems.append("packed round trip of Y is not equal")
    forced = sum(1 for r in rep.per_stage if r.forced)
    tr.count("adversary.flips", len(flipped))
    tr.count("adversary.stages", len(rep.per_stage))
    tr.count("adversary.forced_stages", forced)
    tr.count("rng.bits", X.size)
    tr.count("extractor.extract.bits", X.size + Y.size)
    tr.count("bits.bytes", 2 * (8 + (Y.size + 7) // 8))
    record = [stream_seed, [[r.stage, [int(i) for i in r.flips], r.cost, r.forced]
                            for r in rep.per_stage], res.verified, res.similar]
    return problems, record


def corrupt_warm(ctx: Context) -> None:
    sched = make_schedule(G_THIRD, 2)
    X = bit_stream(0, sched.total_length)
    adv = stages_from_blocks(sched, P_TWO_THIRDS)
    rep = corrupt(X, sched, adv)
    extract(rep.Y, sched)
    verify_similarity(rep, X, P_TWO_THIRDS, adv.stage_bounds)
    similar_p_N(X, rep.Y, P_TWO_THIRDS, adv.stage_bounds, n0=1)
    write_packed_bits(ctx.packed, rep.Y)
    read_packed_bits(ctx.packed)


# ---------------------------------------------------------------------------
# exact_tails: big-integer binomial sums, one fresh n per query

TAILS_BATCH = 10
TAILS_N = (512, 2048)


class TailQuery(NamedTuple):
    n: int
    k: int
    size: int    # sphere size in [0, 2^(n//8))
    center: str  # sphere center, n//8 bits


def tails_batch(seed: int, b: int) -> list[TailQuery]:
    """One n per stratum of [512, 2048]; batch b takes the b-th value of
    each stratum's seeded permutation, so no n repeats across the first
    ~150 batches while every batch spans the whole range."""
    lo, hi = TAILS_N
    width = hi - lo + 1
    rng = _rng("exact_tails", seed, b)
    out = []
    for j in range(TAILS_BATCH):
        stratum = range(lo + j * width // TAILS_BATCH, lo + (j + 1) * width // TAILS_BATCH)
        n = _cycle_pick(stratum, ("exact_tails", seed, "stratum", j), b)
        root = math.isqrt(n)
        m = n // 8
        out.append(TailQuery(n, n // 2 + rng.randint(-root, root), rng.randrange(1 << m),
                             format(rng.getrandbits(m), f"0{m}b")))
    rng.shuffle(out)
    return out


def tails_run(q: TailQuery, ctx: Context, tr):
    lower = timed(tr, "cube.binomial_tail", binomial_tail, q.n, q.k)
    upper = timed(tr, "cube.binomial_tail", binomial_tail, q.n, q.n - q.k - 1)
    balls = []
    for g in (G_THIRD, G_HALF):
        radius = budget(tr, g, q.n)
        balls.append((radius, timed(tr, "stats.small_ball", small_ball_probability, q.n, radius)))
    gap = timed(tr, "stats.cdf_gap", binomial_cdf_gap, q.n)
    sphere = timed(tr, "cube.make_sphere", make_sphere, q.n // 8, q.size, q.center)
    return lower, upper, balls, gap, sphere


def tails_check(q: TailQuery, res, tr):
    lower, upper, balls, gap, sphere = res
    n, k = q.n, q.k
    problems = []
    row = tail_row(n)
    if lower != row[k] or upper != row[n - k - 1]:
        problems.append(f"b({n},{k}) or b({n},{n - k - 1}) differs from the recurrence")
    if lower + upper != 1 << n:
        problems.append(f"b({n},{k}) + b({n},{n - k - 1}) != 2^{n}")
    terms = 0
    for radius, prob in balls:
        lo = max(0, -(-(n - 2 * radius) // 2))
        hi = min(n, (n + 2 * radius) // 2)
        terms += hi - lo + 1
        if prob != Fraction(tail_at(row, hi) - tail_at(row, lo - 1), 1 << n):
            problems.append(f"small-ball probability at n={n}, g={radius} is not exact")
    if not gap <= 0.71 / math.sqrt(n):
        problems.append(f"CDF gap {gap!r} above 0.71/sqrt({n})")
    m = n // 8
    mrow = tail_row(m)
    r = sphere.inner_radius
    if not (tail_at(mrow, r) <= q.size < tail_at(mrow, r + 1)
            and sphere.shell_count == q.size - tail_at(mrow, r) and sphere.center == q.center):
        problems.append(f"sphere of size {q.size} in dimension {m} is not pinned by radius {r}")
    tr.count("cube.binomial_terms", (k + 1) + (n - k))
    tr.count("stats.small_ball_terms", terms)
    tr.count("stats.cdf_gap_terms", n + 1)
    record = [n, k, hex(lower), hex(upper), [[rad, str(p)] for rad, p in balls],
              gap.hex(), r, sphere.shell_count]
    return problems, record


def tails_warm(ctx: Context) -> None:
    binomial_tail(16, 8)
    small_ball_probability(16, G_THIRD(16))
    small_ball_probability(16, G_HALF(16))
    binomial_cdf_gap(16)
    make_sphere(4, 5, "0101")


# ---------------------------------------------------------------------------
# cube_sweeps: exhaustive enumeration and dilation at small n

KEYLEMMA_TRIALS = 10
KERNEL_BUDGETS2 = np.array([2, 2, 2], dtype=np.int64)  # 2*g with g = 1 flip per block
HARPER_N = 4


class CubeOp(NamedTuple):
    kind: str
    n: int       # cube dimension, or L for kernels
    arg: object  # harper (size, d); gamma (size, center, d); kernels block sizes; keylemma seed


def _partitions3(length: int) -> list[tuple[int, int, int]]:
    return [(a, b, length - a - b) for a in range(3, length)
            for b in range(a, length) if length - a - b >= b]


def cube_batch(seed: int, b: int) -> list[CubeOp]:
    """Nine operations: one harper, two sphere dilations, one sweep per
    L in 14..16 and one key-lemma check per n in 11..13. Every batch has
    the same mix, so the median lands in the key-lemma cluster on every
    seed; harper radii, sphere dimensions and block partitions rotate
    across batches."""
    rng = _rng("cube_sweeps", seed, b)
    d = _cycle_pick(range(HARPER_N + 1), ("cube_sweeps", seed, "harper"), b)
    ops = [CubeOp("harper", HARPER_N, (rng.randint(0, 1 << HARPER_N), d))]
    for i in range(2):
        n = _cycle_pick(range(10, 15), ("cube_sweeps", seed, "gamma"), 2 * b + i)
        ops.append(CubeOp("gamma", n, (rng.randrange(1, 1 << n),
                                       format(rng.getrandbits(n), f"0{n}b"), rng.randint(1, 3))))
    for length in (14, 15, 16):
        ops.append(CubeOp("kernels", length, _cycle_pick(
            _partitions3(length), ("cube_sweeps", seed, "partitions", length), b)))
    for n in (11, 12, 13):
        ops.append(CubeOp("keylemma", n, rng.getrandbits(64)))
    rng.shuffle(ops)
    return ops


def _kernel_inputs(sizes):
    sched = BlockSchedule.from_sizes(sizes)
    cores = np.array([(1 << e) - (1 << s) for s, e in sched.odd_cores], dtype=np.uint64)
    core_sizes = np.array([e - s for s, e in sched.odd_cores], dtype=np.int64)
    per_block = [[0] + [1 << i for i in range(s, e)] for s, e in sched.blocks]
    patterns = np.array([a | b | c for a, b, c in itertools.product(*per_block)],
                        dtype=np.uint64)
    return cores, core_sizes, patterns


def cube_run(op: CubeOp, ctx: Context, tr):
    if op.kind == "harper":
        size, d = op.arg
        return timed(tr, "cube.harper", harper_min_neighborhood, op.n, size, d)
    if op.kind == "gamma":
        size, center, d = op.arg
        sphere = timed(tr, "cube.make_sphere", make_sphere, op.n, size, center)
        return sphere, timed(tr, "cube.gamma_size", sphere.gamma_size, d)
    if op.kind == "kernels":
        cores, core_sizes, patterns = _kernel_inputs(op.arg)
        bad = timed(tr, "kernels.robustness", kernels.robustness_violations,
                    cores, core_sizes, KERNEL_BUDGETS2, patterns, op.n)
        words = timed(tr, "kernels.all_outputs", kernels.all_outputs, cores, core_sizes, op.n)
        return patterns.size, int(bad), words
    return timed(tr, "keylemma.verify", verify_key_lemma,
                 op.n, KEYLEMMA_TRIALS, Fraction(1, 2), op.arg)


def cube_check(op: CubeOp, res, tr):
    problems = []
    n = op.n
    if op.kind == "harper":
        size, d = op.arg
        exhaustive, sphere_value = res
        if exhaustive != sphere_value:
            problems.append(f"harper n={n} size={size} d={d}: min {exhaustive} != sphere {sphere_value}")
        return problems, [op.kind, size, d, exhaustive, sphere_value]
    if op.kind == "gamma":
        size, center, d = op.arg
        sphere, gamma = res
        row = tail_row(n)
        r = sphere.inner_radius
        if not tail_at(row, r) <= size < tail_at(row, r + 1) or sphere.center != center:
            problems.append(f"sphere n={n} size={size} is not pinned by radius {r}")
        # B(r) <= S <= B(r+1) around the center, so B(r+d) <= Gamma_d(S) <= B(r+1+d)
        if not tail_at(row, r + d) <= gamma <= tail_at(row, r + 1 + d):
            problems.append(f"gamma_{d} = {gamma} outside the ball bounds at n={n}, r={r}")
        if sphere.shell_count == 0 and gamma != tail_at(row, r + d):
            problems.append(f"gamma_{d} of a full ball is {gamma}, not b({n},{r + d})")
        return problems, [op.kind, n, size, center, d, r, sphere.shell_count, gamma]
    if op.kind == "kernels":
        npatterns, bad, words = res
        blocks = len(op.arg)
        if bad != 0:
            problems.append(f"{bad} robustness violations for blocks {op.arg}")
        counts = np.bincount(words, minlength=1 << blocks).tolist()
        if counts != [(1 << n) >> blocks] * (1 << blocks):
            problems.append(f"output words over all 2^{n} inputs are not uniform: {counts}")
        tr.count("kernels.robustness.elements", (1 << n) * npatterns * blocks)
        tr.count("kernels.all_outputs.elements", (1 << n) * blocks)
        return problems, [op.kind, list(op.arg), bad, counts]
    rep = res
    rows_bad = sum(1 for fam in rep["families"] for row in fam["rows"]
                   if row["exact"] > row["bound"])
    if rep["violations"] != 0 or rows_bad:
        problems.append(f"key lemma n={n}: {rep['violations']} violations, {rows_bad} rows over bound")
    for fam in rep["families"]:
        if fam["label"].startswith("ball ") and (
                fam["tight_at"] != list(range(n + 1))
                or fam["rows"][0]["exact"] != Fraction(fam["size"], 1 << n)):
            problems.append(f"key lemma n={n}: ball family {fam['label']} is not tight")
    tr.count("keylemma.families", len(rep["families"]))
    record = [op.kind, n, op.arg, rep["violations"],
              [[fam["label"], fam["size"], fam["r"], fam["tight_at"],
                [str(row["exact"]) for row in fam["rows"]]] for fam in rep["families"]],
              sorted(rep["modulus"].items())]
    return problems, record


def cube_warm(ctx: Context) -> None:
    verify_key_lemma(4, 1, Fraction(1, 2), 0)
    cores, core_sizes, patterns = _kernel_inputs((1, 1, 1))
    kernels.robustness_violations(cores, core_sizes, KERNEL_BUDGETS2, patterns, 3)
    kernels.all_outputs(cores, core_sizes, 3)
    make_sphere(4, 5, "0101").gamma_size(1)
    for d in range(HARPER_N + 1):  # fills the process-level exhaustive-minimum cache
        harper_min_neighborhood(HARPER_N, 0, d)


# ---------------------------------------------------------------------------
# suite: the ten acceptance criteria in order (their seeds are pinned)

def suite_batch(seed: int, b: int) -> list[int]:
    return list(range(len(acceptance.ALL_CRITERIA)))


def suite_run(index: int, ctx: Context, tr):
    return timed(tr, f"acceptance.crit{index + 1:02d}", acceptance.ALL_CRITERIA[index])


def suite_check(index: int, res, tr):
    problems = [] if res.passed else [f"criterion {res.number} failed: {res.detail}"]
    return problems, [res.number, res.passed, res.detail]


def suite_warm(ctx: Context) -> None:
    corrupt_warm(ctx)
    tails_warm(ctx)
    cube_warm(ctx)
    for n in (2, 3):
        for d in range(n + 1):
            harper_min_neighborhood(n, 0, d)
    berry_esseen_bound(16)
    small_ball_bound(16, 3)
    weber_series(sparse_subsequence(lambda k: math.log(math.log(max(k, 16))), 4).nu, 4)


# ---------------------------------------------------------------------------

_PROTOTYPE = "profile of a prototype on the seed commit, made before this benchmark"
_ROADMAP = "ROADMAP baseline: criteria 3 and 4 rebuild 100 corruptions each"

WORKLOADS = {w.name: w for w in (
    Workload(
        "corrupt_campaign",
        "the adversary's hot path: corrupt, re-extract, verify and packed round trip per stream",
        corrupt_batch, corrupt_run, corrupt_check, corrupt_warm, 10,
        (Prediction(("adversary.corrupt",), "about", 0.92, _PROTOTYPE),
         Prediction(("rng",), "below", 0.01, _PROTOTYPE),
         Prediction(("cube", "stats", "kernels", "keylemma"), "none", 0.0, "not called"))),
    Workload(
        "exact_tails",
        "exact big-integer sums with a fresh n per query, so a per-row speed-up shows and a cache does not",
        tails_batch, tails_run, tails_check, tails_warm, 10,
        (Prediction(("cube.binomial_tail",), "about", 0.79, _PROTOTYPE),
         Prediction(("stats.small_ball",), "about", 0.13, _PROTOTYPE),
         Prediction(("stats.cdf_gap",), "about", 0.03, _PROTOTYPE),
         Prediction(("adversary", "rng", "kernels"), "none", 0.0, "not called"))),
    Workload(
        "cube_sweeps",
        "the enumeration path: robustness and output sweeps, key lemma, dilation and harper at small n",
        cube_batch, cube_run, cube_check, cube_warm, 12,
        (Prediction(("kernels.robustness",), "about", 0.65, _PROTOTYPE),
         Prediction(("keylemma.verify",), "about", 0.33, _PROTOTYPE),
         Prediction(("adversary", "rng", "stats"), "none", 0.0, "not called"))),
    Workload(
        "suite",
        "the ten acceptance criteria in order, the only workload that measures the acceptance layer",
        suite_batch, suite_run, suite_check, suite_warm, 2,
        (Prediction(("acceptance.crit03", "acceptance.crit04"), "about", 0.85, _ROADMAP),),
        fresh_process=True),
)}
