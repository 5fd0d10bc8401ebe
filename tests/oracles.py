"""Reference implementations that tests compare the package against.

None of these is read by the package, its command or its benchmark, so
none is exported; each stays here because a test holds a function of the
package to it, or needs it to set up an input. A reference takes only
well-formed input, in the form its comparisons pass: it checks no
argument, and the package's own entry points are where refusals are
tested.

Each finite claim has one reference, defined here and nowhere else in
tests/ (tests/test_rng.py guards this):

* binomial tails b(n, t): binomial_row(n), the row t = 0..n by the
  running recurrence (tied to math.comb once, at n <= 300), read by
  row_tail(row, t) at any t and row_bracket(row, size);
* cube distance and balls, on vertex masks (position i at bit i):
  distance_oracle, gamma_oracle (Γ_d of a set; a ball for one member)
  and ball_masks; vertex_text is the one mask-to-string helper;
* the exhaustive isoperimetric minimum: harper_min_oracle;
* the majority vote: margin and vote, on a word and a core mask; the
  cheapest flips that force it to 0: flips_oracle; the robustness
  kernel's count of vote-moving patterns: robustness_oracle;
* the Philox 4x64-10 stream (Random123 constants; Salmon et al., SC
  2011): philox_block, philox_words, philox_bits, and OracleSampler,
  rng.Sampler's two draws;
* the CDF gap: cdf_gap_oracle, every point of the row scanned; the
  small-ball probability: enumeration_oracle, every word of length n;
  the iterated-log series of a stream: psi_oracle;
* the forcing adversary against a black-box reduction:
  force_output_zero_generic, exhaustive over the whole input
  (adversary.force_majority_zero is its closed form for majority);
* a budget's value, the ceiling of its exact rational value: ceil_oracle;
* make_schedule's constraints: check_schedule; the block-similarity
  relation: similar_g_phi; the key lemma's containment counts:
  contained_counts_oracle, and as probabilities profile_oracle;
* a key-lemma or corruption report's derived numbers, recomputed from
  its own fields and its input: check_keylemma_report,
  check_corrupt_report; an extract, harper, clt-check, smallball, lil or
  weber report and its CSV side table: check_tabled_report; a select
  --rule evens report: check_select_report;
* iterated majority refinement on lists: refinement_oracle, which
  check_trace_refine_report reads;
* the text format the command reads: write_text_bits.
"""

import math
from bisect import bisect_left
from fractions import Fraction
from functools import reduce
from itertools import accumulate, combinations, count, islice, product
from operator import or_
from typing import NamedTuple

import numpy as np

from hamext.bits import as_bits, to_text
from hamext.budgets import BudgetFunction, lil_envelope, lil_scale, lnln
from hamext.extractor import BlockSchedule
from hamext.stats import normal_cdf


def binomial_row(n: int) -> list[int]:
    """b(n, t) for t = 0..n, each C(n, i + 1) from C(n, i): a math.comb per
    term took 76 s for n = 20 000 on 2 cores, the recurrence 0.16 s."""
    row, total, coeff = [], 0, 1
    for i in range(n + 1):
        total += coeff
        row.append(total)
        coeff = coeff * (n - i) // (i + 1)
    return row


def row_tail(row: list[int], t: int) -> int:
    """b(n, t) at any integer t: 0 below 0, 2^n past n."""
    return 0 if t < 0 else row[min(t, len(row) - 1)]


def row_bracket(row: list[int], size: int) -> int:
    """The largest r in -1..n with b(n, r) <= size."""
    return max(r for r in range(-1, len(row)) if row_tail(row, r) <= size)


def distance_oracle(members, n: int) -> list[int]:
    """d(v, A) for each vertex v of the n-cube, n + 1 for an empty A."""
    return [min(((v ^ u).bit_count() for u in members), default=n + 1) for v in range(1 << n)]


def gamma_oracle(members, n: int, d: int) -> set[int]:
    """Γ_d(A): the vertices within distance d of A (none for d < 0)."""
    return {v for v, dist in enumerate(distance_oracle(members, n)) if dist <= d}


def ball_masks(n: int, d: int) -> list[int]:
    """Each vertex's radius-d ball as a mask of vertices: bit w for w."""
    return [sum(1 << w for w in gamma_oracle({v}, n, d)) for v in range(1 << n)]


def vertex_text(v: int, n: int) -> str:
    """The vertex mask v as a bit string, position i = bit i."""
    return "".join("1" if (v >> i) & 1 else "0" for i in range(n))


def harper_min_oracle(n: int, d: int) -> list[int]:
    """min |Γ_d(A)| over every A of each size 0..2^n: a union of balls."""
    balls = ball_masks(n, d)
    return [min(reduce(or_, subset, 0).bit_count() for subset in combinations(balls, size))
            for size in range(len(balls) + 1)]


def margin(word: int, core: int) -> int:
    """Ones minus zeros of the mask `word` on the positions of `core`."""
    return 2 * (word & core).bit_count() - core.bit_count()


def vote(word: int, core: int) -> int:
    """The majority of `word` on `core`; a tie on an even core reads 0."""
    return int(margin(word, core) > 0)


def flips_oracle(x: np.ndarray, core) -> list[int]:
    """Canonical cheapest flips: the lowest-indexed ones of the core,
    as many as the vote is over half."""
    core = sorted(int(i) for i in core)
    ones = [i for i in core if x[i]]
    return ones[:max(0, len(ones) - len(core) // 2)]


def robustness_oracle(cores, budgets2, patterns, length):
    """Per core, each input whose margin is past its budget and each
    pattern that moves the core's vote on it."""
    bad = 0
    for core, budget2 in zip(cores, budgets2):
        votes = [vote(x, core) for x in range(1 << length)]
        bad += sum(votes[x ^ p] != votes[x] for x in range(1 << length)
                   if abs(margin(x, core)) > budget2 for p in patterns)
    return bad


MASK = (1 << 64) - 1
MULTIPLIERS = (0xD2E7470EE14C6C93, 0xCA5A826395121157)
WEYL = (0x9E3779B97F4A7C15, 0xBB67AE8584CAA73B)


def philox_block(counter: int, key: tuple[int, int]) -> list[int]:
    """The four output words of the 256-bit counter under the 128-bit key."""
    x = [(counter >> (64 * i)) & MASK for i in range(4)]
    k0, k1 = key
    for _ in range(10):
        p0, p1 = MULTIPLIERS[0] * x[0], MULTIPLIERS[1] * x[2]
        x = [(p1 >> 64) ^ x[1] ^ k0, p1 & MASK, (p0 >> 64) ^ x[3] ^ k1, p0 & MASK]
        k0, k1 = (k0 + WEYL[0]) & MASK, (k1 + WEYL[1]) & MASK
    return x


def philox_words(seed: int, first_counter: int = 1):
    """Each block's four words in order, block by block from first_counter."""
    for counter in count(first_counter):
        yield from philox_block(counter, (seed, 0))


def philox_bits(seed: int, length: int, first_counter: int = 1) -> list[int]:
    """The first `length` bits: words in counter order, each little-endian."""
    words = list(islice(philox_words(seed, first_counter), -(-length // 64)))
    return [(words[i // 64] >> (i % 64)) & 1 for i in range(length)]


class OracleSampler:
    """Sampler's two draws, spelled out over philox_words."""

    def __init__(self, seed: int):
        self.words = philox_words(seed)

    def below(self, m: int) -> int:
        limit = (1 << 64) - (1 << 64) % m
        while (w := next(self.words)) >= limit:
            pass
        return w % m

    def subset(self, n: int, k: int) -> set[int]:
        keys = sorted(next(self.words) >> n << n | v for v in range(1 << n))
        return {key % (1 << n) for key in keys[:k]}


def cdf_gap_oracle(n: int) -> float:
    """max over j = 0..n of |b(n, j)/2^n - Φ((j - n/2)·2/√n)|, each gap as
    binomial_cdf_gap computes it, whose walk may skip only points that
    cannot move the maximum."""
    denom, scale, half = 1 << n, 2.0 / math.sqrt(n), n / 2.0
    return max(abs(b / denom - normal_cdf((j - half) * scale))
               for j, b in enumerate(binomial_row(n)))


def psi_oracle(x, epsilon=0.0):
    """psi_deviation from a full prefix count: (n, statistic, within) at
    n = 16, 32, ... up to len(x), or at len(x) alone below 16 bits."""
    ones = np.concatenate(([0], np.cumsum(x, dtype=np.int64))).tolist()
    ns = [n for n in (1 << j for j in range(4, 64)) if n <= x.size] or [x.size]
    return [(n, (ones[n] - n / 2.0) / lil_scale(n), ones[n] <= lil_envelope(n, epsilon))
            for n in ns]


def enumeration_oracle(n, g):
    """P(|ones - n/2| <= g) for a uniform word of n bits, every word counted."""
    hits = 0
    for bits in product((0, 1), repeat=n):
        if abs(sum(bits) - n / 2) <= g:
            hits += 1
    return Fraction(hits, 1 << n)


class ForceResult(NamedTuple):
    flips: list[int]
    cost: int
    forced: bool


def force_output_zero_generic(X, evaluate) -> ForceResult:
    """Minimal-cost flips of X driving a black-box output to 0.

    Candidates are searched in increasing flip count (lowest flip
    indices first within a count), so the returned assignment is the
    canonical minimal one. forced=False when no assignment works (X is
    then left as it is: "make no further changes"). For a majority
    reduction, force_majority_zero gives the same answer in closed form.
    """
    tau = as_bits(X).copy()
    for cost in range(tau.size + 1):
        for combo in combinations(range(tau.size), cost):
            flips = list(combo)
            tau[flips] ^= 1
            hit = evaluate(tau) == 0
            tau[flips] ^= 1
            if hit:
                return ForceResult(flips, cost, True)
    return ForceResult([], 0, False)


def ceil_oracle(value: Fraction) -> int:
    """The least integer at or above the rational `value`."""
    return -(-value.numerator // value.denominator)


def check_schedule(schedule: BlockSchedule, g: BudgetFunction) -> list[str]:
    """Independent re-check of make_schedule's superadditivity and decay
    constraints (BlockSchedule itself refuses gaps, empty and shrinking
    blocks); returns the violations (empty means admissible)."""
    bad = []
    running = 0
    for k, n in enumerate(schedule.sizes):
        if n < running:
            bad.append(f"block {k} smaller than sum of earlier blocks")
        running += n
        if g(n) ** 2 * (1 << (2 * k)) > n:
            bad.append(f"block {k}: g(n_k)/sqrt(n_k) exceeds 2^-{k}")
    return bad


def similar_g_phi(X, Y, g: BudgetFunction, schedule: BlockSchedule) -> bool:
    """Per-block disagreement counts all within g of the block size."""
    diff = as_bits(X) != as_bits(Y)
    return all(int(diff[s:e].sum()) <= g(e - s) for s, e in schedule.blocks)


def contained_counts_oracle(families, n: int) -> list[list[int]]:
    """Brute force: per family (a set of vertices) and d, the points whose
    radius-d ball is made of members only."""
    balls = [[gamma_oracle({x}, n, d) for x in range(1 << n)] for d in range(n + 1)]
    return [[sum(ball <= members for ball in balls[d]) for d in range(n + 1)]
            for members in families]


def profile_oracle(n: int, members) -> list[Fraction]:
    """P(ball_d(X) ⊆ E) for d = 0..n, for the event E of the vertex masks
    `members`, by brute force."""
    [counts] = contained_counts_oracle([members], n)
    return [Fraction(c, 1 << n) for c in counts]


def check_keylemma_report(report: dict) -> None:
    """Recompute every derived number of a key-lemma report from its own
    n, threshold, sizes and exact rows, with b(n, t) read from
    binomial_row."""
    n, total = report["n"], 1 << report["n"]
    tails = binomial_row(n)
    violations = 0
    for fam in report["families"]:
        r = row_bracket(tails, fam["size"])
        assert fam["r"] == r
        assert [row["d"] for row in fam["rows"]] == list(range(n + 1))
        assert [row["bound"] for row in fam["rows"]] == [
            Fraction(row_tail(tails, r + 1 - d), total) for d in range(n + 1)]
        assert fam["tight_at"] == [
            row["d"] for row in fam["rows"]
            if row["exact"] == Fraction(row_tail(tails, r - row["d"]), total)]
        violations += sum(row["exact"] > row["bound"] for row in fam["rows"])
    assert report["violations"] == violations
    r_max = row_bracket(tails, int(report["p_threshold"] * total))
    assert report["modulus"] == {
        j: next((d for d in range(n + 2) if row_tail(tails, r_max + 1 - d) * 2**j <= total), None)
        for j in range(1, 9)}


def check_corrupt_report(report: dict, packed_y: bytes) -> None:
    """Recompute a `hamext corrupt --seed s` report, every block a target
    at the default budget p(n) = ceil(n^(2/3)), from its own fields, the
    Philox stream X of its seed and its packed Y (an 8-byte little-endian
    bit count, then the bits, position i at bit i of the payload as one
    little-endian integer): Y is X with exactly the listed flips, each
    inside its stage's window; each cost is its flip count, within p of
    the window; and the cumulative costs, budget_ok, similarity_verified
    (prefix counts at the stage bounds) and targets_rezero (the vote on
    each target's core of Y) follow."""
    blocks = [tuple(map(int, line.split())) for line in report["schedule"].splitlines()]
    assert [k for k, *_ in blocks] == list(range(len(blocks)))
    length = blocks[-1][2]
    x = int("".join(map(str, reversed(philox_bits(int(report["config"]["seed"]), length)))), 2)
    assert int.from_bytes(packed_y[:8], "little") == length
    assert len(packed_y) == 8 + -(-length // 8)
    y = int.from_bytes(packed_y[8:], "little")
    assert y >> length == 0

    def p(n):  # ceil(n^(2/3)): the least c with c^3 >= n^2
        return bisect_left(range(n + 1), n * n, key=lambda c: c ** 3)

    stages = report["stages"]
    assert report["stage_bounds"] == [0, *(end for _, _, end, _ in blocks)]
    assert [(s["s"], s["window"]) for s in stages] == [(k, [a, b]) for k, a, b, _ in blocks]
    flips = [i for s in stages for i in s["flips"]]
    assert len(set(flips)) == len(flips) and x ^ y == sum(1 << i for i in flips)
    for s in stages:
        a, b = s["window"]
        assert s["forced"] and not s["budget_exceeded"]
        assert all(a <= i < b for i in s["flips"])
        assert s["cost"] == len(s["flips"]) <= p(b - a)
    assert report["cumulative"] == list(accumulate(s["cost"] for s in stages))
    assert report["budget_ok"] == all(c <= p(s["window"][1])
                                      for c, s in zip(report["cumulative"], stages))
    assert report["similarity_verified"] == all(
        ((x ^ y) & ((1 << n) - 1)).bit_count() <= p(n) for n in report["stage_bounds"])
    assert report["targets_rezero"] == [vote(y, (1 << e) - (1 << a)) == 0
                                        for _, a, _, e in blocks]


def check_table(table: str, header: list[str], rows) -> None:
    """A report's CSV side table: its header, then one line per row of the
    report, each cell the str() of that row's value."""
    assert [line.split(",") for line in table.splitlines()] == [
        header, *([str(value) for value in row] for row in rows)]


def check_harper_report(report: dict, table: str) -> None:
    """Recompute a `hamext harper` report from its own n: a row per size
    and radius, each min harper_min_oracle's exhaustive minimum, each
    sphere value that minimum (Harper's theorem), and all_equal from the
    rows; its table holds (n, size, d, min, sphere) of each row."""
    n, rows = report["n"], report["rows"]
    check_table(table, ["n", "size", "d", "exhaustive_min", "sphere_value"],
                [(n, row["size"], row["d"], row["min"], row["sphere"]) for row in rows])
    assert [(row["size"], row["d"]) for row in rows] == [
        (size, d) for size in range((1 << n) + 1) for d in range(n + 1)]
    mins = [harper_min_oracle(n, d) for d in range(n + 1)]
    assert [row["min"] for row in rows] == [mins[row["d"]][row["size"]] for row in rows]
    assert [row["sphere"] for row in rows] == [row["min"] for row in rows]
    assert report["all_equal"] == all(row["sphere"] == row["min"] for row in rows)


def check_clt_report(report: dict, table: str) -> None:
    """Recompute a `hamext clt-check` report from its own sizes: each gap
    cdf_gap_oracle's float bit for bit, each bound 0.71/sqrt(n), and each
    ok and within_bound their comparisons; its table holds (n, gap,
    bound, ok) of each row."""
    rows = report["rows"]
    check_table(table, ["n", "gap", "bound", "ok"],
                [(row["n"], row["gap"], row["bound"], row["ok"]) for row in rows])
    for row in rows:
        n, gap, bound = row["n"], float(row["gap"]), float(row["bound"])
        assert gap == cdf_gap_oracle(n)
        assert bound == 0.71 / math.sqrt(n)
        assert row["ok"] == (gap <= bound)
    assert report["within_bound"] == all(row["ok"] for row in rows)


def check_smallball_report(report: dict, table: str) -> None:
    """Recompute a `hamext smallball` report at its default budget, g(n) =
    ceil(n^(1/3)), from its own sizes: each exact P(|ones - n/2| <= g), in
    lowest terms, is b(n, hi) - b(n, lo - 1) over 2^n for the ones counts
    lo..hi within g of n/2; each bound is the envelope 4g/sqrt(2 pi n) +
    1.42/sqrt(n) in small_ball_bound's float operations (2 * 0.71 is 1.42
    exactly); and each ok and within_bound are their comparisons. Its
    table holds (n, g, exact_num, exact_den, bound, ok) of each row."""
    rows = report["rows"]
    keys = ["n", "g", "exact_num", "exact_den", "bound", "ok"]
    check_table(table, keys, [[row[key] for key in keys] for row in rows])
    assert report["budget"] == "power:1/3"
    for row in rows:
        n, g, bound = row["n"], row["g"], float(row["bound"])
        assert (g - 1) ** 3 < n <= g ** 3
        lo, hi = max(0, -(-(n - 2 * g) // 2)), min(n, (n + 2 * g) // 2)
        tails = binomial_row(n)
        exact = Fraction(row_tail(tails, hi) - row_tail(tails, lo - 1), 1 << n)
        assert (row["exact_num"], row["exact_den"]) == (exact.numerator, exact.denominator)
        assert bound == 4.0 * g / math.sqrt(2.0 * math.pi * n) + 1.42 / math.sqrt(n)
        assert row["ok"] == (float(exact) <= bound)
    assert report["within_bound"] == all(row["ok"] for row in rows)


def check_weber_report(report: dict, table: str) -> None:
    """Recompute a `hamext weber` report from its own nu and n (20 by
    default): block m, (2^(m-1), 2^m], is hit when a member lies in it;
    each p_count counts the hit blocks up to its n; each log rate is ln of
    its block's p_count (None before the first hit) at the block's lowest
    k, 2^(m-1) + 1; and in sparse mode, at the default rate lnln, the
    threshold is the top 2^m of the last block whose log rate exceeds lnln
    at its lowest k, 0 when none does. Its table holds (n, p_count) of
    each block."""
    check_table(table, ["n", "p_count"], enumerate(report["p_counts"], start=1))
    n, nu = int(report["config"].get("n", 20)), report["nu"]
    hits = [m for m in range(1, n + 1) if any(2 ** (m - 1) < v <= 2 ** m for v in nu)]
    p_counts = [sum(m <= k for m in hits) for k in range(1, n + 1)]
    assert report["p_counts"] == p_counts
    assert report["log_rates"] == [
        {"block": m, "k_low": 2 ** (m - 1) + 1, "log_rate": math.log(p) if p else None}
        for m, p in enumerate(p_counts, start=1)]
    if report["mode"] == "sparse":
        assert report["rate"] == "lnln"
        assert report["threshold"] == max((2 ** m for m, p in enumerate(p_counts, start=1)
                                           if p and math.log(p) > lnln(2 ** (m - 1) + 1)),
                                          default=0)


def check_lil_report(report: dict, table: str) -> None:
    """Recompute a `hamext lil --seed s --length L` report from the Philox
    stream X of its seed: its series is psi_oracle(X) at the report's
    epsilon, each statistic bit for bit. Its table holds (n, statistic) of
    each row."""
    series = report["series"]
    check_table(table, ["n", "statistic"], [(row["n"], row["statistic"]) for row in series])
    x = np.array(philox_bits(int(report["config"]["seed"]), int(report["config"]["length"])))
    assert report["length"] == x.size
    assert [(row["n"], row["statistic"].hex(), row["within_envelope"]) for row in series] == [
        (n, statistic.hex(), within) for n, statistic, within in psi_oracle(x, report["epsilon"])]


def check_extract_report(report: dict, table: str) -> None:
    """Recompute a `hamext extract --seed s --budget power:1/3` report from
    its own schedule and the Philox stream X of its seed: each margin is
    margin on the block's odd core of X, each output its vote, and each
    robust flag says the margin's magnitude is past 2m, m the least integer
    with m^3 >= n_k for the block's size n_k. Its table holds (block,
    margin, output) of each block."""
    blocks = [tuple(map(int, line.split())) for line in report["schedule"].splitlines()]
    assert [k for k, *_ in blocks] == list(range(len(blocks)))
    margins, outputs = report["margins"], [int(bit) for bit in report["outputs"]]
    check_table(table, ["block", "margin", "output"], zip(range(len(blocks)), margins, outputs))
    assert report["config"]["budget"] == "power:1/3"
    x = int("".join(map(str, reversed(philox_bits(int(report["config"]["seed"]),
                                                  blocks[-1][2])))), 2)
    cores = [(1 << odd_end) - (1 << start) for _, start, _, odd_end in blocks]
    assert margins == [margin(x, core) for core in cores]
    assert outputs == [vote(x, core) for core in cores]

    def g(n):  # ceil(n^(1/3)): the least m with m^3 >= n
        return bisect_left(range(n + 1), n, key=lambda m: m ** 3)

    assert report["robust"] == [abs(m) > 2 * g(end - start)
                                for m, (_, start, end, _) in zip(margins, blocks)]


def check_tabled_report(report: dict, table: str) -> None:
    """Check a report of the command its config names, extract, harper,
    clt-check, smallball, lil or weber, and its CSV table by meaning."""
    command = report["config"]["command"]
    if command == "extract":
        check_extract_report(report, table)
    elif command == "harper":
        check_harper_report(report, table)
    elif command == "clt-check":
        check_clt_report(report, table)
    elif command == "smallball":
        check_smallball_report(report, table)
    elif command == "lil":
        check_lil_report(report, table)
    else:
        check_weber_report(report, table)


def check_select_report(report: dict) -> None:
    """Recompute a `hamext select --rule evens --seed s --length L` report
    from the Philox stream X of its seed: the even positions of X are
    examined, ones_count counts the ones among them, and the frequency and
    its deviation from 1/2 follow from those two counts."""
    assert report["rule"] == "evens"
    evens = philox_bits(int(report["config"]["seed"]), int(report["config"]["length"]))[::2]
    examined, ones = report["positions_examined"], report["ones_count"]
    assert (examined, ones) == (len(evens), sum(evens))
    assert report["relative_frequency"] == ones / examined
    assert report["deviation_from_half"] == ones / examined - 0.5


def refinement_oracle(strings: list[str]) -> tuple[list[int], list[int]]:
    """Iterated majority on lists: from every position, each string in turn
    keeps the surviving positions where it equals its majority bit over
    them, a tie reading 1; the survivors and the majority bits."""
    surviving, constants = list(range(len(strings[0]))), []
    for s in strings:
        bits = [int(s[i]) for i in surviving]
        constants.append(int(2 * sum(bits) >= len(bits)))
        surviving = [i for i, bit in zip(surviving, bits) if bit == constants[-1]]
    return surviving, constants


def check_trace_refine_report(report: dict, strings: list[str]) -> None:
    """Recompute a `hamext trace-refine` report from the strings of its
    input: the count, and the survivors and constants of
    refinement_oracle."""
    assert report["count"] == len(strings)
    assert (report["positions"], report["constants"]) == refinement_oracle(strings)


def write_text_bits(path, strings) -> None:
    """Write bit strings as ASCII lines (one string per line)."""
    with open(path, "w", encoding="ascii") as fh:
        for s in strings:
            fh.write(to_text(as_bits(s)))
            fh.write("\n")
