"""Reference implementations that tests compare the package against.

None of these is read by the package, its command or its benchmark, so
none is exported; each stays here because a test holds a function of the
package to it, or needs it to set up an input. A reference takes only
well-formed input, in the form its comparisons pass: it checks no
argument, and the package's own entry points are where refusals are
tested.

* force_output_zero_generic, the paper's forcing adversary against an
  arbitrary black-box reduction, searched exhaustively over the whole
  input; adversary.force_majority_zero is its closed form for majority;
* check_schedule, an independent re-check of make_schedule's constraints;
* similar_g_phi, the paper's block-similarity relation, block by block;
* contained_counts_oracle, the key lemma's containment counts by brute
  force;
* check_keylemma_report, a key-lemma report's derived numbers recomputed
  from its own sizes and exact rows;
* write_text_bits, the writer of the text format that the command reads.
"""

import math
from fractions import Fraction
from itertools import combinations
from typing import NamedTuple

from hamext.bits import as_bits, to_text
from hamext.budgets import BudgetFunction
from hamext.extractor import BlockSchedule


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


def contained_counts_oracle(inside, n: int) -> list[list[int]]:
    """Brute force: per row and d, the points whose every vertex within
    distance d is a member."""
    return [[sum(all(row[y] for y in range(1 << n) if (x ^ y).bit_count() <= d)
                 for x in range(1 << n))
             for d in range(n + 1)]
            for row in inside]


def check_keylemma_report(report: dict) -> None:
    """Recompute every derived number of a key-lemma report from its own
    n, threshold, sizes and exact rows, with b(n, t) = sum of C(n, i)
    over i <= t (0 for t < 0) summed by math.comb."""
    n, total = report["n"], 1 << report["n"]

    def b(t):
        return sum(math.comb(n, i) for i in range(t + 1))

    def bracket(size):
        return max(r for r in range(-1, n + 1) if b(r) <= size)

    violations = 0
    for fam in report["families"]:
        r = bracket(fam["size"])
        assert fam["r"] == r
        assert [row["d"] for row in fam["rows"]] == list(range(n + 1))
        assert [row["bound"] for row in fam["rows"]] == [
            Fraction(b(r + 1 - d), total) for d in range(n + 1)]
        assert fam["tight_at"] == [row["d"] for row in fam["rows"]
                                   if row["exact"] == Fraction(b(r - row["d"]), total)]
        violations += sum(row["exact"] > row["bound"] for row in fam["rows"])
    assert report["violations"] == violations
    r_max = bracket(int(report["p_threshold"] * total))
    assert report["modulus"] == {
        j: next((d for d in range(n + 2) if b(r_max + 1 - d) * 2**j <= total), None)
        for j in range(1, 9)}


def write_text_bits(path, strings) -> None:
    """Write bit strings as ASCII lines (one string per line)."""
    with open(path, "w", encoding="ascii") as fh:
        for s in strings:
            fh.write(to_text(as_bits(s)))
            fh.write("\n")
