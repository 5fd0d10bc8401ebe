"""Reference implementations that tests compare the package against.

None of these is read by the package, its command or its benchmark, so
none is exported; each stays here because a test holds a function of the
package to it, or needs it to set up an input:

* force_output_zero_generic, the paper's forcing adversary against an
  arbitrary black-box reduction, searched exhaustively on small windows;
  adversary.force_majority_zero is its closed form for majority;
* check_schedule, an independent re-check of make_schedule's constraints;
* similar_g_phi, the paper's block-similarity relation;
* contained_counts_oracle, the key lemma's containment counts by brute
  force;
* write_text_bits, the writer of the text format that the command reads.
"""

from itertools import combinations
from typing import Callable, NamedTuple, Optional

import numpy as np

from hamext.bits import as_bits, prefix_distances, read_index, read_indices, read_instance, to_text
from hamext.budgets import BudgetFunction
from hamext.errors import ConfigError, DimensionError
from hamext.extractor import BlockSchedule

GENERIC_WINDOW_CEILING = 24


class ForceResult(NamedTuple):
    flips: list[int]
    cost: int
    forced: bool
    budget_exceeded: bool


def force_output_zero_generic(X, stage_window: tuple[int, int], oracle_prefix,
                              evaluate: Callable[[np.ndarray], int],
                              budget: Optional[int] = None) -> ForceResult:
    """Minimal-cost window assignment driving a black-box output to 0.

    Candidates are searched in increasing flip count (lowest flip
    indices first within a count), so the returned assignment is the
    canonical minimal one. `evaluate` sees oracle_prefix extended by the
    candidate window. forced=False either because no assignment works
    (the window is then left equal to X: "make no further changes") or
    because the cheapest one overruns the budget (flagged separately).
    For a majority reduction, force_majority_zero gives the same answer
    in closed form on windows of any length. The window is a collection
    of two integers, start < end; the budget an integer >= 0, or None
    for no budget. Each value `evaluate` returns is read as one bit, as
    bits.as_bits reads one; anything else raises DomainError.
    """
    read_instance(evaluate, Callable, "evaluate")
    x = as_bits(X)
    window = read_indices(stage_window, "window bound", None, error=DimensionError)
    if len(window) != 2:
        raise DimensionError(f"stage window must be a pair start < end, got {stage_window!r}")
    a = read_index(window[0], "window start", 0, x.size - 1, DimensionError)
    b = read_index(window[1], "window end", a + 1, x.size, DimensionError)
    width = read_index(b - a, "window width", ceiling=GENERIC_WINDOW_CEILING)
    if budget is not None:
        budget = read_index(budget, "budget")
    prefix = as_bits(oracle_prefix)
    if prefix.size != a:
        raise DimensionError(f"oracle prefix must have length {a}, got {prefix.size}")
    tau = np.concatenate((prefix, x[a:b]))
    positions = list(range(a, b))
    for cost in range(width + 1):
        for combo in combinations(positions, cost):
            for i in combo:
                tau[i] ^= 1
            hit = as_bits([evaluate(tau)])[0] == 0
            for i in combo:
                tau[i] ^= 1
            if hit:
                if budget is not None and cost > budget:
                    return ForceResult([], cost, False, True)
                return ForceResult(list(combo), cost, True, False)
    return ForceResult([], 0, False, False)


def check_schedule(schedule: BlockSchedule, g: BudgetFunction) -> list[str]:
    """Independent re-check of make_schedule's superadditivity and decay
    constraints (BlockSchedule itself refuses gaps, empty and shrinking
    blocks); returns the violations (empty means admissible)."""
    read_instance(schedule, BlockSchedule, "schedule", ConfigError)
    read_instance(g, BudgetFunction, "g")
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
    read_instance(g, BudgetFunction, "g")
    read_instance(schedule, BlockSchedule, "schedule", ConfigError)
    x = as_bits(X)
    if schedule.total_length > x.size:
        raise DimensionError("inputs do not cover the schedule")
    # block k's count is the rise of the prefix distance across [start_k, end_k)
    ends = [schedule.blocks[0][0], *(e for _, e in schedule.blocks)]
    counts = np.diff(prefix_distances(x, Y, ends)).tolist()
    return all(d <= g(e - s) for d, (s, e) in zip(counts, schedule.blocks))


def contained_counts_oracle(inside, n: int) -> list[list[int]]:
    """Brute force: per row and d, the points whose every vertex within
    distance d is a member."""
    return [[sum(all(row[y] for y in range(1 << n) if (x ^ y).bit_count() <= d)
                 for x in range(1 << n))
             for d in range(n + 1)]
            for row in inside]


def write_text_bits(path, strings) -> None:
    """Write bit strings as ASCII lines (one string per line)."""
    with open(path, "w", encoding="ascii") as fh:
        for s in strings:
            fh.write(to_text(as_bits(s)))
            fh.write("\n")
