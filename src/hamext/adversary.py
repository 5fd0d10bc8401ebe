"""Budgeted corruption of an input stream against the majority extractor.

The corruption procedure walks stage windows [n_s, n_{s+1}) in order.
Within each window it flips the cheapest set of bits that forces the
targeted output to 0 (for the majority reduction: clear the lowest
1-bits of the target block's core down to a losing vote), copies the
input elsewhere, and accounts per-stage and cumulative flip costs
against the budget.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .bits import as_bits, read_indices, read_instance
from .budgets import BudgetFunction
from .errors import ConfigError, DimensionError
from .extractor import BlockSchedule, _margins, core_indices, similar_p_N


@dataclass(frozen=True)
class AdversarySchedule:
    """The stage plan stages_from_blocks builds over `schedule`: stage
    bounds n_0 < ... < n_S, one targeted output per stage (stage s
    attacks output targets[s] inside [n_s, n_{s+1}))."""

    stage_bounds: tuple[int, ...]
    targets: tuple[int, ...]
    budget: BudgetFunction
    schedule: BlockSchedule

    @property
    def stage_count(self) -> int:
        return len(self.targets)

    def window(self, s: int) -> tuple[int, int]:
        return self.stage_bounds[s], self.stage_bounds[s + 1]


def stages_from_blocks(schedule: BlockSchedule, budget: BudgetFunction,
                       targets=None) -> AdversarySchedule:
    """Stage bounds around the targeted blocks of a block schedule.

    Stage s spans from the start of target block s to the start of
    target block s+1 (the final stage ends at its block's end), so each
    window contains its target's full use; non-consecutive targets
    leave padding blocks inside the window.
    """
    read_instance(schedule, BlockSchedule, "schedule", ConfigError)
    read_instance(budget, BudgetFunction, "budget")
    targets = tuple(read_indices(range(len(schedule)) if targets is None else targets,
                                 "target block", 0, len(schedule) - 1, ConfigError))
    if not targets:
        raise ConfigError("need at least one target block")
    if any(a >= b for a, b in zip(targets, targets[1:])):
        raise ConfigError("targets must be strictly increasing")
    # the blocks are consecutive, so the bounds rise with the targets
    bounds = (0, *(schedule.blocks[t][0] for t in targets[1:]), schedule.blocks[targets[-1]][1])
    return AdversarySchedule(bounds, targets, budget, schedule)


def _first_ones(x: np.ndarray, start: int, stop: int, count: int) -> np.ndarray:
    """Positions of the first `count` 1-bits of x[start:stop].

    Scans a prefix window that doubles until it holds `count` ones, so
    the work tracks the answer rather than the interval length; the
    caller guarantees the interval holds at least `count` ones.
    """
    if count == 0:
        return np.empty(0, dtype=np.int64)
    width = count
    while True:
        end = min(stop, start + width)
        hits = np.flatnonzero(x[start:end])
        if hits.size >= count or end == stop:
            return hits[:count] + start
        width *= 2


def force_majority_zero(X, core) -> tuple[list[int], int]:
    """Cheapest flips making the majority over `core` vote 0.

    Flips the lowest-indexed 1-bits first; cost is
    max(0, ones - floor(|core|/2)). Always feasible. The core is a
    step-1 range of odd size inside X, checked by core_indices, and is
    scanned only as far as the flips reach.
    """
    x = as_bits(X)
    idx = core_indices(core, x.size)
    # an odd core of 2m+1 votes with margin 2·ones − 2m − 1 needs ones − m flips
    cost = max(0, (int(_margins(x, [idx])[0]) + 1) // 2)
    return _first_ones(x, idx.start, idx.stop, cost).tolist(), cost


class StageRecord(NamedTuple):
    stage: int
    window: tuple[int, int]
    flips: list[int]
    cost: int
    forced: bool
    budget_exceeded: bool


@dataclass
class CorruptionReport:
    Y: np.ndarray
    per_stage: list[StageRecord]
    cumulative_cost_at_stage: list[int]
    budget_ok: bool

    def to_json_dict(self) -> dict:
        return {
            "stages": [
                {"s": r.stage, "window": list(r.window), "flips": list(map(int, r.flips)),
                 "cost": r.cost, "forced": r.forced, "budget_exceeded": r.budget_exceeded}
                for r in self.per_stage
            ],
            "cumulative": list(map(int, self.cumulative_cost_at_stage)),
            "budget_ok": self.budget_ok,
        }


def corrupt(X, schedule: BlockSchedule, adv: AdversarySchedule) -> CorruptionReport:
    """Run every stage in order, forcing each targeted majority output
    to 0 at minimal cost and copying X outside the flips.

    A stage whose minimal cost overruns p(n_{s+1}-n_s) makes no changes
    (its target is reported unforced with the budget_exceeded flag and
    the refused minimal cost, which stays out of the cumulative costs).
    Flips at stage s stay inside [n_s, n_{s+1}); cumulative costs and
    the overall prefix-budget verdict land in the report.
    """
    read_instance(adv, AdversarySchedule, "adversary schedule", ConfigError)
    if adv.schedule != schedule:
        raise ConfigError("the stage plan was built over another block schedule")
    x = as_bits(X)
    if adv.stage_bounds[-1] > x.size:
        raise DimensionError(
            f"input of length {x.size} does not cover stage bound {adv.stage_bounds[-1]}")
    y = x.copy()
    records: list[StageRecord] = []
    cumulative: list[int] = []
    running = 0
    budget_ok = True
    cores = schedule.odd_cores
    for s in range(adv.stage_count):
        a, b = adv.window(s)
        flips, cost = force_majority_zero(y, range(*cores[adv.targets[s]]))
        stage_budget = adv.budget(b - a)
        if cost > stage_budget:
            records.append(StageRecord(s, (a, b), [], cost, False, True))
        else:
            y[flips] ^= 1
            records.append(StageRecord(s, (a, b), flips, cost, True, False))
            running += cost
        cumulative.append(running)
        if running > adv.budget(b):
            budget_ok = False
    return CorruptionReport(Y=y, per_stage=records,
                            cumulative_cost_at_stage=cumulative, budget_ok=budget_ok)


def verify_similarity(report: CorruptionReport, X, p: BudgetFunction, N) -> bool:
    """Independent recomputation of the prefix distances at the
    checkpoints N: d(X|n, Y|n) <= p(n) for every n in N. Reads only
    report.Y, never the report's own cost accounting."""
    read_instance(report, CorruptionReport, "report")
    return similar_p_N(X, report.Y, p, N)
