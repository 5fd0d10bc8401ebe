"""Budgeted corruption of an input stream against the majority extractor.

The corruption procedure walks stage windows [n_s, n_{s+1}) in order.
Within each window it flips the cheapest set of bits that forces the
targeted output to 0 (for the majority reduction: clear the lowest
1-bits of the target block's core down to a losing vote), copies the
input elsewhere, and accounts per-stage and cumulative flip costs
against the budget. A generic exhaustive variant handles arbitrary
black-box reductions on small windows.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Callable, NamedTuple, Optional

import numpy as np

from .bits import as_bits, read_index, read_indices
from .budgets import BudgetFunction
from .errors import ConfigError, DimensionError, ResourceError
from .extractor import BlockSchedule, _margins, core_indices, similar_p_N

GENERIC_WINDOW_CEILING = 24


@dataclass(frozen=True)
class AdversarySchedule:
    """Stage bounds n_0 < ... < n_S, one targeted output per stage
    (stage s attacks output targets[s] inside [n_s, n_{s+1}))."""

    stage_bounds: tuple[int, ...]
    targets: tuple[int, ...]
    budget: BudgetFunction

    def __post_init__(self):
        nb = read_indices(self.stage_bounds, "stage bound", error=ConfigError)
        targets = read_indices(self.targets, "target", error=ConfigError)
        if len(nb) < 2 or len(targets) != len(nb) - 1:
            raise ConfigError("need S+1 stage bounds for S targets")
        # targets first: stages_from_blocks derives repeated bounds from repeated targets
        if any(a >= b for a, b in zip(targets, targets[1:])):
            raise ConfigError("targets must be strictly increasing")
        if any(a >= b for a, b in zip(nb, nb[1:])):
            raise ConfigError("stage bounds must be strictly increasing")
        object.__setattr__(self, "stage_bounds", tuple(nb))
        object.__setattr__(self, "targets", tuple(targets))

    @property
    def stage_count(self) -> int:
        return len(self.targets)

    def window(self, s: int) -> tuple[int, int]:
        return self.stage_bounds[s], self.stage_bounds[s + 1]

    def growth_report(self) -> dict:
        """Diagnostics for the two growth conditions.

        `ratio_ok[s]`: p(w)/sqrt(w) >= 1 for window length w.
        `telescoping_ok[s]`: sum of stage budgets through s fits inside
        p(n_{s+1}). The latter is unattainable for strictly concave
        budgets past two stages (stage budgets are subadditive), so it
        is reported, not enforced; budget compliance of actual runs is
        judged on realized costs.
        """
        ratio_ok, tele_ok = [], []
        acc = 0
        for s in range(self.stage_count):
            a, b = self.window(s)
            w = b - a
            pw = self.budget(w)
            ratio_ok.append(pw * pw >= w)
            acc += pw
            tele_ok.append(acc <= self.budget(b))
        return {"ratio_ok": ratio_ok, "telescoping_ok": tele_ok}


def stages_from_blocks(schedule: BlockSchedule, budget: BudgetFunction,
                       targets=None) -> AdversarySchedule:
    """Stage bounds around the targeted blocks of a block schedule.

    Stage s spans from the start of target block s to the start of
    target block s+1 (the final stage ends at its block's end), so each
    window contains its target's full use; non-consecutive targets
    leave padding blocks inside the window.
    """
    if targets is None:
        targets = tuple(range(len(schedule)))
    targets = tuple(read_indices(targets, "target block", 0, len(schedule) - 1, ConfigError))
    if not targets:
        raise ConfigError("need at least one target block")
    bounds = [0]
    for t in targets[1:]:
        bounds.append(schedule.blocks[t][0])
    bounds.append(schedule.blocks[targets[-1]][1])
    return AdversarySchedule(tuple(bounds), targets, budget)


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
    in closed form on windows of any length.
    """
    x = as_bits(X)
    a, b = stage_window
    a = read_index(a, "window start", 0, x.size - 1, DimensionError)
    b = read_index(b, "window end", a + 1, x.size, DimensionError)
    width = b - a
    if width > GENERIC_WINDOW_CEILING:
        raise ResourceError(
            f"window of {width} bits exceeds the exhaustive ceiling {GENERIC_WINDOW_CEILING}")
    prefix = as_bits(oracle_prefix)
    if prefix.size != a:
        raise DimensionError(f"oracle prefix must have length {a}, got {prefix.size}")
    tau = np.concatenate((prefix, x[a:b]))
    positions = list(range(a, b))
    for cost in range(width + 1):
        for combo in combinations(positions, cost):
            for i in combo:
                tau[i] ^= 1
            hit = evaluate(tau) == 0
            for i in combo:
                tau[i] ^= 1
            if hit:
                if budget is not None and cost > budget:
                    return ForceResult([], cost, False, True)
                return ForceResult(list(combo), cost, True, False)
    return ForceResult([], 0, False, False)


class StageRecord(NamedTuple):
    stage: int
    window: tuple[int, int]
    flips: list[int]
    cost: int
    forced: bool
    case: int
    budget_exceeded: bool


@dataclass
class CorruptionReport:
    Y: np.ndarray
    per_stage: list[StageRecord]
    cumulative_cost_at_stage: list[int]
    budget_ok: bool

    def to_json_dict(self, y_file: str = "") -> dict:
        return {
            "y_file": y_file,
            "stages": [
                {"s": r.stage, "window": list(r.window), "flips": list(map(int, r.flips)),
                 "cost": r.cost, "forced": r.forced, "case": r.case,
                 "budget_exceeded": r.budget_exceeded}
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
        target = adv.targets[s]
        if target >= len(schedule):
            raise ConfigError(f"stage {s} targets output {target}, schedule has {len(schedule)} blocks")
        blk_start, blk_end = schedule.blocks[target]
        if blk_start < a or blk_end > b:
            raise ConfigError(
                f"stage {s}: target block [{blk_start},{blk_end}) not inside window [{a},{b})")
        flips, cost = force_majority_zero(y, range(*cores[target]))
        stage_budget = adv.budget(b - a)
        if cost > stage_budget:
            records.append(StageRecord(s, (a, b), [], cost, False, 1, True))
        else:
            y[flips] ^= 1
            records.append(StageRecord(s, (a, b), flips, cost, True, 1, False))
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
    return similar_p_N(X, report.Y, p, N)
