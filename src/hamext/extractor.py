"""Majority truth-table reduction over a disjoint block schedule.

A BlockSchedule partitions an initial segment of positions into
contiguous, consecutive blocks of nondecreasing sizes. Every block is
odd-trimmed (drop its top index when the size is even) before the
majority vote, so votes never tie. The extractor's outputs, per-block
margins, and robustness flags come back in an ExtractionTrace.

make_schedule builds the smallest schedule whose blocks satisfy the
geometric-decay constraint g(n_k)/sqrt(n_k) <= 2^-k plus
superadditivity, optionally pinning every partial sum into a prescribed
checkpoint set; check_schedule re-verifies those constraints through an
independent code path.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Optional, Sequence

import numpy as np

from .bits import _collection, _real, as_bits, prefix_distances, read_index, read_indices
from .budgets import BudgetFunction, lil_envelope, lnln
from .errors import ConfigError, ContractError, DimensionError, DomainError, ResourceError

MAKE_SCHEDULE_SCAN_BOUND = 1 << 28


def core_indices(core, length: int) -> range:
    """Validate a majority core, a step-1 range of odd size, against an
    input of `length` bits and return it. Any other value (a list, set,
    ndarray, None or a range of another step) and an empty or even-size
    range raise ContractError; a range reaching outside [0, length)
    raises DimensionError."""
    if not (isinstance(core, range) and core.step == 1):
        raise ContractError(f"a majority core is a step-1 range, got {core!r}")
    if len(core) % 2 == 0:
        raise ContractError(f"majority core must have odd size, got {len(core)}")
    if core.start < 0 or core.stop > length:
        raise DimensionError(f"core {core!r} outside input of length {length}")
    return core


def _margins(x: np.ndarray, cores) -> np.ndarray:
    """2·ones − |core| on x for each core, a range counted as one slice."""
    return np.array([2 * np.count_nonzero(x[c.start:c.stop]) - len(c) for c in cores],
                    dtype=np.int64)


def majority_bit(X, core) -> int:
    """1 iff strictly more ones than zeros on the core.

    The core is a step-1 range of odd size inside X, checked by
    core_indices.
    """
    x = as_bits(X)
    return 1 if _margins(x, [core_indices(core, x.size)])[0] > 0 else 0


@dataclass(frozen=True)
class BlockSchedule:
    """Contiguous consecutive index intervals [start_k, end_k)."""

    blocks: tuple[tuple[int, int], ...]

    def __post_init__(self):
        blocks = _collection(self.blocks, "block", ConfigError)
        if not blocks:
            raise ConfigError("a block schedule needs at least one block")
        prev_end = None
        prev_size = 0
        for k, block in enumerate(blocks):
            bounds = read_indices(block, f"block {k} bound", error=ConfigError)
            if len(bounds) != 2 or bounds[0] >= bounds[1]:
                raise ConfigError(f"block {k} must be a pair start < end, got {block!r}")
            start, end = bounds
            if prev_end is not None and start != prev_end:
                raise ConfigError(f"block {k} must start at {prev_end}, starts at {start}")
            if end - start < prev_size:
                raise ConfigError(f"block sizes must be nondecreasing, block {k} shrinks")
            prev_end, prev_size = end, end - start
            blocks[k] = (start, end)
        object.__setattr__(self, "blocks", tuple(blocks))

    @classmethod
    def from_sizes(cls, sizes) -> "BlockSchedule":
        blocks = []
        pos = 0
        for s in read_indices(sizes, "block size", 1, error=ConfigError):
            blocks.append((pos, pos + s))
            pos += s
        return cls(tuple(blocks))

    def __len__(self):
        return len(self.blocks)

    @property
    def sizes(self) -> tuple[int, ...]:
        return tuple(e - s for s, e in self.blocks)

    @property
    def odd_cores(self) -> tuple[tuple[int, int], ...]:
        """Per block, the interval [start, odd_end) actually voted on."""
        return tuple((s, e if (e - s) % 2 else e - 1) for s, e in self.blocks)

    @property
    def partial_sums(self) -> tuple[int, ...]:
        """Each block's end: the prefix length through that block."""
        return tuple(e for _, e in self.blocks)

    @property
    def total_length(self) -> int:
        return self.blocks[-1][1]

    def to_text(self) -> str:
        return "".join(f"{k} {s} {e} {oe}\n"
                       for k, ((s, e), (_, oe)) in enumerate(zip(self.blocks, self.odd_cores)))

    @classmethod
    def from_text(cls, text: str) -> "BlockSchedule":
        if not isinstance(text, str):
            raise ConfigError(f"a schedule is text, got {text!r}")
        blocks = []
        for raw in text.splitlines():
            raw = raw.strip()
            if not raw or raw.startswith("#"):
                continue
            parts = raw.split()
            if len(parts) != 4:
                raise ConfigError(f"bad schedule line {raw!r}")
            try:
                k, s, e, oe = (int(p) for p in parts)
            except ValueError:
                raise ConfigError(f"schedule line with a non-integer field: {raw!r}") from None
            if k != len(blocks):
                raise ConfigError(f"schedule lines out of order at block {k}")
            expected_oe = e if (e - s) % 2 else e - 1
            if oe != expected_oe:
                raise ConfigError(f"block {k}: odd_end {oe} inconsistent with [{s},{e})")
            blocks.append((s, e))
        return cls(tuple(blocks))


@dataclass
class ExtractionTrace:
    """Outputs plus per-block vote margins (stored as 2*S^(k), an odd
    integer, so the sign decides the bit and ties are impossible)."""

    outputs: np.ndarray
    margins: np.ndarray
    robust_flags: Optional[np.ndarray] = None


def extract(X, schedule, budget: BudgetFunction | None = None) -> ExtractionTrace:
    """Majority-vote every block's odd core of X.

    `schedule` must be a BlockSchedule (anything else raises
    ConfigError), and X must cover it. With a budget g, robust_flags
    marks blocks whose margin magnitude exceeds g(n_k) (n_k the full
    block size): flips of at most g(n_k) bits inside block k cannot
    change those output bits.
    """
    if not isinstance(schedule, BlockSchedule):
        raise ConfigError(f"extract needs a BlockSchedule, got {schedule!r}")
    x = as_bits(X)
    if schedule.total_length > x.size:
        missing = [k for k, (_, e) in enumerate(schedule.blocks) if e > x.size]
        raise DimensionError(f"input of length {x.size} does not cover blocks {missing}")
    margins = _margins(x, [range(s, e) for s, e in schedule.odd_cores])
    outputs = (margins > 0).astype(np.uint8)
    robust = None
    if budget is not None:
        allow = np.array([budget(n) for n in schedule.sizes], dtype=np.int64)
        robust = np.abs(margins) > 2 * allow
    return ExtractionTrace(outputs=outputs, margins=margins, robust_flags=robust)


def _decay_ok(g: BudgetFunction, n: int, k: int) -> bool:
    # g(n)/sqrt(n) <= 2^-k, exactly: g(n)^2 * 4^k <= n
    return g(n) ** 2 << (2 * k) <= n


def make_schedule(g: BudgetFunction, block_count: int,
                  N_constraint=None) -> BlockSchedule:
    """Smallest admissible schedule for the budget g.

    Block k gets the least size n_k (scanned in increasing order) with
    g(n_k)^2 * 4^k <= n_k, n_k >= n_{k-1}, and n_k >= sum of earlier
    sizes; when N_constraint (nonnegative integers) is given every
    partial sum must land in it. A bounded budget falls back to the
    identity schedule (all blocks singletons) and ignores N_constraint.
    """
    block_count = read_index(block_count, "block_count", 1)
    if g.is_bounded:
        return BlockSchedule.from_sizes([1] * block_count)
    sizes: list[int] = []
    total = 0
    checkpoints = (None if N_constraint is None
                   else sorted(set(read_indices(N_constraint, "checkpoint"))))
    for k in range(block_count):
        lower = max(sizes[-1] if sizes else 1, total, 1)
        if checkpoints is not None:
            chosen = None
            for s in checkpoints:
                n = s - total
                if n < lower:
                    continue
                if _decay_ok(g, n, k):
                    chosen = n
                    break
            if chosen is None:
                raise ResourceError(
                    f"no checkpoint admits block {k} (need partial sum in "
                    f"{checkpoints} with size >= {lower} passing decay)")
            sizes.append(chosen)
        else:
            n = lower
            while True:
                if n > MAKE_SCHEDULE_SCAN_BOUND:
                    raise ResourceError(f"block {k}: no admissible size below scan "
                                        f"bound {MAKE_SCHEDULE_SCAN_BOUND}")
                jump = g(n) ** 2 << (2 * k)
                if jump <= n:
                    break
                n = jump  # every size in [n, jump) fails too: g is nondecreasing
            sizes.append(n)
        total += sizes[-1]
    return BlockSchedule.from_sizes(sizes)


def check_schedule(schedule: BlockSchedule, g: BudgetFunction,
                   N_constraint=None) -> list[str]:
    """Independent re-check of make_schedule's superadditivity, decay and
    checkpoint constraints (BlockSchedule itself refuses gaps, empty and
    shrinking blocks); returns the violations (empty means admissible)."""
    bad = []
    running = 0
    for k, n in enumerate(schedule.sizes):
        if n < running:
            bad.append(f"block {k} smaller than sum of earlier blocks")
        running += n
        if not g.is_bounded:
            ratio_sq_num = g(n) ** 2 * (1 << (2 * k))
            if ratio_sq_num > n:
                bad.append(f"block {k}: g(n_k)/sqrt(n_k) exceeds 2^-{k}")
    if N_constraint is not None and not g.is_bounded:
        allowed = set(read_indices(N_constraint, "checkpoint"))
        for m, s in enumerate(schedule.partial_sums):
            if s not in allowed:
                bad.append(f"partial sum {s} (through block {m}) not a checkpoint")
    return bad


def similar_p_N(X, Y, p: BudgetFunction, N, n0: int = 0) -> bool:
    """Prefix Hamming distances at the checkpoints N (from n0 on) all
    obey the budget: d(X|n, Y|n) <= p(n). Every checkpoint, those below
    n0 included, must be an integer in 0..len(X)."""
    N, n0 = read_indices(N, "checkpoint"), read_index(n0, "n0")
    dist = prefix_distances(X, Y, N).tolist()
    return all(d <= p(n) for n, d in zip(N, dist) if n >= n0)


def similar_g_phi(X, Y, g: BudgetFunction, schedule: BlockSchedule) -> bool:
    """Per-block disagreement counts all within g of the block size."""
    x = as_bits(X)
    if schedule.total_length > x.size:
        raise DimensionError("inputs do not cover the schedule")
    # block k's count is the rise of the prefix distance across [start_k, end_k)
    ends = [schedule.blocks[0][0], *(e for _, e in schedule.blocks)]
    counts = np.diff(prefix_distances(x, Y, ends)).tolist()
    return all(d <= g(e - s) for d, (s, e) in zip(counts, schedule.blocks))


class PsiPoint(NamedTuple):
    n: int
    statistic: float
    within_envelope: bool


def psi_deviation(X, A, epsilon: float = 0.0,
                  checkpoints: Sequence[int] | None = None) -> list[PsiPoint]:
    """Normalized prefix-distance deviations: statistic(n) = (d(X|n,A|n)
    - n/2) / sqrt(2 n lnln n), plus whether the distance stays within
    budgets.lil_envelope(n, epsilon). Checkpoints must be integers in
    1..len(X)."""
    epsilon = _real(epsilon, "epsilon", float)
    x = as_bits(X)
    if checkpoints is None:
        checkpoints = [1 << j for j in range(4, x.size.bit_length()) if 1 << j <= x.size]
        if not checkpoints:
            checkpoints = [x.size]
    ns = read_indices(checkpoints, "checkpoint")
    if 0 in ns:
        raise DomainError("checkpoint 0: the envelope sqrt(2 n lnln n) vanishes")
    out = []
    for n, dist in zip(ns, prefix_distances(x, A, ns).tolist()):
        out.append(PsiPoint(n, (dist - n / 2.0) / math.sqrt(2.0 * n * lnln(n)),
                            dist <= lil_envelope(n, epsilon)))
    return out
