"""Majority truth-table reduction over a disjoint block schedule.

A BlockSchedule partitions an initial segment of positions into
contiguous, consecutive blocks of nondecreasing sizes. Every block is
odd-trimmed (drop its top index when the size is even) before the
majority vote, so votes never tie. The extractor's outputs, per-block
margins, and robustness flags come back in an ExtractionTrace.

make_schedule builds, for every budget g (bounded or not), the smallest
schedule whose blocks satisfy the geometric-decay constraint
g(n_k)/sqrt(n_k) <= 2^-k plus superadditivity, and refuses one longer
than MAKE_SCHEDULE_SCAN_BOUND bits in total.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import pairwise
from typing import NamedTuple, Optional

import numpy as np

from .bits import (_collection, _real, as_bits, prefix_distances, read_index, read_indices,
                   read_instance)
from .budgets import BudgetFunction, lil_envelope, lil_scale
from .errors import ConfigError, DomainError

MAKE_SCHEDULE_SCAN_BOUND = 1 << 25  # bits, the longest schedule make_schedule builds


def core_indices(core, length: int) -> range:
    """Validate a majority core, a step-1 range of odd size, against an
    input of `length` bits and return it. Any other value (a list, set,
    ndarray, None or a range of another step), an empty or even-size
    range and a range reaching outside [0, length) raise DomainError."""
    if not (isinstance(core, range) and core.step == 1):
        raise DomainError(f"a majority core is a step-1 range, got {core!r}")
    if len(core) % 2 == 0:
        raise DomainError(f"majority core must have odd size, got {len(core)}")
    if core.start < 0 or core.stop > length:
        raise DomainError(f"core {core!r} outside input of length {length}")
    return core


def _margins(x: np.ndarray, cores) -> np.ndarray:
    """2·ones − |core| on x for each core, a range counted as one slice."""
    return np.array([2 * np.count_nonzero(x[c.start:c.stop]) - len(c) for c in cores],
                    dtype=np.int64)


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
    def total_length(self) -> int:
        return self.blocks[-1][1]

    def to_text(self) -> str:
        return "".join(f"{k} {s} {e} {oe}\n"
                       for k, ((s, e), (_, oe)) in enumerate(zip(self.blocks, self.odd_cores)))

    @classmethod
    def from_text(cls, text: str) -> "BlockSchedule":
        if not isinstance(text, str):
            raise ConfigError(f"a schedule is text, got {text!r}")
        blocks, odd_ends = [], []
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
            blocks.append((s, e))
            odd_ends.append(oe)
        schedule = cls(tuple(blocks))
        for k, ((s, e), (_, odd_end)) in enumerate(zip(blocks, schedule.odd_cores)):
            if odd_ends[k] != odd_end:
                raise ConfigError(f"block {k}: odd_end {odd_ends[k]} inconsistent with [{s},{e})")
        return schedule


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
    ConfigError), and X must cover it. With a budget g (a
    BudgetFunction, else DomainError), robust_flags marks blocks whose
    margin magnitude exceeds g(n_k) (n_k the full block size): flips of
    at most g(n_k) bits inside block k cannot change those output bits.
    """
    read_instance(schedule, BlockSchedule, "schedule", ConfigError)
    x = as_bits(X)
    if schedule.total_length > x.size:
        missing = [k for k, (_, e) in enumerate(schedule.blocks) if e > x.size]
        raise DomainError(f"input of length {x.size} does not cover blocks {missing}")
    margins = _margins(x, [range(s, e) for s, e in schedule.odd_cores])
    outputs = (margins > 0).astype(np.uint8)
    robust = None
    if budget is not None:
        read_instance(budget, BudgetFunction, "budget")
        # in Python ints: a budget may pass int64
        robust = np.array([abs(m) > 2 * budget(n)
                           for m, n in zip(margins.tolist(), schedule.sizes)], dtype=np.bool_)
    return ExtractionTrace(outputs=outputs, margins=margins, robust_flags=robust)


def make_schedule(g: BudgetFunction, block_count: int) -> BlockSchedule:
    """Smallest admissible schedule for the budget g, bounded or not.

    Block k gets the least size n_k (scanned in increasing order) with
    g(n_k)^2 * 4^k <= n_k, n_k >= n_{k-1}, and n_k >= sum of earlier
    sizes. A schedule whose total length would pass
    MAKE_SCHEDULE_SCAN_BOUND raises ResourceError.
    """
    read_instance(g, BudgetFunction, "g")
    block_count = read_index(block_count, "block_count", 1)
    sizes: list[int] = []
    total = 0
    for k in range(block_count):
        n = max(sizes[-1] if sizes else 1, total)
        while True:
            read_index(total + n, f"total length through block {k}",
                       ceiling=MAKE_SCHEDULE_SCAN_BOUND)
            jump = g(n) ** 2 << (2 * k)
            if jump <= n:
                break
            n = jump  # every size in [n, jump) fails too: g is nondecreasing
        sizes.append(n)
        total += n
    return BlockSchedule.from_sizes(sizes)


def similar_p_N(X, Y, p: BudgetFunction, N, n0: int = 0) -> bool:
    """Prefix Hamming distances at the checkpoints N (from n0 on) all
    obey the budget: d(X|n, Y|n) <= p(n). Every checkpoint, those below
    n0 included, must be an integer in 0..len(X)."""
    read_instance(p, BudgetFunction, "p")
    N, n0 = read_indices(N, "checkpoint"), read_index(n0, "n0")
    dist = prefix_distances(X, Y, N).tolist()
    return all(d <= p(n) for n, d in zip(N, dist) if n >= n0)


class PsiPoint(NamedTuple):
    n: int
    statistic: float
    within_envelope: bool


def psi_deviation(X, epsilon: float = 0.0) -> list[PsiPoint]:
    """The iterated-logarithm series of the stream X at n = 16, 32, ...
    up to len(X), or at len(X) alone below 16 bits: statistic(n) =
    (ones(n) - n/2) / sqrt(2 n lnln n), plus whether ones(n) stays within
    budgets.lil_envelope(n, epsilon). Each segment between checkpoints is
    counted once; criterion 10 and `hamext lil` read this series. An
    empty X raises DomainError."""
    epsilon = _real(epsilon, "epsilon", float)
    x = as_bits(X)
    if not x.size:
        raise DomainError("an empty stream has no checkpoint: sqrt(2 n lnln n) vanishes at 0")
    ns = [1 << j for j in range(4, x.size.bit_length())] or [x.size]
    walk = np.cumsum(_margins(x, [range(a, b) for a, b in pairwise([0, *ns])]))  # 2·ones(n) − n
    return [PsiPoint(n, (ones - n / 2.0) / lil_scale(n), ones <= lil_envelope(n, epsilon))
            for n, ones in zip(ns, ((walk + ns) // 2).tolist())]
