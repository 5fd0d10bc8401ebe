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
import operator
from dataclasses import dataclass, field
from typing import Callable, NamedTuple, Optional, Sequence

import numpy as np

from .bits import as_bits, read_checkpoints, read_index
from .budgets import BudgetFunction
from .errors import ConfigError, ContractError, DimensionError, DomainError, ResourceError

MAKE_SCHEDULE_SCAN_BOUND = 1 << 28


def core_indices(core, length: int) -> range | np.ndarray:
    """Validate a majority core against an input of `length` bits.

    A step-1 range comes back unchanged (callers slice with it, so it
    costs O(1)); any other iterable or integer ndarray comes back as a
    sorted int64 array. Raises ContractError for an empty or even-size
    core, a duplicate index or a non-integer index, and DimensionError
    for an index outside [0, length).
    """
    if isinstance(core, range) and core.step == 1:
        idx = core
    elif isinstance(core, np.ndarray):
        if core.size and core.dtype.kind not in "iu":
            raise ContractError(f"majority core indices must be integers, got {core.dtype}")
        # uint64 values past the int64 range wrap negative and are rejected below
        idx = np.sort(core.astype(np.int64), axis=None)
    else:
        try:
            idx = np.sort(np.fromiter((operator.index(i) for i in core), dtype=np.int64))
        except TypeError as exc:
            raise ContractError(f"majority core indices must be integers: {exc}") from None
        except OverflowError:
            raise DimensionError(f"core index outside input of length {length}") from None
    if len(idx) % 2 == 0:
        raise ContractError(f"majority core must have odd size, got {len(idx)}")
    if idx[0] < 0 or idx[-1] >= length:
        bad = idx[0] if idx[0] < 0 else idx[-1]
        raise DimensionError(f"core index {bad} outside input of length {length}")
    if isinstance(idx, np.ndarray):
        repeated = idx[1:][idx[1:] == idx[:-1]]
        if repeated.size:
            raise ContractError(f"majority core lists index {repeated[0]} more than once")
    return idx


def majority_bit(X, core) -> int:
    """1 iff strictly more ones than zeros on the (odd-size) core.

    The core is checked by core_indices: duplicates and indices outside
    X raise instead of being counted twice or wrapped around.
    """
    x = as_bits(X)
    idx = core_indices(core, x.size)
    voters = x[idx.start:idx.stop] if isinstance(idx, range) else x[idx]
    return 1 if 2 * int(np.count_nonzero(voters)) > len(idx) else 0


@dataclass(frozen=True)
class BlockSchedule:
    """Contiguous consecutive index intervals [start_k, end_k)."""

    blocks: tuple[tuple[int, int], ...]
    output_index_map: tuple[tuple[int, int], ...] = ()

    def __post_init__(self):
        if not self.blocks:
            raise ConfigError("a block schedule needs at least one block")
        prev_end = None
        prev_size = 0
        for k, (start, end) in enumerate(self.blocks):
            start = read_index(start, f"block {k} start", error=ConfigError)
            end = read_index(end, f"block {k} end", start + 1, error=ConfigError)
            if prev_end is not None and start != prev_end:
                raise ConfigError(f"block {k} must start at {prev_end}, starts at {start}")
            if end - start < prev_size:
                raise ConfigError(f"block sizes must be nondecreasing, block {k} shrinks")
            prev_end, prev_size = end, end - start
        for k, _ in self.output_index_map:
            read_index(k, "output_index_map block", 0, len(self.blocks) - 1, ConfigError)

    @classmethod
    def from_sizes(cls, sizes, output_index_map=()) -> "BlockSchedule":
        blocks = []
        pos = 0
        for s in sizes:
            s = read_index(s, "block size", 1, error=ConfigError)
            blocks.append((pos, pos + s))
            pos += s
        return cls(tuple(blocks), tuple(output_index_map))

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
        sums, acc = [], 0
        for s in self.sizes:
            acc += s
            sums.append(acc)
        return tuple(sums)

    @property
    def total_length(self) -> int:
        return self.blocks[-1][1]

    def to_text(self) -> str:
        targets = dict(self.output_index_map)
        lines = []
        for k, ((s, e), (_, oe)) in enumerate(zip(self.blocks, self.odd_cores)):
            line = f"{k} {s} {e} {oe}"
            if k in targets:
                line += f" {targets[k]}"
            lines.append(line)
        return "\n".join(lines) + "\n"

    @classmethod
    def from_text(cls, text: str) -> "BlockSchedule":
        blocks, targets = [], []
        for raw in text.splitlines():
            raw = raw.strip()
            if not raw or raw.startswith("#"):
                continue
            parts = raw.split()
            if len(parts) not in (4, 5):
                raise ConfigError(f"bad schedule line {raw!r}")
            try:
                k, s, e, oe, *target = (int(p) for p in parts)
            except ValueError:
                raise ConfigError(f"schedule line with a non-integer field: {raw!r}") from None
            if k != len(blocks):
                raise ConfigError(f"schedule lines out of order at block {k}")
            expected_oe = e if (e - s) % 2 else e - 1
            if oe != expected_oe:
                raise ConfigError(f"block {k}: odd_end {oe} inconsistent with [{s},{e})")
            blocks.append((s, e))
            if target:
                targets.append((k, target[0]))
        return cls(tuple(blocks), tuple(targets))


@dataclass
class ExtractionTrace:
    """Outputs plus per-block vote margins (stored as 2*S^(k), an odd
    integer, so the sign decides the bit and ties are impossible)."""

    outputs: np.ndarray
    margins: np.ndarray
    robust_flags: Optional[np.ndarray] = None


def _cores_of(schedule, length: int) -> tuple[list[np.ndarray], list[int]]:
    """Per index set: its odd core (minus its max when its size is even),
    read by core_indices against `length`, and the set's size."""
    cores, sizes = [], []
    seen: set[int] = set()
    for block in schedule:
        idx = np.unique(np.asarray(list(block)))
        core = core_indices(idx[:idx.size - 1 + idx.size % 2], length)
        if seen.intersection(core.tolist()):
            raise ConfigError("extractor blocks must be disjoint")
        seen.update(core.tolist())
        cores.append(core)
        sizes.append(idx.size)
    return cores, sizes


def extract(X, schedule, budget: BudgetFunction | None = None) -> ExtractionTrace:
    """Majority-vote every block's odd core of X.

    `schedule` is a BlockSchedule or any sequence of disjoint index
    sets; each set's odd core is read by core_indices, so a non-integer
    index or one outside X raises. With a budget g, robust_flags marks
    blocks whose margin magnitude exceeds g(n_k) (n_k the full block
    size): flips of at most g(n_k) bits inside block k cannot change
    those output bits.
    """
    x = as_bits(X)
    if isinstance(schedule, BlockSchedule):
        if schedule.total_length > x.size:
            missing = [k for k, (_, e) in enumerate(schedule.blocks) if e > x.size]
            raise DimensionError(
                f"input of length {x.size} does not cover blocks {missing}")
        cores = schedule.odd_cores
        ones = np.array([np.count_nonzero(x[s:e]) for s, e in cores], dtype=np.int64)
        margins = 2 * ones - np.array([e - s for s, e in cores], dtype=np.int64)
        full_sizes = np.array(schedule.sizes)
    else:
        cores, full_sizes = _cores_of(schedule, x.size)
        margins = np.array([2 * int(x[c].sum()) - c.size for c in cores], dtype=np.int64)
    outputs = (margins > 0).astype(np.uint8)
    robust = None
    if budget is not None:
        allow = np.array([budget(int(n)) for n in full_sizes], dtype=np.int64)
        robust = np.abs(margins) > 2 * allow
    return ExtractionTrace(outputs=outputs, margins=margins.astype(np.int64),
                           robust_flags=robust)


def _decay_ok(g: BudgetFunction, n: int, k: int) -> bool:
    # g(n)/sqrt(n) <= 2^-k, exactly: g(n)^2 * 4^k <= n
    return g(n) ** 2 << (2 * k) <= n


def make_schedule(g: BudgetFunction, block_count: int,
                  N_constraint=None,
                  max_scan: int = MAKE_SCHEDULE_SCAN_BOUND) -> BlockSchedule:
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
    checkpoints = None if N_constraint is None else sorted(set(read_checkpoints(N_constraint)))
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
                if n > max_scan:
                    raise ResourceError(
                        f"block {k}: no admissible size below scan bound {max_scan}")
                jump = g(n) ** 2 << (2 * k)
                if jump <= n:
                    break
                n = jump  # every size in [n, jump) fails too: g is nondecreasing
            sizes.append(n)
        total += sizes[-1]
    return BlockSchedule.from_sizes(sizes)


def check_schedule(schedule: BlockSchedule, g: BudgetFunction,
                   N_constraint=None) -> list[str]:
    """Independent re-check of every schedule constraint; returns the
    list of violations (empty means admissible)."""
    bad = []
    sizes = schedule.sizes
    for k in range(1, len(sizes)):
        if sizes[k] < sizes[k - 1]:
            bad.append(f"sizes decrease at block {k}")
    for k, (s, e) in enumerate(schedule.blocks):
        if k and s != schedule.blocks[k - 1][1]:
            bad.append(f"gap before block {k}")
        if e <= s:
            bad.append(f"block {k} empty")
    running = 0
    for k, n in enumerate(sizes):
        if n < running:
            bad.append(f"block {k} smaller than sum of earlier blocks")
        running += n
        if not g.is_bounded:
            ratio_sq_num = g(n) ** 2 * (1 << (2 * k))
            if ratio_sq_num > n:
                bad.append(f"block {k}: g(n_k)/sqrt(n_k) exceeds 2^-{k}")
    if N_constraint is not None and not g.is_bounded:
        allowed = set(read_checkpoints(N_constraint))
        for m, s in enumerate(schedule.partial_sums):
            if s not in allowed:
                bad.append(f"partial sum {s} (through block {m}) not a checkpoint")
    return bad


def prefix_distances(X, Y, checkpoints) -> np.ndarray:
    """d(X|n, Y|n) at each checkpoint n, as int64 in the order given.

    Each n must be an integer in 0..len(X) (DomainError otherwise); X
    and Y must share one length (DimensionError otherwise).
    """
    x, y = as_bits(X), as_bits(Y)
    if x.size != y.size:
        raise DimensionError(f"length mismatch: {x.size} vs {y.size}")
    ns = np.array(read_checkpoints(checkpoints, x.size), dtype=np.int64)
    cum = np.cumsum(np.concatenate(([False], x != y)), dtype=np.int64)  # cum[n] = d(X|n, Y|n)
    return cum[ns]


def similar_p_N(X, Y, p: BudgetFunction, N, n0: int = 0) -> bool:
    """Prefix Hamming distances at the checkpoints N (from n0 on) all
    obey the budget: d(X|n, Y|n) <= p(n). Every checkpoint, those below
    n0 included, must be an integer in 0..len(X)."""
    N = read_checkpoints(N)
    dist = prefix_distances(X, Y, N).tolist()
    return all(d <= p(n) for n, d in zip(N, dist) if n >= n0)


def similar_g_phi(X, Y, g: BudgetFunction, schedule: BlockSchedule) -> bool:
    """Per-block disagreement counts all within g of the block size."""
    x, y = as_bits(X), as_bits(Y)
    if x.size != y.size:
        raise DimensionError(f"length mismatch: {x.size} vs {y.size}")
    if schedule.total_length > x.size:
        raise DimensionError("inputs do not cover the schedule")
    diff = (x != y)
    for (s, e) in schedule.blocks:
        if int(diff[s:e].sum()) > g(e - s):
            return False
    return True


class PsiPoint(NamedTuple):
    n: int
    statistic: float
    within_envelope: bool


def default_lambda(n: int) -> float:
    """ln ln n, clamped below 16 to dodge the n <= e singularity."""
    return math.log(math.log(max(n, 16)))


def psi_deviation(X, A, Lambda: Callable[[int], float] = default_lambda,
                  epsilon: float = 0.0,
                  checkpoints: Sequence[int] | None = None) -> list[PsiPoint]:
    """Normalized prefix-distance deviations from the sqrt(2 n L(n))
    envelope: statistic(n) = (d(X|n,A|n) - n/2) / sqrt(2 n L(n)), plus
    whether the distance stays at or under n/2 + (1-eps) sqrt(2 n L(n)).
    Checkpoints must be integers in 1..len(X).
    """
    if not math.isfinite(epsilon):
        raise DomainError(f"epsilon must be finite, got {epsilon}")
    x = as_bits(X)
    if checkpoints is None:
        checkpoints = [1 << j for j in range(4, x.size.bit_length()) if 1 << j <= x.size]
        if not checkpoints:
            checkpoints = [x.size]
    ns = read_checkpoints(checkpoints)
    if 0 in ns:
        raise DomainError("checkpoint 0: the envelope sqrt(2 n L(n)) vanishes")
    out = []
    for n, dist in zip(ns, prefix_distances(x, A, ns).tolist()):
        lam = Lambda(n)
        if lam <= 0:
            raise DomainError(f"Lambda({n}) = {lam} must be positive")
        scale = math.sqrt(2.0 * n * lam)
        out.append(PsiPoint(n, (dist - n / 2.0) / scale,
                            dist <= n / 2.0 + (1.0 - epsilon) * scale))
    return out
