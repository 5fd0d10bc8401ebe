"""Hot enumeration kernels as vectorized numpy sweeps.

One implementation per sweep; all kernels are deterministic and
allocate their own outputs.

Vertex convention: a point of {0,1}^n is an integer mask with bit i
holding position i; a set of points is either a bool indicator array
of length 2^n or an integer whose bit v flags vertex v.
"""

from __future__ import annotations

import numpy as np

from .errors import DomainError

BACKEND = "numpy"  # named in the benchmark's environment line


# ---------------------------------------------------------------------------
# exact Hamming distance from every vertex of {0,1}^n to a vertex set

def distance_to_set(ind: np.ndarray, n: int) -> np.ndarray:
    """dist[..., v] = min over members u of popcount(v ^ u); n+1 for an empty set.

    The last axis of `ind` indexes the 2^n vertices; any leading axes
    batch independent sets, each swept on its own, in any memory layout.
    Hamming distance sums one term per coordinate, so one min-plus pass
    per coordinate (each vertex against its partner across that
    coordinate) is exact. The passes run vertex-major, on one C-ordered
    (2^n, sets) array, so each pairs contiguous runs of whole vertex rows
    rather than short strided runs of one set; the result is its
    transposed view. Values stay within n+2, far inside int8 for any n
    whose 2^n-entry array fits in memory.
    """
    if np.shape(ind)[-1:] != (1 << n,):
        raise DomainError(f"last axis must hold the 2^{n} vertices, got shape {np.shape(ind)}")
    sets = np.asarray(ind, dtype=np.bool_).reshape(-1, 1 << n)
    # order="C": the product of a transposed view would keep its F order,
    # and the reshapes below would then copy instead of passing in place
    dist = np.multiply(~sets.T, np.int8(n + 1), dtype=np.int8, order="C")
    for i in range(n):
        pairs = dist.reshape(1 << (n - 1 - i), 2, sets.shape[0] << i)
        np.minimum(pairs, pairs[:, ::-1] + np.int8(1), out=pairs)
    return dist.T.reshape(np.shape(ind))


# ---------------------------------------------------------------------------
# minimum |neighborhood| over every subset of each size (exhaustive Harper)
#
# ball[v] is the vertex-set mask of the d-ball around vertex v; the sweep
# visits every subset mask of the 2^n vertices and records, per subset
# size, the smallest popcount of the union of member balls.

def subset_min_gamma(ball: np.ndarray) -> np.ndarray:
    # union[mask] is the union of ball[v] over the bits v of mask; the
    # masks with top bit v are (1 << v) + m for m < 1 << v, so each pass
    # appends union[m] | ball[v] and doubles the table
    union = np.zeros(1, dtype=np.uint64)
    for b in ball:
        union = np.concatenate((union, union | b))
    sizes = np.bitwise_count(np.arange(union.size, dtype=np.uint64))
    # every size is reached, and no union of a word's members exceeds 64;
    # keeping mins in the uint8 of the counts spares ufunc.at a cast
    mins = np.full(ball.size + 1, 64, dtype=np.uint8)
    np.minimum.at(mins, sizes, np.bitwise_count(union))
    return mins


# ---------------------------------------------------------------------------
# majority cores as vertex masks, the encoding the two sweeps below read

def core_words(odd_cores) -> tuple[np.ndarray, np.ndarray]:
    """Each odd core [s, e) as a vertex mask (bit i set for position i)
    and its size."""
    cores = np.array([(1 << e) - (1 << s) for s, e in odd_cores], dtype=np.uint64)
    sizes = np.array([e - s for s, e in odd_cores], dtype=np.int64)
    return cores, sizes


# ---------------------------------------------------------------------------
# majority outputs for every input of length L (distribution sweeps)
#
# A core word has at most 64 ones, so 2 * np.bitwise_count(...) <= 128
# stays inside its uint8 result.

def all_outputs(cores: np.ndarray, core_sizes: np.ndarray, length: int) -> np.ndarray:
    xs = np.arange(1 << length, dtype=np.uint64)
    words = np.zeros(xs.size, dtype=np.uint32)
    for k in range(cores.size):
        ones = np.bitwise_count(xs & cores[k])
        words |= ((2 * ones > core_sizes[k]).astype(np.uint32)) << np.uint32(k)
    return words


# ---------------------------------------------------------------------------
# exhaustive robustness sweep: outputs must agree with the uncorrupted
# input at every block whose margin magnitude exceeds the flip budget

def robustness_violations(cores, core_sizes, budgets2, patterns, length) -> int:
    xs = np.arange(1 << length, dtype=np.uint64)
    core_sizes = np.asarray(core_sizes, dtype=np.int64)  # signed margins, never uint8
    bad = 0
    for k in range(cores.size):
        m2 = 2 * np.bitwise_count(xs & cores[k]) - core_sizes[k]
        robust = np.abs(m2) > budgets2[k]
        out = m2 > 0
        for p in patterns:
            out_y = 2 * np.bitwise_count((xs ^ p) & cores[k]) > core_sizes[k]
            bad += int(np.count_nonzero(robust & (out != out_y)))
    return bad
