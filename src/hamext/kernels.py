"""Hot enumeration kernels with two interchangeable backends.

The numba backend compiles the inner loops with @njit; the numpy
backend expresses the same sweeps as vectorized array passes. Selection
happens once at import from HAMEXT_BACKEND:

* ``auto``  (default) - numba if it imports, else numpy;
* ``numba`` - require numba, raise if unavailable;
* ``numpy`` - force the pure-numpy path.

Both backends are kept importable (``*_np`` / ``*_nb`` names) so the
equivalence tests and benchmarks/bench_kernels.py can compare them.
``distance_to_set`` is whole-array numpy work in either lane, so it has
one implementation. All kernels are deterministic and allocate their
own outputs.

Vertex convention: a point of {0,1}^n is an integer mask with bit i
holding position i; a set of points is either a bool indicator array
of length 2^n or an integer whose bit v flags vertex v.
"""

from __future__ import annotations

import os

import numpy as np

from .errors import DimensionError

_CHOICE = os.environ.get("HAMEXT_BACKEND", "auto").lower()
if _CHOICE not in ("auto", "numba", "numpy"):
    raise ValueError(f"HAMEXT_BACKEND must be auto|numba|numpy, got {_CHOICE!r}")

try:
    if _CHOICE == "numpy":
        raise ImportError
    from numba import njit

    _HAVE_NUMBA = True
except ImportError:
    _HAVE_NUMBA = False
    if _CHOICE == "numba":
        raise ImportError("HAMEXT_BACKEND=numba but numba is not importable")

    def njit(*args, **kwargs):  # decorator stub so _nb names still exist
        if args and callable(args[0]):
            return args[0]

        def wrap(fn):
            return fn

        return wrap


BACKEND = "numba" if _HAVE_NUMBA else "numpy"


# ---------------------------------------------------------------------------
# popcount

def popcount_np(a) -> np.ndarray:
    return np.bitwise_count(np.asarray(a, dtype=np.uint64)).astype(np.int64)


@njit(cache=True)
def _pc64(x):
    x = x - ((x >> np.uint64(1)) & np.uint64(0x5555555555555555))
    x = (x & np.uint64(0x3333333333333333)) + ((x >> np.uint64(2)) & np.uint64(0x3333333333333333))
    x = (x + (x >> np.uint64(4))) & np.uint64(0x0F0F0F0F0F0F0F0F)
    # fold the byte counts with shift-adds: a multiply would overflow
    x = x + (x >> np.uint64(8))
    x = x + (x >> np.uint64(16))
    x = x + (x >> np.uint64(32))
    return x & np.uint64(0x7F)


@njit(cache=True)
def popcount_nb(a):
    out = np.empty(a.size, dtype=np.int64)
    for i in range(a.size):
        out[i] = _pc64(np.uint64(a[i]))
    return out


# ---------------------------------------------------------------------------
# exact Hamming distance from every vertex of {0,1}^n to a vertex set

def distance_to_set(ind: np.ndarray, n: int) -> np.ndarray:
    """dist[..., v] = min over members u of popcount(v ^ u); n+1 for an empty set.

    The last axis of `ind` indexes the 2^n vertices; any leading axes
    batch independent sets, each swept on its own. Hamming distance sums
    one term per coordinate, so one min-plus pass per coordinate (each
    vertex against its partner across that coordinate) is exact. Values
    stay within n+2, far inside int8 for any n whose 2^n-entry array
    fits in memory.
    """
    if np.shape(ind)[-1:] != (1 << n,):
        raise DimensionError(f"last axis must hold the 2^{n} vertices, got shape {np.shape(ind)}")
    dist = np.where(ind, np.int8(0), np.int8(n + 1))
    batch = dist.shape[:-1]
    for i in range(n):
        pairs = dist.reshape(batch + (1 << (n - 1 - i), 2, 1 << i))
        np.minimum(pairs, pairs[..., ::-1, :] + np.int8(1), out=pairs)
    return dist


# ---------------------------------------------------------------------------
# minimum |neighborhood| over every subset of each size (exhaustive Harper)
#
# ball[v] is the vertex-set mask of the d-ball around vertex v; the sweep
# visits every subset mask of the 2^n vertices and records, per subset
# size, the smallest popcount of the union of member balls.

def subset_min_gamma_np(ball: np.ndarray) -> np.ndarray:
    nverts = ball.size
    masks = np.arange(1 << nverts, dtype=np.uint64)
    union = np.zeros(masks.size, dtype=np.uint64)
    for v in range(nverts):
        union[(masks >> np.uint64(v)) & np.uint64(1) == 1] |= ball[v]
    sizes = popcount_np(masks)
    gammas = popcount_np(union)
    mins = np.full(nverts + 1, np.iinfo(np.int64).max, dtype=np.int64)
    np.minimum.at(mins, sizes, gammas)
    return mins


@njit(cache=True)
def subset_min_gamma_nb(ball):
    nverts = ball.size
    total = 1 << nverts
    union = np.zeros(total, dtype=np.uint64)
    mins = np.full(nverts + 1, np.iinfo(np.int64).max, dtype=np.int64)
    mins[0] = 0
    for mask in range(1, total):
        low = mask & (-mask)
        v = 0
        while (low >> v) & 1 == 0:
            v += 1
        union[mask] = union[mask ^ low] | ball[v]
        size = _pc64(np.uint64(mask))
        g = _pc64(np.uint64(union[mask]))
        if g < mins[size]:
            mins[size] = np.int64(g)
    return mins


# ---------------------------------------------------------------------------
# majority outputs for every input of length L (distribution sweeps)

def all_outputs_np(cores: np.ndarray, core_sizes: np.ndarray, length: int) -> np.ndarray:
    xs = np.arange(1 << length, dtype=np.uint64)
    words = np.zeros(xs.size, dtype=np.uint32)
    for k in range(cores.size):
        ones = popcount_np(xs & cores[k])
        words |= ((2 * ones > core_sizes[k]).astype(np.uint32)) << np.uint32(k)
    return words


@njit(cache=True)
def all_outputs_nb(cores, core_sizes, length):
    total = 1 << length
    words = np.zeros(total, dtype=np.uint32)
    for x in range(total):
        w = np.uint32(0)
        for k in range(cores.size):
            ones = _pc64(np.uint64(x) & cores[k])
            if 2 * np.int64(ones) > core_sizes[k]:
                w |= np.uint32(1) << np.uint32(k)
        words[x] = w
    return words


# ---------------------------------------------------------------------------
# exhaustive robustness sweep: outputs must agree with the uncorrupted
# input at every block whose margin magnitude exceeds the flip budget

def robustness_violations_np(cores, core_sizes, budgets2, patterns, length) -> int:
    xs = np.arange(1 << length, dtype=np.uint64)
    bad = 0
    for k in range(cores.size):
        ones = popcount_np(xs & cores[k])
        m2 = 2 * ones - core_sizes[k]
        robust = np.abs(m2) > budgets2[k]
        out = m2 > 0
        for p in patterns:
            ones_y = popcount_np((xs ^ p) & cores[k])
            out_y = (2 * ones_y - core_sizes[k]) > 0
            bad += int(np.count_nonzero(robust & (out != out_y)))
    return bad


@njit(cache=True)
def robustness_violations_nb(cores, core_sizes, budgets2, patterns, length):
    total = 1 << length
    bad = 0
    for x in range(total):
        for k in range(cores.size):
            m2 = 2 * np.int64(_pc64(np.uint64(x) & cores[k])) - core_sizes[k]
            if m2 < 0:
                robust = -m2 > budgets2[k]
            else:
                robust = m2 > budgets2[k]
            if not robust:
                continue
            out = m2 > 0
            for j in range(patterns.size):
                y = np.uint64(x) ^ patterns[j]
                m2y = 2 * np.int64(_pc64(y & cores[k])) - core_sizes[k]
                if (m2y > 0) != out:
                    bad += 1
    return bad


if _HAVE_NUMBA:
    popcount = popcount_nb
    subset_min_gamma = subset_min_gamma_nb
    all_outputs = all_outputs_nb
    robustness_violations = robustness_violations_nb
else:
    popcount = popcount_np
    subset_min_gamma = subset_min_gamma_np
    all_outputs = all_outputs_np
    robustness_violations = robustness_violations_np
