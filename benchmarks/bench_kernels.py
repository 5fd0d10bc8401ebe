"""Benchmark the numba kernels against their pure-numpy fallbacks.

Runs each hot sweep on a representative workload with both backends and
prints a timing table; a kernel with a single implementation
(`distance_to_set`) is timed in the numpy column only. The numba
functions are warmed once so JIT compilation is not billed to the
measurement. Without numba the `_nb` functions are the same loops run
as plain Python: the second column is then labelled as such and no
speed-up ratio is printed, since it would compare numpy against the
interpreter rather than against compiled code.

    python3 benchmarks/bench_kernels.py [repeats]
"""

import sys
import time

import numpy as np

from hamext import kernels


def _ball_masks(n, d):
    balls = []
    for v in range(1 << n):
        m = 0
        for w in range(1 << n):
            if bin(v ^ w).count("1") <= d:
                m |= 1 << w
        balls.append(m)
    return np.array(balls, dtype=np.uint64)


def workloads():
    rng = np.random.Generator(np.random.Philox(key=7))
    ind = rng.random(1 << 14) < 0.2
    ball = _ball_masks(4, 1)
    cores = np.array([(1 << 3) - 1, ((1 << 8) - 1) ^ ((1 << 3) - 1),
                      ((1 << 14) - 1) ^ ((1 << 8) - 1)], dtype=np.uint64)
    sizes = np.array([3, 5, 5], dtype=np.int64)
    budgets2 = np.array([2, 2, 2], dtype=np.int64)
    per_block = [[0] + [1 << i for i in range(s, e)]
                 for s, e in ((0, 3), (3, 8), (8, 14))]
    patterns = np.array([a | b | c for a in per_block[0] for b in per_block[1]
                         for c in per_block[2]], dtype=np.uint64)
    words = rng.integers(0, 1 << 63, size=1 << 20, dtype=np.uint64)
    return [
        ("popcount (2^20 words)",
         lambda f=kernels.popcount_np: f(words),
         lambda f=kernels.popcount_nb: f(words)),
        ("distance_to_set (n=14)",
         lambda: kernels.distance_to_set(ind, 14),
         None),
        ("subset_min_gamma (2^16 subsets)",
         lambda: kernels.subset_min_gamma_np(ball),
         lambda: kernels.subset_min_gamma_nb(ball)),
        ("all_outputs (2^14 inputs)",
         lambda: kernels.all_outputs_np(cores, sizes, 14),
         lambda: kernels.all_outputs_nb(cores, sizes, 14)),
        ("robustness (2^14 x 168 flips)",
         lambda: kernels.robustness_violations_np(cores, sizes, budgets2, patterns, 14),
         lambda: kernels.robustness_violations_nb(cores, sizes, budgets2, patterns, 14)),
    ]


def best_of(fn, repeats):
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def main():
    repeats = int(sys.argv[1]) if len(sys.argv) > 1 else 5
    rows = []
    for name, np_fn, nb_fn in workloads():
        t_np = best_of(np_fn, repeats)
        t_nb = None
        if nb_fn is not None:
            nb_fn()  # JIT warmup (a plain call without numba)
            t_nb = best_of(nb_fn, repeats)
        rows.append((name, t_np, t_nb))
    compiled = kernels.BACKEND == "numba"
    second = "numba" if compiled else "_nb python"
    width = max(len(r[0]) for r in rows)
    print(f"backend: {kernels.BACKEND}")
    if not compiled:
        print("numba is not active: the second column times the uncompiled _nb Python loops")
    header = f"{'kernel':<{width}}  {'numpy':>10}  {second:>10}"
    print(header + (f"  {'speedup':>8}" if compiled else ""))
    for name, t_np, t_nb in rows:
        line = f"{name:<{width}}  {t_np * 1e3:>8.2f}ms"
        if t_nb is None:  # one implementation serves both lanes
            print(line + f"  {'-':>10}")
            continue
        line += f"  {t_nb * 1e3:>8.2f}ms"
        print(line + (f"  {t_np / t_nb:>7.1f}x" if compiled else ""))


if __name__ == "__main__":
    main()
