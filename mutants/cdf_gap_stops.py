"""Compare stats.binomial_cdf_gap with its two stopping-test mutants.

    PYTHONPATH=src python mutants/cdf_gap_stops.py LO HI [STEP]

For every n in range(LO, HI, STEP) it walks the row once, as
binomial_cdf_gap does, and carries three copies of the walk's state: the
function's own, one whose lower stopping test reads `and` for `or`, and
one whose upper stopping test drops its `phi` half. It prints how many
sizes it checked, how many results differ from the function's bit for
bit, the first 20 differences and the time taken. Every 499th n the
function's own copy is held to binomial_cdf_gap itself.
"""

import math
import sys
import time

from hamext.cube import _middle_out_tails
from hamext.stats import binomial_cdf_gap, normal_cdf

VARIANTS = ("function", "lower-and", "upper-no-phi")


def gaps(n: int) -> dict[str, float]:
    denom = 1 << n
    scale = 2.0 / math.sqrt(n)
    half = n / 2.0
    first = abs(1.0 - normal_cdf((n - half) * scale))
    state = {v: [first, True, True] for v in VARIANTS}  # worst, below, above
    for j, cdf in _middle_out_tails(n):
        lo_a, lo_phi = cdf / denom, normal_cdf((j - half) * scale)
        hi_a, hi_phi = (denom - cdf) / denom, normal_cdf((n - 1 - j - half) * scale)
        for v, st in state.items():
            worst, below, above = st
            if below:
                worst = max(worst, abs(lo_a - lo_phi))
                if v == "lower-and":
                    below = lo_a > worst and lo_phi > worst
                else:
                    below = lo_a > worst or lo_phi > worst
            if above:
                worst = max(worst, abs(hi_a - hi_phi))
                if v == "upper-no-phi":
                    above = 1.0 - hi_a > worst
                else:
                    above = 1.0 - hi_a > worst or 1.0 - hi_phi > worst
            st[:] = worst, below, above
        if not any(below or above for _, below, above in state.values()):
            break
    return {v: st[0] for v, st in state.items()}


if __name__ == "__main__":
    lo, hi = int(sys.argv[1]), int(sys.argv[2])
    step = int(sys.argv[3]) if len(sys.argv) > 3 else 1
    start = time.perf_counter()
    differences = []
    for n in range(lo, hi, step):
        got = gaps(n)
        if n % 499 == 0:
            assert got["function"] == binomial_cdf_gap(n), n
        differences += [(n, v, got["function"], got[v]) for v in VARIANTS[1:]
                        if got[v] != got["function"]]
    print(f"n in range({lo}, {hi}, {step}): {len(range(lo, hi, step))} sizes, "
          f"{len(differences)} differences, {time.perf_counter() - start:.1f} s")
    for row in differences[:20]:
        print(*row)
