"""Majority-vote randomness extraction on the finite Hamming cube.

Block schedules and the majority reduction, budget-constrained bit-flip
adversaries, exact cube combinatorics (binomial tails, canonical
spheres, exhaustive isoperimetric minima), and the quantitative
probability bounds that make every finite claim checkable.
"""

__version__ = "0.1.0"

from .adversary import (CorruptionReport, corrupt, force_majority_zero,
                        stages_from_blocks, verify_similarity)
from .bits import prefix_distances
from .budgets import BudgetFunction, parse_budget
from .cube import binomial_tail, harper_min_neighborhood, make_sphere
from .extractor import (BlockSchedule, ExtractionTrace, extract, make_schedule,
                        psi_deviation, similar_p_N)
from .keylemma import verify_key_lemma
from .stats import (apply_selection, berry_esseen_bound, binomial_cdf_gap,
                    frequency_on_set, majority_refinement,
                    small_ball_bound, small_ball_probability,
                    sparse_subsequence, weber_series)
