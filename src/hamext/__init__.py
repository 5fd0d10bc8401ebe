"""Majority-vote randomness extraction on the finite Hamming cube.

Block schedules and the majority reduction, budget-constrained bit-flip
adversaries, exact cube combinatorics (binomial tails, canonical
spheres, exhaustive isoperimetric minima), and the quantitative
probability bounds that make every finite claim checkable.
"""

__version__ = "0.1.0"

from .adversary import (AdversarySchedule, CorruptionReport, corrupt,
                        force_majority_zero, force_output_zero_generic,
                        stages_from_blocks, verify_similarity)
from .budgets import (BudgetFunction, affine_sqrt_budget, lil_budget,
                      parse_budget, power_budget, table_budget)
from .cube import (EventFamily, SphereSpec, binomial_tail, hamming_distance,
                   harper_min_neighborhood, make_sphere, neighborhood)
from .extractor import (BlockSchedule, ExtractionTrace, check_schedule,
                        extract, majority_bit, make_schedule,
                        prefix_distances, psi_deviation, similar_g_phi,
                        similar_p_N)
from .keylemma import (KeyLemmaInstance, ball_containment_probability,
                       containment_profile, sphere_tail_bound,
                       verify_key_lemma)
from .stats import (apply_selection, berry_esseen_bound, binomial_cdf_gap,
                    frequency_on_set, majority_refinement,
                    small_ball_bound, small_ball_probability,
                    sparse_subsequence, weber_series)
