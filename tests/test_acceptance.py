"""The verification suite: one test per criterion, each printing its
pass/fail line. Every criterion is deterministic (fixed Philox seeds).
"""

import pytest

from hamext.acceptance import ALL_CRITERIA, crit_adversary_soundness, crit_output_bias

# Every criterion is deterministic, so its detail line is pinned: a speed-up
# that changes what the suite reports shows up here.
GOLDEN_DETAILS = {
    1: "bit ones [128, 128], pair counts [64, 64, 64, 64]",
    2: "168 patterns x 16384 inputs, 0 violations",
    3: "blocks (1, 64, 4096, 262144), worst per-stage costs [1, 14, 72, 795] "
       "vs budgets [1, 16, 256, 4096]",
    4: "corrupted frequency 0/400, clean frequency 0.4550",
    5: "136 cases, mismatches: []",
    6: "n=10: 0.123047 <= 0.224522; n=100: 0.039795 <= 0.071000; "
       "n=1000: 0.012613 <= 0.022452; n=10000: 0.003989 <= 0.007100",
    7: "n in 16..4096, violations: []",
    8: "violations 0, non-tight ball families []",
    9: "|nu| = 13, threshold 0, naturals p_n = n: True",
    10: "60/64 maxima in [0.5, 1.6] (min 0.465, max 2.101)",
}


@pytest.mark.parametrize("runner", ALL_CRITERIA,
                         ids=[f.__name__.replace("crit_", "") for f in ALL_CRITERIA])
def test_criterion(runner):
    result = runner()
    verdict = "PASS" if result.passed else "FAIL"
    print(f"[{verdict}] criterion {result.number}: {result.name} - {result.detail}")
    assert result.passed, f"criterion {result.number} failed: {result.detail}"
    assert result.detail == GOLDEN_DETAILS[result.number]


@pytest.mark.parametrize("runner", (crit_adversary_soundness, crit_output_bias),
                         ids=["adversary_soundness", "output_bias"])
def test_shared_adversary_runs_give_identical_results(runner):
    first, second = runner(), runner()
    assert (first.passed, first.detail) == (second.passed, second.detail)
