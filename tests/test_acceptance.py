"""The verification suite: one test per criterion, each printing its
pass/fail line. Every criterion is deterministic (fixed Philox seeds).
"""

import pytest

from hamext.acceptance import ALL_CRITERIA, crit_adversary_soundness, crit_output_bias


@pytest.mark.parametrize("runner", ALL_CRITERIA,
                         ids=[f.__name__.replace("crit_", "") for f in ALL_CRITERIA])
def test_criterion(runner):
    result = runner()
    verdict = "PASS" if result.passed else "FAIL"
    print(f"[{verdict}] criterion {result.number}: {result.name} "
          f"({result.elapsed:.2f}s) - {result.detail}")
    assert result.passed, f"criterion {result.number} failed: {result.detail}"


@pytest.mark.parametrize("runner", (crit_adversary_soundness, crit_output_bias),
                         ids=["adversary_soundness", "output_bias"])
def test_shared_adversary_runs_give_identical_results(runner):
    first, second = runner(), runner()
    assert (first.passed, first.detail) == (second.passed, second.detail)
