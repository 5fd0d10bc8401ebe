"""The verification suite: one test per criterion, each printing its
pass/fail line. Every criterion is deterministic (fixed Philox seeds).
"""

import json
from dataclasses import replace

import numpy as np
import pytest

from hamext import acceptance, cli, cube, kernels
from hamext.acceptance import (ALL_CRITERIA, crit_adversary_soundness, crit_harper_exhaustive,
                               crit_output_bias)
from hamext.keylemma import verify_key_lemma

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


def wrong_at(real, case, answer):
    """real, except that a call whose leading arguments are `case` returns
    answer(what real returns)."""
    return lambda *args: answer(real(*args)) if args[:len(case)] == case else real(*args)


def tampered_adversary_runs(shared=acceptance._adversary_runs):
    """The shared runs with seed 1 broken four ways: its stage 0 unforced,
    with a flip outside its window, a target left at 1 and its prefix
    budget violated."""
    sched, adv, p, runs = shared()
    first = runs[0]
    stage0 = first.per_stage[0]._replace(forced=False, flips=[-1])
    first = first._replace(per_stage=(stage0, *first.per_stage[1:]), prefix_ok=False,
                           corrupted=replace(first.corrupted, ones_count=1))
    return sched, adv, p, (first, *runs[1:])


def loosened_balls(*args, **kwargs):
    """verify_key_lemma's report with every ball family no longer tight at
    d = 0 (test_keylemma.py makes criterion 8 count violations)."""
    report = verify_key_lemma(*args, **kwargs)
    for fam in report["families"]:
        if fam["label"].startswith("ball "):
            fam["tight_at"] = fam["tight_at"][1:]
            fam["rows"][0]["exact"] /= 2
    return report


def raised_entry(index):
    """A copy of a table with its entry at `index` one larger."""
    def raise_entry(table):
        table = table.copy()
        table[index] += 1
        return table
    return raise_entry


# One wrong library answer per criterion, swapped in where the criterion
# reads it: (criterion, attribute, its stand-in, the words of the failing
# detail that name the case)
FAILING = [
    (1, (kernels, "all_outputs"), lambda *args: np.zeros(256, dtype=np.uint32),
     "bit ones [0, 0], pair counts [256, 0, 0, 0]"),
    (2, (kernels, "robustness_violations"), lambda *args: 3, "16384 inputs, 3 violations"),
    (3, (acceptance, "_adversary_runs"), tampered_adversary_runs,
     "; seed 1 stage 0 unforced/overranged; seed 1 stage 0 flip outside window; "
     "seed 1: targeted output not 0 after re-extraction; seed 1: prefix budget violated"),
    (4, (acceptance, "_adversary_runs"), tampered_adversary_runs, "corrupted frequency 1/400"),
    (5, (acceptance, "harper_table"),
     wrong_at(acceptance.harper_table, (3,), raised_entry((2, 1, 0))),
     "mismatches: [(3, 2, 1, 7, 6)]"),
    (6, (acceptance, "berry_esseen_bound"),
     wrong_at(acceptance.berry_esseen_bound, (100,), lambda bound: 0.01),
     "n=100: 0.039795 > 0.010000"),
    (7, (acceptance, "small_ball_bound"),
     wrong_at(acceptance.small_ball_bound, (256,), lambda bound: 0.0), "violations: [256]"),
    (8, (acceptance, "verify_key_lemma"), loosened_balls, "non-tight ball families [(4, 'ball "),
    (9, (acceptance, "sparse_subsequence"),
     lambda f, n_max: ([1 << m for m in range(1, n_max + 1)], 0),  # every block hit
     "rate above lnln at k [5, 9, 17, 33]"),
    (10, (acceptance, "bit_stream"), lambda seed, length: np.zeros(length, dtype=np.uint8),
     "0/64 maxima in [0.5, 1.6]"),
]


@pytest.mark.parametrize("number, target, stand_in, named", FAILING,
                         ids=[f"criterion-{row[0]}" for row in FAILING])
def test_a_wrong_answer_fails_its_criterion(monkeypatch, number, target, stand_in, named):
    monkeypatch.setattr(*target, stand_in)
    result = ALL_CRITERIA[number - 1]()
    assert result.passed is False
    assert named in result.detail


def test_harper_rows_sweep_each_dimension_once(monkeypatch):
    """All canonical spheres of a dimension share one distance_to_set sweep
    (harper_rows(4) made 86 when it read each (size, d) on its own)."""
    sweeps = []
    sweep = kernels.distance_to_set
    monkeypatch.setattr(kernels, "distance_to_set",
                        lambda ind, n: sweeps.append(n) or sweep(ind, n))
    cube._harper_table.cache_clear()
    acceptance.harper_rows(4)
    assert sweeps == [4]
    cube._harper_table.cache_clear()
    sweeps.clear()
    assert crit_harper_exhaustive().passed
    assert sweeps == [2, 3, 4]


def test_keylemma_exits_two_on_a_non_tight_ball_family(monkeypatch, tmp_path):
    # criterion 8 failed on such a report while `hamext keylemma` exited 0
    monkeypatch.setattr(cli, "verify_key_lemma", loosened_balls)
    assert cli.main(["keylemma", "--n", "5", "--trials", "10", "--seed", "1",
                     "--out-dir", str(tmp_path)]) == 2
    doc = json.loads((tmp_path / "keylemma.json").read_text())
    assert doc["violations"] == 0
    balls = [fam for fam in doc["families"] if fam["label"].startswith("ball ")]
    assert balls[0]["tight_at"] == [1, 2, 3, 4, 5]
