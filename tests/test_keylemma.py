import hashlib
import json
import os
import subprocess
import sys
import tracemalloc
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from hamext import keylemma, kernels
from hamext.acceptance import crit_key_lemma
from hamext.cli import main
from hamext.cube import binomial_tail, binomial_tails, bracket, gamma_sizes, make_sphere
from hamext.errors import DomainError, ResourceError
from hamext.keylemma import TRIALS_CEILING, verify_key_lemma
from oracles import (binomial_row, check_keylemma_report, contained_counts_oracle, gamma_oracle,
                     profile_oracle, row_bracket, row_tail)

SRC = Path(__file__).resolve().parents[1] / "src"


def containment_profile(n: int, members) -> list[Fraction]:
    """P(ball_d(X) ⊆ E) for d = 0..n, exactly, for the event E of the
    vertex masks `members`: 2^n less the gamma_sizes row of its complement."""
    inside = np.zeros((1, 1 << n), dtype=np.bool_)
    inside[0, list(members)] = True
    return [Fraction((1 << n) - c, 1 << n) for c in gamma_sizes(~inside, n)[0].tolist()]


class TestBallContainment:
    def test_weight_cut_example(self):
        members = gamma_oracle({0}, 4, 2)  # weight at most 2
        assert profile_oracle(4, members)[1] == Fraction(5, 16)
        assert containment_profile(4, members)[1] == Fraction(5, 16)

    def test_radius_zero_is_event_probability(self):
        members = gamma_oracle({0}, 5, 2)
        assert containment_profile(5, members)[0] == Fraction(len(members), 1 << 5)

    def test_full_cube(self):
        for d in range(4):
            assert containment_profile(3, range(8))[d] == 1

    def test_empty_family(self):
        assert containment_profile(3, ()) == [Fraction(0)] * 4

    def test_matches_oracle_random_families(self):
        rng = np.random.Generator(np.random.Philox(key=6))
        for n in (3, 4, 5):
            for _ in range(8):
                size = int(rng.integers(0, 1 << n))
                members = frozenset(int(v) for v in rng.choice(1 << n, size, replace=False))
                assert containment_profile(n, members) == profile_oracle(n, members)

    def test_radii_up_to_dimension(self):
        rng = np.random.Generator(np.random.Philox(key=11))
        for n in (1, 3, 4):
            members = frozenset(int(v) for v in rng.choice(1 << n, (1 << n) - 1, replace=False))
            for fam in (frozenset(), frozenset(range(1 << n)), members):
                assert containment_profile(n, fam) == profile_oracle(n, fam)

    @pytest.mark.parametrize("n", range(7))
    def test_contained_counts_match_brute_force(self, n):
        rng = np.random.Generator(np.random.Philox(key=60 + n))
        density = rng.random((8, 1))
        full_minus_one = np.ones(1 << n, dtype=np.bool_)
        full_minus_one[rng.integers(0, 1 << n)] = False
        inside = np.vstack([rng.random((8, 1 << n)) < density,
                            np.zeros(1 << n, dtype=np.bool_), full_minus_one])
        expected = contained_counts_oracle([set(np.flatnonzero(row).tolist()) for row in inside], n)
        assert ((1 << n) - gamma_sizes(~inside, n)).tolist() == expected

    def test_ceiling(self):
        with pytest.raises(ResourceError):
            verify_key_lemma(17, 1, Fraction(1, 2), 0)
        # 100 001 trials at n = 16 asked for a 6.5 GB array and were killed
        with pytest.raises(ResourceError):
            verify_key_lemma(16, TRIALS_CEILING + 1, Fraction(1, 2), 0)


def ball_row(label: str) -> dict:
    """The stress-set family `label` of the n = 4 report at threshold 3/4,
    whose size cap 12 admits the radius-2 ball (b(4,2) = 11)."""
    report = verify_key_lemma(4, 0, Fraction(3, 4), 0)
    return next(f for f in report["families"] if f["label"] == label)


class TestSphereTailBound:
    def test_r_bracket(self):
        fam = ball_row("ball r=2 c=0")  # |E| = 11 = b(4,2)
        assert fam["size"] == 11 and fam["r"] == 2
        assert fam["rows"][1]["bound"] == Fraction(11, 16)  # q_2 = b(4,2)/16

    def test_radius_past_bracket_gives_zero(self):
        fam = ball_row("ball r=0 c=0")  # r = 0
        assert fam["r"] == 0
        assert fam["rows"][2]["bound"] == 0
        assert fam["rows"][1]["bound"] == Fraction(1, 16)


class TestCentralInequality:
    def test_exhaustive_all_families_n4(self):
        # every proper subset of {0,1}^4 (bit v of the row index flags vertex
        # v), every d, in one batched distance sweep over the complements
        n, total = 4, 16
        index = np.arange((1 << total) - 1)
        members = (index[:, None] >> np.arange(total)) & 1 == 1
        dist = kernels.distance_to_set(~members, n)
        contained = np.stack([np.count_nonzero(dist > d, axis=1) for d in range(n + 1)], axis=1)
        row = binomial_row(n)
        r_of_size = [row_bracket(row, s) for s in range(total)]
        bound_of_size = np.array([[row_tail(row, r + 1 - d) for d in range(n + 1)]
                                  for r in r_of_size])
        assert (contained <= bound_of_size[members.sum(axis=1)]).all()
        # the library's per-family path reads the same rows
        tails = binomial_tails(n)
        rng = np.random.Generator(np.random.Philox(key=44))
        sample = rng.choice(index.size, 200, replace=False).tolist()
        for row in [0, index.size - 1, *sample]:
            fam = np.flatnonzero(members[row]).tolist()
            assert bracket(tails, len(fam)) == r_of_size[len(fam)]
            assert containment_profile(n, fam) == [Fraction(int(c), total) for c in contained[row]]

    def test_monotone_in_radius_and_event(self):
        prof_small = containment_profile(6, gamma_oracle({0}, 6, 2))
        prof_big = containment_profile(6, gamma_oracle({0}, 6, 3))
        for d in range(6):
            assert prof_small[d + 1] <= prof_small[d]
            assert prof_small[d] <= prof_big[d]

    def test_ball_families_attain_shifted_tails(self):
        for n in (4, 6, 8):
            for rho in range(n // 2 + 1):
                members = gamma_oracle({0}, n, rho)
                r = bracket(binomial_tails(n), len(members))
                assert r == rho
                profile = containment_profile(n, members)
                for d in range(n + 1):
                    assert profile[d] == Fraction(binomial_tail(n, r - d), 1 << n)

    def test_harper_substitution_never_shrinks_containment(self):
        # replacing the complement by the canonical sphere of its size
        rng = np.random.Generator(np.random.Philox(key=31))
        for n in (4, 6, 8):
            for _ in range(12):
                size = int(rng.integers(1, 1 << n))
                members = frozenset(int(v) for v in rng.choice(1 << n, size, replace=False))
                comp_sphere = make_sphere(n, (1 << n) - size, "0" * n)
                hat = np.flatnonzero(~comp_sphere.indicator()).tolist()
                prof, prof_hat = containment_profile(n, members), containment_profile(n, hat)
                for d in range(n + 1):
                    assert prof[d] <= prof_hat[d]


class TestVerifyKeyLemma:
    def test_zero_violations_with_sampled_and_stress_families(self):
        report = verify_key_lemma(8, trials=200, p_threshold=Fraction(1, 2), seed=11)
        assert report["violations"] == 0
        assert len(report["families"]) >= 200

    def test_ball_rows_are_tight_everywhere(self):
        report = verify_key_lemma(6, trials=0, p_threshold=Fraction(1, 2), seed=4)
        balls = [f for f in report["families"] if f["label"].startswith("ball ")]
        assert balls
        for fam in balls:
            assert fam["tight_at"] == list(range(7))

    def test_modulus_monotone(self):
        report = verify_key_lemma(10, trials=5, p_threshold=Fraction(1, 2), seed=7)
        steps = [report["modulus"][j] for j in range(1, 9)]
        assert all(a <= b for a, b in zip(steps, steps[1:]))
        assert all(s is not None for s in steps)

    def test_no_families_under_a_tiny_threshold(self):
        report = verify_key_lemma(3, trials=0, p_threshold=Fraction(1, 16), seed=0)
        assert report["families"] == [] and report["violations"] == 0

    def test_threshold_domain(self):
        # 0 and 1 are refused too: a threshold under 1 alone keeps every family proper
        for threshold in (Fraction(3, 2), Fraction(0), Fraction(1)):
            with pytest.raises(DomainError):
                verify_key_lemma(4, 1, threshold, 0)

    @pytest.mark.parametrize("n, trials", [(-2, 1), (4, -1), (4, 1.5), (2.0, 1)])
    def test_dimension_and_trials_domain(self, n, trials):
        with pytest.raises(DomainError):
            verify_key_lemma(n, trials, Fraction(1, 2), 0)

    # sha256 of the nine reports acceptance criterion 8 reads, as canonical
    # JSON with Fractions as strings, and their derived numbers recomputed;
    # the families come from the rng.Sampler draws that tests/test_rng.py
    # replays from the Philox words
    @pytest.mark.parametrize("n, digest", [
        (4, "43ff00949844a0e80f14eb38a009f14a15fb57c28e6ffc8a7b5e7a39d4acb4b9"),
        (5, "3c8b172281087f95a22f5375fbc5e7c2c4e2c4d040565139c2623765e340eb0b"),
        (6, "c5724e88c55c6b4e162a99c506be3eb53fe7d5153db74a4aca28a5eee30b48fb"),
        (7, "5e0d0948803d98bc967e6fccf07398c50127bd6c8fe29dea973b0a3bb873a244"),
        (8, "f5947d4991715d5580f3a88e31821269d0b1435452186a123940129e35670be0"),
        (9, "468757a4e180e26b5b2b8a4599d2e28b6e0d85571b369c6428c16a7aaa12865f"),
        (10, "9c3a6d11487e225759ce82343ca560c933f8faa61356f3261ccf9a4b3dea5870"),
        (11, "8321d81d3ac48682b2eacd8838b8c8529592acacf0d1fca7a284879955e0cb33"),
        (12, "e4f841bdf2055cf9d275a652dc6ee3343d1b97c249b2c9c0dcfc834cbcd27975"),
    ], ids=[f"n{n}" for n in range(4, 13)])
    def test_pinned_criterion_eight_reports(self, n, digest):
        report = verify_key_lemma(n, 200, Fraction(1, 2), 1000 + n)
        text = json.dumps(report, sort_keys=True, default=str)
        assert hashlib.sha256(text.encode()).hexdigest() == digest
        check_keylemma_report(report)

    # the complement rows, built once, and distance_to_set's int8 distances
    # and its int8 temporary per pass peak near 3 bytes per family-vertex,
    # plus the stress masks and the report (3.98 at n = 12, 3.24 at n = 16);
    # the membership rows, their vstack copy and its complement read 5.91
    # and 5.01, and one bincount over a flattened int64 (families, 2^n)
    # index array, in place of one per row, read 19
    @pytest.mark.parametrize("n, trials", [(12, 200), (16, 64)])
    def test_peak_at_most_four_and_a_half_bytes_per_family_vertex(self, n, trials):
        tracemalloc.start()
        try:
            report = verify_key_lemma(n, trials, Fraction(1, 2), 1000 + n)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 4.5 * (len(report["families"]) << n)


# the process's own peak, VmHWM in KiB: not RUSAGE_CHILDREN's maximum over
# every child the test run has waited for, nor its ru_maxrss, which Linux
# raises at exec to the peak of the process that started it, here pytest's,
# which one run of the suite had taken to 291 MB by then
CLI_PEAK = """
import sys
from hamext.cli import main
code = main(sys.argv[1:])
print(code, next(int(line.split()[1]) for line in open("/proc/self/status")
                 if line.startswith("VmHWM:")))
"""


def test_cli_keylemma_at_n15_peaks_at_most_160_mb(tmp_path):
    # 1044 families of 2^15 vertices: 135 MB in ~1.8 s on 2 cores, and
    # 200 MB while the membership rows were copied twice
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [str(SRC), *filter(None, [os.environ.get("PYTHONPATH")])])}
    run = subprocess.run(
        [sys.executable, "-c", CLI_PEAK, "keylemma", "--n", "15", "--trials", "1024",
         "--out-dir", str(tmp_path)],
        env=env, capture_output=True, text=True, timeout=120)
    code, peak_kib = map(int, run.stdout.split()[-2:])
    assert code == 0
    assert peak_kib <= 160 << 10


def raise_counts(monkeypatch, cells):
    """Make gamma_sizes report an empty neighborhood of the complement, so
    the whole cube, 2^n, stays inside the event, at every (family row, d)
    of `cells`: more than any proper family's shifted tail, and more than
    the preceding tail a tight row equals."""
    original = keylemma.gamma_sizes

    def sizes(outside, n):
        out = original(outside, n)
        for row, d in cells:
            out[row, d] = 0
        return out

    monkeypatch.setattr(keylemma, "gamma_sizes", sizes)


class TestAViolationIsReported:
    def test_report_counts_each_row_over_its_bound(self, monkeypatch):
        clean = verify_key_lemma(6, 3, Fraction(1, 2), 4)
        ball = next(i for i, fam in enumerate(clean["families"]) if fam["label"].startswith("ball "))
        cells = [(0, 1), (ball, 2), (ball, 4)]
        raise_counts(monkeypatch, cells)
        report = verify_key_lemma(6, 3, Fraction(1, 2), 4)
        assert clean["violations"] == 0 and report["violations"] == len(cells)
        for row, d in cells:
            line = report["families"][row]["rows"][d]
            assert line["exact"] == 1 > line["bound"]
        assert clean["families"][ball]["tight_at"] == list(range(7))
        assert report["families"][ball]["tight_at"] == [0, 1, 3, 5, 6]
        untouched = [i for i in range(len(clean["families"])) if i not in (0, ball)]
        assert [report["families"][i] for i in untouched] == [clean["families"][i] for i in untouched]

    def test_criterion_eight_fails_and_names_the_count(self, monkeypatch):
        raise_counts(monkeypatch, [(0, 1)])  # once per n = 4..12
        result = crit_key_lemma()
        assert result.passed is False
        assert result.detail == "violations 9, non-tight ball families []"

    def test_cli_exits_two_and_still_writes_the_report(self, monkeypatch, tmp_path):
        raise_counts(monkeypatch, [(0, 1), (0, 2)])
        assert main(["keylemma", "--n", "5", "--trials", "10", "--seed", "1",
                     "--out-dir", str(tmp_path)]) == 2
        doc = json.loads((tmp_path / "keylemma.json").read_text())
        assert doc["violations"] == 2
