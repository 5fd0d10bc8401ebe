import hashlib
import json
from fractions import Fraction

import numpy as np
import pytest

from hamext import keylemma, kernels
from hamext.cube import EventFamily, binomial_tail, binomial_tails, bracket, make_sphere
from hamext.errors import DomainError, ResourceError
from hamext.keylemma import TRIALS_CEILING, containment_profile, verify_key_lemma
from hamext.rng import generator


def containment_oracle(family: EventFamily, d: int) -> Fraction:
    """Brute force: for every X, walk the whole radius-d ball."""
    n = family.dimension
    good = 0
    for x in range(1 << n):
        inside = all(y in family.members
                     for y in range(1 << n) if bin(x ^ y).count("1") <= d)
        good += inside
    return Fraction(good, 1 << n)


def contained_counts_oracle(inside: np.ndarray, n: int) -> list[list[int]]:
    """Brute force: per row and d, the points whose every vertex within
    distance d is a member."""
    return [[sum(all(row[y] for y in range(1 << n) if (x ^ y).bit_count() <= d)
                 for x in range(1 << n))
             for d in range(n + 1)]
            for row in inside]


def weight_cut(n, w):
    return EventFamily(n, frozenset(v for v in range(1 << n)
                                    if bin(v).count("1") <= w))


class TestBallContainment:
    def test_weight_cut_example(self):
        fam = weight_cut(4, 2)
        assert containment_oracle(fam, 1) == Fraction(5, 16)
        assert containment_profile(fam)[1] == Fraction(5, 16)

    def test_radius_zero_is_event_probability(self):
        fam = weight_cut(5, 2)
        assert containment_profile(fam)[0] == fam.probability

    def test_full_cube(self):
        fam = EventFamily(3, frozenset(range(8)))
        for d in range(4):
            assert containment_profile(fam)[d] == 1

    def test_empty_family(self):
        fam = EventFamily(3, frozenset())
        assert containment_profile(fam) == [Fraction(0)] * 4

    def test_matches_oracle_random_families(self):
        rng = generator(6)
        for n in (3, 4, 5):
            for _ in range(8):
                size = int(rng.integers(0, 1 << n))
                members = frozenset(int(v) for v in rng.choice(1 << n, size, replace=False))
                fam = EventFamily(n, members)
                profile = containment_profile(fam)
                for d in range(n + 1):
                    assert profile[d] == containment_oracle(fam, d)

    def test_radii_at_and_past_dimension(self):
        rng = generator(11)
        for n in (1, 3, 4):
            members = frozenset(int(v) for v in rng.choice(1 << n, (1 << n) - 1, replace=False))
            for fam in (EventFamily(n, frozenset()), EventFamily(n, frozenset(range(1 << n))),
                        EventFamily(n, members)):
                for max_d in (n, n + 2):
                    assert containment_profile(fam, max_d) == [
                        containment_oracle(fam, d) for d in range(max_d + 1)]

    @pytest.mark.parametrize("n", range(7))
    def test_contained_counts_match_brute_force(self, n):
        rng = generator(60 + n)
        density = rng.random((8, 1))
        full_minus_one = np.ones(1 << n, dtype=np.bool_)
        full_minus_one[rng.integers(0, 1 << n)] = False
        inside = np.vstack([rng.random((8, 1 << n)) < density,
                            np.zeros(1 << n, dtype=np.bool_), full_minus_one])
        expected = contained_counts_oracle(inside, n)
        assert keylemma._contained_counts(inside, n).tolist() == expected

    def test_ceiling(self):
        with pytest.raises(ResourceError):
            containment_profile(EventFamily(17, frozenset()))
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
        r_of_size = [max(r for r in range(-1, n) if binomial_tail(n, r) <= s) for s in range(total)]
        bound_of_size = np.array([[binomial_tail(n, r + 1 - d) for d in range(n + 1)]
                                  for r in r_of_size])
        assert (contained <= bound_of_size[members.sum(axis=1)]).all()
        # the library's per-family path reads the same rows
        tails = binomial_tails(n)
        sample = generator(44).choice(index.size, 200, replace=False).tolist()
        for row in [0, index.size - 1, *sample]:
            fam = EventFamily(n, frozenset(np.flatnonzero(members[row]).tolist()))
            assert bracket(tails, fam.size) == r_of_size[fam.size]
            assert containment_profile(fam) == [Fraction(int(c), total) for c in contained[row]]

    def test_monotone_in_radius_and_event(self):
        fam = weight_cut(6, 2)
        bigger = weight_cut(6, 3)
        prof_small, prof_big = containment_profile(fam), containment_profile(bigger)
        for d in range(6):
            assert prof_small[d + 1] <= prof_small[d]
            assert prof_small[d] <= prof_big[d]

    def test_ball_families_attain_shifted_tails(self):
        for n in (4, 6, 8):
            for rho in range(n // 2 + 1):
                fam = weight_cut(n, rho)
                r = bracket(binomial_tails(n), fam.size)
                assert r == rho
                profile = containment_profile(fam)
                for d in range(n + 1):
                    assert profile[d] == Fraction(binomial_tail(n, r - d), 1 << n)

    def test_harper_substitution_never_shrinks_containment(self):
        # replacing the complement by the canonical sphere of its size
        rng = generator(31)
        for n in (4, 6, 8):
            for _ in range(12):
                size = int(rng.integers(1, 1 << n))
                members = frozenset(int(v) for v in rng.choice(1 << n, size, replace=False))
                fam = EventFamily(n, members)
                comp_sphere = make_sphere(n, (1 << n) - size, "0" * n)
                hat = EventFamily(n, frozenset(range(1 << n)) - frozenset(np.flatnonzero(comp_sphere.indicator()).tolist()))
                prof, prof_hat = containment_profile(fam), containment_profile(hat)
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
    # JSON with Fractions as strings, taken from the per-family frozenset
    # implementation; the batched membership sweep must reproduce them
    @pytest.mark.parametrize("n, digest", [
        (4, "19ccfd8b48fd4529083c9ff74132252e11cf9993d2337937a2f61672cfa46f78"),
        (5, "a01a2a8bd471cbb8ac9033b8ee0ae777e5a9c6ab9669b7222c0b1ae8e4b7d26d"),
        (6, "dcb0caa97b13c17c97fe3b5f01f99304f1d8b498772652ff4244f33454a972a0"),
        (7, "7bf2bcf11c4528d0483bb97325d1b105740f5502c069c315784c636e1f10ec38"),
        (8, "b25ee1467b675fbc4feacbee18a725d90b327d9e328d52136795a199ac105efc"),
        (9, "60c80ee584fdf9c74e757ba221794272f542be7b708a00f1e28bed488646511b"),
        (10, "245f7a05e08599de47de4a83f1572da5108817cacdf8981c900d6f739cef1359"),
        (11, "37aef95701b6c725b1d8eb3d43764ab649532cacd96ade29142e101d07e43344"),
        (12, "82f6929bc19e9839e278661f23a06504a68902cce77a9d9bd0b276b951a75d2e"),
    ])
    def test_pinned_criterion_eight_reports(self, n, digest):
        report = verify_key_lemma(n, 200, Fraction(1, 2), 1000 + n)
        text = json.dumps(report, sort_keys=True, default=str)
        assert hashlib.sha256(text.encode()).hexdigest() == digest
