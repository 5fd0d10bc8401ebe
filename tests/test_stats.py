import math
import random
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hamext.adversary import corrupt, stages_from_blocks
from hamext.bits import FLOAT_CEILING
from hamext.budgets import parse_budget
from hamext.cli import main
from hamext.errors import DomainError, ResourceError
from hamext.extractor import extract, make_schedule
from hamext.rng import bit_stream
from hamext.stats import (SELECTION_RULES, SMALL_BALL_BOUND_CEILING, WEBER_CEILING,
                          FrequencyReport, apply_selection, berry_esseen_bound,
                          binomial_cdf_gap, frequency_on_set, majority_refinement,
                          small_ball_bound, small_ball_probability,
                          sparse_subsequence, weber_series)
from oracles import binomial_row, cdf_gap_oracle, enumeration_oracle


def traced_peak(call, *args) -> int:
    """The peak of the memory traced while call(*args) runs, in bytes."""
    tracemalloc.start()
    try:
        call(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestBerryEsseenBound:
    def test_values(self):
        assert berry_esseen_bound(100) == pytest.approx(0.071, rel=1e-12)
        assert berry_esseen_bound(1) == pytest.approx(0.71, rel=1e-12)
        assert berry_esseen_bound(10000) == pytest.approx(0.0071, rel=1e-12)

    def test_constant_assembly(self):
        # d * rho / (sigma^3 sqrt(n)) with rho = sigma^3 = 1/8
        n = 57
        assert berry_esseen_bound(n) == pytest.approx(
            0.71 * (1 / 8) / ((1 / 8) * math.sqrt(n)), rel=1e-12)

    def test_an_n_past_the_float_range_is_refused(self):
        # 2^1100 leaked OverflowError from math.sqrt
        with pytest.raises(OverflowError):
            float(FLOAT_CEILING + 1)
        assert berry_esseen_bound(FLOAT_CEILING) == 0.71 / math.sqrt(float(FLOAT_CEILING))
        for n in (FLOAT_CEILING + 1, 1 << 1100, 10 ** 5000):
            with pytest.raises(ResourceError, match="past the resource ceiling"):
                berry_esseen_bound(n)


class TestBinomialCdfGap:
    def test_equals_full_scan_bit_for_bit(self):
        rng = random.Random(20260)
        for n in [*range(1, 1201), *(rng.randint(1201, 20000) for _ in range(10))]:
            assert binomial_cdf_gap(n) == cdf_gap_oracle(n), n

    def test_within_bound_exhaustive_small(self):
        for n in range(1, 1025):
            assert binomial_cdf_gap(n) <= berry_esseen_bound(n)

    def test_within_bound_geometric_to_1e4(self):
        n = 1024
        while n <= 10 ** 4:
            assert binomial_cdf_gap(n) <= berry_esseen_bound(n)
            n = int(n * 1.37) + 1
        assert binomial_cdf_gap(10 ** 4) <= berry_esseen_bound(10 ** 4)

    def test_ceiling(self):
        with pytest.raises(ResourceError):
            binomial_cdf_gap(10 ** 5 + 1)

    @pytest.mark.parametrize("n", [-3, 0])
    def test_sizes_below_one_are_domain_errors(self, n):
        with pytest.raises(DomainError):
            binomial_cdf_gap(n)


class TestSmallBall:
    def test_spec_case(self):
        assert enumeration_oracle(4, 0) == Fraction(6, 16)
        assert small_ball_probability(4, 0) == Fraction(6, 16)

    def test_whole_range(self):
        assert small_ball_probability(10, 5) == 1
        assert small_ball_probability(11, 6) == 1

    def test_matches_enumeration(self):
        for n in range(1, 13):
            for g in range(0, n // 2 + 2):
                assert small_ball_probability(n, g) == enumeration_oracle(n, g)

    def test_exact_at_most_envelope(self):
        assert float(small_ball_probability(100, 5)) <= 4 * 5 / math.sqrt(200 * math.pi) + 1.42 / 10
        for n in (16, 100, 999, 4096, 10000):
            gmax = int(math.sqrt(n) * math.log(n))
            for g in {0, 1, gmax // 2, gmax}:
                assert float(small_ball_probability(n, g)) <= small_ball_bound(n, g)

    def test_envelope_past_the_float_range_is_refused(self):
        # g = 2^1100 leaked OverflowError from 4.0 * g, and n = 2^1100 from
        # math.sqrt. Past a quarter of the float range 4.0 * g was inf, no bound
        # at all, and past SMALL_BALL_BOUND_CEILING 2 pi n was inf, which dropped
        # the first term: 1.42/sqrt(n) understated the envelope about 4x at g = 3
        g, n = FLOAT_CEILING // 4, SMALL_BALL_BOUND_CEILING
        assert math.isfinite(4.0 * g) and 4.0 * (g + 1) == math.inf
        assert math.isfinite(2.0 * math.pi * n) and 2.0 * math.pi * (n + 1) == math.inf
        assert small_ball_bound(10, g) < math.inf
        assert small_ball_bound(n, 3) == pytest.approx(
            12 / math.sqrt(2 * math.pi) / math.sqrt(n) + 1.42 / math.sqrt(n), rel=1e-12)
        for n, g in ((10, g + 1), (10, 1 << 1100), (1 << 1100, 3), (n + 1, 3)):
            with pytest.raises(ResourceError, match="past the resource ceiling"):
                small_ball_bound(n, g)

    def test_ceiling(self):
        # one n-bit term per window point: past 10^4 a call can take minutes
        row = binomial_row(10 ** 4)
        assert small_ball_probability(10 ** 4, 0) == Fraction(row[5000] - row[4999], 1 << 10 ** 4)
        for n in (10 ** 4 + 1, 10 ** 8):
            with pytest.raises(ResourceError):
                small_ball_probability(n, 0)


class TestWeberSeries:
    def test_naturals_hit_every_block(self):
        series = weber_series(range(1, 1025), 10)
        assert series.p_counts == list(range(1, 11))
        assert all(type(p) is int for p in series.p_counts)  # a bool would print true

    def test_powers_of_four(self):
        series = weber_series([4 ** j for j in range(1, 6)], 10)
        assert series.p_counts[-1] == 5

    def test_doubly_exponential(self):
        nu = [2 ** (2 ** j) for j in range(5)]  # 2, 4, 16, 256, 65536
        assert weber_series(nu, 16).p_counts == [math.floor(math.log2(n)) + 1
                                                  for n in range(1, 17)]

    def test_hit_blocks_match_per_element_blocks(self):
        rnd = random.Random(21)
        for trial in range(40):
            n_max = rnd.randrange(1, 80)
            top = 1 << rnd.randrange(1, 100)  # reaches past 2^64 and past 2^n_max
            draws = {rnd.randrange(1, top + 1) for _ in range(rnd.randrange(0, 30))}
            nu = sorted(draws | {1} if trial % 2 else draws)
            blocks = ((v - 1).bit_length() for v in nu if v >= 2)  # v in (2^(m-1), 2^m]
            expect = tuple(sorted({m for m in blocks if 1 <= m <= n_max}))
            assert weber_series(nu, n_max).hit_blocks == expect

    def test_rejects_nonincreasing(self):
        with pytest.raises(DomainError):
            weber_series([3, 3, 5], 4)
        with pytest.raises(DomainError):
            weber_series(range(5, 0, -1), 4)

    def test_rejects_non_integer_members(self):
        # 1.5 was read as 1; a bare integer is not a subsequence
        for nu in ([1.5, 2], [2, "3"], 5):
            with pytest.raises(DomainError):
                weber_series(nu, 4)

    @given(st.integers(0, 300), st.integers(0, 600), st.integers(1, 50), st.integers(1, 12))
    @settings(max_examples=200, deadline=None)
    def test_range_agrees_with_its_list(self, start, stop, step, n_max):
        nu = range(start, stop, step)
        if nu and start == 0:  # 0 is not a positive index, listed or not
            for form in (nu, list(nu)):
                with pytest.raises(DomainError):
                    weber_series(form, n_max)
            return
        lazy, listed = weber_series(nu, n_max), weber_series(list(nu), n_max)
        assert lazy.hit_blocks == listed.hit_blocks
        assert lazy.p_counts == listed.p_counts
        assert lazy.log_rates == listed.log_rates

    @pytest.mark.parametrize("n_max", [0, -1])
    def test_rejects_n_max_below_one(self, n_max):
        for nu in ([2, 4], []):
            with pytest.raises(DomainError):
                weber_series(nu, n_max)
        with pytest.raises(DomainError):
            sparse_subsequence(lambda k: float(k), n_max)

    def test_n_max_ceiling(self):
        # 16000 ran over the 4 300-digit int-to-text limit in the report,
        # and 10^14 never returned
        assert weber_series([2], WEBER_CEILING).p_counts[-1] == 1
        assert sparse_subsequence(lambda k: 0.0, WEBER_CEILING) == ([2], 0)
        for n_max in (WEBER_CEILING + 1, 16000, 10 ** 14):
            with pytest.raises(ResourceError):
                weber_series([2], n_max)
            with pytest.raises(ResourceError):
                sparse_subsequence(lambda k: 0.0, n_max)


class TestSparseSubsequence:
    def test_double_log_target(self):
        f = lambda k: math.log(math.log(max(k, 16)))
        nu, threshold = sparse_subsequence(f, 20)
        for _, k, rate in weber_series(nu, 20).log_rates:
            if k > threshold:
                assert rate <= f(k)

    def test_generous_rate_admits_every_block(self):
        nu, threshold = sparse_subsequence(lambda k: float(k), 12)
        assert nu == [1 << m for m in range(1, 13)]
        assert threshold == 0
        assert weber_series(nu, 12).p_counts == list(range(1, 13))

    def test_rate_falling_right_after_an_admission_sets_the_threshold(self):
        # block 2 is admitted at f(2) = 1 >= ln 2, but f(3) = 0 < ln 2 on
        # that same block, so the threshold moves to its top point 2^2
        nu, threshold = sparse_subsequence(lambda k: 1.0 if k <= 2 else 0.0, 2)
        assert (nu, threshold) == ([2, 4], 4)
        assert weber_series(nu, 2).log_rates[1][1:] == (3, math.log(2))

    def test_eventual_constant_rate(self):
        f = lambda k: 0.0 if k < 64 else 10.0
        nu, threshold = sparse_subsequence(f, 16)
        series = weber_series(nu, 16)
        assert threshold == 0  # admission waits until the rate allows it
        for (_, k, rate), p in zip(series.log_rates, series.p_counts):
            assert rate <= f(k) or p == 0


class TestSelectionRules:
    def test_select_all_counts_everything(self):
        rep = apply_selection("all", "10110")
        assert rep == FrequencyReport(5, 3)
        assert (rep.relative_frequency, rep.deviation_from_half) == (0.6, 0.6 - 0.5)

    def test_even_positions_of_alternating(self):
        rep = apply_selection("evens", "10" * 50)
        assert rep.positions_examined == 50
        assert rep.relative_frequency == 1.0

    def test_parity_rule_smoke(self):
        x = bit_stream(7, 1 << 16)
        rep = apply_selection("parity", x)
        assert abs(rep.relative_frequency - 0.5) < 0.02

    def test_a_mask_function_is_refused(self):
        # a mask function was called as given: np.arange(4) counted three of
        # 1011's positions and missed the one at position 2
        for rule in (SELECTION_RULES["evens"], lambda x: np.arange(4)):
            with pytest.raises(DomainError, match="unknown selection rule"):
                apply_selection(rule, "1011")

    def test_mask_matches_streaming_decide(self):
        # each rule's streaming definition: may position i be counted,
        # given only the prefix x[:i]
        streaming = {"all": lambda prefix: True,
                     "evens": lambda prefix: prefix.size % 2 == 0,
                     "parity": lambda prefix: int(prefix.sum()) % 2 == 0}
        assert streaming.keys() == SELECTION_RULES.keys()
        for name, decide in streaming.items():
            for length in (0, 1, 300):
                x = bit_stream(3, length)
                mask = SELECTION_RULES[name](x)
                assert mask.dtype == np.bool_
                assert mask.tolist() == [bool(decide(x[:i])) for i in range(length)]

    @pytest.mark.parametrize("name", sorted(SELECTION_RULES))
    def test_traced_peak_is_at_most_three_bytes_per_bit(self, name):
        # numpy reports its buffers to tracemalloc; an int64 mask or prefix
        # sum would take 8 bytes per bit
        x = bit_stream(5, 1 << 20)
        assert traced_peak(apply_selection, name, x) <= 3 * x.size

    # the stream entry points that already hold O(1) bytes per bit: the
    # stream, its majority votes, its corrupted copy, and its iterated-log
    # series as `hamext lil` reads and writes it (a full int64 prefix sum
    # took 19 bytes per bit there)
    @pytest.mark.parametrize("entry", ["bit_stream", "extract", "corrupt", "lil"])
    def test_stream_entry_points_peak_at_most_two_bytes_per_bit(self, entry, tmp_path):
        sched = make_schedule(parse_budget("table:0"), 21)  # 2^20 bits in all
        x = bit_stream(5, sched.total_length)
        adv = stages_from_blocks(sched, parse_budget("power:2/3"))
        calls = {"bit_stream": (bit_stream, 5, x.size), "extract": (extract, x, sched),
                 "corrupt": (corrupt, x, sched, adv),
                 "lil": (main, ["lil", "--seed", "5", "--length", str(x.size),
                                "--out-dir", str(tmp_path)])}
        assert x.size == 1 << 20
        assert traced_peak(*calls[entry]) <= 2 * x.size

    def test_identity_rule_equals_frequency_on_all_positions(self):
        x = bit_stream(12, 500)
        rep = apply_selection("all", x)
        [on_all] = frequency_on_set(x, range(500), [500])
        assert (rep.ones_count, rep.positions_examined) == (on_all.ones_count,
                                                            on_all.positions_examined)


class TestFrequencyOnSet:
    def test_alternating_on_evens(self):
        reports = frequency_on_set("10" * 50, range(0, 100, 2), [2, 10, 100])
        assert [r.relative_frequency for r in reports] == [1.0, 1.0, 1.0]

    def test_reports_follow_the_checkpoints_given(self):
        reports = frequency_on_set("1100", range(4), [4, 1, 2])
        assert reports == [FrequencyReport(4, 2), FrequencyReport(1, 1), FrequencyReport(2, 2)]

    def test_empty_intersection_is_undefined_not_error(self):
        [r] = frequency_on_set("1111", {3}, [2])
        assert r.positions_examined == 0
        assert r.relative_frequency is None
        assert r.deviation_from_half is None

    def test_pseudorandom_on_evens(self):
        x = bit_stream(21, 1 << 20)
        [r] = frequency_on_set(x, range(0, 1 << 20, 2), [1 << 20])
        assert abs(r.relative_frequency - 0.5) < 0.01

    def test_out_of_range_positions(self):
        with pytest.raises(DomainError):
            frequency_on_set("111", {5}, [1])

    @pytest.mark.parametrize("checkpoint", [1.5, -2, 5], ids=["fraction", "negative", "past_end"])
    def test_checkpoint_must_be_a_prefix_length(self, checkpoint):
        # 1.5 was read as 1, and -2 and 5 as an empty and a full prefix
        with pytest.raises(DomainError):
            frequency_on_set("1111", {0, 3}, [checkpoint])


class TestMajorityRefinement:
    def test_two_step_hand_simulation(self):
        positions, constants = majority_refinement(["11100", "10110"])
        assert positions == [0, 2]
        assert constants == [1, 1]

    def test_single_all_ones(self):
        positions, constants = majority_refinement(["1" * 6])
        assert positions == list(range(6))
        assert constants == [1]

    def test_identical_strings_keep_majority_side(self):
        for s in ("1101001", "0001000", "1111", "0000"):
            q = 2
            positions, constants = majority_refinement([s] * q)
            maj = 1 if 2 * s.count("1") >= len(s) else 0
            assert constants == [maj] * q
            assert len(positions) == s.count(str(maj))

    def test_survivors_match_constants(self):
        rng = np.random.Generator(np.random.Philox(key=44))
        for _ in range(50):
            q = int(rng.integers(1, 5))
            length = int(rng.integers(1 << q, 40))
            strings = [rng.integers(0, 2, length).astype(np.uint8) for _ in range(q)]
            positions, constants = majority_refinement(strings)
            assert len(positions) >= length * 2 ** -q
            for s, c in zip(strings, constants):
                assert all(int(s[i]) == c for i in positions)

    def test_size_precondition(self):
        with pytest.raises(DomainError, match="cannot guarantee a survivor"):
            majority_refinement(["10", "01"])  # 2 * 2^-2 < 1

    def test_length_mismatch(self):
        with pytest.raises(DomainError, match="share one length"):
            majority_refinement(["101", "10"])

    @given(st.lists(st.integers(0, 1), min_size=8, max_size=40),
           st.lists(st.integers(0, 1), min_size=8, max_size=40))
    @settings(max_examples=100)
    def test_two_strings_survivor_bound(self, a, b):
        n = min(len(a), len(b))
        positions, constants = majority_refinement([a[:n], b[:n]])
        assert len(positions) >= n / 4
        assert all(a[:n][i] == constants[0] and b[:n][i] == constants[1]
                   for i in positions)
