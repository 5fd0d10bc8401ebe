import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hamext.adversary import (CorruptionReport, force_majority_zero, stages_from_blocks,
                              verify_similarity)
from hamext import kernels
from hamext.bits import as_bits, bits_to_mask, to_text
from hamext.budgets import lnln, parse_budget
from hamext.errors import ConfigError, DomainError, ResourceError
from hamext.extractor import (MAKE_SCHEDULE_SCAN_BOUND, BlockSchedule, extract, make_schedule,
                              prefix_distances, psi_deviation, similar_p_N)
from hamext.rng import bit_stream
from oracles import check_schedule, margin, psi_oracle, similar_g_phi, vote

# read_index's refusal of a schedule longer than make_schedule's scan bound
PAST_SCAN_BOUND = f"past the resource ceiling {MAKE_SCHEDULE_SCAN_BOUND}"


def one_block_vote(X, core: range) -> int:
    """The majority vote on one core: extract over the one-block schedule
    [core.start, core.stop)."""
    return int(extract(X, BlockSchedule(((core.start, core.stop),))).outputs[0])


class TestMajorityBit:
    """The vote of one block through extract; a core that is not one is
    refused by core_indices, which force_majority_zero reads."""

    def test_two_of_three(self):
        assert one_block_vote("110", range(3)) == 1

    def test_all_zeros(self):
        assert one_block_vote("0" * 9, range(1, 6)) == 0

    def test_hand_trace(self):
        # bits at 3,4,5,6,7 of 11001101 are 0,1,1,0,1 -> three ones
        assert vote(bits_to_mask(as_bits("11001101")), 0b11111000) == 1
        assert one_block_vote("11001101", range(3, 8)) == 1

    def test_even_core_rejected(self):
        for core in (range(2), range(1, 1)):
            with pytest.raises(DomainError, match="odd size"):
                force_majority_zero("1100", core)

    def test_out_of_range(self):
        with pytest.raises(DomainError, match="does not cover blocks"):
            one_block_vote("11", range(3))
        with pytest.raises(DomainError, match="outside input"):
            force_majority_zero("11", range(3))

    def test_negative_index_rejected(self):
        with pytest.raises(ConfigError):
            one_block_vote("011", range(-1, 2))
        with pytest.raises(DomainError, match="outside input"):
            force_majority_zero("011", range(-1, 2))

    def test_list_range_and_array_cores_agree(self):
        # each odd range votes as the reference does on the mask of its positions
        x = "1101001110"
        word = bits_to_mask(as_bits(x))
        for start in range(len(x)):
            for stop in range(start + 1, len(x) + 1, 2):
                core = (1 << stop) - (1 << start)
                assert one_block_vote(x, range(start, stop)) == vote(word, core)

    def test_only_a_step_one_range_is_a_core(self):
        x = "1101001110"
        for core in ([1, 2, 3, 4, 5], {1, 2, 3, 4, 5}, np.arange(1, 6), range(1, 10, 2), None):
            with pytest.raises(DomainError, match="step-1 range"):
                force_majority_zero(x, core)


class TestExtract:
    def test_hand_trace_two_blocks(self):
        trace = extract("11001101", BlockSchedule.from_sizes((3, 5)))
        assert to_text(trace.outputs) == "11"

    def test_all_ones(self):
        trace = extract("1" * 12, BlockSchedule.from_sizes((3, 4, 5)))
        assert to_text(trace.outputs) == "111"

    def test_singleton_identity(self):
        for b in "01":
            trace = extract(b, BlockSchedule.from_sizes((1,)))
            assert int(trace.outputs[0]) == int(b)

    def test_too_short(self):
        with pytest.raises(DomainError) as err:
            extract("110", BlockSchedule.from_sizes((3, 5)))
        assert "1" in str(err.value)

    def test_matches_majority_oracle(self):
        sched = BlockSchedule.from_sizes((3, 5, 6))
        cores, _ = kernels.core_words(sched.odd_cores)
        for seed in range(20):
            x = bit_stream(seed, 14)
            word = bits_to_mask(x)
            assert extract(x, sched).outputs.tolist() == [vote(word, int(c)) for c in cores]

    @given(st.integers(0, (1 << 14) - 1))
    @settings(max_examples=300)
    def test_margins_always_odd(self, value):
        x = np.array([(value >> i) & 1 for i in range(14)], dtype=np.uint8)
        trace = extract(x, BlockSchedule.from_sizes((3, 5, 6)))
        assert all(int(m) % 2 == 1 for m in np.abs(trace.margins))
        assert all((m > 0) == bool(o) for m, o in zip(trace.margins, trace.outputs))

    @given(st.lists(st.integers(1, 40), min_size=1, max_size=6), st.integers(0, 64), st.data())
    @settings(max_examples=80, deadline=None)
    def test_schedule_matches_direct_core_counts(self, sizes, extra, data):
        # nondecreasing sizes with 1-bit and even blocks; X may run past the schedule
        sched = BlockSchedule.from_sizes(sorted(sizes))
        length = sched.total_length + extra
        x = np.array(data.draw(st.lists(st.integers(0, 1), min_size=length, max_size=length)),
                     dtype=np.uint8)
        trace = extract(x, sched)
        word = bits_to_mask(x)
        margins = [margin(word, (1 << (e if (e - s) % 2 else e - 1)) - (1 << s))
                   for s, e in sched.blocks]
        assert trace.margins.tolist() == margins
        assert trace.outputs.tolist() == [int(m > 0) for m in margins]

    def test_robust_flags(self):
        g1 = parse_budget("table:1")
        trace = extract("111" + "10101" + "111111", BlockSchedule.from_sizes((3, 5, 6)),
                        budget=g1)
        # margins: 3, 1, 5 -> |m| > 2 means blocks 0 and 2
        assert trace.robust_flags.tolist() == [True, False, True]

    @pytest.mark.parametrize("token", [
        "power:100/1", "table:100000000000000000000", "affine_sqrt:100000000000000000000:0"])
    def test_robust_flags_for_budgets_past_int64(self, token):
        # each leaked OverflowError from an int64 array of budget values
        trace = extract("111" + "10101", BlockSchedule.from_sizes((3, 5)),
                        budget=parse_budget(token))
        assert trace.robust_flags.tolist() == [False, False]


class TestDistributionPreservation:
    def test_exhaustive_l15(self):
        # independent path: run extract() itself on every input
        sched = BlockSchedule.from_sizes((3, 5, 7))
        L = sched.total_length
        counts = np.zeros(8, dtype=np.int64)
        for v in range(1 << L):
            bits = np.array([(v >> i) & 1 for i in range(L)], dtype=np.uint8)
            word = 0
            for k, bit in enumerate(extract(bits, sched).outputs):
                word |= int(bit) << k
            counts[word] += 1
        assert counts.tolist() == [1 << (L - 3)] * 8


class TestDistributionPreservationL20:
    def test_kernel_sweep_prefix_patterns(self):
        # blocks totalling 20 bits; every output-prefix pattern of j bits
        # must occur exactly 2^(20-j) times over all inputs
        sched = BlockSchedule.from_sizes((3, 5, 5, 7))
        words = kernels.all_outputs(*kernels.core_words(sched.odd_cores), 20)
        for j in range(1, 5):
            counts = np.bincount(words & ((1 << j) - 1), minlength=1 << j)
            assert counts.tolist() == [1 << (20 - j)] * (1 << j)


class TestRobustnessRandomized:
    def test_beyond_exhaustive_scale(self):
        sched = BlockSchedule.from_sizes((9, 11, 15))
        g = parse_budget("table:2")
        rng = np.random.Generator(np.random.Philox(key=99))
        for _ in range(200):
            x = rng.integers(0, 2, sched.total_length).astype(np.uint8)
            base = extract(x, sched, budget=g)
            y = x.copy()
            for s, e in sched.blocks:
                flip_count = int(rng.integers(0, g(e - s) + 1))
                pos = rng.choice(np.arange(s, e), size=flip_count, replace=False)
                y[pos] ^= 1
            after = extract(y, sched)
            for k in range(len(sched)):
                if base.robust_flags[k]:
                    assert after.outputs[k] == base.outputs[k]


class TestMakeSchedule:
    def test_minimal_blocks_for_cube_root(self):
        g = parse_budget("power:1/3")
        sched = make_schedule(g, 3)
        assert sched.sizes == (1, 64, 4096)
        assert check_schedule(sched, g) == []

    def test_known_admissible_sizes(self):
        # ceil(n^(1/3))/sqrt(n) <= 2^-(k+2) <= 2^-k at these sizes, sums superadditive
        g = parse_budget("power:1/3")
        sizes = (16384, 1048576, 67108864)
        for k, n in enumerate(sizes):
            assert g(n) ** 2 * 4 ** (k + 2) <= n
        assert sizes[1] >= sizes[0] and sizes[2] >= sizes[0] + sizes[1]
        assert check_schedule(BlockSchedule.from_sizes(sizes), g) == []

    @pytest.mark.parametrize("token, sizes", [
        ("table:0", (1, 1, 2, 4)), ("table:3", (9, 36, 144, 576)),
        ("power:0", (1, 4, 16, 64)), ("table:1=0,16=2", (1, 1, 2, 4))])
    def test_bounded_budget_gets_the_least_admissible_sizes(self, token, sizes):
        # a bounded budget used to get all-singleton blocks, which
        # check_schedule rejects from the second block on
        g = parse_budget(token)
        sched = make_schedule(g, 4)
        assert sched.sizes == sizes
        assert check_schedule(sched, g) == []

    def test_total_length_is_bounded(self):
        # table:0 doubles the total from the second block on: 26 blocks
        # reach the bound, a 27th passes it
        g = parse_budget("table:0")
        assert make_schedule(g, 26).total_length == MAKE_SCHEDULE_SCAN_BOUND
        for count in (27, 10 ** 6, 10 ** 20):
            with pytest.raises(ResourceError, match=PAST_SCAN_BOUND):
                make_schedule(g, count)

    def test_budget_at_sqrt_scale_fails(self):
        with pytest.raises(ResourceError, match=PAST_SCAN_BOUND):
            make_schedule(parse_budget("power:1"), 2)

    def test_offset_schedule_checkpoints_are_block_ends(self):
        # the checkpoints the CLI and criterion 3 verify similarity at come
        # from stages_from_blocks; for a schedule starting at 5 they are
        # its block ends, not running sums of its sizes (3, 6)
        sched = BlockSchedule(((5, 8), (8, 11)))
        adv = stages_from_blocks(sched, parse_budget("power:1/3"))
        assert adv.stage_bounds == (0, 8, 11)

    def test_rechecker_names_a_block_below_the_earlier_sum(self):
        # 3 < 2 + 2; a zero budget keeps every block inside its decay bound
        sched = BlockSchedule.from_sizes((2, 2, 3))
        assert check_schedule(sched, parse_budget("table:0")) == [
            "block 2 smaller than sum of earlier blocks"]

    def test_rechecker_catches_bad_schedules(self):
        bad = BlockSchedule.from_sizes((1, 64, 4096))
        assert check_schedule(bad, parse_budget("power:1/2")) != []


class TestSchedaleSerialization:
    def test_blocks_are_stored_as_int_pairs(self):
        # lists were kept as given: unequal to the tuple form and unhashable
        sched = BlockSchedule([[0, 1], [np.int64(1), 4]])
        assert sched == BlockSchedule(((0, 1), (1, 4)))
        assert hash(sched) == hash(BlockSchedule(((0, 1), (1, 4))))
        assert all(type(b) is int for pair in sched.blocks for b in pair)
        assert BlockSchedule.from_text(sched.to_text()) == sched

    def test_rejects_empty_schedule(self):
        for text in ("", "# comment only\n\n"):
            with pytest.raises(ConfigError):
                BlockSchedule.from_text(text)
        with pytest.raises(ConfigError):
            BlockSchedule.from_sizes(())

    def test_rejects_fractional_sizes(self):
        # 2.5 was truncated to a 2-bit block
        for sizes in ((2.5, 3), (1, "3")):
            with pytest.raises(ConfigError):
                BlockSchedule.from_sizes(sizes)
        assert BlockSchedule.from_sizes(np.array([2, 3])).sizes == (2, 3)

    def test_rejects_inconsistent_odd_end(self):
        with pytest.raises(ConfigError, match=r"block 0: odd_end 4 inconsistent with \[0,4\)"):
            BlockSchedule.from_text("0 0 4 4\n")
        with pytest.raises(ConfigError, match="block 1: odd_end 7 inconsistent"):
            BlockSchedule.from_text("0 0 3 3\n1 3 7 7\n2 7 12 12\n")

    def test_rejects_lines_out_of_order(self):
        with pytest.raises(ConfigError, match="out of order at block 1"):
            BlockSchedule.from_text("1 3 8 8\n0 0 3 3\n")

    @pytest.mark.parametrize("blocks", [((0, 3), (4, 7)), ((0, 3), (2, 6)), ((0, 3), (3, 5)),
                                        ((0, 3), (3, 3))],
                             ids=["gap", "overlap", "shrinking", "empty"])
    def test_rejects_malformed_structure(self, blocks):
        # check_schedule does not re-check these: a schedule cannot hold them
        with pytest.raises(ConfigError):
            BlockSchedule(blocks)

    def test_rejects_start_below_zero(self):
        with pytest.raises(ConfigError):
            BlockSchedule(((-3, 0),))
        with pytest.raises(ConfigError):
            BlockSchedule.from_text("0 -3 0 0\n")

    @pytest.mark.parametrize("text", ["0 0 3 3\n1 3 x 8\n", "0 0 3 3 x\n"],
                             ids=["end", "target"])
    def test_rejects_non_integer_field(self, text):
        with pytest.raises(ConfigError):
            BlockSchedule.from_text(text)


class TestSimilarity:
    def test_reflexive(self):
        x = to_text(bit_stream(3, 40))
        assert similar_p_N(x, x, parse_budget("table:0"), [10, 20, 40])

    def test_distance_four_exceeds_one(self):
        assert not similar_p_N("1111", "0000", parse_budget("table:1"), [4])

    def test_sqrt_budget_example(self):
        # d(10110, 00111) = 2 <= ceil(sqrt(5)) = 3
        p = parse_budget("affine_sqrt:0:1")
        assert p(5) == 3
        assert similar_p_N("10110", "00111", p, [5])

    def test_n0_cutoff(self):
        assert similar_p_N("1111", "0000", parse_budget("table:1"), [4], n0=5)

    def test_monotone_in_p_and_antitone_in_N(self):
        rng = np.random.Generator(np.random.Philox(key=17))
        small, big = parse_budget("table:2"), parse_budget("table:4")
        for _ in range(50):
            x = rng.integers(0, 2, 64).astype(np.uint8)
            y = x.copy()
            pos = rng.choice(64, size=6, replace=False)
            y[pos] ^= 1
            N = sorted(set(int(v) for v in rng.integers(1, 65, size=8)))
            if similar_p_N(x, y, small, N):
                assert similar_p_N(x, y, big, N)
                assert similar_p_N(x, y, small, N[::2])

    def test_per_block_budget(self):
        sched = BlockSchedule.from_sizes((3, 5))
        g = parse_budget("table:1")
        x = as_bits("11001101")
        assert similar_g_phi(x, x, g, sched)
        y = x.copy()
        y[0] ^= 1
        y[4] ^= 1
        assert similar_g_phi(x, y, g, sched)
        y[1] ^= 1  # second flip in block 0
        assert not similar_g_phi(x, y, g, sched)
        # positions before the first block are not counted
        assert similar_g_phi("1110000", "0000000", parse_budget("table:0"),
                             BlockSchedule(((3, 4), (4, 7))))

    def test_prefix_similarity_transfers_to_blocks(self):
        # p(n) = g(n/2) at the block ends, with superadditive sizes
        g = parse_budget("power:1/3")
        sched = make_schedule(g, 3)
        N = [e for _, e in sched.blocks]
        p = lambda n: g(-(-n // 2))
        rng = np.random.Generator(np.random.Philox(key=23))
        produced = 0
        while produced < 100:
            x = rng.integers(0, 2, sched.total_length).astype(np.uint8)
            y = x.copy()
            budget_left = [p(n) for n in N]
            flips = 0
            for m, (s, e) in enumerate(sched.blocks):
                allowed = min(b for b in budget_left[m:]) - flips
                take = int(rng.integers(0, max(allowed, 0) + 1))
                if take:
                    pos = rng.choice(np.arange(s, e), size=min(take, e - s), replace=False)
                    y[pos] ^= 1
                    flips += len(pos)
            dist = np.cumsum(x != y)
            if any(dist[n - 1] > p(n) for n in N):
                continue
            produced += 1
            assert similar_g_phi(x, y, g, sched)


class TestPrefixDistances:
    def test_matches_python_count(self):
        rng = np.random.Generator(np.random.Philox(key=29))
        for length in (0, 1, 2, 7, 64, 301):
            x = rng.integers(0, 2, length).astype(np.uint8)
            y = np.where(rng.random(length) < 0.3, 1 - x, x).astype(np.uint8)
            N = [0, length, *rng.integers(0, length + 1, size=6).tolist(), length, 0]
            expect = [sum(int(a != b) for a, b in zip(x[:n], y[:n])) for n in N]
            got = prefix_distances(x, y, N)
            assert got.dtype == np.int64
            assert got.tolist() == expect
        assert prefix_distances("", "", [0, 0]).tolist() == [0, 0]
        assert prefix_distances("", "", []).tolist() == []
        assert prefix_distances("0110", "1100", np.array([4, 1, 2, 4])).tolist() == [2, 1, 1, 2]

    @given(st.data())
    @settings(max_examples=300)
    def test_readers_match_their_oracles(self, data):
        length = data.draw(st.integers(1, 40), label="length")
        x = np.array(data.draw(st.lists(st.integers(0, 1), min_size=length,
                                        max_size=length)), dtype=np.uint8)
        y = x.copy()
        y[sorted(data.draw(st.sets(st.integers(0, length - 1), max_size=4), label="flips"))] ^= 1
        assert prefix_distances(x, y, [length])[0] == np.count_nonzero(x != y)

    def test_checkpoint_contract(self):
        for bad in (2.5, -3, 6, "3"):
            with pytest.raises(DomainError):
                prefix_distances("10110", "00111", [1, bad])
        with pytest.raises(DomainError):
            prefix_distances("10110", "0011", [1])


def verify_report_y(x, y, N):
    report = CorruptionReport(Y=as_bits(y), per_stage=[], cumulative_cost_at_stage=[],
                              budget_ok=True)
    return verify_similarity(report, x, parse_budget("table:8"), N)


CHECKPOINT_READERS = {
    "similar_p_N": lambda x, y, N: similar_p_N(x, y, parse_budget("table:8"), N),
    "verify_similarity": verify_report_y,
}


@pytest.mark.parametrize("name", list(CHECKPOINT_READERS))
def test_one_checkpoint_contract(name):
    check = CHECKPOINT_READERS[name]
    x, y = "10110", "00111"
    for bad in (2.5, -3, 6, "3"):
        with pytest.raises(DomainError):
            check(x, y, [1, bad])
    with pytest.raises(DomainError):
        check(x, y[:4], [1])
    assert check(x, y, [0, 5]) is True
    assert check(x, y, np.array([5, 2], dtype=np.uint64))


class TestPsiDeviation:
    def test_self_distance_negative(self):
        # a stream of zeros is at distance 0 from itself
        x = np.zeros(256, dtype=np.uint8)
        points = psi_deviation(x)
        assert [point.n for point in points] == [16, 32, 64, 128, 256]
        for point in points:
            assert point.statistic < 0
            expect = -(point.n / 2) / math.sqrt(2 * point.n * lnln(point.n))
            assert point.statistic == pytest.approx(expect, rel=1e-12)

    def test_complement_statistic_exact_arithmetic(self):
        # 100 ones: the last checkpoint is 64, where ones(64) - 32 = 32
        *_, point = psi_deviation(np.ones(100, dtype=np.uint8))
        lam = math.log(math.log(64))  # 1.42527...
        assert point.n == 64
        assert point.statistic == pytest.approx(32 / math.sqrt(128 * lam), rel=1e-12)
        assert point.statistic == pytest.approx(2.369, abs=5e-4)
        assert not point.within_envelope

    def test_monte_carlo_smoke(self):
        hits = 0
        for seed in range(64):
            *_, point = psi_deviation(bit_stream(seed, 1 << 20))
            assert point.n == 1 << 20
            if -3 <= point.statistic <= 3:
                hits += 1
        assert hits >= 63

    def test_short_stream_has_one_point_at_its_length(self):
        # below 16 bits there is no dyadic checkpoint
        for length in (1, 15):
            [point] = psi_deviation(np.ones(length, dtype=np.uint8))
            assert point.n == length

    def test_an_empty_stream_is_refused(self):
        # the scale sqrt(2 n lnln n) vanishes at n = 0
        for empty in ("", np.zeros(0, dtype=np.uint8)):
            with pytest.raises(DomainError):
                psi_deviation(empty)

    @pytest.mark.parametrize("length", [1, 15, 16, 17, 1000, 70001])
    def test_equals_a_full_prefix_count(self, length):
        # the segment counts add up to the prefix count, bit for bit
        x = bit_stream(length, length)
        for epsilon in (0.0, 0.5, 1.0):
            assert [tuple(p) for p in psi_deviation(x, epsilon)] == psi_oracle(x, epsilon)

    @pytest.mark.parametrize("epsilon", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_epsilon(self, epsilon):
        with pytest.raises(DomainError):
            psi_deviation("1010", epsilon=epsilon)
