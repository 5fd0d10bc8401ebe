import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hamext.adversary import CorruptionReport, force_majority_zero, verify_similarity
from hamext.bits import as_bits, to_text
from hamext.budgets import lnln, parse_budget
from hamext.cube import hamming_distance
from hamext.errors import (ConfigError, ContractError, DimensionError,
                           DomainError, ResourceError)
from hamext.extractor import (MAKE_SCHEDULE_SCAN_BOUND, BlockSchedule, check_schedule,
                              extract, majority_bit, make_schedule,
                              prefix_distances, psi_deviation, similar_g_phi,
                              similar_p_N)
from hamext.rng import bit_stream


def g_phi_oracle(x, y, g, schedule) -> bool:
    """similar_g_phi as a per-block loop over its own disagreement count."""
    diff = x != y
    return all(int(diff[s:e].sum()) <= g(e - s) for s, e in schedule.blocks)


def majority_oracle(x: str, core) -> int:
    ones = sum(int(x[i]) for i in core)
    return 1 if 2 * ones > len(core) else 0


class TestMajorityBit:
    def test_two_of_three(self):
        assert majority_bit("110", range(3)) == 1

    def test_all_zeros(self):
        assert majority_bit("0" * 9, range(1, 6)) == 0

    def test_hand_trace(self):
        # bits at 3,4,5,6,7 of 11001101 are 0,1,1,0,1 -> three ones
        assert majority_oracle("11001101", [3, 4, 5, 6, 7]) == 1
        assert majority_bit("11001101", range(3, 8)) == 1

    def test_even_core_rejected(self):
        for core in (range(2), range(1, 1)):
            with pytest.raises(ContractError):
                majority_bit("1100", core)

    def test_out_of_range(self):
        with pytest.raises(DimensionError):
            majority_bit("11", range(3))

    def test_negative_index_rejected(self):
        with pytest.raises(DimensionError):
            majority_bit("011", range(-1, 2))

    def test_list_range_and_array_cores_agree(self):
        # the range core votes as the list and the array of its indices do
        x = "1101001110"
        bits = as_bits(x)
        for start in range(len(x)):
            for stop in range(start + 1, len(x) + 1, 2):
                indices = list(range(start, stop))
                vote = majority_bit(x, range(start, stop))
                assert vote == majority_oracle(x, indices)
                assert vote == int(2 * int(bits[np.array(indices)].sum()) > len(indices))

    def test_only_a_step_one_range_is_a_core(self):
        x = "1101001110"
        for core in ([1, 2, 3, 4, 5], {1, 2, 3, 4, 5}, np.arange(1, 6), range(1, 10, 2), None):
            with pytest.raises(ContractError):
                majority_bit(x, core)
            with pytest.raises(ContractError):
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
        with pytest.raises(DimensionError) as err:
            extract("110", BlockSchedule.from_sizes((3, 5)))
        assert "1" in str(err.value)

    def test_matches_majority_oracle(self):
        sched = BlockSchedule.from_sizes((3, 5, 6))
        cores = [range(s, e) for s, e in sched.odd_cores]
        for seed in range(20):
            x = to_text(bit_stream(seed, 14))
            trace = extract(x, sched)
            assert [int(v) for v in trace.outputs] == [majority_oracle(x, c) for c in cores]

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
        margins = []
        for s, e in sched.blocks:
            core = x[s:e] if (e - s) % 2 else x[s:e - 1]
            margins.append(2 * sum(core.tolist()) - core.size)
        assert trace.margins.tolist() == margins
        assert trace.outputs.tolist() == [int(m > 0) for m in margins]

    def test_robust_flags(self):
        g1 = parse_budget("table:1")
        trace = extract("111" + "10101" + "111111", BlockSchedule.from_sizes((3, 5, 6)),
                        budget=g1)
        # margins: 3, 1, 5 -> |m| > 2 means blocks 0 and 2
        assert trace.robust_flags.tolist() == [True, False, True]


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
        import numpy as np
        from hamext import kernels
        sched = BlockSchedule.from_sizes((3, 5, 5, 7))
        cores = np.array([(1 << e) - (1 << s) for s, e in sched.odd_cores],
                         dtype=np.uint64)
        sizes = np.array([e - s for s, e in sched.odd_cores], dtype=np.int64)
        words = kernels.all_outputs(cores, sizes, 20)
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

    def test_bounded_budget_identity_schedule(self):
        sched = make_schedule(parse_budget("table:3"), 4)
        assert sched.sizes == (1, 1, 1, 1)

    def test_budget_at_sqrt_scale_fails(self):
        with pytest.raises(ResourceError, match=f"scan bound {MAKE_SCHEDULE_SCAN_BOUND}"):
            make_schedule(parse_budget("power:1"), 2)

    def test_checkpoint_constraint(self):
        g = parse_budget("power:1/3")
        N = [1, 65, 70, 4161, 4200]
        sched = make_schedule(g, 3, N_constraint=N)
        assert all(s in N for s in sched.partial_sums)
        assert check_schedule(sched, g, N_constraint=N) == []

    @pytest.mark.parametrize("N", [[1.5, 65.9], [-1, 1, 65]], ids=["fraction", "negative"])
    def test_checkpoint_constraint_must_hold_prefix_lengths(self, N):
        # [1.5, 65.9] used to build the blocks (0,1),(1,65)
        with pytest.raises(DomainError):
            make_schedule(parse_budget("power:1/3"), 2, N_constraint=N)

    def test_checkpoint_constraint_unsatisfiable(self):
        g = parse_budget("power:1/3")
        with pytest.raises(ResourceError):
            make_schedule(g, 3, N_constraint=[1, 65, 100])

    def test_offset_schedule_checkpoints_are_block_ends(self):
        # partial sums used to add up sizes: (3, 6) for a schedule starting at 5
        sched = BlockSchedule(((5, 8), (8, 11)))
        assert sched.partial_sums == (8, 11)
        g = parse_budget("power:1/3")
        assert not [v for v in check_schedule(sched, g, [8, 11]) if "partial sum" in v]
        assert len([v for v in check_schedule(sched, g, [3, 6]) if "partial sum" in v]) == 2

    def test_rechecker_catches_bad_schedules(self):
        g = parse_budget("power:1/3")
        bad = BlockSchedule.from_sizes((1, 64, 4096))
        assert check_schedule(bad, parse_budget("power:1/2")) != []
        assert "partial sum" in ";".join(check_schedule(bad, g, N_constraint=[1, 65]))


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
        with pytest.raises(ConfigError):
            BlockSchedule.from_text("0 0 4 4\n")

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
        # p(n) = g(n/2) with checkpoint sums and superadditive sizes
        g = parse_budget("power:1/3")
        sched = make_schedule(g, 3)
        N = sched.partial_sums
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
        start = data.draw(st.integers(0, 5), label="first block start")
        sizes = sorted(data.draw(st.lists(st.integers(1, 6), min_size=1, max_size=5)))
        length = start + sum(sizes) + data.draw(st.integers(0, 3), label="tail")
        x = np.array(data.draw(st.lists(st.integers(0, 1), min_size=length,
                                        max_size=length)), dtype=np.uint8)
        y = x.copy()
        y[sorted(data.draw(st.sets(st.integers(0, length - 1), max_size=4), label="flips"))] ^= 1
        g = parse_budget(data.draw(st.sampled_from(
            ["table:0", "table:1", "table:2", "table:1=0,3=1", "power:1/2"])))
        ends = np.cumsum([start, *sizes]).tolist()
        sched = BlockSchedule(tuple(zip(ends, ends[1:])))
        assert similar_g_phi(x, y, g, sched) == g_phi_oracle(x, y, g, sched)
        assert hamming_distance(x, y) == np.count_nonzero(x != y)

    def test_checkpoint_contract(self):
        for bad in (2.5, -3, 6, "3"):
            with pytest.raises(DomainError):
                prefix_distances("10110", "00111", [1, bad])
        with pytest.raises(DimensionError):
            prefix_distances("10110", "0011", [1])


def verify_report_y(x, y, N):
    report = CorruptionReport(Y=as_bits(y), per_stage=[], cumulative_cost_at_stage=[],
                              budget_ok=True)
    return verify_similarity(report, x, parse_budget("table:8"), N)


CHECKPOINT_READERS = {
    "similar_p_N": lambda x, y, N: similar_p_N(x, y, parse_budget("table:8"), N),
    "verify_similarity": verify_report_y,
    "psi_deviation": lambda x, y, N: psi_deviation(x, y, checkpoints=N),
}


@pytest.mark.parametrize("name", list(CHECKPOINT_READERS))
def test_one_checkpoint_contract(name):
    check = CHECKPOINT_READERS[name]
    x, y = "10110", "00111"
    for bad in (2.5, -3, 6, "3"):
        with pytest.raises(DomainError):
            check(x, y, [1, bad])
    with pytest.raises(DimensionError):
        check(x, y[:4], [1])
    if name == "psi_deviation":  # divides by sqrt(2 n lnln n)
        with pytest.raises(DomainError):
            check(x, y, [0])
    else:
        assert check(x, y, [0, 5]) is True
    assert check(x, y, np.array([5, 2], dtype=np.uint64))


class TestPsiDeviation:
    def test_self_distance_negative(self):
        x = bit_stream(2, 256)
        for point in psi_deviation(x, x, checkpoints=[16, 64, 256]):
            assert point.statistic < 0
            expect = -(point.n / 2) / math.sqrt(2 * point.n * lnln(point.n))
            assert point.statistic == pytest.approx(expect, rel=1e-12)

    def test_complement_statistic_exact_arithmetic(self):
        ones = np.ones(100, dtype=np.uint8)
        zeros = np.zeros(100, dtype=np.uint8)
        lam = math.log(math.log(100))  # 1.52718...
        [point] = psi_deviation(ones, zeros, checkpoints=[100])
        assert point.statistic == pytest.approx(50 / math.sqrt(200 * lam), rel=1e-12)
        assert point.statistic == pytest.approx(2.861, abs=5e-4)
        assert not point.within_envelope

    def test_monte_carlo_smoke(self):
        hits = 0
        for seed in range(64):
            x = bit_stream(seed, 1 << 20)
            [point] = psi_deviation(x, np.zeros(1 << 20, dtype=np.uint8),
                                    checkpoints=[1 << 20])
            if -3 <= point.statistic <= 3:
                hits += 1
        assert hits >= 63

    @pytest.mark.parametrize("epsilon", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_epsilon(self, epsilon):
        with pytest.raises(DomainError):
            psi_deviation("1010", "0000", epsilon=epsilon, checkpoints=[4])
