import numpy as np
import pytest

from hamext.adversary import corrupt, force_majority_zero, stages_from_blocks, verify_similarity
from hamext.bits import as_bits, to_text
from hamext.budgets import parse_budget
from hamext.errors import ConfigError, ContractError, DimensionError
from hamext.extractor import BlockSchedule, extract, make_schedule, similar_p_N
from hamext.rng import bit_stream
from oracles import force_output_zero_generic


def majority_search(x, n: int):
    """The exhaustive forcing search against the majority of n bits."""
    return force_output_zero_generic(x, lambda tau: int(2 * int(tau.sum()) > n))


def flips_oracle(x: np.ndarray, core) -> list[int]:
    """Canonical cheapest flips: the lowest-indexed ones of the core,
    as many as the vote is over half."""
    core = sorted(int(i) for i in core)
    ones = [i for i in core if x[i]]
    return ones[:max(0, len(ones) - len(core) // 2)]


def core_pattern(rng, n: int, kind: str) -> np.ndarray:
    """n core bits: random at a few densities, constant, or with every
    one at the far end (the prefix scan's worst case)."""
    if kind == "zeros":
        return np.zeros(n, dtype=np.uint8)
    if kind == "ones":
        return np.ones(n, dtype=np.uint8)
    if kind == "far_end":
        bits = np.zeros(n, dtype=np.uint8)
        bits[n // 2 - int(rng.integers(0, min(n // 2, 20) + 1)):] = 1
        return bits
    return (rng.random(n) < float(kind)).astype(np.uint8)


class TestForceMajorityZero:
    def test_four_of_five(self):
        flips, cost = force_majority_zero("11110", range(5))
        assert cost == 2 == majority_search("11110", 5).cost
        assert flips == [0, 1]  # lowest-index ones first

    def test_already_zero(self):
        flips, cost = force_majority_zero("00000", range(5))
        assert (flips, cost) == ([], 0)

    def test_all_ones_core_seven(self):
        assert majority_search("1111111", 7).cost == 4
        flips, cost = force_majority_zero("1111111", range(7))
        assert cost == 4
        assert flips == [0, 1, 2, 3]

    def test_even_core_rejected(self):
        with pytest.raises(ContractError):
            force_majority_zero("1111", range(4))

    def test_matches_oracle_randomized(self):
        # random odd cores of up to 17 bits against the exhaustive search
        rng = np.random.Generator(np.random.Philox(key=5))
        for _ in range(60):
            n = int(rng.integers(1, 10)) * 2 - 1
            x = to_text(rng.integers(0, 2, n).astype(np.uint8))
            flips, cost = force_majority_zero(x, range(n))
            assert majority_search(x, n) == (flips, cost, True)

    def test_flips_match_oracle_on_contiguous_cores(self):
        rng = np.random.Generator(np.random.Philox(key=11))
        sizes = (1, 3, 63, 1025, 40_001, 99_999)
        kinds = ("zeros", "ones", "far_end", "0.1", "0.5", "0.52", "0.9")
        for n in sizes:
            for kind in kinds:
                pad = rng.integers(0, 2, 2 * 37).astype(np.uint8)
                x = np.concatenate((pad[:37], core_pattern(rng, n, kind), pad[37:]))
                core = range(37, 37 + n)
                flips, cost = force_majority_zero(x, core)
                expected = flips_oracle(x, core)
                assert flips == expected and cost == len(expected), (n, kind)
                assert all(type(i) is int for i in flips)
                y = x.copy()
                y[flips] ^= 1
                assert 2 * int(y[37:37 + n].sum()) < n
        # cost 0 with ones present: exactly half the core (rounded down) is set
        x = np.zeros(101, dtype=np.uint8)
        x[::2][:50] = 1
        assert force_majority_zero(x, range(101)) == ([], 0)

    def test_negative_index_rejected(self):
        # -1 used to wrap around to the last bit
        with pytest.raises(DimensionError):
            force_majority_zero("110", range(-1, 2))

    def test_index_past_input_rejected(self):
        for core in (range(1, 4), range(3, 6)):
            with pytest.raises(DimensionError):
                force_majority_zero("110", core)

    def test_non_integer_index_rejected(self):
        for core in ([0.5, 1, 2], np.array([0.0, 1.0, 2.0])):
            with pytest.raises(ContractError):
                force_majority_zero("110", core)


class TestForceOutputZeroGeneric:
    def test_matches_closed_form(self):
        assert majority_search("11110", 5) == ([0, 1], 2, True)

    def test_constant_one_is_case_two(self):
        res = force_output_zero_generic("11110", lambda t: 1)
        assert res == ([], 0, False)

    def test_constant_zero_free(self):
        res = force_output_zero_generic("11110", lambda t: 0)
        assert (res.cost, res.forced) == (0, True)

    def test_exhaustive_equals_closed_form_small_windows(self):
        rng = np.random.Generator(np.random.Philox(key=8))
        for width in (5, 9, 13):
            for _ in range(10):
                x = to_text(rng.integers(0, 2, width).astype(np.uint8))
                flips, cost = force_majority_zero(x, range(width))
                assert majority_search(x, width) == (flips, cost, True)

    def test_exhaustive_equals_closed_form_on_every_core_up_to_nine_bits(self):
        # all 682 contents of the odd cores of 1, 3, 5, 7 and 9 bits: both
        # pick the same flips at the same cost, and those flips re-extract to 0
        for width in range(1, 10, 2):
            one_block = BlockSchedule.from_sizes((width,))
            for word in range(1 << width):
                x = np.array([(word >> i) & 1 for i in range(width)], dtype=np.uint8)
                flips, cost = force_majority_zero(x, range(width))
                assert majority_search(x, width) == (flips, cost, True)
                y = x.copy()
                y[flips] ^= 1
                assert extract(y, one_block).outputs.tolist() == [0]


class TestAdversarySchedule:
    def test_padded_targets(self):
        sched = make_schedule(parse_budget("power:1/3"), 4)
        adv = stages_from_blocks(sched, parse_budget("power:2/3"), targets=(0, 2))
        assert adv.stage_bounds == (0, sched.blocks[2][0], sched.blocks[2][1])

    def test_fields_are_stored_as_int_tuples(self):
        # lists and arrays were kept as given: unequal to the tuple form,
        # unhashable, and an array field made == raise ValueError
        sched, p = BlockSchedule.from_sizes((1, 2, 3)), parse_budget("power:2/3")
        tupled = stages_from_blocks(sched, p, (0, 2))
        for targets in ([0, 2], np.array([0, 2])):
            adv = stages_from_blocks(sched, p, targets)
            assert adv == tupled
            assert hash(adv) == hash(tupled)
            assert all(type(v) is int for v in adv.stage_bounds + adv.targets)

    def test_repeated_targets_name_the_targets(self):
        # repeated targets give repeated stage bounds, and the bound check
        # used to run first and blame bounds the caller never gave
        sched = make_schedule(parse_budget("power:1/3"), 4)
        with pytest.raises(ConfigError, match="targets"):
            stages_from_blocks(sched, parse_budget("power:2/3"), (0, 0))

    def test_no_targets_rejected(self):
        # used to raise IndexError
        sched = make_schedule(parse_budget("power:1/3"), 4)
        with pytest.raises(ConfigError):
            stages_from_blocks(sched, parse_budget("power:2/3"), targets=())


class TestCorrupt:
    def setup_method(self):
        self.g = parse_budget("power:1/3")
        self.p = parse_budget("power:2/3")
        self.sched = make_schedule(self.g, 4)
        self.adv = stages_from_blocks(self.sched, self.p)

    def test_zero_input_costs_nothing(self):
        x = np.zeros(self.sched.total_length, dtype=np.uint8)
        rep = corrupt(x, self.sched, self.adv)
        assert all(r.cost == 0 and r.forced for r in rep.per_stage)
        assert np.array_equal(rep.Y, x)

    def test_singleton_stage_flips_one_bit(self):
        sched = BlockSchedule.from_sizes((1,))
        adv = stages_from_blocks(sched, parse_budget("table:1"))
        rep = corrupt(as_bits("1"), sched, adv)
        assert rep.per_stage[0].flips == [0] and rep.per_stage[0].cost == 1
        assert rep.Y.tolist() == [0]

    def test_seeded_run_all_forced(self):
        x = bit_stream(1, self.sched.total_length)
        rep = corrupt(x, self.sched, self.adv)
        assert all(r.forced for r in rep.per_stage)
        assert rep.budget_ok
        outs = extract(rep.Y, self.sched).outputs
        assert all(int(outs[t]) == 0 for t in self.adv.targets)

    def test_flips_confined_to_windows(self):
        x = bit_stream(4, self.sched.total_length)
        rep = corrupt(x, self.sched, self.adv)
        diff = np.flatnonzero(x != rep.Y)
        windows = [self.adv.window(r.stage) for r in rep.per_stage]
        for i in diff:
            assert any(a <= i < b for a, b in windows)

    def test_cumulative_cost_under_stage_budget_sum(self):
        x = bit_stream(9, self.sched.total_length)
        rep = corrupt(x, self.sched, self.adv)
        acc = 0
        for r in rep.per_stage:
            a, b = r.window
            acc += self.p(b - a)
            assert rep.cumulative_cost_at_stage[r.stage] <= acc

    def test_budget_enforcement_skips_stage(self):
        sched = BlockSchedule.from_sizes((5,))
        adv = stages_from_blocks(sched, parse_budget("table:1"))
        rep = corrupt(as_bits("11111"), sched, adv)  # needs 3 > 1
        assert not rep.per_stage[0].forced
        assert rep.per_stage[0].budget_exceeded
        assert rep.per_stage[0].cost == 3  # the refused minimal cost
        assert rep.per_stage[0].flips == []
        assert rep.cumulative_cost_at_stage == [0] and rep.budget_ok
        assert rep.Y.tolist() == [1, 1, 1, 1, 1]

    def test_y_is_x_xor_reported_flips(self):
        tight = stages_from_blocks(self.sched, self.g)  # refuses some stages
        for seed in range(1, 6):
            x = bit_stream(seed, self.sched.total_length)
            for adv in (self.adv, tight):
                rep = corrupt(x, self.sched, adv)
                expected = x.copy()
                for r in rep.per_stage:
                    core = range(*self.sched.odd_cores[adv.targets[r.stage]])
                    if r.forced:
                        assert r.flips == flips_oracle(expected, core)
                        expected[r.flips] ^= 1
                    else:
                        assert r.flips == [] and r.cost == len(flips_oracle(expected, core))
                assert np.array_equal(rep.Y, expected)

    def test_target_outside_window_rejected(self):
        # same block count, other sizes: block 1's core, [1, 4), would
        # overrun the plan's stage window [1, 2)
        adv = stages_from_blocks(BlockSchedule.from_sizes((1, 1, 2, 4)), self.p)
        other = BlockSchedule.from_sizes((1, 3, 3, 3))
        assert other.odd_cores[1][1] > adv.window(1)[1]
        with pytest.raises(ConfigError, match="another block schedule"):
            corrupt(bit_stream(2, other.total_length), other, adv)

    def test_target_past_schedule_rejected(self):
        # the plan's last target, block 4, is past the schedule corrupt is given
        adv = stages_from_blocks(BlockSchedule.from_sizes((1, 1, 2, 4, 8)), self.p)
        with pytest.raises(ConfigError, match="another block schedule"):
            corrupt(bit_stream(2, 16), BlockSchedule.from_sizes((1, 1, 2, 4)), adv)

    def test_short_input_rejected(self):
        with pytest.raises(DimensionError):
            corrupt("101", self.sched, self.adv)

    def test_prefix_budget_overrun_is_reported(self):
        # each stage fits p of its window, but two forced stages pass p(2) = 1
        sched = BlockSchedule.from_sizes((1, 1, 2, 4))
        p = parse_budget("table:1")
        adv = stages_from_blocks(sched, p)
        x = np.ones(8, dtype=np.uint8)
        rep = corrupt(x, sched, adv)
        assert rep.cumulative_cost_at_stage == [1, 2, 3, 3]
        assert [r.forced for r in rep.per_stage] == [True, True, True, False]
        assert not rep.budget_ok
        assert not verify_similarity(rep, x, p, adv.stage_bounds)
        assert not similar_p_N(x, rep.Y, p, adv.stage_bounds)


class TestVerifySimilarity:
    def setup_method(self):
        self.p = parse_budget("power:2/3")
        self.sched = make_schedule(parse_budget("power:1/3"), 4)
        self.adv = stages_from_blocks(self.sched, self.p)

    def test_accepts_produced_reports(self):
        for seed in range(1, 101):
            x = bit_stream(seed, self.sched.total_length)
            rep = corrupt(x, self.sched, self.adv)
            assert verify_similarity(rep, x, self.p, self.adv.stage_bounds)
            assert rep.budget_ok

    def test_mutation_detected(self):
        x = bit_stream(1, self.sched.total_length)
        rep = corrupt(x, self.sched, self.adv)
        tight = parse_budget(f"table:{max(rep.cumulative_cost_at_stage)}")
        assert verify_similarity(rep, x, tight, self.adv.stage_bounds)
        rep.Y = rep.Y.copy()
        a, b = self.adv.window(1)
        flip_at = int(np.flatnonzero(x[a:b] == rep.Y[a:b])[0]) + a
        rep.Y[flip_at] ^= 1  # out-of-protocol extra flip
        assert not verify_similarity(rep, x, tight, self.adv.stage_bounds)


class TestTargetedFrequency:
    def test_forced_positions_fail_the_frequency_test(self):
        from hamext.stats import frequency_on_set
        sched = make_schedule(parse_budget("power:1/3"), 4)
        adv = stages_from_blocks(sched, parse_budget("power:2/3"))
        x = bit_stream(6, sched.total_length)
        rep = corrupt(x, sched, adv)
        outputs = extract(rep.Y, sched).outputs
        [r] = frequency_on_set(outputs, adv.targets, [len(sched)])
        assert r.relative_frequency == 0.0


class TestReportSerialization:
    def test_json_shape(self):
        sched = make_schedule(parse_budget("power:1/3"), 2)
        adv = stages_from_blocks(sched, parse_budget("power:2/3"))
        rep = corrupt(bit_stream(3, sched.total_length), sched, adv)
        doc = rep.to_json_dict()
        assert set(doc) == {"stages", "cumulative", "budget_ok"}
        for stage in doc["stages"]:
            assert set(stage) == {"s", "window", "flips", "cost", "forced", "budget_exceeded"}
