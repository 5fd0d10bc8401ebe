"""Every kernel against the brute-force references of tests/oracles.py:
distances and balls by Python int bit counts, exhaustive isoperimetric
minima and direct per-input majorities."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hamext import cube, kernels
from hamext.errors import DomainError
from hamext.extractor import BlockSchedule
from oracles import ball_masks, distance_oracle, harper_min_oracle, robustness_oracle, vote


def rng():
    return np.random.Generator(np.random.Philox(key=1234))


def test_distance_to_set_matches_brute_force():
    g = rng()
    for n in range(9):
        size = 1 << n
        for ind in (np.zeros(size, dtype=np.bool_), np.ones(size, dtype=np.bool_),
                    g.random(size) < 0.05, g.random(size) < 0.5):
            assert kernels.distance_to_set(ind, n).tolist() == distance_oracle(
                np.flatnonzero(ind).tolist(), n)


@given(st.integers(0, 6).flatmap(
    lambda n: st.tuples(st.just(n), st.lists(st.integers(0, (1 << (1 << n)) - 1), max_size=5))))
@settings(max_examples=100, deadline=None)
def test_batched_distance_matches_single_sets(case):
    n, words = case
    size = 1 << n
    # the empty and the full set ride along with the drawn ones
    rows = [np.zeros(size, dtype=np.bool_), np.ones(size, dtype=np.bool_)]
    rows += [np.array([(w >> v) & 1 for v in range(size)], dtype=np.bool_) for w in words]
    batch = np.stack(rows)
    expect = np.stack([kernels.distance_to_set(row, n) for row in rows])
    assert np.array_equal(kernels.distance_to_set(batch, n), expect)
    assert np.array_equal(kernels.distance_to_set(batch[None], n), expect[None])
    assert kernels.distance_to_set(batch[:0], n).shape == (0, size)


@pytest.mark.parametrize("layout", ["fortran", "transposed", "three-axis", "one-row"])
def test_distance_does_not_depend_on_the_input_layout(layout):
    # the sweep transposes to vertex-major and back, so a batch in any
    # memory order, or with any number of batch axes, gives each set's row
    n = 5
    rows = rng().random((6, 1 << n)) < 0.2
    batch = {"fortran": np.asfortranarray(rows),
             "transposed": np.ascontiguousarray(rows.T).T[::-1],  # neither C nor F order
             "three-axis": rows.reshape(2, 3, 1 << n),
             "one-row": rows[3]}[layout]
    dist = kernels.distance_to_set(batch, n)
    assert dist.dtype == np.int8 and dist.shape == batch.shape
    expect = [distance_oracle(np.flatnonzero(row).tolist(), n) for row in batch.reshape(-1, 1 << n)]
    assert dist.reshape(-1, 1 << n).tolist() == expect


def test_distance_needs_the_whole_cube_on_the_last_axis():
    for shape in ((8,), (2, 8), (16, 2)):
        with pytest.raises(DomainError):
            kernels.distance_to_set(np.zeros(shape, dtype=np.bool_), 4)


def test_distance_from_singleton_gives_ball_sizes():
    n = 5
    ind = np.zeros(1 << n, dtype=np.bool_)
    ind[0] = True
    dist = kernels.distance_to_set(ind, n)
    assert [int(np.count_nonzero(dist <= d)) for d in range(n + 1)] == [1, 6, 16, 26, 31, 32]


def test_subset_min_gamma_matches_brute_force():
    cases = [(n, d) for n in range(4) for d in range(n + 1)] + [(4, 1)]
    for n, d in cases:
        ball = np.array(ball_masks(n, d), dtype=np.uint64)
        assert kernels.subset_min_gamma(ball).tolist() == harper_min_oracle(n, d)


def test_harper_ball_words_match_distance_defined_balls(monkeypatch):
    seen = []
    sweep = kernels.subset_min_gamma
    monkeypatch.setattr(kernels, "subset_min_gamma", lambda ball: seen.append(ball) or sweep(ball))
    for n in range(5):
        cube._harper_table.__wrapped__(n)  # past the cache, so every radius is packed
        assert [ball.dtype for ball in seen] == [np.uint64] * (n + 1)
        assert [ball.tolist() for ball in seen] == [ball_masks(n, d) for d in range(n + 1)]
        seen.clear()


def test_all_outputs_matches_direct_majority():
    g = rng()
    cases = [([0b111, 0b11111000], [3, 5], 8),
             ([0b1, 0b110], [1, 2], 3),  # an even core: a tie reads 0
             ([0], [0], 0)]
    for length in (4, 7, 10):
        cores = [int(c) for c in g.integers(0, 1 << length, size=5)]
        cases.append((cores, [c.bit_count() for c in cores], length))
    for cores, sizes, length in cases:
        words = kernels.all_outputs(np.array(cores, dtype=np.uint64),
                                    np.array(sizes, dtype=np.int64), length)
        assert words.dtype == np.uint32
        assert words.tolist() == [sum(vote(x, core) << k for k, core in enumerate(cores))
                                  for x in range(1 << length)]


def test_robustness_matches_python_loop():
    # the even core puts margins on the budget itself, where a block is
    # not robust
    cores, sizes = [0b111, 0b11111000, 0b11110000], [3, 5, 4]
    one_flip = [a | b for a in (0, 1, 2, 4) for b in (0, 8, 16, 32, 64, 128)]
    drawn = [int(p) for p in rng().integers(0, 1 << 8, size=32)]
    # within budget no output moves; a budget of 0 flips against 8-bit
    # patterns lets some outputs move
    for budgets2, patterns, positive in (([2, 2, 2], one_flip, False),
                                         ([0, 0, 0], drawn, True)):
        expect = robustness_oracle(cores, budgets2, patterns, 8)
        assert (expect > 0) == positive
        got = kernels.robustness_violations(
            np.array(cores, dtype=np.uint64), np.array(sizes, dtype=np.int64),
            np.array(budgets2, dtype=np.int64), np.array(patterns, dtype=np.uint64), 8)
        assert got == expect


@st.composite
def robustness_cases(draw):
    """A 3-block partition of L <= 8 bits, a budget of 0..3 flips per
    block and up to 16 patterns, repeats included."""
    length = draw(st.integers(3, 8), label="L")
    cuts = sorted(draw(st.sets(st.integers(1, length - 1), min_size=2, max_size=2)))
    sizes = sorted((cuts[0], cuts[1] - cuts[0], length - cuts[1]))
    cores, core_sizes = kernels.core_words(BlockSchedule.from_sizes(sizes).odd_cores)
    budgets2 = [2 * g for g in draw(st.lists(st.integers(0, 3), min_size=3, max_size=3))]
    patterns = draw(st.lists(st.integers(0, (1 << length) - 1), max_size=16))
    return cores, core_sizes, budgets2, patterns, length


@given(robustness_cases())
@settings(max_examples=500, deadline=None)
def test_robustness_matches_python_loop_on_drawn_schedules(case):
    cores, core_sizes, budgets2, patterns, length = case
    got = kernels.robustness_violations(cores, core_sizes, np.array(budgets2, dtype=np.int64),
                                        np.array(patterns, dtype=np.uint64), length)
    assert got == robustness_oracle(cores.tolist(), budgets2, patterns, length)
