"""Every kernel against a brute-force oracle: Python int bit counts,
distance-defined balls and direct per-input majorities."""

import operator
from functools import reduce
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hamext import cube, kernels
from hamext.errors import DimensionError


def rng():
    return np.random.Generator(np.random.Philox(key=1234))


def _distance_oracle(ind, n):
    members = np.flatnonzero(ind).tolist()
    return [min(((v ^ u).bit_count() for u in members), default=n + 1)
            for v in range(1 << n)]


def test_distance_to_set_matches_brute_force():
    g = rng()
    for n in range(9):
        size = 1 << n
        for ind in (np.zeros(size, dtype=np.bool_), np.ones(size, dtype=np.bool_),
                    g.random(size) < 0.05, g.random(size) < 0.5):
            assert kernels.distance_to_set(ind, n).tolist() == _distance_oracle(ind, n)


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


def test_distance_needs_the_whole_cube_on_the_last_axis():
    for shape in ((8,), (2, 8), (16, 2)):
        with pytest.raises(DimensionError):
            kernels.distance_to_set(np.zeros(shape, dtype=np.bool_), 4)


def test_distance_from_singleton_gives_ball_sizes():
    n = 5
    ind = np.zeros(1 << n, dtype=np.bool_)
    ind[0] = True
    dist = kernels.distance_to_set(ind, n)
    assert [int(np.count_nonzero(dist <= d)) for d in range(n + 1)] == [1, 6, 16, 26, 31, 32]


def _ball_masks(n, d):
    balls = []
    for v in range(1 << n):
        m = 0
        for w in range(1 << n):
            if bin(v ^ w).count("1") <= d:
                m |= 1 << w
        balls.append(m)
    return np.array(balls, dtype=np.uint64)


def _min_gamma_oracle(balls):
    return [min(reduce(operator.or_, subset, 0).bit_count()
                for subset in combinations(balls, size))
            for size in range(len(balls) + 1)]


def test_subset_min_gamma_matches_brute_force():
    cases = [(n, d) for n in range(4) for d in range(n + 1)] + [(4, 1)]
    for n, d in cases:
        ball = _ball_masks(n, d)
        expect = _min_gamma_oracle([int(b) for b in ball])
        assert kernels.subset_min_gamma(ball).tolist() == expect


def test_harper_ball_words_match_distance_defined_balls(monkeypatch):
    seen = []
    sweep = kernels.subset_min_gamma
    monkeypatch.setattr(kernels, "subset_min_gamma", lambda ball: seen.append(ball) or sweep(ball))
    for n in range(5):
        for d in range(n + 1):
            cube._harper_mins.__wrapped__(n, d)  # past the cache, so every pair is packed
            assert seen[-1].dtype == np.uint64
            assert seen[-1].tolist() == _ball_masks(n, d).tolist()


def _outputs_oracle(cores, sizes, length):
    return [sum(1 << k for k, (core, size) in enumerate(zip(cores, sizes))
                if 2 * (x & core).bit_count() > size)
            for x in range(1 << length)]


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
        assert words.tolist() == _outputs_oracle(cores, sizes, length)


def _robustness_oracle(cores, sizes, budgets2, patterns, length):
    bad = 0
    for x in range(1 << length):
        for core, size, budget2 in zip(cores, sizes, budgets2):
            m2 = 2 * (x & core).bit_count() - size
            if abs(m2) <= budget2:
                continue
            for p in patterns:
                if (2 * ((x ^ p) & core).bit_count() - size > 0) != (m2 > 0):
                    bad += 1
    return bad


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
        expect = _robustness_oracle(cores, sizes, budgets2, patterns, 8)
        assert (expect > 0) == positive
        got = kernels.robustness_violations(
            np.array(cores, dtype=np.uint64), np.array(sizes, dtype=np.int64),
            np.array(budgets2, dtype=np.int64), np.array(patterns, dtype=np.uint64), 8)
        assert got == expect
