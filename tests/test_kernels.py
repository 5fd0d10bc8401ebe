"""Both kernel backends must agree bit-for-bit on every sweep; kernels
with a single implementation are checked against brute-force oracles."""

import os
import subprocess
import sys
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hamext import kernels
from hamext.errors import DimensionError


def rng():
    return np.random.Generator(np.random.Philox(key=1234))


def test_backend_is_numba_here():
    # the suite runs with numba available; the numpy lane is exercised
    # through the *_np functions below and the subprocess test
    assert kernels.BACKEND in ("numba", "numpy")


def test_popcount_matches_python():
    vals = rng().integers(0, 1 << 63, size=500, dtype=np.uint64)
    expect = [int(v).bit_count() for v in vals]
    assert kernels.popcount_np(vals).tolist() == expect
    assert kernels.popcount_nb(vals).tolist() == expect


def test_popcount_nb_raises_no_overflow_warning():
    words = [0, 1 << 63, (1 << 64) - 1]
    words += rng().integers(0, 1 << 64, size=64, dtype=np.uint64).tolist()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        counts = kernels.popcount_nb(np.array(words, dtype=np.uint64))
    assert counts.tolist() == [w.bit_count() for w in words]


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


def test_subset_min_gamma_backends_agree():
    for n, d in ((2, 1), (3, 1), (3, 2), (4, 1), (4, 3)):
        ball = _ball_masks(n, d)
        assert np.array_equal(kernels.subset_min_gamma_np(ball),
                              kernels.subset_min_gamma_nb(ball))


def test_all_outputs_backends_agree():
    cores = np.array([0b111, 0b11111000, 0b1111100000000], dtype=np.uint64)
    sizes = np.array([3, 5, 5], dtype=np.int64)
    a = kernels.all_outputs_np(cores, sizes, 13)
    b = kernels.all_outputs_nb(cores, sizes, 13)
    assert np.array_equal(a, b)


def test_robustness_backends_agree():
    cores = np.array([0b111, 0b11111000], dtype=np.uint64)
    sizes = np.array([3, 5], dtype=np.int64)
    budgets2 = np.array([2, 2], dtype=np.int64)
    patterns = rng().integers(0, 1 << 8, size=32, dtype=np.uint64)
    a = kernels.robustness_violations_np(cores, sizes, budgets2, patterns, 8)
    b = kernels.robustness_violations_nb(cores, sizes, budgets2, patterns, 8)
    assert a == b


def test_env_flag_selects_numpy_backend():
    env = dict(os.environ, HAMEXT_BACKEND="numpy")
    out = subprocess.run(
        [sys.executable, "-c",
         "from hamext import kernels; print(kernels.BACKEND, "
         "kernels.popcount is kernels.popcount_np)"],
        capture_output=True, text=True, env=env, check=True)
    assert out.stdout.split() == ["numpy", "True"]


def test_env_flag_rejects_unknown():
    env = dict(os.environ, HAMEXT_BACKEND="cuda")
    out = subprocess.run([sys.executable, "-c", "import hamext.kernels"],
                         capture_output=True, text=True, env=env)
    assert out.returncode != 0
    assert "HAMEXT_BACKEND" in out.stderr
