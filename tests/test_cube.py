"""Cube combinatorics against the brute-force references of
tests/oracles.py, which recompute everything by enumeration, independent
of the package's indicator-array kernels."""

import math
from itertools import accumulate, product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hamext import kernels
from hamext.bits import prefix_distances
from hamext.cube import (CUBE_CEILING, TAIL_CEILING, binomial_tail, binomial_tails, bracket,
                         distances_from, gamma_sizes, harper_min_neighborhood, harper_table,
                         make_sphere)
from hamext.errors import DomainError, ResourceError
from oracles import (binomial_row, distance_oracle, gamma_oracle, harper_min_oracle,
                     row_bracket, row_tail, vertex_text)


def hamming_distance(a, b) -> int:
    """d(a, b) as the prefix distance at the full length."""
    return int(prefix_distances(a, b, [len(a)])[0])


def neighborhood(A, n: int, d: int) -> set[int]:
    """Γ_d(A) of vertex masks, read from kernels.distance_to_set; the empty
    set, at distance n+1 from every point, has an empty neighborhood."""
    inside = np.zeros(1 << n, dtype=np.bool_)
    inside[list(A)] = True
    return set(np.flatnonzero(kernels.distance_to_set(inside, n) <= d).tolist())


class TestHammingDistance:
    """The metric axioms of prefix_distances at the full length."""

    def test_identity(self):
        assert hamming_distance("0000", "0000") == 0

    def test_full_complement(self):
        assert hamming_distance("101", "010") == 3

    def test_positionwise(self):
        assert hamming_distance("10110", "00111") == 2

    def test_length_mismatch(self):
        with pytest.raises(DomainError):
            hamming_distance("00", "000")

    def test_metric_exhaustive_pairs(self):
        for n in (1, 3, 8):
            texts = [vertex_text(v, n) for v in range(1 << n)]
            for u, a in enumerate(texts):
                distances = distance_oracle({u}, n)
                for v, b in enumerate(texts):
                    d = hamming_distance(a, b)
                    assert d == distances[v]
                    assert d == hamming_distance(b, a)
                    assert (d == 0) == (a == b)

    def test_triangle_exhaustive(self):
        for n in (2, 4):
            texts = [vertex_text(v, n) for v in range(1 << n)]
            for a, b, c in product(texts, repeat=3):
                assert hamming_distance(a, b) <= hamming_distance(a, c) + hamming_distance(c, b)

    @given(st.integers(0, 255), st.integers(0, 255), st.integers(0, 255))
    @settings(max_examples=200)
    def test_triangle_random_n8(self, x, y, z):
        a, b, c = (vertex_text(v, 8) for v in (x, y, z))
        assert hamming_distance(a, b) <= hamming_distance(a, c) + hamming_distance(c, b)


class TestBinomialTail:
    def test_small_ball_sizes_by_enumeration(self):
        # |{v : weight(v) <= k}| over the whole cube
        assert len(gamma_oracle({0}, 3, 1)) == binomial_tail(3, 1) == 4
        assert len(gamma_oracle({0}, 4, 2)) == binomial_tail(4, 2) == 11

    def test_whole_cube(self):
        assert binomial_tail(5, 5) == 32
        assert binomial_tail(5, 9) == 32

    def test_negative_k(self):
        assert binomial_tail(7, -1) == 0

    def test_both_walks_match_comb_sum(self):
        # every k, so each n meets the walk up from 0, the walk down from
        # the middle, the mirror and the switch between them; the one place
        # the reference row is tied to math.comb
        for n in range(301):
            row = binomial_row(n)
            assert row == list(accumulate(math.comb(n, i) for i in range(n + 1)))
            assert binomial_tails(n) == row
            for k in range(-2, n + 3):
                assert binomial_tail(n, k) == row_tail(row, k), (n, k)

    def test_rejects_non_integer_arguments(self):
        for n, k in ((4.5, 2), (4, 2.5), ("4", 2)):
            with pytest.raises(DomainError):
                binomial_tail(n, k)

    def test_bracket_holds_every_proper_size(self):
        # b(n,r) <= |E| < b(n,r+1), r = -1 below one point
        for n in range(9):
            tails = binomial_tails(n)
            for size in range(1 << n):
                r = bracket(tails, size)
                assert (r == -1 or tails[r] <= size) and size < tails[r + 1]

    def test_mirror_identity_and_comb_sums_at_large_n(self):
        # both sides of the middle: the mirror branch and the direct sum
        for n in (2048, 2049, 10000):
            row = binomial_row(n)
            for k in (1030, *range(n // 2 - 4, n // 2 + 5)):
                assert binomial_tail(n, k) == row[k]
                assert binomial_tail(n, k) + binomial_tail(n, n - k - 1) == 1 << n

    @pytest.mark.parametrize("n, k", [(10 ** 20, 10 ** 20), (2 ** 40, 2 ** 39),
                                      (2 ** 80, 2 ** 80 - 2), (TAIL_CEILING, TAIL_CEILING)])
    def test_walks_past_the_ceiling_are_refused(self, n, k):
        # 10^20 leaked OverflowError from 1 << n, and 2^40 built the middle
        # term C(2^40, 2^39) of about 2^40 bits for longer than 10 s
        with pytest.raises(ResourceError, match="past the resource ceiling"):
            binomial_tail(n, k)

    def test_rows_past_the_ceiling_are_refused(self):
        # (n+1)^2 bit-steps: 16383 is the longest row under the ceiling
        assert math.isqrt(TAIL_CEILING) == 16383 + 1
        with pytest.raises(ResourceError, match="past the resource ceiling"):
            binomial_tails(16384)

    def test_a_short_walk_is_priced_by_its_terms_not_by_n(self):
        assert binomial_tail(2 ** 80, 1) == 2 ** 80 + 1
        assert binomial_tail(2 ** 80, 0) == 1
        assert binomial_tail(10 ** 5000, 2) == 1 + 10 ** 5000 + 10 ** 5000 * (10 ** 5000 - 1) // 2


class TestNeighborhood:
    """d-neighborhoods as kernels.distance_to_set rows read them, and
    their sizes as gamma_sizes counts them."""

    def test_singleton_radius_one(self):
        assert neighborhood({0b000}, 3, 1) == {0b000, 0b001, 0b010, 0b100}

    def test_zero_radius(self):
        a = {0b0110, 0b1001}
        assert neighborhood(a, 4, 0) == a

    def test_radius_equals_dimension(self):
        assert neighborhood({0}, 3, 3) == set(range(8))

    def test_empty_set(self):
        assert neighborhood(set(), 3, 2) == set()
        assert gamma_sizes(np.zeros((1, 8), dtype=np.bool_), 3).tolist() == [[0] * 4]

    def test_matches_oracle_random_sets(self):
        import random
        rng = random.Random(5)
        for n in (2, 3, 4, 5):
            for _ in range(10):
                members = set(rng.sample(range(1 << n), rng.randint(1, 1 << (n - 1))))
                gammas = [gamma_oracle(members, n, d) for d in range(n + 1)]
                assert [neighborhood(members, n, d) for d in range(n + 1)] == gammas
                inside = np.zeros((1, 1 << n), dtype=np.bool_)
                inside[0, list(members)] = True
                assert gamma_sizes(inside, n)[0].tolist() == [len(g) for g in gammas]

    def test_ball_sizes_every_center(self):
        # |Γ_d({c})| = b(n,d) independent of the center
        for n in range(1, 11):
            for c in (0, (1 << n) - 1, 0b1010101010 & ((1 << n) - 1)):
                tails = [binomial_tail(n, d) for d in range(n + 1)]
                assert [len(neighborhood({c}, n, d)) for d in range(n + 1)] == tails
                assert gamma_sizes(distances_from(n, c)[None] == 0, n)[0].tolist() == tails

    def test_composition(self):
        # Γ_d(Γ_e(A)) = Γ_{d+e}(A); exhaustive over every A for n <= 3
        for n in (2, 3):
            for bits in range(1, 1 << (1 << n)):
                A = {v for v in range(1 << n) if (bits >> v) & 1}
                for d in range(n + 1):
                    for e in range(n + 1 - d):
                        assert neighborhood(neighborhood(A, n, e), n, d) == \
                            neighborhood(A, n, d + e)

    def test_composition_sampled_n6(self):
        import random
        rng = random.Random(11)
        for _ in range(20):
            A = set(rng.sample(range(64), rng.randint(1, 20)))
            d, e = rng.randint(0, 3), rng.randint(0, 3)
            assert neighborhood(neighborhood(A, 6, e), 6, d) == neighborhood(A, 6, d + e)

    def test_monotone(self):
        A = {0b0000}
        B = {0b0000, 0b1111}
        for d in range(4):
            assert neighborhood(A, 4, d) <= neighborhood(B, 4, d)
            assert neighborhood(A, 4, d) <= neighborhood(A, 4, min(d + 1, 4))


class TestMakeSphere:
    def test_matches_linear_scan(self):
        import random
        rng = random.Random(13)
        for n in (*range(0, 40), *range(40, 301, 13), 300):
            row = binomial_row(n)
            sizes = {0, 1 << n, *(rng.randrange((1 << n) + 1) for _ in range(4))}
            sizes |= {b + e for b in rng.sample(row, min(3, len(row))) for e in (-1, 0, 1)}
            for size in sorted(s for s in sizes if 0 <= s <= 1 << n):
                s = make_sphere(n, size, "0" * n)
                r = row_bracket(row, size)
                assert (s.inner_radius, s.shell_count) == (r, size - row_tail(row, r))

    def test_half_cube_at_n_2000(self):
        s = make_sphere(2000, 2 ** 1999, "0" * 2000)
        assert s.inner_radius == 999
        assert s.shell_count == 2 ** 1999 - binomial_tail(2000, 999)

    def test_exact_ball(self):
        s = make_sphere(3, 4, "000")  # b(3,1) = 4 per the enumeration above
        assert (s.inner_radius, s.shell_count) == (1, 0)

    def test_empty(self):
        s = make_sphere(3, 0, "000")
        assert (s.inner_radius, s.shell_count) == (-1, 0)
        assert not s.indicator().any()

    def test_ball_plus_one(self):
        s = make_sphere(4, 12, "0000")  # b(4,2) = 11
        assert (s.inner_radius, s.shell_count) == (2, 1)

    def test_out_of_range(self):
        with pytest.raises(DomainError):
            make_sphere(3, 9, "000")

    def test_dimension_is_the_center_length(self):
        assert make_sphere(3, 2, "000").dimension == 3
        assert make_sphere(5, 7, "01101").dimension == 5
        with pytest.raises(DomainError, match="center has length 2, want 3"):
            make_sphere(3, 4, "00")

    def test_shell_bound_is_priced_before_it_is_built(self):
        # every sphere make_sphere builds is priced under the ceiling
        s = make_sphere(16383, (1 << 16382) + 1, "0" * 16383)  # b(16383, 8191) = 2^16382
        assert (s.inner_radius, s.shell_count) == (8191, 1)

    def test_realizes_size_and_sandwich(self):
        for n in (2, 3, 4, 5, 6):
            row = binomial_row(n)
            for size in range((1 << n) + 1):
                for center in (0, 1):
                    s = make_sphere(n, size, vertex_text(center, n))
                    members = set(np.flatnonzero(s.indicator()).tolist())
                    assert len(members) == size == row_tail(row, s.inner_radius) + s.shell_count
                    if size:
                        inner = gamma_oracle({center}, n, s.inner_radius)
                        outer = gamma_oracle({center}, n, s.inner_radius + 1)
                        assert inner <= members <= outer

    def test_gamma_size_counts_the_neighborhood(self):
        # the Harper table reads gamma_sizes directly, so this is gamma_size's value check
        for n, size, center in ((3, 0, "000"), (4, 5, "0101"), (5, 12, "10110")):
            s = make_sphere(n, size, center)
            members = set(np.flatnonzero(s.indicator()).tolist())
            assert [s.gamma_size(d) for d in range(n + 1)] == [
                len(gamma_oracle(members, n, d)) for d in range(n + 1)]

    def test_complement_duality(self):
        # complement of a canonical sphere sits inside the ball of the
        # complementary size around the complemented center
        for n in (2, 3, 4, 5, 6):
            for size in range((1 << n) + 1):
                s = make_sphere(n, size, "0" * n)
                comp = set(np.flatnonzero(~s.indicator()).tolist())
                dual = make_sphere(n, (1 << n) - size, "1" * n)
                radius = dual.inner_radius + (1 if dual.shell_count else 0)
                assert comp <= gamma_oracle({(1 << n) - 1}, n, radius)


class TestHarper:
    def test_spec_cases(self):
        assert harper_min_neighborhood(3, 4, 1) == (7, 7)
        assert harper_min_neighborhood(3, 1, 1) == (4, 4)
        assert harper_min_neighborhood(3, 8, 1) == (8, 8)
        assert harper_min_neighborhood(2, 4, 1) == (4, 4)

    def test_against_independent_oracle(self):
        for n in (2, 3):
            for d in range(n + 1):
                for size, least in enumerate(harper_min_oracle(n, d)):
                    assert harper_min_neighborhood(n, size, d) == (least, least)

    def test_ceiling(self):
        with pytest.raises(ResourceError) as err:
            harper_min_neighborhood(5, 3, 1)
        assert "4" in str(err.value)

    def test_rejects_non_integer_arguments(self):
        for args in ((3, 2.5, 1), (3, 2, 1.0), (3.0, 2, 1)):
            with pytest.raises(DomainError):
                harper_min_neighborhood(*args)
        harper_table(3)  # 3.0 == 3 would find this entry in a cache keyed on the raw n
        for n in (3.0, "3", None):
            with pytest.raises(DomainError):
                harper_table(n)


def shell_order(n: int, center: str) -> list[int]:
    """The radius-2 shell's vertices in the order canonical spheres
    around `center` take them in: each size past the radius-1 ball adds
    one vertex to the sphere's indicator."""
    spheres = [make_sphere(n, size, center).indicator()
               for size in range(1 + n, binomial_row(n)[2] + 1)]
    order = []
    for before, after in zip(spheres, spheres[1:]):
        [added] = np.flatnonzero(after & ~before).tolist()
        order.append(added)
    return order


class TestShellOrder:
    def test_descending_offset_masks(self):
        assert shell_order(4, "0000") == [0b1100, 0b1010, 0b1001, 0b0110, 0b0101, 0b0011]

    def test_translation_by_center(self):
        base = shell_order(5, "00000")
        shifted = shell_order(5, "10101")  # vertex mask 0b10101: position i is bit i
        assert [v ^ 0b10101 for v in shifted] == base


class TestCubeCeiling:
    def test_ceiling_is_the_largest_indexable_cube(self):
        # the rule bit_stream applies to a length: 2^n vertices fit a numpy index
        assert 1 << CUBE_CEILING <= np.iinfo(np.intp).max < 1 << (CUBE_CEILING + 1)

    @pytest.mark.parametrize("n", [CUBE_CEILING + 1, 10 ** 20, 2 ** 64 + 1])
    def test_dimension_past_the_ceiling_is_a_resource_error(self, n):
        # 10^20 leaked OverflowError and 2^64 + 1 MemoryError from 1 << n
        with pytest.raises(ResourceError):
            distances_from(n)
