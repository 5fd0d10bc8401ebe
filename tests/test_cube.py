"""Cube combinatorics against brute-force oracles.

The oracles here recompute everything positionwise/by enumeration,
independent of the package's indicator-array kernels.
"""

import math
from itertools import accumulate, combinations, product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hamext import kernels
from hamext.bits import as_bits, bits_to_mask, prefix_distances
from hamext.cube import (CUBE_CEILING, TAIL_CEILING, binomial_tail, binomial_tails, bracket,
                         distances_from, harper_min_neighborhood, make_sphere)
from hamext.errors import DimensionError, DomainError, ResourceError


def dist_oracle(a: str, b: str) -> int:
    assert len(a) == len(b)
    return sum(x != y for x, y in zip(a, b))


def cube_strings(n):
    return ["".join(bits) for bits in product("01", repeat=n)]


def gamma_oracle(members, d):
    """Brute-force d-neighborhood over the whole cube."""
    members = list(members)
    if not members:
        return set()
    n = len(members[0])
    return {y for y in cube_strings(n)
            if min(dist_oracle(y, a) for a in members) <= d}


def hamming_distance(a, b) -> int:
    """d(a, b) as the prefix distance at the full length."""
    return int(prefix_distances(a, b, [len(a)])[0])


def vertex_text(v: int, n: int) -> str:
    """The vertex mask v as a bit string, position i = bit i."""
    return "".join("1" if (v >> i) & 1 else "0" for i in range(n))


def neighborhood(A, d: int) -> set[str]:
    """Γ_d(A) as bit strings, read from kernels.distance_to_set; the empty
    set, at distance n+1 from every point, has an empty neighborhood."""
    members = list(A)
    if not members:
        return set()
    n = len(members[0])
    inside = np.zeros(1 << n, dtype=np.bool_)
    inside[[bits_to_mask(as_bits(a)) for a in members]] = True
    return {vertex_text(int(v), n) for v in np.flatnonzero(kernels.distance_to_set(inside, n) <= d)}


class TestHammingDistance:
    """The metric axioms of prefix_distances at the full length."""

    def test_identity(self):
        assert hamming_distance("0000", "0000") == 0

    def test_full_complement(self):
        assert hamming_distance("101", "010") == 3

    def test_positionwise(self):
        assert dist_oracle("10110", "00111") == 2
        assert hamming_distance("10110", "00111") == 2

    def test_length_mismatch(self):
        with pytest.raises(DimensionError):
            hamming_distance("00", "000")

    def test_metric_exhaustive_pairs(self):
        for n in (1, 3, 8):
            strings = cube_strings(n)
            for a in strings:
                for b in strings:
                    d = hamming_distance(a, b)
                    assert d == dist_oracle(a, b)
                    assert d == hamming_distance(b, a)
                    assert (d == 0) == (a == b)

    def test_triangle_exhaustive(self):
        for n in (2, 4):
            strings = cube_strings(n)
            for a, b, c in product(strings, repeat=3):
                assert hamming_distance(a, b) <= hamming_distance(a, c) + hamming_distance(c, b)

    @given(st.integers(0, 255), st.integers(0, 255), st.integers(0, 255))
    @settings(max_examples=200)
    def test_triangle_random_n8(self, x, y, z):
        a, b, c = (vertex_text(v, 8) for v in (x, y, z))
        assert hamming_distance(a, b) <= hamming_distance(a, c) + hamming_distance(c, b)


class TestBinomialTail:
    def test_small_ball_sizes_by_enumeration(self):
        # |{v : weight(v) <= k}| over the whole cube
        assert sum(1 for s in cube_strings(3) if s.count("1") <= 1) == 4
        assert binomial_tail(3, 1) == 4
        assert sum(1 for s in cube_strings(4) if s.count("1") <= 2) == 11
        assert binomial_tail(4, 2) == 11

    def test_whole_cube(self):
        assert binomial_tail(5, 5) == 32
        assert binomial_tail(5, 9) == 32

    def test_negative_k(self):
        assert binomial_tail(7, -1) == 0

    def test_both_walks_match_comb_sum(self):
        # every k, so each n meets the walk up from 0, the walk down from
        # the middle, the mirror and the switch between them
        for n in range(301):
            row = list(accumulate(math.comb(n, i) for i in range(n + 1)))
            for k in range(-2, n + 3):
                assert binomial_tail(n, k) == (0 if k < 0 else row[min(k, n)]), (n, k)

    def test_matches_comb_sum(self):
        for n in range(65):
            row = [sum(math.comb(n, i) for i in range(k + 1)) for k in range(n + 1)]
            assert binomial_tails(n) == row
            for k in range(-2, n + 3):
                expect = sum(math.comb(n, i) for i in range(max(k, -1) + 1) if i <= n)
                assert binomial_tail(n, k) == expect


    def test_rejects_non_integer_arguments(self):
        for n, k in ((4.5, 2), (4, 2.5), ("4", 2)):
            with pytest.raises(DomainError):
                binomial_tail(n, k)

    def test_row_matches_per_k_tails(self):
        for n in range(12):
            assert binomial_tails(n) == [binomial_tail(n, k) for k in range(n + 1)]

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
            for k in (n // 2 - 3, n // 2 - 1, n // 2, n // 2 + 1, n // 2 + 4):
                assert binomial_tail(n, k) + binomial_tail(n, n - k - 1) == 1 << n
        assert binomial_tail(2048, 1030) == sum(math.comb(2048, i) for i in range(1031))
        # an even row sums to (2^n - C(n, n/2))/2 below its middle term;
        # walk a few terms either way with math.comb
        for n in (2048, 10000):
            half = n // 2
            below = ((1 << n) - math.comb(n, half)) // 2
            for k in range(half - 4, half + 5):
                if k < half:
                    expect = below - sum(math.comb(n, i) for i in range(k + 1, half))
                else:
                    expect = below + sum(math.comb(n, i) for i in range(half, k + 1))
                assert binomial_tail(n, k) == expect

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
    """d-neighborhoods as kernels.distance_to_set rows read them."""

    def test_singleton_radius_one(self):
        assert gamma_oracle({"000"}, 1) == {"000", "001", "010", "100"}
        assert neighborhood({"000"}, 1) == {"000", "001", "010", "100"}

    def test_zero_radius(self):
        a = {"0110", "1001"}
        assert neighborhood(a, 0) == a

    def test_radius_equals_dimension(self):
        assert neighborhood({"000"}, 3) == set(cube_strings(3))

    def test_empty_set(self):
        assert neighborhood(set(), 2) == set()

    def test_matches_oracle_random_sets(self):
        import random
        rng = random.Random(5)
        for n in (2, 3, 4, 5):
            for _ in range(10):
                members = set(rng.sample(cube_strings(n), rng.randint(1, 1 << (n - 1))))
                for d in range(n + 1):
                    assert neighborhood(members, d) == gamma_oracle(members, d)

    def test_ball_sizes_every_center(self):
        # |Γ_d({c})| = b(n,d) independent of the center
        for n in range(1, 11):
            for c in (0, (1 << n) - 1, 0b1010101010 & ((1 << n) - 1)):
                center = vertex_text(c, n)
                sizes = [len(neighborhood({center}, d)) for d in range(n + 1)]
                assert sizes == [binomial_tail(n, d) for d in range(n + 1)]

    def test_composition(self):
        # Γ_d(Γ_e(A)) = Γ_{d+e}(A); exhaustive over every A for n <= 3
        for n in (2, 3):
            strings = cube_strings(n)
            for bits in range(1, 1 << len(strings)):
                A = {strings[i] for i in range(len(strings)) if (bits >> i) & 1}
                for d in range(n + 1):
                    for e in range(n + 1 - d):
                        assert neighborhood(neighborhood(A, e), d) == neighborhood(A, d + e)

    def test_composition_sampled_n6(self):
        import random
        rng = random.Random(11)
        strings = cube_strings(6)
        for _ in range(20):
            A = set(rng.sample(strings, rng.randint(1, 20)))
            d, e = rng.randint(0, 3), rng.randint(0, 3)
            assert neighborhood(neighborhood(A, e), d) == neighborhood(A, d + e)

    def test_monotone(self):
        A = {"0000"}
        B = {"0000", "1111"}
        for d in range(4):
            assert neighborhood(A, d) <= neighborhood(B, d)
            assert neighborhood(A, d) <= neighborhood(A, min(d + 1, 4))


def sphere_by_linear_scan(n, size):
    """(inner radius, shell count) by growing the ball one comb at a time."""
    k, ball = -1, 0
    while k < n and ball + math.comb(n, k + 1) <= size:
        k += 1
        ball += math.comb(n, k)
    return k, size - ball


class TestMakeSphere:
    def test_matches_linear_scan(self):
        import random
        rng = random.Random(13)
        for n in (*range(0, 40), *range(40, 301, 13), 300):
            balls = [sum(math.comb(n, i) for i in range(r + 1)) for r in range(n + 1)]
            sizes = {0, 1 << n, *(rng.randrange((1 << n) + 1) for _ in range(4))}
            sizes |= {b + e for b in rng.sample(balls, min(3, len(balls))) for e in (-1, 0, 1)}
            for size in sorted(s for s in sizes if 0 <= s <= 1 << n):
                s = make_sphere(n, size, "0" * n)
                assert (s.inner_radius, s.shell_count) == sphere_by_linear_scan(n, size)

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
        with pytest.raises(DimensionError, match="center has length 2, want 3"):
            make_sphere(3, 4, "00")

    def test_shell_bound_is_priced_before_it_is_built(self):
        # every sphere make_sphere builds is priced under the ceiling
        s = make_sphere(16383, (1 << 16382) + 1, "0" * 16383)  # b(16383, 8191) = 2^16382
        assert (s.inner_radius, s.shell_count) == (8191, 1)

    def test_realizes_size_and_sandwich(self):
        for n in (2, 3, 4, 5, 6):
            for size in range((1 << n) + 1):
                for center in ("0" * n, "1" + "0" * (n - 1)):
                    s = make_sphere(n, size, center)
                    members = {vertex_text(v, n) for v in np.flatnonzero(s.indicator())}
                    ball = sum(math.comb(n, j) for j in range(s.inner_radius + 1))
                    assert len(members) == size == ball + s.shell_count
                    if size:
                        inner = gamma_oracle({center}, max(s.inner_radius, 0)) \
                            if s.inner_radius >= 0 else set()
                        outer = gamma_oracle({center}, min(s.inner_radius + 1, n))
                        assert inner <= members <= outer

    def test_complement_duality(self):
        # complement of a canonical sphere sits inside the ball of the
        # complementary size around the complemented center
        for n in (2, 3, 4, 5, 6):
            for size in range((1 << n) + 1):
                s = make_sphere(n, size, "0" * n)
                comp = np.flatnonzero(~s.indicator()).tolist()
                dual = make_sphere(n, (1 << n) - size, "1" * n)
                radius = min(dual.inner_radius + (1 if dual.shell_count else 0), n)
                if not comp:
                    continue
                ball = gamma_oracle({"1" * n}, max(radius, 0))
                assert {vertex_text(v, n) for v in comp} <= ball


class TestHarper:
    def oracle_min(self, n, size, d):
        strings = cube_strings(n)
        best = None
        for A in combinations(strings, size):
            g = len(gamma_oracle(set(A), d)) if A else 0
            best = g if best is None else min(best, g)
        return best

    def test_spec_cases(self):
        assert harper_min_neighborhood(3, 4, 1) == (7, 7)
        assert harper_min_neighborhood(3, 1, 1) == (4, 4)
        assert harper_min_neighborhood(3, 8, 1) == (8, 8)
        assert harper_min_neighborhood(2, 4, 1) == (4, 4)

    def test_against_independent_oracle(self):
        for n in (2, 3):
            for size in range((1 << n) + 1):
                for d in range(n + 1):
                    mn, sphere = harper_min_neighborhood(n, size, d)
                    assert mn == self.oracle_min(n, size, d)
                    assert mn == sphere

    def test_ceiling(self):
        with pytest.raises(ResourceError) as err:
            harper_min_neighborhood(5, 3, 1)
        assert "4" in str(err.value)

    def test_rejects_non_integer_arguments(self):
        for args in ((3, 2.5, 1), (3, 2, 1.0), (3.0, 2, 1)):
            with pytest.raises(DomainError):
                harper_min_neighborhood(*args)


def shell_order(n: int, center: str) -> list[int]:
    """The radius-2 shell's vertices in the order canonical spheres
    around `center` take them in: each size past the radius-1 ball adds
    one vertex to the sphere's indicator."""
    ball = 1 + n
    spheres = [make_sphere(n, ball + j, center).indicator() for j in range(math.comb(n, 2) + 1)]
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
