import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hamext.budgets import (BudgetFunction, affine_sqrt_budget, lil_budget, parse_budget,
                            power_budget, table_budget)
from hamext.errors import DomainError, HamextError


def ceil_oracle(value: Fraction) -> int:
    return -(-value.numerator // value.denominator)


class TestPower:
    def test_exact_at_perfect_powers(self):
        p = parse_budget("power:2/3")
        assert p(64) == 16
        assert p(4096) == 256
        assert p(262144) == 4096

    def test_matches_fraction_oracle(self):
        # m = ceil(c * n^(a/b)) <=> smallest m with (m*den)^b >= num^b * n^a
        for token, alpha, coeff in (("power:2/3", Fraction(2, 3), Fraction(1)),
                                    ("power:1/2:3/2", Fraction(1, 2), Fraction(3, 2)),
                                    ("power:1/5", Fraction(1, 5), Fraction(1))):
            p = parse_budget(token)
            for n in list(range(0, 50)) + [63, 64, 65, 1023, 1024, 1025, 59049]:
                got = p(n)
                if n == 0:
                    assert got == 0
                    continue
                q = alpha.denominator
                target = coeff.numerator ** q * n ** alpha.numerator
                den = coeff.denominator ** q
                assert got ** q * den >= target
                assert (got - 1) ** q * den < target or got == 0

    def test_float_pow_trap(self):
        # float(1/5) rounds up, so a float path would report 5 here
        assert parse_budget("power:1/5")(1024) == 4

    @given(st.integers(0, 10 ** 6))
    @settings(max_examples=200)
    def test_nondecreasing(self, n):
        p = parse_budget("power:2/3")
        assert p(n) <= p(n + 1)


class TestAffineSqrt:
    def test_examples(self):
        b = parse_budget("affine_sqrt:1/2:1")
        assert b(16) == 8 + 4
        assert b(10) == math.ceil(5 + math.sqrt(10))

    def test_pure_sqrt_ceiling(self):
        b = parse_budget("affine_sqrt:0:1")
        for n in range(0, 200):
            r = math.isqrt(n)
            assert b(n) == (r if r * r == n else r + 1)

    @given(st.integers(0, 10 ** 6))
    @settings(max_examples=200)
    def test_nondecreasing(self, n):
        b = parse_budget("affine_sqrt:1/3:2")
        assert b(n) <= b(n + 1)

    @pytest.mark.parametrize("n", [10 ** 24, 10 ** 40])
    def test_exact_at_huge_n(self, n):
        # m - a*n >= c*sqrt(n), compared as squares, holds for m and not m - 1
        a, c = Fraction(1, 3), Fraction(2)
        m = parse_budget("affine_sqrt:1/3:2")(n)

        def reaches(m):
            lead = m - a * n
            return lead >= 0 and lead * lead >= c * c * n

        assert reaches(m) and not reaches(m - 1)


class TestTable:
    def test_constant(self):
        g = parse_budget("table:1")
        assert [g(0), g(5), g(10 ** 9)] == [1, 1, 1]
        assert g.is_bounded

    def test_step(self):
        g = parse_budget("table:1=0,4=1,16=2")
        assert [g(0), g(1), g(3), g(4), g(15), g(16), g(100)] == [0, 0, 0, 1, 1, 2, 2]

    def test_rejects_decreasing(self):
        with pytest.raises(DomainError):
            table_budget([(1, 2), (4, 1)])


class TestLil:
    def test_value(self):
        b = parse_budget("lil:0.1")
        lam = math.log(math.log(100))
        assert b(100) == math.ceil(50 + 0.9 * math.sqrt(200 * lam))

    def test_not_bounded(self):
        assert not parse_budget("lil:0.5").is_bounded


class TestEveryLength:
    # lil's float envelope is inf or nan from n ~ 2^1021, and n past 2^1024
    # has no float at all: each must surface as a HamextError
    @given(st.sampled_from(["power:2/3", "power:3/4:2", "affine_sqrt:1/2:1", "table:1=0,4=1",
                            "lil:0", "lil:0.5", "lil:1"]),
           st.integers(0, 2 ** 1100) | st.integers(2 ** 1015, 2 ** 1030))
    @settings(max_examples=300, deadline=None)
    def test_an_int_or_a_hamext_error(self, token, n):
        try:
            value = parse_budget(token)(n)
        except HamextError:
            return
        assert isinstance(value, int) and value >= 0


class TestModulus:
    @pytest.mark.parametrize("token", ["power:2/3", "power:3/4:2", "affine_sqrt:1/2:1", "lil:0.1"])
    def test_witness_holds_pointwise(self, token):
        b = parse_budget(token)
        for k in (1, 2, 5, 11):
            N = b.divergence_modulus(k)
            assert N is not None
            for n in [N, N + 1, 2 * N, 10 * N + 3]:
                assert b(n) ** 2 >= k * k * n

    def test_no_witness_for_slow_budgets(self):
        assert parse_budget("table:7").divergence_modulus(2) is None
        assert parse_budget("power:1/2").divergence_modulus(2) is None
        assert parse_budget("power:1/3").divergence_modulus(2) is None


class TestTokens:
    @pytest.mark.parametrize("token", ["power:2/3", "power:2/3:5/4", "affine_sqrt:1/2:1",
                                       "table:1", "table:1=0,4=1", "lil:0.1"])
    def test_round_trip(self, token):
        b = parse_budget(token)
        assert parse_budget(b.token) == b

    def test_malformed(self):
        # power:1/2:3:x was read as power:1/2:3, its extra field dropped
        for bad in ("power:", "nope:3", "affine_sqrt:1", "table:a=b", "lil:x", "power:1/2:3:x",
                    "affine_sqrt:1:1:1", "lil:0.1:2"):
            with pytest.raises(DomainError):
                parse_budget(bad)

    def test_raw_constructor_reads_like_the_kind_constructors(self):
        assert BudgetFunction("power", (1, 2)) == power_budget(1, 2)
        assert BudgetFunction("power", (0.5, 1)) == power_budget(Fraction(1, 2))
        assert BudgetFunction("table", [(4, 1), (0, 0)]) == parse_budget("table:0=0,4=1")
        assert BudgetFunction("lil", ["0.5"]) == lil_budget(0.5)

    def test_negative_rejected(self):
        with pytest.raises(DomainError):
            power_budget(Fraction(-1, 2))
        with pytest.raises(DomainError):
            affine_sqrt_budget(-1, 0)
        with pytest.raises(DomainError):
            lil_budget(1.5)
