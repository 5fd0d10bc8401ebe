import math
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hamext import budgets
from hamext.budgets import (_KINDS, LIL_CEILING, ROOT_CEILING, BudgetFunction, _iroot,
                            lil_envelope, lnln, parse_budget)
from hamext.errors import DomainError, HamextError, ResourceError
from oracles import ceil_oracle


def test_the_docstring_lists_every_kind():
    assert re.findall(r"^\* ``(\w+):", budgets.__doc__, re.M) == list(_KINDS)


class TestIroot:
    @staticmethod
    def assert_floor_root(x, q):
        r = _iroot(x, q)
        assert r ** q <= x < (r + 1) ** q

    @given(st.integers(0, 1 << 700), st.integers(1, 9))
    @settings(max_examples=500)
    def test_floor_root(self, x, q):
        self.assert_floor_root(x, q)

    @given(st.integers(0, 1 << 3000), st.integers(10, 3000))
    @settings(max_examples=200)
    def test_floor_root_of_high_degree(self, x, q):
        self.assert_floor_root(x, q)

    @given(st.integers(0, ROOT_CEILING), st.randoms(use_true_random=False))
    @settings(max_examples=50)
    def test_a_square_root_is_isqrts(self, bits, draw):
        x = draw.getrandbits(bits)
        assert _iroot(x, 2) == math.isqrt(x)

    @pytest.mark.parametrize("q", range(1, 10))
    def test_exact_powers_and_neighbours(self, q):
        roots = [*range(200), *(1 << b for b in range(8, 700 // q)),
                 *((1 << b) - 1 for b in range(8, 700 // q)), 3 ** (440 // q)]
        for r in roots:
            for x in (r ** q - 1, r ** q, r ** q + 1):
                if x >= 0:
                    self.assert_floor_root(x, q)


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

    def test_ceiling_of_the_exact_value_at_perfect_powers(self):
        # at n = k^q, coeff * n^(p/q) is the rational coeff * k^p
        for token, p, q, coeff in (("power:2/3:5/4", 2, 3, Fraction(5, 4)),
                                   ("power:1/2:7/3", 1, 2, Fraction(7, 3)),
                                   ("power:3/1:1/10", 3, 1, Fraction(1, 10))):
            for k in range(60):
                assert parse_budget(token)(k ** q) == ceil_oracle(coeff * k ** p)

    def test_the_root_is_priced(self):
        # p bits(n) + q (bits(coeff.num) + bits(coeff.den) + 1) bits: 93 327 for
        # power:0.3333 at n = 266 305; power:0.33333 (933 327 bits) took 1.4 s,
        # power:1e-8 (3 * 10^8 bits) 0.68 s and power:0.333333 about a minute
        assert parse_budget("power:0.3333")(266305) == 65
        for token in ("power:0.33333", "power:1e-8", "power:0.333333", "power:1e-12"):
            with pytest.raises(ResourceError, match="past the resource ceiling"):
                parse_budget(token)(266305)
        assert parse_budget("power:1e-12")(0) == 0  # n^p at n = 0 builds nothing

    def test_roots_up_to_the_ceiling(self):
        # power:1/2 prices bits(n) + 2 * 3: at ROOT_CEILING it takes an n of
        # ROOT_CEILING - 6 bits, and refuses one of a bit more
        half, root = parse_budget("power:1/2"), (1 << (ROOT_CEILING - 6) // 2) - 1
        assert [half(root * root), half(root * root + 1)] == [root, root + 1]
        with pytest.raises(ResourceError, match="past the resource ceiling"):
            half(1 << ROOT_CEILING - 6)
        # a 13-bit root of degree 8192: from twice the root it took 4 097
        # Newton steps, 5.5 s
        assert parse_budget("power:1/8192")((1 << 12 * 8192) + 1) == (1 << 12) + 1

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

    @pytest.mark.parametrize("n", [10 ** 24, 10 ** 40, pytest.param(1 << 100_000, id="2^100000")])
    def test_exact_at_huge_n(self, n):
        # m - a*n >= c*sqrt(n), compared as squares, holds for m and not m - 1
        a, c = Fraction(1, 3), Fraction(2)
        m = parse_budget("affine_sqrt:1/3:2")(n)

        def reaches(m):
            lead = m - a * n
            return lead >= 0 and lead * lead >= c * c * n

        assert reaches(m) and not reaches(m - 1)

    def test_the_root_is_priced(self):
        # bits(n) + 2 (bits(c.num) + bits(c.den) + bits(a.den)) bits: 300 010 at
        # n = 2^300 000, whose root took 0.84 s, and 2^(10^6) took 8.8 s
        with pytest.raises(ResourceError, match="past the resource ceiling"):
            parse_budget("affine_sqrt:1/3:2")(1 << 300_000)


class TestTable:
    def test_constant(self):
        g = parse_budget("table:1")
        assert [g(0), g(5), g(10 ** 9)] == [1, 1, 1]

    def test_step(self):
        g = parse_budget("table:1=0,4=1,16=2")
        assert [g(0), g(1), g(3), g(4), g(15), g(16), g(100)] == [0, 0, 0, 1, 1, 2, 2]

    def test_rejects_decreasing(self):
        with pytest.raises(DomainError):
            BudgetFunction("table", [(1, 2), (4, 1)])

    def test_an_entry_is_exactly_length_equals_value(self):
        # table:1=2=3 was read as table:1=2, its =3 dropped
        with pytest.raises(DomainError, match="exactly length=value"):
            parse_budget("table:1=2=3")

    def test_a_length_is_set_once(self):
        # table:1=0,1=5 was accepted, length 1 set twice
        with pytest.raises(DomainError, match="length 1 more than once"):
            parse_budget("table:1=0,1=5")
        with pytest.raises(DomainError, match="length 4 more than once"):
            BudgetFunction("table", [(4, 1), (0, 0), (4, 1)])

    def test_a_length_is_nonnegative(self):
        # table:-3=1,0=2 was accepted, and its -3 entry never applied
        for token in ("table:-3=1,0=2", "table:-3=1"):
            with pytest.raises(DomainError, match="table length -3 outside 0.."):
                parse_budget(token)


class TestLil:
    def test_value(self):
        b = parse_budget("lil:0.1")
        lam = math.log(math.log(100))
        assert b(100) == math.ceil(50 + 0.9 * math.sqrt(200 * lam))

    @pytest.mark.parametrize("eps", [0, 0.5, 1])
    def test_lengths_past_the_float_range_are_refused(self, eps):
        # the envelope's 2.0 * n * lnln(n) is finite up to LIL_CEILING, inf past it
        assert math.isfinite(2.0 * LIL_CEILING * lnln(LIL_CEILING))
        assert 2.0 * (LIL_CEILING + 1) * lnln(LIL_CEILING + 1) == math.inf
        b = BudgetFunction("lil", (eps,))
        assert b(LIL_CEILING) == math.ceil(lil_envelope(LIL_CEILING, eps))
        for n in (LIL_CEILING + 1, 1 << 1021, 10 ** 5000):
            with pytest.raises(ResourceError, match="past the resource ceiling"):
                b(n)


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


class TestTokens:
    def test_malformed(self):
        # power:1/2:3:x was read as power:1/2:3, its extra field dropped
        for bad in ("power:", "nope:3", "affine_sqrt:1", "table:a=b", "lil:x", "power:1/2:3:x",
                    "affine_sqrt:1:1:1", "lil:0.1:2"):
            with pytest.raises(DomainError):
                parse_budget(bad)

    def test_raw_constructor_reads_like_parse_budget(self):
        assert BudgetFunction("power", (1, 2)) == parse_budget("power:1:2")
        assert BudgetFunction("power", (0.5, 1)) == parse_budget("power:1/2")
        assert BudgetFunction("affine_sqrt", ("1/2", 1.0)) == parse_budget("affine_sqrt:1/2:1")
        assert BudgetFunction("table", [(4, 1), (0, 0)]) == parse_budget("table:0=0,4=1")
        assert BudgetFunction("table", [(0, 3)]) == parse_budget("table:3")
        assert BudgetFunction("lil", ["0.5"]) == parse_budget("lil:0.5")

    def test_negative_rejected(self):
        with pytest.raises(DomainError):
            BudgetFunction("power", (Fraction(-1, 2), 1))
        with pytest.raises(DomainError):
            BudgetFunction("affine_sqrt", (-1, 0))
        with pytest.raises(DomainError):
            BudgetFunction("lil", (1.5,))
