"""Every caller-supplied integer is read by bits.read_index: a float, a
digit string or None is refused with the parameter's HamextError
subclass rather than rounded, accepted or leaked as a TypeError, and so
is an integer outside the parameter's range. A parameter that takes a
collection of them refuses a value that is not one the same way.
Rational and real parameters are read by bits._real, which refuses
text that spells no number, nan, ±inf and None with DomainError."""

import math
import operator
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hamext.adversary import (AdversarySchedule, force_majority_zero,
                              force_output_zero_generic, stages_from_blocks)
from hamext.bits import read_index
from hamext.budgets import (BudgetFunction, affine_sqrt_budget, lil_budget, parse_budget,
                            power_budget, table_budget)
from hamext.cube import (EventFamily, SphereSpec, binomial_tail, make_sphere,
                         neighborhood)
from hamext.errors import (ConfigError, ContractError, DimensionError, DomainError,
                           HamextError)
from hamext.extractor import (BlockSchedule, check_schedule, extract, majority_bit,
                              make_schedule, psi_deviation, similar_p_N)
from hamext.keylemma import containment_profile, verify_key_lemma
from hamext.rng import bit_stream
from hamext.stats import (berry_esseen_bound, binomial_cdf_gap, frequency_on_set,
                          majority_refinement, small_ball_bound, small_ball_probability,
                          sparse_subsequence, weber_series)

G = parse_budget("power:1/3")
FAMILY = EventFamily(3, frozenset({0}))
REFUSED = (2.5, "3", None)
NOT_A_CORE = ([0, 1, 2], {0, 1, 2}, np.arange(3), range(0, 5, 2), None)

# (parameter, call with the value under test, its error, the values it refuses:
# the non-integers and, where the parameter has a range, an integer outside it)
ROWS = [
    ("table_budget constant", lambda v: table_budget(v), DomainError, REFUSED + (-1,)),
    ("table_budget value", lambda v: table_budget([(1, v)]), DomainError, REFUSED + (-1,)),
    ("BudgetFunction n", lambda v: G(v), DomainError, REFUSED + (-1,)),
    ("divergence_modulus k", lambda v: parse_budget("power:1").divergence_modulus(v),
     DomainError, REFUSED),
    ("frequency_on_set position", lambda v: frequency_on_set("1011", {v}, [4]),
     DomainError, REFUSED + (4,)),
    ("make_schedule block_count", lambda v: make_schedule(G, v), DomainError, REFUSED + (0,)),
    ("check_schedule N", lambda v: check_schedule(BlockSchedule.from_sizes((1,)), G, [v]),
     DomainError, REFUSED + (-1,)),
    ("binomial_tail n", lambda v: binomial_tail(v, 1), DomainError, REFUSED + (-1,)),
    ("make_sphere size", lambda v: make_sphere(3, v, "000"), DomainError, REFUSED + (9,)),
    ("SphereSpec shell_count", lambda v: SphereSpec(3, "000", 0, v),
     DomainError, REFUSED + (4,)),
    ("SphereSpec.gamma_size d", lambda v: make_sphere(3, 4, "000").gamma_size(v),
     DomainError, REFUSED + (4,)),
    ("neighborhood d", lambda v: neighborhood(["00"], v), DomainError, REFUSED + (3,)),
    ("EventFamily dimension", lambda v: EventFamily(v, frozenset()),
     DomainError, REFUSED + (-1,)),
    # None is the default: the profile up to d = n
    ("containment_profile max_d", lambda v: containment_profile(FAMILY, v),
     DomainError, (2.5, "3", -1)),
    ("bit_stream seed", lambda v: bit_stream(v, 8), DomainError, REFUSED + (1 << 64,)),
    ("berry_esseen_bound n", lambda v: berry_esseen_bound(v), DomainError, REFUSED + (0,)),
    ("binomial_cdf_gap n", lambda v: binomial_cdf_gap(v), DomainError, REFUSED + (0,)),
    ("small_ball_probability n", lambda v: small_ball_probability(v, 2),
     DomainError, REFUSED + (0,)),
    ("small_ball_probability g", lambda v: small_ball_probability(10, v),
     DomainError, REFUSED + (-1,)),
    ("small_ball_bound g", lambda v: small_ball_bound(10, v), DomainError, REFUSED + (-1,)),
    ("weber_series n_max", lambda v: weber_series([2, 4], v), DomainError, REFUSED + (0,)),
    ("WeberSeries.p_count n", lambda v: weber_series([2], 4).p_count(v),
     DomainError, REFUSED + (5,)),
    ("WeberSeries.log_rate k", lambda v: weber_series([2], 4).log_rate(v),
     DomainError, REFUSED + (1,)),
    ("sparse_subsequence n_max", lambda v: sparse_subsequence(lambda k: 1.0, v),
     DomainError, REFUSED + (0,)),
    ("force_output_zero_generic window",
     lambda v: force_output_zero_generic("0101", (0, v), "", lambda t: 0),
     DimensionError, REFUSED + (5,)),
    ("BlockSchedule bound", lambda v: BlockSchedule(((0, v),)), ConfigError, REFUSED + (0,)),
    ("BlockSchedule.from_sizes size", lambda v: BlockSchedule.from_sizes((v,)),
     ConfigError, REFUSED + (0,)),
    ("AdversarySchedule stage bound", lambda v: AdversarySchedule((0, v), (0,), G),
     ConfigError, REFUSED + (-1,)),
    ("AdversarySchedule target", lambda v: AdversarySchedule((0, 3), (v,), G),
     ConfigError, REFUSED + (-1,)),
    ("stages_from_blocks target",
     lambda v: stages_from_blocks(BlockSchedule.from_sizes((1, 2, 3)), G, [v]),
     ConfigError, REFUSED + (3,)),
    # collections of integers given a value that is not one
    ("frequency_on_set positions", lambda v: frequency_on_set("1011", v, [4]),
     DomainError, (5, None)),
    ("BlockSchedule.from_sizes sizes", lambda v: BlockSchedule.from_sizes(v),
     ConfigError, (5, None)),
    ("stages_from_blocks targets",
     lambda v: stages_from_blocks(BlockSchedule.from_sizes((1, 2, 3)), G, v), ConfigError, (5,)),
    ("AdversarySchedule stage_bounds", lambda v: AdversarySchedule(v, (0,), G),
     ConfigError, (5, None)),
    ("EventFamily members", lambda v: EventFamily(3, v), DomainError, (5, None)),
    ("BlockSchedule block pair", lambda v: BlockSchedule((v,)), ConfigError,
     ((0,), (0, 1, 2), 5)),
    ("BlockSchedule blocks", lambda v: BlockSchedule(v), ConfigError, (5, None)),
    ("extract schedule", lambda v: extract("101", v), ConfigError,
     (5, None, [[0, 1, 2]], ((0, 3),))),
    # a majority core is a step-1 range
    ("majority_bit core", lambda v: majority_bit("101", v), ContractError, NOT_A_CORE),
    ("force_majority_zero core", lambda v: force_majority_zero("101", v),
     ContractError, NOT_A_CORE),
    ("neighborhood A", lambda v: neighborhood(v, 1), DomainError, (5, None)),
    ("majority_refinement strings", lambda v: majority_refinement(v), DomainError, (5, None)),
    ("EventFamily.from_strings strings", lambda v: EventFamily.from_strings(v),
     DomainError, (5, None)),
    ("similar_p_N n0", lambda v: similar_p_N("1011", "1011", G, [4], n0=v),
     DomainError, REFUSED + (-1,)),
    # the raw budget constructor reads its kind and params as the kind constructors do
    ("BudgetFunction kind", lambda v: BudgetFunction(v, (1, 1)), DomainError,
     ("foo", "", 5, None, ["power"])),
    ("BudgetFunction power params", lambda v: BudgetFunction("power", v), DomainError,
     ((), (Fraction(1, 2),), (1, 2, 3), ("x", 1), (-1, 1), 5, None)),
    ("BudgetFunction table params", lambda v: BudgetFunction("table", v), DomainError,
     ((), ((0, 2.5),), ((0, 2), (4, 1)), (3,), 5, None)),
    ("BudgetFunction lil params", lambda v: BudgetFunction("lil", v), DomainError,
     ((), ("x",), (1.5,), (-0.5,), 5, None)),
    # a bit string given a value that is not one
    ("SphereSpec center", lambda v: SphereSpec(3, v, 0, 0), DomainError, (101, "abc", None)),
    # text given a value that is not text
    ("parse_budget token", lambda v: parse_budget(v), DomainError, (5, None)),
    ("BlockSchedule.from_text text", lambda v: BlockSchedule.from_text(v), ConfigError, (5, None)),
]


@pytest.mark.parametrize("call, error, refused", [row[1:] for row in ROWS],
                         ids=[row[0] for row in ROWS])
def test_integer_parameters_refuse_non_integers_and_out_of_range(call, error, refused):
    for value in refused:
        with pytest.raises(error):
            call(value)


# (parameter, call with the value under test): each refuses these with DomainError
REAL_ROWS = [
    ("power_budget alpha", lambda v: power_budget(v)),
    ("power_budget coeff", lambda v: power_budget(1, v)),
    ("affine_sqrt_budget a", lambda v: affine_sqrt_budget(v, 1)),
    ("affine_sqrt_budget c", lambda v: affine_sqrt_budget(1, v)),
    ("lil_budget eps", lambda v: lil_budget(v)),
    ("verify_key_lemma p_threshold", lambda v: verify_key_lemma(3, 1, v, 1)),
    ("psi_deviation epsilon", lambda v: psi_deviation("1010", "0000", epsilon=v, checkpoints=[4])),
]
NOT_FINITE = ("x", math.nan, math.inf, -math.inf, None)


@pytest.mark.parametrize("call", [row[1] for row in REAL_ROWS], ids=[row[0] for row in REAL_ROWS])
def test_real_parameters_refuse_non_numbers_and_non_finite(call):
    for value in NOT_FINITE:
        with pytest.raises(DomainError):
            call(value)


@given(st.one_of(st.floats(), st.text(max_size=8), st.none()))
@settings(max_examples=200, deadline=None)
def test_numbers_and_text_raise_only_hamext_errors(value):
    # every parameter of both tables
    for call in [row[1] for row in ROWS + REAL_ROWS]:
        try:
            call(value)
        except HamextError:
            pass


values = st.one_of(
    st.integers(-1 << 70, 1 << 70),
    st.booleans(),
    st.integers(-128, 127).map(np.int8),
    st.integers(0, (1 << 64) - 1).map(np.uint64),
    st.floats(allow_nan=True),
    st.text(max_size=4),
    st.none(),
)
ends = st.none() | st.integers(-20, 20)


@given(values, ends, ends, st.sampled_from([DomainError, ConfigError, DimensionError]))
@settings(max_examples=200)
def test_read_index(value, lo, hi, error):
    try:
        expect = operator.index(value)
    except TypeError:
        expect = None
    if expect is None or lo is not None and expect < lo or hi is not None and expect > hi:
        with pytest.raises(error):
            read_index(value, "value", lo, hi, error)
    else:
        got = read_index(value, "value", lo, hi, error)
        assert got == expect and type(got) is int
