"""Every caller-supplied integer is read by bits.read_index: a float, a
digit string or None is refused with the parameter's HamextError
subclass rather than rounded, accepted or leaked as a TypeError, and so
is an integer outside the parameter's range. A parameter that takes a
collection of them refuses a value that is not one the same way.
Rational and real parameters are read by bits._real, which refuses
text that spells no number, nan, ±inf and None with DomainError. What a
callable parameter returns is read too, by the reader of its kind."""

import inspect
import math
import operator
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hamext
from hamext.adversary import corrupt, force_majority_zero, stages_from_blocks, verify_similarity
from hamext.bits import read_index
from hamext.budgets import BudgetFunction, parse_budget
from hamext.cube import (CUBE_CEILING, binomial_tail, distances_from, harper_min_neighborhood,
                         make_sphere)
from hamext.errors import ConfigError, DomainError, HamextError, ResourceError
from hamext.extractor import (BlockSchedule, extract, make_schedule, psi_deviation,
                              similar_p_N)
from hamext.keylemma import verify_key_lemma
from hamext.rng import bit_stream
from hamext.stats import (apply_selection, berry_esseen_bound, binomial_cdf_gap,
                          frequency_on_set, majority_refinement, small_ball_bound,
                          small_ball_probability, sparse_subsequence, weber_series)

G = parse_budget("power:1/3")
REFUSED = (2.5, "3", None)
NOT_A_CORE = ([0, 1, 2], {0, 1, 2}, np.arange(3), range(0, 5, 2), None)

# (parameter, call with the value under test, its error, the values it refuses:
# the non-integers and, where the parameter has a range, an integer outside it).
# A row "<kind>_budget <name>" is the parameter `name` of a budget of that
# kind, read by BudgetFunction(kind, params).
INTEGER_ROWS = [
    ("table_budget constant", lambda v: BudgetFunction("table", [(0, v)]),
     DomainError, REFUSED + (-1,)),
    ("table_budget value", lambda v: BudgetFunction("table", [(1, v)]),
     DomainError, REFUSED + (-1,)),
    # a negative length was accepted, and its entry never applied
    ("table_budget length", lambda v: BudgetFunction("table", [(v, 1)]),
     DomainError, REFUSED + (-1,)),
    ("BudgetFunction n", lambda v: G(v), DomainError, REFUSED + (-1,)),
    ("frequency_on_set position", lambda v: frequency_on_set("1011", {v}, [4]),
     DomainError, REFUSED + (4,)),
    ("make_schedule block_count", lambda v: make_schedule(G, v), DomainError, REFUSED + (0,)),
    ("binomial_tail n", lambda v: binomial_tail(v, 1), DomainError, REFUSED + (-1,)),
    ("make_sphere size", lambda v: make_sphere(3, v, "000"), DomainError, REFUSED + (9,)),
    ("SphereSpec.gamma_size d", lambda v: make_sphere(3, 4, "000").gamma_size(v),
     DomainError, REFUSED + (4,)),
    # the empty set's neighborhood was once returned without reading d;
    # gamma_size of the empty sphere is the size of that neighborhood
    ("neighborhood d of the empty set",
     lambda v: make_sphere(3, 0, "000").gamma_size(v), DomainError, REFUSED + (-1, 4)),
    # 8 used to read as popcount(v) + 1, 2^64 to leak OverflowError
    ("distances_from center", lambda v: distances_from(3, v), DomainError,
     REFUSED + (-1, 8, 1 << 64)),
    ("distances_from n", lambda v: distances_from(v), DomainError, REFUSED + (2.0, -1)),
    ("bit_stream seed", lambda v: bit_stream(v, 8), DomainError, REFUSED + (1 << 64,)),
    ("berry_esseen_bound n", lambda v: berry_esseen_bound(v), DomainError, REFUSED + (0,)),
    ("binomial_cdf_gap n", lambda v: binomial_cdf_gap(v), DomainError, REFUSED + (0,)),
    ("small_ball_probability n", lambda v: small_ball_probability(v, 2),
     DomainError, REFUSED + (0,)),
    ("small_ball_probability g", lambda v: small_ball_probability(10, v),
     DomainError, REFUSED + (-1,)),
    ("small_ball_bound n", lambda v: small_ball_bound(v, 3), DomainError, REFUSED + (0,)),
    ("small_ball_bound g", lambda v: small_ball_bound(10, v), DomainError, REFUSED + (-1,)),
    ("weber_series n_max", lambda v: weber_series([2, 4], v), DomainError, REFUSED + (0,)),
    ("sparse_subsequence n_max", lambda v: sparse_subsequence(lambda k: 1.0, v),
     DomainError, REFUSED + (0,)),
    ("BlockSchedule bound", lambda v: BlockSchedule(((0, v),)), ConfigError, REFUSED + (0,)),
    ("BlockSchedule.from_sizes size", lambda v: BlockSchedule.from_sizes((v,)),
     ConfigError, REFUSED + (0,)),
    ("stages_from_blocks target",
     lambda v: stages_from_blocks(BlockSchedule.from_sizes((1, 2, 3)), G, [v]),
     ConfigError, REFUSED + (3,)),
    ("similar_p_N n0", lambda v: similar_p_N("1011", "1011", G, [4], n0=v),
     DomainError, REFUSED + (-1,)),
]
ROWS = INTEGER_ROWS + [
    # collections of integers given a value that is not one
    ("frequency_on_set positions", lambda v: frequency_on_set("1011", v, [4]),
     DomainError, (5, None)),
    # a repeated position was counted twice
    ("frequency_on_set repeated position", lambda v: frequency_on_set("1011", v, [4]),
     DomainError, ([0, 0, 1], (3, 3))),
    ("BlockSchedule.from_sizes sizes", lambda v: BlockSchedule.from_sizes(v),
     ConfigError, (5, None)),
    ("stages_from_blocks targets",
     lambda v: stages_from_blocks(BlockSchedule.from_sizes((1, 2, 3)), G, v), ConfigError, (5,)),
    ("BlockSchedule block pair", lambda v: BlockSchedule((v,)), ConfigError,
     ((0,), (0, 1, 2), 5)),
    ("BlockSchedule blocks", lambda v: BlockSchedule(v), ConfigError, (5, None)),
    ("extract schedule", lambda v: extract("101", v), ConfigError,
     (5, None, [[0, 1, 2]], ((0, 3),))),
    # a majority core is a step-1 range
    ("force_majority_zero core", lambda v: force_majority_zero("101", v),
     DomainError, NOT_A_CORE),
    ("majority_refinement strings", lambda v: majority_refinement(v), DomainError, (5, None)),
    # the budget constructor reads its kind and params
    ("BudgetFunction kind", lambda v: BudgetFunction(v, (1, 1)), DomainError,
     ("foo", "", 5, None, ["power"])),
    ("BudgetFunction power params", lambda v: BudgetFunction("power", v), DomainError,
     ((), (Fraction(1, 2),), (1, 2, 3), ("x", 1), (-1, 1), 5, None)),
    ("BudgetFunction table params", lambda v: BudgetFunction("table", v), DomainError,
     ((), ((0, 2.5),), ((0, 2), (4, 1)), (3,), 5, None)),
    ("BudgetFunction lil params", lambda v: BudgetFunction("lil", v), DomainError,
     ((), ("x",), (1.5,), (-0.5,), 5, None)),
    # a bit string given a value that is not one
    ("make_sphere center", lambda v: make_sphere(3, 0, v), DomainError, (101, "abc", None)),
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


S3 = BlockSchedule.from_sizes((3,))
NOT_AN_OBJECT = (None, 5, "x", [])

# (parameter, call with the value under test, its error, the values it
# refuses): a schedule or stage schedule of the wrong type raises
# ConfigError, any other object parameter DomainError. Each leaked
# TypeError or AttributeError, or was accepted and leaked one later.
OBJECT_ROWS = [
    # None is no budget
    ("extract budget", lambda v: extract("101", S3, v), DomainError, (5, "x", [])),
    ("make_schedule g", lambda v: make_schedule(v, 2), DomainError, NOT_AN_OBJECT),
    ("similar_p_N p", lambda v: similar_p_N("101", "101", v, [3]), DomainError, NOT_AN_OBJECT),
    ("stages_from_blocks schedule", lambda v: stages_from_blocks(v, G), ConfigError,
     NOT_AN_OBJECT),
    ("stages_from_blocks budget", lambda v: stages_from_blocks(S3, v), DomainError,
     NOT_AN_OBJECT),
    ("corrupt schedule", lambda v: corrupt("101", v, stages_from_blocks(S3, G)), ConfigError,
     NOT_AN_OBJECT),
    ("corrupt adv", lambda v: corrupt("101", S3, v), ConfigError, NOT_AN_OBJECT),
    ("verify_similarity report", lambda v: verify_similarity(v, "101", G, [3]), DomainError,
     NOT_AN_OBJECT),
    ("apply_selection rule", lambda v: apply_selection(v, "1011"), DomainError, NOT_AN_OBJECT),
    ("sparse_subsequence f", lambda v: sparse_subsequence(v, 3), DomainError, NOT_AN_OBJECT),
]


@pytest.mark.parametrize("call, error, refused", [row[1:] for row in OBJECT_ROWS],
                         ids=[row[0] for row in OBJECT_ROWS])
def test_object_parameters_refuse_other_types(call, error, refused):
    for value in refused:
        with pytest.raises(error):
            call(value)


# (parameter, call with the value under test, budget rows named as in
# INTEGER_ROWS): each refuses these with DomainError
REAL_ROWS = [
    ("power_budget alpha", lambda v: BudgetFunction("power", (v, 1))),
    ("power_budget coeff", lambda v: BudgetFunction("power", (1, v))),
    ("affine_sqrt_budget a", lambda v: BudgetFunction("affine_sqrt", (v, 1))),
    ("affine_sqrt_budget c", lambda v: BudgetFunction("affine_sqrt", (1, v))),
    ("lil_budget eps", lambda v: BudgetFunction("lil", (v,))),
    ("verify_key_lemma p_threshold", lambda v: verify_key_lemma(3, 1, v, 1)),
    ("psi_deviation epsilon", lambda v: psi_deviation("1010", epsilon=v)),
]
NOT_FINITE = ("x", math.nan, math.inf, -math.inf, None)


@pytest.mark.parametrize("call", [row[1] for row in REAL_ROWS], ids=[row[0] for row in REAL_ROWS])
def test_real_parameters_refuse_non_numbers_and_non_finite(call):
    for value in NOT_FINITE:
        with pytest.raises(DomainError):
            call(value)


# (callable parameter, call with a callable that returns the value under
# test, its error, the returned values it refuses). Each was compared as
# returned: a rate of "x" or None leaked TypeError and one of nan admitted
# no block.
RESULT_ROWS = [
    ("sparse_subsequence f", lambda v: sparse_subsequence(lambda k: v, 3), DomainError,
     (None, "x", math.nan, math.inf, -math.inf)),
]


@pytest.mark.parametrize("call, error, refused", [row[1:] for row in RESULT_ROWS],
                         ids=[row[0] for row in RESULT_ROWS])
def test_callable_results_are_read(call, error, refused):
    for value in refused:
        with pytest.raises(error):
            call(value)


def test_every_callable_parameter_has_a_result_row():
    # each parameter annotated Callable of a function or class that hamext
    # exports
    annotated = {f"{name} {param.name}"
                 for name, obj in vars(hamext).items()
                 if inspect.isfunction(obj) or inspect.isclass(obj)
                 for param in inspect.signature(obj).parameters.values()
                 if "Callable" in str(param.annotation)}
    assert annotated == {row[0] for row in RESULT_ROWS}


@given(st.one_of(st.floats(), st.text(max_size=8), st.none()))
@settings(max_examples=200, deadline=None)
def test_numbers_and_text_raise_only_hamext_errors(value):
    # every parameter of the four tables
    for call in [row[1] for row in ROWS + OBJECT_ROWS + REAL_ROWS + RESULT_ROWS]:
        try:
            call(value)
        except HamextError:
            pass


class Huge(int):
    """An int whose repr gives its size. A failing example prints the
    strategy it was drawn from; spelled in decimal, 10^5000 passes
    int-to-text's digit limit, and Hypothesis then reported a flaky
    strategy instead of the failure."""

    def __repr__(self):
        return f"<{self.bit_length()}-bit integer>"


# (entry point, call with a drawn integer, the integers drawn): any integer
# in ±2^80, and ±2^1100 and ±10^5000, past the float range and int-to-text's
# digit limit, returns or raises a HamextError, or MemoryError for an
# allocation the machine refuses at once. A length or cube dimension past
# 2^20 bits, up to the largest array, is not drawn: the machine might really
# allocate it.
BIG = st.sampled_from([Huge(v) for v in (1 << 1100, -(1 << 1100), 10 ** 5000, -10 ** 5000)])
ANY_INTEGER = st.integers(-1 << 80, 1 << 80) | BIG
UNALLOCATED = {
    "distances_from n": st.integers(-1 << 80, 20) | st.integers(CUBE_CEILING + 1, 1 << 80) | BIG,
}
INTEGER_CALLS = [(name, call, UNALLOCATED.get(name, ANY_INTEGER))
                 for name, call, _, _ in INTEGER_ROWS] + [
    ("BlockSchedule.from_sizes sizes", lambda v: BlockSchedule.from_sizes((v, v)), ANY_INTEGER),
    # k = n takes 2^n, and k near n/2 the walk from the middle of the row
    ("binomial_tail n, k = n", lambda v: binomial_tail(v, v), ANY_INTEGER),
    ("binomial_tail n, k = n/2", lambda v: binomial_tail(v, v // 2), ANY_INTEGER),
    ("bit_stream length", lambda v: bit_stream(0, v),
     st.integers(-1 << 80, 1 << 20) | st.integers(np.iinfo(np.intp).max + 1, 1 << 80) | BIG),
    ("harper_min_neighborhood n", lambda v: harper_min_neighborhood(v, 0, 0), ANY_INTEGER),
    ("verify_key_lemma n", lambda v: verify_key_lemma(v, 1, Fraction(1, 2), 0), ANY_INTEGER),
    ("verify_key_lemma trials", lambda v: verify_key_lemma(3, v, Fraction(1, 2), 0), ANY_INTEGER),
]


@pytest.mark.parametrize("call, drawn", [row[1:] for row in INTEGER_CALLS],
                         ids=[row[0] for row in INTEGER_CALLS])
@given(data=st.data())
@settings(max_examples=100, deadline=None)
def test_integers_raise_only_hamext_errors(call, drawn, data):
    try:
        call(data.draw(drawn))
    except (HamextError, MemoryError):
        pass


def test_read_index_names_an_integer_past_the_digit_limit_by_its_size():
    # spelled out in a message, such an integer raised ValueError
    huge = 10 ** 5000  # 16 610 bits
    with pytest.raises(DomainError, match="<16610-bit integer> outside 0..3"):
        read_index(huge, "n", 0, 3)
    with pytest.raises(DomainError, match="<negative 16610-bit integer> outside 0.."):
        read_index(-huge, "n")
    with pytest.raises(DomainError, match="outside 0..<16610-bit integer>"):
        read_index(huge + 1, "n", 0, huge)
    with pytest.raises(ResourceError, match="<16610-bit integer> is past the resource ceiling 3"):
        read_index(huge, "n", ceiling=3)


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


@given(values, ends, ends, st.sampled_from([DomainError, ConfigError]), ends)
@settings(max_examples=200)
def test_read_index(value, lo, hi, error, ceiling):
    # the range is checked first: past the ceiling only what the range admits
    try:
        expect = operator.index(value)
    except TypeError:
        expect = None
    if expect is None or lo is not None and expect < lo or hi is not None and expect > hi:
        with pytest.raises(error):
            read_index(value, "value", lo, hi, error, ceiling)
    elif ceiling is not None and expect > ceiling:
        with pytest.raises(ResourceError, match=f"past the resource ceiling {ceiling}"):
            read_index(value, "value", lo, hi, error, ceiling)
    else:
        got = read_index(value, "value", lo, hi, error, ceiling)
        assert got == expect and type(got) is int
