"""Symbolic corruption budgets.

A budget maps a length n to a nonnegative integer allowance, rounding
up. Four kinds, each a row of _KINDS, serialized as ``kind:params`` tokens:

* ``power:a/b[:coeff]``      coeff * n^(a/b); a root past ROOT_CEILING
                             bits raises ResourceError
* ``affine_sqrt:a:c``        a*n + c*sqrt(n); a root past ROOT_CEILING bits
                             raises ResourceError
* ``table:n0=v0,n1=v1,...``  step function, each length once (``table:v`` = constant v)
* ``lil:eps``                n/2 + (1-eps)*sqrt(2 n lnln max(n,16)), in floats,
                             so an n past LIL_CEILING raises ResourceError

Power and affine_sqrt take rational parameters and evaluate with exact
integer arithmetic, so ceilings at exact powers (e.g. 4096^(2/3)) never
wobble.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .bits import _collection, _real, read_index
from .errors import DomainError

# the most bits a power or affine_sqrt budget's root builds. The worst calls under
# it, cube roots of 2^17 bits, take 0.09 s on 2 cores, square roots 0.006 s;
# power:0.3333 (a root of degree 10 000) at n = 266 305 builds 93 327
ROOT_CEILING = 1 << 17


def _iroot(x: int, q: int) -> int:
    """floor(x ** (1/q)) for x >= 0, exact: math.isqrt's for q = 2, else
    integer Newton steps down from r above 2^(b/q) > x^(1/q), b the bits of
    x: 2^(b/q) in floats to 40 bits (off by under 1/32 of a unit) plus 2.
    Within 2^(1/q) of the root, not 2, r skips the q ln 2 steps that shrink
    it by only (q-1)/q each. A step from any r above the floor root lands
    below r and, by AM-GM, not below it, so the first r with r^q <= x is the
    floor root (0 for x = 0)."""
    if q == 2:
        return math.isqrt(x)
    b = x.bit_length()
    shift = max(0, b // q - 40)
    r = (int(2.0 ** ((b - q * shift) / q)) + 2) << shift
    while True:
        s = r ** (q - 1)
        if s * r <= x:
            return r
        r = ((q - 1) * r + x // s) // q


def ceil_root(num: int, den: int, q: int) -> int:
    """Smallest m >= 0 with m**q * den >= num, exact (den > 0, q >= 1)."""
    t = -(-num // den)  # m**q is an integer, so m**q >= num/den iff m**q >= t
    return _iroot(t - 1, q) + 1 if t > 0 else 0


def _ceil_power(n: int, alpha: Fraction, coeff: Fraction) -> int:
    """Smallest m with m >= coeff * n^alpha, exact. For alpha = p/q its root
    builds about p bits(n) + q (bits(coeff.num) + bits(coeff.den) + 1) bits
    (r^(q-1) >= 2^(q-1)), read against ROOT_CEILING before any is built."""
    if n == 0:
        return 0
    p, q = alpha.numerator, alpha.denominator
    coeff_bits = q * (coeff.numerator.bit_length() + coeff.denominator.bit_length() + 1)
    read_index(p * n.bit_length() + coeff_bits, "power budget root in bits", ceiling=ROOT_CEILING)
    return ceil_root(coeff.numerator ** q * n ** p, coeff.denominator ** q, q)


def _ceil_affine_sqrt(n: int, a: Fraction, c: Fraction) -> int:
    """Smallest m with m >= a*n + c*sqrt(n), exact. Its square root builds
    about bits(n) + 2 (bits(c.num) + bits(c.den) + bits(a.den)) bits, read
    against ROOT_CEILING before any is built."""
    coeff_bits = 2 * (c.numerator.bit_length() + c.denominator.bit_length()
                      + a.denominator.bit_length())
    read_index(n.bit_length() + coeff_bits, "affine_sqrt budget root in bits",
               ceiling=ROOT_CEILING)
    # With a*n = p/d: m qualifies iff k = d*m - p >= d*c*sqrt(n), i.e.
    # k >= ceil_root(c^2 n d^2, 1, 2); the smallest such m is ceil((p + k)/d).
    lead = a * n
    p, d = lead.numerator, lead.denominator
    k = ceil_root(c.numerator ** 2 * n * d * d, c.denominator ** 2, 2)
    return -(-(p + k) // d)


def lnln(n: int) -> float:
    """ln ln n, clamped below 16 to dodge the n <= e singularity."""
    return math.log(math.log(max(n, 16)))


def lil_scale(n: int) -> float:
    """sqrt(2 n lnln n), the iterated-logarithm scale of a walk's deviation
    at length n; the lil envelope and psi_deviation read it."""
    return math.sqrt(2.0 * n * lnln(n))


def lil_envelope(n: int, eps: float) -> float:
    return n / 2.0 + (1.0 - eps) * lil_scale(n)


# the largest n whose lil envelope is a finite float, for every eps: past it
# the product under lil_scale's root overflows to inf. It is the largest float
# that keeps that product finite plus its half ulp, 2^967, which still rounds
# down to it (a tie goes to the even mantissa).
LIL_CEILING = int(float.fromhex("0x1.3821ceb3e0796p+1020")) + (1 << 967)


#: per kind: the reader bits._real applies to each parameter and their names
#: (table's (length, value) pairs are read in BudgetFunction), the exact value
#: at n from the parameters, and the largest n it evaluates (None: no limit)
_KINDS = {
    "power": (Fraction, ("power exponent", "power coefficient"), _ceil_power, None),
    "affine_sqrt": (Fraction, ("affine_sqrt slope", "affine_sqrt sqrt coefficient"),
                    _ceil_affine_sqrt, None),
    "table": (None, (), lambda n, *entries: next(
        (v for length, v in reversed(entries) if length <= n), entries[0][1]), None),
    "lil": (float, ("lil eps",), lambda n, eps: math.ceil(lil_envelope(n, eps)), LIL_CEILING)}


@dataclass(frozen=True)
class BudgetFunction:
    """A budget of one kind (see the module docstring) and its parameters,
    each read and checked here: (alpha, coeff), (a, c), (length, value)
    pairs or (eps,)."""

    kind: str
    params: tuple

    def __post_init__(self):
        if not isinstance(self.kind, str) or self.kind not in _KINDS:
            raise DomainError(f"unknown budget kind {self.kind!r}")
        if self.kind == "table":
            try:
                params = sorted((read_index(n, "table length"), read_index(v, "table value"))
                                for n, v in self.params)
            except (TypeError, ValueError):  # not a collection of pairs
                raise DomainError(f"table budget needs (length, value) pairs, "
                                  f"got {self.params!r}") from None
            if not params:
                raise DomainError("table budget needs at least one entry")
            twice = [n for (n, _), (m, _) in zip(params, params[1:]) if n == m]
            if twice:
                raise DomainError(f"table budget sets length {twice[0]} more than once")
            values = [v for _, v in params]
            if values != sorted(values):
                raise DomainError("table budget values must be nondecreasing")
        else:
            read, names, *_ = _KINDS[self.kind]
            given = _collection(self.params, f"{self.kind} budget parameter")
            if len(given) != len(names):
                raise DomainError(f"a {self.kind} budget takes {len(names)} parameter(s), "
                                  f"got {len(given)}")
            params = [_real(v, name, read) for v, name in zip(given, names)]
            if min(params) < 0:
                raise DomainError(f"{self.kind} budget needs nonnegative parameters, "
                                  f"got {self.params!r}")
            if self.kind == "lil" and params[0] > 1:
                raise DomainError("lil budget needs eps <= 1")
        object.__setattr__(self, "params", tuple(params))

    def __call__(self, n: int) -> int:
        _, _, value, ceiling = _KINDS[self.kind]
        return value(read_index(n, "budget length", ceiling=ceiling), *self.params)


def parse_budget(token: str) -> BudgetFunction:
    """Parse a ``kind:params`` token (see module docstring)."""
    if not isinstance(token, str):
        raise DomainError(f"a budget token is text, got {token!r}")
    kind, _, rest = token.strip().partition(":")
    try:
        if kind == "table":
            if "=" not in rest:
                return BudgetFunction(kind, [(0, int(rest))])
            entries = [entry.split("=") for entry in rest.split(",")]
            if any(len(entry) != 2 for entry in entries):
                raise DomainError("each table entry is exactly length=value")
            return BudgetFunction(kind, [(int(n), int(v)) for n, v in entries])
        params = rest.split(":")
        if kind == "power" and len(params) == 1:
            params.append(1)  # its default coefficient
        return BudgetFunction(kind, params)
    except (DomainError, ValueError) as exc:
        raise DomainError(f"malformed budget token {token!r}: {exc}") from None
