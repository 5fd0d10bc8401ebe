"""Symbolic corruption budgets.

A budget maps a length n to a nonnegative integer allowance, rounding
up. Four kinds, serialized as ``kind:params`` tokens:

* ``power:a/b[:coeff]``      coeff * n^(a/b)
* ``affine_sqrt:a:c``        a*n + c*sqrt(n)
* ``table:n0=v0,n1=v1,...``  step function (``table:v`` = constant v)
* ``lil:eps``                n/2 + (1-eps)*sqrt(2 n lnln max(n,16))

Power and affine_sqrt take rational parameters and evaluate with exact
integer arithmetic, so ceilings at exact powers (e.g. 4096^(2/3)) never
wobble. A budget that grows faster than sqrt(n) carries a divergence
modulus: divergence_modulus(k) returns an N with value(n) >= k*sqrt(n)
for every n >= N.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .bits import _collection, _real, read_index
from .errors import DomainError, ResourceError


def _iroot(x: int, q: int) -> int:
    """floor(x ** (1/q)) for x >= 0, exact."""
    if x < 0:
        raise DomainError("negative radicand")
    if q == 1 or x in (0, 1):
        return x
    r = max(1, int(round(x ** (1.0 / q))) if x.bit_length() < 512
            else 1 << -(-x.bit_length() // q))
    while True:
        rq = r ** q
        if rq <= x < (r + 1) ** q:
            return r
        r = ((q - 1) * r + x // r ** (q - 1)) // q
        if r < 1:
            r = 1


def ceil_root(num: int, den: int, q: int) -> int:
    """Smallest m >= 0 with m**q * den >= num, exact (den > 0, q >= 1)."""
    t = -(-num // den)  # m**q is an integer, so m**q >= num/den iff m**q >= t
    return _iroot(t - 1, q) + 1 if t > 0 else 0


def _ceil_power(n: int, alpha: Fraction, coeff: Fraction) -> int:
    """Smallest m with m >= coeff * n^alpha, exact."""
    if n == 0:
        return 0
    p, q = alpha.numerator, alpha.denominator
    return ceil_root(coeff.numerator ** q * n ** p, coeff.denominator ** q, q)


def _ceil_affine_sqrt(n: int, a: Fraction, c: Fraction) -> int:
    """Smallest m with m >= a*n + c*sqrt(n), exact."""
    # With a*n = p/d: m qualifies iff k = d*m - p >= d*c*sqrt(n), i.e.
    # k >= ceil_root(c^2 n d^2, 1, 2); the smallest such m is ceil((p + k)/d).
    lead = a * n
    p, d = lead.numerator, lead.denominator
    k = ceil_root(c.numerator ** 2 * n * d * d, c.denominator ** 2, 2)
    return -(-(p + k) // d)


def lnln(n: int) -> float:
    """ln ln n, clamped below 16 to dodge the n <= e singularity."""
    return math.log(math.log(max(n, 16)))


def lil_envelope(n: int, eps: float) -> float:
    return n / 2.0 + (1.0 - eps) * math.sqrt(2.0 * n * lnln(n))


#: per kind but table: the reader bits._real applies, then each parameter's name
_PARAMS = {"power": (Fraction, "power exponent", "power coefficient"),
           "affine_sqrt": (Fraction, "affine_sqrt slope", "affine_sqrt sqrt coefficient"),
           "lil": (float, "lil eps")}


@dataclass(frozen=True)
class BudgetFunction:
    """A budget of one kind (see the module docstring); every parameter
    is read and checked here, not in the kind constructors."""

    kind: str
    params: tuple

    def __post_init__(self):
        if self.kind == "table":
            try:
                params = sorted((read_index(n, "table length", lo=None), read_index(v, "table value"))
                                for n, v in self.params)
            except (TypeError, ValueError):  # not a collection of pairs
                raise DomainError(f"table budget needs (length, value) pairs, "
                                  f"got {self.params!r}") from None
            if not params:
                raise DomainError("table budget needs at least one entry")
            values = [v for _, v in params]
            if values != sorted(values):
                raise DomainError("table budget values must be nondecreasing")
        elif isinstance(self.kind, str) and self.kind in _PARAMS:
            read, *names = _PARAMS[self.kind]
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
        else:
            raise DomainError(f"unknown budget kind {self.kind!r}")
        object.__setattr__(self, "params", tuple(params))

    def __call__(self, n: int) -> int:
        n = read_index(n, "budget length")
        if self.kind == "power":
            alpha, coeff = self.params
            return _ceil_power(n, alpha, coeff)
        if self.kind == "affine_sqrt":
            a, c = self.params
            return _ceil_affine_sqrt(n, a, c)
        if self.kind == "table":
            value = self.params[0][1]
            for bp, v in self.params:
                if n >= bp:
                    value = v
            return value
        # lil: the envelope is a float, inf (nan at eps = 1) from n ~ 2^1021;
        # past 2^1024 n itself has no float
        try:
            return math.ceil(lil_envelope(n, self.params[0]))
        except (OverflowError, ValueError):
            raise ResourceError(f"the lil envelope at a {n.bit_length()}-bit n "
                                "is past the float range") from None

    @property
    def is_bounded(self) -> bool:
        if self.kind == "table":
            return True
        if self.kind == "power":
            alpha, coeff = self.params
            return alpha == 0 or coeff == 0
        if self.kind == "affine_sqrt":
            a, c = self.params
            return a == 0 and c == 0
        return False

    def divergence_modulus(self, k: int):
        """Witness N(k) for value(n)/sqrt(n) -> infinity, or None.

        Guarantees value(n) >= k*sqrt(n) for all n >= N(k); the raw
        envelope (before ceiling) is already >= k*sqrt(n) there and the
        ratio is monotone for every unbounded kind, so checking the
        closed-form threshold suffices.
        """
        k = read_index(k, "k", lo=None)
        if k <= 0:
            return 1
        if self.kind == "power":
            alpha, coeff = self.params
            if alpha <= Fraction(1, 2) or coeff <= 0:
                return None
            # coeff * n^(alpha - 1/2) >= k  at integer n
            ex = alpha - Fraction(1, 2)
            p, q = ex.numerator, ex.denominator
            target = (Fraction(k) / coeff) ** q
            return max(1, ceil_root(target.numerator, target.denominator, p))
        if self.kind == "affine_sqrt":
            a, c = self.params
            if a <= 0:
                return None
            # a*sqrt(n) + c >= k  <=  n >= ((k - c)/a)^2
            rem = Fraction(k) - c
            if rem <= 0:
                return 1
            bound = (rem / a) ** 2
            return -(-bound.numerator // bound.denominator)
        if self.kind == "lil":
            # value/sqrt(n) >= sqrt(n)/2
            return 4 * k * k
        return None

    @property
    def token(self) -> str:
        if self.kind == "power":
            alpha, coeff = self.params
            tok = f"power:{alpha}"
            if coeff != 1:
                tok += f":{coeff}"
            return tok
        if self.kind == "affine_sqrt":
            a, c = self.params
            return f"affine_sqrt:{a}:{c}"
        if self.kind == "table":
            if len(self.params) == 1 and self.params[0][0] == 0:
                return f"table:{self.params[0][1]}"
            return "table:" + ",".join(f"{n}={v}" for n, v in self.params)
        return f"lil:{self.params[0]!r}"

    def __str__(self):
        return self.token


def power_budget(alpha, coeff=1) -> BudgetFunction:
    return BudgetFunction("power", (alpha, coeff))


def affine_sqrt_budget(a, c) -> BudgetFunction:
    return BudgetFunction("affine_sqrt", (a, c))


def table_budget(entries) -> BudgetFunction:
    """A step function from (length, value) pairs, or the constant
    `entries` when it is one integer."""
    return BudgetFunction("table", [(0, entries)] if hasattr(entries, "__index__") else entries)


def lil_budget(eps: float) -> BudgetFunction:
    return BudgetFunction("lil", (eps,))


def parse_budget(token: str) -> BudgetFunction:
    """Parse a ``kind:params`` token (see module docstring)."""
    if not isinstance(token, str):
        raise DomainError(f"a budget token is text, got {token!r}")
    kind, _, rest = token.strip().partition(":")
    try:
        if kind == "table":
            if "=" not in rest:
                return table_budget(int(rest))
            return table_budget(tuple(
                (int(p.split("=")[0]), int(p.split("=")[1]))
                for p in rest.split(",")))
        params = rest.split(":")
        if kind == "power" and len(params) == 1:
            return power_budget(rest)  # its default coefficient, 1
        return BudgetFunction(kind, params)
    except (DomainError, ValueError, IndexError) as exc:
        raise DomainError(f"malformed budget token {token!r}: {exc}") from None
