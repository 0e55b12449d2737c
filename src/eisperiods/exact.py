"""Exact arithmetic layer: rationals, the canonical form of cyclotomic
numbers, Bernoulli polynomials, formal binomials and the polylogarithm-symbol
ring.

Everything here is immutable after construction and all operations are pure,
so the whole layer is safe for unrestricted concurrent use.
"""
from __future__ import annotations

from fractions import Fraction as QQ
from functools import lru_cache
from math import factorial, gcd
from typing import Dict, List, Sequence, Tuple


def qq(x, den: int | None = None) -> QQ:
    """Coerce to an exact rational."""
    if den is not None:
        return QQ(x, den)
    if type(x) is QQ:  # rationals are immutable: no copy needed
        return x
    return QQ(x)


def qq_str(x) -> str:
    """Serialize a rational as "p/q" (denominator always present)."""
    x = qq(x)
    return f"{x.numerator}/{x.denominator}"


def is_integer(x) -> bool:
    return qq(x).denominator == 1


class DivergentSymbolError(ValueError):
    """Raised when a weight-1 polylog symbol at argument 0 is requested."""


# ---------------------------------------------------------------------------
# formal binomial coefficients and Bernoulli polynomials


def formal_binomial(t, n: int) -> QQ:
    """Formal binomial t(t-1)...(t-n+1)/n! ; equals 1 at n=0 and 0 for n<0.

    Works for any rational t, in particular negative integers.
    """
    if n < 0:
        return QQ(0)
    if n == 0:
        return QQ(1)
    t = qq(t)
    num = QQ(1)
    for j in range(n):
        num *= t - j
        num /= j + 1
    return num


@lru_cache(maxsize=128)
def _bernoulli_numbers(n: int) -> tuple:
    """B_0..B_n with B_1 = -1/2 (generating function X e^{tX}/(e^X - 1))."""
    if n == 0:
        return (QQ(1),)
    prev = _bernoulli_numbers(n - 1)
    # sum_{j=0}^{n} C(n+1, j) B_j = 0 for n >= 1
    s = QQ(0)
    binom = 1
    for j in range(n):
        s += binom * prev[j]
        binom = binom * (n + 1 - j) // (j + 1)
    return prev + (-s / (n + 1),)


@lru_cache(maxsize=128)
def bernoulli_polynomial(n: int) -> tuple:
    """The coefficients of B_n(X) = sum_j C(n,j) B_{n-j} X^j, coefficient of
    X^j at index j, exact and memoized."""
    if n < 0:
        raise ValueError("degree must be >= 0")
    nums = _bernoulli_numbers(n)
    coeffs = []
    binom = 1
    for j in range(n + 1):
        coeffs.append(binom * nums[n - j])
        binom = binom * (n - j) // (j + 1)
    return tuple(coeffs)


@lru_cache(maxsize=4096)
def bernoulli_value(n: int, t) -> QQ:
    """B_n(t) for rational t, by Horner; memoised, since the period and
    Fourier code asks for the same few hundred B_n(l/N) over and over."""
    t = qq(t)
    acc = QQ(0)
    for c in reversed(bernoulli_polynomial(n)):
        acc = acc * t + c
    return acc


# ---------------------------------------------------------------------------
# cyclotomic field Q(mu_N) in the power basis modulo Phi_N


@lru_cache(maxsize=64)
def cyclotomic_polynomial(N: int) -> tuple:
    """Integer coefficients of Phi_N, low degree first, computed by dividing
    x^N - 1 by the product of Phi_d over proper divisors d of N."""
    if N < 1:
        raise ValueError("N must be >= 1")
    if N == 1:
        return (-1, 1)
    # numerator x^N - 1
    num = [0] * (N + 1)
    num[0], num[N] = -1, 1
    for d in range(1, N):
        if N % d == 0:
            num = _poly_div_exact(num, cyclotomic_polynomial(d))
    return tuple(num)


def _poly_div_exact(num: List[int], den: Sequence[int]) -> List[int]:
    """Exact division of integer polynomials (low degree first)."""
    num = list(num)
    dd = len(den) - 1
    lead = den[-1]
    quot = [0] * (len(num) - dd)
    for i in range(len(num) - 1, dd - 1, -1):
        c = num[i]
        if c == 0:
            continue
        q, r = divmod(c, lead)
        if r:
            raise ArithmeticError("non-exact polynomial division")
        quot[i - dd] = q
        for j in range(dd + 1):
            num[i - dd + j] -= q * den[j]
    if any(num):
        raise ArithmeticError("non-exact polynomial division")
    return quot


@lru_cache(maxsize=64)
def euler_phi(N: int) -> int:
    return len(cyclotomic_polynomial(N)) - 1


class Cyclo:
    """Element of Q(mu_N), mu_N = exp(2 pi i / N), as a coefficient vector of
    length phi(N) over the power basis 1, mu_N, ..., mu_N^{phi(N)-1}: the
    canonical form modulo Phi_N that cyclo_canonical returns.  Values are
    compared through .coeffs; numeric values come from numerics.cyclo_value.
    """

    __slots__ = ("N", "coeffs")

    def __init__(self, N: int, coeffs: Sequence):
        phi = euler_phi(N)
        coeffs = [qq(c) for c in coeffs]
        if len(coeffs) != phi:
            raise ValueError(f"need exactly phi({N}) = {phi} coefficients")
        self.N = N
        self.coeffs = tuple(coeffs)

    def __repr__(self):
        return f"Cyclo({self.N}, {[str(c) for c in self.coeffs]})"

    def to_json(self) -> list:
        return [qq_str(c) for c in self.coeffs]


def cyclo_canonical(N: int, coeffs: Sequence) -> Cyclo:
    """Canonical element of Q(mu_N) from coefficients over mu_N^0..mu_N^{N-1}:
    the polynomial in mu_N reduced modulo Phi_N.  The reduction is linear, so
    scaling the input scales the result."""
    if len(coeffs) != N:
        raise ValueError(f"expected {N} coefficients over the N power basis")
    phi = cyclotomic_polynomial(N)
    deg = len(phi) - 1
    work = [qq(c) for c in coeffs]
    for i in range(N - 1, deg - 1, -1):
        c = work[i]
        if c == 0:
            continue
        for j in range(deg):
            work[i - deg + j] -= c * phi[j]
    return Cyclo(N, work[:deg])


# ---------------------------------------------------------------------------
# polylog symbols PL(w; a/N) := Li_w(e(a/N)) / (-2 pi i)^w and the ring Q + Q<PL>


class PolylogSymbol:
    """Canonical transcendental generator PL(w; a/b).

    Canonical form restricts the argument to [0, 1/2]; argument 0 only occurs
    for odd weight >= 3 (all other boundary cases reduce to rationals).
    """

    __slots__ = ("w", "num", "den")

    def __init__(self, w: int, num: int, den: int):
        if w < 1:
            raise ValueError("weight must be >= 1")
        if den <= 0:
            raise ValueError("argument denominator must be positive")
        g = gcd(num, den)
        num, den = num // g, den // g
        if not 0 <= 2 * num <= den:
            raise ValueError("canonical argument must lie in [0, 1/2]")
        if num == 0:
            if w == 1:
                raise DivergentSymbolError("PL(1; 0) diverges")
            if w % 2 == 0:
                raise ValueError("PL(even w; 0) is rational, not a symbol")
        if 2 * num == den and w % 2 == 0:
            raise ValueError("PL(even w; 1/2) is rational, not a symbol")
        self.w = w
        self.num = num
        self.den = den

    @property
    def argument(self) -> QQ:
        return QQ(self.num, self.den)

    def key(self):
        return (self.w, self.num, self.den)

    def __eq__(self, other):
        return isinstance(other, PolylogSymbol) and self.key() == other.key()

    def __hash__(self):
        return hash(self.key())

    def __repr__(self):
        return f"PL({self.w}; {self.num}/{self.den})"


def _reduce_one_symbol(w: int, arg) -> Tuple[QQ, "PolylogSymbol | None", QQ]:
    """Express the raw term PL(w; arg), arg in [0,1), in canonical form.

    Returns (rational_part, symbol_or_None, symbol_coefficient) so that
    PL(w; arg) = rational_part + symbol_coefficient * symbol.
    """
    arg = qq(arg)
    arg = arg - (arg.numerator // arg.denominator)  # reduce mod 1 into [0,1)
    if w == 1 and arg == 0:
        raise DivergentSymbolError("PL(1; 0) diverges (Li_1 at 1)")
    two = 2 * arg
    if is_integer(two):  # arg is 0 or 1/2: self-paired under x -> 1-x
        if w % 2 == 0:
            # 2 PL(w; arg) = -B_w(arg)/w! forces a rational value
            return (-bernoulli_value(w, arg) / (2 * factorial(w)), None, QQ(0))
        sym = PolylogSymbol(w, arg.numerator, arg.denominator)
        return (QQ(0), sym, QQ(1))
    if two < 1:
        sym = PolylogSymbol(w, arg.numerator, arg.denominator)
        return (QQ(0), sym, QQ(1))
    # reflect: PL(w; 1-x) = -B_w(x)/w! - (-1)^w PL(w; x) with x = 1 - arg
    x = 1 - arg
    rat = -bernoulli_value(w, x) / factorial(w)
    sym = PolylogSymbol(w, x.numerator, x.denominator)
    return (rat, sym, QQ(-1) if w % 2 == 0 else QQ(1))


class ExtScalar:
    """Element of Q + Q-span of canonical polylog symbols.

    Supports exact addition and subtraction, of another ExtScalar or of a
    rational, negation and scaling by a rational.
    """

    __slots__ = ("rational", "symbols")

    def __init__(self, rational=0, symbols: Dict[PolylogSymbol, QQ] | None = None):
        self.rational = qq(rational)
        syms = {}
        if symbols:
            for s, c in symbols.items():
                c = qq(c)
                if c != 0:
                    syms[s] = c
        self.symbols = syms

    @staticmethod
    def zero() -> "ExtScalar":
        return ExtScalar(0)

    @staticmethod
    def from_symbol(sym: PolylogSymbol, coeff=1) -> "ExtScalar":
        return ExtScalar(0, {sym: qq(coeff)})

    def __add__(self, other):
        if not isinstance(other, ExtScalar):
            return ExtScalar(self.rational + qq(other), self.symbols)
        syms = dict(self.symbols)
        for s, c in other.symbols.items():
            v = syms.get(s, QQ(0)) + c
            if v == 0:
                syms.pop(s, None)
            else:
                syms[s] = v
        return ExtScalar(self.rational + other.rational, syms)

    def scale(self, c) -> "ExtScalar":
        """c times this element, for a rational c."""
        c = qq(c)
        return ExtScalar(self.rational * c, {s: x * c for s, x in self.symbols.items()})

    def __neg__(self):
        return self.scale(-1)

    def __sub__(self, other):
        if not isinstance(other, ExtScalar):
            return ExtScalar(self.rational - qq(other), self.symbols)
        return self + (-other)

    def __repr__(self):
        if not self.symbols:
            return f"ExtScalar({self.rational})"
        terms = " + ".join(f"({c})*{s}" for s, c in self.sorted_symbols())
        return f"ExtScalar({self.rational} + {terms})"

    def sorted_symbols(self):
        return sorted(self.symbols.items(), key=lambda t: t[0].key())

    def to_json(self) -> dict:
        return {
            "rational": qq_str(self.rational),
            "symbols": [
                {"w": s.w, "arg": f"{s.num}/{s.den}", "coeff": qq_str(c)}
                for s, c in self.sorted_symbols()
            ],
        }


def symbol_term(w: int, arg, coeff=1) -> ExtScalar:
    """coeff * PL(w; arg) reduced to canonical form."""
    coeff = qq(coeff)
    if coeff == 0:
        return ExtScalar.zero()
    rat, sym, sc = _reduce_one_symbol(w, arg)
    out = ExtScalar(rat * coeff)
    if sym is not None:
        out = out + ExtScalar.from_symbol(sym, sc * coeff)
    return out


def symbol_reduce(w: int, raw_terms: Dict) -> ExtScalar:
    """Reduce a raw sum of weight-w polylog symbols to canonical form.

    raw_terms maps arguments a/N in [0, 1) to rational coefficients.  Symbols
    with argument above 1/2 are rewritten through the reflection relation
    PL(w; 1-x) = -B_w(x)/w! - (-1)^w PL(w; x); even-weight self-paired
    arguments (0 and 1/2) become rationals; rational byproducts accumulate
    into the rational part.
    """
    out = ExtScalar.zero()
    for arg, coeff in sorted(raw_terms.items(), key=lambda t: qq(t[0])):
        out = out + symbol_term(w, arg, coeff)
    return out
