"""Period cocycles of the normalized Eisenstein family in the induced
picture: polynomial values at the generators T and S on each coset of the
principal congruence subgroup, coboundary modification, exact rationality
certification, cocycle-relation checks, and descent back to the subgroup.

A period polynomial is stored as integer channel vectors over one shared
denominator: one channel for the rational parts of its coefficients and one
per polylog symbol, each the k-1 integer numerators of that part.  Every
polynomial map the cocycle rule needs, the weight action of S and T^n and
each closed-form T-run sum, is one cached integer matrix, so a transport is
integer matrix times integer vector on each channel, with no rational
arithmetic; a sum brings its terms to the lcm of their denominators and
reduces once.  A polynomial is rational exactly when it has no symbol
channel, so certification stays symbolic.  ExtScalar coefficients appear
only at the boundary: the constructor, .coeffs and the JSON and failure
reports.  The period values at T and S and the coboundary constant are
cached per (k, lambda, N).

Cocycles are stored by their values at T and S only; every other value is
reconstructed through the cocycle rule along an S/T word.  T-power runs are
evaluated in closed form (Bernoulli sums over arithmetic progressions), so
evaluation cost is logarithmic in the matrix entries.

Every per-coset loop runs on a quotient of the coset set on which the stored
values are constant and which right multiplication by T and S maps class to
class.  Every value the cocycle rule builds is then constant on the classes
too, so it is computed once per class and expanded to one entry per coset
only when returned.  The values of build_induced and coboundary depend on
the transported parameter lambda sigma only, so the classes are the
lambda-orbit (12, 24 and 24 classes at N = 4, 5, 6 for lambda = (0,1),
against 48, 120 and 144 cosets).  The orbit is enumerated once per
(lambda, N) (modgroup.parameter_orbit), handed to the cochain, and handed on
by modify_and_certify to the modified cochain, so building, certifying and
evaluating a cell compute one value per orbit element.  A cochain edited
after it was built is evaluated on the discrete quotient, one class per
coset.  Evaluation cost scales with the orbit, not with |SL2(Z/N)|.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from itertools import chain
from math import comb, factorial, gcd, lcm
from operator import add, is_, mul
from typing import List, Optional, Sequence, Tuple, Union

from mpmath import mpc

from .exact import QQ, ExtScalar, PolylogSymbol, bernoulli_value
from .lseries import lvalue_closed
from .modgroup import (
    IndexSetError,  # raised by admissible; callers catch it from here
    S,
    T,
    CosetQuotient,
    CosetTable,
    Mat2,
    ResiduePair,
    admissible,
    decompose_ST,
    enumerate_sl2,
    parameter_orbit,
    t_power,
)
from .numerics import DEFAULT_PREC, ext_scalar_value, prec_guard

Channel = Sequence[int]
# One signed summand for _sum: (sign, den, rational channel, symbol channels);
# the channels need not be reduced.
Term = Tuple[int, int, Channel, Sequence[Tuple[PolylogSymbol, Channel]]]


class PeriodPoly:
    """Polynomial of degree <= k-2 over the polylog-symbol ring, carrying the
    weight-(k-2) right action P(X) -> (cX+d)^{k-2} P((aX+b)/(cX+d)).

    Canonical form: the coefficient of X^j is (rat[j] + sum_s v_s[j] s) / den
    over the pairs (s, v_s) of syms, one per polylog symbol s with a nonzero
    channel, in symbol order; den > 0 is coprime to every numerator.  Equal
    polynomials therefore have equal fields.  Immutable: the fields are
    tuples and cannot be reassigned, so cached and shared values are safe.
    """

    __slots__ = ("k", "den", "rat", "syms")

    def __init__(self, k: int, coeffs: Sequence[Union[ExtScalar, QQ, int]]):
        if len(coeffs) != k - 1:
            raise ValueError(f"weight-{k} period polynomial needs {k - 1} coefficients")
        scalars = [c if isinstance(c, ExtScalar) else ExtScalar(c) for c in coeffs]
        den = lcm(*(q.denominator for c in scalars for q in (c.rational, *c.symbols.values())))

        def numerator(q) -> int:
            return q.numerator * (den // q.denominator)

        syms = {}
        for j, c in enumerate(scalars):
            for sym, q in c.symbols.items():
                syms.setdefault(sym, [0] * (k - 1))[j] = numerator(q)
        _init(self, k, den, [numerator(c.rational) for c in scalars], list(syms.items()))

    def __setattr__(self, name, value):
        raise AttributeError(f"PeriodPoly is immutable: cannot set {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"PeriodPoly is immutable: cannot delete {name!r}")

    @staticmethod
    def zero(k: int) -> "PeriodPoly":
        return _sum(k, ())

    @staticmethod
    def constant(k: int, value: Union[ExtScalar, QQ, int]) -> "PeriodPoly":
        return PeriodPoly(k, [value] + [ExtScalar.zero()] * (k - 2))

    @property
    def coeffs(self) -> Tuple[ExtScalar, ...]:
        """The coefficients as ExtScalars, X^0 first."""
        den = self.den
        return tuple(
            ExtScalar(QQ(r, den), {s: QQ(v[j], den) for s, v in self.syms})
            for j, r in enumerate(self.rat)
        )

    def __add__(self, other: "PeriodPoly") -> "PeriodPoly":
        return _sum(self.k, (_term(self), _term(other)))

    def __sub__(self, other: "PeriodPoly") -> "PeriodPoly":
        return _sum(self.k, (_term(self), _term(other, -1)))

    def __neg__(self) -> "PeriodPoly":
        return _sum(self.k, (_term(self, -1),))

    def __eq__(self, other):
        return (
            isinstance(other, PeriodPoly)
            and self.k == other.k
            and self.den == other.den
            and self.rat == other.rat
            and self.syms == other.syms
        )

    def is_zero(self) -> bool:
        return not self.syms and not any(self.rat)

    def is_rational(self) -> bool:
        return not self.syms

    def act(self, g: Mat2) -> "PeriodPoly":
        """Right weight action, through the cached matrix of g."""
        return _apply(_action_matrix(self.k, g), self)

    def shift(self, n: int) -> "PeriodPoly":
        """P(X + n), the T^n action."""
        return self.act(t_power(n))

    @prec_guard
    def numeric_coeffs(self, prec: int = DEFAULT_PREC) -> List[mpc]:
        return [ext_scalar_value(c, prec) for c in self.coeffs]

    def symbol_failures(self) -> List[Tuple[int, str, str]]:
        """(coefficient index, symbol, coefficient) for every surviving
        transcendental term, by index and then in symbol order."""
        return [
            (j, repr(s), _ratio_str(v[j], self.den))
            for j in range(self.k - 1)
            for s, v in self.syms
            if v[j]
        ]

    def to_json(self) -> list:
        """ExtScalar.to_json of each coefficient, read from the channels."""
        den = self.den
        return [
            {
                "rational": _ratio_str(r, den),
                "symbols": [
                    {"w": s.w, "arg": f"{s.num}/{s.den}", "coeff": _ratio_str(v[j], den)}
                    for s, v in self.syms
                    if v[j]
                ],
            }
            for j, r in enumerate(self.rat)
        ]

    def __repr__(self):
        return f"PeriodPoly(k={self.k}, {list(self.coeffs)})"


_set_k, _set_den, _set_rat, _set_syms = (
    getattr(PeriodPoly, name).__set__ for name in PeriodPoly.__slots__
)


def _symbol_order(item: Tuple[PolylogSymbol, Sequence[int]]):
    return item[0].key()


def _ratio_str(num: int, den: int) -> str:
    """num/den in lowest terms as "p/q", as exact.qq_str writes it."""
    g = gcd(num, den)
    return f"{num // g}/{den // g}"


def _init(poly: PeriodPoly, k: int, den: int, rat: Channel,
          syms: Sequence[Tuple[PolylogSymbol, Channel]]) -> None:
    """Fill poly in canonical form from numerator channels over den > 0:
    zero symbol channels are dropped, the others put in symbol order, and
    den and the numerators divided by their gcd."""
    if syms:
        syms = sorted([(s, v) for s, v in syms if any(v)], key=_symbol_order)
        g = gcd(den, *rat, *chain.from_iterable(v for _, v in syms))
    else:
        g = gcd(den, *rat)
    if g != 1:
        den //= g
        rat = [x // g for x in rat]
        syms = [(s, [x // g for x in v]) for s, v in syms]
    _set_k(poly, k)
    _set_den(poly, den)
    _set_rat(poly, tuple(rat))
    _set_syms(poly, tuple((s, tuple(v)) for s, v in syms))


def _term(poly: PeriodPoly, sign: int = 1) -> Term:
    return sign, poly.den, poly.rat, poly.syms


def _sum(k: int, terms: Sequence[Term]) -> PeriodPoly:
    """The weight-k PeriodPoly sum of the signed terms: every channel is
    brought to the lcm of the denominators, and the result is reduced once.
    Every PeriodPoly the engine builds comes from here."""
    den = lcm(*[t[1] for t in terms])
    rat = [0] * (k - 1)
    syms = {}
    for sign, d, r, ss in terms:
        f = sign * (den // d)
        if f != 1:
            r = [f * y for y in r]
        rat = list(map(add, rat, r))
        for s, v in ss:
            if f != 1:
                v = [f * y for y in v]
            acc = syms.get(s)
            syms[s] = v if acc is None else list(map(add, acc, v))
    poly = object.__new__(PeriodPoly)
    _init(poly, k, den, rat, list(syms.items()))
    return poly


# Every polynomial map the cocycle rule needs (the weight action of S and
# T^n, the closed-form T-run sums) is a cached integer matrix with one row
# per output coefficient: entry [l][m] is the coefficient of X^l in the
# image of X^m.  _image alone applies them.


def _binomial_powers(p: int, q: int, max_pow: int) -> List[List[int]]:
    """Coefficient lists of (pX + q)^m for 0 <= m <= max_pow."""
    return [[comb(m, j) * p ** j * q ** (m - j) for j in range(m + 1)] for m in range(max_pow + 1)]


def _int_poly_mul(a: Sequence[int], b: Sequence[int]) -> List[int]:
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return out


@lru_cache(maxsize=256)
def _action_matrix(k: int, g: Mat2) -> Tuple[Channel, ...]:
    """The weight-(k-2) action of g: X^m -> (aX+b)^m (cX+d)^{k-2-m}."""
    w = k - 2
    top = _binomial_powers(g.a, g.b, w)
    bottom = _binomial_powers(g.c, g.d, w)
    images = [_int_poly_mul(top[m], bottom[w - m]) for m in range(w + 1)]
    return tuple(zip(*images))


def _ap_power_sum(r: int, step: int, terms: int, p: int) -> int:
    """sum_{i=0}^{terms-1} (r + i step)^p, exactly, via Bernoulli polynomials;
    a sum of integer powers, so an integer."""
    if terms <= 0:
        return 0
    x = QQ(r, step)
    val = (bernoulli_value(p + 1, x + terms) - bernoulli_value(p + 1, x)) / (p + 1)
    return int(val * step ** p)


@lru_cache(maxsize=256)
def _t_run_matrix(k: int, r: int, step: int, terms: int) -> Tuple[Channel, ...]:
    """The map P -> sum_{i=0}^{terms-1} P(X + r + i step): X^m adds
    C(m, l) sum_i (r + i step)^{m-l} to the coefficient of X^l.  The power
    sums are integers, so the common denominator of the matrix is 1."""
    psums = [_ap_power_sum(r, step, terms, p) for p in range(k - 1)]
    return tuple(
        tuple(comb(m, l) * psums[m - l] if l <= m else 0 for m in range(k - 1))
        for l in range(k - 1)
    )


def _image(matrix: Sequence[Channel], poly: PeriodPoly, sign: int = 1) -> Term:
    """sign times the image of poly under a cached integer matrix, as a term
    for _sum: integer matrix times integer vector on every channel, over
    poly's denominator.  This is the one loop that multiplies channels."""

    def image(vec: Channel) -> List[int]:
        return [sum(map(mul, vec, row)) for row in matrix]

    return sign, poly.den, image(poly.rat), [(s, image(v)) for s, v in poly.syms]


def _apply(matrix: Sequence[Channel], poly: PeriodPoly) -> PeriodPoly:
    """The image of poly under a cached integer matrix."""
    return _sum(poly.k, (_image(matrix, poly),))


@lru_cache(maxsize=1024)
def period_T(k: int, lam: ResiduePair, N: int) -> PeriodPoly:
    """Value of the base-point-at-infinity period at T: the rational
    polynomial -(B_k(l1/N)/(k!(k-1))) ((X+1)^{k-1} - X^{k-1}).  Cached per
    (k, lambda, N): every cell whose orbit holds lambda shares the value."""
    lam = admissible(k, lam, N)
    front = -bernoulli_value(k, QQ(lam.l1, N)) / (factorial(k) * (k - 1))
    return PeriodPoly(k, [front * comb(k - 1, j) for j in range(k - 1)])


@lru_cache(maxsize=1024)
def period_S(k: int, lam: ResiduePair, N: int) -> PeriodPoly:
    """Value of the period at S, read from the closed L-values by the
    Eichler-Shimura relation: the coefficient of X^{k-1-r} is
    i^{2-r} C(k-2, r-1) L*(lambda, r) = -C(k-2, r-1) v_r for r = 1..k-1,
    where L*(lambda, r) = i^r v_r (lvalue_closed).  So polylog symbols sit
    in the X^0 coefficient (r = k-1, when l1 = 0) and the X^{k-2}
    coefficient (r = 1, when l2 = 0).  Cached per (k, lambda, N), like
    period_T."""
    return PeriodPoly(
        k, [lvalue_closed(k, lam, N, k - 1 - j).value.scale(-comb(k - 2, j)) for j in range(k - 1)]
    )


@dataclass
class InducedCochain:
    """Cocycle data on the coset module: one period polynomial per coset at
    each of the generators T and S.  Evaluation runs on the same data with
    one entry per class of a CosetQuotient as its table (see _reduce).

    orbit is a closed quotient whose classes each hold one value object:
    build_induced sets the lambda-orbit, and modify_and_certify hands on the
    quotient it ran on.  copy() drops it, so an edited copy is evaluated
    per coset."""

    k: int
    N: int
    lam: ResiduePair
    table: Union[CosetTable, CosetQuotient]
    val_T: List[PeriodPoly]
    val_S: List[PeriodPoly]
    orbit: Optional[CosetQuotient] = field(default=None, repr=False, compare=False)

    def copy(self) -> "InducedCochain":
        return InducedCochain(
            self.k, self.N, self.lam, self.table, list(self.val_T), list(self.val_S)
        )

    def quotient(self) -> CosetQuotient:
        """A coset quotient on which val_T and val_S are constant and which
        is closed under right multiplication; evaluation runs per class.  It
        is the orbit while the values are one object per orbit class, and
        the discrete quotient otherwise (see _quotient)."""
        return _quotient(self)


def _constant_on(quot: CosetQuotient, values: Sequence[PeriodPoly]) -> bool:
    """Whether the per-coset values are one object on each class of quot."""
    return len(values) == len(quot.class_of) and all(
        map(is_, values, quot.expand(_on_classes(quot, values)))
    )


def _quotient(cochain: InducedCochain, *extra: Sequence[PeriodPoly]) -> CosetQuotient:
    """A closed quotient on which the cochain's values and the extra
    per-coset lists are constant.  While every list is one object per class
    of the cochain's orbit, that is the orbit: the values of build_induced,
    coboundary and the period caches depend on lambda sigma only, and
    distinct parameters give distinct objects, so there the lambda-orbit is
    also the coarsest.  Otherwise the discrete quotient, one class per
    coset."""
    values = (cochain.val_T, cochain.val_S, *extra)
    orbit = cochain.orbit
    if orbit is not None and all(_constant_on(orbit, v) for v in values):
        return orbit
    return CosetQuotient.closed(cochain.table, range(len(cochain.table)))


def _on_classes(quot: CosetQuotient, values: Sequence[PeriodPoly]) -> List[PeriodPoly]:
    return [values[r] for r in quot.representatives]


def _reduce(cochain: InducedCochain) -> InducedCochain:
    """The cochain with one entry per class of its quotient, which is its
    table."""
    quot = cochain.quotient()
    return InducedCochain(
        cochain.k,
        cochain.N,
        cochain.lam,
        quot,
        _on_classes(quot, cochain.val_T),
        _on_classes(quot, cochain.val_S),
    )


def build_induced(k: int, lam: ResiduePair, N: int) -> InducedCochain:
    """Cochain whose value at gamma on the coset of sigma is the period of
    the series with parameter transported by sigma: one value per element
    of the lambda-orbit, shared by the cosets of its class."""
    lam = admissible(k, lam, N)
    orbit, params = parameter_orbit(lam)
    val_T = orbit.expand([period_T(k, mu, N) for mu in params])
    val_S = orbit.expand([period_S(k, mu, N) for mu in params])
    return InducedCochain(k, N, lam, enumerate_sl2(N), val_T, val_S, orbit)


@dataclass
class CoboundaryData:
    """Constant polynomials (scalars for weight 2), one per coset, whose
    coboundary removes every transcendental term from the stored cocycle."""

    k: int
    N: int
    lam: ResiduePair
    values: List[PeriodPoly]


@lru_cache(maxsize=1024)
def coboundary_value(k: int, mu: ResiduePair, N: int) -> PeriodPoly:
    """The coboundary constant of the coset whose transported parameter is
    mu: -v_{k-1} = i^{3-k} L*(mu, k-1) (lvalue_closed), which is the X^0
    coefficient of period_S; for k = 2, zero when mu has first coordinate
    other than 0.  Cached per (k, mu, N), like period_T and period_S."""
    if k == 2 and mu.l1 != 0:
        return PeriodPoly.zero(k)
    return PeriodPoly.constant(k, -lvalue_closed(k, mu, N, k - 1).value)


def coboundary(k: int, lam: ResiduePair, N: int) -> CoboundaryData:
    """Exact coboundary data from the closed L-values: coboundary_value of
    the transported parameter lambda sigma on each coset sigma, one value
    per element of the lambda-orbit."""
    lam = admissible(k, lam, N)
    orbit, params = parameter_orbit(lam)
    return CoboundaryData(k, N, lam, orbit.expand([coboundary_value(k, mu, N) for mu in params]))


@dataclass
class RationalityReport:
    k: int
    N: int
    lam: ResiduePair
    certified: bool
    failures: List[dict]

    def to_json(self, include_values: bool = False, modified: Optional[InducedCochain] = None,
                original: Optional[InducedCochain] = None) -> dict:
        out = {
            "k": self.k,
            "N": self.N,
            "lambda": [self.lam.l1, self.lam.l2],
            "cosets": None,
            "rational": self.certified,
            "failures": self.failures,
        }
        # cosets of one class share one PeriodPoly: serialize each once
        memo = {}

        def values(polys: List[PeriodPoly]) -> list:
            for p in polys:
                if id(p) not in memo:
                    memo[id(p)] = p.to_json()
            return [memo[id(p)] for p in polys]

        if original is not None:
            out["cosets"] = len(original.table)
            if include_values:
                out["values_T"] = values(original.val_T)
                out["values_S"] = values(original.val_S)
        if modified is not None:
            out["cosets"] = len(modified.table)
            if include_values:
                out["modified"] = {"T": values(modified.val_T), "S": values(modified.val_S)}
        return out


def _transport(values: List[PeriodPoly], sources: Sequence[int], matrix, sign: int = 1) -> List[Term]:
    """Right transport by g, times sign, as one term for _sum per sigma:
    (F|g)(sigma) = F(sigma g^{-1})|g, given the index of sigma g^{-1} for
    each sigma and the action matrix of g."""
    return [_image(matrix, values[j], sign) for j in sources]


def _t_sources(table: CosetQuotient, n: int) -> List[int]:
    return [table.rmul_t_power(i, -n) for i in range(len(table))]


def modify_and_certify(
    cochain: InducedCochain, cob: CoboundaryData
) -> Tuple[InducedCochain, RationalityReport]:
    """Add the coboundary F|_gamma - F to the stored values at T and S and
    report, per coset and coefficient, whether every polylog-symbol
    coefficient cancelled exactly.  The sums and the symbol scan run once per
    class of the quotient on which the cochain and F are constant."""
    if (cochain.k, cochain.N) != (cob.k, cob.N):
        raise ValueError("cochain and coboundary data have incompatible (k, N)")
    quot = _quotient(cochain, cob.values)
    val_T, val_S, cob_values = (
        _on_classes(quot, vals) for vals in (cochain.val_T, cochain.val_S, cob.values)
    )
    k = cochain.k
    moved_T = _transport(cob_values, _t_sources(quot, 1), _action_matrix(k, T))
    moved_S = _transport(cob_values, quot.rmul_S_inv, _action_matrix(k, S))
    new_T = [_sum(k, (_term(a), m, _term(f, -1))) for a, m, f in zip(val_T, moved_T, cob_values)]
    new_S = [_sum(k, (_term(a), m, _term(f, -1))) for a, m, f in zip(val_S, moved_S, cob_values)]
    modified = InducedCochain(
        cochain.k, cochain.N, cochain.lam, cochain.table, quot.expand(new_T), quot.expand(new_S), quot
    )
    failures = []
    for gen, vals in (("T", new_T), ("S", new_S)):
        class_failures = [poly.symbol_failures() for poly in vals]
        for i, c in enumerate(quot.class_of):
            for idx, sym, coeff in class_failures[c]:
                failures.append(
                    {"coset": i, "generator": gen, "coeff_index": idx, "symbol": sym, "coeff": coeff}
                )
    report = RationalityReport(cochain.k, cochain.N, cochain.lam, not failures, failures)
    return modified, report


# ---------------------------------------------------------------------------
# cocycle evaluation along S/T words, one value per class of the quotient


def _zero_values(cochain: InducedCochain) -> List[PeriodPoly]:
    return [PeriodPoly.zero(cochain.k) for _ in range(len(cochain.table))]


def _t_run_value(cochain: InducedCochain, n: int) -> List[PeriodPoly]:
    """c(T^n) in closed form: group the cocycle sum over j < n by the residue
    of j mod N; each class contributes an arithmetic-progression shift sum."""
    if n == 0:
        return _zero_values(cochain)
    if n == 1:
        return list(cochain.val_T)
    table = cochain.table
    k, N = cochain.k, cochain.N
    if n < 0:
        # c(T^n) = -c(T^{-n})|_{T^n}
        back = _t_run_value(cochain, -n)
        moved = _transport(back, _t_sources(table, n), _action_matrix(k, t_power(n)), -1)
        return [_sum(k, (m,)) for m in moved]
    # residue class r of j < n holds (n - 1 - r) // N + 1 terms
    runs = [_t_run_matrix(k, r, N, (n - 1 - r) // N + 1) for r in range(min(N, n))]
    out = []
    for i in range(len(table)):
        terms = []
        idx = i
        for run in runs:
            # idx now points at sigma T^{-r}
            terms.append(_image(run, cochain.val_T[idx]))
            idx = table.rmul_T_inv[idx]
        out.append(_sum(k, terms))
    return out


def _evaluate_classes(cochain: InducedCochain, tokens) -> List[PeriodPoly]:
    """Cocycle value along a token word via c(uv) = c(u)|_v + c(v), one
    step per T-run and per letter S."""
    table = cochain.table
    acc: Optional[List[PeriodPoly]] = None
    for kind, n in tokens:
        if kind not in ("S", "T"):
            raise ValueError(f"unknown token {kind!r}")
        for _ in range(n if kind == "S" else 1):
            if kind == "S":
                value, sources, g = cochain.val_S, table.rmul_S_inv, S
            else:
                value, sources, g = _t_run_value(cochain, n), _t_sources(table, n), t_power(n)
            if acc is None:
                acc = list(value)
            else:
                moved = _transport(acc, sources, _action_matrix(cochain.k, g))
                acc = [_sum(cochain.k, (m, _term(v))) for m, v in zip(moved, value)]
    return acc if acc is not None else _zero_values(cochain)


def evaluate_word(cochain: InducedCochain, tokens) -> List[PeriodPoly]:
    """Cocycle value along a token word, one polynomial per coset (cosets of
    one class share the object)."""
    reduced = _reduce(cochain)
    return reduced.table.expand(_evaluate_classes(reduced, tokens))


def evaluate_cocycle(cochain: InducedCochain, gamma: Mat2) -> List[PeriodPoly]:
    """The unique cocycle extension of the stored values to any gamma."""
    return evaluate_word(cochain, decompose_ST(gamma).tokens)


def verify_relations(cochain: InducedCochain) -> bool:
    """Exact well-definedness: the values along S^4 must vanish and the
    values along (ST)^3 must equal those along S^2."""
    reduced = _reduce(cochain)
    k, back = reduced.k, reduced.table.rmul_S_inv
    s2 = _evaluate_classes(reduced, [("S", 2)])
    # c(S^4) = c(S^2)|S^2 + c(S^2): one transport by S^2 = -I, whose source
    # for sigma is sigma S^-2
    moved = _transport(s2, [back[back[i]] for i in range(len(back))], _action_matrix(k, S * S))
    if not all(_sum(k, (m, _term(v))).is_zero() for m, v in zip(moved, s2)):
        return False
    st3 = _evaluate_classes(reduced, [("S", 1), ("T", 1)] * 3)
    return all(a == b for a, b in zip(st3, s2))


def shapiro_descend(cochain: InducedCochain, gamma: Mat2) -> PeriodPoly:
    """Read the descended cocycle on the congruence subgroup: the value at
    the identity coset.  Requires gamma = Id mod N."""
    if not gamma.is_congruent_to_identity(cochain.N):
        raise ValueError(f"{gamma} is not congruent to the identity mod {cochain.N}")
    return evaluate_cocycle(cochain, gamma)[cochain.table.identity_index()]


def certify_parameter(k: int, lam: ResiduePair, N: int) -> Tuple[InducedCochain, InducedCochain, RationalityReport]:
    """Build, modify and certify one (k, N, lambda) cell."""
    cochain = build_induced(k, lam, N)
    cob = coboundary(k, lam, N)
    modified, report = modify_and_certify(cochain, cob)
    return cochain, modified, report
