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
channel, so certification stays symbolic: modify_and_certify returns the
modified cochain alone, and a cell is certified when none of its values
keeps a symbol channel, which rationality_record reads from the cochain.
ExtScalar coefficients appear only at the boundary: the constructor,
.coeffs and the JSON and failure reports.

A sweep does each piece of exact work once per orbit element, not once per
cell.  The period values at T and S are cached per (k, mu, N), and the
coboundary constant is read from the S value, so every cell whose orbit
holds mu shares them.  The modification of one class (_modified) is cached
on its own arguments, the class's two values and mu: an unedited class of
any cell of the orbit of mu hits one entry, and an edited copy misses, so
no cache depends on which cochain was handed in.  The orbits of SL2(Z/N)
on (Z/N)^2 are the gcd(l1, l2, N) classes, and the cells of one orbit hold
the same per-class values, so relations_hold caches one verify_relations
verdict per (k, N, orbit).  Each polynomial value is serialized once
(_poly_json) for the --values report.

Cocycles are stored by their values at T and S only; every other value is
reconstructed through the cocycle rule along an S/T word.  T-power runs are
evaluated in closed form (integer power sums over arithmetic progressions,
from Stirling numbers and binomials), so evaluation cost is logarithmic in
the matrix entries; one helper (_t_run_at) gives a run's value at one
class, and the all-class evaluation maps it over the classes.  Descent
reads the word's path only: the value at the identity class needs each
letter's value at one class, the one its suffix reaches from there.

A cochain holds a quotient of the coset set that right multiplication by
T and S maps class to class, and one value at T and one at S per class of
it.  Every value the cocycle rule builds is then constant on the classes
too, so it is computed once per class; values are expanded to one entry per
coset only at the report boundary: rationality_record and the returns of
evaluate_word and evaluate_cocycle.  The values of build_induced depend
on the transported parameter lambda sigma only, so their quotient is the
lambda-orbit (12, 24 and 24 classes at N = 4, 5, 6 for lambda = (0,1),
against 48, 120 and 144 cosets), enumerated once per (lambda, N)
(modgroup.parameter_orbit).  modify_and_certify keeps the quotient of the
cochain it modifies and reads the coboundary constant of each class from
that orbit.  InducedCochain.copy() puts a cochain on the discrete quotient,
one class per coset, so that an edit can change one coset alone.
Evaluation cost scales with the quotient, not with |SL2(Z/N)|.
"""
from __future__ import annotations

from dataclasses import dataclass, replace
from functools import lru_cache
from itertools import chain
from math import comb, factorial, gcd, lcm
from operator import add, mul
from typing import List, Optional, Sequence, Tuple, Union

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

    def __hash__(self):
        return hash((self.k, self.den, self.rat, self.syms))

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


def _ap_power_sums(r: int, step: int, terms: int, top: int) -> List[int]:
    """sum_{i=0}^{terms-1} (r + i step)^p for p = 0..top, in integers.

    sum_{i<n} i^q = sum_j S(q, j) j! C(n, j+1), S the Stirling numbers of
    the second kind, and (r + i step)^p expands binomially into these.
    F[j] = S(q, j) j! follows F(q, j) = j (F(q-1, j) + F(q-1, j-1))."""
    if terms <= 0:
        return [0] * (top + 1)
    chooses = [comb(terms, j + 1) for j in range(top + 1)]
    surj = [1]  # F(0, j): only F(0, 0) = 1
    isums = [terms]  # sum_{i<terms} i^0, with 0^0 = 1
    for q in range(1, top + 1):
        surj = [0] + [j * (surj[j] + surj[j - 1]) for j in range(1, q)] + [q * surj[q - 1]]
        isums.append(sum(map(mul, surj, chooses)))
    return [
        sum(comb(p, q) * r ** (p - q) * step ** q * isums[q] for q in range(p + 1))
        for p in range(top + 1)
    ]


@lru_cache(maxsize=256)
def _t_run_matrix(k: int, r: int, step: int, terms: int) -> Tuple[Channel, ...]:
    """The map P -> sum_{i=0}^{terms-1} P(X + r + i step): X^m adds
    C(m, l) sum_i (r + i step)^{m-l} to the coefficient of X^l.  The power
    sums are sums of integer powers, taken in integer arithmetic
    (_ap_power_sums), so the matrix is an integer matrix."""
    psums = _ap_power_sums(r, step, terms, k - 2)
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
    """Cocycle data on the coset module, stored on a quotient of the coset
    table: one period polynomial per class of the quotient at each of the
    generators T and S, shared by the cosets of the class.  quotient is
    closed under right multiplication, so every value the cocycle rule
    builds is constant on its classes.  build_induced stores the
    lambda-orbit, modify_and_certify keeps the quotient of the cochain it
    modifies, and copy() stores the discrete quotient."""

    k: int
    N: int
    lam: ResiduePair
    table: CosetTable
    quotient: CosetQuotient
    val_T: List[PeriodPoly]
    val_S: List[PeriodPoly]

    def copy(self) -> "InducedCochain":
        """The cochain on the discrete quotient, one class per coset, with
        its values expanded, so that an edit changes one coset alone."""
        return InducedCochain(
            self.k,
            self.N,
            self.lam,
            self.table,
            CosetQuotient.closed(self.table, range(len(self.table))),
            self.quotient.expand(self.val_T),
            self.quotient.expand(self.val_S),
        )


def _classes_of(cochain: InducedCochain) -> CosetQuotient:
    """The cochain's quotient, after checking that it holds one value per
    class at T and at S (zip would silently truncate a longer list)."""
    quot = cochain.quotient
    if not len(cochain.val_T) == len(cochain.val_S) == len(quot):
        raise ValueError(
            f"cochain holds {len(cochain.val_T)} values at T and {len(cochain.val_S)} at S "
            f"for the {len(quot)} classes of its quotient"
        )
    return quot


def build_induced(k: int, lam: ResiduePair, N: int) -> InducedCochain:
    """Cochain whose value at gamma on the coset of sigma is the period of
    the series with parameter transported by sigma: stored on the
    lambda-orbit, one value per transported parameter."""
    lam = admissible(k, lam, N)
    orbit, params = parameter_orbit(lam)
    return InducedCochain(
        k,
        N,
        lam,
        enumerate_sl2(N),
        orbit,
        [period_T(k, mu, N) for mu in params],
        [period_S(k, mu, N) for mu in params],
    )


def coboundary_value(k: int, mu: ResiduePair, N: int) -> PeriodPoly:
    """The coboundary constant of the coset whose transported parameter is
    mu: -v_{k-1} = i^{3-k} L*(mu, k-1), the X^0 coefficient of the cached
    period_S, read from its channels; for k = 2, zero when mu has first
    coordinate other than 0."""
    if k == 2 and mu.l1 != 0:
        return PeriodPoly.zero(k)
    p = period_S(k, mu, N)
    pad = [0] * (k - 2)
    return _sum(k, ((1, p.den, [p.rat[0], *pad], [(s, [v[0], *pad]) for s, v in p.syms]),))


def _transport(values: List[PeriodPoly], sources: Sequence[int], matrix, sign: int = 1) -> List[Term]:
    """Right transport by g, times sign, as one term for _sum per sigma:
    (F|g)(sigma) = F(sigma g^{-1})|g, given the index of sigma g^{-1} for
    each sigma and the action matrix of g."""
    return [_image(matrix, values[j], sign) for j in sources]


def _t_sources(quot: CosetQuotient, n: int) -> List[int]:
    return [quot.rmul_t_power(i, -n) for i in range(len(quot))]


_T_INV, _S_INV = T.inverse(), S.inverse()


@lru_cache(maxsize=256)
def _modified(val_T: PeriodPoly, val_S: PeriodPoly, mu: ResiduePair) -> Tuple[PeriodPoly, PeriodPoly]:
    """The values at T and S of a class whose transported parameter is mu,
    plus the coboundary F|g - F: val_g + F(mu g^{-1})|g - F(mu) for g in
    (T, S), F the coboundary_value.  The class of sigma g^{-1} has parameter
    mu g^{-1}, so the transport is read per parameter, with no coset table.
    Cached on its arguments, which PeriodPoly hashes and compares by value:
    the classes with parameter mu in every cell of its orbit share one
    entry, and an edited value is a different key."""
    k, N = val_T.k, mu.N
    f = _term(coboundary_value(k, mu, N), -1)

    def modified(value: PeriodPoly, g: Mat2, g_inv: Mat2) -> PeriodPoly:
        moved = _image(_action_matrix(k, g), coboundary_value(k, mu.act(g_inv), N))
        return _sum(k, (_term(value), moved, f))

    return modified(val_T, T, _T_INV), modified(val_S, S, _S_INV)


def modify_and_certify(cochain: InducedCochain) -> InducedCochain:
    """Add the coboundary F|_gamma - F to the stored values at T and S,
    through _modified at each class with the transported parameter of its
    representative, looked up in the cached lambda-orbit.  F is constant on
    the classes of the cochain's quotient, which refines that orbit (it is
    the orbit, or the discrete quotient of a copy), so the sums run once per
    class.  The values of the cochain handed in, an edited copy included,
    are the ones modified: _modified is keyed by them.  The modified cochain
    is certified rational when no polylog-symbol coefficient survives in it,
    which rationality_record reads."""
    quot = _classes_of(cochain)
    orbit, params = parameter_orbit(cochain.lam)
    pairs = [
        _modified(a, b, params[orbit.class_of[r]])
        for a, b, r in zip(cochain.val_T, cochain.val_S, quot.representatives)
    ]
    return replace(cochain, val_T=[p[0] for p in pairs], val_S=[p[1] for p in pairs])


@lru_cache(maxsize=1024)
def _poly_json(poly: PeriodPoly) -> list:
    """poly.to_json(), cached per polynomial value: the cosets and cells
    that share a value share one list, which the report writer encodes
    once.  The list is shared, so it must not be modified."""
    return poly.to_json()


def rationality_record(
    cochain: InducedCochain, modified: InducedCochain, include_values: bool = False
) -> dict:
    """The report record of one (k, N, lambda) cell from its cochain and
    the modified cochain: rational exactly when no polylog-symbol
    coefficient survives in the modified values, and the failures, each
    class scanned once and listed per coset in table order.  include_values
    adds both cochains' values, each polynomial value serialized once
    (_poly_json) and shared by its cosets and by the cells that hold it."""
    quot = modified.quotient
    failures = []
    for gen, vals in (("T", modified.val_T), ("S", modified.val_S)):
        if not all(poly.is_rational() for poly in vals):
            found = [poly.symbol_failures() for poly in vals]
            failures += [
                {"coset": i, "generator": gen, "coeff_index": idx, "symbol": sym, "coeff": coeff}
                for i, per_class in enumerate(quot.expand(found))
                for idx, sym, coeff in per_class
            ]
    out = {
        "k": modified.k,
        "N": modified.N,
        "lambda": [modified.lam.l1, modified.lam.l2],
        "cosets": len(modified.table),
        "rational": not failures,
        "failures": failures,
    }

    def values(c: InducedCochain, polys: List[PeriodPoly]) -> list:
        return c.quotient.expand([_poly_json(p) for p in polys])

    if include_values:
        out["values_T"] = values(cochain, cochain.val_T)
        out["values_S"] = values(cochain, cochain.val_S)
        out["modified"] = {"T": values(modified, modified.val_T), "S": values(modified, modified.val_S)}
    return out


# ---------------------------------------------------------------------------
# cocycle evaluation along S/T words, one value per class of the quotient,
# or at one class along the word's path (descent)


def _zero_values(cochain: InducedCochain) -> List[PeriodPoly]:
    return [PeriodPoly.zero(cochain.k) for _ in range(len(cochain.quotient))]


def _t_run_at(cochain: InducedCochain, i: int, n: int) -> PeriodPoly:
    """c(T^n) at class i in closed form: group the cocycle sum over j < n by
    the residue r of j mod N; each residue contributes one
    arithmetic-progression shift sum of the value at the class of
    sigma T^{-r}, so at most N images.  For n < 0,
    c(T^n)(sigma) = -c(T^{-n})(sigma T^{-n})|T^n."""
    k, N, quot = cochain.k, cochain.N, cochain.quotient
    if n == 0:
        return PeriodPoly.zero(k)
    if n == 1:
        return cochain.val_T[i]
    if n < 0:
        back = _t_run_at(cochain, quot.rmul_t_power(i, -n), -n)
        return _sum(k, (_image(_action_matrix(k, t_power(n)), back, -1),))
    terms = []
    # residue class r of j < n holds (n - 1 - r) // N + 1 terms
    for r in range(min(N, n)):
        # i now points at sigma T^{-r}
        terms.append(_image(_t_run_matrix(k, r, N, (n - 1 - r) // N + 1), cochain.val_T[i]))
        i = quot.rmul_T_inv[i]
    return _sum(k, terms)


def _t_run_value(cochain: InducedCochain, n: int) -> List[PeriodPoly]:
    """c(T^n) at every class of the quotient."""
    return [_t_run_at(cochain, i, n) for i in range(len(cochain.quotient))]


def _letters(tokens) -> List[Tuple[str, int]]:
    """The steps of a token word: S^n as n letters S, a T-run as one step."""
    out = []
    for kind, n in tokens:
        if kind not in ("S", "T"):
            raise ValueError(f"unknown token {kind!r}")
        out += [("S", 1)] * n if kind == "S" else [("T", n)]
    return out


def _evaluate_classes(cochain: InducedCochain, tokens) -> List[PeriodPoly]:
    """Cocycle value along a token word via c(uv) = c(u)|_v + c(v), one
    step per T-run and per letter S, one value per class of the quotient."""
    quot = _classes_of(cochain)
    acc: Optional[List[PeriodPoly]] = None
    for kind, n in _letters(tokens):
        if kind == "S":
            value, sources, g = cochain.val_S, quot.rmul_S_inv, S
        else:
            value, sources, g = _t_run_value(cochain, n), _t_sources(quot, n), t_power(n)
        if acc is None:
            acc = list(value)
        else:
            moved = _transport(acc, sources, _action_matrix(cochain.k, g))
            acc = [_sum(cochain.k, (m, _term(v))) for m, v in zip(moved, value)]
    return acc if acc is not None else _zero_values(cochain)


def _evaluate_at(cochain: InducedCochain, tokens, i: int) -> PeriodPoly:
    """Cocycle value along a token word at class i alone.  With
    c(uv)(sigma) = c(u)(sigma v^{-1})|v + c(v)(sigma), the value at sigma
    needs each letter's value only at one class: sigma times the inverse of
    the suffix that follows the letter.  Those classes are read walking
    back from i, and the values summed forward, one image per letter."""
    quot, k = _classes_of(cochain), cochain.k
    steps = _letters(tokens)
    at = []
    for kind, n in reversed(steps):
        at.append(i)
        i = quot.rmul_S_inv[i] if kind == "S" else quot.rmul_t_power(i, -n)
    acc: Optional[PeriodPoly] = None
    for (kind, n), j in zip(steps, reversed(at)):
        if kind == "S":
            value, g = cochain.val_S[j], S
        else:
            value, g = _t_run_at(cochain, j, n), t_power(n)
        acc = value if acc is None else _sum(k, (_image(_action_matrix(k, g), acc), _term(value)))
    return acc if acc is not None else PeriodPoly.zero(k)


def evaluate_word(cochain: InducedCochain, tokens) -> List[PeriodPoly]:
    """Cocycle value along a token word, one polynomial per coset (cosets of
    one class share the object)."""
    return cochain.quotient.expand(_evaluate_classes(cochain, tokens))


def evaluate_cocycle(cochain: InducedCochain, gamma: Mat2) -> List[PeriodPoly]:
    """The unique cocycle extension of the stored values to any gamma."""
    return evaluate_word(cochain, decompose_ST(gamma))


def verify_relations(cochain: InducedCochain) -> bool:
    """Exact well-definedness: the values along S^4 must vanish and the
    values along (ST)^3 must equal those along S^2."""
    k, back = cochain.k, cochain.quotient.rmul_S_inv
    s2 = _evaluate_classes(cochain, [("S", 2)])
    # c(S^4) = c(S^2)|S^2 + c(S^2): one transport by S^2 = -I, whose source
    # for sigma is sigma S^-2
    moved = _transport(s2, [back[back[i]] for i in range(len(back))], _action_matrix(k, S * S))
    if not all(_sum(k, (m, _term(v))).is_zero() for m, v in zip(moved, s2)):
        return False
    st3 = _evaluate_classes(cochain, [("S", 1), ("T", 1)] * 3)
    return all(a == b for a, b in zip(st3, s2))


def shapiro_descend(cochain: InducedCochain, gamma: Mat2) -> PeriodPoly:
    """Read the descended cocycle on the congruence subgroup: the value at
    the identity coset, evaluated along gamma's word at the classes its
    suffixes reach from the identity class only (_evaluate_at), not at
    every class.  Requires gamma = Id mod N."""
    if not gamma.is_congruent_to_identity(cochain.N):
        raise ValueError(f"{gamma} is not congruent to the identity mod {cochain.N}")
    identity = cochain.quotient.class_of[cochain.table.identity_index()]
    return _evaluate_at(cochain, decompose_ST(gamma), identity)


def certify_parameter(k: int, lam: ResiduePair, N: int) -> Tuple[InducedCochain, InducedCochain]:
    """Build and modify one (k, N, lambda) cell: the cochain and
    modify_and_certify of it, which rationality_record certifies.  Each
    class holds period_T and period_S at its parameter mu, so a sweep
    modifies each (k, mu, N) once (_modified), not once per cell of its
    orbit."""
    cochain = build_induced(k, lam, N)
    return cochain, modify_and_certify(cochain)


@lru_cache(maxsize=1024)
def _orbit_relations_hold(k: int, N: int, d: int) -> bool:
    """verify_relations of the built cochain at (0, d), which lies in the
    orbit of every lambda with gcd(l1, l2, N) = d.  Cached per (k, N, d)."""
    return verify_relations(build_induced(k, ResiduePair(N, 0, d), N))


def relations_hold(k: int, lam: ResiduePair, N: int) -> bool:
    """verify_relations(build_induced(k, lam, N)), read per orbit.  The
    cells of one SL2(Z/N)-orbit, the lambda with one value of
    gcd(l1, l2, N), hold the same per-class values (period_T and period_S at
    each orbit element mu) and the same right multiplication mu -> mu g, in
    another class order, so they share one verdict."""
    lam = admissible(k, lam, N)
    return _orbit_relations_hold(k, N, gcd(lam.l1, lam.l2, N))
