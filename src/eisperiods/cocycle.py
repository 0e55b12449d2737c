"""Period cocycles of the normalized Eisenstein family in the induced
picture: polynomial values at the generators T and S on each coset of the
principal congruence subgroup, coboundary modification, exact rationality
certification, cocycle-relation checks, and descent back to the subgroup.

Cocycles are stored by their values at T and S only; every other value is
reconstructed through the cocycle rule along an S/T word.  T-power runs are
evaluated in closed form (Bernoulli sums over arithmetic progressions), so
evaluation cost is logarithmic in the matrix entries.

Every per-coset loop runs on a quotient of the coset set: the coarsest
partition on which the stored values are constant and which right
multiplication by T and S maps class to class.  Every value the cocycle rule
builds is then constant on the classes too, so it is computed once per class
and expanded to one entry per coset only when returned.  The values of
build_induced are shared per transported parameter lambda sigma, so there the
classes are the lambda-orbit (12, 24 and 24 classes at N = 4, 5, 6 for
lambda = (0,1), against 48, 120 and 144 cosets), and evaluation cost scales
with the orbit, not with |SL2(Z/N)|.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import comb, factorial
from typing import List, Optional, Sequence, Tuple

from mpmath import mpc

from .exact import QQ, ExtScalar, bernoulli_value, qq_str, symbol_term
from .lseries import lvalue_closed
from .modgroup import (
    IndexSetError,
    S,
    CosetQuotient,
    CosetTable,
    Mat2,
    ResiduePair,
    decompose_ST,
    enumerate_sl2,
    in_index_set,
)
from .numerics import DEFAULT_PREC, ext_scalar_value, prec_guard


class PeriodPoly:
    """Polynomial of degree <= k-2 over the polylog-symbol ring, carrying the
    weight-(k-2) right action P(X) -> (cX+d)^{k-2} P((aX+b)/(cX+d))."""

    __slots__ = ("k", "coeffs")

    def __init__(self, k: int, coeffs: List[ExtScalar]):
        if len(coeffs) != k - 1:
            raise ValueError(f"weight-{k} period polynomial needs {k - 1} coefficients")
        self.k = k
        self.coeffs = [c if isinstance(c, ExtScalar) else ExtScalar(c) for c in coeffs]

    @staticmethod
    def zero(k: int) -> "PeriodPoly":
        return PeriodPoly(k, [ExtScalar.zero() for _ in range(k - 1)])

    @staticmethod
    def constant(k: int, value: ExtScalar) -> "PeriodPoly":
        out = PeriodPoly.zero(k)
        out.coeffs[0] = value if isinstance(value, ExtScalar) else ExtScalar(value)
        return out

    def __add__(self, other: "PeriodPoly") -> "PeriodPoly":
        return PeriodPoly(self.k, [a + b for a, b in zip(self.coeffs, other.coeffs)])

    def __sub__(self, other: "PeriodPoly") -> "PeriodPoly":
        return PeriodPoly(self.k, [a - b for a, b in zip(self.coeffs, other.coeffs)])

    def __neg__(self) -> "PeriodPoly":
        return PeriodPoly(self.k, [-a for a in self.coeffs])

    def __eq__(self, other):
        return (
            isinstance(other, PeriodPoly)
            and self.k == other.k
            and all(a == b for a, b in zip(self.coeffs, other.coeffs))
        )

    def is_zero(self) -> bool:
        return all(c.is_zero() for c in self.coeffs)

    def is_rational(self) -> bool:
        return all(c.is_rational() for c in self.coeffs)

    def act(self, g: Mat2) -> "PeriodPoly":
        """Right weight action; binomial expansion keeps every coefficient a
        rational combination of the old ones."""
        w = self.k - 2
        pows_top = _int_poly_powers(g.a, g.b, w)  # (aX+b)^m
        pows_bot = _int_poly_powers(g.c, g.d, w)  # (cX+d)^j
        out = [ExtScalar.zero() for _ in range(w + 1)]
        for m, pm in enumerate(self.coeffs):
            if pm.is_zero():
                continue
            top = pows_top[m]
            bot = pows_bot[w - m]
            for i, ci in enumerate(top):
                if ci == 0:
                    continue
                for j, cj in enumerate(bot):
                    if cj == 0:
                        continue
                    out[i + j] = out[i + j] + pm * (ci * cj)
        return PeriodPoly(self.k, out)

    def shift(self, n: int) -> "PeriodPoly":
        """P(X + n), the T^n action."""
        if n == 0:
            return self
        w = self.k - 2
        out = [ExtScalar.zero() for _ in range(w + 1)]
        for m, pm in enumerate(self.coeffs):
            if pm.is_zero():
                continue
            npow = 1
            for l in range(m, -1, -1):
                out[l] = out[l] + pm * (comb(m, m - l) * npow)
                npow *= n
        return PeriodPoly(self.k, out)

    @prec_guard
    def numeric_coeffs(self, prec: int = DEFAULT_PREC) -> List[mpc]:
        return [ext_scalar_value(c, prec) for c in self.coeffs]

    def symbol_failures(self) -> List[Tuple[int, str, str]]:
        """(coefficient index, symbol, coefficient) for every surviving
        transcendental term."""
        out = []
        for idx, c in enumerate(self.coeffs):
            for sym, coeff in c.sorted_symbols():
                out.append((idx, repr(sym), qq_str(coeff)))
        return out

    def to_json(self) -> list:
        return [c.to_json() for c in self.coeffs]

    def __repr__(self):
        return f"PeriodPoly(k={self.k}, {self.coeffs})"


def _int_poly_powers(p: int, q: int, max_pow: int) -> List[List[int]]:
    """Integer coefficient lists of (pX + q)^m for 0 <= m <= max_pow."""
    pows = [[1]]
    for _ in range(max_pow):
        prev = pows[-1]
        nxt = [0] * (len(prev) + 1)
        for i, c in enumerate(prev):
            nxt[i] += c * q
            nxt[i + 1] += c * p
        pows.append(nxt)
    return pows


def _admissible(k: int, lam: ResiduePair, N: int) -> ResiduePair:
    """lam reduced mod N; raises IndexSetError outside the index set."""
    lam = ResiduePair(N, lam.l1, lam.l2)
    if not in_index_set(lam, k):
        raise IndexSetError(f"parameter {lam} not admissible for weight {k}")
    return lam


def period_T(k: int, lam: ResiduePair, N: int) -> PeriodPoly:
    """Value of the base-point-at-infinity period at T: the rational
    polynomial -(B_k(l1/N)/(k!(k-1))) ((X+1)^{k-1} - X^{k-1})."""
    lam = _admissible(k, lam, N)
    front = -bernoulli_value(k, QQ(lam.l1, N)) / (factorial(k) * (k - 1))
    coeffs = [ExtScalar(front * comb(k - 1, j)) for j in range(k - 1)]
    return PeriodPoly(k, coeffs)


def period_S(k: int, lam: ResiduePair, N: int) -> PeriodPoly:
    """Value of the period at S: a Bernoulli-product polynomial plus polylog
    symbols in the X^0 coefficient (when l1 = 0) and the X^{k-2} coefficient
    (when l2 = 0), each with rational coefficient of size 1/(k-1)."""
    lam = _admissible(k, lam, N)
    l1, l2 = lam.l1, lam.l2
    denom = factorial(k) * (k - 1)
    coeffs = [ExtScalar.zero() for _ in range(k - 1)]
    for r in range(k - 1):
        val = (
            -comb(k, r + 1)
            * bernoulli_value(k - r - 1, QQ(l1, N))
            * bernoulli_value(r + 1, QQ(l2, N))
            / denom
        )
        coeffs[k - 2 - r] = coeffs[k - 2 - r] + ExtScalar(val)
    if l1 == 0:
        coeffs[0] = coeffs[0] + symbol_term(k - 1, QQ(l2, N), QQ((-1) ** (k - 1), k - 1))
    if l2 == 0:
        coeffs[k - 2] = coeffs[k - 2] + symbol_term(k - 1, QQ(-l1, N), QQ(1, k - 1))
    return PeriodPoly(k, coeffs)


@dataclass
class InducedCochain:
    """Cocycle data on the coset module: one period polynomial per coset at
    each of the generators T and S."""

    k: int
    N: int
    lam: ResiduePair
    table: CosetTable
    val_T: List[PeriodPoly]
    val_S: List[PeriodPoly]

    def copy(self) -> "InducedCochain":
        return InducedCochain(
            self.k, self.N, self.lam, self.table, list(self.val_T), list(self.val_S)
        )

    def quotient(self) -> CosetQuotient:
        """The coarsest coset quotient on which val_T and val_S are constant
        and closed under right multiplication; evaluation runs per class."""
        return _coset_quotient(self.table, self.val_T, self.val_S)

    @staticmethod
    def coset_parameters(lam: ResiduePair, table: CosetTable, value) -> list:
        """value(lam sigma) for every coset sigma of table, in table order,
        evaluated once per distinct transported parameter lam sigma."""
        value = lru_cache(maxsize=None)(value)
        return [value(lam.act(table.representative(i))) for i in range(len(table))]


def _coset_quotient(table: CosetTable, *per_coset: Sequence[PeriodPoly]) -> CosetQuotient:
    """The coarsest quotient of table on which every per-coset list is
    constant, comparing values by object identity: cosets that share one
    PeriodPoly object share a class, so no polynomial is compared."""
    return CosetQuotient(table, list(zip(*([id(p) for p in vals] for vals in per_coset))))


@dataclass
class _ClassCochain:
    """Stored values of a cochain with one entry per class of a quotient."""

    k: int
    N: int
    table: CosetQuotient
    val_T: List[PeriodPoly]
    val_S: List[PeriodPoly]


def _on_classes(quot: CosetQuotient, values: Sequence[PeriodPoly]) -> List[PeriodPoly]:
    return [values[r] for r in quot.representatives]


def _reduce(cochain: InducedCochain) -> _ClassCochain:
    quot = cochain.quotient()
    return _ClassCochain(
        cochain.k, cochain.N, quot, _on_classes(quot, cochain.val_T), _on_classes(quot, cochain.val_S)
    )


def build_induced(k: int, lam: ResiduePair, N: int) -> InducedCochain:
    """Cochain whose value at gamma on the coset of sigma is the period of
    the series with parameter transported by sigma."""
    lam = _admissible(k, lam, N)
    table = enumerate_sl2(N)
    periods = InducedCochain.coset_parameters(
        lam, table, lambda mu: (period_T(k, mu, N), period_S(k, mu, N))
    )
    val_T = [t for t, _ in periods]
    val_S = [s for _, s in periods]
    return InducedCochain(k, N, lam, table, val_T, val_S)


@dataclass
class CoboundaryData:
    """Constant polynomials (scalars for weight 2), one per coset, whose
    coboundary removes every transcendental term from the stored cocycle."""

    k: int
    N: int
    lam: ResiduePair
    values: List[PeriodPoly]


def coboundary(k: int, lam: ResiduePair, N: int) -> CoboundaryData:
    """Exact coboundary data from the closed L-values: i^{3-k} L*(., k-1) per
    coset for k >= 3; for k = 2 the value i L*(., 1), gated to the cosets
    whose transported parameter has first coordinate 0."""
    lam = _admissible(k, lam, N)

    def value(mu: ResiduePair) -> PeriodPoly:
        if k == 2 and mu.l1 != 0:
            return PeriodPoly.zero(k)
        scal = lvalue_closed(k, mu, N, k - 1).value.times_i_power(3 - k).pure_part()
        return PeriodPoly.constant(k, scal)

    values = InducedCochain.coset_parameters(lam, enumerate_sl2(N), value)
    return CoboundaryData(k, N, lam, values)


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
        if original is not None:
            out["cosets"] = len(original.table)
            if include_values:
                out["values_T"] = [p.to_json() for p in original.val_T]
                out["values_S"] = [p.to_json() for p in original.val_S]
        if modified is not None:
            out["cosets"] = len(modified.table)
            if include_values:
                out["modified"] = {
                    "T": [p.to_json() for p in modified.val_T],
                    "S": [p.to_json() for p in modified.val_S],
                }
        return out


def _transport_T(values: List[PeriodPoly], table: CosetQuotient, n: int) -> List[PeriodPoly]:
    """Right transport by T^n: (F|T^n)(sigma) = F(sigma T^{-n})|T^n."""
    return [values[table.rmul_t_power(i, -n)].shift(n) for i in range(len(table))]


def _transport_S(values: List[PeriodPoly], table: CosetQuotient) -> List[PeriodPoly]:
    """Right transport by S: (F|S)(sigma) = F(sigma S^{-1})|S."""
    return [values[table.rmul_S_inv[i]].act(S) for i in range(len(table))]


def modify_and_certify(
    cochain: InducedCochain, cob: CoboundaryData
) -> Tuple[InducedCochain, RationalityReport]:
    """Add the coboundary F|_gamma - F to the stored values at T and S and
    report, per coset and coefficient, whether every polylog-symbol
    coefficient cancelled exactly.  The sums and the symbol scan run once per
    class of the quotient on which the cochain and F are constant."""
    if (cochain.k, cochain.N) != (cob.k, cob.N):
        raise ValueError("cochain and coboundary data have incompatible (k, N)")
    quot = _coset_quotient(cochain.table, cochain.val_T, cochain.val_S, cob.values)
    val_T, val_S, cob_values = (
        _on_classes(quot, vals) for vals in (cochain.val_T, cochain.val_S, cob.values)
    )
    new_T = [a + b - f for a, b, f in zip(val_T, _transport_T(cob_values, quot, 1), cob_values)]
    new_S = [a + b - f for a, b, f in zip(val_S, _transport_S(cob_values, quot), cob_values)]
    modified = InducedCochain(
        cochain.k, cochain.N, cochain.lam, cochain.table, quot.expand(new_T), quot.expand(new_S)
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


def _zero_values(cochain: _ClassCochain) -> List[PeriodPoly]:
    return [PeriodPoly.zero(cochain.k) for _ in range(len(cochain.table))]


def _ap_power_sum(r: int, step: int, terms: int, p: int) -> QQ:
    """sum_{i=0}^{terms-1} (r + i step)^p, exactly, via Bernoulli polynomials."""
    if terms <= 0:
        return QQ(0)
    x = QQ(r, step)
    val = (bernoulli_value(p + 1, x + terms) - bernoulli_value(p + 1, x)) / (p + 1)
    return val * step ** p


def _poly_ap_shift_sum(poly: PeriodPoly, psums: List[QQ]) -> PeriodPoly:
    """sum_{i=0}^{terms-1} P(X + r + i step), given the power sums
    psums[p] = _ap_power_sum(r, step, terms, p) for p <= k-2."""
    out = [ExtScalar.zero() for _ in range(poly.k - 1)]
    for m, pm in enumerate(poly.coeffs):
        if pm.is_zero():
            continue
        for l in range(m + 1):
            out[l] = out[l] + pm * (comb(m, l) * psums[m - l])
    return PeriodPoly(poly.k, out)


def _t_run_value(cochain: _ClassCochain, n: int) -> List[PeriodPoly]:
    """c(T^n) in closed form: group the cocycle sum over j < n by the residue
    of j mod N; each class contributes an arithmetic-progression shift sum."""
    if n == 0:
        return _zero_values(cochain)
    table = cochain.table
    N = cochain.N
    if n < 0:
        # c(T^n) = -c(T^{-n})|_{T^n}
        return [-p for p in _transport_T(_t_run_value(cochain, -n), table, n)]
    # residue class r of j < n holds (n - 1 - r) // N + 1 terms
    psums = [
        [_ap_power_sum(r, N, (n - 1 - r) // N + 1, p) for p in range(cochain.k - 1)]
        for r in range(min(N, n))
    ]
    out = []
    for i in range(len(table)):
        acc = PeriodPoly.zero(cochain.k)
        idx = i
        for ps in psums:
            # idx now points at sigma T^{-r}
            acc = acc + _poly_ap_shift_sum(cochain.val_T[idx], ps)
            idx = table.rmul_T_inv[idx]
        out.append(acc)
    return out


def _evaluate_classes(cochain: _ClassCochain, tokens) -> List[PeriodPoly]:
    """Cocycle value along a token word via c(uv) = c(u)|_v + c(v)."""
    table = cochain.table
    acc: Optional[List[PeriodPoly]] = None
    for kind, n in tokens:
        if kind == "T":
            gen_val = _t_run_value(cochain, n)
            if acc is not None:
                acc = [a + g for a, g in zip(_transport_T(acc, table, n), gen_val)]
            else:
                acc = gen_val
        elif kind == "S":
            for _ in range(n):
                if acc is not None:
                    acc = [a + s for a, s in zip(_transport_S(acc, table), cochain.val_S)]
                else:
                    acc = list(cochain.val_S)
        else:
            raise ValueError(f"unknown token {kind!r}")
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
    s4 = _evaluate_classes(reduced, [("S", 4)])
    if not all(p.is_zero() for p in s4):
        return False
    st3 = _evaluate_classes(reduced, [("S", 1), ("T", 1)] * 3)
    s2 = _evaluate_classes(reduced, [("S", 2)])
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
