"""Period cocycles of the normalized Eisenstein family in the induced
picture: polynomial values at the generators T and S on each coset of the
principal congruence subgroup, coboundary modification, exact rationality
certification, cocycle-relation checks, and descent back to the subgroup.

Cocycles are stored by their values at T and S only; every other value is
reconstructed through the cocycle rule along an S/T word.  T-power runs are
evaluated in closed form (Bernoulli sums over arithmetic progressions), so
evaluation cost is logarithmic in the matrix entries.  Each polynomial map
involved, the weight action of S and T^n and each T-run sum, is one cached
matrix on the coefficient vector.

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
from typing import List, Optional, Sequence, Tuple, Union

from mpmath import mpc

from .exact import QQ, ExtScalar, _poly_mul, bernoulli_value, qq_str, symbol_term
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
    t_power,
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


def _int_poly_powers(p: int, q: int, max_pow: int) -> List[List[QQ]]:
    """Coefficient lists of (pX + q)^m for 0 <= m <= max_pow."""
    pows = [[QQ(1)]]
    for _ in range(max_pow):
        pows.append(_poly_mul(pows[-1], [q, p]))
    return pows


# Every polynomial map the cocycle rule needs (the weight action of S and
# T^n, the closed-form T-run sums) is a cached matrix with one row per input
# coefficient: row m is what X^m maps to.  _apply alone applies them.


@lru_cache(maxsize=256)
def _action_matrix(k: int, g: Mat2) -> Tuple[Tuple[QQ, ...], ...]:
    """The weight-(k-2) action of g: X^m -> (aX+b)^m (cX+d)^{k-2-m}."""
    w = k - 2
    top = _int_poly_powers(g.a, g.b, w)
    bottom = _int_poly_powers(g.c, g.d, w)
    return tuple(tuple(_poly_mul(top[m], bottom[w - m])) for m in range(w + 1))


def _ap_power_sum(r: int, step: int, terms: int, p: int) -> QQ:
    """sum_{i=0}^{terms-1} (r + i step)^p, exactly, via Bernoulli polynomials."""
    if terms <= 0:
        return QQ(0)
    x = QQ(r, step)
    val = (bernoulli_value(p + 1, x + terms) - bernoulli_value(p + 1, x)) / (p + 1)
    return val * step ** p


@lru_cache(maxsize=256)
def _t_run_matrix(k: int, r: int, step: int, terms: int) -> Tuple[Tuple[QQ, ...], ...]:
    """The map P -> sum_{i=0}^{terms-1} P(X + r + i step): X^m adds
    C(m, l) sum_i (r + i step)^{m-l} to the coefficient of X^l."""
    psums = [_ap_power_sum(r, step, terms, p) for p in range(k - 1)]
    return tuple(
        tuple(comb(m, l) * psums[m - l] if l <= m else QQ(0) for l in range(k - 1))
        for m in range(k - 1)
    )


def _apply(matrix: Sequence[Sequence], poly: PeriodPoly) -> PeriodPoly:
    """The image of poly under a cached matrix: the one loop that multiplies
    PeriodPoly coefficients, skipping zero coefficients and zero entries."""
    out = [ExtScalar.zero()] * (poly.k - 1)
    for pm, row in zip(poly.coeffs, matrix):
        if pm.is_zero():
            continue
        for l, entry in enumerate(row):
            if entry:
                out[l] = out[l] + pm * entry
    return PeriodPoly(poly.k, out)


def period_T(k: int, lam: ResiduePair, N: int) -> PeriodPoly:
    """Value of the base-point-at-infinity period at T: the rational
    polynomial -(B_k(l1/N)/(k!(k-1))) ((X+1)^{k-1} - X^{k-1})."""
    lam = admissible(k, lam, N)
    front = -bernoulli_value(k, QQ(lam.l1, N)) / (factorial(k) * (k - 1))
    coeffs = [ExtScalar(front * comb(k - 1, j)) for j in range(k - 1)]
    return PeriodPoly(k, coeffs)


def period_S(k: int, lam: ResiduePair, N: int) -> PeriodPoly:
    """Value of the period at S: a Bernoulli-product polynomial plus polylog
    symbols in the X^0 coefficient (when l1 = 0) and the X^{k-2} coefficient
    (when l2 = 0), each with rational coefficient of size 1/(k-1)."""
    lam = admissible(k, lam, N)
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
    each of the generators T and S.  Evaluation runs on the same data with
    one entry per class of a CosetQuotient as its table (see _reduce)."""

    k: int
    N: int
    lam: ResiduePair
    table: Union[CosetTable, CosetQuotient]
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
        evaluated once per distinct transported parameter lam sigma; lam
        sigma mod N is read from the residues of sigma."""
        value = lru_cache(maxsize=None)(value)
        return [value(lam.act(sigma)) for sigma in table.elements]


def _coset_quotient(table: CosetTable, *per_coset: Sequence[PeriodPoly]) -> CosetQuotient:
    """The coarsest quotient of table on which every per-coset list is
    constant, comparing values by object identity: cosets that share one
    PeriodPoly object share a class, so no polynomial is compared."""
    return CosetQuotient(table, list(zip(*([id(p) for p in vals] for vals in per_coset))))


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
    the series with parameter transported by sigma."""
    lam = admissible(k, lam, N)
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
    lam = admissible(k, lam, N)

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


def _transport(values: List[PeriodPoly], sources: Sequence[int], matrix) -> List[PeriodPoly]:
    """Right transport by g: (F|g)(sigma) = F(sigma g^{-1})|g, given the
    index of sigma g^{-1} for each sigma and the action matrix of g."""
    return [_apply(matrix, values[j]) for j in sources]


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
    quot = _coset_quotient(cochain.table, cochain.val_T, cochain.val_S, cob.values)
    val_T, val_S, cob_values = (
        _on_classes(quot, vals) for vals in (cochain.val_T, cochain.val_S, cob.values)
    )
    k = cochain.k
    moved_T = _transport(cob_values, _t_sources(quot, 1), _action_matrix(k, T))
    moved_S = _transport(cob_values, quot.rmul_S_inv, _action_matrix(k, S))
    new_T = [a + b - f for a, b, f in zip(val_T, moved_T, cob_values)]
    new_S = [a + b - f for a, b, f in zip(val_S, moved_S, cob_values)]
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
        moved = _transport(_t_run_value(cochain, -n), _t_sources(table, n), _action_matrix(k, t_power(n)))
        return [-p for p in moved]
    # residue class r of j < n holds (n - 1 - r) // N + 1 terms
    runs = [_t_run_matrix(k, r, N, (n - 1 - r) // N + 1) for r in range(min(N, n))]
    out = []
    for i in range(len(table)):
        acc = PeriodPoly.zero(k)
        idx = i
        for run in runs:
            # idx now points at sigma T^{-r}
            acc = acc + _apply(run, cochain.val_T[idx])
            idx = table.rmul_T_inv[idx]
        out.append(acc)
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
                acc = [a + v for a, v in zip(moved, value)]
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
