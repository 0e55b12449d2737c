"""Raising-operator calculus on bi-polynomials in (tau, conj tau), Eichler
integrals with base point at infinity, and the lattice invariant attached to
an imaginary quadratic order, with numeric rationality certification.

The composite operator of order m acts on polynomials through an exact
closed-form coefficient array and on Fourier modes through a Laurent
multiplier; both routes are exposed so they can be checked against each
other.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import comb, factorial, gcd
from typing import Dict, List, Optional, Sequence, Tuple

from mpmath import mp, mpc, mpf

from .exact import QQ, qq, qq_str, formal_binomial
from .eisenstein import (
    bilinear_exponent,
    e_series_values,
    elliptic_maass_fourier,
    elliptic_tail_bound,
    eval_fourier,
)
from .lseries import lvalue_closed
from .modgroup import Mat2, ResiduePair, admissible
from .numerics import (
    DEFAULT_PREC,
    PrecisionError,
    _to_mp,
    e_of,
    prec_guard,
    raw_scale,
    tail_cutoff,
)


class SymmetryError(ValueError):
    """The coefficient array violates the palindromic property required for
    rewriting in the symmetric generators."""


class BiPoly:
    """Polynomial in the commuting pair (tau, conj tau) with exact rational
    coefficients, stored as an exponent-pair map without zero entries."""

    __slots__ = ("terms",)

    def __init__(self, terms: Optional[Dict[Tuple[int, int], QQ]] = None):
        self.terms: Dict[Tuple[int, int], QQ] = {}
        if terms:
            for ex, c in terms.items():
                c = qq(c)
                if c != 0:
                    self.terms[ex] = c

    @staticmethod
    def monomial(n1: int, n2: int, coeff=1) -> "BiPoly":
        return BiPoly({(n1, n2): qq(coeff)})

    def __add__(self, other: "BiPoly") -> "BiPoly":
        out = dict(self.terms)
        for ex, c in other.terms.items():
            v = out.get(ex, QQ(0)) + c
            if v == 0:
                out.pop(ex, None)
            else:
                out[ex] = v
        return BiPoly(out)

    def __mul__(self, scalar) -> "BiPoly":
        s = qq(scalar)
        return BiPoly({ex: c * s for ex, c in self.terms.items()})

    __rmul__ = __mul__

    def __eq__(self, other):
        return isinstance(other, BiPoly) and self.terms == other.terms

    def __repr__(self):
        parts = [f"({c}) t^{a} tb^{b}" for (a, b), c in sorted(self.terms.items())]
        return "BiPoly(" + " + ".join(parts or ["0"]) + ")"

    @prec_guard
    def substitute(self, tau: mpc, taubar: mpc, prec: int = DEFAULT_PREC) -> mpc:
        acc = mpc(0)
        for (a, b), c in sorted(self.terms.items()):
            acc += _to_mp(c) * tau ** a * taubar ** b
        return acc


def maass_raise(k: int, p: BiPoly) -> BiPoly:
    """Weight-k raising operator on monomials:
    tau^{n1} tb^{n2} -> (k+n1) tau^{n1} tb^{n2} - n1 tau^{n1-1} tb^{n2+1}."""
    out = BiPoly()
    for (n1, n2), c in p.terms.items():
        out = out + BiPoly.monomial(n1, n2, c * (k + n1))
        if n1 != 0:
            out = out + BiPoly.monomial(n1 - 1, n2 + 1, -c * n1)
    return out


def dd_m_by_raising(m: int, n: int) -> BiPoly:
    """Order-m composite operator applied to tau^n by iterating the raising
    operator at weights -2m+2, ..., -m (the defining composition)."""
    if m < 2:
        raise ValueError("order must be >= 2")
    p = BiPoly.monomial(n, 0)
    for k in range(-2 * m + 2, -m + 1):
        p = maass_raise(k, p)
    return p


def dd_m_poly(m: int, n: int) -> BiPoly:
    """Closed form of the composite operator on tau^n:
    sum_r (-1)^{m-1} (m-1)! C(n, r) C(2m-2-n, m-1-r) tau^{n-r} tb^r."""
    if m < 2:
        raise ValueError("order must be >= 2")
    if not 0 <= n <= 2 * m - 1:
        raise ValueError("exponent out of range")
    sign = (-1) ** (m - 1)
    fac = factorial(m - 1)
    terms: Dict[Tuple[int, int], QQ] = {}
    for r in range(m):
        coeff = sign * fac * formal_binomial(n, r) * formal_binomial(2 * m - 2 - n, m - 1 - r)
        if coeff != 0:
            terms[(n - r, r)] = coeff
    return BiPoly(terms)


def dd_m_constant(m: int) -> QQ:
    """Action on constants: (-1)^{m-1} (2m-2)!/(m-1)!."""
    return QQ((-1) ** (m - 1) * factorial(2 * m - 2), factorial(m - 1))


def dd_m_symmetric_form(m: int, n: int) -> Dict[Tuple[int, int, int], QQ]:
    """Homogeneous degree-(m-1) polynomial Q(X, Y, Z) with
    Q(1/(t-tb), (t+tb)/(t-tb), t tb/(t-tb)) = dd_m(tau^n)/(t-tb)^{m-1},
    for 0 <= n <= 2m-2; obtained by rewriting the palindromic coefficient
    array in the elementary symmetric generators."""
    if not 0 <= n <= 2 * m - 2:
        raise ValueError("exponent out of range for the symmetric form")
    p = dd_m_poly(m, n)
    a = [p.terms.get((n - r, r), QQ(0)) for r in range(n + 1)]
    if any(a[r] != a[n - r] for r in range(n + 1)):
        raise SymmetryError("coefficient array is not palindromic")
    # write sum_r a_r t^{n-r} tb^r = sum_g q_g (t+tb)^{n-2g} (t tb)^g
    q: List[QQ] = []
    work = list(a)
    for g in range(n // 2 + 1):
        lead = work[g]
        q.append(lead)
        if lead != 0:
            # subtract lead * (t+tb)^{n-2g} (t tb)^g
            deg = n - 2 * g
            binom = 1
            for i in range(deg + 1):
                work[g + i] -= lead * binom
                binom = binom * (deg - i) // (i + 1)
    if any(work):
        raise SymmetryError("symmetric reduction left a remainder")
    out: Dict[Tuple[int, int, int], QQ] = {}
    for g, coeff in enumerate(q):
        if coeff == 0:
            continue
        y_exp = n - 2 * g
        x_exp = m - 1 - y_exp - g
        if x_exp < 0:
            raise SymmetryError("negative homogenizing exponent")
        out[(x_exp, y_exp, g)] = coeff
    return out


# ---------------------------------------------------------------------------
# Eichler integrals and the invariant


def json_number(value, name: str):
    """A number read from a JSON input, as given; a JSON boolean is
    rejected, since Fraction and mpf would read it as 0 or 1."""
    if isinstance(value, bool):
        raise ValueError(f"{name} must be a number, got {value!r}")
    return value


@dataclass(frozen=True)
class QuadLatticeData:
    """Imaginary quadratic lattice input: primitive minimal polynomial
    a X^2 + b X + c of the Heegner point (a > 0, upper root taken), positive
    rational scaling omega2, level and residue parameter."""

    a: int
    b: int
    c: int
    omega2: QQ
    N: int
    lam: ResiduePair

    def __post_init__(self):
        # JSON input: ResiduePair reduces a float mod a float level, and gcd
        # takes a bool, without complaint
        fields = (self.a, self.b, self.c, self.N, self.lam.l1, self.lam.l2)
        if not all(type(x) is int for x in fields):
            raise ValueError(f"minpoly, level and lambda must be integers, got {fields}")
        if self.a <= 0:
            raise ValueError("leading coefficient must be positive")
        if gcd(gcd(abs(self.a), abs(self.b)), abs(self.c)) != 1:
            raise ValueError("minimal polynomial must be primitive")
        if self.disc >= 0:
            raise ValueError("discriminant must be negative")
        if qq(self.omega2) <= 0:
            raise ValueError("omega2 must be positive")

    @property
    def disc(self) -> int:
        return self.b * self.b - 4 * self.a * self.c

    @prec_guard
    def tau(self, prec: int = DEFAULT_PREC) -> mpc:
        return mpc(-self.b, mp.sqrt(-self.disc)) / (2 * self.a)

    @staticmethod
    def preset(name: str) -> "QuadLatticeData":
        if name == "gaussian":
            return QuadLatticeData(1, 0, 1, QQ(1), 1, ResiduePair(1, 0, 0))
        if name == "eisenstein":
            return QuadLatticeData(1, -1, 1, QQ(1), 1, ResiduePair(1, 0, 0))
        raise ValueError(f"unknown preset {name!r}")

    @staticmethod
    def from_json(obj: dict) -> "QuadLatticeData":
        if "preset" in obj:
            return QuadLatticeData.preset(obj["preset"])
        a, b, c = obj["minpoly"]
        lam = obj.get("lambda", [0, 0])
        omega2 = qq(json_number(obj.get("omega2", "1/1"), "omega2"))
        return QuadLatticeData(a, b, c, omega2, obj["N"], ResiduePair(obj["N"], *lam))

    def to_json(self) -> dict:
        return {
            "minpoly": [self.a, self.b, self.c],
            "omega2": qq_str(self.omega2),
            "N": self.N,
            "lambda": [self.lam.l1, self.lam.l2],
            "disc": self.disc,
        }


@prec_guard
def _raw_fourier_coeffs(k: int, lam: ResiduePair, N: int, M: int, prec: int):
    """Constant and q_N coefficients (a tuple) of the raw (unnormalized)
    holomorphic series, numerically: the shared normalized values times
    (-2 pi i)^k."""
    a0, coeffs = e_series_values(k, lam, N, M, prec)
    scale = raw_scale(k, prec)
    return scale * a0, tuple(scale * c for c in coeffs)


def _eichler_q_series(acc: mpc, k: int, p: int, N: int, tau: mpc, coeffs) -> mpc:
    """acc + (k-2)! sum_j A_j N^p/(2 pi i j)^p e(j tau/N): the q-series shared
    by the Eichler integral (p = k-1) and its derivative (p = k-2)."""
    fac = mp.factorial(k - 2)
    q = mp.expjpi(2 * tau / N)
    qp = mpc(1)
    for j, aj in enumerate(coeffs, start=1):
        qp *= q
        if aj != 0:
            acc += fac * aj * mpf(N) ** p / (2j * mp.pi * j) ** p * qp
    return acc


@prec_guard
def eichler_integral(k: int, lam: ResiduePair, N: int, tau, M: int, prec: int = DEFAULT_PREC) -> mpc:
    """Base-point-at-infinity Eichler integral of the raw series:
    A_0 tau^{k-1}/(k-1) + (k-2)! sum_j A_j N^{k-1}/(2 pi i j)^{k-1} e(j tau/N)."""
    a0, coeffs = _raw_fourier_coeffs(k, lam, N, M, prec)
    tau = mpc(tau)
    return _eichler_q_series(a0 * tau ** (k - 1) / (k - 1), k, k - 1, N, tau, coeffs)


@prec_guard
def eichler_integral_dtau(k: int, lam: ResiduePair, N: int, tau, M: int, prec: int = DEFAULT_PREC) -> mpc:
    """Holomorphic tau-derivative of the Eichler integral (termwise)."""
    a0, coeffs = _raw_fourier_coeffs(k, lam, N, M, prec)
    tau = mpc(tau)
    return _eichler_q_series(a0 * tau ** (k - 2), k, k - 2, N, tau, coeffs)


@dataclass
class PsiValue:
    """Numeric invariant value and the number of Fourier modes summed."""

    value: mpc
    fourier_terms: int


@prec_guard
def _lvalue_shift(m: int, lam: ResiduePair, N: int, prec: int) -> mpc:
    """i^{3-2m} L*(raw series, 2m-1), the constant that anchors the Eichler
    integral choice."""
    lv = lvalue_closed(2 * m, lam, N, 2 * m - 1).numeric(prec) * raw_scale(2 * m, prec)
    return mpc(1j) ** (3 - 2 * m) * lv


def psi_tail_bound(m: int, data: QuadLatticeData, v, M: int) -> mpf:
    """Bound on |psi summed to M Fourier modes - psi| at v = Im tau.

    It assumes |A_j| <= (2 pi)^k 2 sigma_{k-1}(j) / ((k-1)! N^{k-1}) for the
    raw weight-k series, k = 2m (two divisor sums of n^{k-1}, each term
    twisted by a root of unity), and uses sigma_{k-1}(j) <= j^{k-1} (1 + ln j).
    Mode j then adds at most |front| 4 pi / (k-1) (1 + ln j) P(j) y^j, with
    y = e^{-2 pi v / N}, |front| = |D|^{(m-1)/2} / (pi^m (2v)^{m-1}) and

        P(j) = (m-1)! sum_{r<m} C(m+r-1, r) X^{m-1-r} / (m-1-r)!,  X = 4 pi v j / N,

    the bound on the Laurent multiplier.  For j > M the ratio of successive
    bounds is below rho = (1 + 1/(M+1))^m y, so the bound is the term at
    M + 1 over 1 - rho, or +inf while rho >= 1."""
    k, N = 2 * m, data.N
    v = mpf(v)
    j = M + 1
    y = mp.exp(-2 * mp.pi * v / N)
    rho = (1 + mpf(1) / j) ** m * y
    if rho >= 1:
        return mp.inf
    x = 4 * mp.pi * v * j / N
    poly = factorial(m - 1) * mp.fsum(
        comb(m + r - 1, r) * x ** (m - 1 - r) / factorial(m - 1 - r) for r in range(m)
    )
    front = mp.power(-data.disc, mpf(m - 1) / 2) / (mp.pi ** m * (2 * v) ** (m - 1))
    return front * 4 * mp.pi / (k - 1) * (1 + mp.log(j)) * poly * y ** j / (1 - rho)


@prec_guard
def psi(
    m: int,
    data: QuadLatticeData,
    lam: ResiduePair,
    tau,
    M: int = 400,
    prec: int = 256,
    tol=None,
) -> PsiValue:
    """The invariant: the order-m operator applied to the anchored Eichler
    integral of the raw weight-2m series, scaled by
    i |D|^{(m-1)/2} / (pi^m (tau - conj tau)^{m-1}).

    The polynomial part goes through the closed-form coefficient array, each
    Fourier mode through the Laurent multiplier, and the anchoring constant
    through the action on constants.  The modes are summed to J = min(J_bound,
    M), J_bound being the first order at which `psi_tail_bound` is below the
    working precision (`tail_cutoff`); PrecisionError is raised when the bound
    at M itself exceeds tol.
    """
    if m < 2:
        raise ValueError("order must be >= 2")
    k = 2 * m
    N = data.N
    lam = admissible(k, lam, N)
    tau = mpc(tau)
    if tau.imag <= 0:
        raise ValueError("tau must lie in the upper half-plane")
    if tol is None:
        tol = mpf(2) ** (16 - prec)
    v = tau.imag
    tail = psi_tail_bound(m, data, v, M)
    if tail > tol:
        raise PrecisionError(
            f"Fourier tail bound {mp.nstr(tail, 5)} exceeds tolerance at M={M}"
        )
    J = tail_cutoff(lambda J: psi_tail_bound(m, data, v, J), M, prec)
    a0, coeffs = _raw_fourier_coeffs(k, lam, N, J, prec)
    taubar = mp.conj(tau)
    vdiff = tau - taubar  # 2 i v
    # polynomial piece: A0/(2m-1) * dd_m(tau^{2m-1})
    acc = a0 / (k - 1) * dd_m_poly(m, k - 1).substitute(tau, taubar, prec)
    # Fourier modes: multiplier (m-1)! sum_r C(-m, r) vdiff^{m-1-r} (2 pi i j/N)^{m-1-r}/(m-1-r)!
    fac = mp.factorial(k - 2)
    fm1 = mp.factorial(m - 1)
    q = mp.expjpi(2 * tau / N)
    qp = mpc(1)
    binoms = [_to_mp(formal_binomial(-m, r)) for r in range(m)]
    facs = [mp.factorial(m - 1 - r) for r in range(m)]
    n_power = mpf(N) ** (k - 1)
    two_pi_i = 2j * mp.pi
    for j, aj in enumerate(coeffs, start=1):
        qp *= q
        if aj == 0:
            continue
        x = vdiff * (two_pi_i * j / N)
        mult = mpc(0)
        for r in range(m):
            mult += binoms[r] * x ** (m - 1 - r) / facs[r]
        mult *= fm1
        acc += fac * aj * n_power / (two_pi_i * j) ** (k - 1) * mult * qp
    # anchoring constant
    acc += _lvalue_shift(m, lam, N, prec) * _to_mp(dd_m_constant(m))
    front = mpc(1j) * mp.power(-data.disc, mpf(m - 1) / 2) / (
        mp.pi ** m * vdiff ** (m - 1)
    )
    return PsiValue(front * acc, J)


@lru_cache(maxsize=8)
@prec_guard
def _psi_value(m: int, data: QuadLatticeData, lam: ResiduePair, tau: mpc, M: int, prec: int) -> mpc:
    """psi(m, data, lam, tau, M, prec).value, evaluated once per argument:
    psi_gamma_shift and psi_value_ratio share the value at the lattice's
    Heegner point, and a gamma that fixes that point and lam (S for the
    Gaussian lattice) asks for it again as its shifted value."""
    return psi(m, data, lam, tau, M, prec).value


@prec_guard
def mobius(gamma: Mat2, tau: mpc, prec: int = DEFAULT_PREC) -> mpc:
    tau = mpc(tau)
    return (gamma.a * tau + gamma.b) / (gamma.c * tau + gamma.d)


@prec_guard
def psi_gamma_shift(
    m: int,
    data: QuadLatticeData,
    gamma: Mat2,
    M: int = 400,
    prec: int = 256,
) -> mpc:
    """[psi(gamma tau, lam gamma^{-1}) - psi(tau, lam)] / (2 pi i)^m; rational
    for Heegner tau by the invariance property."""
    lam = data.lam
    tau = data.tau(prec)
    shifted = _psi_value(m, data, lam.act(gamma.inverse()), mobius(gamma, tau, prec), M, prec)
    base = _psi_value(m, data, lam, tau, M, prec)
    return (shifted - base) / (2j * mp.pi) ** m


def re_m(z: mpc, m: int) -> mpf:
    """Imaginary part for even m, real part for odd m, through the explicit
    (alpha +- conj alpha) combination."""
    z = mpc(z)
    if m % 2 == 0:
        return mpf(((z + (-1) ** (m - 1) * mp.conj(z)) / 2j).real)
    return mpf(((z + (-1) ** (m - 1) * mp.conj(z)) / 2).real)


@prec_guard
def psi_r_value(
    m: int,
    data: QuadLatticeData,
    lam: ResiduePair,
    M: int = 400,
    prec: int = 256,
) -> mpc:
    """The partial-zeta building block: Im(tau)^m / V^m times the equal-index
    twisted series at the Heegner point, from its Fourier expansion.  That is
    exponentially accurate: it sums J = min(J_bound, M) modes, J_bound being
    the first order at which `elliptic_tail_bound` over omega2^{2m} is below
    the working precision (`tail_cutoff`)."""
    N = data.N
    lam = ResiduePair(N, lam.l1, lam.l2)
    tau = data.tau(prec)
    scale = _to_mp(qq(data.omega2)) ** (2 * m)
    J = tail_cutoff(lambda J: elliptic_tail_bound(m, m, N, J, tau.imag) / scale, M, prec)
    series = elliptic_maass_fourier(m, m, lam, N, J, prec)
    return eval_fourier(series, tau, prec) / scale


@prec_guard
def psi_value_ratio(
    m: int,
    data: QuadLatticeData,
    lam: ResiduePair,
    M: int = 400,
    prec: int = 256,
) -> mpc:
    """re_m(psi) pi^m / (|D|^{m-1/2} psi_r): rational when the invariant
    carries the partial-zeta value."""
    p = _psi_value(m, data, lam, data.tau(prec), M, prec)
    pr = psi_r_value(m, data, lam, M, prec)
    return re_m(p, m) * mp.pi ** m / (mp.power(-data.disc, m - mpf(1) / 2) * pr)


@dataclass(frozen=True)
class IdealClassTerm:
    """One ideal-class contribution to the Hecke assembly: the lattice data,
    the norm of the chosen integral ideal, and the character value at it."""

    lattice: QuadLatticeData
    norm_b: QQ
    chi: mpc

    def __post_init__(self):
        if qq(self.norm_b) <= 0:
            raise ValueError("norm_b must be positive")
        if self.chi == 0 or not mp.isfinite(self.chi):
            raise ValueError(f"chi must be finite and nonzero, got {self.chi}")


@prec_guard
def hecke_assemble(
    m: int,
    delta: int,
    classes: Sequence[IdealClassTerm],
    w_f: int,
    prec: int = 256,
    M: int = 400,
) -> mpc:
    """Class-by-class assembly of the L-value:
    (1/w_f) sum_r (Nb_r^{m+delta}/chi_r) N_r^{-2}
            sum_{lam mod N_r} b(lam_r, lam) psi_r(m, tau_r, lam).

    Norms and character values are caller-supplied data."""
    if w_f <= 0:
        raise ValueError("w_f must be positive")
    if not classes:
        raise ValueError("the assembly needs at least one ideal class")
    total = mpc(0)
    for term in classes:
        data = term.lattice
        N = data.N
        inner = mpc(0)
        for l1 in range(N):
            for l2 in range(N):
                lam = ResiduePair(N, l1, l2)
                phase = e_of(QQ(bilinear_exponent(data.lam, lam), N), prec)
                inner += phase * psi_r_value(m, data, lam, M, prec)
        total += (
            _to_mp(qq(term.norm_b)) ** (m + delta) / mpc(term.chi) * inner / N ** 2
        )
    return total / w_f
