"""Special values of the completed L-function attached to the normalized
holomorphic Eisenstein family, by three mutually independent routes:

  * lvalue_closed        -- exact closed form i^r v_r, v_r in Q + Q<PL> a
                            Bernoulli product plus gated polylog symbols,
  * lvalue_numeric       -- the entire-integral split of the Mellin transform,
                            integrating the truncated Fourier expansion
                            termwise against incomplete-gamma factors
                            (a fixed-point kernel at real non-integer s),
  * lvalue_lerch_product -- the Dirichlet-series factorization into a polylog
                            times a Hurwitz zeta, valid on the continued
                            domain.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import factorial
from operator import mul
from typing import Tuple

from mpmath import mp, mpc, mpf

from .exact import (
    QQ,
    ExtScalar,
    bernoulli_value,
    symbol_term,
)
from .eisenstein import e_series_values
from .modgroup import S, ResiduePair, admissible
from .numerics import (
    DEFAULT_PREC,
    PoleError,
    exp_mellin_row,
    ext_scalar_value,
    hurwitz_zeta,
    hurwitz_zeta_ds,
    polylog_s,
    prec_guard,
    tail_cutoff,
)


@dataclass
class LValueClosed:
    """Exact value of the completed L-function of the normalized series at
    integer argument r: L* = i^r value, with value (v_r) in Q + Q<PL>, a
    Bernoulli product plus the two indicator-gated polylog contributions."""

    k: int
    N: int
    lam: ResiduePair
    r: int
    value: ExtScalar

    def parts(self) -> Tuple[ExtScalar, ExtScalar]:
        """(a, b) with L* = a + i b: the value rotated by i^r."""
        v = -self.value if self.r % 4 >= 2 else self.value
        return (v, ExtScalar.zero()) if self.r % 2 == 0 else (ExtScalar.zero(), v)

    @prec_guard
    def numeric(self, prec: int = DEFAULT_PREC) -> mpc:
        one, ipart = self.parts()
        return ext_scalar_value(one, prec) + 1j * ext_scalar_value(ipart, prec)


def lvalue_closed(k: int, lam: ResiduePair, N: int, r: int) -> LValueClosed:
    """L*(normalized series, r) = i^r v_r for 1 <= r <= k-1, exactly.

    v_r is B_{k-r}(l1/N) B_r(l2/N) / ((k-1)! r (k-r)), plus a polylog symbol
    of weight k-1 at r = k-1 (when l1 = 0; it enters L* on i^{k+1} = -i^r)
    and at r = 1 (when l2 = 0; on i^1).
    """
    if not 1 <= r <= k - 1:
        raise ValueError(f"special argument r={r} outside [1, {k - 1}]")
    lam = admissible(k, lam, N)
    l1, l2 = lam.l1, lam.l2
    val = ExtScalar(
        bernoulli_value(k - r, QQ(l1, N))
        * bernoulli_value(r, QQ(l2, N))
        / (factorial(k - 1) * r * (k - r))
    )
    if l1 == 0 and r == k - 1:
        val = val - symbol_term(k - 1, QQ(l2, N), QQ((-1) ** (k - 1), k - 1))
    if l2 == 0 and r == 1:
        val = val + symbol_term(k - 1, QQ(-l1, N), QQ(-1, k - 1))
    return LValueClosed(k, N, lam, r, val)


@dataclass(frozen=True)
class LFunctionSpec:
    """Holomorphic modular form descriptor for numeric L-evaluation: the
    normalized series at lam and at lam S^-1 (needed to reach the continued
    domain through the unfolding at 0), truncated at q_N^M at most.
    `lvalue_numeric` reads their numeric values from the shared cache
    `e_series_values`."""

    k: int
    N: int
    lam: ResiduePair
    lam_s_inv: ResiduePair
    M: int

    @classmethod
    def for_e_series(cls, k: int, lam: ResiduePair, N: int, M: int) -> "LFunctionSpec":
        lam = ResiduePair(N, lam.l1, lam.l2)
        return cls(k, N, lam, lam.act(S.inverse()), M)


# Integer and complex s only: `_mellin_row` takes real non-integer s to
# `exp_mellin_row`.  Sized from one `lvalue-invariant` benchmark round (seed
# 1), which asks for 1,225 distinct factors 3,328 times (all of them while
# building rows); keyed by the exact mpc s.


@lru_cache(maxsize=8192)
@prec_guard
def _exp_mellin(s: mpc, j: int, N: int, prec: int):
    """E(s; a) = integral_1^inf e^{-at} t^{s-1} dt = a^{-s} Gamma(s, a) for
    a = 2 pi j / N; cached, since sweeps reuse the same (s, j, N).  A value
    whose imaginary part is exactly 0 (s real) is returned as its real part:
    an mpc times it has the same bits as an mpc times the mpc, at half the
    cost."""
    a = 2 * mp.pi * j / N
    e = mpc(mp.power(a, -s) * mp.gammainc(s, a, mp.inf))
    return e.real if e.imag == 0 else e


# One row per (s, N, J, prec).  The same round asks for 58 distinct rows 670
# times, 6 of them (each asked for twice) at the non-integer s of its
# functional-equation checks; 256 entries hold the 192 rows (27,610 terms,
# 8 bytes each) of every `lvalues` cell of k <= 8, N <= 8 at one M and
# precision.


@lru_cache(maxsize=256)
@prec_guard
def _mellin_row(s: mpc, N: int, J: int, prec: int) -> tuple:
    """The factors E(s; 2 pi j / N) for j = 1..J, as `lvalue_numeric` sums
    them against the q_N coefficients.  At real non-integer s the row comes
    from the fixed-point kernel `exp_mellin_row`, within 2^-(prec + 12)
    relative per factor; integer and complex s keep the per-term
    `_exp_mellin`, so every integer L-value keeps its bits."""
    if s.imag == 0 and not mp.isint(s.real):
        return exp_mellin_row(s.real, N, J, prec)
    return tuple(_exp_mellin(s, j, N, prec) for j in range(1, J + 1))


def lvalue_tail_bound(k: int, N: int, M: int, sigma) -> mpf:
    """Bound on the truncation error of `lvalue_numeric` summing M terms of
    each series, for every s with Re s <= sigma and k - Re s <= sigma.

    It assumes |c_j| <= 2 sigma_{k-1}(j) / ((k-1)! N^{k-1}) for the q_N^j
    coefficient of either series (two divisor sums of n^{k-1}, each term
    twisted by a root of unity), and uses sigma_{k-1}(j) <= j^{k-1} (1 + ln j).
    With a_j = 2 pi j / N and c = max(sigma - 1, 0), t^{c} <= e^{c (t-1)} on
    t >= 1 gives

        |E(s; a_j)| <= integral_1^inf e^{-a_j t} t^{sigma-1} dt
                    <= e^{-a_j} / (a_j - c)          (a_j > c),

    for s and for k - s alike.  So each tail is at most 2/((k-1)! N^{k-1})
    times sum_{j>M} t_j, t_j = j^{k-1} (1 + ln j) e^{-a_j} / (a_j - c), and
    for j > M the ratio t_{j+1}/t_j is below rho = (1 + 1/(M+1))^k
    e^{-2 pi/N}.  The bound is 4 t_{M+1} / ((k-1)! N^{k-1} (1 - rho)), or
    +inf while rho >= 1 or a_{M+1} <= c."""
    j = M + 1
    a = 2 * mp.pi * j / N
    c = max(mpf(sigma) - 1, 0)
    rho = (1 + mpf(1) / j) ** k * mp.exp(-2 * mp.pi / N)
    if rho >= 1 or a <= c:
        return mp.inf
    t = mpf(j) ** (k - 1) * (1 + mp.log(j)) * mp.exp(-a) / (a - c)
    return 4 * t / (factorial(k - 1) * mpf(N) ** (k - 1) * (1 - rho))


# 64 entries hold every (k, N) of a sweep over k <= 8, N <= 8 at one M and
# precision (56 keys); an `lvalue-invariant` round uses 16.


@lru_cache(maxsize=64)
@prec_guard
def _lvalue_terms(k: int, N: int, M: int, sigma: int, prec: int) -> int:
    """Terms of each series that `lvalue_numeric` sums: one count per
    (k, N, M, sigma, prec), so every s of a cell shares its series."""
    return tail_cutoff(lambda J: lvalue_tail_bound(k, N, J, sigma), M, prec)


@prec_guard
def lvalue_numeric(spec: LFunctionSpec, s, prec: int = DEFAULT_PREC) -> mpc:
    """Completed L-value by the entire-integral split.

    The (1, inf) piece integrates the expansion of f termwise; the (0, 1)
    piece unfolds through tau -> -1/tau onto the expansion of f|_{S^-1};
    the two simple pole terms at 0 and k are added explicitly.  Each series
    is summed to J = min(J_bound, spec.M) terms, J_bound being the first
    order at which `lvalue_tail_bound`, taken at sigma = max(k, Re s,
    k - Re s) rounded up, is below the working precision (`tail_cutoff`).

    The incomplete-gamma factors come from `_mellin_row`: at real
    non-integer s from the fixed-point kernel `exp_mellin_row`, each within
    2^-(prec + 12) relative; at integer s (every CLI value) and complex s
    from mpmath's `gammainc`, one factor at a time.
    """
    k, N = spec.k, spec.N
    s = mpc(s)
    if s == 0 or s == k:
        raise PoleError(f"completed L-function has a simple pole at s = {s}")
    sigma = max(k, int(mp.ceil(s.real)), int(mp.ceil(k - s.real)))
    J = _lvalue_terms(k, N, spec.M, sigma, prec)
    f_inf, ca = e_series_values(k, spec.lam, N, J, prec)
    fs_inf, cb = e_series_values(k, spec.lam_s_inv, N, J, prec)
    i1 = mp.fsum(map(mul, ca, _mellin_row(s, N, len(ca), prec)), absolute=False)
    i2 = mp.fsum(map(mul, cb, _mellin_row(k - s, N, len(cb), prec)), absolute=False)
    ik = mpc(1j) ** (-k)
    return i1 + ik * i2 + ik * fs_inf / (s - k) - f_inf / s


@prec_guard
def lvalue_lerch_product(k: int, lam: ResiduePair, N: int, s, prec: int = DEFAULT_PREC) -> mpc:
    """Second numeric route to the raw-series L-value: the factorization

        (2 pi)^s / Gamma(s) * L*(f, s) =
            (-2 pi i)^k/(k-1)! * [ Li_s(e(l2/N)) zeta*(l1/N, s-k+1)
                                   + (-1)^k Li_s(e(-l2/N)) zeta(1-l1/N, s-k+1) ]

    where zeta* reads the l1 = 0 column at argument 1.  At s = 1 with l2 = 0
    both polylog factors degenerate to zeta(s); the zeta-pair then vanishes
    at s = 1 and the limit is evaluated through the s-derivative.
    """
    lam = admissible(k, lam, N)
    l1, l2 = lam.l1, lam.l2
    s = mpc(s)
    if s == k:
        raise PoleError("zeta factor pole at s = k")
    if mp.im(s) == 0 and mp.re(s) <= 0 and mp.isint(mp.re(s)):
        raise PoleError("Gamma factor pole at nonpositive integer s")
    a_star = QQ(l1, N) if l1 else QQ(1)
    a_refl = 1 - QQ(l1, N)
    if l2 == 0 and s == 1:
        bracket_at = hurwitz_zeta(a_star, 2 - k, prec) + (-1) ** k * hurwitz_zeta(
            a_refl, 2 - k, prec
        )
        bracket_ds = hurwitz_zeta_ds(a_star, 2 - k, prec) + (-1) ** k * hurwitz_zeta_ds(
            a_refl, 2 - k, prec
        )
        combined = mp.euler * bracket_at + bracket_ds
    else:
        z1 = hurwitz_zeta(a_star, s - k + 1, prec)
        z2 = hurwitz_zeta(a_refl, s - k + 1, prec)
        combined = (
            polylog_s(s, QQ(l2, N), prec) * z1
            + (-1) ** k * polylog_s(s, QQ(-l2, N), prec) * z2
        )
    front = mp.gamma(s) * mp.power(2 * mp.pi, -s)
    return front * (-2j * mp.pi) ** k / mp.factorial(k - 1) * combined
