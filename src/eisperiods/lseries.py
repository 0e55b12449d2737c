"""Special values of the completed L-function attached to the normalized
holomorphic Eisenstein family, by three mutually independent routes:

  * lvalue_closed        -- exact closed form (Bernoulli products plus gated
                            polylog symbols with powers of i tracked exactly),
  * lvalue_numeric       -- the entire-integral split of the Mellin transform,
                            integrating the truncated Fourier expansion
                            termwise against incomplete-gamma factors,
  * lvalue_lerch_product -- the Dirichlet-series factorization into a polylog
                            times a Hurwitz zeta, valid on the continued
                            domain.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import factorial
from typing import Tuple

from mpmath import mp, mpc

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
    ext_scalar_value,
    hurwitz_zeta,
    hurwitz_zeta_ds,
    polylog_s,
    prec_guard,
)


class IExt:
    """a + i*b with a, b in the polylog-symbol ring; tracks powers of i
    exactly so closed L-values stay rational data."""

    __slots__ = ("one", "ipart")

    def __init__(self, one: ExtScalar | None = None, ipart: ExtScalar | None = None):
        self.one = one if one is not None else ExtScalar.zero()
        self.ipart = ipart if ipart is not None else ExtScalar.zero()

    def add_i_power(self, power: int, term: ExtScalar) -> "IExt":
        p = power % 4
        one, ipart = self.one, self.ipart
        if p == 0:
            one = one + term
        elif p == 1:
            ipart = ipart + term
        elif p == 2:
            one = one - term
        else:
            ipart = ipart - term
        return IExt(one, ipart)

    def times_i_power(self, power: int) -> "IExt":
        p = power % 4
        out = IExt(self.one, self.ipart)
        for _ in range(p):
            out = IExt(-out.ipart, out.one)
        return out

    def __add__(self, other: "IExt") -> "IExt":
        return IExt(self.one + other.one, self.ipart + other.ipart)

    def __eq__(self, other):
        return isinstance(other, IExt) and self.one == other.one and self.ipart == other.ipart

    def pure_part(self) -> ExtScalar:
        if not self.ipart.is_zero():
            raise ValueError("value has a nonzero i component")
        return self.one

    @prec_guard
    def numeric(self, prec: int = DEFAULT_PREC) -> mpc:
        return ext_scalar_value(self.one, prec) + 1j * ext_scalar_value(self.ipart, prec)


@dataclass
class LValueClosed:
    """Exact structured value of the completed L-function of the normalized
    series at integer argument r: a Bernoulli product carried on i^r plus the
    two indicator-gated polylog contributions."""

    k: int
    N: int
    lam: ResiduePair
    r: int
    value: IExt
    bernoulli_coeff: QQ

    @prec_guard
    def numeric(self, prec: int = DEFAULT_PREC) -> mpc:
        return self.value.numeric(prec)


def lvalue_closed(k: int, lam: ResiduePair, N: int, r: int) -> LValueClosed:
    """L*(normalized series, r) for 1 <= r <= k-1, exactly.

    The main term is i^r B_{k-r}(l1/N) B_r(l2/N) / ((k-1)! r (k-r)); a polylog
    symbol of weight k-1 enters only at r = k-1 (when l1 = 0) and at r = 1
    (when l2 = 0).
    """
    if not 1 <= r <= k - 1:
        raise ValueError(f"special argument r={r} outside [1, {k - 1}]")
    lam = admissible(k, lam, N)
    l1, l2 = lam.l1, lam.l2
    beta = (
        bernoulli_value(k - r, QQ(l1, N))
        * bernoulli_value(r, QQ(l2, N))
        / (factorial(k - 1) * r * (k - r))
    )
    val = IExt().add_i_power(r, ExtScalar(beta))
    if l1 == 0 and r == k - 1:
        term = symbol_term(k - 1, QQ(l2, N), QQ((-1) ** (k - 1), k - 1))
        val = val.add_i_power(k + 1, term)
    if l2 == 0 and r == 1:
        term = symbol_term(k - 1, QQ(-l1, N), QQ(-1, k - 1))
        val = val.add_i_power(1, term)
    return LValueClosed(k, N, lam, r, val, beta)


@dataclass(frozen=True)
class LFunctionSpec:
    """Holomorphic modular form descriptor for numeric L-evaluation: the
    normalized series at lam and at lam S^-1 (needed to reach the continued
    domain through the unfolding at 0), truncated at q_N^M.  Their numeric
    values come from the shared cache `e_series_values`."""

    k: int
    N: int
    lam: ResiduePair
    lam_s_inv: ResiduePair
    M: int

    @classmethod
    def for_e_series(cls, k: int, lam: ResiduePair, N: int, M: int) -> "LFunctionSpec":
        lam = ResiduePair(N, lam.l1, lam.l2)
        return cls(k, N, lam, lam.act(S.inverse()), M)

    @prec_guard
    def embedded_coeffs(self, prec: int) -> Tuple[tuple, tuple]:
        return self._values(self.lam, prec)[1], self._values(self.lam_s_inv, prec)[1]

    @prec_guard
    def constants(self, prec: int) -> Tuple[mpc, mpc]:
        return self._values(self.lam, prec)[0], self._values(self.lam_s_inv, prec)[0]

    @prec_guard
    def _values(self, lam: ResiduePair, prec: int) -> Tuple[mpc, tuple]:
        return e_series_values(self.k, lam, self.N, self.M, prec)


# Sized from one `lvalue-invariant` benchmark round, which asks for 5,400
# distinct incomplete-gamma factors; keyed by the exact mpc s.


@lru_cache(maxsize=8192)
@prec_guard
def _exp_mellin(s: mpc, j: int, N: int, prec: int) -> mpc:
    """E(s; a) = integral_1^inf e^{-at} t^{s-1} dt = a^{-s} Gamma(s, a) for
    a = 2 pi j / N; cached, since sweeps reuse the same (s, j, N)."""
    a = 2 * mp.pi * j / N
    return mpc(mp.power(a, -s) * mp.gammainc(s, a, mp.inf))


@prec_guard
def lvalue_numeric(spec: LFunctionSpec, s, prec: int = DEFAULT_PREC) -> mpc:
    """Completed L-value by the entire-integral split.

    The (1, inf) piece integrates the expansion of f termwise; the (0, 1)
    piece unfolds through tau -> -1/tau onto the expansion of f|_{S^-1};
    the two simple pole terms at 0 and k are added explicitly.  Truncation
    error is bounded by the q_N tail e^{-2 pi M / N} of the expansions.
    """
    k, N = spec.k, spec.N
    s = mpc(s)
    if s == 0 or s == k:
        raise PoleError(f"completed L-function has a simple pole at s = {s}")
    ca, cb = spec.embedded_coeffs(prec)
    f_inf, fs_inf = spec.constants(prec)
    s_dual = k - s  # one object for all of its gamma-cache keys, which the cache keeps
    i1 = mp.fsum(
        (ca[j - 1] * _exp_mellin(s, j, N, prec) for j in range(1, len(ca) + 1)),
        absolute=False,
    )
    i2 = mp.fsum(
        (cb[j - 1] * _exp_mellin(s_dual, j, N, prec) for j in range(1, len(cb) + 1)),
        absolute=False,
    )
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
