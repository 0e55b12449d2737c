"""Fourier coefficient generators for the level-N Eisenstein family.

Three expansions are produced:
  * e_fourier    -- the normalized holomorphic series (division by (-2 pi i)^k
                    puts every coefficient in Q(mu_N); the weight-2 parameter-0
                    member keeps a rational multiple of 1/(4 pi v)),
  * g_fourier    -- the classical congruence series with numeric coefficients,
  * maass_fourier / elliptic_maass_fourier -- the nonholomorphic double-index
                    series, whose coefficients are Laurent polynomials in 1/v.

lattice_sum is the independent oracle: direct truncated summation of the
defining series over the square annuli max(|c|,|d|) = rho, with tail bound
O(R^{2-w}) for total weight w = k + l.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import factorial
from typing import Dict, List, Union

from mpmath import mp, mpc, mpf

from .exact import QQ, bernoulli_value, cyclo_canonical, formal_binomial, qq_str
from .modgroup import IndexSetError, ResiduePair, in_index_set
from .numerics import (
    DEFAULT_PREC,
    _to_mp,
    e_of,
    hurwitz_zeta,
    mpc_json,
    polylog,
    prec_guard,
)


@lru_cache(maxsize=16)
def _divisor_pairs(M: int):
    """pairs[j] = list of (m, n) with m*n = j, m, n >= 1; sieved once per M."""
    pairs: List[List[tuple]] = [[] for _ in range(M + 1)]
    for m in range(1, M + 1):
        for j in range(m, M + 1, m):
            pairs[j].append((m, j // m))
    return pairs


def bilinear_exponent(lam: ResiduePair, theta: ResiduePair) -> int:
    """Exponent t with b(lam, theta) = mu_N^t, the symplectic pairing on
    residue pairs."""
    if lam.N != theta.N:
        raise ValueError("mixed levels")
    return (theta.l1 * lam.l2 - theta.l2 * lam.l1) % lam.N


@dataclass
class HoloFourier:
    """Truncated holomorphic Fourier expansion in q_N = e(tau/N).

    kind "e": exact normalized series; const is rational, coeffs live in
    Q(mu_N), nonholo is the rational coefficient of 1/(4 pi v) (nonzero only
    for weight 2 at parameter 0).
    kind "g": numeric congruence series; coefficients are mpc, nonholo is the
    mpc coefficient of 1/(4 pi v).
    """

    kind: str
    k: int
    N: int
    lam: ResiduePair
    M: int
    const: Union[QQ, mpc]
    coeffs: list
    nonholo: Union[QQ, mpc]

    def to_json(self) -> dict:
        if self.kind == "e":
            coeffs = [c.to_json() for c in self.coeffs]
            const = qq_str(self.const)
            nonholo = qq_str(self.nonholo)
        else:
            coeffs = [mpc_json(c) for c in self.coeffs]
            const = mpc_json(self.const)
            nonholo = mpc_json(self.nonholo)
        return {
            "kind": self.kind,
            "k": self.k,
            "l": 0,
            "N": self.N,
            "lambda": [self.lam.l1, self.lam.l2],
            "M": self.M,
            "constant": const,
            "coeffs": coeffs,
            "nonholo": nonholo,
        }


def e_fourier(k: int, lam: ResiduePair, N: int, M: int) -> HoloFourier:
    """Exact normalized holomorphic Eisenstein expansion at parameter lam.

    Constant term -B_k(l1/N)/k!; the q_N^j coefficient collects the two
    divisor sums with congruence condition on n and opposite twists by
    mu_N^{m l2}; only k = 2 at lam = 0 carries the 1/(4 pi v) term.
    """
    if lam.N != N:
        lam = ResiduePair(N, lam.l1, lam.l2)
    nonholo = QQ(0)
    if not in_index_set(lam, k):
        if k == 2 and lam.is_zero():
            nonholo = QQ(1)
        else:
            raise IndexSetError(f"parameter {lam} not admissible for weight {k}")
    l1, l2 = lam.l1, lam.l2
    const = -bernoulli_value(k, QQ(l1, N)) / factorial(k)
    scale = QQ(1, factorial(k - 1) * N ** (k - 1))
    sign = (-1) ** k
    pairs = _divisor_pairs(M)
    coeffs = []
    for j in range(1, M + 1):
        raw = [QQ(0)] * N
        for m, n in pairs[j]:
            if n % N == l1:
                raw[(m * l2) % N] += n ** (k - 1)
            if (-n) % N == l1:
                raw[(-m * l2) % N] += sign * n ** (k - 1)
        coeffs.append(cyclo_canonical(N, raw) * scale)
    return HoloFourier("e", k, N, lam, M, const, coeffs, nonholo)


@prec_guard
def _hurwitz_sum_over_class(a: int, N: int, s, prec: int) -> mpc:
    """sum over n > 0, n = a mod N of n^-s (a taken in (0, N])."""
    a = a % N or N
    return hurwitz_zeta(QQ(a, N), s, prec) * mp.power(N, -mpc(s))


@prec_guard
def _two_sided_class_sum(l2: int, N: int, w: int, prec: int) -> mpc:
    """sum over nonzero n = l2 mod N of n^-w."""
    return _hurwitz_sum_over_class(l2, N, w, prec) + (-1) ** w * _hurwitz_sum_over_class(-l2, N, w, prec)


@prec_guard
def g_fourier(k: int, lam: ResiduePair, N: int, M: int, prec: int = DEFAULT_PREC) -> HoloFourier:
    """Numeric congruence Eisenstein expansion: A_0 as a congruence zeta sum
    (two-sided over n = l2 mod N), divisor-sum A_j, and for k = 2 the
    nonholomorphic -pi/(N^2 v) term."""
    if k < 2:
        raise ValueError("weight must be >= 2")
    if lam.N != N:
        lam = ResiduePair(N, lam.l1, lam.l2)
    l1, l2 = lam.l1, lam.l2
    if l1 == 0:
        const = _two_sided_class_sum(l2, N, k, prec)
    else:
        const = mpc(0)
    front = (-2j * mp.pi) ** k / (mp.factorial(k - 1) * mpf(N) ** k)
    pairs = _divisor_pairs(M)
    coeffs = []
    for j in range(1, M + 1):
        acc = mpc(0)
        for m, n in pairs[j]:
            # n runs over divisors of j with j/n = m; both signs of n
            if m % N == l1:
                acc += n ** (k - 1) * e_of(QQ(n * l2, N), prec)
            if (-m) % N == l1:
                acc += (-1) ** k * n ** (k - 1) * e_of(QQ(-n * l2, N), prec)
        coeffs.append(front * acc)
    nonholo = mpc(0)
    if k == 2:
        # C_0 = -pi/(N^2 v) expressed against the unit 1/(4 pi v)
        nonholo = mpc(-4 * mp.pi ** 2 / mpf(N) ** 2)
    return HoloFourier("g", k, N, lam, M, const, coeffs, nonholo)


@dataclass
class MaassFourier:
    """Truncated double expansion in (q_N, conj(q_N)) with Laurent-in-1/v
    coefficients: A[j-1] multiplies q_N^j, C[j-1] multiplies conj(q_N)^j,
    C0 is the pure v^{1-w} term."""

    k: int
    l: int
    N: int
    lam: ResiduePair
    M: int
    A0: mpc
    C0: Dict[int, mpc]
    A: List[Dict[int, mpc]]
    C: List[Dict[int, mpc]]

    @property
    def w(self) -> int:
        return self.k + self.l

    def v_exponent_bounds_ok(self) -> bool:
        """Shape assertion: A_j uses v^-(l+r), 0 <= r <= k-1; C_j uses
        v^-(k+r), 0 <= r <= l-1; C0 is a multiple of v^{1-w}."""
        for d in self.A:
            for ex in d:
                if not (-(self.l + self.k - 1) <= ex <= -self.l):
                    return False
        for d in self.C:
            for ex in d:
                if not (-(self.k + self.l - 1) <= ex <= -self.k):
                    return False
        return all(ex == 1 - self.w for ex in self.C0)

    def to_json(self) -> dict:
        return {
            "kind": "maass",
            "k": self.k,
            "l": self.l,
            "N": self.N,
            "lambda": [self.lam.l1, self.lam.l2],
            "M": self.M,
            "constant": mpc_json(self.A0),
            "coeffs": [
                {str(ex): mpc_json(c) for ex, c in sorted(d.items())} for d in self.A
            ],
            "coeffs_conj": [
                {str(ex): mpc_json(c) for ex, c in sorted(d.items())} for d in self.C
            ],
            "nonholo": {str(ex): mpc_json(c) for ex, c in sorted(self.C0.items())},
        }


@prec_guard
def maass_fourier(
    k: int, l: int, lam: ResiduePair, N: int, M: int, prec: int = DEFAULT_PREC
) -> MaassFourier:
    """Fourier expansion of the double-index congruence series: residue data
    from the Poisson-summation kernel, with the zeta factor at l1 = 0 read as
    zeta(1, s)."""
    w = k + l
    if w < 3:
        raise ValueError("total weight k + l must be >= 3 for absolute convergence")
    if lam.N != N:
        lam = ResiduePair(N, lam.l1, lam.l2)
    l1, l2 = lam.l1, lam.l2
    A0 = _two_sided_class_sum(l2, N, w, prec) if l1 == 0 else mpc(0)
    # C0 = -2 pi i [ C(-l, k-1) zeta*(l1/N, w-1) + C(-k, l-1) zeta(1 - l1/N, w-1) ] / (N^w (-2iv)^{w-1})
    zs = hurwitz_zeta(QQ(l1, N) if l1 else QQ(1), w - 1, prec)
    zo = hurwitz_zeta(1 - QQ(l1, N), w - 1, prec)
    c0val = (
        -2j
        * mp.pi
        * (_fb(-l, k - 1) * zs + _fb(-k, l - 1) * zo)
        / (mpf(N) ** w * (-2j) ** (w - 1))
    )
    C0 = {1 - w: c0val} if c0val != 0 else {}
    A, C = _kernel_divisor_sums(
        k, l, N, M, prec, m_class=l1, twist=l2, twist_on="n", extra_N_power=0
    )
    return MaassFourier(k, l, N, lam, M, A0, C0, A, C)


def _fb(t: int, n: int) -> mpf:
    return _to_mp(formal_binomial(t, n))


def _i_times_int_power(a: int, p: int) -> mpc:
    """(a i)^p from the exact integer a^p, rounded once to the working
    precision; a Python complex power would round it to 53 bits."""
    x = a ** p
    re, im = ((x, 0), (0, x), (-x, 0), (0, -x))[p % 4]
    return mpc(re, im)


@prec_guard
def _kernel_divisor_sums(k, l, N, M, prec, m_class, twist, twist_on, extra_N_power):
    """Shared (m, n) divisor-pair sums for both double-index expansions.

    twist_on selects whether the congruence condition sits on the m or the n
    member of the pair and which of them twists the root of unity; the
    elliptic variant drops one power of N (extra_N_power = 1).

    The pair (m, n) = sgn (m0, n0), m0 n0 = j, adds to the v^-(l+r) term of A_j

        -2 pi i sgn / N^(k-r-e) C(-l, r) (-2 pi i n)^(k-1-r) phase
            / ((-2m i)^(l+r) (k-1-r)!),

    and to the v^-(k+r) term of C_j the same with k and l, the sign of
    2 pi i and the sign of 2m swapped.  Each term is evaluated as
    prepow[n][r] * phase / den[m][r], the left-to-right order of the
    expression above, from tables built once per call: prepow folds the
    prefix of (sgn, r) into the power of n, den is the denominator of m and
    the phase is e(.) of one exact rational.  Running m0 in the outer loop
    adds the terms of each A_j and C_j in the same order as walking the
    divisor pairs of j, so every sum keeps its bits; it also leaves one row
    of den live at a time.
    """
    two_pi_i = 2j * mp.pi
    maass = twist_on == "n"
    small = M // 8  # a row of prepow past it serves at most seven pairs
    phases: Dict[int, mpc] = {}
    A: List[Dict[int, mpc]] = [{} for _ in range(M)]
    C: List[Dict[int, mpc]] = [{} for _ in range(M)]
    # A, then C: side -1 swaps k and l and flips the sign of 2 pi i, of 2m
    # and of n in the elliptic condition and the maass twist
    for out, side, base, a, c in ((A, 1, -two_pi_i, k, l), (C, -1, two_pi_i, l, k)):
        prefix = {
            sgn: [base * sgn / mpf(N) ** (a - r - extra_N_power) * _fb(-c, r) for r in range(a)]
            for sgn in (1, -1)
        }
        # a zero binomial is the only way a term vanishes
        live = [r for r in range(a) if prefix[1][r] != 0]
        prepows: Dict[int, list] = {}
        for m0 in range(1, M + 1):
            for sgn in (1, -1):
                m = sgn * m0
                # maass: condition on m, twist by n; elliptic: the reverse
                if maass and m % N != m_class:
                    continue
                den = [
                    _i_times_int_power(-side * 2 * m, c + r) * mp.factorial(a - 1 - r)
                    for r in range(a)
                ]
                for n0 in range(1, M // m0 + 1):
                    n = sgn * n0
                    if not maass and (side * n) % N != m_class:
                        continue
                    t = (side * n if maass else m) * twist
                    phase = phases.get(t)
                    if phase is None:
                        phase = phases[t] = e_of(QQ(t, N), prec)
                    row = prepows.get(n)
                    if row is None:
                        row = [p * (base * n) ** (a - 1 - r) for r, p in enumerate(prefix[sgn])]
                        if n0 <= small:
                            prepows[n] = row
                    d = out[m0 * n0 - 1]
                    for r in live:
                        coeff = row[r] * phase / den[r]
                        ex = -(c + r)
                        d[ex] = d[ex] + coeff if ex in d else coeff
        for j, d in enumerate(out):
            out[j] = {ex: v for ex, v in d.items() if v != 0}
    return A, C


@prec_guard
def elliptic_maass_fourier(
    k: int, l: int, lam: ResiduePair, N: int, M: int, prec: int = DEFAULT_PREC
) -> MaassFourier:
    """Fourier expansion of the double-index twisted (elliptic) series: the
    constant is the Bernoulli value of total weight, the v^{1-w} term carries
    the polylog pair gated by l1 = 0."""
    w = k + l
    if w < 3:
        raise ValueError("total weight k + l must be >= 3 for absolute convergence")
    if lam.N != N:
        lam = ResiduePair(N, lam.l1, lam.l2)
    l1, l2 = lam.l1, lam.l2
    # numerator and denominator apply one at a time: dividing by the
    # rational first would round differently and change the reports
    bw = bernoulli_value(w, QQ(l1, N))
    A0 = -((-2j * mp.pi) ** w) * mpf(int(bw.numerator)) / int(bw.denominator) / mp.factorial(w)
    C0: Dict[int, mpc] = {}
    if l1 == 0:
        li_p = polylog(w - 1, QQ(l2, N), prec)
        li_m = polylog(w - 1, QQ(-l2, N), prec)
        c0val = (
            -2j
            * mp.pi
            * (_fb(-l, k - 1) * li_p + _fb(-k, l - 1) * li_m)
            / (-2j) ** (w - 1)
        )
        if c0val != 0:
            C0[1 - w] = c0val
    A, C = _kernel_divisor_sums(
        k, l, N, M, prec, m_class=l1, twist=l2, twist_on="m", extra_N_power=1
    )
    return MaassFourier(k, l, N, lam, M, A0, C0, A, C)


@dataclass(frozen=True)
class LatticeParams:
    """Truncated lattice sum descriptor: congruence mode restricts (c, d) to
    the residue class of lam; elliptic mode sums all pairs against the
    symplectic character."""

    k: int
    l: int
    N: int
    lam: ResiduePair
    mode: str = "congruence"  # or "elliptic"
    R: int = 400

    def __post_init__(self):
        if self.k + self.l < 3:
            raise ValueError("total weight must be >= 3 for absolute convergence")
        if self.R < 1:
            raise ValueError("radius must be >= 1")
        if self.mode not in ("congruence", "elliptic"):
            raise ValueError("mode must be congruence or elliptic")


@prec_guard
def lattice_sum(params: LatticeParams, tau, prec: int = DEFAULT_PREC) -> mpc:
    """Direct truncated summation over 0 < max(|c|,|d|) <= R, iterating square
    annuli in a fixed order; tail O(R^{2-w}).  The independent oracle for
    every Fourier expansion in this module."""
    t = mpc(tau)
    if t.imag <= 0:
        raise ValueError("tau must lie in the upper half-plane")
    tb = mp.conj(t)
    N, k, l = params.N, params.k, params.l
    l1, l2 = params.lam.l1, params.lam.l2
    elliptic = params.mode == "elliptic"
    phases = [e_of(QQ(j, N), prec) for j in range(N)] if elliptic else None
    acc = mpc(0)
    for rho in range(1, params.R + 1):
        # (-c, -d) follows (c, d) on the same annulus and (-z)^-n is
        # (-1)^n z^-n: its powers are negated copies, bit for bit, and
        # the terms are still added in the same order
        powers = {}
        for c, d in _annulus_points(rho):
            if not elliptic and (c % N != l1 or d % N != l2):
                continue
            if (-c, -d) in powers:
                a, b = powers.pop((-c, -d))
                a, b = (-a if k % 2 else a), (-b if l % 2 else b)
            else:
                a, b = powers[c, d] = (c * t + d) ** (-k), (c * tb + d) ** (-l)
            if elliptic:
                acc += phases[(c * l2 - d * l1) % N] * a * b
            else:
                acc += a * b
    return acc


def _annulus_points(rho: int):
    for d in range(-rho, rho + 1):
        yield rho, d
    for d in range(-rho, rho + 1):
        yield -rho, d
    for c in range(-rho + 1, rho):
        yield c, rho
    for c in range(-rho + 1, rho):
        yield c, -rho


@prec_guard
def eval_fourier(series, tau, prec: int = DEFAULT_PREC) -> mpc:
    """Numeric value of a truncated expansion at tau (v = Im tau,
    q_N = e(tau/N)), including any nonholomorphic term."""
    tau = mpc(tau)
    if tau.imag <= 0:
        raise ValueError("tau must lie in the upper half-plane")
    v = tau.imag
    if isinstance(series, HoloFourier):
        N = series.N
        q = mp.expjpi(2 * tau / N)
        if series.kind == "e":
            mu = [e_of(QQ(i, N), prec) for i in range(len(series.coeffs[0].coeffs) if series.coeffs else 1)]
            acc = mpc(_to_mp(series.const))
            qp = mpc(1)
            for c in series.coeffs:
                qp *= q
                acc += sum(_to_mp(x) * mu[i] for i, x in enumerate(c.coeffs) if x != 0) * qp
            if series.nonholo != 0:
                acc += _to_mp(series.nonholo) / (4 * mp.pi * v)
        else:
            acc = mpc(series.const)
            qp = mpc(1)
            for c in series.coeffs:
                qp *= q
                acc += c * qp
            if series.nonholo != 0:
                acc += series.nonholo / (4 * mp.pi * v)
        return acc
    if isinstance(series, MaassFourier):
        q = mp.expjpi(2 * tau / series.N)
        qb = mp.conj(q)
        acc = mpc(series.A0)
        for ex, cf in series.C0.items():
            acc += cf * v ** ex
        qp = mpc(1)
        qbp = mpc(1)
        for j in range(series.M):
            qp *= q
            qbp *= qb
            acc += sum(cf * v ** ex for ex, cf in series.A[j].items()) * qp
            acc += sum(cf * v ** ex for ex, cf in series.C[j].items()) * qbp
        return acc
    raise TypeError(f"cannot evaluate series of type {type(series)!r}")


@prec_guard
def raw_scale(k: int, prec: int = DEFAULT_PREC) -> mpc:
    """(-2 pi i)^k, the factor between the normalized and raw holomorphic
    series."""
    return (-2j * mp.pi) ** k
