"""Fourier coefficient generators for the level-N Eisenstein family.

Three expansions are produced:
  * e_fourier    -- the normalized holomorphic series (division by (-2 pi i)^k
                    puts every coefficient in Q(mu_N); the weight-2 parameter-0
                    member keeps a rational multiple of 1/(4 pi v)),
  * g_fourier    -- the classical congruence series with numeric coefficients,
  * maass_fourier / elliptic_maass_fourier -- the nonholomorphic double-index
                    series, whose coefficients are Laurent polynomials in 1/v.

lattice_sum is the independent oracle: direct truncated summation of the
defining series over 0 < max(|c|,|d|) <= R, with tail bound O(R^{2-w}) for
total weight w = k + l.  Its terms are fixed-point integers summed exactly,
so the sum does not depend on the order of the points; its docstring states
the rounding bound.
"""
from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from functools import lru_cache
from math import factorial
from typing import Dict, List, Tuple, Union

from mpmath import mp, mpc, mpf

from .exact import QQ, bernoulli_value, cyclo_canonical, formal_binomial, qq_str
from .modgroup import IndexSetError, ResiduePair, in_index_set
from .numerics import (
    DEFAULT_PREC,
    _fixed,
    _man_exp,
    _to_mp,
    cyclo_value,
    e_of,
    hurwitz_zeta,
    mpc_json,
    polylog,
    prec_guard,
)


@lru_cache(maxsize=16)
def _divisor_pairs(M: int) -> Tuple[Tuple[Tuple[int, int], ...], ...]:
    """pairs[j] = the (m, n) with m*n = j, m, n >= 1, in increasing m;
    sieved once per M.  Tuples, because every caller shares the cached
    value."""
    pairs: List[List[tuple]] = [[] for _ in range(M + 1)]
    for m in range(1, M + 1):
        for j in range(m, M + 1, m):
            pairs[j].append((m, j // m))
    return tuple(map(tuple, pairs))


def bilinear_exponent(lam: ResiduePair, theta: ResiduePair) -> int:
    """Exponent t with b(lam, theta) = mu_N^t, the symplectic pairing on
    residue pairs."""
    if lam.N != theta.N:
        raise ValueError("mixed levels")
    return (theta.l1 * lam.l2 - theta.l2 * lam.l1) % lam.N


@dataclass(frozen=True)
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
    coeffs: tuple
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
        raw = [0] * N
        for m, n in pairs[j]:
            if n % N == l1:
                raw[(m * l2) % N] += n ** (k - 1)
            if (-n) % N == l1:
                raw[(-m * l2) % N] += sign * n ** (k - 1)
        coeffs.append(cyclo_canonical(N, [x * scale for x in raw]))
    return HoloFourier("e", k, N, lam, M, const, tuple(coeffs), nonholo)


@prec_guard
def e_series_values(k: int, lam: ResiduePair, N: int, M: int, prec: int) -> Tuple[mpc, tuple]:
    """Constant and q_N coefficients of the normalized series e_fourier(k,
    lam, N, M), embedded by mu_N -> e(1/N): the one numeric copy shared by
    the L-values and the invariant.  The constant is rational.

    A series already embedded at a higher order of the same (k, lam, N,
    prec) is served as its first M coefficients: they are the same bits,
    since `_divisor_pairs` lists the pairs of each j by m whatever the
    order."""
    key = (k, lam, N, prec)
    longest = _LONGEST_SERIES.get(key)
    if longest is None or len(longest[1]) < M:
        f = e_fourier(k, lam, N, M)
        longest = mpc(_to_mp(f.const)), tuple(cyclo_value(c, prec) for c in f.coeffs)
        _LONGEST_SERIES.pop(key, None)
        _LONGEST_SERIES[key] = longest
        for old in list(_LONGEST_SERIES)[:-LONGEST_SERIES_KEYS]:
            _LONGEST_SERIES.pop(old, None)
    const, coeffs = longest
    return const, coeffs[:M]


# The longest series embedded so far per (k, lam, N, prec), the most recently
# grown last; `e_series_values` drops the oldest beyond LONGEST_SERIES_KEYS.
# Each caller slices the series it fetched or built itself, so two threads
# racing on one key may both build it, but neither reads a wrong value.  An
# entry holds about 25 KB at k = 8, N = 3, prec 192, where the L-value tail
# bound stops the series at M = 88; the exact expansion it is built from is
# not kept.
LONGEST_SERIES_KEYS = 8
_LONGEST_SERIES: dict = {}


@prec_guard
def _two_sided_class_sum(l2: int, N: int, w: int, prec: int) -> mpc:
    """sum over nonzero n = l2 mod N of n^-w: the sums over n > 0 in the
    classes of l2 and -l2, each a Hurwitz zeta value at a in (0, N]."""
    pos, neg = (hurwitz_zeta(QQ(a % N or N, N), w, prec) * mp.power(N, -mpc(w)) for a in (l2, -l2))
    return pos + (-1) ** w * neg


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
    return HoloFourier("g", k, N, lam, M, const, tuple(coeffs), nonholo)


@dataclass(frozen=True)
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
    A: Tuple[Dict[int, mpc], ...]
    C: Tuple[Dict[int, mpc], ...]

    @property
    def w(self) -> int:
        return self.k + self.l

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
def _double_index_fourier(
    k: int, l: int, lam: ResiduePair, N: int, M: int, prec: int, elliptic: bool, head
) -> MaassFourier:
    """The part both double-index expansions share: the total-weight check,
    the level reduction, the v^{1-w} term

        C0 = -2 pi i [C(-l, k-1) z+ + C(-k, l-1) z-] / (D (-2i)^{w-1})

    and the divisor-pair kernel.  head(w, l1, l2) gives the series' own
    constant A0, its pair (z+, z-) (None when it has no v^{1-w} term) and
    D."""
    w = k + l
    if w < 3:
        raise ValueError("total weight k + l must be >= 3 for absolute convergence")
    if lam.N != N:
        lam = ResiduePair(N, lam.l1, lam.l2)
    A0, pair, D = head(w, lam.l1, lam.l2)
    C0: Dict[int, mpc] = {}
    if pair is not None:
        z_plus, z_minus = pair
        c0val = (
            -2j * mp.pi * (_fb(-l, k - 1) * z_plus + _fb(-k, l - 1) * z_minus) / (D * (-2j) ** (w - 1))
        )
        if c0val != 0:
            C0[1 - w] = c0val
    A, C = _kernel_divisor_sums(k, l, lam, M, prec, elliptic)
    return MaassFourier(k, l, N, lam, M, A0, C0, A, C)


@prec_guard
def maass_fourier(
    k: int, l: int, lam: ResiduePair, N: int, M: int, prec: int = DEFAULT_PREC
) -> MaassFourier:
    """Fourier expansion of the double-index congruence series: residue data
    from the Poisson-summation kernel, with the zeta factor at l1 = 0 read as
    zeta(1, s); its v^{1-w} term has z+ = zeta*(l1/N, w-1),
    z- = zeta(1 - l1/N, w-1) and D = N^w."""

    def head(w, l1, l2):
        A0 = _two_sided_class_sum(l2, N, w, prec) if l1 == 0 else mpc(0)
        zs = hurwitz_zeta(QQ(l1, N) if l1 else QQ(1), w - 1, prec)
        zo = hurwitz_zeta(1 - QQ(l1, N), w - 1, prec)
        return A0, (zs, zo), mpf(N) ** w

    return _double_index_fourier(k, l, lam, N, M, prec, False, head)


def _fb(t: int, n: int) -> mpf:
    return _to_mp(formal_binomial(t, n))


def _i_times_int_power(a: int, p: int) -> mpc:
    """(a i)^p from the exact integer a^p, rounded once to the working
    precision; a Python complex power would round it to 53 bits."""
    x = a ** p
    re, im = ((x, 0), (0, x), (-x, 0), (0, -x))[p % 4]
    return mpc(re, im)


@prec_guard
def _kernel_divisor_sums(k, l, lam: ResiduePair, M, prec, elliptic: bool):
    """Shared (m, n) divisor-pair sums for both double-index expansions.

    The congruence series (elliptic false) keeps the pairs with m = l1 mod N
    and twists the root of unity by n l2; the elliptic series keeps those
    with n = l1 mod N, twists by m l2 and drops one power of N (e = 1, else
    e = 0).

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
    N, l1, l2 = lam.N, lam.l1, lam.l2
    e = 1 if elliptic else 0
    two_pi_i = 2j * mp.pi
    small = M // 8  # a row of prepow past it serves at most seven pairs
    phases: Dict[int, mpc] = {}
    A: List[Dict[int, mpc]] = [{} for _ in range(M)]
    C: List[Dict[int, mpc]] = [{} for _ in range(M)]
    # A, then C: side -1 swaps k and l and flips the sign of 2 pi i, of 2m
    # and of n in the elliptic condition and the maass twist
    for out, side, base, a, c in ((A, 1, -two_pi_i, k, l), (C, -1, two_pi_i, l, k)):
        prefix = {
            sgn: [base * sgn / mpf(N) ** (a - r - e) * _fb(-c, r) for r in range(a)]
            for sgn in (1, -1)
        }
        # a zero binomial is the only way a term vanishes
        live = [r for r in range(a) if prefix[1][r] != 0]
        prepows: Dict[int, list] = {}
        for m0 in range(1, M + 1):
            for sgn in (1, -1):
                m = sgn * m0
                # maass: condition on m, twist by n; elliptic: the reverse
                if not elliptic and m % N != l1:
                    continue
                den = [
                    _i_times_int_power(-side * 2 * m, c + r) * mp.factorial(a - 1 - r)
                    for r in range(a)
                ]
                for n0 in range(1, M // m0 + 1):
                    n = sgn * n0
                    if elliptic and (side * n) % N != l1:
                        continue
                    t = (m if elliptic else side * n) * l2
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
    return tuple(A), tuple(C)


@prec_guard
def elliptic_maass_fourier(
    k: int, l: int, lam: ResiduePair, N: int, M: int, prec: int = DEFAULT_PREC
) -> MaassFourier:
    """Fourier expansion of the double-index twisted (elliptic) series: the
    constant is the Bernoulli value of total weight, the v^{1-w} term carries
    the polylog pair z+- = Li_{w-1}(+-l2/N) gated by l1 = 0, with D = 1."""

    def head(w, l1, l2):
        # numerator and denominator apply one at a time: dividing by the
        # rational first would round differently and change the reports
        bw = bernoulli_value(w, QQ(l1, N))
        A0 = -((-2j * mp.pi) ** w) * mpf(int(bw.numerator)) / int(bw.denominator) / mp.factorial(w)
        if l1 != 0:
            return A0, None, 1
        return A0, (polylog(w - 1, QQ(l2, N), prec), polylog(w - 1, QQ(-l2, N), prec)), 1

    return _double_index_fourier(k, l, lam, N, M, prec, True, head)


def elliptic_tail_bound(k: int, l: int, N: int, M: int, v) -> mpf:
    """Bound on |eval_fourier(elliptic_maass_fourier(k, l, lam, N, M), tau)
    - E(tau)| at v = Im tau, for total weight w = k + l >= 3 and any lam.

    It assumes the coefficients the divisor-pair kernel builds: the pair
    (m, n) = +-(m0, n0), m0 n0 = j, adds to the v^-(l+r) term of A_j at
    most 2 pi |C(-l, r)| (2 pi n0 / N)^(k-1-r) / ((2 m0)^(l+r) (k-1-r)!),
    and to C_j the same with k and l swapped.  Over the pairs of j,
    sum n0^(k-1-r) m0^-(l+r) = j^(k-1-r) sum_{m0 | j} m0^(1-w) <= zeta(2)
    j^(k-1-r) < 2 j^(k-1-r), and both signs count, so mode j adds at most
    t_j = 8 pi (P_A(j) + P_C(j)) y^j with y = e^{-2 pi v / N} and

        P_A(j) = sum_{r<k} |C(-l, r)| (2 pi j / N)^(k-1-r) / ((2v)^(l+r) (k-1-r)!),

    P_C the same with k and l swapped.  For j > M the ratio t_{j+1}/t_j is
    below rho = (1 + 1/(M+1))^d y, d = max(k, l, 1) - 1, so the bound is
    t_{M+1} / (1 - rho), or +inf while rho >= 1."""
    v = mpf(v)
    j = M + 1
    y = mp.exp(-2 * mp.pi * v / N)
    rho = (1 + mpf(1) / j) ** (max(k, l, 1) - 1) * y
    if rho >= 1:
        return mp.inf
    x = 2 * mp.pi * j / N
    poly = mp.fsum(
        abs(_fb(-c, r)) * x ** (a - 1 - r) / ((2 * v) ** (c + r) * factorial(a - 1 - r))
        for a, c in ((k, l), (l, k))
        for r in range(a)
    )
    return 8 * mp.pi * poly * y ** j / (1 - rho)


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
    """Direct truncated sum of (c tau + d)^-k (c taubar + d)^-l over the
    n points 0 < max(|c|,|d|) <= R of the summed set: the class of lam in
    congruence mode, every pair weighted by e((c l2 - d l1)/N) in elliptic
    mode.  Tail O(R^{2-w}).  The independent oracle for every Fourier
    expansion in this module: no Fourier or Hurwitz input.

    Integer kernel, with wp = prec + GUARD_BITS and h = |k| + |l|:
      * tau's parts go on one binary scale 2^s, so c tau + d = 2^s (a + ib)
        with integers a = c X + d 2^-s, b = c Y.  Bits below
        2^(top - wp - bitlen(h) - 1) are dropped first, where
        2^top <= |tau + d/c| for every c != 0, |d| <= R: each term moves by
        less than 2^-wp relative, and the integers stay near wp bits when
        Re tau is negligible against Im tau or either part is huge.
      * For k >= l >= 0 a term is u^(k-l) |u|^(2l) with u = 1/(c tau + d),
        and for k > 0 > l it is u^w (u/ubar)^(-l); for l > k it is the
        conjugate of the (l, k) term.  (-c, -d) is not visited: its term is
        (-1)^w times that of (c, d).
      * u comes from one integer division per part, scaled by 2^-m: m is
        the least integer with 2^m >= |u| at every summed point, found per
        row c and residue class of d from the d nearest to -c Re tau.  The
        powers run in fixed point at 2^-P, each product floored, with
        P = F + w m + bitlen(h) + 3 and F = wp + 2 bitlen(R) + 8 - w m;
        every term is then within 5 h 2^-P 2^(w m) < 2^-F of its value.
      * The terms are added as Python ints, one sum per class j, so the sum
        is exact and does not depend on the order of the points.  Each
        class sum becomes an mpc once and is multiplied by e(j/N) once.

    Bound: |error| <= n 2^-F + (N + 5) 2^-wp sum |term|, the second part
    covering the dropped bits of tau and the final mpc arithmetic."""
    t = mpc(tau)
    if t.imag <= 0:
        raise ValueError("tau must lie in the upper half-plane")
    N, k, l, R = params.N, params.k, params.l, params.R
    l1, l2 = params.lam.l1, params.lam.l2
    w, h = k + l, abs(k) + abs(l)
    sign = -1 if w % 2 else 1
    elliptic = params.mode == "elliptic"
    apart = bool((2 * l1) % N or (2 * l2) % N)  # lam != -lam
    if not (elliptic or apart) and sign < 0:
        return mpc(0)  # (c, d) and (-c, -d) cancel
    wp = mp.prec
    (xm, xe), (ym, ye) = _man_exp(t.real), _man_exp(t.imag)
    top = ye + ym.bit_length() - 1  # 2^top <= |tau + d/c| for c != 0, |d| <= R
    if xm and xe + abs(xm).bit_length() - 2 >= R.bit_length():  # |Re tau| > 2R
        top = max(top, xe + abs(xm).bit_length() - 2)
    floor = top - wp - h.bit_length() - 1
    s = floor if floor > 0 else min(max(min(xe, ye) if xm else ye, floor), 0)
    X, Y = _fixed(xm, xe - s), _fixed(ym, ye - s)
    P = wp + 2 * R.bit_length() + h.bit_length() + 11  # F + w m + bitlen(h) + 3
    D = [_fixed(d, -s) for d in range(-R, R + 1)]  # ascending
    # rows of the half plane c > 0, or c = 0 < d, one per residue class
    # d = r (mod N), each with its accumulator; (-c, -d) goes to that of -lam
    # (congruence) or of class -j (elliptic).  On a row c tau + d is
    # 2^sc (a0 + dd + ib) over its values dd; the row c = 0 is exact at
    # scale 1: a = d, b = 0
    rows = []
    for c in range(R + 1):
        a0, b, sc, dds = (c * X, c * Y, s, D) if c else (0, 0, 0, range(-R, R + 1))
        lo = -R if c else 1
        if elliptic:
            starts = [(lo + (r - lo) % N, (c * l2 - r * l1) % N) for r in range(N)]
        else:
            starts = [
                (lo + (e * l2 - lo) % N, idx)
                for idx, e in enumerate((1, -1) if apart else (1,))
                if (c - e * l1) % N == 0
            ]
        rows += [(a0, b, sc, dds[d0 + R :: N], idx) for d0, idx in starts]
    # the least m with 2^m >= 1/|c tau + d| on every row: on a row the
    # nearest point to the real axis has its dd nearest to -a0
    m_rows = []
    for a0, b, sc, ds, _ in rows:
        if ds:
            i = bisect_left(ds, -a0)
            a = min(abs(a0 + ds[j]) for j in (i - 1, i) if 0 <= j < len(ds))
            m_rows.append((2 - (a * a + b * b).bit_length() - 2 * sc) // 2)
    m = max(m_rows, default=0)
    acc_re, acc_im = [0] * max(N, 2), [0] * max(N, 2)
    p, lo_exp = abs(k - l), min(k, l)
    for a0, b, sc, ds, idx in rows:
        nb, bb = -b, b * b
        sh = P - m - sc
        num_sh, den_sh = max(sh, 0), max(-sh, 0)
        sr = si = 0
        for dd in ds:
            a = a0 + dd
            q = a * a + bb
            den = q << den_sh
            ur, ui = (a << num_sh) // den, (nb << num_sh) // den  # u 2^(P-m)
            if lo_exp > 0:
                v = _fixed_pow((ur * ur + ui * ui) >> P, lo_exp, P)
                if p:
                    zr, zi = _fixed_cpow(ur, ui, p, P)
                    zr, zi = (zr * v) >> P, (zi * v) >> P
                else:
                    zr, zi = v, 0
            else:
                zr, zi = _fixed_cpow(ur, ui, w, P)
                if lo_exp:  # u^k ubar^-j = u^w (u/ubar)^j, u/ubar = (a - ib)^2/q
                    er, ei = ((a * a - bb) << P) // q, ((2 * a * nb) << P) // q
                    er, ei = _fixed_cpow(er, ei, -lo_exp, P)
                    zr, zi = (zr * er - zi * ei) >> P, (zr * ei + zi * er) >> P
            sr += zr
            si += zi
        acc_re[idx] += sr
        acc_im[idx] += si
    if l > k:
        acc_im = [-x for x in acc_im]
    if elliptic:
        classes = [(e_of(QQ(j, N), prec), j, (-j) % N) for j in range(N)]
    else:
        classes = [(1, 0, 1 if apart else 0)]
    shift = w * m - P
    total = mpc(0)
    for phase, j, jm in classes:
        re, im = acc_re[j] + sign * acc_re[jm], acc_im[j] + sign * acc_im[jm]
        total += phase * mpc(mp.ldexp(re, shift), mp.ldexp(im, shift))
    return total


def _fixed_pow(x: int, n: int, P: int) -> int:
    """x^n (n >= 1) in fixed point at 2^-P by binary powering, each product
    floored.  For 0 <= x <= 1 within e units the result is within
    n e + n - 1 units."""
    r = None
    while True:
        if n & 1:
            r = x if r is None else (r * x) >> P
        n >>= 1
        if not n:
            return r
        x = (x * x) >> P


def _fixed_cpow(xr: int, xi: int, n: int, P: int):
    """(xr + i xi)^n (n >= 1) in fixed point at 2^-P, as _fixed_pow; for
    |x| <= 1 within e units the result is within n e + (n - 1) sqrt(2)
    units."""
    rr = ri = None
    while True:
        if n & 1:
            if rr is None:
                rr, ri = xr, xi
            else:
                rr, ri = (rr * xr - ri * xi) >> P, (rr * xi + ri * xr) >> P
        n >>= 1
        if not n:
            return rr, ri
        xr, xi = (xr * xr - xi * xi) >> P, (xr * xi) >> (P - 1)


@prec_guard
def eval_fourier(series, tau, prec: int = DEFAULT_PREC) -> mpc:
    """Numeric value of a truncated expansion at tau (v = Im tau,
    q_N = e(tau/N)), including any nonholomorphic term."""
    tau = mpc(tau)
    if tau.imag <= 0:
        raise ValueError("tau must lie in the upper half-plane")
    v = tau.imag
    if isinstance(series, HoloFourier):
        # kind "e" holds exact values: embed each through cyclo_value
        exact = series.kind == "e"
        q = mp.expjpi(2 * tau / series.N)
        acc = mpc(_to_mp(series.const))
        qp = mpc(1)
        for c in series.coeffs:
            qp *= q
            acc += (cyclo_value(c, prec) if exact else c) * qp
        if series.nonholo != 0:
            acc += _to_mp(series.nonholo) / (4 * mp.pi * v)
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
