"""Arbitrary-precision evaluation of the special functions used throughout:
Hurwitz zeta and polylogarithms at roots of unity, rows of incomplete-gamma
factors for the Mellin route of the L-values, plus rational reconstruction of
numerically computed invariants.

Evaluation is delegated to mpmath (Euler-Maclaurin based Hurwitz zeta on the
continued domain); polylog values at rational arguments are split over
residue classes into Hurwitz zeta values, which keeps every call on the
analytically continued branch.  The incomplete-gamma rows are computed in
fixed point from Python ints (`exp_mellin_row`, whose docstring states its
error bound).  Error bounds are analytic estimates, not certified
enclosures.  All functions are pure; mpmath's internal constant
caches (pi, Euler gamma, ...) are write-once per precision.

Precision contract: every function in this package that takes a ``prec``
argument is wrapped by ``prec_guard``, which runs its whole body, input
conversions included, at ``mp.prec = prec + GUARD_BITS``.  So its inputs are
read, and its result is computed and returned, at ``prec`` bits plus the
guard, whatever the caller's ambient ``mp.prec``.
"""
from __future__ import annotations

import inspect
from functools import lru_cache, wraps

from mpmath import mp, mpc, mpf
from mpmath.libmp import from_man_exp, mpf_div, mpf_mul, mpf_pos, round_nearest

from .exact import QQ, qq

DEFAULT_PREC = 192
GUARD_BITS = 16


def prec_guard(fn):
    """Run ``fn`` at ``mp.prec = prec + GUARD_BITS``, ``prec`` being
    its own argument of that name (passed by position or keyword, or its
    default).  The wrapper carries ``prec_guarded = True``.

    It sets and restores ``mp.prec`` itself, as ``mp.workprec`` does, because
    building a context manager on each call costs about 1 us, and the hot
    callers (``cyclo_value``, the misses of ``e_of``) run thousands of times
    per command."""
    params = list(inspect.signature(fn).parameters.values())
    pos = [p.name for p in params].index("prec")
    default = params[pos].default

    @wraps(fn)
    def guarded(*args, **kwargs):
        prec = args[pos] if len(args) > pos else kwargs.get("prec", default)
        if prec is inspect.Parameter.empty:
            raise TypeError(f"{fn.__qualname__}() missing required argument 'prec'")
        saved = mp.prec
        mp.prec = prec + GUARD_BITS
        try:
            return fn(*args, **kwargs)
        finally:
            mp.prec = saved

    guarded.prec_guarded = True
    return guarded


class PoleError(ValueError):
    """Evaluation requested at a pole of the analytically continued function."""


class PrecisionError(ValueError):
    """The requested tolerance is unattainable at the given precision budget."""


# A Fourier sum stops once its proven tail is 2^-TAIL_MARGIN below the last
# bit kept at prec + GUARD_BITS: the dropped terms then move no reported bit
# unless the sum lies that close to a rounding boundary.
TAIL_MARGIN = 40


@prec_guard
def tail_cutoff(bound, M: int, prec: int) -> int:
    """The least J in [1, M] with bound(J) < 2^-(prec + GUARD_BITS +
    TAIL_MARGIN), or M if there is none: the number of Fourier terms worth
    summing for a result at prec bits.  bound(J) is a route's tail bound
    after J terms; once it is finite it does not increase with J (each
    route's bound is a geometric tail), so bisection finds the least J.  It
    is evaluated at 53 bits, far inside the margin."""
    eps = mpf(2) ** -(mp.prec + TAIL_MARGIN)
    with mp.workprec(53):
        if not bound(M) < eps:
            return M
        lo, hi = 1, M
        while lo < hi:
            mid = (lo + hi) // 2
            if bound(mid) < eps:
                hi = mid
            else:
                lo = mid + 1
    return hi


def _to_mp(x):
    """Exact rationals map to exact binary ratios; floats, complex numbers
    and mpmath values pass through."""
    if isinstance(x, (mpf, mpc, float, int, complex)):
        return x
    q = qq(x)
    return mpf(int(q.numerator)) / int(q.denominator)


@lru_cache(maxsize=1024)
@prec_guard
def e_of(x, prec: int = DEFAULT_PREC) -> mpc:
    """e(x) = exp(2 pi i x).  Memoised on the exact argument and ``prec``:
    under the guard the value depends on nothing else, and a command asks
    for a handful of roots of unity some 10^4 times."""
    return mp.expjpi(2 * _to_mp(x))


@prec_guard
def raw_scale(w: int, prec: int = DEFAULT_PREC) -> mpc:
    """(-2 pi i)^w: the factor between the normalized and raw holomorphic
    series of weight w, and the denominator of a weight-w polylog symbol."""
    return (-2j * mp.pi) ** w


# Keyed by the exact (a, s, prec) as passed: under the guard the value
# depends on nothing else, and keys equal in value (an int, a Fraction, an
# mpf or an mpc) compute the same bits, so they may share an entry.  One
# `lvalue-invariant` benchmark round (seed 1) asks for 73 distinct zeta
# values 1,510 times; 2,048 entries hold the 1,978 that the Lerch route asks
# for over every `lvalues` cell of k <= 16, N <= 12.


@lru_cache(maxsize=2048)
@prec_guard
def hurwitz_zeta(a, s, prec: int = DEFAULT_PREC) -> mpc:
    """zeta(a, s) = sum_{n >= 0} (n+a)^{-s} for rational a in (0, 1], on the
    analytically continued domain (pole only at s = 1).  Memoised; s may be
    an exact rational, read as an exact binary ratio."""
    a = qq(a)
    if not 0 < a <= 1:
        raise ValueError("a must lie in (0, 1]")
    s = mpc(_to_mp(s))
    if s == 1:
        raise PoleError("Hurwitz zeta has a pole at s = 1")
    if mp.im(s) == 0:
        s = mp.re(s)
    return mpc(mp.zeta(s, _to_mp(a)))


# The same round asks for 24 distinct derivatives 60 times; 1,024 entries
# hold the 689 of every `lvalues` cell of k <= 16, N <= 12.


@lru_cache(maxsize=1024)
@prec_guard
def hurwitz_zeta_ds(a, s, prec: int = DEFAULT_PREC) -> mpc:
    """d/ds of zeta(a, s); used for removable-singularity limits.  Memoised
    like `hurwitz_zeta`."""
    return mpc(mp.zeta(mpc(_to_mp(s)), _to_mp(qq(a)), 1))


@prec_guard
def polylog(w: int, x, prec: int = DEFAULT_PREC) -> mpc:
    """Li_w(e(x)) for integer w >= 1 and rational x in [0, 1).

    Computed as -log(1 - e(x)) for w = 1 and otherwise by splitting the
    defining series over residue classes mod the denominator of x, which
    turns it into a finite combination of Hurwitz zeta values.
    """
    x = qq(x)
    x = x - (x.numerator // x.denominator)
    if w == 1 and x == 0:
        raise PoleError("Li_1(1) diverges")
    if w < 1:
        raise ValueError("weight must be >= 1")
    return _polylog_cached(w, int(x.numerator), int(x.denominator), prec)


@lru_cache(maxsize=4096)
@prec_guard
def _polylog_cached(w: int, num: int, den: int, prec: int) -> mpc:
    if w == 1:
        val = -mp.log(1 - e_of(QQ(num, den), prec))
    elif num == 0:
        val = mp.zeta(w)
    else:
        # Li_w(e(a/N)) = N^-w sum_{j=1..N} e(j a / N) zeta(j/N, w)
        acc = mpc(0)
        for j in range(1, den + 1):
            acc += e_of(QQ(j * num, den), prec) * mp.zeta(w, mpf(j) / den)
        val = acc / mpf(den) ** w
    return mpc(val)


@prec_guard
def polylog_s(s, x, prec: int = DEFAULT_PREC) -> mpc:
    """Li_s(e(x)) for arbitrary complex order s (continued branch), rational x."""
    x = qq(x)
    x = x - (x.numerator // x.denominator)
    s = mpc(s)
    if x == 0:
        if s == 1:
            raise PoleError("Li_1(1) diverges")
        return mpc(mp.zeta(s if mp.im(s) else mp.re(s)))
    if s == 1:
        return polylog(1, x, prec)
    den = int(x.denominator)
    acc = mpc(0)
    for j in range(1, den + 1):
        acc += e_of(j * x, prec) * hurwitz_zeta(QQ(j, den), s, prec)
    return acc * mp.power(den, -s)


@prec_guard
def rational_reconstruct(z, den_bound: int, eps, prec: int = DEFAULT_PREC):
    """Recover a rational p/q, q <= den_bound, with |z - p/q| < eps, from a
    high-precision value; returns None on failure.

    A candidate is accepted only if its residual is below eps AND the next
    continued-fraction convergent has denominator above den_bound, so that
    the reconstruction is unambiguous at the requested tolerance.
    """
    z = mpc(z)
    eps = mpf(abs(_to_mp(eps)))
    if abs(mp.im(z)) >= eps:
        return None
    x = mp.re(z)
    target = _mpf_ratio(x)
    convergents = _convergents(target)
    for i, (pn, qn) in enumerate(convergents):
        if qn > den_bound:
            return None
        residual = abs(x - mpf(pn) / qn)
        if residual < eps:
            nxt = convergents[i + 1] if i + 1 < len(convergents) else None
            if nxt is None or nxt[1] > den_bound:
                return QQ(pn, qn)
            return None
    return None


# ---------------------------------------------------------------------------
# incomplete-gamma rows at real s


def _man_exp(x: mpf):
    """(man, exp) with x = man 2^exp and the sign on man."""
    sign, man, exp, _ = x._mpf_
    return (-man if sign else man), exp


def _fixed(x: int, e: int) -> int:
    """x 2^e rounded to an integer."""
    if e >= 0:
        return x << e
    return (x + (1 << (-e - 1))) >> -e


@prec_guard
def exp_mellin_row(s, N: int, J: int, prec: int = DEFAULT_PREC) -> tuple:
    """E(s; a_j) = integral_1^inf e^{-a_j t} t^{s-1} dt = a_j^{-s} Gamma(s, a_j)
    for a_j = j h, h = 2 pi / N, j = 1..J and real s (not an integer <= 0):
    mpf values at wp = prec + GUARD_BITS bits, each within 2^-(prec + 12)
    relative of the exact value.

    Inputs.  The fixed-point scale is 2^-Q, Q = wp + 8 + bitlen(4 J' +
    3 sigma N + 18 C + 8), J' = max(J, 2^16), sigma = ceil(max(|s|, 1)),
    C = 64 + 8 wp, raised if need be so that s is read exactly.  h is read
    within 2^-Q, so a_j within j 2^-Q; as d ln E/da = -<t>, the mean of t
    under e^{-at} t^{s-1} dt on [1, inf), which lies in [1, 1 + max(s, 1)/a],
    that moves E by at most (J + sigma N) 2^-Q relative.  Q sees J only
    through J', so a row is a prefix of any longer row.

    Crossover: a_j >= a_x = wp/13 (16 at 192 bits) takes the continued
    fraction, a_j < a_x the series; either costs about 0.25 ms at a_x.

    Continued fraction, DLMF 8.9.2: E(s0; a) = e^{-a}/D with D = a +
    (1 - s0)/(1 + 1/(a + (2 - s0)/(1 + 2/(a + ...)))), s0 = s - m, m = ceil(s)
    - 1 if s > 1 and 0 otherwise, so no element is negative.  Its Wallis
    numerators and denominators run in Python ints at scale 2^Q, two steps a
    pass (one step of the even form), all shifted down together once the odd
    denominator passes 2^(Q + 64).  Every element is >= 0, so the tail after
    any index lies between 0 and its first term and D between any two
    successive approximants: the loop stops at the first pass i with
    |f_2i - f_(2i-1)| <= 2^-Q f_(2i-1), which bounds |D - f_2i| by that,
    and raises PrecisionError after C passes.  R = a/D then steps up as
    R <- 1 + (s0 + i) R / a, i < m, to a e^a E(s; a), and E = e^{-a} R / a,
    e^{-a_j} being a running product of e^{-h} at Q bits.  Every int stays
    >= 2^Q and every sum has positive terms, so each floor or shift adds one
    unit, 2^-Q relative, to what it inherits: at most 6 i 2^-Q on each
    approximant.  Truncation (1 + 18 C), R and the steps (2 + |s| + sigma),
    e^{-a_j} (3 J + 2) and the inputs (J + sigma N) add up to at most
    2^-(wp + 8) relative.

    Series, DLMF 8.7.1: E = Gamma(s) a^{-s} - e^{-a} sum_n a^n / (s)_(n+1),
    terms at scale 2^-Qs, Qs = Q + 1.45 a_x + 8, plus log2 1/|s - nint(s)|
    when s < 1/2 for the cancellation near a pole of Gamma.  Term n is
    within e_n = e_(n-1) a/|s + n| + 1 units, tracked in ints.  Once
    s + n + 1 >= 2 a every later term is at most half the one before, and the
    sum stops at the first such |t_n| <= 1: the tail is at most |t_n| + e_n
    units.  With Gamma, the power and exp within 2 ulp at Qs bits, the
    resulting bound delta on the error must be <= 2^-(wp + 6) E; otherwise Qs
    grows by the missing bits plus 8 and the value is redone, at most four
    times, before PrecisionError.

    The final rounding to wp bits adds 2^-wp: in all, below 2^(1 - wp) =
    2^-(prec + 15)."""
    s = mpf(s)
    if mp.isint(s) and s <= 0:
        raise ValueError(f"s = {s} is a pole of Gamma(s)")
    wp = mp.prec
    sm, se = _man_exp(s)
    sigma = max(int(mp.ceil(abs(s))), 1)
    cap = 64 + 8 * wp
    Q = max(wp + 8 + (4 * max(J, 1 << 16) + 3 * sigma * N + 18 * cap + 8).bit_length(), -se)
    H, S = _fixed_h(N, Q), _fixed(sm, se + Q)
    m = int(mp.ceil(s)) - 1 if s > 1 else 0
    S0 = S - (m << Q)  # s0 = s - m
    one = 1 << Q
    Qs = Q + int(1.45 * wp / 13) + 8
    if s < 0.5:  # cancellation near a pole of Gamma
        Qs += max(0, -int(mp.floor(mp.log(abs(s - mp.nint(s)), 2))))
    gammas = {}
    row = []
    e = q = None
    for j in range(1, J + 1):
        A = j * H
        if 13 * A < wp * one:  # a_j < a_x
            row.append(_mellin_series(s, N, j, wp, Qs, gammas))
            continue
        with mp.workprec(Q):
            if e is None:
                q, e = mp.exp(-_raw(H, -Q)), mp.exp(-_raw(A, -Q))
            else:
                e *= q
        p0, p1, q0, q1 = one, A, 0, one  # A_{-1}, A_0, B_{-1}, B_0 at 2^Q
        for i in range(1, cap + 1):
            c = (i << Q) - S0  # i - s0
            p0, p1 = p1, p1 + ((c * p0) >> Q)
            q0, q1 = q1, q1 + ((c * q0) >> Q)
            p0, p1 = p1, ((A * p1) >> Q) + i * p0
            q0, q1 = q1, ((A * q1) >> Q) + i * q0
            if abs(p1 * q0 - p0 * q1) << Q <= q1 * p0:
                break
            sh = q0.bit_length() - Q - 64
            if sh > 0:
                p0, p1, q0, q1 = p0 >> sh, p1 >> sh, q0 >> sh, q1 >> sh
        else:
            raise PrecisionError(f"continued fraction for E({s}; 2 pi {j}/{N}) ran {cap} passes")
        R = (A * q1) // p1  # a / D
        for i in range(m):
            R = one + ((S0 + (i << Q)) * R) // A
        v = mpf_div(mpf_mul(e._mpf_, from_man_exp(R, -Q)), from_man_exp(A, -Q), wp, round_nearest)
        row.append(mp.make_mpf(v))
    return tuple(row)


def _fixed_h(N: int, Q: int) -> int:
    """2 pi / N at scale 2^Q, within one unit."""
    with mp.workprec(Q + 16):
        man, exp = _man_exp(2 * mp.pi / N)
    return _fixed(man, exp + Q)


def _raw(man: int, exp: int) -> mpf:
    """man 2^exp as an mpf, exactly."""
    return mp.make_mpf(from_man_exp(man, exp))


def _mellin_series(s: mpf, N: int, j: int, wp: int, Qs: int, gammas: dict) -> mpf:
    """The series branch of `exp_mellin_row`: E(s; 2 pi j / N) rounded to wp
    bits, starting at Qs fractional bits; `gammas` holds Gamma(s) per Qs."""
    sm, se = _man_exp(s)
    for _ in range(4):
        one = 1 << Qs
        A, S = j * _fixed_h(N, Qs), _fixed(sm, se + Qs)
        t = (one << Qs) // S  # 1/s
        total, e, e_sum, n = t, 1, 1, 0
        cap = 64 + 4 * (A >> Qs) + 2 * Qs + int(abs(s))
        while True:
            n += 1
            den = S + n * one
            t = (t * A) // den
            e = -(-e * A // abs(den)) + 1
            total += t
            e_sum += e
            if den + one >= 2 * A and abs(t) <= 1:
                break
            if n > cap:
                raise PrecisionError(f"series for E({s}; 2 pi {j}/{N}) ran {cap} terms")
        with mp.workprec(Qs):
            a = _raw(A, -Qs)
            if Qs not in gammas:
                gammas[Qs] = mp.gamma(s)
            g = gammas[Qs] * mp.power(a, -s)
            ea = mp.exp(-a)
            value = g - ea * _raw(total, -Qs)
        with mp.workprec(53):
            units = 2 * (e_sum + abs(t) + e) + 8 * abs(_raw(total, -Qs))
            delta = (16 * abs(g) + ea * units) * mpf(2) ** -Qs
            target = value * mpf(2) ** -(wp + 6)
            if value > delta and delta <= target:
                return mp.make_mpf(mpf_pos(value._mpf_, wp, round_nearest))
            Qs += int(mp.ceil(mp.log(delta / target, 2))) + 8 if value > delta else 64
    raise PrecisionError(f"series for E({s}; 2 pi {j}/{N}) needs more than {Qs} bits")


def _mpf_ratio(x) -> QQ:
    """The exact binary rational of an mpf value."""
    man, exp = _man_exp(mpf(x))
    return QQ(man << exp) if exp >= 0 else QQ(man, 1 << -exp)


def mpf_hex(x) -> str:
    """Deterministic full-precision rendering of a real value as a
    hex-significand string 0x<mantissa>p<exponent>."""
    man, exp = _man_exp(mpf(x))
    return f"{'-' if man < 0 else ''}0x{abs(man):x}p{exp}"


def mpc_json(z) -> dict:
    z = mpc(z)
    return {"re": mpf_hex(z.real), "im": mpf_hex(z.imag)}


def _convergents(x: QQ):
    """All continued-fraction convergents of an exact rational."""
    a, b = int(x.numerator), int(x.denominator)
    p0, q0, p1, q1 = 0, 1, 1, 0  # h_{-2}/k_{-2}, h_{-1}/k_{-1}
    out = []
    while b:
        t = a // b
        a, b = b, a - t * b
        p0, p1 = p1, t * p1 + p0
        q0, q1 = q1, t * q1 + q0
        out.append((p1, q1))
    return out


# ---------------------------------------------------------------------------
# numeric embeddings of the exact layer


@prec_guard
def cyclo_value(c, prec: int = DEFAULT_PREC) -> mpc:
    """Embed a Cyclo element via mu_N -> exp(2 pi i / N), by Horner: the one
    numeric embedding of Q(mu_N)."""
    mu = e_of(QQ(1, c.N), prec)
    acc = mpc(0)
    for coeff in reversed(c.coeffs):
        acc = acc * mu + _to_mp(coeff)
    return acc


@prec_guard
def polylog_symbol_value(sym, prec: int = DEFAULT_PREC) -> mpc:
    """PL(w; a/b) = Li_w(e(a/b)) / (-2 pi i)^w numerically."""
    li = polylog(sym.w, QQ(sym.num, sym.den), prec)
    return li / raw_scale(sym.w, prec)


@prec_guard
def ext_scalar_value(x, prec: int = DEFAULT_PREC) -> mpc:
    acc = mpc(_to_mp(x.rational))
    for sym, coeff in x.sorted_symbols():
        acc += _to_mp(coeff) * polylog_symbol_value(sym, prec)
    return acc
