"""Arbitrary-precision evaluation of the special functions used throughout:
Hurwitz zeta and polylogarithms at roots of unity, plus rational
reconstruction of numerically computed invariants.

Evaluation is delegated to mpmath (Euler-Maclaurin based Hurwitz zeta on the
continued domain); polylog values at rational arguments are split over
residue classes into Hurwitz zeta values, which keeps every call on the
analytically continued branch.  Error bounds are analytic estimates, not
certified enclosures.  All functions are pure; mpmath's internal constant
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
    """Exact rationals map to exact binary ratios; floats/mpc pass through."""
    if isinstance(x, (mpf, mpc, float, int)):
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


@prec_guard
def hurwitz_zeta(a, s, prec: int = DEFAULT_PREC) -> mpc:
    """zeta(a, s) = sum_{n >= 0} (n+a)^{-s} for rational a in (0, 1], on the
    analytically continued domain (pole only at s = 1)."""
    a = qq(a)
    if not 0 < a <= 1:
        raise ValueError("a must lie in (0, 1]")
    s = mpc(s)
    if s == 1:
        raise PoleError("Hurwitz zeta has a pole at s = 1")
    if mp.im(s) == 0:
        s = mp.re(s)
    return mpc(mp.zeta(s, _to_mp(a)))


@prec_guard
def hurwitz_zeta_ds(a, s, prec: int = DEFAULT_PREC) -> mpc:
    """d/ds of zeta(a, s); used for removable-singularity limits."""
    return mpc(mp.zeta(mpc(s), _to_mp(qq(a)), 1))


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
    p, q = _mpf_ratio(x)  # exact binary rational of the mpf value
    target = QQ(p, q)
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


def _mpf_ratio(x):
    sign, man, exp, _ = mp.mpf(x)._mpf_
    man = -man if sign else man
    if exp >= 0:
        return man * (1 << exp), 1
    return man, 1 << (-exp)


def mpf_hex(x) -> str:
    """Deterministic full-precision rendering of a real value as a
    hex-significand string 0x<mantissa>p<exponent>."""
    sign, man, exp, _ = mpf(x)._mpf_
    m = -man if sign else man
    return f"{'-' if m < 0 else ''}0x{abs(m):x}p{exp}"


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


@prec_guard
def raw_symbol_sum_value(w: int, raw_terms: dict, prec: int = DEFAULT_PREC) -> mpc:
    """Numeric value of an unreduced symbol sum sum coeff * PL(w; arg)."""
    m2pi = raw_scale(w, prec)
    acc = mpc(0)
    for arg, coeff in raw_terms.items():
        a = qq(arg)
        a = a - (a.numerator // a.denominator)
        acc += _to_mp(qq(coeff)) * polylog(w, a, prec) / m2pi
    return acc
