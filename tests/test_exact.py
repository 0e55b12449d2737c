import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from mpmath import mp

from eisperiods.exact import (
    QQ,
    DivergentSymbolError,
    ExtScalar,
    PolylogSymbol,
    bernoulli_polynomial,
    bernoulli_value,
    cyclo_canonical,
    cyclotomic_polynomial,
    formal_binomial,
    qq,
    symbol_term,
)
from eisperiods.numerics import (
    GUARD_BITS,
    cyclo_value,
    e_of,
    ext_scalar_value,
    polylog,
    raw_scale,
)


def argument(sym: PolylogSymbol) -> QQ:
    """The canonical argument a/b of PL(w; a/b), in [0, 1/2]."""
    return QQ(sym.num, sym.den)


def raw_symbol_sum_value(w: int, raw_terms: dict, prec: int):
    """Reference value of an unreduced symbol sum sum coeff * PL(w; arg),
    term by term from Li_w(e(arg)) at prec plus the guard bits."""
    with mp.workprec(prec + GUARD_BITS):
        m2pi = raw_scale(w, prec)
        acc = mp.mpc(0)
        for arg, coeff in raw_terms.items():
            acc += mp.mpf(coeff.numerator) / coeff.denominator * polylog(w, arg % 1, prec) / m2pi
        return acc


def parts(x: ExtScalar):
    """The canonical fields of an ExtScalar, compared in place of the
    scalar."""
    return x.rational, x.symbols


def series_bernoulli_oracle(n_max):
    """Expand X exp(tX)/(exp(X)-1) as a power series in X with polynomial
    coefficients in t, via exact power-series division.  Independent of the
    binomial-recurrence implementation under test."""
    terms = n_max + 2
    # write X e^{tX}/(e^X - 1) = e^{tX} / ((e^X - 1)/X) and divide power series
    fact = [1]
    for i in range(1, terms + 1):
        fact.append(fact[-1] * i)
    # numerator e^{tX}: coefficient of X^m is t^m/m!
    num = [{m: QQ(1, fact[m])} for m in range(terms)]  # num[m] = dict deg(t) -> QQ
    # denominator (e^X - 1)/X: coefficient of X^m is 1/(m+1)!
    den = [QQ(1, fact[m + 1]) for m in range(terms)]
    # divide: series = num / den  (both in X), coefficients are t-polynomials
    quot = []
    for m in range(terms):
        cur = dict(num[m])
        for j in range(m):
            for d, c in quot[j].items():
                cur[d] = cur.get(d, QQ(0)) - c * den[m - j]
        quot.append({d: c / den[0] for d, c in cur.items()})
    # B_n(t) = n! * quot[n]
    out = []
    for n in range(n_max + 1):
        coeffs = [QQ(0)] * (n + 1)
        for d, c in quot[n].items():
            coeffs[d] = c * fact[n]
        out.append(coeffs)
    return out


class TestBernoulli:
    def test_small_cases(self):
        assert bernoulli_polynomial(0) == (QQ(1),)
        assert bernoulli_polynomial(1) == (QQ(-1, 2), QQ(1))
        assert bernoulli_polynomial(2) == (QQ(1, 6), QQ(-1), QQ(1))

    def test_generating_function_oracle(self):
        oracle = series_bernoulli_oracle(10)
        for n in range(11):
            assert list(bernoulli_polynomial(n)) == oracle[n]

    def test_monic_and_odd_vanishing(self):
        for n in range(13):
            assert bernoulli_polynomial(n)[-1] == 1
        for n in range(3, 13, 2):
            assert bernoulli_value(n, 0) == 0

    def test_reflection_identity(self):
        rng = random.Random(7)
        for n in range(13):
            for _ in range(20):
                t = QQ(rng.randrange(0, 50), 50)
                lhs = bernoulli_value(n, 1 - t)
                rhs = (-1) ** n * bernoulli_value(n, t)
                assert lhs == rhs

    def test_shift_identity(self):
        rng = random.Random(11)
        for n in range(1, 13):
            for _ in range(10):
                t = QQ(rng.randrange(0, 50), 50)
                assert bernoulli_value(n, 1 + t) == bernoulli_value(n, t) + n * t ** (n - 1)


class TestFormalBinomial:
    def test_n_zero(self):
        for t in (0, 5, -3, QQ(7, 2)):
            assert formal_binomial(t, 0) == 1

    def test_zero_factor(self):
        assert formal_binomial(3, 5) == 0

    def test_negative_top(self):
        assert formal_binomial(-2, 1) == -2
        assert formal_binomial(-1, 3) == -1
        assert formal_binomial(-2, 2) == 3

    def test_negative_n(self):
        assert formal_binomial(10, -1) == 0

    def test_pascal_rule(self):
        for t in range(-6, 7):
            for n in range(0, 6):
                assert formal_binomial(t, n) + formal_binomial(t, n + 1) == formal_binomial(t + 1, n + 1)


class TestCyclo:
    def test_canonical_examples(self):
        assert cyclo_canonical(4, [0, 0, 1, 0]).coeffs == (-1, 0)
        assert cyclo_canonical(3, [1, 1, 1]).coeffs == (0, 0)
        assert cyclo_canonical(1, [QQ(5, 7)]).coeffs == (QQ(5, 7),)

    def test_integer_reduction_matches_the_rational_path(self):
        # Phi_N is monic: integer buckets reduce in Z, and dividing the phi(N)
        # results by den gives the canonical form of the divided input
        rng = random.Random(30)
        for N in range(1, 13):
            for _ in range(6):
                raw = [rng.randrange(-10 ** 6, 10 ** 6) for _ in range(N)]
                den = rng.choice([1, 2, 6, 720 * N ** 3])
                got = cyclo_canonical(N, raw, den)
                assert got.coeffs == cyclo_canonical(N, [QQ(x, den) for x in raw]).coeffs
                assert all(type(c) is QQ for c in got.coeffs)

    def test_cyclotomic_polynomials(self):
        assert cyclotomic_polynomial(1) == (-1, 1)
        assert cyclotomic_polynomial(2) == (1, 1)
        assert cyclotomic_polynomial(4) == (1, 0, 1)
        assert cyclotomic_polynomial(6) == (1, -1, 1)
        assert cyclotomic_polynomial(12) == (1, 0, -1, 0, 1)

    def test_embedding_matches_the_raw_sum(self):
        # reducing mod Phi_N keeps the value of sum_i raw_i mu_N^i
        rng = random.Random(9)
        for N in (3, 5, 8, 12):
            for _ in range(5):
                raw = [QQ(rng.randrange(-9, 10), rng.randrange(1, 7)) for _ in range(N)]
                got = cyclo_value(cyclo_canonical(N, raw), 128)
                with mp.workprec(160):
                    want = mp.fsum(
                        mp.mpf(x.numerator) / x.denominator * e_of(QQ(i, N), 144)
                        for i, x in enumerate(raw)
                    )
                assert abs(got - want) < mp.mpf(2) ** -100

    def test_embedding_root(self):
        for N in (4, 7):
            for e in range(N):
                raw = [QQ(0)] * N
                raw[e] = QQ(1)
                v = cyclo_value(cyclo_canonical(N, raw), 128)
                assert abs(v - e_of(QQ(e, N), 128)) < mp.mpf(2) ** -100


def symbol_reduce(w: int, raw_terms: dict) -> ExtScalar:
    """Reduce a raw sum of weight-w polylog symbols to canonical form,
    symbol_term by symbol_term in order of argument: raw_terms maps
    arguments a/N in [0, 1) to rational coefficients.  Symbols with argument
    above 1/2 are rewritten through the reflection relation
    PL(w; 1-x) = -B_w(x)/w! - (-1)^w PL(w; x); even-weight self-paired
    arguments (0 and 1/2) become rationals."""
    out = ExtScalar.zero()
    for arg, coeff in sorted(raw_terms.items(), key=lambda t: qq(t[0])):
        out = out + symbol_term(w, arg, coeff)
    return out


class TestSymbolReduce:
    def test_reflection_example(self):
        out = symbol_reduce(3, {QQ(2, 3): QQ(1)})
        assert out.rational == QQ(-1, 162)
        assert out.symbols == {PolylogSymbol(3, 1, 3): QQ(1)}

    def test_even_weight_argument_zero(self):
        out = symbol_reduce(2, {QQ(0): QQ(1)})
        assert parts(out) == (QQ(-1, 24), {})

    def test_even_weight_argument_half(self):
        # Li_2(-1) = -pi^2/12, so PL(2; 1/2) = 1/48
        out = symbol_reduce(2, {QQ(1, 2): QQ(1)})
        assert parts(out) == (QQ(1, 48), {})

    def test_canonical_argument_untouched(self):
        out = symbol_reduce(3, {QQ(1, 3): QQ(1)})
        assert out.rational == 0
        assert out.symbols == {PolylogSymbol(3, 1, 3): QQ(1)}

    def test_divergent_weight_one(self):
        with pytest.raises(DivergentSymbolError):
            symbol_reduce(1, {QQ(0): QQ(1)})

    def test_odd_weight_argument_half_is_kept(self):
        out = symbol_reduce(1, {QQ(1, 2): QQ(-1)})
        assert out.symbols == {PolylogSymbol(1, 1, 2): QQ(-1)}

    @given(
        w=st.integers(min_value=1, max_value=5),
        num=st.integers(min_value=0, max_value=11),
        den=st.integers(min_value=1, max_value=12),
        coeff=st.fractions(min_value=-5, max_value=5),
    )
    @settings(max_examples=150, deadline=None)
    def test_idempotent(self, w, num, den, coeff):
        arg = QQ(num % den, den)
        if w == 1 and arg == 0:
            return
        once = symbol_term(w, arg, QQ(coeff.numerator, coeff.denominator))
        again = ExtScalar(once.rational)
        for sym, c in once.symbols.items():
            again = again + symbol_term(sym.w, argument(sym), c)
        assert parts(once) == parts(again)

    def test_numeric_faithfulness(self):
        rng = random.Random(13)
        prec = 160
        for _ in range(12):
            w = rng.randrange(1, 6)
            raw = {}
            for _ in range(rng.randrange(1, 4)):
                den = rng.randrange(2, 11)
                num = rng.randrange(0, den)
                if w == 1 and num == 0:
                    num = 1
                raw[QQ(num, den)] = QQ(rng.randrange(-8, 9), rng.randrange(1, 5))
            reduced = symbol_reduce(w, raw)
            got = ext_scalar_value(reduced, prec)
            want = raw_symbol_sum_value(w, raw, prec)
            assert abs(got - want) < mp.mpf(2) ** (16 - prec)

    def test_canonical_form_invariants(self):
        with pytest.raises(ValueError):
            PolylogSymbol(2, 0, 1)  # rational, not a symbol
        with pytest.raises(ValueError):
            PolylogSymbol(4, 1, 2)
        with pytest.raises(ValueError):
            PolylogSymbol(3, 2, 3)  # argument above 1/2
        PolylogSymbol(3, 0, 1)
        PolylogSymbol(3, 1, 2)


class TestExtScalar:
    def test_linear_ops(self):
        s = symbol_term(3, QQ(1, 3))
        t = symbol_term(3, QQ(1, 3), QQ(-1))
        assert parts(s + t) == (0, {})
        assert parts(s + s - s) == parts(s) == parts(-t)
        assert parts(s + QQ(1, 2) - 1) == (QQ(-1, 2), s.symbols)
        assert parts((s + QQ(1, 2)).scale(-2)) == (QQ(-1), {PolylogSymbol(3, 1, 3): QQ(-2)})
        assert parts(s.scale(0)) == (0, {})
