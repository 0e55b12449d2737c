import json
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from mpmath import mp, mpc, mpf

from eisperiods import cocycle
from eisperiods.exact import QQ, ExtScalar, PolylogSymbol, bernoulli_value, qq, qq_str, symbol_term
from eisperiods.cocycle import (
    IndexSetError,
    PeriodPoly,
    build_induced,
    certify_parameter,
    coboundary_value,
    evaluate_cocycle,
    evaluate_word,
    modify_and_certify,
    period_S,
    period_T,
    rationality_record,
    relations_hold,
    shapiro_descend,
    verify_relations,
)
from eisperiods.lseries import LFunctionSpec, lvalue_numeric
from eisperiods.modgroup import (
    IDENTITY,
    S,
    T,
    Mat2,
    ResiduePair,
    admissible,
    decompose_ST,
    index_set,
    parameter_orbit,
    t_power,
)
from eisperiods.numerics import ext_scalar_value

PREC = 192


def setup_module():
    mp.prec = PREC + 16


def lam(N, l1, l2):
    return ResiduePair(N, l1, l2)


def transported(mu, sigma):
    """mu sigma mod N, from the residues (a, b, c, d) of the coset sigma."""
    a, b, c, d = sigma
    return ResiduePair(mu.N, mu.l1 * a + mu.l2 * c, mu.l1 * b + mu.l2 * d)


def coset_times(table, i, g):
    """The index of sigma g, sigma the coset i, from residues mod N."""
    a, b, c, d = table.elements[i]
    N = table.N
    return table.lookup[
        (
            (a * g.a + b * g.c) % N,
            (a * g.b + b * g.d) % N,
            (c * g.a + d * g.c) % N,
            (c * g.b + d * g.d) % N,
        )
    ]


def rational_poly(k, fracs):
    return PeriodPoly(k, [ExtScalar(qq(f)) for f in fracs])


def random_gamma(rng, size=40):
    from math import gcd

    while True:
        c = rng.randrange(-size, size + 1)
        d = rng.randrange(-size, size + 1)
        if (c, d) == (0, 0) or gcd(c, d) != 1:
            continue
        old_r, r = d, -c
        old_s, s = 1, 0
        old_t, t = 0, 1
        while r:
            quo = old_r // r
            old_r, r = r, old_r - quo * r
            old_s, s = s, old_s - quo * s
            old_t, t = t, old_t - quo * t
        a, b = old_s, old_t
        if a * d - b * c == -1:
            a, b = -a, -b
        k = rng.randrange(-3, 4)
        return Mat2(a + k * c, b + k * d, c, d)


# canonical symbols of several weights, arguments 0, 1/2 and inside (0, 1/2)
SYMBOLS = [
    PolylogSymbol(1, 1, 2),
    PolylogSymbol(1, 1, 3),
    PolylogSymbol(2, 1, 4),
    PolylogSymbol(3, 0, 1),
    PolylogSymbol(3, 1, 2),
    PolylogSymbol(5, 2, 5),
    PolylogSymbol(7, 1, 6),
]


def random_scalar(rng):
    """A random ExtScalar: a rational part and up to three symbol terms."""
    syms = {
        sym: QQ(rng.randrange(-9, 10), rng.randrange(1, 13))
        for sym in rng.sample(SYMBOLS, rng.randrange(0, 4))
    }
    return ExtScalar(QQ(rng.randrange(-9, 10), rng.randrange(1, 13)), syms)


def random_symbol_poly(rng, k):
    """Coefficients of a weight-k polynomial that carries at least one symbol."""
    coeffs = [random_scalar(rng) for _ in range(k - 1)]
    coeffs[rng.randrange(k - 1)] += ExtScalar.from_symbol(rng.choice(SYMBOLS), QQ(1, rng.randrange(1, 8)))
    return coeffs


def parts(x: ExtScalar):
    """The canonical fields of an ExtScalar, compared in place of the
    scalar."""
    return x.rational, x.symbols


def scaled(c: ExtScalar, x) -> ExtScalar:
    """c times the rational x, part by part."""
    return ExtScalar(c.rational * x, {s: v * x for s, v in c.symbols.items()})


def shift(p, n):
    """P(X + n) by the binomial theorem, coefficient by coefficient in
    ExtScalar arithmetic: a reference for the T^n action."""
    c = p.coeffs
    return PeriodPoly(p.k, [
        sum((scaled(c[m], math.comb(m, j) * n ** (m - j)) for m in range(j, p.k - 1)), ExtScalar.zero())
        for j in range(p.k - 1)
    ])


def scalar_act(coeffs, g):
    """(cX+d)^{k-2} P((aX+b)/(cX+d)) coefficient by coefficient in ExtScalar
    arithmetic: the reference for the integer channel kernel."""
    w = len(coeffs) - 1

    def power(p, q, m):
        return [math.comb(m, j) * p ** j * q ** (m - j) for j in range(m + 1)]

    out = [ExtScalar.zero() for _ in coeffs]
    for m, c in enumerate(coeffs):
        top, bottom = power(g.a, g.b, m), power(g.c, g.d, w - m)
        for i, x in enumerate(top):
            for j, y in enumerate(bottom):
                out[i + j] = out[i + j] + scaled(c, x * y)
    return out


def reference_period_S(k, mu, N):
    """The period at S written out from its own Bernoulli products and the
    two polylog gates, coefficient by coefficient: an exact reference for
    the value that period_S reads from the closed L-values."""
    mu = admissible(k, mu, N)
    l1, l2 = mu.l1, mu.l2
    denom = math.factorial(k) * (k - 1)
    coeffs = [ExtScalar.zero() for _ in range(k - 1)]
    for r in range(k - 1):
        val = (
            -math.comb(k, r + 1)
            * bernoulli_value(k - r - 1, QQ(l1, N))
            * bernoulli_value(r + 1, QQ(l2, N))
            / denom
        )
        coeffs[k - 2 - r] = coeffs[k - 2 - r] + ExtScalar(val)
    if l1 == 0:
        coeffs[0] = coeffs[0] + symbol_term(k - 1, QQ(l2, N), QQ((-1) ** (k - 1), k - 1))
    if l2 == 0:
        coeffs[k - 2] = coeffs[k - 2] + symbol_term(k - 1, QQ(-l1, N), QQ(1, k - 1))
    return coeffs


def scalar_failures(coeffs):
    return [
        (idx, repr(sym), qq_str(coeff))
        for idx, c in enumerate(coeffs)
        for sym, coeff in c.sorted_symbols()
    ]


class TestPeriodPolyAction:
    def test_identity_action(self):
        p = rational_poly(5, ["1/2", "-2/3", "0/1", "5/7"])
        assert p.act(IDENTITY) == p

    def test_action_associativity(self):
        rng = random.Random(17)
        for _ in range(100):
            k = rng.choice([2, 3, 4, 6, 8])
            p = PeriodPoly(k, [ExtScalar(QQ(rng.randrange(-5, 6), rng.randrange(1, 5))) for _ in range(k - 1)])
            g1 = random_gamma(rng)
            g2 = random_gamma(rng)
            assert p.act(g1).act(g2) == p.act(g1 * g2)
            q = PeriodPoly(k, random_symbol_poly(rng, k))
            assert q.act(g1).act(g2) == q.act(g1 * g2)

    def test_shift_is_t_action(self):
        rng = random.Random(23)
        p = PeriodPoly(6, [ExtScalar(QQ(rng.randrange(-5, 6))) for _ in range(5)])
        for n in (-3, -1, 1, 2, 7):
            assert shift(p, n) == p.act(t_power(n))

    def test_minus_identity(self):
        p = rational_poly(5, ["1/2", "-2/3", "1/1", "5/7"])
        assert p.act(Mat2(-1, 0, 0, -1)) == -p
        q = rational_poly(4, ["1/2", "-2/3", "1/1"])
        assert q.act(Mat2(-1, 0, 0, -1)) == q

    def test_degree_bound_preserved(self):
        p = rational_poly(4, ["1/3", "0/1", "0/1"])
        out = p.act(Mat2(2, 1, 1, 1))
        assert len(out.coeffs) == 3

    def test_action_matrix_against_evaluation(self):
        """P|g from the cached matrix is (cX+d)^{k-2} P((aX+b)/(cX+d)) at
        rational points."""
        from eisperiods.cocycle import _action_matrix

        rng = random.Random(29)
        for _ in range(30):
            k = rng.choice([2, 3, 5, 8])
            coeffs = [QQ(rng.randrange(-9, 10), rng.randrange(1, 6)) for _ in range(k - 1)]
            g = random_gamma(rng)
            out = PeriodPoly(k, [ExtScalar(c) for c in coeffs]).act(g)
            assert _action_matrix(k, g) is _action_matrix(k, g)
            for x in (QQ(1, 3), QQ(-2), QQ(5, 7)):
                den = g.c * x + g.d
                if den == 0:
                    continue
                y = (g.a * x + g.b) / den
                want = den ** (k - 2) * sum(c * y ** i for i, c in enumerate(coeffs))
                assert sum(c.rational * x ** i for i, c in enumerate(out.coeffs)) == want

    def test_t_run_matrix_is_a_sum_of_shifts(self):
        from eisperiods.cocycle import _apply, _t_run_matrix

        rng = random.Random(61)
        polys = [rational_poly(6, ["1/2", "-2/3", "0/1", "5/7", "3/1"])]
        polys += [PeriodPoly(k, random_symbol_poly(rng, k)) for k in (2, 6, 8)]
        for p in polys:
            for r, step, terms in ((0, 1, 1), (2, 3, 4), (1, 4, 7), (3, 5, 0)):
                want = PeriodPoly.zero(p.k)
                for i in range(terms):
                    want = want + shift(p, r + i * step)
                assert _apply(_t_run_matrix(p.k, r, step, terms), p) == want


def bernoulli_power_sum(r, step, terms, p):
    """sum_{i<terms} (r + i step)^p through Bernoulli polynomials over QQ,
    (B_{p+1}(x + terms) - B_{p+1}(x)) step^p / (p + 1) with x = r / step:
    the reference for the integer power sums."""
    if terms <= 0:
        return 0
    x = QQ(r, step)
    val = (bernoulli_value(p + 1, x + terms) - bernoulli_value(p + 1, x)) / (p + 1) * step ** p
    assert val.denominator == 1
    return int(val)


class TestIntegerPowerSums:
    """_t_run_matrix takes its power sums sum_i (r + i step)^p in integer
    arithmetic (Stirling numbers and binomials); they must equal the
    Bernoulli-polynomial formula."""

    def test_matches_the_bernoulli_formula(self):
        from eisperiods.cli import MAX_WEIGHT
        from eisperiods.cocycle import _ap_power_sums

        rng = random.Random(26)
        cases = [(k, r, step, terms) for k in (2, MAX_WEIGHT) for r, step in ((0, 1), (3, 7))
                 for terms in (0, 1, 2, 10 ** 4)]
        cases += [
            (rng.randint(2, MAX_WEIGHT), rng.randrange(0, 13), rng.randint(1, 12),
             rng.choice((0, 1, rng.randint(2, 50), rng.randint(51, 10 ** 4))))
            for _ in range(400)
        ]
        for k, r, step, terms in cases:
            got = _ap_power_sums(r, step, terms, k - 2)
            assert all(type(x) is int for x in got)
            assert got == [bernoulli_power_sum(r, step, terms, p) for p in range(k - 1)]

    def test_matches_direct_sums(self):
        from eisperiods.cocycle import _ap_power_sums

        for r, step in ((0, 1), (2, 3), (-4, 5), (1, 12)):
            for terms in range(0, 9):
                want = [sum((r + i * step) ** p for i in range(terms)) for p in range(15)]
                assert _ap_power_sums(r, step, terms, 14) == want


class TestSymbolChannels:
    """Polynomials that carry polylog symbols: the channel representation
    must agree with per-coefficient ExtScalar arithmetic."""

    def test_coefficients_round_trip(self):
        rng = random.Random(41)
        for _ in range(60):
            k = rng.choice([2, 3, 4, 6, 8])
            coeffs = random_symbol_poly(rng, k)
            p = PeriodPoly(k, coeffs)
            assert list(map(parts, p.coeffs)) == list(map(parts, coeffs))
            assert not p.is_rational()
            assert PeriodPoly(k, p.coeffs) == p

    def test_canonical_form(self):
        rng = random.Random(43)
        for _ in range(60):
            k = rng.choice([3, 5, 8])
            p = PeriodPoly(k, random_symbol_poly(rng, k))
            q = PeriodPoly(k, random_symbol_poly(rng, k))
            for r in (p + q, p - q, -p, p.act(random_gamma(rng)), (p + q) - q):
                assert math.gcd(r.den, *r.rat, *(x for _, v in r.syms for x in v)) == 1
                assert all(any(v) for _, v in r.syms)
                assert [s.key() for s, _ in r.syms] == sorted(s.key() for s, _ in r.syms)
            assert (p + q) - q == p
            assert (p - p).is_zero() and (p - p) == PeriodPoly.zero(k)

    def test_sums_match_scalar_arithmetic(self):
        rng = random.Random(47)
        for _ in range(60):
            k = rng.choice([2, 4, 7])
            a, b = random_symbol_poly(rng, k), random_symbol_poly(rng, k)
            p, q = PeriodPoly(k, a), PeriodPoly(k, b)
            assert list(map(parts, (p + q).coeffs)) == [parts(x + y) for x, y in zip(a, b)]
            assert list(map(parts, (p - q).coeffs)) == [parts(x - y) for x, y in zip(a, b)]
            assert list(map(parts, (-p).coeffs)) == [parts(-x) for x in a]

    def test_action_matches_scalar_arithmetic(self):
        rng = random.Random(53)
        for _ in range(60):
            k = rng.choice([2, 3, 5, 8])
            coeffs = random_symbol_poly(rng, k)
            g = random_gamma(rng)
            got = PeriodPoly(k, coeffs).act(g).coeffs
            assert list(map(parts, got)) == list(map(parts, scalar_act(coeffs, g)))

    def test_reports_match_scalar_output(self):
        rng = random.Random(67)
        for _ in range(60):
            k = rng.choice([2, 3, 5, 8])
            coeffs = random_symbol_poly(rng, k)
            p = PeriodPoly(k, coeffs)
            want = [c.to_json() for c in coeffs]
            assert json.dumps(p.to_json()) == json.dumps(want)
            assert p.symbol_failures() == scalar_failures(coeffs)

    def test_period_values_match_scalar_output(self):
        for k, N in ((4, 1), (5, 3), (6, 4), (8, 4)):
            for lamv in index_set(N, k):
                for p in (period_T(k, lamv, N), period_S(k, lamv, N)):
                    assert p.to_json() == [c.to_json() for c in p.coeffs]
                    assert p.symbol_failures() == scalar_failures(p.coeffs)

    def test_immutable(self):
        p = period_S(4, lam(1, 0, 0), 1)
        for name in ("k", "den", "rat", "syms", "coeffs"):
            with pytest.raises(AttributeError):
                setattr(p, name, None)
            with pytest.raises(AttributeError):
                delattr(p, name)
        assert isinstance(p.coeffs, tuple)
        assert isinstance(p.rat, tuple) and all(isinstance(v, tuple) for _, v in p.syms)


class TestPeriodValues:
    def test_period_T_level_one(self):
        p = period_T(4, lam(1, 0, 0), 1)
        assert p == rational_poly(4, ["1/2160", "1/720", "1/720"])

    def test_period_T_weight_two(self):
        p = period_T(2, lam(2, 1, 0), 2)
        assert p == rational_poly(2, ["1/24"])

    def test_period_T_odd_weight_zero_column(self):
        p = period_T(5, lam(3, 0, 2), 3)
        assert p.is_zero()

    def test_period_S_level_one(self):
        p = period_S(4, lam(1, 0, 0), 1)
        pl30 = PolylogSymbol(3, 0, 1)
        assert parts(p.coeffs[1]) == (QQ(-1, 432), {})
        assert parts(p.coeffs[0]) == (0, {pl30: QQ(-1, 3)})
        assert parts(p.coeffs[2]) == (0, {pl30: QQ(1, 3)})

    def test_period_S_weight_two(self):
        p = period_S(2, lam(2, 0, 1), 2)
        assert parts(p.coeffs[0]) == (0, {PolylogSymbol(1, 1, 2): QQ(-1)})

    def test_index_violation(self):
        with pytest.raises(IndexSetError):
            period_T(3, lam(2, 1, 1), 2)
        with pytest.raises(IndexSetError):
            period_S(2, lam(3, 0, 0), 3)

    def test_period_S_matches_reference(self):
        # every admissible cell with N <= 6 and k <= 8, exactly
        cells = [(k, mu, N) for N in range(1, 7) for k in range(2, 9) for mu in index_set(N, k)]
        assert len(cells) == 616
        for k, mu, N in cells:
            got = period_S(k, mu, N).coeffs
            assert [parts(c) for c in got] == [parts(c) for c in reference_period_S(k, mu, N)]
            if k >= 3:
                # the coboundary constant is the X^0 coefficient
                assert coboundary_value(k, mu, N) == PeriodPoly(k, [got[0]] + [0] * (k - 2))

    def test_period_S_against_lvalue_oracle(self):
        # numeric check of the coefficient formula
        # sum_r i^{1-r} C(k-2, r) L*(f, r+1) X^{k-2-r}
        rng = random.Random(31)
        cases = []
        while len(cases) < 10:
            N = rng.randrange(1, 5)
            k = rng.randrange(2, 7)
            opts = index_set(N, k)
            if opts:
                cases.append((k, rng.choice(opts), N))
        for k, lamv, N in cases:
            p = period_S(k, lamv, N)
            spec = LFunctionSpec.for_e_series(k, lamv, N, 200)
            got = [ext_scalar_value(c, PREC) for c in p.coeffs]
            for r in range(k - 1):
                want = mpc(1j) ** (1 - r) * math.comb(k - 2, r) * lvalue_numeric(spec, r + 1, PREC)
                assert abs(got[k - 2 - r] - want) < mpf(10) ** -18


class TestInducedCochain:
    def test_level_one_single_coset(self):
        c = build_induced(4, lam(1, 0, 0), 1)
        assert len(c.table) == 1
        assert c.val_T[0] == period_T(4, lam(1, 0, 0), 1)
        assert c.val_S[0] == period_S(4, lam(1, 0, 0), 1)

    def test_coset_transport(self):
        c = build_induced(2, lam(2, 0, 1), 2)
        assert len(c.table) == 6
        val_T, val_S = c.quotient.expand(c.val_T), c.quotient.expand(c.val_S)
        for i in range(6):
            mu = transported(c.lam, c.table.elements[i])
            assert val_T[i] == period_T(2, mu, 2)
            assert val_S[i] == period_S(2, mu, 2)

    def test_copy_is_discrete_and_expanded(self):
        """copy() is the per-coset constructor: one class per coset, its
        right multiplication that of the table, the values expanded."""
        c = build_induced(6, lam(4, 2, 1), 4)
        d = c.copy()
        quot, table = d.quotient, d.table
        assert table is c.table and len(c.quotient) < len(quot) == len(table)
        assert quot.class_of == quot.representatives == tuple(range(len(table)))
        assert (quot.rmul_T_inv, quot.rmul_S_inv) == (table.rmul_T_inv, table.rmul_S_inv)
        assert d.val_T == c.quotient.expand(c.val_T) and d.val_S == c.quotient.expand(c.val_S)
        assert d.val_S is not c.val_S

    def test_values_must_match_the_quotient(self):
        """A per-coset list assigned to a cochain stored on its orbit is
        rejected, not silently truncated."""
        c = build_induced(4, lam(3, 1, 1), 3)
        per_coset = c.quotient.expand(c.val_S)
        assert len(per_coset) > len(c.quotient)
        c.val_S = per_coset
        with pytest.raises(ValueError, match="classes of its quotient"):
            evaluate_word(c, [("S", 1)])
        with pytest.raises(ValueError, match="classes of its quotient"):
            verify_relations(c)
        with pytest.raises(ValueError, match="classes of its quotient"):
            modify_and_certify(c)


class TestCoboundaryAndCertification:
    def test_level_one_weight_four_cancellation(self):
        cochain, modified = certify_parameter(4, lam(1, 0, 0), 1)
        assert rationality_record(cochain, modified)["rational"]
        assert modified.val_S[0] == rational_poly(4, ["0/1", "-1/432", "0/1"])
        assert modified.val_T[0] == cochain.val_T[0]

    def test_coboundary_carries_symbol_at_level_one(self):
        syms = coboundary_value(4, lam(1, 0, 0), 1).coeffs[0].symbols
        assert PolylogSymbol(3, 0, 1) in syms

    def test_weight_two_case_gating(self):
        N = 2
        table = build_induced(2, lam(N, 0, 1), N).table
        for sigma in table.elements:
            mu = transported(lam(N, 0, 1), sigma)
            if mu.l1 != 0:
                assert coboundary_value(2, mu, N).is_zero()

    def test_coboundary_is_read_at_each_coset(self):
        """The modified value at g in (T, S) on coset sigma is
        P(sigma) + F(sigma g^-1)|g - F(sigma), F(sigma) the coboundary
        constant of the transported parameter lambda sigma."""
        k, N, lamv = 5, 3, lam(3, 1, 0)
        cochain, modified = certify_parameter(k, lamv, N)
        table = cochain.table

        def F(i):
            return coboundary_value(k, transported(lamv, table.elements[i]), N)

        for g, old, new in ((T, cochain.val_T, modified.val_T), (S, cochain.val_S, modified.val_S)):
            old, new = cochain.quotient.expand(old), modified.quotient.expand(new)
            for i in range(len(table)):
                assert new[i] == old[i] + F(coset_times(table, i, g.inverse())).act(g) - F(i)

    def test_t_value_unchanged_at_level_one_even_weight(self):
        # at N = 1 the coboundary is constant across cosets and T acts
        # trivially on constants, so the T value is untouched
        cochain, modified = certify_parameter(6, lam(1, 0, 0), 1)
        assert modified.val_T[0] == cochain.val_T[0]

    def test_sweep_certifies(self):
        for N in range(1, 4):
            for k in range(2, 6):
                for lamv in index_set(N, k):
                    assert rationality_record(*certify_parameter(k, lamv, N))["rational"], (k, N, lamv)

    def test_modification_keeps_a_cocycle(self):
        """Adding the coboundary F|g - F to a cocycle gives a cocycle: the
        modified cochain of every admissible cell with N <= 5, k <= 8 (365
        cells) satisfies the S^4 and (ST)^3 relations, evaluated on the
        quotient of the cochain it came from."""
        cells = 0
        for N in range(1, 6):
            for k in range(2, 9):
                for lamv in index_set(N, k):
                    cochain, modified = certify_parameter(k, lamv, N)
                    assert modified.quotient is cochain.quotient, (k, N, lamv)
                    assert verify_relations(modified), (k, N, lamv)
                    cells += 1
        assert cells == 365

    def test_report_json(self):
        cochain, modified = certify_parameter(4, lam(2, 0, 1), 2)
        doc = rationality_record(cochain, modified, include_values=True)
        assert doc["rational"] is True
        assert doc["failures"] == []
        assert doc["cosets"] == 6
        assert len(doc["values_T"]) == len(doc["values_S"]) == 6
        assert len(doc["modified"]["T"]) == len(doc["modified"]["S"]) == 6
        assert "values_T" not in rationality_record(cochain, modified)

    def test_copy_certifies_as_the_orbit(self):
        """modify_and_certify on the discrete copy reads F at every coset and
        gives the orbit's values and record, coset by coset."""
        for k, N, lamv in [(2, 4, lam(4, 0, 3)), (5, 3, lam(3, 1, 0)), (6, 4, lam(4, 2, 1))]:
            cochain, modified = certify_parameter(k, lamv, N)
            copy = cochain.copy()
            per_coset = modify_and_certify(copy)
            assert per_coset.quotient is not cochain.quotient
            assert per_coset.val_T == modified.quotient.expand(modified.val_T)
            assert per_coset.val_S == modified.quotient.expand(modified.val_S)
            assert rationality_record(copy, per_coset, include_values=True) == rationality_record(
                cochain, modified, include_values=True
            )


class TestOrbitCaches:
    """A sweep reads each modified value per (k, mu, N) and each relations
    verdict per (k, N, orbit).  Both must equal a direct evaluation of the
    cell, and an edited cochain handed to modify_and_certify is modified as
    it stands: the modification cache is keyed by the values themselves."""

    def test_cached_results_equal_a_direct_evaluation(self):
        """Every admissible cell with N <= 6, k <= 8 (616 cells): the cached
        verdict is verify_relations of the built cochain, and the modified
        values on the orbit are modify_and_certify of its discrete copy,
        coset by coset."""
        cells = 0
        for N in range(1, 7):
            for k in range(2, 9):
                for lamv in index_set(N, k):
                    direct = build_induced(k, lamv, N)
                    assert relations_hold(k, lamv, N) == verify_relations(direct), (k, N, lamv)
                    _, modified = certify_parameter(k, lamv, N)
                    per_coset = modify_and_certify(direct.copy())
                    assert modified.quotient.expand(modified.val_T) == per_coset.val_T, (k, N, lamv)
                    assert modified.quotient.expand(modified.val_S) == per_coset.val_S, (k, N, lamv)
                    cells += 1
        assert cells == 616

    def test_each_closed_lvalue_once_per_parameter(self, monkeypatch):
        """certify_parameter over the 616 cells with N <= 6, k <= 8, from
        cleared caches, evaluates each closed L-value L*(mu, r), r = 1..k-1,
        once per distinct (k, mu, N): period_S evaluates them, and the
        coboundary constant is read from period_S."""
        for fn in vars(cocycle).values():
            if hasattr(fn, "cache_clear"):
                fn.cache_clear()
        calls = []
        closed = cocycle.lvalue_closed
        monkeypatch.setattr(cocycle, "lvalue_closed", lambda *args: calls.append(args) or closed(*args))
        keys = set()
        for N in range(1, 7):
            for k in range(2, 9):
                for lamv in index_set(N, k):
                    certify_parameter(k, lamv, N)
                    keys.update((k, mu, N) for mu in parameter_orbit(lamv)[1])
        assert len(keys) == 616
        assert len(set(calls)) == len(calls) == sum(k - 1 for k, _, _ in keys)

    @pytest.mark.parametrize("gen", ["T", "S"])
    def test_edited_copy_is_modified_directly(self, gen):
        """An edit to one coset of a copy comes back as the edit plus the
        coboundary change there, while a rebuilt cell still reads the
        unedited values."""
        k, N, lamv, coset = 6, 4, lam(4, 2, 1), 5
        cochain, modified = certify_parameter(k, lamv, N)
        want = {
            "T": modified.quotient.expand(modified.val_T),
            "S": modified.quotient.expand(modified.val_S),
        }
        extra = rational_poly(k, ["0/1", "1/5", "0/1", "0/1", "0/1"])
        bad = cochain.copy()
        values = bad.val_T if gen == "T" else bad.val_S
        values[coset] = values[coset] + extra
        want[gen][coset] = want[gen][coset] + extra
        got = modify_and_certify(bad)
        assert got.val_T == want["T"] and got.val_S == want["S"]
        _, again = certify_parameter(k, lamv, N)
        assert again.val_T == modified.val_T and again.val_S == modified.val_S


class TestFailureReport:
    """A cochain whose symbols do not cancel: the record says so, coset by
    coset, in table order."""

    SYMBOL = PolylogSymbol(3, 1, 5)
    INDEX, COEFF = 1, QQ(2, 7)

    def with_symbol(self, poly):
        extra = [ExtScalar.zero()] * (poly.k - 1)
        extra[self.INDEX] = ExtScalar.from_symbol(self.SYMBOL, self.COEFF)
        return poly + PeriodPoly(poly.k, extra)

    def failure(self, coset):
        return {
            "coset": coset,
            "generator": "S",
            "coeff_index": self.INDEX,
            "symbol": "PL(3; 1/5)",
            "coeff": "2/7",
        }

    def record(self, cochain):
        return rationality_record(cochain, modify_and_certify(cochain))

    def test_one_coset(self):
        k, N, lamv = 4, 3, lam(3, 1, 1)
        bad = build_induced(k, lamv, N).copy()
        coset = 5
        bad.val_S[coset] = self.with_symbol(bad.val_S[coset])
        doc = self.record(bad)
        assert doc["rational"] is False
        assert doc["failures"] == [self.failure(coset)]
        assert doc["cosets"] == len(bad.table) == 24

    def test_one_class_lists_its_cosets(self):
        k, N, lamv = 5, 4, lam(4, 0, 1)
        bad = build_induced(k, lamv, N)
        cls = 2
        bad.val_S[cls] = self.with_symbol(bad.val_S[cls])
        cosets = [i for i, c in enumerate(bad.quotient.class_of) if c == cls]
        assert 1 < len(cosets) < len(bad.table)
        doc = self.record(bad)
        assert doc["rational"] is False
        assert doc["failures"] == [self.failure(i) for i in cosets]


class TestEvaluation:
    def test_identity_is_zero(self):
        c = build_induced(4, lam(2, 1, 1), 2)
        vals = evaluate_cocycle(c, IDENTITY)
        assert all(p.is_zero() for p in vals)

    def test_t_squared(self):
        c = build_induced(4, lam(2, 0, 1), 2)
        got = evaluate_word(c, [("T", 2)])
        # c(T^2) = c(T)|_T + c(T)
        d = c.copy()
        want = [
            shift(d.val_T[d.table.rmul_T_inv[i]], 1) + d.val_T[i]
            for i in range(len(d.table))
        ]
        assert all(a == b for a, b in zip(got, want))

    def test_t_run_of_one_is_the_stored_value(self):
        c = build_induced(5, lam(3, 1, 2), 3)
        got = evaluate_word(c, [("T", 1)])
        assert len(got) == len(c.table)
        assert all(a is b for a, b in zip(got, c.quotient.expand(c.val_T)))

    def test_t_run_closed_form_matches_letters(self):
        c = build_induced(3, lam(3, 1, 2), 3)
        for n in (1, 2, 5, 11):
            fast = evaluate_word(c, [("T", n)])
            slow = evaluate_word(c, [("T", 1)] * n)
            assert all(a == b for a, b in zip(fast, slow))
        fast = evaluate_word(c, [("T", -7)])
        slow = evaluate_word(c, [("T", -1)] * 7)
        assert all(a == b for a, b in zip(fast, slow))

    def test_s_inverse(self):
        c = build_induced(4, lam(2, 1, 0), 2)
        got = evaluate_cocycle(c, S.inverse())
        val_S = c.quotient.expand(c.val_S)
        want = [
            -(val_S[coset_times(c.table, i, S)].act(S.inverse()))
            for i in range(len(c.table))
        ]
        assert all(a == b for a, b in zip(got, want))

    def test_matches_arbitrary_word_route(self):
        c = build_induced(4, lam(2, 0, 1), 2)
        g = Mat2(7, 3, 2, 1) * Mat2(1, 0, 4, 1)
        vals = evaluate_cocycle(c, g)
        # cocycle rule against a different decomposition of the same matrix
        w = decompose_ST(g)
        assert word_matrix(w) == g
        again = evaluate_word(c, [("S", 1), ("S", 1), ("S", 1), ("S", 1)] + w)
        assert all(a == b for a, b in zip(vals, again))


def perturbed(c, gen, i):
    """Copy of c with 1/7 added to the constant coefficient of its value at
    gen on coset i only."""
    bad = c.copy()
    polys = list(bad.val_T if gen == "T" else bad.val_S)
    coeffs = list(polys[i].coeffs)
    coeffs[0] = coeffs[0] + ExtScalar(QQ(1, 7))
    polys[i] = PeriodPoly(c.k, coeffs)
    if gen == "T":
        bad.val_T = polys
    else:
        bad.val_S = polys
    return bad


LETTERS = {"S": S, "T": T, "T^-1": t_power(-1)}


def letters(tokens):
    """The single letters S, T, T^-1 of a run-compressed token word (S^-1
    is spelled S^3)."""
    out = []
    for kind, n in tokens:
        out += ["S"] * n if kind == "S" else ["T" if n > 0 else "T^-1"] * abs(n)
    return out


def word_matrix(tokens):
    """The product of a token word, one letter at a time."""
    acc = IDENTITY
    for letter in letters(tokens):
        acc = acc * LETTERS[letter]
    return acc


def naive_evaluate(c, tokens):
    """c(uv)(sigma) = c(u)(sigma v^-1)|v + c(v)(sigma), one letter v at a time
    on every coset, with the cosets looked up from residue products."""
    table = c.table
    cosets = range(len(table))
    val_T, val_S = c.quotient.expand(c.val_T), c.quotient.expand(c.val_S)

    def letter_value(letter, i):
        if letter == "S":
            return val_S[i]
        if letter == "T":
            return val_T[i]
        # c(T^-1)(sigma) = -c(T)(sigma T)|T^-1, from c(T T^-1) = 0
        return -val_T[coset_times(table, i, T)].act(t_power(-1))

    acc = [PeriodPoly.zero(c.k) for _ in cosets]
    for letter in letters(tokens):
        v = LETTERS[letter]
        acc = [
            acc[coset_times(table, i, v.inverse())].act(v) + letter_value(letter, i)
            for i in cosets
        ]
    return acc


SMALL_CELLS = [(k, N, lamv) for N in (1, 2, 3, 4) for k in (2, 3, 4, 6) for lamv in index_set(N, k)]

WORDS = st.lists(
    st.one_of(
        st.tuples(st.just("S"), st.integers(min_value=1, max_value=3)),
        st.tuples(st.just("T"), st.integers(min_value=-6, max_value=6).filter(bool)),
    ),
    max_size=5,
)


class TestOrbitQuotient:
    """Evaluation runs once per class of the cochain's quotient; the results
    must be those of a per-coset evaluation."""

    @given(
        cell=st.sampled_from(SMALL_CELLS),
        tokens=WORDS,
        perturb=st.one_of(
            st.none(), st.tuples(st.sampled_from(["T", "S"]), st.integers(min_value=0, max_value=47))
        ),
    )
    @settings(max_examples=60, deadline=None)
    def test_matches_naive_per_coset(self, cell, tokens, perturb):
        k, N, lamv = cell
        c = build_induced(k, lamv, N)
        if perturb is not None:
            c = perturbed(c, perturb[0], perturb[1] % len(c.table))
        got = evaluate_word(c, tokens)
        assert len(got) == len(c.table)
        assert got == naive_evaluate(c, tokens)

    def test_orbit_class_counts(self):
        for N, cosets, classes in ((4, 48, 12), (5, 120, 24), (6, 144, 24)):
            for k in (2, 3, 4):
                c = build_induced(k, lam(N, 0, 1), N)
                assert (len(c.table), len(c.quotient), len(c.val_T), len(c.val_S)) == (
                    cosets, classes, classes, classes
                )

    def test_build_stores_its_orbit(self):
        """build_induced's cochain is stored on its cached lambda-orbit, one
        value per parameter; an edit to one coset of its copy is caught."""
        cell = (6, lam(4, 2, 1), 4)
        c = build_induced(*cell)
        orbit, params = parameter_orbit(cell[1])
        assert c.quotient is orbit
        assert c.val_T == [period_T(6, mu, 4) for mu in params]
        assert c.val_S == [period_S(6, mu, 4) for mu in params]
        bad = c.copy()
        coeffs = list(bad.val_S[0].coeffs)
        coeffs[1] = coeffs[1] + ExtScalar(QQ(1, 5))
        bad.val_S[0] = PeriodPoly(6, coeffs)
        assert not verify_relations(bad)
        assert verify_relations(c)

    def test_sweep_runs_no_refinement(self, monkeypatch):
        """Building, certifying, checking and descending a cell, and checking
        its modified cochain, runs on the lambda-orbit alone: no discrete
        quotient (copy()) is ever built."""

        class Refuse:
            @staticmethod
            def closed(*args):
                raise AssertionError("a discrete quotient was built")

        monkeypatch.setattr(cocycle, "CosetQuotient", Refuse)
        for k, N, lamv in [(2, 4, lam(4, 0, 3)), (3, 5, lam(5, 1, 2)), (6, 6, lam(6, 2, 3))]:
            cochain, modified = certify_parameter(k, lamv, N)
            assert rationality_record(cochain, modified)["rational"]
            assert verify_relations(cochain) and verify_relations(modified)
            at_identity = evaluate_cocycle(cochain, t_power(N))[cochain.table.identity_index()]
            assert shapiro_descend(cochain, t_power(N)) == at_identity

    def test_modified_cochain_keeps_the_orbit(self):
        cochain, modified = certify_parameter(4, lam(5, 0, 1), 5)
        assert rationality_record(cochain, modified)["rational"]
        orbit, _ = parameter_orbit(lam(5, 0, 1))
        assert modified.quotient is cochain.quotient is orbit
        assert len(orbit) == len(modified.val_T) == len(modified.val_S) == 24


class TestRelations:
    def test_relations_hold(self):
        assert verify_relations(build_induced(4, lam(1, 0, 0), 1))
        assert verify_relations(build_induced(3, lam(3, 1, 1), 3))
        assert verify_relations(build_induced(2, lam(4, 0, 3), 4))

    def test_perturbed_control_leaves_shared_values_intact(self):
        """Period values are cached and shared between cochains: perturbing a
        copy must not reach a later build of the same cell."""
        cell = (6, lam(4, 2, 1), 4)
        before = build_induced(*cell)
        bad = build_induced(*cell).copy()
        coeffs = list(bad.val_S[0].coeffs)
        coeffs[1] = coeffs[1] + ExtScalar(QQ(1, 5))
        bad.val_S[0] = PeriodPoly(6, coeffs)
        assert not verify_relations(bad)
        after = build_induced(*cell)
        assert verify_relations(after)
        assert after.val_T == before.val_T and after.val_S == before.val_S
        assert after.val_S[0] is before.val_S[0]

    def test_corrupted_cochain_fails(self):
        c = build_induced(3, lam(3, 1, 1), 3)
        bad = c.copy()
        polys = list(bad.val_S)
        coeffs = list(polys[0].coeffs)
        coeffs[0] = coeffs[0] + ExtScalar(QQ(1, 9))
        polys[0] = PeriodPoly(3, coeffs)
        bad.val_S = polys
        assert not verify_relations(bad)

    def test_matches_the_words_it_checks(self):
        """verify_relations derives c(S^4) from c(S^2).  A valid cochain plus
        a seeded coboundary F|g - F still verifies; plus a constant e at S
        and -e/3 at T (weight 2, trivial action) only S^4 fails, 4e on every
        coset; seeded perturbations get the verdict of the words S^4, (ST)^3
        and S^2 evaluated letter by letter."""
        rng = random.Random(17)
        for k, N, l1, l2 in [(6, 4, 2, 1), (3, 3, 1, 1), (5, 3, 1, 0), (4, 2, 0, 1), (2, 3, 1, 2)]:
            cochain = build_induced(k, lam(N, l1, l2), N).copy()
            table = cochain.table
            F = [rational_poly(k, [QQ(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(k - 1)])
                 for _ in range(len(table))]
            cob = cochain.copy()
            cob.val_T = [v + F[j].act(T) - f for v, j, f in zip(cochain.val_T, table.rmul_T_inv, F)]
            cob.val_S = [v + F[j].act(S) - f for v, j, f in zip(cochain.val_S, table.rmul_S_inv, F)]
            assert verify_relations(cob)
            for field in ("val_S", "val_T", "val_S", "val_T"):
                bad = cochain.copy()
                polys = list(getattr(bad, field))
                i = rng.randrange(len(polys))
                coeffs = list(polys[i].coeffs)
                coeffs[rng.randrange(k - 1)] += ExtScalar(QQ(rng.randint(1, 9), rng.randint(1, 9)))
                polys[i] = PeriodPoly(k, coeffs)
                setattr(bad, field, polys)
                s4_zero = all(p.is_zero() for p in evaluate_word(bad, [("S", 4)]))
                st3 = evaluate_word(bad, [("S", 1), ("T", 1)] * 3)
                holds = s4_zero and st3 == evaluate_word(bad, [("S", 2)])
                assert verify_relations(bad) == holds
        e = QQ(3, 7)
        bad = cochain.copy()  # weight 2: the last cell
        bad.val_S = [v + rational_poly(2, [e]) for v in cochain.val_S]
        bad.val_T = [v + rational_poly(2, [-e / 3]) for v in cochain.val_T]
        assert evaluate_word(bad, [("S", 4)]) == [rational_poly(2, [4 * e])] * len(table)
        assert evaluate_word(bad, [("S", 1), ("T", 1)] * 3) == evaluate_word(bad, [("S", 2)])
        assert not verify_relations(bad)


class TestShapiro:
    def test_descend_weight_four_level_two(self):
        c = build_induced(4, lam(2, 0, 1), 2)
        got = shapiro_descend(c, t_power(2))
        # f_inf/(k-1) ((X+2)^3 - X^3) with f_inf = 1/720
        assert got == rational_poly(4, ["1/270", "1/180", "1/360"])

    def test_descend_identity(self):
        c = build_induced(4, lam(2, 0, 1), 2)
        assert shapiro_descend(c, IDENTITY).is_zero()

    def test_descend_double_width(self):
        c = build_induced(4, lam(2, 0, 1), 2)
        got = shapiro_descend(c, t_power(4))
        want = PeriodPoly(
            4,
            [
                ExtScalar(QQ(1, 720) * QQ(1, 3) * v)
                for v in (_pow_diff_coeff(4, j) for j in range(3))
            ],
        )
        assert got == want

    def test_requires_principal_congruence(self):
        c = build_induced(4, lam(2, 0, 1), 2)
        with pytest.raises(ValueError):
            shapiro_descend(c, T)

    def test_closed_form_across_levels(self):
        for N in (1, 2, 3):
            for k in (2, 4, 5):
                for lamv in index_set(N, k)[:3]:
                    c = build_induced(k, lamv, N)
                    got = shapiro_descend(c, t_power(N))
                    from eisperiods.exact import bernoulli_value

                    f_inf = -bernoulli_value(k, QQ(lamv.l1, N)) / _fact(k)
                    coeffs = []
                    for j in range(k - 1):
                        coeffs.append(ExtScalar(f_inf / (k - 1) * _binom(k - 1, j) * N ** (k - 1 - j)))
                    assert got == PeriodPoly(k, coeffs)


class TestPathEvaluation:
    """shapiro_descend evaluates the word at the classes its suffixes reach
    from the identity class only; every value must be the one the
    all-class evaluation reads at that class."""

    CELLS = [(k, N, lamv) for N in range(1, 7) for k in range(2, 9) for lamv in index_set(N, k)]

    def test_descent_at_t_power_n_on_every_cell(self):
        assert len(self.CELLS) == 616
        for k, N, lamv in self.CELLS:
            c = build_induced(k, lamv, N)
            want = evaluate_cocycle(c, t_power(N))[c.table.identity_index()]
            assert shapiro_descend(c, t_power(N)) == want

    @staticmethod
    def scrambled(c, rng):
        """A copy of c with a seeded rational polynomial added to its value
        at T and at S on every coset: the built values are constant along
        T-orbits (period_T reads l1 alone), and these are not."""
        bad = c.copy()

        def noise():
            return rational_poly(c.k, [QQ(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(c.k - 1)])

        bad.val_T = [v + noise() for v in bad.val_T]
        bad.val_S = [v + noise() for v in bad.val_S]
        return bad

    @staticmethod
    def gamma_n_word(rng, N):
        """A product of three conjugates sigma T^{aN} sigma^-1, which lie in
        Gamma(N), with |a| up to 40; times -Id where that is in Gamma(N)."""
        g = IDENTITY
        for _ in range(3):
            sigma = random_gamma(rng, 12)
            g = g * sigma * t_power(N * rng.choice((-1, 1)) * rng.randint(1, 40)) * sigma.inverse()
        return Mat2(-g.a, -g.b, -g.c, -g.d) if N <= 2 and rng.random() < 0.5 else g

    def test_descent_along_long_gamma_n_words(self):
        rng = random.Random(2601)
        seen = set()
        for _ in range(40):
            k, N, lamv = rng.choice(self.CELLS)
            c = build_induced(k, lamv, N)
            if rng.random() < 0.5:
                c = self.scrambled(c, rng)
            gamma = self.gamma_n_word(rng, N)
            assert gamma.is_congruent_to_identity(N)
            tokens = decompose_ST(gamma)
            seen.update(
                "-Id" if t == ("S", 2) else "negative run" if t[1] < 0 else "long run"
                for t in tokens if t == ("S", 2) or (t[0] == "T" and (t[1] < 0 or t[1] > N))
            )
            want = evaluate_cocycle(c, gamma)[c.table.identity_index()]
            assert shapiro_descend(c, gamma) == want
        assert seen == {"-Id", "negative run", "long run"}

    def test_descent_against_naive_at_levels_five_and_six(self):
        """shapiro_descend at the identity coset against naive_evaluate, which
        shares no code with the path evaluator: T^N on a seeded sample of
        cells with N = 5, 6, and short Gamma(N) conjugates sigma T^{+-N}
        sigma^-1 on scrambled copies, three words at each level."""
        rng = random.Random(2801)
        cells = [cell for cell in self.CELLS if cell[1] in (5, 6)]
        sample = rng.sample(cells, 12)
        assert {N for _, N, _ in sample} == {5, 6}
        for k, N, lamv in sample:
            c = build_induced(k, lamv, N)
            want = naive_evaluate(c, [("T", N)])[c.table.identity_index()]
            assert shapiro_descend(c, t_power(N)) == want
        for level in (5, 6) * 3:
            k, N, lamv = rng.choice([cell for cell in cells if cell[1] == level])
            c = self.scrambled(build_induced(k, lamv, N), rng)
            sigma = random_gamma(rng, 4)
            gamma = sigma * t_power(rng.choice((-1, 1)) * N) * sigma.inverse()
            tokens = decompose_ST(gamma)
            assert gamma.is_congruent_to_identity(N) and word_matrix(tokens) == gamma
            want = naive_evaluate(c, tokens)[c.table.identity_index()]
            assert shapiro_descend(c, gamma) == want

    def test_one_class_values_match_every_class(self):
        """_t_run_at and _evaluate_at at every class, expanded to cosets,
        against naive_evaluate, which goes one letter at a time on every
        coset: seeded words with long and negative T-runs and S^2 = -Id, on
        the orbit quotient and on scrambled copies.  The empty word is zero
        at every class, and a partial class list out of order gets the
        values of its classes, in its order."""
        from eisperiods.cocycle import _evaluate_at, _t_run_at

        rng = random.Random(2602)
        cells = [cell for cell in self.CELLS if cell[1] <= 4]  # keeps naive_evaluate cheap
        for _ in range(30):
            k, N, lamv = rng.choice(cells)
            c = build_induced(k, lamv, N)
            if rng.random() < 0.5:
                c = self.scrambled(c, rng)
            quot, every = c.quotient, range(len(c.quotient))
            n = rng.choice((-1, 1)) * rng.randint(0, 5 * N + 3)
            assert quot.expand([_t_run_at(c, i, n) for i in every]) == naive_evaluate(c, [("T", n)])
            tokens = []
            for _ in range(rng.randint(1, 5)):
                tokens += [("T", rng.choice((-1, 1)) * rng.randint(1, 5 * N + 3)), ("S", rng.randint(1, 3))]
            values = _evaluate_at(c, tokens, every)
            assert quot.expand(values) == naive_evaluate(c, tokens)
            part = rng.sample(every, rng.randint(1, len(quot)))
            assert _evaluate_at(c, tokens, part) == [values[i] for i in part]
            assert _evaluate_at(c, [], every) == [PeriodPoly.zero(k)] * len(quot)


def _fact(n):
    out = 1
    for i in range(2, n + 1):
        out *= i
    return out


def _binom(n, k):
    from math import comb

    return comb(n, k)


def _pow_diff_coeff(n, j):
    # coefficient of X^j in (X+n)^{k-1} - X^{k-1} for k = 4
    from math import comb

    return comb(3, j) * n ** (3 - j)
