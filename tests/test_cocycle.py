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
    CoboundaryData,
    IndexSetError,
    PeriodPoly,
    build_induced,
    certify_parameter,
    coboundary,
    coboundary_value,
    evaluate_cocycle,
    evaluate_word,
    modify_and_certify,
    period_S,
    period_T,
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
    STWord,
    admissible,
    decompose_ST,
    index_set,
    parameter_orbit,
    sl2_order,
    t_power,
)

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
            assert p.shift(n) == p.act(t_power(n))

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
                    want = want + p.shift(r + i * step)
                assert _apply(_t_run_matrix(p.k, r, step, terms), p) == want


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
                assert coboundary_value(k, mu, N) == PeriodPoly.constant(k, got[0])

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
            got = p.numeric_coeffs(PREC)
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
        for i in range(6):
            mu = transported(c.lam, c.table.elements[i])
            assert c.val_T[i] == period_T(2, mu, 2)
            assert c.val_S[i] == period_S(2, mu, 2)


class TestCoboundaryAndCertification:
    def test_level_one_weight_four_cancellation(self):
        cochain, modified, report = certify_parameter(4, lam(1, 0, 0), 1)
        assert report.certified
        assert modified.val_S[0] == rational_poly(4, ["0/1", "-1/432", "0/1"])
        assert modified.val_T[0] == cochain.val_T[0]

    def test_coboundary_carries_symbol_at_level_one(self):
        cob = coboundary(4, lam(1, 0, 0), 1)
        syms = cob.values[0].coeffs[0].symbols
        assert PolylogSymbol(3, 0, 1) in syms

    def test_weight_two_case_gating(self):
        N = 2
        cob = coboundary(2, lam(N, 0, 1), N)
        table = build_induced(2, lam(N, 0, 1), N).table
        for i in range(len(table)):
            mu = transported(lam(N, 0, 1), table.elements[i])
            if mu.l1 != 0:
                assert cob.values[i].is_zero()

    def test_t_value_unchanged_at_level_one_even_weight(self):
        # at N = 1 the coboundary is constant across cosets and T acts
        # trivially on constants, so the T value is untouched
        cochain, modified, _ = certify_parameter(6, lam(1, 0, 0), 1)
        assert modified.val_T[0] == cochain.val_T[0]

    def test_sweep_certifies(self):
        for N in range(1, 4):
            for k in range(2, 6):
                for lamv in index_set(N, k):
                    _, _, rep = certify_parameter(k, lamv, N)
                    assert rep.certified, (k, N, lamv)

    def test_modification_keeps_a_cocycle(self):
        """Adding the coboundary F|g - F to a cocycle gives a cocycle: the
        modified cochain of every admissible cell with N <= 5, k <= 8 (365
        cells) satisfies the S^4 and (ST)^3 relations, evaluated on the
        orbit it was handed."""
        cells = 0
        for N in range(1, 6):
            for k in range(2, 9):
                for lamv in index_set(N, k):
                    cochain, modified, _ = certify_parameter(k, lamv, N)
                    assert modified.quotient() is cochain.orbit, (k, N, lamv)
                    assert verify_relations(modified), (k, N, lamv)
                    cells += 1
        assert cells == 365

    def test_report_json(self):
        _, modified, report = certify_parameter(4, lam(2, 0, 1), 2)
        doc = report.to_json(include_values=True, modified=modified)
        assert doc["rational"] is True
        assert doc["failures"] == []
        assert doc["cosets"] == 6
        assert len(doc["modified"]["S"]) == 6


class TestEvaluation:
    def test_identity_is_zero(self):
        c = build_induced(4, lam(2, 1, 1), 2)
        vals = evaluate_cocycle(c, IDENTITY)
        assert all(p.is_zero() for p in vals)

    def test_t_squared(self):
        c = build_induced(4, lam(2, 0, 1), 2)
        got = evaluate_word(c, [("T", 2)])
        # c(T^2) = c(T)|_T + c(T)
        want = [
            c.val_T[c.table.rmul_T_inv[i]].shift(1) + c.val_T[i]
            for i in range(len(c.table))
        ]
        assert all(a == b for a, b in zip(got, want))

    def test_t_run_of_one_is_the_stored_value(self):
        c = build_induced(5, lam(3, 1, 2), 3)
        assert all(a is b for a, b in zip(evaluate_word(c, [("T", 1)]), c.val_T))

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
        want = [
            -(c.val_S[coset_times(c.table, i, S)].act(S.inverse()))
            for i in range(len(c.table))
        ]
        assert all(a == b for a, b in zip(got, want))

    def test_matches_arbitrary_word_route(self):
        c = build_induced(4, lam(2, 0, 1), 2)
        g = Mat2(7, 3, 2, 1) * Mat2(1, 0, 4, 1)
        vals = evaluate_cocycle(c, g)
        # cocycle rule against a different decomposition of the same matrix
        w = decompose_ST(g)
        assert w.to_matrix() == g
        again = evaluate_word(c, [("S", 1), ("S", 1), ("S", 1), ("S", 1)] + w.tokens)
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


def naive_evaluate(c, tokens):
    """c(uv)(sigma) = c(u)(sigma v^-1)|v + c(v)(sigma), one letter v at a time
    on every coset, with the cosets looked up from residue products."""
    table = c.table
    cosets = range(len(table))

    def letter_value(letter, i):
        if letter == "S":
            return c.val_S[i]
        if letter == "T":
            return c.val_T[i]
        # c(T^-1)(sigma) = -c(T)(sigma T)|T^-1, from c(T T^-1) = 0
        return -c.val_T[coset_times(table, i, T)].act(t_power(-1))

    acc = [PeriodPoly.zero(c.k) for _ in cosets]
    for letter in STWord(tokens).letters():
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
    """Evaluation runs once per class of the coset quotient; the results must
    be those of a per-coset evaluation."""

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
        for N, classes in ((4, 12), (5, 24), (6, 24)):
            for k in (2, 3, 4):
                c = build_induced(k, lam(N, 0, 1), N)
                assert (len(c.table), len(c.quotient())) == (sl2_order(N), classes)

    def test_perturbed_quotient_is_finer_and_closed(self):
        c = build_induced(6, lam(4, 2, 1), 4)
        bad = perturbed(c, "S", 0)
        quot = bad.quotient()
        assert len(c.quotient()) < len(quot) <= len(c.table)
        table = bad.table
        for i, cls in enumerate(quot.class_of):
            rep = quot.representatives[cls]
            assert bad.val_T[i] is bad.val_T[rep] and bad.val_S[i] is bad.val_S[rep]
            assert quot.rmul_T[cls] == quot.class_of[table.rmul_T[i]]
            assert quot.rmul_T_inv[cls] == quot.class_of[table.rmul_T_inv[i]]
            assert quot.rmul_S_inv[cls] == quot.class_of[table.rmul_S_inv[i]]

    def test_build_hands_over_its_orbit(self):
        """build_induced's cochain carries its cached lambda-orbit and is
        evaluated on it; an in-place edit that splits a class falls back to
        the discrete quotient and is caught."""
        cell = (6, lam(4, 2, 1), 4)
        c = build_induced(*cell)
        orbit, _ = parameter_orbit(cell[1])
        assert c.orbit is orbit and c.quotient() is orbit
        assert c.copy().orbit is None
        coeffs = list(c.val_S[0].coeffs)
        coeffs[1] = coeffs[1] + ExtScalar(QQ(1, 5))
        c.val_S[0] = PeriodPoly(6, coeffs)
        assert len(c.quotient()) == len(c.table) > len(orbit)
        assert not verify_relations(c)

    def test_sweep_runs_no_refinement(self, monkeypatch):
        """Building, certifying, checking and descending a cell, and checking
        its modified cochain, runs on the lambda-orbit alone: the discrete
        fallback never builds a quotient."""

        class Refuse:
            @staticmethod
            def closed(*args):
                raise AssertionError("the discrete fallback ran")

        monkeypatch.setattr(cocycle, "CosetQuotient", Refuse)
        for k, N, lamv in [(2, 4, lam(4, 0, 3)), (3, 5, lam(5, 1, 2)), (6, 6, lam(6, 2, 3))]:
            cochain, modified, report = certify_parameter(k, lamv, N)
            assert report.certified and verify_relations(cochain) and verify_relations(modified)
            at_identity = evaluate_cocycle(cochain, t_power(N))[cochain.table.identity_index()]
            assert shapiro_descend(cochain, t_power(N)) == at_identity

    def test_modified_cochain_keeps_the_orbit(self):
        cochain, modified, report = certify_parameter(4, lam(5, 0, 1), 5)
        assert report.certified
        assert modified.orbit is cochain.orbit and modified.quotient() is cochain.orbit
        assert len(cochain.orbit) == 24


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
            cochain = build_induced(k, lam(N, l1, l2), N)
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
