import dataclasses

import pytest
from mpmath import mp, mpc, mpf

from eisperiods import eisenstein
from eisperiods.exact import QQ, ExtScalar, PolylogSymbol
from eisperiods.lseries import (
    IExt,
    LFunctionSpec,
    lvalue_closed,
    lvalue_lerch_product,
    lvalue_numeric,
)
from eisperiods.modgroup import S, ResiduePair, index_set
from eisperiods.numerics import PoleError, raw_scale

PREC = 192
M = 200


def setup_module():
    mp.prec = PREC + 16


def lam(N, l1, l2):
    return ResiduePair(N, l1, l2)


class TestBoundedState:
    def test_spec_is_frozen(self):
        spec = LFunctionSpec.for_e_series(4, lam(3, 1, 2), 3, 20)
        with pytest.raises(dataclasses.FrozenInstanceError):
            spec.k = 6

    def test_embedding_keyed_by_coefficients(self):
        a = eisenstein.e_series_values(4, lam(3, 1, 2), 3, 20, PREC)
        b = eisenstein.e_series_values(4, lam(3, 1, 2), 3, 20, PREC)
        assert a[1] is b[1]

    def test_one_expansion_per_key(self, monkeypatch):
        """A cell and its S-partner share the series at lam: f at lam,
        lam S^-1 and lam S is built three times, not four."""
        calls = []
        real = eisenstein.e_fourier

        def counted(k, lamv, N, M):
            calls.append((k, lamv, N, M))
            return real(k, lamv, N, M)

        monkeypatch.setattr(eisenstein, "e_fourier", counted)
        eisenstein.e_series_values.cache_clear()
        cell = lam(5, 1, 2)
        for partner in (cell, cell.act(S)):
            lvalue_numeric(LFunctionSpec.for_e_series(4, partner, 5, 20), mpf("1.5"), PREC)
        keys = {(4, p, 5, 20) for p in (cell, cell.act(S.inverse()), cell.act(S))}
        assert len(keys) == 3
        assert len(calls) == 3 and set(calls) == keys

    def test_gamma_factor_keyed_by_exact_s(self):
        """Arguments that print alike at the working precision still get
        their own incomplete-gamma factor: s2 - s1 is a few ulps, and a
        small a = 2 pi / 1000 spreads that over about 80 ulps of E."""
        from eisperiods.lseries import _exp_mellin

        with mp.workprec(PREC + 32):
            s1 = mpc(mpf(5) / 2)
            s2 = s1 + mpf(2) ** -204
            first = _exp_mellin(s1, 1, 1000, PREC)
            second = _exp_mellin(s2, 1, 1000, PREC)
            a = 2 * mp.pi / 1000
            want = mp.power(a, -s2) * mp.gammainc(s2, a, mp.inf)
        assert second != first
        assert abs(second - want) < mpf(2) ** -204 * abs(want)


class TestIExt:
    def test_rotation(self):
        x = IExt().add_i_power(0, ExtScalar(QQ(3)))
        y = x.times_i_power(2)
        assert y.one == ExtScalar(QQ(-3)) and y.ipart.is_zero()
        z = x.times_i_power(1)
        assert z.one.is_zero() and z.ipart == ExtScalar(QQ(3))
        assert x.times_i_power(4) == x

    def test_pure_part_guard(self):
        x = IExt().add_i_power(1, ExtScalar(QQ(1)))
        with pytest.raises(ValueError):
            x.pure_part()


class TestClosedValues:
    def test_weight_four_anchor(self):
        lv = lvalue_closed(4, lam(1, 0, 0), 1, 2)
        raw = lv.numeric(PREC) * raw_scale(4, PREC)
        assert abs(raw - (-mp.pi ** 4 / 54)) < mpf(2) ** -150
        assert lv.bernoulli_coeff == QQ(1, 864)

    def test_weight_three_value(self):
        lv = lvalue_closed(3, lam(3, 1, 1), 3, 1)
        raw = lv.numeric(PREC) * raw_scale(3, PREC)
        assert abs(raw - (-mp.pi ** 3 / 54)) < mpf(2) ** -150

    def test_polylog_term_gating(self):
        lv = lvalue_closed(4, lam(2, 0, 1), 2, 3)
        syms = set(lv.value.one.symbols) | set(lv.value.ipart.symbols)
        assert PolylogSymbol(3, 1, 2) in syms
        # no gate fires away from the boundary arguments
        lv2 = lvalue_closed(4, lam(2, 1, 1), 2, 2)
        assert lv2.value.one.is_rational() and lv2.value.ipart.is_rational()

    def test_argument_range(self):
        with pytest.raises(ValueError):
            lvalue_closed(4, lam(1, 0, 0), 1, 4)
        with pytest.raises(ValueError):
            lvalue_closed(4, lam(1, 0, 0), 1, 0)


class TestNumericRoute:
    def test_pole_errors(self):
        spec = LFunctionSpec.for_e_series(4, lam(1, 0, 0), 1, M)
        for s in (0, 4):
            with pytest.raises(PoleError):
                lvalue_numeric(spec, s, PREC)

    def test_residue_at_zero(self):
        spec = LFunctionSpec.for_e_series(4, lam(1, 0, 0), 1, M)
        f_inf, _ = eisenstein.e_series_values(4, lam(1, 0, 0), 1, M, PREC)
        s = mpf(10) ** -10
        assert abs(s * lvalue_numeric(spec, s, PREC) + f_inf) < mpf(10) ** -8

    def test_functional_equation(self):
        for (k, N, l1, l2, s) in (
            (4, 1, 0, 0, mpf("1.7")),
            (3, 3, 1, 1, mpf("0.6")),
            (5, 4, 2, 3, mpc("2.2", "0.4")),
            (2, 2, 0, 1, mpf("0.9")),
        ):
            f = lam(N, l1, l2)
            spec_f = LFunctionSpec.for_e_series(k, f, N, M)
            spec_fs = LFunctionSpec.for_e_series(k, f.act(S), N, M)
            lhs = lvalue_numeric(spec_f, s, PREC)
            rhs = mpc(1j) ** k * lvalue_numeric(spec_fs, k - s, PREC)
            assert abs(lhs - rhs) < mpf(10) ** -20

    def test_functional_equation_closed_form(self):
        # L*(f, r) = i^k L*(f at lam S, k-r); transporting by S^-1 instead
        # flips the parameter sign and costs the extra (-1)^k
        for (k, N, l1, l2, r) in ((4, 2, 0, 1, 1), (5, 3, 1, 2, 2), (6, 4, 3, 2, 4), (3, 3, 0, 1, 1)):
            a = lvalue_closed(k, lam(N, l1, l2), N, r).numeric(PREC)
            b = lvalue_closed(k, lam(N, l1, l2).act(S), N, k - r).numeric(PREC)
            assert abs(a - mpc(1j) ** k * b) < mpf(10) ** -40
            c = lvalue_closed(k, lam(N, l1, l2).act(S.inverse()), N, k - r).numeric(PREC)
            assert abs(a - mpc(1j) ** k * (-1) ** k * c) < mpf(10) ** -40


class TestLerchRoute:
    def test_matches_numeric_off_integers(self):
        spec = LFunctionSpec.for_e_series(4, lam(1, 0, 0), 1, M)
        s = mpf("2.5")
        a = lvalue_numeric(spec, s, PREC) * raw_scale(4, PREC)
        b = lvalue_lerch_product(4, lam(1, 0, 0), 1, s, PREC)
        assert abs(a - b) < mpf(10) ** -20

    def test_matches_closed_at_integers(self):
        for (k, N, l1, l2) in ((4, 1, 0, 0), (3, 3, 2, 1), (6, 2, 1, 0), (2, 4, 0, 3)):
            for r in range(1, k):
                a = lvalue_closed(k, lam(N, l1, l2), N, r).numeric(PREC) * raw_scale(k, PREC)
                b = lvalue_lerch_product(k, lam(N, l1, l2), N, r, PREC)
                assert abs(a - b) < mpf(10) ** -25

    def test_finite_near_k_minus_one(self):
        # zeta factor argument stays off the pole when l1 != 0
        val = lvalue_lerch_product(4, lam(2, 1, 0), 2, mpf(3) + mpf(10) ** -6, PREC)
        assert abs(val) < 100

    def test_pole_guard(self):
        with pytest.raises(PoleError):
            lvalue_lerch_product(4, lam(1, 0, 0), 1, 4, PREC)


class TestTripleAgreement:
    def test_small_grid(self):
        # the full k <= 8, N <= 4 grid runs in the acceptance suite
        for N in (1, 2):
            for k in (2, 3, 4, 5):
                for lamv in index_set(N, k):
                    spec = LFunctionSpec.for_e_series(k, lamv, N, M)
                    scale = raw_scale(k, PREC)
                    for r in range(1, k):
                        closed = lvalue_closed(k, lamv, N, r).numeric(PREC)
                        numer = lvalue_numeric(spec, r, PREC)
                        lerch = lvalue_lerch_product(k, lamv, N, r, PREC) / scale
                        assert abs(closed - numer) < mpf(10) ** -20
                        assert abs(closed - lerch) < mpf(10) ** -20
