import dataclasses
import random
from operator import mul

import pytest
from mpmath import mp, mpc, mpf

from eisperiods import eisenstein
from eisperiods.exact import QQ, ExtScalar, PolylogSymbol
from eisperiods.lseries import (
    LFunctionSpec,
    lvalue_closed,
    lvalue_lerch_product,
    lvalue_numeric,
)
from eisperiods.modgroup import S, ResiduePair, index_set
from eisperiods.numerics import GUARD_BITS, PoleError, ext_scalar_value, raw_scale

PREC = 192
M = 200


def setup_module():
    mp.prec = PREC + 16


def lam(N, l1, l2):
    return ResiduePair(N, l1, l2)


def parts(x: ExtScalar):
    """The canonical fields of an ExtScalar, compared in place of the
    scalar."""
    return x.rational, x.symbols


class TestBoundedState:
    def test_spec_is_frozen(self):
        spec = LFunctionSpec.for_e_series(4, lam(3, 1, 2), 3, 20)
        with pytest.raises(dataclasses.FrozenInstanceError):
            spec.k = 6

    def test_embedding_keyed_by_coefficients(self, monkeypatch):
        # an empty store, so that the series is built at M = 20 and served
        # whole, not as a new slice of a longer series left by another test
        monkeypatch.setattr(eisenstein, "_LONGEST_SERIES", {})
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
        monkeypatch.setattr(eisenstein, "_LONGEST_SERIES", {})
        cell = lam(5, 1, 2)
        for partner in (cell, cell.act(S)):
            lvalue_numeric(LFunctionSpec.for_e_series(4, partner, 5, 20), mpf("1.5"), PREC)
        keys = {(4, p, 5, 20) for p in (cell, cell.act(S.inverse()), cell.act(S))}
        assert len(keys) == 3
        assert len(calls) == 3 and set(calls) == keys

    def test_shorter_order_is_a_prefix(self, monkeypatch):
        """A series asked for at a lower order after a higher one is served
        from it, with the bits of a fresh build at that order; the store of
        longest series stays bounded."""
        calls = []
        real = eisenstein.e_fourier

        def counted(k, lamv, N, M):
            calls.append(M)
            return real(k, lamv, N, M)

        monkeypatch.setattr(eisenstein, "e_fourier", counted)
        monkeypatch.setattr(eisenstein, "_LONGEST_SERIES", {})
        cell = lam(3, 1, 2)
        const, longer = eisenstein.e_series_values(6, cell, 3, 60, PREC)
        short_const, short = eisenstein.e_series_values(6, cell, 3, 25, PREC)
        assert calls == [60]
        fresh = real(6, cell, 3, 25)
        want = [eisenstein.cyclo_value(c, PREC) for c in fresh.coeffs]
        assert short_const == const and short == longer[:25]
        assert [z._mpc_ for z in short] == [z._mpc_ for z in want]
        for k in range(4, 4 + 2 * (eisenstein.LONGEST_SERIES_KEYS + 2), 2):
            eisenstein.e_series_values(k, cell, 3, 5, PREC)
        assert len(eisenstein._LONGEST_SERIES) == eisenstein.LONGEST_SERIES_KEYS

    def test_gamma_factor_keyed_by_exact_s(self):
        """Arguments that print alike at the working precision still get
        their own incomplete-gamma row: s2 - s1 is a few ulps, and a small
        a = 2 pi / 1000 spreads that over about 80 ulps of E."""
        from eisperiods.lseries import _mellin_row

        with mp.workprec(PREC + 32):
            s1 = mpc(mpf(5) / 2)
            s2 = s1 + mpf(2) ** -204
            first = _mellin_row(s1, 1000, 1, PREC)[0]
            second = _mellin_row(s2, 1000, 1, PREC)[0]
            a = 2 * mp.pi / 1000
            want = mp.power(a, -s2) * mp.gammainc(s2, a, mp.inf)
        assert second != first
        assert abs(second - want) < mpf(2) ** -204 * abs(want)


class TestMellinRows:
    """lvalue_numeric sums each series against a cached row of
    incomplete-gamma factors, held as mpf where the factor is real."""

    @staticmethod
    def _factor(s, j, N):
        """E(s; 2 pi j / N) as an mpc, at the working precision."""
        a = 2 * mp.pi * j / N
        return mpc(mp.power(a, -s) * mp.gammainc(s, a, mp.inf))

    def test_row_sum_equals_per_term_sum(self):
        """At integer and complex s the row sum has the bits of the fsum of
        each coefficient times its mpc factor.  At a seeded non-integer real
        s the row comes from `exp_mellin_row`: each factor, and so the sum,
        is within 2^-(PREC + 12) relative of its value at PREC + 64 bits, and
        the sum within that much of the sum over those values."""
        from eisperiods.lseries import _mellin_row

        rng = random.Random(23)
        for k, N, l1, l2 in ((4, 1, 0, 0), (5, 3, 1, 2), (6, 2, 1, 1)):
            _, ca = eisenstein.e_series_values(k, lam(N, l1, l2), N, 12, PREC)
            real = [mpc(r) for r in range(1, k)] + [mpc(rng.randint(1, 8 * k - 1) / 8 + 1 / 32)]
            cplx = [mpc(rng.randint(-8, 8 * k) / 8, rng.randint(1, 24) / 8)]
            for s in real + cplx:
                row = _mellin_row(s, N, len(ca), PREC)
                assert _mellin_row(s, N, len(ca), PREC) is row
                kinds = {type(e) for e in row}
                assert kinds == ({mpf} if s.imag == 0 else {mpc})
                with mp.workprec(PREC + GUARD_BITS):
                    got = mp.fsum(map(mul, ca, row), absolute=False)
                if s.imag == 0 and not mp.isint(s.real):
                    with mp.workprec(PREC + 64):
                        terms = [self._factor(s, j, N) for j in range(1, len(ca) + 1)]
                        want = mp.fsum((c * e for c, e in zip(ca, terms)), absolute=False)
                        scale = mp.fsum(abs(c * e) for c, e in zip(ca, terms))
                        eps = mpf(2) ** -(PREC + 12)
                        assert all(abs(e - t) <= eps * abs(t) for e, t in zip(row, terms))
                        # each product in `got` is rounded at PREC + GUARD_BITS
                        assert abs(got - want) <= (eps + mpf(2) ** -(PREC + GUARD_BITS)) * scale
                    continue
                with mp.workprec(PREC + GUARD_BITS):
                    terms = [self._factor(s, j, N) for j in range(1, len(ca) + 1)]
                    want = mp.fsum((c * e for c, e in zip(ca, terms)), absolute=False)
                assert got._mpc_ == want._mpc_
                assert [mpc(e)._mpc_ for e in row] == [e._mpc_ for e in terms]


class TestClosedRotation:
    """L* = i^r v_r: parts() rotates the one symbol-ring value by i^r."""

    @pytest.mark.parametrize("r", range(1, 8))
    @pytest.mark.parametrize("N, l1, l2", [(3, 0, 0), (5, 1, 2)])
    def test_parts_rotate_by_i_power(self, N, l1, l2, r):
        # at (0, 0) the polylog gates fire at r = 1 and r = 7; at (1, 2)
        # every v_r is a nonzero rational
        lv = lvalue_closed(8, lam(N, l1, l2), N, r)
        v = lv.value
        if l1 or r in (1, 7):
            assert parts(v) != (0, {})
        one, ipart = lv.parts()
        on_axis, off_axis = (one, ipart) if r % 2 == 0 else (ipart, one)
        assert parts(on_axis) == parts(v if r % 4 < 2 else -v)
        assert parts(off_axis) == (0, {})
        with mp.workprec(PREC + GUARD_BITS):
            want = (1, 1j, -1, -1j)[r % 4] * ext_scalar_value(v, PREC)
        assert lv.numeric(PREC)._mpc_ == want._mpc_


class TestClosedValues:
    def test_weight_four_anchor(self):
        lv = lvalue_closed(4, lam(1, 0, 0), 1, 2)
        raw = lv.numeric(PREC) * raw_scale(4, PREC)
        assert abs(raw - (-mp.pi ** 4 / 54)) < mpf(2) ** -150
        # no polylog gate at r = 2: the value is the Bernoulli product alone
        assert parts(lv.value) == (QQ(1, 864), {})

    def test_weight_three_value(self):
        lv = lvalue_closed(3, lam(3, 1, 1), 3, 1)
        raw = lv.numeric(PREC) * raw_scale(3, PREC)
        assert abs(raw - (-mp.pi ** 3 / 54)) < mpf(2) ** -150

    def test_polylog_term_gating(self):
        lv = lvalue_closed(4, lam(2, 0, 1), 2, 3)
        assert PolylogSymbol(3, 1, 2) in lv.value.symbols
        # no gate fires away from the boundary arguments
        lv2 = lvalue_closed(4, lam(2, 1, 1), 2, 2)
        assert not lv2.value.symbols

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
