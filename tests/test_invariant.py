import pytest
from mpmath import mp, mpc, mpf

from eisperiods.exact import QQ, formal_binomial, qq
from eisperiods.eisenstein import LatticeParams, e_fourier, eval_fourier, lattice_sum
from eisperiods.invariant import (
    BiPoly,
    IdealClassTerm,
    QuadLatticeData,
    SymmetryError,
    dd_m_by_raising,
    dd_m_constant,
    dd_m_poly,
    dd_m_symmetric_form,
    eichler_integral,
    eichler_integral_dtau,
    hecke_assemble,
    maass_raise,
    mobius,
    psi,
    psi_gamma_shift,
    psi_r_value,
    psi_value_ratio,
    re_m,
)
from eisperiods.modgroup import S, T, ResiduePair
from eisperiods.numerics import PrecisionError, rational_reconstruct, raw_scale

PREC = 192


def setup_module():
    mp.prec = 300


def lam(N, l1, l2):
    return ResiduePair(N, l1, l2)


class TestRaisingOperator:
    def test_on_tau(self):
        assert maass_raise(-2, BiPoly.monomial(1, 0)) == BiPoly({(1, 0): -1, (0, 1): -1})

    def test_on_constants(self):
        for k in (-5, 0, 3):
            assert maass_raise(k, BiPoly.monomial(0, 0)) == BiPoly({(0, 0): k})

    def test_on_tau_cubed(self):
        assert maass_raise(-2, BiPoly.monomial(3, 0)) == BiPoly({(3, 0): 1, (2, 1): -3})


class TestCompositeOperator:
    def test_m2_values(self):
        assert dd_m_poly(2, 3) == BiPoly({(3, 0): 1, (2, 1): -3})
        assert dd_m_poly(2, 1) == BiPoly({(1, 0): -1, (0, 1): -1})
        assert dd_m_poly(2, 0) == BiPoly({(0, 0): -2})

    def test_constant_rule(self):
        for m in range(2, 9):
            poly = dd_m_poly(m, 0)
            assert poly == BiPoly({(0, 0): dd_m_constant(m)})
            fac = 1
            for i in range(2, m):
                fac *= i
            assert dd_m_constant(m) == fac * formal_binomial(-m, m - 1)

    def test_closed_form_equals_iterated_raising(self):
        for m in range(2, 9):
            for n in range(0, 2 * m):
                assert dd_m_poly(m, n) == dd_m_by_raising(m, n), (m, n)

    def test_top_row_alternating_binomial(self):
        for m in range(2, 9):
            n = 2 * m - 1
            fac = 1
            for i in range(2, m):
                fac *= i
            want = BiPoly(
                {
                    (n - r, r): fac * (-1) ** r * formal_binomial(n, r)
                    for r in range(m)
                }
            )
            assert dd_m_poly(m, n) == want


class TestSymmetricForm:
    def test_m2_examples(self):
        assert dd_m_symmetric_form(2, 1) == {(0, 1, 0): QQ(-1)}
        assert dd_m_symmetric_form(2, 0) == {(1, 0, 0): QQ(-2)}

    def test_substitution_identity_exact(self):
        # expanding Q back through the generators must reproduce dd_m(tau^n)
        for m in (2, 3, 4, 5):
            for n in range(0, 2 * m - 1):
                q = dd_m_symmetric_form(m, n)
                expanded = BiPoly()
                for (xe, ye, ze), coeff in q.items():
                    # X^xe Y^ye Z^ze * (t - tb)^{m-1} = (t+tb)^ye (t tb)^ze
                    term = BiPoly.monomial(ze, ze, coeff)
                    for _ in range(ye):
                        term = BiPoly(
                            {
                                (a + 1, b): c
                                for (a, b), c in term.terms.items()
                            }
                        ) + BiPoly(
                            {
                                (a, b + 1): c
                                for (a, b), c in term.terms.items()
                            }
                        )
                    expanded = expanded + term
                assert expanded == dd_m_poly(m, n), (m, n)

    def test_homogeneous_degree(self):
        for m in (2, 3, 4):
            for n in range(0, 2 * m - 1):
                for (xe, ye, ze) in dd_m_symmetric_form(m, n):
                    assert xe + ye + ze == m - 1

    def test_range_guard(self):
        with pytest.raises(ValueError):
            dd_m_symmetric_form(2, 3)


class TestQuadLattice:
    def test_presets(self):
        g = QuadLatticeData.preset("gaussian")
        assert g.disc == -4 and abs(g.tau(128) - mpc(0, 1)) < mpf(2) ** -100
        e = QuadLatticeData.preset("eisenstein")
        assert e.disc == -3
        assert abs(e.tau(128) - mpc(mpf(1) / 2, mp.sqrt(3) / 2)) < mpf(2) ** -100

    def test_validation(self):
        with pytest.raises(ValueError):
            QuadLatticeData(-1, 0, -1, QQ(1), 1, lam(1, 0, 0))
        with pytest.raises(ValueError):
            QuadLatticeData(1, 5, 1, QQ(1), 1, lam(1, 0, 0))  # positive disc
        with pytest.raises(ValueError):
            QuadLatticeData(2, 0, 2, QQ(1), 1, lam(1, 0, 0))  # imprimitive

    def test_json_round_trip(self):
        d = QuadLatticeData(1, -1, 1, QQ(3, 2), 2, lam(2, 1, 1))
        again = QuadLatticeData.from_json(d.to_json())
        assert again == d


class TestEichlerIntegral:
    def test_constant_only_truncation(self):
        tau = mpc("0.3", "1.4")
        for k in (4, 6):
            got = eichler_integral(k, lam(1, 0, 0), 1, tau, 0, PREC)
            f = e_fourier(k, lam(1, 0, 0), 1, 1)
            a0 = raw_scale(k, PREC) * mpf(int(qq(f.const).numerator)) / int(qq(f.const).denominator)
            assert abs(got - a0 * tau ** (k - 1) / (k - 1)) < mpf(2) ** -150

    def test_termwise_derivative_identity(self):
        # the (k-1)-st derivative of each stored mode reproduces (k-2)! times
        # the underlying Fourier mode: N^{k-1}/(2 pi i j)^{k-1} * (2 pi i j/N)^{k-1} = 1
        k, N = 5, 3
        with mp.workprec(220):
            for j in (1, 2, 7):
                mode_factor = mpf(N) ** (k - 1) / (2j * mp.pi * j) ** (k - 1) * (
                    2j * mp.pi * j / N
                ) ** (k - 1)
                assert abs(mode_factor - 1) < mpf(2) ** -180

    def test_finite_difference_derivative(self):
        # seventh-order central stencil for the third derivative; the stencil
        # error term h^4 f^(7) sits well under 1e-10 at step 1e-4
        k, lamv, N, M = 4, lam(1, 0, 0), 1, 200
        prec = 260
        with mp.workprec(prec + 30):
            tau = mpc(0, 1)
            h = mpf(1) / 10 ** 4
            weights = [
                (QQ(1, 8), -3),
                (QQ(-1, 1), -2),
                (QQ(13, 8), -1),
                (QQ(-13, 8), 1),
                (QQ(1, 1), 2),
                (QQ(-1, 8), 3),
            ]
            acc = mpc(0)
            for w, off in weights:
                acc += mpf(int(w.numerator)) / int(w.denominator) * eichler_integral(
                    k, lamv, N, tau + off * h, M, prec
                )
            d3 = acc / h ** 3
            f_val = eval_fourier(e_fourier(k, lamv, N, M), tau, prec) * raw_scale(k, prec)
            assert abs(d3 - 2 * f_val) < mpf(10) ** -10

    def test_analytic_derivative_matches_stencil(self):
        k, lamv, N, M = 4, lam(1, 0, 0), 1, 150
        tau = mpc("0.2", "1.1")
        with mp.workprec(240):
            h = mpf(1) / 10 ** 5
            fd = (eichler_integral(k, lamv, N, tau + h, M, 220) - eichler_integral(k, lamv, N, tau - h, M, 220)) / (2 * h)
            an = eichler_integral_dtau(k, lamv, N, tau, M, 220)
            assert abs(fd - an) < mpf(10) ** -9


class TestMaassBol:
    def test_identity_on_anchored_integral(self):
        # D+_k((c tau+d)^-k (c taubar+d)^-l f(g tau))
        #   = (c tau+d)^{-k-1} (c taubar+d)^{-l+1} (D+_k f)(g tau)
        m = 2
        data = QuadLatticeData.preset("gaussian")
        kk, ll = -2, 0  # first raising step in the order-m composite
        M, prec = 300, 220
        lamv = lam(1, 0, 0)
        from eisperiods.lseries import lvalue_closed

        shift = (
            mpc(1j) ** (3 - 2 * m)
            * lvalue_closed(2 * m, lamv, 1, 2 * m - 1).numeric(prec)
            * raw_scale(2 * m, prec)
        )

        def f(w):
            return eichler_integral(2 * m, lamv, 1, w, M, prec) + shift

        def fprime(w):
            return eichler_integral_dtau(2 * m, lamv, 1, w, M, prec)

        with mp.workprec(prec + 30):
            tau = mpc("0.21", "1.31")
            taub = mp.conj(tau)
            for g in (T, S, S * T):
                c, d = g.c, g.d
                jt = c * tau + d
                jtb = c * taub + d
                gt = mobius(g, tau, prec)
                gtb = mp.conj(gt)
                # lhs: D+_k at (tau, taub) of jt^-k jtb^-l f(g tau)
                dtau_g = -kk * c * jt ** (-kk - 1) * jtb ** (-ll) * f(gt) + jt ** (
                    -kk - 2
                ) * jtb ** (-ll) * fprime(gt)
                lhs = kk * jt ** (-kk) * jtb ** (-ll) * f(gt) + (tau - taub) * dtau_g
                rhs = jt ** (-kk - 1) * jtb ** (-ll + 1) * (
                    kk * f(gt) + (gt - gtb) * fprime(gt)
                )
                assert abs(lhs - rhs) < mpf(10) ** -20, g


class TestPsi:
    def test_identity_shift_is_zero(self):
        data = QuadLatticeData.preset("gaussian")
        from eisperiods.modgroup import IDENTITY

        val = psi_gamma_shift(2, data, IDENTITY, M=200, prec=192)
        assert abs(val) == 0

    def test_gamma_shift_rational_gaussian_m2(self):
        data = QuadLatticeData.preset("gaussian")
        for gamma in (T, S):
            shift = psi_gamma_shift(2, data, gamma, M=400, prec=256)
            rec = rational_reconstruct(shift, 10 ** 6, mpf(10) ** -30, 256)
            assert rec is not None

    def test_value_ratio_rational(self):
        data = QuadLatticeData.preset("gaussian")
        ratio = psi_value_ratio(2, data, data.lam, M=400, prec=256)
        rec = rational_reconstruct(ratio, 10 ** 6, mpf(10) ** -30, 256)
        assert rec == QQ(-1, 6)

    def test_re_m_projection(self):
        z = mpc("1.25", "-0.75")
        assert re_m(z, 2) == mpf("-0.75")
        assert re_m(z, 3) == mpf("1.25")
        assert re_m(z, 4) == mpf("-0.75")

    def test_truncation_budget_guard(self):
        data = QuadLatticeData.preset("gaussian")
        with pytest.raises(PrecisionError):
            psi(2, data, data.lam, data.tau(192), M=3, prec=192)

    def test_psi_r_routes_agree(self):
        data = QuadLatticeData.preset("gaussian")
        a = psi_r_value(2, data, data.lam, M=200, prec=160)
        lattice = lattice_sum(LatticeParams(2, 2, data.N, data.lam, "elliptic", 150), data.tau(160), 160)
        omega2 = qq(data.omega2)
        b = lattice / (mpf(omega2.numerator) / omega2.denominator) ** 4
        # lattice tail O(R^{2-2m})
        assert abs(a - b) < mpf(150) ** -2 * 10


class TestHeckeAssembly:
    def test_single_class_collapse(self):
        # N = 1: one residue class, b = 1, so the assembly is psi_r / w_f
        data = QuadLatticeData.preset("gaussian")
        val = hecke_assemble(2, 0, [IdealClassTerm(data, QQ(1), mpc(1))], 4, prec=160, M=200)
        direct = psi_r_value(2, data, data.lam, M=200, prec=160) / 4
        assert abs(val - direct) < mpf(2) ** -130

    def test_dedekind_zeta_oracle(self):
        data = QuadLatticeData.preset("gaussian")
        val = hecke_assemble(2, 0, [IdealClassTerm(data, QQ(1), mpc(1))], 4, prec=192, M=300)
        with mp.workprec(220):
            want = mp.zeta(2) * mp.catalan
        assert abs(val - want) < mpf(10) ** -15

    def test_delta_shift_bookkeeping(self):
        data = QuadLatticeData.preset("gaussian")
        nb = QQ(5)
        chi = mpc("2.0", "1.0")
        m = 2
        lhs = hecke_assemble(m, 1, [IdealClassTerm(data, nb, chi)], 3, prec=160, M=150)
        rhs = hecke_assemble(m, 0, [IdealClassTerm(data, nb, chi / 5)], 3, prec=160, M=150)
        assert abs(lhs - rhs) < mpf(2) ** -130

    def test_w_f_guard(self):
        data = QuadLatticeData.preset("gaussian")
        with pytest.raises(ValueError):
            hecke_assemble(2, 0, [IdealClassTerm(data, QQ(1), mpc(1))], 0, prec=160, M=100)
