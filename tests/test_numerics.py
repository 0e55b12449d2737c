import pytest
from mpmath import mp, mpc, mpf

from eisperiods.eisenstein import LatticeParams, g_fourier, lattice_sum, raw_scale
from eisperiods.exact import QQ, bernoulli_value
from eisperiods.invariant import QuadLatticeData, psi
from eisperiods.lseries import lvalue_closed, lvalue_lerch_product
from eisperiods.modgroup import ResiduePair
from eisperiods.numerics import (
    PoleError,
    e_of,
    hurwitz_zeta,
    lerch_phi,
    polylog,
    polylog_s,
    rational_reconstruct,
)

PREC = 192
TOL = mpf(2) ** -160


def setup_module():
    mp.prec = PREC + 16


class TestHurwitz:
    def test_basel(self):
        # direct series oracle with integral tail bound: sum_{n<=M} + 1/M
        M = 4000
        partial = mp.fsum(mpf(1) / (n * n) for n in range(1, M + 1))
        val = hurwitz_zeta(1, 2, PREC)
        assert abs(val - mp.pi ** 2 / 6) < TOL
        assert abs(val - partial) < mpf(1) / M + mpf(1) / M ** 2

    def test_half(self):
        assert abs(hurwitz_zeta(QQ(1, 2), 2, PREC) - mp.pi ** 2 / 2) < TOL

    def test_nonpositive_integer_values(self):
        # zeta(a, -n) = -B_{n+1}(a)/(n+1)
        assert abs(hurwitz_zeta(QQ(1, 3), 0, PREC) - mpf(1) / 6) < TOL
        for n in range(9):
            for a in (QQ(1, 2), QQ(1, 3), QQ(1, 4), QQ(1)):
                want = -bernoulli_value(n + 1, a) / (n + 1)
                got = rational_reconstruct(hurwitz_zeta(a, -n, PREC), 10 ** 9, mpf(2) ** -120, PREC)
                assert got == want

    def test_pole(self):
        with pytest.raises(PoleError):
            hurwitz_zeta(1, 1, PREC)

    def test_precision_monotonicity(self):
        for a, s in ((QQ(1, 3), 2), (QQ(2, 5), mp.mpc(0.5, 3.0)), (QQ(1), -4.5)):
            v1 = hurwitz_zeta(a, s, 128)
            v2 = hurwitz_zeta(a, s, 192)
            assert abs(v1 - v2) < mpf(2) ** (8 - 128) * (1 + abs(v2))


class TestPolylog:
    def test_dilog_minus_one(self):
        # alternating series oracle
        oracle = mp.nsum(lambda n: (-1) ** n / n ** 2, [1, mp.inf])
        val = polylog(2, QQ(1, 2), PREC)
        assert abs(val - oracle) < TOL
        assert abs(val + mp.pi ** 2 / 12) < TOL

    def test_zeta3(self):
        oracle = mp.nsum(lambda n: 1 / n ** 3, [1, mp.inf])
        assert abs(polylog(3, 0, PREC) - oracle) < TOL

    def test_weight_one_log(self):
        x = QQ(1, 3)
        assert abs(polylog(1, x, PREC) + mp.log(1 - e_of(x, PREC))) < TOL

    def test_divergence(self):
        with pytest.raises(PoleError):
            polylog(1, 0, PREC)

    def test_reflection(self):
        # Li_w(e(x)) + (-1)^w Li_w(e(-x)) + (2 pi i)^w B_w(x)/w! = 0
        for w in range(2, 7):
            for x in (QQ(1, 5), QQ(1, 3), QQ(1, 2)):
                lhs = polylog(w, x, PREC) + (-1) ** w * polylog(w, 1 - x, PREC)
                bern = (2j * mp.pi) ** w * mp.mpf(
                    int(bernoulli_value(w, x).numerator)
                ) / int(bernoulli_value(w, x).denominator) / mp.factorial(w)
                assert abs(lhs + bern) < mpf(10) ** -30

    def test_general_order_matches_integer_order(self):
        for w in (2, 3, 4):
            for x in (QQ(1, 3), QQ(2, 5)):
                assert abs(polylog_s(w, x, PREC) - polylog(w, x, PREC)) < TOL


class TestLerch:
    def test_reduces_to_hurwitz(self):
        for s in (2, mp.mpc(1.5, 0.5)):
            assert abs(lerch_phi(0, QQ(1, 3), s, PREC) - hurwitz_zeta(QQ(1, 3), s, PREC)) < TOL

    def test_a_equals_one_gives_polylog(self):
        x = QQ(1, 5)
        s = mp.mpc(2.5)
        lhs = e_of(-x, PREC) * polylog_s(s, x, PREC)
        assert abs(lerch_phi(x, 1, s, PREC) - lhs) < TOL

    def test_catalan(self):
        # phi(1/2, 1/2, 2) = sum (-1)^n/(n+1/2)^2 = 4 Catalan
        oracle = mp.nsum(lambda n: (-1) ** n / (n + mpf(1) / 2) ** 2, [0, mp.inf])
        val = lerch_phi(QQ(1, 2), QQ(1, 2), 2, PREC)
        assert abs(val - oracle) < TOL
        assert abs(val - 4 * mp.catalan) < TOL

    def test_pole_only_for_integer_x(self):
        with pytest.raises(PoleError):
            lerch_phi(2, QQ(1, 2), 1, PREC)
        lerch_phi(QQ(1, 2), QQ(1, 2), 1, PREC)  # entire for non-integer x


class TestRationalReconstruct:
    def test_simple(self):
        assert rational_reconstruct(mpf(1) / 3, 100, 1e-9, PREC) == QQ(1, 3)

    def test_negative(self):
        z = mpf(-1) / 54
        assert rational_reconstruct(z, 1000, 1e-9, PREC) == QQ(-1, 54)

    def test_irrational_fails(self):
        assert rational_reconstruct(mp.sqrt(2) / 2, 100, 1e-9, PREC) is None

    def test_imaginary_part_guard(self):
        assert rational_reconstruct(mp.mpc(0.5, 1e-3), 100, 1e-9, PREC) is None
        assert rational_reconstruct(mp.mpc(0.5, 1e-40), 100, 1e-9, PREC) == QQ(1, 2)

    def test_denominator_bound(self):
        assert rational_reconstruct(mpf(1) / 541, 100, 1e-30, PREC) is None
        assert rational_reconstruct(mpf(1) / 541, 1000, 1e-30, PREC) == QQ(1, 541)


_EIS = QuadLatticeData.preset("eisenstein")
AMBIENT_CASES = {
    "hurwitz_zeta": lambda: hurwitz_zeta(QQ(1, 3), 3, PREC),
    "polylog_s": lambda: polylog_s(mpc(2.5, 1), QQ(1, 5), PREC),
    "raw_scale": lambda: raw_scale(12, PREC),
    "lattice_sum": lambda: lattice_sum(
        LatticeParams(12, 0, 1, ResiduePair(1, 0, 0), "congruence", 3), mpc(0.1, 1.2), PREC
    ),
    "g_fourier": lambda: g_fourier(4, ResiduePair(3, 0, 1), 3, 2, PREC).const,
    "lvalue_closed": lambda: lvalue_closed(4, ResiduePair(1, 0, 0), 1, 2).numeric(PREC),
    "lvalue_lerch_product": lambda: lvalue_lerch_product(4, ResiduePair(3, 1, 2), 3, 2, PREC),
    "tau": lambda: _EIS.tau(PREC),
    "psi": lambda: psi(2, _EIS, _EIS.lam, mpc(0.25, 1.5), M=60, prec=PREC).value,
}


@pytest.mark.parametrize("name", sorted(AMBIENT_CASES))
def test_result_precision_ignores_ambient(name):
    """A result asked for at PREC bits carries them even when the caller's
    mpmath precision is the 53-bit default."""
    call = AMBIENT_CASES[name]
    with mp.workprec(4 * PREC):
        want = call()
    saved = mp.prec
    mp.prec = 53
    try:
        got = call()
    finally:
        mp.prec = saved
    bits = max(got.real._mpf_[3], got.imag._mpf_[3])
    assert bits >= PREC
    assert got == want
