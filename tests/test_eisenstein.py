import dataclasses
import random
import time

import pytest
from mpmath import mp, mpc, mpf

from eisperiods.exact import QQ
from eisperiods.eisenstein import (
    HoloFourier,
    IndexSetError,
    LatticeParams,
    bilinear_exponent,
    e_fourier,
    elliptic_maass_fourier,
    eval_fourier,
    g_fourier,
    lattice_sum,
    maass_fourier,
)
from eisperiods.eisenstein import _divisor_pairs, _fb, _i_times_int_power
from eisperiods.modgroup import S, T, ResiduePair
from eisperiods.numerics import GUARD_BITS, cyclo_value, e_of, raw_scale

PREC = 192


def setup_module():
    mp.prec = PREC + 16


def lam(N, l1, l2):
    return ResiduePair(N, l1, l2)


class TestEFourier:
    def test_level_one_weight_four(self):
        f = e_fourier(4, lam(1, 0, 0), 1, 6)
        assert f.const == QQ(1, 720)
        assert f.coeffs[0].coeffs == (QQ(1, 3),)
        # 2 sigma_3(j)/6 for j = 2, 3
        assert f.coeffs[1].coeffs == (QQ(2 * 9, 6),)
        assert f.coeffs[2].coeffs == (QQ(2 * 28, 6),)
        assert f.nonholo == 0

    def test_weight_two_nonzero_parameter_holomorphic(self):
        f = e_fourier(2, lam(2, 0, 1), 2, 4)
        assert f.const == QQ(-1, 12)
        assert f.nonholo == 0

    def test_weight_two_zero_parameter_flag(self):
        f = e_fourier(2, lam(1, 0, 0), 1, 4)
        assert f.nonholo == QQ(1)

    def test_odd_weight_low_level_rejected(self):
        with pytest.raises(IndexSetError):
            e_fourier(3, lam(2, 1, 0), 2, 4)

    def test_odd_weight_zero_parameter_vanishes(self):
        f = e_fourier(3, lam(3, 0, 0), 3, 12)
        assert f.const == 0
        assert all(c.coeffs == (0, 0) for c in f.coeffs)

    def test_duality_with_g_series(self):
        # the twisted series is the b-weighted sum of congruence series
        N, k, M = 2, 4, 8
        for l1, l2 in ((0, 1), (1, 1)):
            e = e_fourier(k, lam(N, l1, l2), N, M)
            gs = {
                (t1, t2): g_fourier(k, lam(N, t1, t2), N, M, PREC)
                for t1 in range(N)
                for t2 in range(N)
            }
            scale = raw_scale(k, PREC)
            for j in range(M):
                want = mp.fsum(
                    e_of(QQ(bilinear_exponent(lam(N, l1, l2), lam(N, t1, t2)), N), PREC)
                    * gs[(t1, t2)].coeffs[j]
                    for t1 in range(N)
                    for t2 in range(N)
                )
                got = scale * cyclo_value(e.coeffs[j], PREC)
                assert abs(got - want) < mpf(2) ** -150

    def test_modular_covariance_numeric(self):
        # series(k, lam*g) at tau = (c tau + d)^-k series(k, lam) at g tau
        rng = random.Random(4)
        tau = mpc("0.31", "1.2")
        for N in (2, 3, 4):
            for g in (S, T, S * T):
                l1, l2 = rng.randrange(N), rng.randrange(N)
                if (l1, l2) == (0, 0):
                    l1 = 1
                f1 = e_fourier(4, lam(N, l1, l2), N, 220)
                f2 = e_fourier(4, lam(N, l1, l2).act(g), N, 220)
                gt = (g.a * tau + g.b) / (g.c * tau + g.d)
                lhs = eval_fourier(f2, tau, PREC)
                rhs = (g.c * tau + g.d) ** -4 * eval_fourier(f1, gt, PREC)
                assert abs(lhs - rhs) < mpf(10) ** -40

    def test_principal_level_invariance(self):
        N = 3
        f = e_fourier(5, lam(N, 1, 2), N, 220)
        tau = mpc("0.21", "1.1")
        assert abs(eval_fourier(f, tau, PREC) - eval_fourier(f, tau + N, PREC)) < mpf(10) ** -40

    def test_truncation_consistency(self):
        f100 = e_fourier(4, lam(2, 1, 1), 2, 100)
        f200 = e_fourier(4, lam(2, 1, 1), 2, 200)
        tau = mpc("0.1", "0.5")
        d = abs(eval_fourier(f100, tau, PREC) - eval_fourier(f200, tau, PREC))
        assert d < mpf(2) ** -64

    def test_constant_only_series(self):
        f = e_fourier(4, lam(1, 0, 0), 1, 0)
        for tau in (mpc(0, 1), mpc("0.7", "0.2")):
            assert eval_fourier(f, tau, PREC) == mpf(1) / 720

    def test_expansion_is_frozen(self):
        f = e_fourier(4, lam(3, 1, 2), 3, 4)
        assert isinstance(f.coeffs, tuple)
        with pytest.raises(dataclasses.FrozenInstanceError):
            f.coeffs = ()


class TestGFourier:
    def test_constant_killed_off_zero_column(self):
        g = g_fourier(3, lam(2, 1, 0), 2, 4, PREC)
        assert g.const == 0

    def test_constant_odd_class_sum(self):
        g = g_fourier(4, lam(2, 0, 1), 2, 4, PREC)
        # two-sided sum over odd n of n^-4 = 2 (1 - 2^-4) zeta(4) = pi^4/48
        assert abs(g.const - mp.pi ** 4 / 48) < mpf(2) ** -150

    def test_weight_two_nonholo_term(self):
        g = g_fourier(2, lam(2, 0, 1), 2, 4, PREC)
        # C0 = -pi/(N^2 v) stored against the unit 1/(4 pi v)
        assert abs(g.nonholo - (-4 * mp.pi ** 2 / 4)) < mpf(2) ** -150


class TestMaassFourier:
    def test_c0_level_one(self):
        m = maass_fourier(3, 1, lam(1, 0, 0), 1, 2, PREC)
        assert set(m.C0) == {-3}
        assert abs(m.C0[-3] - (-mp.pi * mp.zeta(3) / 2)) < mpf(2) ** -150

    def test_odd_total_weight_vanishes(self):
        m = maass_fourier(2, 1, lam(1, 0, 0), 1, 6, PREC)
        assert m.A0 == 0 and not m.C0
        assert all(not d for d in m.A) and all(not d for d in m.C)

    def test_l_zero_reduces_to_g(self):
        N, k, M = 2, 4, 6
        for l1, l2 in ((0, 1), (1, 0)):
            m = maass_fourier(k, 0, lam(N, l1, l2), N, M, PREC)
            g = g_fourier(k, lam(N, l1, l2), N, M, PREC)
            assert not m.C0 and all(not d for d in m.C)
            assert abs(m.A0 - g.const) < mpf(2) ** -150
            for j in range(M):
                gc = g.coeffs[j]
                mc = m.A[j]
                if gc == 0:
                    assert not mc
                else:
                    assert set(mc) == {0}
                    assert abs(mc[0] - gc) < mpf(2) ** -140

    def test_total_weight_floor(self):
        with pytest.raises(ValueError):
            maass_fourier(1, 1, lam(1, 0, 0), 1, 4, PREC)

    def test_v_exponent_shape(self):
        m = maass_fourier(5, 3, lam(2, 1, 1), 2, 10, PREC)
        assert m.v_exponent_bounds_ok()

    def test_expansion_is_frozen(self):
        m = maass_fourier(5, 3, lam(2, 1, 1), 2, 4, PREC)
        assert isinstance(m.A, tuple) and isinstance(m.C, tuple)
        with pytest.raises(dataclasses.FrozenInstanceError):
            m.A0 = mpc(0)

    def test_lattice_oracle(self):
        m = maass_fourier(6, 4, lam(2, 1, 1), 2, 80, PREC)
        tau = mpc("0.5", "1.5")
        got = eval_fourier(m, tau, PREC)
        want = lattice_sum(LatticeParams(6, 4, 2, lam(2, 1, 1), "congruence", 200), tau, PREC)
        assert abs(got - want) < mpf(10) ** -18


class TestEllipticMaassFourier:
    def test_c0_weight_two_two(self):
        e = elliptic_maass_fourier(2, 2, lam(2, 0, 1), 2, 2, PREC)
        assert set(e.C0) == {-3}
        assert abs(e.C0[-3] - (-3 * mp.pi * mp.zeta(3) / 4)) < mpf(2) ** -150

    def test_a0_bernoulli(self):
        for l1 in (0, 1, 2):
            e = elliptic_maass_fourier(3, 1, lam(3, l1, 1), 3, 2, PREC)
            from eisperiods.exact import bernoulli_value

            b = bernoulli_value(4, QQ(l1, 3))
            want = -((-2j * mp.pi) ** 4) * mpf(int(b.numerator)) / int(b.denominator) / 24
            assert abs(e.A0 - want) < mpf(2) ** -140

    def test_l_zero_matches_normalized_series(self):
        N, k, M = 3, 5, 8
        e_raw = elliptic_maass_fourier(k, 0, lam(N, 1, 2), N, M, PREC)
        e_nrm = e_fourier(k, lam(N, 1, 2), N, M)
        scale = raw_scale(k, PREC)
        assert abs(e_raw.A0 - scale * mpf(int(e_nrm.const.numerator)) / int(e_nrm.const.denominator)) < mpf(10) ** -40
        for j in range(M):
            want = scale * cyclo_value(e_nrm.coeffs[j], PREC)
            got = e_raw.A[j].get(0, mpc(0))
            assert abs(got - want) < mpf(10) ** -40

    def test_lattice_oracle(self):
        e = elliptic_maass_fourier(7, 3, lam(2, 0, 1), 2, 80, PREC)
        tau = mpc("0.2", "2.0")
        got = eval_fourier(e, tau, PREC)
        want = lattice_sum(LatticeParams(7, 3, 2, lam(2, 0, 1), "elliptic", 200), tau, PREC)
        assert abs(got - want) < mpf(10) ** -18

    def test_kernel_powers_keep_full_precision(self):
        """A_81 at v^-9 has powers (2m)^p beyond 2^53; it must carry the
        working precision, checked against the kernel sum done in mpmath."""
        k, l, N, l1, l2, j, r = 7, 5, 3, 1, 2, 81, 4
        got = elliptic_maass_fourier(k, l, lam(N, l1, l2), N, 200, PREC).A[j - 1][-(l + r)]
        with mp.workprec(2 * PREC):
            want = mpc(0)
            for m0 in (d for d in range(1, j + 1) if j % d == 0):
                for sgn in (1, -1):
                    m, n = sgn * m0, sgn * (j // m0)
                    if n % N != l1:
                        continue
                    want += (
                        -2j * mp.pi * sgn / mpf(N) ** (k - r - 1) * mp.binomial(-l, r)
                        * (-2j * mp.pi * n) ** (k - 1 - r) * mp.expjpi(mpf(2 * m * l2) / N)
                        / (mpc(0, -2 * m) ** (l + r) * mp.factorial(k - 1 - r))
                    )
            assert abs(got - want) < mpf(2) ** -180 * abs(want)


def divisor_pair_loop(k, l, N, M, prec, m_class, twist, twist_on, extra_N_power):
    """The kernel's reference: each divisor pair of each j in turn, every
    term written out in full, at the precision the kernel runs at."""
    A, C = [], []
    two_pi_i = 2j * mp.pi
    with mp.workprec(prec + GUARD_BITS):
        for j in range(1, M + 1):
            dA, dC = {}, {}
            for m0 in (d for d in range(1, j + 1) if j % d == 0):
                for sgn in (1, -1):
                    m, n = sgn * m0, sgn * (j // m0)
                    if (m if twist_on == "n" else n) % N == m_class:
                        phase = e_of(QQ((n if twist_on == "n" else m) * twist, N), prec)
                        for r in range(k):
                            coeff = (
                                -two_pi_i * sgn / mpf(N) ** (k - r - extra_N_power) * _fb(-l, r)
                                * (-two_pi_i * n) ** (k - 1 - r) * phase
                                / (_i_times_int_power(-2 * m, l + r) * mp.factorial(k - 1 - r))
                            )
                            if coeff != 0:
                                dA[-(l + r)] = dA.get(-(l + r), mpc(0)) + coeff
                    if (m if twist_on == "n" else -n) % N == m_class:
                        phase = e_of(QQ(-(n if twist_on == "n" else -m) * twist, N), prec)
                        for r in range(l):
                            coeff = (
                                two_pi_i * sgn / mpf(N) ** (l - r - extra_N_power) * _fb(-k, r)
                                * (two_pi_i * n) ** (l - 1 - r) * phase
                                / (_i_times_int_power(2 * m, k + r) * mp.factorial(l - 1 - r))
                            )
                            if coeff != 0:
                                dC[-(k + r)] = dC.get(-(k + r), mpc(0)) + coeff
            A.append({ex: c for ex, c in dA.items() if c != 0})
            C.append({ex: c for ex, c in dC.items() if c != 0})
    return A, C


@pytest.mark.parametrize(
    "kind, k, l, N, l1, l2",
    [
        ("maass", 7, 5, 3, 1, 2),
        ("elliptic", 7, 5, 3, 1, 2),
        ("maass", 6, 0, 3, 1, 2),  # C(0, r) = 0 for r >= 1: the terms that vanish
        ("elliptic", 3, 3, 1, 0, 0),
    ],
)
def test_kernel_matches_divisor_pair_loop(kind, k, l, N, l1, l2):
    """The tabulated kernel gives the divisor-pair loop's sums bit for bit,
    with the same Laurent terms in the same order.  M = 40 puts pairs on
    both sides of the prepow table's bound M // 8."""
    M = 40
    if kind == "maass":
        series = maass_fourier(k, l, lam(N, l1, l2), N, M, PREC)
        want = divisor_pair_loop(k, l, N, M, PREC, l1, l2, "n", 0)
    else:
        series = elliptic_maass_fourier(k, l, lam(N, l1, l2), N, M, PREC)
        want = divisor_pair_loop(k, l, N, M, PREC, l1, l2, "m", 1)
    assert any(series.A) and (l == 0 or any(series.C))
    for got, ref in ((series.A, want[0]), (series.C, want[1])):
        assert [[(ex, c._mpc_) for ex, c in d.items()] for d in got] == [
            [(ex, c._mpc_) for ex, c in d.items()] for d in ref
        ]


class TestLatticeSum:
    def test_conjugation_symmetry(self):
        tau = mpc("0.3", "1.1")
        p1 = LatticeParams(6, 4, 2, lam(2, 1, 1), "congruence", 40)
        p2 = LatticeParams(4, 6, 2, lam(2, 1, 1), "congruence", 40)
        assert abs(mp.conj(lattice_sum(p1, tau, PREC)) - lattice_sum(p2, tau, PREC)) < mpf(2) ** -150

    def test_odd_weight_self_paired_vanishes(self):
        # (c,d) -> (-c,-d) flips the sign of each term when 2 lam = 0
        tau = mpc("0.4", "0.9")
        val = lattice_sum(LatticeParams(4, 3, 2, lam(2, 0, 0), "congruence", 30), tau, PREC)
        assert abs(val) < mpf(2) ** -150

    def test_invalid_params(self):
        with pytest.raises(ValueError):
            LatticeParams(1, 1, 1, lam(1, 0, 0), "congruence", 10)
        with pytest.raises(ValueError):
            LatticeParams(4, 0, 1, lam(1, 0, 0), "congruence", 0)
        with pytest.raises(ValueError):
            lattice_sum(LatticeParams(4, 0, 1, lam(1, 0, 0)), mpc(0, -1), PREC)

    def test_holomorphic_oracle_at_documented_accuracy(self):
        # weight-4 tail follows the documented O(R^{2-w}) bound
        f = e_fourier(4, lam(1, 0, 0), 1, 80)
        tau = mpc(0, 1)
        ev = eval_fourier(f, tau, PREC) * raw_scale(4, PREC)
        for R in (50, 100, 200):
            ls = lattice_sum(LatticeParams(4, 0, 1, lam(1, 0, 0), "elliptic", R), tau, PREC)
            assert abs(ev - ls) < 4 * mpf(R) ** -2

    def test_high_weight_oracle_tight(self):
        f = e_fourier(11, lam(3, 1, 2), 3, 80)
        tau = mpc("0.2", "2.0")
        ev = eval_fourier(f, tau, PREC) * raw_scale(11, PREC)
        ls = lattice_sum(LatticeParams(11, 0, 3, lam(3, 1, 2), "elliptic", 300), tau, PREC)
        assert abs(ev - ls) < mpf(10) ** -20


def direct_lattice_sum(params, tau, prec):
    """The lattice sum term by term in mpmath: its value, the sum of |term|,
    the number of points and the least m with 2^m >= 1/|c tau + d| at every
    point."""
    N, k, l = params.N, params.k, params.l
    with mp.workprec(prec):
        tau = mpc(tau)
        total, size, ms = mpc(0), mpf(0), []
        for c in range(-params.R, params.R + 1):
            for d in range(-params.R, params.R + 1):
                if (c, d) == (0, 0):
                    continue
                if params.mode == "congruence":
                    if (c - params.lam.l1) % N or (d - params.lam.l2) % N:
                        continue
                    phase = 1
                else:
                    phase = mp.expjpi(mpf(2 * ((c * params.lam.l2 - d * params.lam.l1) % N)) / N)
                z = c * tau + d
                term = z ** (-k) * mp.conj(z) ** (-l)
                total += phase * term
                size += abs(term)
                # |z|^2 = man 2^exp (exact for parts of up to 201 bits) lies in
                # [2^(exp + bc - 1), 2^(exp + bc)), so 2^(2m) >= 1/|z|^2 first
                # at 2m >= 1 - exp - bc
                _, man, exp, bc = (z.real ** 2 + z.imag ** 2)._mpf_
                ms.append((2 - exp - bc) // 2)
        return total, size, len(ms), max(ms)


def lattice_sum_bound(params, size, n, m):
    """The rounding bound stated by lattice_sum: n 2^-F + (N + 5) 2^-wp
    sum |term|, F = wp + 2 bitlen(R) + 8 - w m."""
    wp = PREC + GUARD_BITS
    F = wp + 2 * params.R.bit_length() + 8 - (params.k + params.l) * m
    return n * mpf(2) ** -F + (params.N + 5) * mpf(2) ** -wp * size


def _lattice_grid():
    """Seeded (k, l, N, lam, mode, R, tau): l = 0, 0 < l < k, l = k (the
    psi_r route), l > k and a negative weight on either side, N = 1..4,
    both modes, Re tau of either sign, tau with short and with full-width
    binary parts, Im tau below and above 1."""
    rng = random.Random(20261019)
    grid = []
    for k, l in ((12, 0), (7, 3), (4, 4), (3, 5), (0, 6), (6, 1), (8, -2), (-1, 5)):
        for N in (1, 2, 3, 4):
            mode = ("congruence", "elliptic")[(k + l + N) % 2]
            l1, l2 = rng.randrange(N), rng.randrange(N)
            if len(grid) % 2:
                tau = mpc(rng.uniform(-0.5, 0.5), rng.uniform(0.7, 2.0))
            else:  # 201-bit parts, exact at the working precision
                with mp.workprec(PREC + GUARD_BITS):
                    x = mpf(rng.randrange(-2 ** 200, 2 ** 200)) / 2 ** 201
                    tau = mpc(x, mpf(rng.randrange(2 ** 199, 2 ** 201)) / 2 ** 200)
            grid.append((k, l, N, (l1, l2), mode, rng.randrange(3, 13), tau))
    return grid


@pytest.mark.parametrize("k, l, N, lam_pair, mode, R, tau", _lattice_grid())
def test_lattice_sum_within_stated_bound(k, l, N, lam_pair, mode, R, tau):
    params = LatticeParams(k, l, N, lam(N, *lam_pair), mode, R)
    want, size, n, m = direct_lattice_sum(params, tau, 4 * PREC)
    got = lattice_sum(params, tau, PREC)
    assert abs(got - want) <= lattice_sum_bound(params, size, n, m)
    assert abs(got - want) <= mpf(2) ** -PREC * size


@pytest.mark.parametrize(
    "tau",
    [
        mpc(mpf("1e-100000"), mpf("1.5")),  # the parts 332,000 binary places apart
        mpc(mpf("0.3"), mpf("1e100000")),
        mpc(mpf("-1e100000"), mpf("0.5")),
        mpc(mpf("0.3"), mpf("1e-30")),
    ],
    ids=["tiny_real_part", "huge_imaginary_part", "huge_real_part", "tiny_imaginary_part"],
)
@pytest.mark.parametrize(
    "mode, k, l, N, lam_pair",
    [
        ("elliptic", 7, 5, 3, (1, 2)),
        ("congruence", 12, 0, 2, (0, 1)),
        ("congruence", 6, 4, 3, (1, 2)),  # no point with c = 0
    ],
)
def test_lattice_sum_parts_far_apart(tau, mode, k, l, N, lam_pair):
    """Bits far below the larger part of tau are dropped, so the integers
    stay near the working precision: fast, and within the stated bound.
    That bound follows the largest term, so the sum keeps about PREC bits
    relative to the terms however small or large they are."""
    params = LatticeParams(k, l, N, lam(N, *lam_pair), mode, 8)
    start = time.perf_counter()
    got = lattice_sum(params, tau, PREC)
    assert time.perf_counter() - start < 0.25
    want, size, n, m = direct_lattice_sum(params, tau, 4 * PREC)
    assert abs(got - want) <= lattice_sum_bound(params, size, n, m)
    assert abs(got - want) <= mpf(2) ** -PREC * size


def test_divisor_pairs_cached_value_is_immutable():
    pairs = _divisor_pairs(12)
    assert pairs[12] == ((1, 12), (2, 6), (3, 4), (4, 3), (6, 2), (12, 1))
    assert pairs[0] == () and len(pairs) == 13
    with pytest.raises(AttributeError):
        pairs[12].append((0, 0))
    with pytest.raises(TypeError):
        pairs[12] = ()
    assert _divisor_pairs(12) is pairs


class TestSerialization:
    def test_holo_json_round_data(self):
        f = e_fourier(4, lam(2, 0, 1), 2, 3)
        doc = f.to_json()
        assert doc["kind"] == "e" and doc["k"] == 4 and doc["N"] == 2
        assert doc["lambda"] == [0, 1]
        assert doc["constant"] == "1/720"
        assert len(doc["coeffs"]) == 3

    def test_maass_json_keys(self):
        m = maass_fourier(3, 1, lam(1, 0, 0), 1, 2, PREC)
        doc = m.to_json()
        assert doc["kind"] == "maass" and doc["l"] == 1
        assert "-3" in doc["nonholo"]
