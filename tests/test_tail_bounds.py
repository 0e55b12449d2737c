"""The a-priori tail bounds of the three Fourier evaluation routes, and the
truncation by them: each bound must cover the difference between a sum cut
at J and a reference at 2J and 64 more bits, and the cut sums must give the
same bits as the full --trunc sums at the CLI defaults."""
import random

import pytest
from mpmath import mp, mpc, mpf

from eisperiods import invariant, lseries
from eisperiods.cli import GAMMAS
from eisperiods.eisenstein import elliptic_maass_fourier, elliptic_tail_bound, eval_fourier
from eisperiods.invariant import (
    QuadLatticeData,
    psi,
    psi_gamma_shift,
    psi_r_value,
    psi_tail_bound,
)
from eisperiods.lseries import LFunctionSpec, lvalue_numeric, lvalue_tail_bound
from eisperiods.modgroup import ResiduePair, index_set
from eisperiods.numerics import GUARD_BITS, TAIL_MARGIN, PrecisionError

PREC = 192
PSI_PREC = 256  # the CLI's precision for invariant and hecke
REF_BITS = 64
PRESETS = [(name, m) for name in ("gaussian", "eisenstein") for m in (2, 3)]


def setup_module():
    mp.prec = PREC + GUARD_BITS


def first_finite(bound) -> int:
    return next(J for J in range(1, 100) if mp.isfinite(bound(J)))


def _lvalue_grid():
    """Seeded (k, N, lam, s, J): N = 1..4, three weights each, an integer
    r and a non-integer s in (0.5, k - 0.5) per weight, J a few orders past
    the first finite bound."""
    rng = random.Random(13)
    grid = []
    for N in (1, 2, 3, 4):
        ks = [k for k in range(2, 9) if index_set(N, k)]
        for k in sorted(rng.sample(ks, 3)):
            lam = rng.choice(index_set(N, k))
            s_real = round(rng.uniform(0.5, k - 0.5), 3)
            if abs(s_real - round(s_real)) < 0.1:
                s_real += 0.25
            for s in (str(rng.randrange(1, k)), str(s_real)):
                grid.append((k, N, (lam.l1, lam.l2), s, rng.randrange(0, 8)))
    return grid


@pytest.mark.parametrize("k, N, lam_pair, s, extra", _lvalue_grid())
def test_lvalue_tail_bound_covers_the_tail(k, N, lam_pair, s, extra):
    s = mpf(s)
    sigma = max(s, k - s)
    J = first_finite(lambda J: lvalue_tail_bound(k, N, J, sigma)) + extra
    lam = ResiduePair(N, *lam_pair)
    got = lvalue_numeric(LFunctionSpec.for_e_series(k, lam, N, J), s, PREC)
    ref = lvalue_numeric(LFunctionSpec.for_e_series(k, lam, N, 2 * J), s, PREC + REF_BITS)
    bound = lvalue_tail_bound(k, N, J, sigma)
    assert mp.isfinite(bound)
    assert abs(got - ref) <= bound


def _psi_points(name):
    """The preset's Heegner point and a seeded point off it."""
    data = QuadLatticeData.preset(name)
    rng = random.Random(name)
    with mp.workprec(PSI_PREC + REF_BITS + GUARD_BITS):
        return data, [data.tau(PSI_PREC + REF_BITS), mpc(rng.uniform(-0.5, 0.5), rng.uniform(0.8, 1.6))]


@pytest.mark.parametrize("name, m", PRESETS)
def test_psi_tail_bound_covers_the_tail(name, m):
    data, points = _psi_points(name)
    for tau in points:
        J = first_finite(lambda J: psi_tail_bound(m, data, tau.imag, J)) + 2
        got = psi(m, data, data.lam, tau, J, PSI_PREC, tol=mp.inf).value
        ref = psi(m, data, data.lam, tau, 2 * J, PSI_PREC + REF_BITS, tol=mp.inf).value
        bound = psi_tail_bound(m, data, tau.imag, J)
        assert mp.isfinite(bound)
        assert abs(got - ref) <= bound


@pytest.mark.parametrize("name, m", PRESETS)
def test_psi_r_tail_bound_covers_the_tail(name, m):
    data = QuadLatticeData.preset(name)
    v = data.tau(PSI_PREC).imag
    for J in (2, 5, 9):
        got = psi_r_value(m, data, data.lam, J, PSI_PREC)
        ref = psi_r_value(m, data, data.lam, 2 * J, PSI_PREC + REF_BITS)
        bound = elliptic_tail_bound(m, m, 1, J, v)  # omega2 = 1
        assert abs(got - ref) <= bound


def _elliptic_grid():
    """Seeded (k, l, N, lam, tau, J) beyond psi_r's k = l: unequal and
    negative weights, N = 1..4, Im tau in [0.7, 2]."""
    rng = random.Random(20261020)
    grid = []
    for k, l in ((2, 2), (3, 3), (7, 5), (3, 6), (8, -2)):
        for N in (1, 2, 3, 4):
            tau = mpc(rng.uniform(-0.5, 0.5), rng.uniform(0.7, 2.0))
            grid.append((k, l, N, (rng.randrange(N), rng.randrange(N)), tau, rng.randrange(0, 6)))
    return grid


@pytest.mark.parametrize("k, l, N, lam_pair, tau, extra", _elliptic_grid())
def test_elliptic_tail_bound_covers_the_tail(k, l, N, lam_pair, tau, extra):
    J = first_finite(lambda J: elliptic_tail_bound(k, l, N, J, tau.imag)) + extra
    lam = ResiduePair(N, *lam_pair)
    got = eval_fourier(elliptic_maass_fourier(k, l, lam, N, J, PREC), tau, PREC)
    ref = eval_fourier(
        elliptic_maass_fourier(k, l, lam, N, 2 * J, PREC + REF_BITS), tau, PREC + REF_BITS
    )
    assert abs(got - ref) <= elliptic_tail_bound(k, l, N, J, tau.imag)


class TestPsiGuard:
    def test_guard_reads_the_bound(self):
        """PrecisionError exactly when the stated bound at M exceeds tol."""
        data = QuadLatticeData.preset("eisenstein")
        tau = data.tau(PSI_PREC)
        bound = psi_tail_bound(2, data, tau.imag, 12)
        with pytest.raises(PrecisionError):
            psi(2, data, data.lam, tau, 12, PSI_PREC, tol=bound * mpf("0.99"))
        assert psi(2, data, data.lam, tau, 12, PSI_PREC, tol=bound * mpf("1.01")).fourier_terms == 12

    def test_records_the_terms_summed(self, monkeypatch):
        """fourier_terms is the J actually summed: the least order whose
        bound is below the working precision, not the M asked for."""
        seen = []
        real = invariant.e_series_values

        def spy(k, lam, N, M, prec):
            seen.append(M)
            return real(k, lam, N, M, prec)

        monkeypatch.setattr(invariant, "e_series_values", spy)
        data = QuadLatticeData.preset("gaussian")
        tau = data.tau(PSI_PREC)
        J = psi(2, data, data.lam, tau, 400, PSI_PREC).fourier_terms
        assert seen == [J] and J < 400
        eps = mpf(2) ** -(PSI_PREC + GUARD_BITS + TAIL_MARGIN)
        assert psi_tail_bound(2, data, tau.imag, J) < eps <= psi_tail_bound(2, data, tau.imag, J - 1)
        assert psi(2, data, data.lam, tau, 20, PSI_PREC, tol=mp.inf).fourier_terms == 20


@pytest.fixture
def full_sums(monkeypatch):
    """Switch every cutoff off, so each route sums all --trunc terms; the
    caches that hold cut values under the same key are emptied on the way
    in and out."""

    def switch_off():
        monkeypatch.setattr(lseries, "tail_cutoff", lambda bound, M, prec: M)
        monkeypatch.setattr(invariant, "tail_cutoff", lambda bound, M, prec: M)
        clear()

    def clear():
        lseries._lvalue_terms.cache_clear()
        invariant._psi_value.cache_clear()

    clear()
    yield switch_off
    clear()


@pytest.mark.parametrize(
    "k, N, lam_pair", [(4, 1, (0, 0)), (6, 2, (1, 0)), (8, 3, (1, 2)), (4, 5, (1, 2))]
)
def test_lvalues_equal_the_full_sum(full_sums, k, N, lam_pair):
    """At the CLI defaults (192 bits, M = 200) the cut sums give the same
    bits as all 200 terms, at every r and at a non-integer s."""
    spec = LFunctionSpec.for_e_series(k, ResiduePair(N, *lam_pair), N, 200)
    args = list(range(1, k)) + [mpf(k) / 2 + mpf("0.3")]
    cut = [lvalue_numeric(spec, s, PREC) for s in args]
    full_sums()
    assert [lvalue_numeric(spec, s, PREC) for s in args] == cut


@pytest.mark.parametrize("name, m", PRESETS)
def test_invariant_equals_the_full_sum(full_sums, name, m):
    """At the CLI defaults (256 bits, M = 400) psi, its gamma shifts and
    psi_r give the same bits as all 400 terms."""
    data = QuadLatticeData.preset(name)

    def values():
        base = psi(m, data, data.lam, data.tau(PSI_PREC), 400, PSI_PREC)
        shifts = [psi_gamma_shift(m, data, GAMMAS[g], 400, PSI_PREC) for g in ("T", "S", "ST")]
        return base.value, shifts, psi_r_value(m, data, data.lam, 400, PSI_PREC), base.fourier_terms

    value, shifts, value_r, terms = values()
    full_sums()
    full_value, full_shifts, full_r, full_terms = values()
    assert (value, shifts, value_r) == (full_value, full_shifts, full_r)
    assert terms < full_terms == 400
