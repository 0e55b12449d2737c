import dataclasses
import importlib
import inspect
import pkgutil
import random

import pytest
from mpmath import mp, mpc, mpf

import eisperiods
from eisperiods import cocycle, eisenstein, invariant, lseries, numerics
from eisperiods.eisenstein import (
    LatticeParams,
    e_fourier,
    eval_fourier,
    g_fourier,
    lattice_sum,
)
from eisperiods.exact import QQ, bernoulli_value
from eisperiods.invariant import QuadLatticeData, psi
from eisperiods.lseries import LFunctionSpec, lvalue_closed, lvalue_lerch_product, lvalue_numeric
from eisperiods.modgroup import ResiduePair
from eisperiods.numerics import (
    GUARD_BITS,
    PoleError,
    e_of,
    exp_mellin_row,
    hurwitz_zeta,
    hurwitz_zeta_ds,
    polylog,
    polylog_s,
    prec_guard,
    rational_reconstruct,
    raw_scale,
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


class TestHurwitzCache:
    """hurwitz_zeta and hurwitz_zeta_ds are memoised on (a, s, prec) as
    passed; an entry must hold the bits the bare function computes."""

    FUNCTIONS = (hurwitz_zeta, hurwitz_zeta_ds)

    @staticmethod
    def _cases(rng):
        """Seeded (a, s): a in (0, 1], s a non-positive integer, a positive
        integer other than 1, a real non-integer and a complex number."""
        for _ in range(3):
            den = rng.randint(1, 12)
            a = QQ(rng.randint(1, den), den)
            yield a, -rng.randint(0, 10)
            yield a, rng.randint(2, 12)
            yield a, mpf(rng.randint(-80, 80)) / 8 + mpf(1) / 16
            yield a, mpc(mpf(rng.randint(-40, 40)) / 8, mpf(rng.randint(1, 40)) / 8)

    @pytest.mark.parametrize("fn", FUNCTIONS, ids=lambda f: f.__name__)
    def test_cached_bits_equal_uncached(self, fn):
        rng = random.Random(41)
        fn.cache_clear()
        for a, s in self._cases(rng):
            with mp.workprec(53):
                want = fn.__wrapped__(a, s, PREC)
            with mp.workprec(4 * PREC):
                got = fn(a, s, PREC)
            assert fn(a, s, PREC) is got
            assert got._mpc_ == want._mpc_
        assert fn.cache_info().hits == fn.cache_info().misses == 12

    @pytest.mark.parametrize("fn", FUNCTIONS, ids=lambda f: f.__name__)
    def test_keys_equal_in_value_share_bits(self, fn):
        """Keys equal in value share an entry when they hash alike (mpmath
        hashes a negative real mpc unlike the int), so whichever type fills
        it, every type must compute the same bits."""
        forms = [
            ((1, QQ(1)), (2, QQ(2), mpf(2), mpc(2))),
            ((QQ(1, 2), QQ(2, 4)), (-3, QQ(-3), mpf(-3), mpc(-3, 0))),
            ((QQ(2, 3),), (QQ(5, 2), mpf("2.5"), mpc("2.5"))),
            ((QQ(3, 4),), (mpc("0.5", "3.25"), complex(0.5, 3.25))),
        ]
        for a_forms, s_forms in forms:
            keys = [(a, s) for a in a_forms for s in s_forms]
            bits = {fn.__wrapped__(a, s, PREC)._mpc_ for a, s in keys}
            assert len(bits) == 1
            for order in (keys, keys[::-1]):
                fn.cache_clear()
                assert {fn(a, s, PREC)._mpc_ for a, s in order} == bits


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
# inputs carrying PREC + 16 bits: a function that converted them before
# setting its working precision would round them to the caller's 53 bits
with mp.workprec(PREC + 16):
    _TAU_EIS = _EIS.tau(PREC)
    _S_WIDE = mpf(7) / 3
_E_SERIES = e_fourier(4, ResiduePair(3, 1, 2), 3, 8)
_L_SPEC = LFunctionSpec.for_e_series(4, ResiduePair(3, 1, 2), 3, 30)

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
    "psi_heegner_tau": lambda: psi(2, _EIS, _EIS.lam, _TAU_EIS, M=60, prec=PREC).value,
    "lattice_sum_heegner_tau": lambda: lattice_sum(
        LatticeParams(12, 0, 1, ResiduePair(1, 0, 0), "congruence", 3), _TAU_EIS, PREC
    ),
    "eval_fourier_heegner_tau": lambda: eval_fourier(_E_SERIES, _TAU_EIS, PREC),
    "hurwitz_zeta_wide_s": lambda: hurwitz_zeta(QQ(1, 3), _S_WIDE, PREC),
    "lvalue_numeric_wide_s": lambda: lvalue_numeric(_L_SPEC, _S_WIDE, PREC),
    "lvalue_lerch_product_wide_s": lambda: lvalue_lerch_product(
        4, ResiduePair(3, 1, 2), 3, _S_WIDE, PREC
    ),
}


@pytest.mark.parametrize("name", sorted(AMBIENT_CASES))
def test_result_precision_ignores_ambient(name):
    """A result asked for at PREC bits carries them, and is the same, even
    when the caller's mpmath precision is the 53-bit default; inputs wider
    than 53 bits are read at the working precision, not rounded first."""
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


def _prec_functions(module):
    """(qualified name, function) for every function and method defined in
    module that takes a prec argument."""
    for name, obj in vars(module).items():
        if getattr(obj, "__module__", None) != module.__name__:
            continue
        members = vars(obj).items() if inspect.isclass(obj) else [(None, obj)]
        for attr, member in members:
            if attr == "__init__" and dataclasses.is_dataclass(obj):
                continue  # generated; it stores a prec field and computes nothing
            fn = getattr(member, "__func__", getattr(member, "fget", member))
            if not callable(fn):
                continue
            try:
                params = inspect.signature(fn).parameters
            except (TypeError, ValueError):
                continue
            if "prec" in params:
                yield ".".join(filter(None, (module.__name__, name, attr))), fn


def test_every_prec_function_is_guarded():
    """The precision contract holds by construction only if every function
    that takes prec runs under prec_guard."""
    modules = (numerics, eisenstein, lseries, invariant, cocycle)
    found = dict(item for mod in modules for item in _prec_functions(mod))
    for name in (
        "eisperiods.numerics._polylog_cached",
        "eisperiods.eisenstein.lattice_sum",
        "eisperiods.eisenstein.e_series_values",
        "eisperiods.lseries._lvalue_terms",
        "eisperiods.numerics.tail_cutoff",
        "eisperiods.invariant.QuadLatticeData.tau",
        "eisperiods.invariant.BiPoly.substitute",
        "eisperiods.numerics.ext_scalar_value",
    ):
        assert name in found
    unguarded = [name for name, fn in found.items() if not getattr(fn, "prec_guarded", False)]
    assert unguarded == []


# s below 0, in (0, 1), within 2^-20 of an integer (0 included) and up to
# 16, as exact binary floats; rows whose a_j = 2 pi j / N run from
# 2 pi / 1000 to 2 pi 70 > 400
KERNEL_ARGUMENTS = [-1.3, 0.37, 15.7, 1 - 2.0 ** -21, 7 + 2.0 ** -23, -2 + 2.0 ** -22, 2.0 ** -25]
KERNEL_ROWS = ((1000, 3), (12, 40), (1, 70))


@pytest.mark.parametrize("prec", [53, 192, 256])
def test_exp_mellin_row_against_gammainc(prec):
    """Every sampled value of the kernel is within 2^-(prec + 12) relative of
    a^-s Gamma(s, a) from mp.gammainc at prec + 64 bits, a taken at that
    precision; the samples include the last j of each row below the
    crossover and the first above it.  Every value also obeys |E| <=
    e^-a / (a - c), c = max(s - 1, 0), the bound `lvalue_tail_bound`
    assumes."""
    rng = random.Random(prec)
    args = KERNEL_ARGUMENTS + [-rng.uniform(0.1, 8), rng.uniform(0.05, 0.95), rng.uniform(1, 16)]
    a_x = (prec + GUARD_BITS) / 13
    eps = mpf(2) ** -(prec + 12)
    for s in args:
        for N, J in KERNEL_ROWS:
            row = exp_mellin_row(s, N, J, prec)
            assert len(row) == J
            j_x = int(a_x * N / (2 * mp.pi)) + 1  # first j with a_j >= a_x
            js = {1, J, j_x - 1, j_x, *rng.sample(range(1, J + 1), 3)}
            with mp.workprec(prec + 64):
                c = max(mpf(s) - 1, 0)
                for j in range(1, J + 1):
                    a = 2 * mp.pi * j / N
                    if j in js:
                        want = mp.power(a, -s) * mp.gammainc(s, a, mp.inf)
                        assert abs(row[j - 1] - want) <= eps * want, (s, N, j)
                    if a > c:
                        assert abs(row[j - 1]) <= mp.exp(-a) / (a - c), (s, N, j)


def test_exp_mellin_row_is_a_prefix_and_rejects_poles():
    """A row is the prefix of any longer one, bit for bit (the sums cut by
    `tail_cutoff` rely on it), and s at a pole of Gamma is refused."""
    s = mpf(2.3)
    assert exp_mellin_row(s, 3, 20, PREC) == exp_mellin_row(s, 3, 200, PREC)[:20]
    for pole in (0, -2):
        with pytest.raises(ValueError):
            exp_mellin_row(pole, 3, 5, PREC)


def _lru_caches():
    """(qualified name, cache_parameters()) for every lru_cache bound at
    module or class level anywhere in the package."""
    for info in pkgutil.iter_modules(eisperiods.__path__, "eisperiods."):
        module = importlib.import_module(info.name)
        for name, obj in vars(module).items():
            members = vars(obj).items() if inspect.isclass(obj) else [(None, obj)]
            for attr, member in members:
                fn = getattr(member, "__func__", getattr(member, "fget", member))
                if hasattr(fn, "cache_parameters"):
                    yield ".".join(filter(None, (info.name, name, attr))), fn.cache_parameters()


def test_every_cache_is_bounded():
    """An unbounded cache grows with every new argument for the life of the
    process; every cache in the package has a finite maxsize."""
    found = dict(_lru_caches())
    for name in (
        "eisperiods.cli.build_parser",
        "eisperiods.cocycle._action_matrix",
        "eisperiods.cocycle._modified",
        "eisperiods.cocycle._orbit_relations_hold",
        "eisperiods.cocycle._poly_json",
        "eisperiods.cocycle._t_run_matrix",
        "eisperiods.cocycle.period_S",
        "eisperiods.cocycle.period_T",
        "eisperiods.exact._bernoulli_numbers",
        "eisperiods.exact.euler_phi",
        "eisperiods.invariant._psi_value",
        "eisperiods.lseries._exp_mellin",
        "eisperiods.lseries._lvalue_terms",
        "eisperiods.lseries._mellin_row",
        "eisperiods.modgroup._residue_pairs",
        "eisperiods.modgroup.parameter_orbit",
        "eisperiods.numerics._polylog_cached",
        "eisperiods.numerics.e_of",
        "eisperiods.numerics.hurwitz_zeta",
        "eisperiods.numerics.hurwitz_zeta_ds",
    ):
        assert name in found
    assert [name for name, params in found.items() if params["maxsize"] is None] == []


def test_e_of_cache_ignores_ambient_precision():
    """e_of is memoised on (x, prec) alone, so the value it hands out must
    not depend on the ambient precision of the call that filled the entry."""
    x = QQ(5, 7)
    values = []
    for ambient in (53, 600):
        e_of.cache_clear()
        with mp.workprec(ambient):
            first = e_of(x, PREC)
        with mp.workprec(53 + 600 - ambient):
            again = e_of(x, PREC)
        assert again is first and e_of.cache_info().hits == 1
        values.append(first._mpc_)
    assert values[0] == values[1]
    assert values[0][0][3] > PREC  # carries prec + GUARD_BITS bits, not 53


def test_prec_guard_reads_prec_however_passed():
    """The guard finds prec by position, keyword or default, and restores the
    caller's precision on return and on an exception."""
    @prec_guard
    def working_prec(x, prec=100):
        return mp.prec

    @prec_guard
    def needs_prec(x, prec):
        return mp.prec

    assert working_prec(0) == 100 + GUARD_BITS
    assert working_prec(0, 64) == 64 + GUARD_BITS
    assert working_prec(0, prec=64) == 64 + GUARD_BITS
    assert needs_prec(0, 80) == 80 + GUARD_BITS
    saved = mp.prec
    with pytest.raises(TypeError):
        needs_prec(0)
    with pytest.raises(PoleError):
        hurwitz_zeta(1, 1, 64)  # raised inside the guard
    assert mp.prec == saved
