import random
from math import gcd

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from eisperiods import cocycle, lseries
from eisperiods.modgroup import (
    IDENTITY,
    CosetQuotient,
    IndexSetError,
    S,
    T,
    Mat2,
    ResiduePair,
    admissible,
    decompose_ST,
    enumerate_sl2,
    in_index_set,
    index_set,
    parameter_orbit,
    t_power,
)


def sl2_order(N: int) -> int:
    """|SL2(Z/N)| = N^3 prod_{p | N} (1 - p^-2)."""
    order = N ** 3
    n, p = N, 2
    while p * p <= n:
        if n % p == 0:
            order = order * (p * p - 1) // (p * p)
            while n % p == 0:
                n //= p
        p += 1
    if n > 1:
        order = order * (n * n - 1) // (n * n)
    return order


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
        acc = acc * {"S": S, "T": T, "T^-1": t_power(-1)}[letter]
    return acc


def residue_product(sigma, g, N):
    """The residues of sigma g mod N, for residues sigma and a matrix g."""
    a, b, c, d = sigma
    return (
        (a * g.a + b * g.c) % N,
        (a * g.b + b * g.d) % N,
        (c * g.a + d * g.c) % N,
        (c * g.b + d * g.d) % N,
    )


def brute_force_sl2_count(N):
    return sum(
        1
        for a in range(N)
        for b in range(N)
        for c in range(N)
        for d in range(N)
        if (a * d - b * c) % N == 1 % N
    )


def random_sl2z(rng, size):
    """Random element with entries up to roughly `size`, by extending a
    coprime bottom row (independent of the word decomposition under test)."""
    while True:
        c = rng.randrange(-size, size + 1)
        d = rng.randrange(-size, size + 1)
        if c == 0 and d == 0:
            continue
        from math import gcd

        if gcd(c, d) != 1:
            continue
        # a d - b c = 1
        import math

        g, x, y = _xgcd(d, -c)
        a, b = x, y
        # shift top row by a random multiple of the bottom row
        k = rng.randrange(-3, 4)
        return Mat2(a + k * c, b + k * d, c, d)


def _xgcd(p, q):
    old_r, r = p, q
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r:
        quo = old_r // r
        old_r, r = r, old_r - quo * r
        old_s, s = s, old_s - quo * s
        old_t, t = t, old_t - quo * t
    if old_r < 0:
        return -old_r, -old_s, -old_t
    return old_r, old_s, old_t


class TestDecompose:
    def test_identity(self):
        assert decompose_ST(IDENTITY) == []

    def test_st(self):
        g = Mat2(0, -1, 1, 1)
        w = decompose_ST(g)
        assert word_matrix(w) == g
        assert letters(w) == ["S", "T"]

    def test_lower_unipotent(self):
        g = Mat2(1, 0, 1, 1)
        assert word_matrix(decompose_ST(g)) == g

    def test_minus_identity(self):
        w = decompose_ST(Mat2(-1, 0, 0, -1))
        assert letters(w) == ["S", "S"]
        assert word_matrix(w) == Mat2(-1, 0, 0, -1)

    def test_round_trip_large_entries(self):
        rng = random.Random(42)
        import math

        for _ in range(1000):
            g = random_sl2z(rng, 10 ** 6)
            w = decompose_ST(g)
            assert word_matrix(w) == g
            # run-compressed length O(log max entry); C = 4 is a generous
            # measured bound for nearest-integer division
            assert len(w) <= 4 * max(2.0, math.log(max(map(abs, g)) + 1))

    @given(
        c=st.integers(min_value=-10 ** 4, max_value=10 ** 4),
        d=st.integers(min_value=-10 ** 4, max_value=10 ** 4),
        shift=st.integers(min_value=-1, max_value=1),
    )
    @settings(max_examples=300, deadline=None)
    def test_tokens_multiply_back(self, c, d, shift):
        # bottom row (c, d) coprime, top row from Bezout shifted by a multiple of it
        assume(gcd(c, d) == 1)
        _, a, b = _xgcd(d, -c)
        g = Mat2(a + shift * c, b + shift * d, c, d)
        acc = IDENTITY
        for kind, n in decompose_ST(g):
            assert (kind == "S" and n in (1, 2)) or (kind == "T" and n != 0)
            for _ in range(n if kind == "S" else 1):
                acc = acc * (S if kind == "S" else t_power(n))
        assert acc == g

    def test_letters_alphabet(self):
        rng = random.Random(1)
        for _ in range(50):
            g = random_sl2z(rng, 1000)
            assert set(letters(decompose_ST(g))) <= {"S", "T", "T^-1"}


class TestResidueAction:
    def test_identity(self):
        lam = ResiduePair(5, 2, 3)
        assert lam.act(IDENTITY) == lam

    def test_examples(self):
        for N in (2, 3, 7):
            assert ResiduePair(N, 0, 1).act(S) == ResiduePair(N, 1, 0)
            assert ResiduePair(N, 1, 0).act(T) == ResiduePair(N, 1, 1)

    def test_action_law(self):
        rng = random.Random(8)
        for _ in range(200):
            N = rng.randrange(1, 9)
            lam = ResiduePair(N, rng.randrange(N), rng.randrange(N))
            g1 = random_sl2z(rng, 30)
            g2 = random_sl2z(rng, 30)
            assert lam.act(g1).act(g2) == lam.act(g1 * g2)

    def test_residues_act_as_the_matrix(self):
        # a coset acts by its residues mod N: the same as any integer lift
        rng = random.Random(12)
        for _ in range(200):
            N = rng.randrange(1, 13)
            lam = ResiduePair(N, rng.randrange(N), rng.randrange(N))
            g = random_sl2z(rng, 50)
            assert lam.act(tuple(x % N for x in g)) == lam.act(g)

    def test_orbit_avoids_zero_for_weight_two(self):
        # the k = 2 index set (nonzero pairs) is stable under the group action
        for N in range(2, 7):
            for lam in index_set(N, 2):
                seen = set()
                stack = [lam]
                while stack:
                    cur = stack.pop()
                    if cur in seen:
                        continue
                    seen.add(cur)
                    assert not cur.is_zero()
                    stack.append(cur.act(T))
                    stack.append(cur.act(S))


class TestCosetTable:
    def test_sizes_match_closed_form(self):
        for N in range(1, 13):
            table = enumerate_sl2(N)
            assert len(table) == sl2_order(N)
            if N <= 4:
                assert len(table) == brute_force_sl2_count(N)

    def test_small_sizes(self):
        assert len(enumerate_sl2(1)) == 1
        assert len(enumerate_sl2(2)) == 6
        assert len(enumerate_sl2(3)) == 24

    def test_rmul_tables_are_permutations(self):
        for N in (2, 3, 4, 6):
            table = enumerate_sl2(N)
            n = len(table)
            for perm in (table.rmul_T_inv, table.rmul_S_inv):
                assert sorted(perm) == list(range(n))

    def test_rmul_consistency(self):
        for N in (2, 5):
            table = enumerate_sl2(N)
            full = CosetQuotient.closed(table, range(len(table)))
            for i, sigma in enumerate(table.elements):
                sigma_T = table.lookup[residue_product(sigma, T, N)]
                sigma_S = table.lookup[residue_product(sigma, S, N)]
                assert sigma_T == full.rmul_t_power(i, 1)
                assert table.rmul_T_inv[sigma_T] == i
                assert table.rmul_S_inv[sigma_S] == i

    def test_t_power_transport(self):
        """On the discrete quotient, one class per coset, rmul_t_power is
        right multiplication of the coset by T^n."""
        table = enumerate_sl2(4)
        full = CosetQuotient.closed(table, range(len(table)))
        g = Mat2(1, 2, 2, 5)
        i = table.index_of(g)
        for n in (-7, -1, 0, 1, 3, 4, 9):
            assert full.rmul_t_power(i, n) == table.index_of(g * t_power(n))
            want = table.lookup[residue_product(table.elements[i], t_power(n), 4)]
            assert full.rmul_t_power(i, n) == want


def moore_refinement(table, keys):
    """Reference: the coarsest partition that refines the per-coset keys and
    is closed under right multiplication by T and S, as class indices in
    order of first coset.  Split classes by the classes of the T^-1 and S^-1
    neighbours until no class splits; closure under the permutations T^-1
    and S^-1 of a finite set gives closure under T and S."""

    def number(items):
        ids = {}
        return [ids.setdefault(x, len(ids)) for x in items]

    cls = number(keys)
    while True:
        refined = number(zip(cls, [cls[t] for t in table.rmul_T_inv], [cls[s] for s in table.rmul_S_inv]))
        if refined == cls:
            return cls
        cls = refined


class TestCosetQuotient:
    def test_extremes(self):
        table = enumerate_sl2(3)
        n = len(table)
        one = CosetQuotient.closed(table, [0] * n)
        assert len(one) == 1 and one.class_of == (0,) * n
        assert one.rmul_T_inv == one.rmul_S_inv == (0,)
        full = CosetQuotient.closed(table, range(n))
        assert full.class_of == tuple(range(n)) and full.representatives == tuple(range(n))
        assert (full.rmul_T_inv, full.rmul_S_inv) == (table.rmul_T_inv, table.rmul_S_inv)
        for i, sigma in enumerate(table.elements):
            for m in (-5, -1, 1, 2, 7):
                assert full.rmul_t_power(i, m) == table.lookup[residue_product(sigma, t_power(m), 3)]
                assert one.rmul_t_power(0, m) == 0
        # T acts trivially at level 1
        level_one = CosetQuotient.closed(enumerate_sl2(1), [0])
        assert all(level_one.rmul_t_power(0, m) == 0 for m in (-5, -1, 0, 1, 2, 7))

    def test_class_tables_follow_the_cosets(self):
        """On a closed quotient coarser than the table, right multiplication
        of a class is that of any of its cosets."""
        table = enumerate_sl2(4)
        quot, _ = parameter_orbit(ResiduePair(4, 2, 1))
        assert 1 < len(quot) < len(table)
        for i, c in enumerate(quot.class_of):
            assert quot.rmul_T_inv[c] == quot.class_of[table.rmul_T_inv[i]]
            assert quot.rmul_S_inv[c] == quot.class_of[table.rmul_S_inv[i]]
            for m in (-5, -1, 1, 2, 7):
                sigma_t = table.lookup[residue_product(table.elements[i], t_power(m), 4)]
                assert quot.rmul_t_power(c, m) == quot.class_of[sigma_t]

    def test_parameter_orbit_matches_refinement(self):
        """The lambda-orbit quotient, read off one pass over the cosets with no
        refinement, is the quotient that Moore refinement of the keys
        lambda sigma finds."""
        for N in range(1, 13):
            table = enumerate_sl2(N)
            for lam in index_set(N, 4):
                orbit, params = parameter_orbit(lam)
                refined = moore_refinement(table, [lam.act(sigma) for sigma in table.elements])
                quot = CosetQuotient.closed(table, refined)
                for attr in ("class_of", "representatives", "rmul_T_inv", "rmul_S_inv"):
                    assert getattr(orbit, attr) == getattr(quot, attr), (lam, attr)
                assert params == tuple(lam.act(table.elements[r]) for r in quot.representatives)
                assert len(params) <= N * N

    def test_orbit_is_the_gcd_class(self):
        """SL2(Z/N) acts on (Z/N)^2 with one orbit per value of
        gcd(l1, l2, N): for every lambda with N <= 12 (650 cases) the
        parameters of parameter_orbit are exactly the mu with
        gcd(mu1, mu2, N) = gcd(l1, l2, N), each once."""
        cases = 0
        for N in range(1, 13):
            for l1 in range(N):
                for l2 in range(N):
                    lam = ResiduePair(N, l1, l2)
                    _, params = parameter_orbit(lam)
                    want = {
                        (m1, m2) for m1 in range(N) for m2 in range(N)
                        if gcd(m1, m2, N) == gcd(l1, l2, N)
                    }
                    assert len(params) == len(want) and {mu.pair() for mu in params} == want, lam
                    cases += 1
        assert cases == 650


class TestIndexSet:
    def test_weight_two_excludes_zero(self):
        assert len(index_set(2, 2)) == 3
        assert all(not lam.is_zero() for lam in index_set(2, 2))

    def test_odd_weight_needs_level_three(self):
        assert index_set(2, 3) == []
        assert len(index_set(3, 3)) == 9

    def test_even_weight_full(self):
        assert len(index_set(2, 4)) == 4
        assert len(index_set(1, 4)) == 1
        assert len(index_set(1, 2)) == 0

    def test_membership_helper(self):
        assert in_index_set(ResiduePair(2, 0, 1), 2)
        assert not in_index_set(ResiduePair(2, 0, 0), 2)
        assert not in_index_set(ResiduePair(2, 1, 1), 3)
        assert in_index_set(ResiduePair(3, 0, 0), 3)

    def test_admissible_reduces_and_rejects(self):
        assert admissible(4, ResiduePair(6, 5, 4), 3) == ResiduePair(3, 2, 1)
        for k, lam, N in ((2, ResiduePair(2, 2, 4), 2), (3, ResiduePair(2, 1, 1), 2)):
            with pytest.raises(IndexSetError, match="not admissible"):
                admissible(k, lam, N)

    def test_every_entry_point_rejects_through_admissible(self):
        """The cocycle and L-value entry points raise the one IndexSetError
        for a parameter outside the index set (psi has even weight >= 4,
        where every parameter is admissible)."""
        zero = ResiduePair(2, 0, 0)
        calls = [
            lambda: cocycle.period_T(2, zero, 2),
            lambda: lseries.lvalue_closed(2, zero, 2, 1),
            lambda: lseries.lvalue_lerch_product(3, ResiduePair(2, 1, 1), 2, 2),
        ]
        for call in calls:
            with pytest.raises(IndexSetError):
                call()
