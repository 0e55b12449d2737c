"""SL2(Z) utilities: matrices, S/T word decomposition by the Euclidean
algorithm, enumeration of SL2(Z/N) = Gamma(N) \\ SL2(Z) by residues, the
right action on residue pairs, and the coset quotients the cocycle engine
runs on, built from partitions already closed under right multiplication,
such as the lambda-orbit.

A coset is its residue matrix: the engine transports parameters and looks up
right multiplication on residues only, so no coset is lifted to SL2(Z).
Coset tables are immutable after construction; everything is pure.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import floor
from typing import List, Sequence, Tuple


@dataclass(frozen=True)
class Mat2:
    """Integer 2x2 matrix (a b; c d) with determinant 1."""

    a: int
    b: int
    c: int
    d: int

    def __post_init__(self):
        if self.a * self.d - self.b * self.c != 1:
            raise ValueError(f"determinant must be 1: {self}")

    def __mul__(self, other: "Mat2") -> "Mat2":
        return Mat2(
            self.a * other.a + self.b * other.c,
            self.a * other.b + self.b * other.d,
            self.c * other.a + self.d * other.c,
            self.c * other.b + self.d * other.d,
        )

    def inverse(self) -> "Mat2":
        return Mat2(self.d, -self.b, -self.c, self.a)

    def __iter__(self):
        """Unpack as a, b, c, d = gamma, like a residue tuple of a coset."""
        return iter((self.a, self.b, self.c, self.d))

    def is_congruent_to_identity(self, N: int) -> bool:
        return (
            self.a % N == 1 % N
            and self.d % N == 1 % N
            and self.b % N == 0
            and self.c % N == 0
        )


IDENTITY = Mat2(1, 0, 0, 1)
T = Mat2(1, 1, 0, 1)
S = Mat2(0, -1, 1, 0)


def t_power(n: int) -> Mat2:
    return Mat2(1, n, 0, 1)


# tokens: ("S", 1) or ("T", n) with n a nonzero integer (run-length compressed)
Token = Tuple[str, int]


class STWord:
    """Word in the generators; stored with T-power run compression, expanded
    to single letters S / T / T^-1 on demand (S^-1 is spelled S^3)."""

    __slots__ = ("tokens",)

    def __init__(self, tokens: List[Token]):
        self.tokens = [t for t in tokens if not (t[0] == "T" and t[1] == 0)]

    def letters(self) -> List[str]:
        out = []
        for kind, n in self.tokens:
            if kind == "S":
                out.extend(["S"] * n)
            else:
                out.extend(["T" if n > 0 else "T^-1"] * abs(n))
        return out

    def to_matrix(self) -> Mat2:
        acc = IDENTITY
        for kind, n in self.tokens:
            if kind == "S":
                for _ in range(n):
                    acc = acc * S
            else:
                acc = acc * t_power(n)
        return acc

    def __len__(self):
        return len(self.letters())

    def __repr__(self):
        return f"STWord({self.tokens})"


def decompose_ST(gamma: Mat2) -> STWord:
    """Express gamma as a word in S and T by the continued-fraction algorithm
    on the left column; -Id is spelled S^2.

    Peels gamma = T^q S gamma' with |c'| <= |c|/2 (nearest-integer division),
    so the word length is O(log max-entry).
    """
    tokens: List[Token] = []
    g = gamma
    while g.c != 0:
        q = floor(Fraction(g.a, g.c) + Fraction(1, 2))
        if q:
            tokens.append(("T", q))
        tokens.append(("S", 1))
        # g <- S^-1 T^-q g
        a, b = g.a - q * g.c, g.b - q * g.d
        g = Mat2(g.c, g.d, -a, -b)
    # now g = +-T^n
    if g.a == 1:
        if g.b:
            tokens.append(("T", g.b))
    else:  # g = -T^-n, and -Id = S^2
        tokens.append(("S", 2))
        if g.b:
            tokens.append(("T", -g.b))
    return STWord(tokens)


@dataclass(frozen=True)
class ResiduePair:
    """Row vector (l1, l2) in (Z/N)^2 with the canonical lift in [0, N)^2."""

    N: int
    l1: int
    l2: int

    def __post_init__(self):
        if self.N < 1:
            raise ValueError("modulus must be >= 1")
        object.__setattr__(self, "l1", self.l1 % self.N)
        object.__setattr__(self, "l2", self.l2 % self.N)

    def act(self, gamma) -> "ResiduePair":
        """Right action (l1, l2) gamma = (l1 a + l2 c, l1 b + l2 d) mod N, for
        a Mat2 or the residues (a, b, c, d) of a coset."""
        a, b, c, d = gamma
        return ResiduePair(self.N, self.l1 * a + self.l2 * c, self.l1 * b + self.l2 * d)

    def is_zero(self) -> bool:
        return self.l1 == 0 and self.l2 == 0

    def pair(self) -> Tuple[int, int]:
        return (self.l1, self.l2)

    def __repr__(self):
        return f"({self.l1},{self.l2}) mod {self.N}"


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


class _RightMultiplication:
    """Right multiplication by T and T^-1 on a set of indexed items (the
    cosets of a CosetTable, or the classes of a CosetQuotient); T^N acts
    trivially."""

    N: int
    rmul_T: Tuple[int, ...]
    rmul_T_inv: Tuple[int, ...]

    def rmul_t_power(self, i: int, n: int) -> int:
        table = self.rmul_T if n >= 0 else self.rmul_T_inv
        for _ in range(abs(n) % self.N if self.N > 1 else 0):
            i = table[i]
        return i


class CosetTable(_RightMultiplication):
    """Enumeration of SL2(Z/N) with right-multiplication tables for T, T^-1
    and S^-1; this indexes the cosets Gamma(N) \\ SL2(Z).

    Each element is its residue matrix (a, b, c, d) with entries in [0, N),
    listed in lexicographic order, so the ordering is deterministic.
    """

    def __init__(self, N: int):
        self.N = N
        elems = []
        for a in range(N):
            for b in range(N):
                for c in range(N):
                    for d in range(N):
                        if (a * d - b * c) % N == 1 % N:
                            elems.append((a, b, c, d))
        self.elements: Tuple[Tuple[int, int, int, int], ...] = tuple(sorted(elems))
        self.lookup = {e: i for i, e in enumerate(self.elements)}
        self.rmul_T = self._rmul_table(T)
        self.rmul_T_inv = self._rmul_table(t_power(-1))
        self.rmul_S_inv = self._rmul_table(S.inverse())

    def _rmul_table(self, g: Mat2) -> Tuple[int, ...]:
        out = []
        for (a, b, c, d) in self.elements:
            prod = (
                (a * g.a + b * g.c) % self.N,
                (a * g.b + b * g.d) % self.N,
                (c * g.a + d * g.c) % self.N,
                (c * g.b + d * g.d) % self.N,
            )
            out.append(self.lookup[prod])
        return tuple(out)

    def __len__(self):
        return len(self.elements)

    def index_of(self, gamma: Mat2) -> int:
        key = (gamma.a % self.N, gamma.b % self.N, gamma.c % self.N, gamma.d % self.N)
        return self.lookup[key]

    def identity_index(self) -> int:
        return self.index_of(IDENTITY)


class CosetQuotient(_RightMultiplication):
    """A partition of a coset table that right multiplication by T and S maps
    class to class, with the right-multiplication tables on its classes.
    Classes are numbered in order of their first coset; built by closed."""

    class_of: Tuple[int, ...]
    representatives: Tuple[int, ...]

    @classmethod
    def closed(cls, table: CosetTable, class_of: Sequence[int]) -> "CosetQuotient":
        """The quotient by a partition that is already closed under right
        multiplication, given as class indices numbered in order of first
        coset."""
        quot = cls.__new__(cls)
        quot.N = table.N
        classes = quot.class_of = tuple(class_of)
        reps: List[int] = []  # the first coset of each class
        for i, c in enumerate(classes):
            if c == len(reps):
                reps.append(i)
        quot.representatives = tuple(reps)
        quot.rmul_T = tuple(classes[table.rmul_T[r]] for r in reps)
        quot.rmul_T_inv = tuple(classes[table.rmul_T_inv[r]] for r in reps)
        quot.rmul_S_inv = tuple(classes[table.rmul_S_inv[r]] for r in reps)
        return quot

    def __len__(self):
        return len(self.representatives)

    def expand(self, per_class: Sequence) -> list:
        """One entry per coset, in table order, from one entry per class."""
        return [per_class[c] for c in self.class_of]


@lru_cache(maxsize=32)
def enumerate_sl2(N: int) -> CosetTable:
    return CosetTable(N)


@lru_cache(maxsize=1024)
def parameter_orbit(lam: ResiduePair) -> Tuple[CosetQuotient, Tuple[ResiduePair, ...]]:
    """The orbit of lam under T and S, as the quotient of the coset table of
    level lam.N by the transported parameter lam sigma, and the parameter of
    each class.

    T and S generate SL2(Z/N), so the orbit is the set of the lam sigma: one
    pass over the cosets numbers them in order of first coset, which gives the
    coset -> orbit-index map.  The partition is closed under right
    multiplication, since lam (sigma g) = (lam sigma) g.  The orbit has at
    most N^2 elements, against |SL2(Z/N)| cosets.  Cached per (lam, N)."""
    table = enumerate_sl2(lam.N)
    N, l1, l2 = lam.N, lam.l1, lam.l2
    index: dict = {}
    # ResiduePair.act's formula on plain ints: a ResiduePair per coset costs
    # 1.5 s over every lambda of N <= 12, against 0.1 s here
    class_of = [
        index.setdefault(((l1 * a + l2 * c) % N, (l1 * b + l2 * d) % N), len(index))
        for a, b, c, d in table.elements
    ]
    params = tuple(ResiduePair(N, m1, m2) for m1, m2 in index)
    return CosetQuotient.closed(table, class_of), params


class IndexSetError(ValueError):
    """Parameter outside the admissible index set for the requested weight."""


def index_set(N: int, k: int) -> List[ResiduePair]:
    """Admissible residue parameters for weight k at level N: everything for
    even k >= 4 or odd k with N >= 3, the nonzero pairs for k = 2, and the
    empty set otherwise."""
    if k == 2:
        return [ResiduePair(N, a, b) for a in range(N) for b in range(N) if (a, b) != (0, 0)]
    if k >= 3 and (k % 2 == 0 or N >= 3):
        return [ResiduePair(N, a, b) for a in range(N) for b in range(N)]
    return []


def in_index_set(lam: ResiduePair, k: int) -> bool:
    if k == 2:
        return not lam.is_zero()
    return k >= 3 and (k % 2 == 0 or lam.N >= 3)


def admissible(k: int, lam: ResiduePair, N: int) -> ResiduePair:
    """lam reduced mod N; raises IndexSetError outside the index set."""
    lam = ResiduePair(N, lam.l1, lam.l2)
    if not in_index_set(lam, k):
        raise IndexSetError(f"parameter {lam} not admissible for weight {k}")
    return lam
