"""The benchmark's three workloads.

Each workload builds its inputs from the seed, lists its operations (one
``eisp`` invocation, in-process through ``cli.main`` with the report written
by ``--out``, or one library call that no subcommand covers), and checks
every output with ``checks``.  The amount of work is fixed by the workload;
the seed only moves inputs that do not change it (matrix entries of the same
size, tau points, functional-equation arguments).

Library calls into the numeric layer run under an explicit ``mp.workprec``:
several numeric functions round their result to the ambient ``mp.prec``
instead of their ``prec`` argument, and the CLI wraps every command the same
way.
"""
from __future__ import annotations

import json
import os
import random
from functools import partial

from mpmath import mp, mpc, mpf

from eisperiods import cli, cocycle, eisenstein, exact, invariant, lseries, modgroup, numerics

import checks

MODULES = {
    "cli": cli,
    "cocycle": cocycle,
    "modgroup": modgroup,
    "exact": exact,
    "numerics": numerics,
    "eisenstein": eisenstein,
    "lseries": lseries,
    "invariant": invariant,
}

PREC = 192
WORKPREC = PREC + 16  # the guard bits the CLI adds around each command


class OperationFailed(Exception):
    pass


class Workload:
    name = ""

    def __init__(self, seed: int, workdir: str):
        self.rng = random.Random(seed)
        self.workdir = workdir
        self.report_bytes = 0

    def eisp(self, label: str, *argv: str) -> str:
        """Run one eisp command; return the path of its JSON report."""
        path = os.path.join(self.workdir, label + ".json")
        try:
            code = cli.main([*argv, "--out", path])
        except SystemExit as exc:  # argparse rejects a configuration this way
            code = exc.code
        if code != 0:
            raise OperationFailed(f"eisp {' '.join(argv)} exited with {code}")
        self.report_bytes += os.path.getsize(path)
        return path

    def operations(self) -> list:
        """(label, callable) pairs; each callable returns the operation's output."""
        raise NotImplementedError

    def check(self, outputs: dict) -> list:
        """Failure messages for the outputs of the operations that succeeded."""
        raise NotImplementedError


def load(path: str) -> dict:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def run_checks(outputs: dict, pending: list) -> list:
    """Apply each (label, check) to its output; skip labels whose operation
    failed, since those are counted as failed rather than incorrect."""
    out = []
    for label, check in pending:
        if label in outputs:
            try:
                out.extend(check(outputs[label]))
            except Exception as exc:  # a malformed output fails its check
                out.append(f"{label}: output could not be checked: {exc!r}")
    return out


# ---------------------------------------------------------------------------


class CocycleSweep(Workload):
    """The exact engine over every admissible cell with N <= 4, k <= 8."""

    name = "cocycle-sweep"
    N_MAX, K_MAX = 4, 8
    # cells for the cocycle identity on seeded pairs; one with 48 cosets
    PAIR_CELLS = [(6, 4, 1, 2), (5, 3, 1, 0)]
    PAIR_FACTORS = 4  # g and h are each a product of this many T^a S
    T_RUN = (1000, 10000)  # |a|: every T-run is longer than N
    PERTURBED_CELL = (6, 4, 2, 1)

    def __init__(self, seed: int, workdir: str):
        super().__init__(seed, workdir)
        self.cells = checks.admissible_cells(self.N_MAX, self.K_MAX)
        self.pairs = [(cell, self._word(), self._word()) for cell in self.PAIR_CELLS]

    def _word(self):
        g = (1, 0, 0, 1)
        for _ in range(self.PAIR_FACTORS):
            a = self.rng.randint(*self.T_RUN) * self.rng.choice((1, -1))
            g = checks.mat_mul(checks.mat_mul(g, (1, a, 0, 1)), (0, -1, 1, 0))
        return g

    def operations(self) -> list:
        ops = [
            ("rationality", partial(
                self.eisp, "rationality", "rationality",
                "--k-max", str(self.K_MAX), "--N-max", str(self.N_MAX), "--values",
            )),
            ("relations", partial(
                self.eisp, "relations", "relations",
                "--k-max", str(self.K_MAX), "--N-max", str(self.N_MAX),
            )),
        ]
        ops += [(f"descent {cell}", partial(self._descend, cell)) for cell in self.cells]
        ops += [(f"pair {i}", partial(self._pair, *p)) for i, p in enumerate(self.pairs)]
        ops.append(("perturbed", self._perturbed))
        return ops

    @staticmethod
    def _cochain(cell):
        k, N, l1, l2 = cell
        return cocycle.build_induced(k, modgroup.ResiduePair(N, l1, l2), N)

    def _descend(self, cell):
        return cocycle.shapiro_descend(self._cochain(cell), modgroup.t_power(cell[1]))

    def _pair(self, cell, g, h):
        c = self._cochain(cell)
        gh = checks.mat_mul(g, h)
        return {
            "elements": c.table.elements,
            "h": h,
            "gh": cocycle.evaluate_cocycle(c, modgroup.Mat2(*gh)),
            "g": cocycle.evaluate_cocycle(c, modgroup.Mat2(*g)),
            "hh": cocycle.evaluate_cocycle(c, modgroup.Mat2(*h)),
        }

    def _perturbed(self):
        bad = self._cochain(self.PERTURBED_CELL).copy()
        polys = list(bad.val_S)
        coeffs = list(polys[0].coeffs)
        coeffs[1] = coeffs[1] + exact.ExtScalar(exact.QQ(1, 5))
        polys[0] = cocycle.PeriodPoly(self.PERTURBED_CELL[0], coeffs)
        bad.val_S = polys
        return cocycle.verify_relations(bad)

    def check(self, outputs: dict) -> list:
        def pair(cell, out):
            c_gh, c_g, c_h = ([p.to_json() for p in out[key]] for key in ("gh", "g", "hh"))
            return checks.check_cocycle_identity(cell, out["elements"], out["h"], c_gh, c_g, c_h)

        pending = [
            ("rationality", lambda p: checks.check_rationality_report(load(p), self.cells)),
            ("relations", lambda p: checks.check_relations_report(load(p), self.cells)),
            ("perturbed", checks.check_perturbed_rejected),
        ]
        pending += [
            (f"descent {cell}", partial(lambda c, v: checks.check_descent(c, v.to_json()), cell))
            for cell in self.cells
        ]
        pending += [(f"pair {i}", partial(pair, p[0])) for i, p in enumerate(self.pairs)]
        return run_checks(outputs, pending)


# ---------------------------------------------------------------------------


def lattice_radius(w: int, tol: float = 1e-21) -> int:
    """Smallest R with 0.33 * 1.118^w * R^(2-w) <= tol.  0.33 R^(2-w) is the
    measured tail at tau = i; for Re tau in [-1/2, 1/2], Im tau >= 1 every
    |c tau + d| is at least max(|c|, |d|) / 1.118, hence the extra factor."""
    R = 1
    while 0.33 * 1.118 ** w * R ** (2 - w) > tol:
        R += 1
    return R


class LatticeCheck(Workload):
    """Fourier expansions against the direct lattice sum, at tol 1e-18."""

    name = "lattice-check"
    TOL = "1e-18"
    M = 100
    # (label, kind, k, l, N, (l1, l2)); tau is drawn from the seed
    SEEDED = [
        ("e13", "e", 13, 0, 3, (1, 2)),
        ("g12", "g", 12, 0, 2, (1, 0)),
        ("maass7-5", "maass", 7, 5, 2, (0, 1)),
        ("elliptic8-6", "elliptic", 8, 6, 2, (1, 1)),
    ]

    def __init__(self, seed: int, workdir: str):
        super().__init__(seed, workdir)
        # the README example, at the default radius 400 and order 200
        self.cases = [("readme", "maass", 6, 4, 2, (1, 1), "0.2,2.0", 400, 200)]
        # G_14(i) = 0: level 1, k = 2 mod 4, at tau = i
        self.cases.append(("g14-at-i", "g", 14, 0, 1, (0, 0), "0,1", lattice_radius(14), self.M))
        for label, kind, k, l, N, lam in self.SEEDED:
            x = self.rng.uniform(-0.5, 0.5)
            v = self.rng.uniform(1.0, 2.0)
            tau = f"{x:.4f},{v:.4f}"
            self.cases.append((label, kind, k, l, N, lam, tau, lattice_radius(k + l), self.M))

    def operations(self) -> list:
        ops = []
        for label, kind, k, l, N, lam, tau, R, M in self.cases:
            weights = ["--k", str(k)] + (["--l", str(l)] if kind in ("maass", "elliptic") else [])
            argv = ["--tol", self.TOL, "--radius", str(R), "--trunc", str(M), "fourier",
                    "--kind", kind, *weights, "--N", str(N), "--lambda", f"{lam[0]},{lam[1]}",
                    f"--tau={tau}", "--check-lattice"]  # "=": tau may start with "-"
            ops.append((label, partial(self.eisp, label, *argv)))
        ops.append(("g4-series", partial(
            self.eisp, "g4-series", "--trunc", "60", "fourier", "--kind", "e",
            "--k", "4", "--N", "1", "--lambda", "0,0",
        )))
        return ops

    def check(self, outputs: dict) -> list:
        pending = [
            (case[0], partial(lambda lbl, p: checks.check_lattice_report(lbl, load(p), self.TOL), case[0]))
            for case in self.cases
        ]
        pending.append(("g14-at-i", lambda p: checks.check_vanishing_at_i("g14-at-i", load(p), self.TOL)))
        pending.append(("g4-series", lambda p: checks.check_g4_at_i(load(p)["series"])))
        return run_checks(outputs, pending)


# ---------------------------------------------------------------------------


class LValueInvariant(Workload):
    """Special L-values, the lattice invariant and the Hecke assembly."""

    name = "lvalue-invariant"
    N_MAX, K_MAX = 3, 8
    TOL = mpf(2) ** -128  # the CLI's default tolerance at 192 bits
    INVARIANT_TOL = "1e-30"
    FE_M = 200
    FE_CELLS = [(5, 4, 0, 3), (6, 2, 1, 1), (7, 4, 1, 2)]

    def __init__(self, seed: int, workdir: str):
        super().__init__(seed, workdir)
        self.cells = checks.admissible_cells(self.N_MAX, self.K_MAX)
        self.fe = [(cell, self._argument(cell[0])) for cell in self.FE_CELLS]

    def _argument(self, k: int) -> str:
        """A real s in (0.5, k - 0.5) at least 0.1 from every integer."""
        while True:
            s = round(self.rng.uniform(0.5, k - 0.5), 3)
            if abs(s - round(s)) >= 0.1:
                return str(s)

    def operations(self) -> list:
        ops = []
        for k, N, l1, l2 in self.cells:
            label = f"lvalues-k{k}-N{N}-{l1}-{l2}"
            ops.append((label, partial(
                self.eisp, label, "lvalues", "--k", str(k), "--N", str(N), "--lambda", f"{l1},{l2}",
            )))
        for preset in ("gaussian", "eisenstein"):
            for m in (2, 3):
                label = f"invariant-{preset}-{m}"
                ops.append((label, partial(self.eisp, label, "invariant", "--m", str(m), "--preset", preset)))
        ops.append(("hecke", partial(self.eisp, "hecke", "hecke", "--m", "2", "--preset", "gaussian")))
        ops += [(f"fe {cell} s={s}", partial(self._functional_equation, cell, s)) for cell, s in self.fe]
        return ops

    def _functional_equation(self, cell, s):
        k, N, l1, l2 = cell
        with mp.workprec(WORKPREC):
            s = mpf(s)
            f = lseries.LFunctionSpec.for_e_series(k, modgroup.ResiduePair(N, l1, l2), N, self.FE_M)
            # (l1, l2) S = (l2, -l1)
            fs = lseries.LFunctionSpec.for_e_series(k, modgroup.ResiduePair(N, l2, -l1), N, self.FE_M)
            lhs = lseries.lvalue_numeric(f, s, PREC)
            rhs = mpc(1j) ** k * lseries.lvalue_numeric(fs, k - s, PREC)
        return lhs, rhs

    def check(self, outputs: dict) -> list:
        pending = []
        for cell in self.cells:
            label = "lvalues-k{}-N{}-{}-{}".format(*cell)
            pending.append((label, partial(lambda c, p: checks.check_lvalues_report(c, load(p), self.TOL), cell)))
        pending.append(("lvalues-k4-N1-0-0", lambda p: checks.check_lvalue_anchor(load(p))))
        for preset in ("gaussian", "eisenstein"):
            for m in (2, 3):
                label = f"invariant-{preset}-{m}"
                pending.append((label, partial(
                    lambda lbl, p: checks.check_invariant_report(lbl, load(p), self.INVARIANT_TOL), label,
                )))
        pending.append(("hecke", lambda p: checks.check_hecke_report(load(p))))
        pending += [
            (f"fe {cell} s={s}", partial(lambda lbl, v: checks.check_functional_equation(lbl, *v), f"fe {cell} s={s}"))
            for cell, s in self.fe
        ]
        return run_checks(outputs, pending)


WORKLOADS = {w.name: w for w in (CocycleSweep, LatticeCheck, LValueInvariant)}
