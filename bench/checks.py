"""Checks on the program's outputs, computed apart from the program.

Every check takes an output as the program wrote it (a parsed JSON report or
the ``to_json`` form of a result) and returns a list of failure messages; an
empty list means the output passed.  The arithmetic here is the benchmark's
own: Bernoulli numbers from their recurrence, the paper's index set, the
weight action on polynomials, hex-significand parsing and mpmath special
values.  Nothing here calls into ``eisperiods``.
"""
from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import comb, factorial

from mpmath import mp, mpc, mpf

CHECK_PREC = 400  # bits for the benchmark's own numerics


# ---------------------------------------------------------------------------
# paper-side arithmetic


@lru_cache(maxsize=None)
def bernoulli_numbers(n: int) -> tuple:
    """B_0..B_n with B_1 = -1/2, from sum_{j<=m} C(m+1, j) B_j = 0."""
    out = [Fraction(1)]
    for m in range(1, n + 1):
        out.append(-sum(comb(m + 1, j) * out[j] for j in range(m)) / Fraction(m + 1))
    return tuple(out)


def bernoulli_poly(n: int, x) -> Fraction:
    """B_n(x) = sum_j C(n, j) B_{n-j} x^j."""
    nums = bernoulli_numbers(n)
    x = Fraction(x)
    return sum(comb(n, j) * nums[n - j] * x ** j for j in range(n + 1))


def admissible(N: int, k: int) -> list:
    """The paper's index set for weight k at level N: the nonzero pairs for
    k = 2; every pair for even k >= 4, and for odd k once N >= 3."""
    pairs = [(a, b) for a in range(N) for b in range(N)]
    if k == 2:
        return [p for p in pairs if p != (0, 0)]
    if k % 2 == 0 or N >= 3:
        return pairs
    return []


def admissible_cells(n_max: int, k_max: int) -> list:
    """(k, N, l1, l2) over 1 <= N <= n_max, 2 <= k <= k_max."""
    return [
        (k, N, a, b)
        for N in range(1, n_max + 1)
        for k in range(2, k_max + 1)
        for a, b in admissible(N, k)
    ]


def sl2_count(N: int) -> int:
    """|SL2(Z/N)| by enumeration."""
    r = range(N)
    return sum(1 for a in r for b in r for c in r for d in r if (a * d - b * c) % N == 1 % N)


def mat_mul(g, h):
    a, b, c, d = g
    e, f, u, v = h
    return (a * e + b * u, a * f + b * v, c * e + d * u, c * f + d * v)


def mat_inv(g):
    a, b, c, d = g
    return (d, -b, -c, a)


def rat(text: str) -> Fraction:
    num, den = text.split("/")
    return Fraction(int(num), int(den))


def parse_hex(text: str) -> mpf:
    """Exact value of the program's hex-significand rendering 0x<m>p<e>."""
    sign = -1 if text.startswith("-") else 1
    man, exp = text.lstrip("-")[2:].split("p")
    with mp.workprec(CHECK_PREC):
        return mp.ldexp(mpf(sign * int(man, 16)), int(exp))


def parse_num(obj: dict) -> mpc:
    with mp.workprec(CHECK_PREC):
        return mpc(parse_hex(obj["re"]), parse_hex(obj["im"]))


# A coefficient of a period polynomial is a dict: "" -> rational part,
# (w, "a/b") -> coefficient of the polylog symbol PL(w; a/b).  Zero entries
# are dropped, so equal coefficients compare equal as dicts.


def coeff_from_json(obj: dict) -> dict:
    out = {"": rat(obj["rational"])}
    for sym in obj["symbols"]:
        out[(sym["w"], sym["arg"])] = rat(sym["coeff"])
    return {key: val for key, val in out.items() if val}


def poly_from_json(coeffs: list) -> list:
    return [coeff_from_json(c) for c in coeffs]


def _coeff_axpy(acc: dict, scale, coeff: dict) -> None:
    for key, val in coeff.items():
        acc[key] = acc.get(key, 0) + scale * val


def _clean(coeff: dict) -> dict:
    return {key: val for key, val in coeff.items() if val}


def poly_add(p: list, q: list) -> list:
    out = []
    for a, b in zip(p, q):
        acc = dict(a)
        _coeff_axpy(acc, 1, b)
        out.append(_clean(acc))
    return out


def _linear_powers(p: int, q: int, top: int) -> list:
    """Coefficient lists of (pX + q)^m, 0 <= m <= top."""
    out = [[1]]
    for _ in range(top):
        prev = out[-1]
        nxt = [0] * (len(prev) + 1)
        for i, c in enumerate(prev):
            nxt[i] += c * q
            nxt[i + 1] += c * p
        out.append(nxt)
    return out


def poly_act(poly: list, g) -> list:
    """Weight-(k-2) right action P -> (cX+d)^{k-2} P((aX+b)/(cX+d)), with the
    polynomial given by its k-1 coefficients, lowest degree first."""
    a, b, c, d = g
    w = len(poly) - 1
    tops = _linear_powers(a, b, w)
    bots = _linear_powers(c, d, w)
    acc = [dict() for _ in range(w + 1)]
    for m, coeff in enumerate(poly):
        for i, ci in enumerate(tops[m]):
            for j, cj in enumerate(bots[w - m]):
                if ci and cj:
                    _coeff_axpy(acc[i + j], ci * cj, coeff)
    return [_clean(x) for x in acc]


# ---------------------------------------------------------------------------
# cocycle-sweep


def _cell_of(record: dict) -> tuple:
    return (record["k"], record["N"], record["lambda"][0], record["lambda"][1])


def check_cell_set(label: str, records: list, cells: list) -> list:
    got = sorted(_cell_of(r) for r in records)
    want = sorted(cells)
    if got == want:
        return []
    missing = sorted(set(want) - set(got))[:3]
    extra = sorted(set(got) - set(want))[:3]
    return [f"{label}: {len(got)} cells against {len(want)} admissible; missing {missing}, extra {extra}"]


def check_rationality_report(report: dict, cells: list) -> list:
    """Every admissible cell is present and certified, and no modified value
    at T or S carries a polylog-symbol term, read from the values themselves."""
    records = report["records"]
    out = check_cell_set("rationality", records, cells)
    summary = report["summary"]
    if (summary["cells"], summary["certified"], summary["failed"]) != (len(cells), len(cells), 0):
        out.append(f"rationality: summary {summary} for {len(cells)} cells")
    cosets = {}
    for rec in records:
        cell = _cell_of(rec)
        N = rec["N"]
        if N not in cosets:
            cosets[N] = sl2_count(N)
        if rec["cosets"] != cosets[N]:
            out.append(f"rationality {cell}: {rec['cosets']} cosets, expected {cosets[N]}")
        if not rec["rational"] or rec["failures"]:
            out.append(f"rationality {cell}: not certified")
        modified = rec.get("modified")
        if modified is None:
            out.append(f"rationality {cell}: no modified values in the report")
            continue
        for gen in ("T", "S"):
            polys = modified[gen]
            if len(polys) != cosets[N]:
                out.append(f"rationality {cell}: {len(polys)} values at {gen}")
            for i, poly in enumerate(polys):
                if len(poly) != rec["k"] - 1:
                    out.append(f"rationality {cell}: degree of value at {gen}, coset {i}")
                for j, coeff in enumerate(poly):
                    if coeff["symbols"]:
                        out.append(
                            f"rationality {cell}: symbol term survives at {gen}, coset {i}, X^{j}"
                        )
    return out


def check_relations_report(report: dict, cells: list) -> list:
    records = report["records"]
    out = check_cell_set("relations", records, cells)
    bad = [_cell_of(r) for r in records if r["relations_hold"] is not True]
    if bad or report["failed"] != 0:
        out.append(f"relations: fail at {bad[:3]} (report says failed={report['failed']})")
    return out


def descent_closed_form(k: int, N: int, l1: int) -> list:
    """-B_k(l1/N)/(k!(k-1)) ((X+N)^{k-1} - X^{k-1}), lowest degree first."""
    front = -bernoulli_poly(k, Fraction(l1, N)) / (factorial(k) * (k - 1))
    return [_clean({"": front * comb(k - 1, j) * N ** (k - 1 - j)}) for j in range(k - 1)]


def check_descent(cell: tuple, poly_json: list) -> list:
    k, N, l1, _ = cell
    got = poly_from_json(poly_json)
    if got != descent_closed_form(k, N, l1):
        return [f"descent {cell}: value at T^N differs from the closed form"]
    return []


def check_cocycle_identity(cell: tuple, elements: list, h, c_gh: list, c_g: list, c_h: list) -> list:
    """c(gh)(s) = c(g)(s h^-1)|h + c(h)(s) on every coset s of SL2(Z/N)."""
    k, N = cell[0], cell[1]
    lookup = {tuple(e): i for i, e in enumerate(elements)}
    h_inv = mat_inv(h)
    bad = []
    for i, sigma in enumerate(elements):
        src = lookup[tuple(x % N for x in mat_mul(sigma, h_inv))]
        rhs = poly_add(poly_act(poly_from_json(c_g[src]), h), poly_from_json(c_h[i]))
        lhs = poly_from_json(c_gh[i])
        if len(lhs) != k - 1 or lhs != rhs:
            bad.append(i)
    if bad or not (len(c_gh) == len(c_g) == len(c_h) == len(elements)):
        return [f"cocycle identity {cell}: fails on cosets {bad[:5]}"]
    return []


def check_perturbed_rejected(accepted: bool) -> list:
    if accepted is not False:
        return ["verify_relations accepted a cochain with a perturbed coefficient"]
    return []


# ---------------------------------------------------------------------------
# lattice-check


def check_lattice_report(label: str, report: dict, tol: str) -> list:
    """The residual, recomputed from the hex values of both sides, is below
    the tolerance and matches the reported residual."""
    lc = report.get("lattice_check")
    if lc is None:
        return [f"{label}: no lattice_check in the report"]
    with mp.workprec(CHECK_PREC):
        tol_v = mpf(tol)
        resid = abs(parse_num(lc["fourier_value"]) - parse_num(lc["lattice_value"]))
        reported = parse_hex(lc["residual"])
        out = []
        if not resid < tol_v:
            out.append(f"{label}: residual {mp.nstr(resid, 5)} not below {tol}")
        if abs(resid - reported) > mpf(10) ** -40 + resid * mpf(10) ** -20:
            out.append(
                f"{label}: reported residual {mp.nstr(reported, 5)} but the values differ by {mp.nstr(resid, 5)}"
            )
        if lc["pass"] is not True:
            out.append(f"{label}: report marks the lattice check failed")
    return out


def check_vanishing_at_i(label: str, report: dict, tol: str) -> list:
    """G_k(i) = 0 for k = 2 mod 4 at level 1: both sides vanish at tau = i."""
    lc = report["lattice_check"]
    out = []
    with mp.workprec(CHECK_PREC):
        if parse_num(lc["tau"]) != mpc(0, 1):
            out.append(f"{label}: evaluated at tau = {lc['tau']}, not i")
        for side in ("fourier_value", "lattice_value"):
            val = abs(parse_num(lc[side]))
            if not val < mpf(tol):
                out.append(f"{label}: {side} {mp.nstr(val, 5)} at tau = i is not zero")
    return out


def g4_at_i() -> mpf:
    """G_4(i) = Gamma(1/4)^8 / (960 pi^2)."""
    with mp.workprec(CHECK_PREC):
        return mp.gamma(mpf(1) / 4) ** 8 / (960 * mp.pi ** 2)


def check_g4_at_i(series: dict, tol=mpf(10) ** -40) -> list:
    """Evaluate the exact level-1 weight-4 expansion at q = e^{-2 pi} and
    compare (-2 pi i)^4 times it with the closed form."""
    if (series["kind"], series["k"], series["N"]) != ("e", 4, 1):
        return [f"G4: expected the level-1 weight-4 e-series, got {series['kind']} k={series['k']}"]
    with mp.workprec(CHECK_PREC):
        q = mp.exp(-2 * mp.pi)
        acc = mpf(0)
        for j, coeff in enumerate(series["coeffs"], start=1):
            acc += sum(rat(c) for c in coeff) * q ** j  # mu_1 = 1
        c0 = rat(series["constant"])
        val = 16 * mp.pi ** 4 * (mpf(c0.numerator) / c0.denominator + acc)
        diff = abs(val - g4_at_i())
        if rat(series["nonholo"]) != 0 or not diff < tol:
            return [f"G4: series gives {mp.nstr(val, 20)} at i, closed form differs by {mp.nstr(diff, 5)}"]
    return []


# ---------------------------------------------------------------------------
# lvalue-invariant


def check_lvalues_report(cell: tuple, report: dict, tol: str) -> list:
    """One record per r in 1..k-1 and the three routes agree pairwise,
    recomputed from the hex values."""
    k, N, l1, l2 = cell
    out = []
    if (report["k"], report["N"], report["lambda"]) != (k, N, [l1, l2]):
        out.append(f"lvalues {cell}: report is for {report['k']}, {report['N']}, {report['lambda']}")
    if [rec["r"] for rec in report["values"]] != list(range(1, k)):
        out.append(f"lvalues {cell}: r runs over {[rec['r'] for rec in report['values']]}")
    with mp.workprec(CHECK_PREC):
        tol_v = mpf(tol)
        for rec in report["values"]:
            vals = [parse_num(rec[key]) for key in ("closed_numeric", "mellin_numeric", "lerch_numeric")]
            spread = max(abs(vals[0] - vals[1]), abs(vals[0] - vals[2]), abs(vals[1] - vals[2]))
            if not spread < tol_v or rec["pass"] is not True:
                out.append(f"lvalues {cell} r={rec['r']}: routes differ by {mp.nstr(spread, 5)}")
    return out


def check_lvalue_anchor(report: dict) -> list:
    """L*(e_4(0,1), 2) = -pi^4/54 for the raw series, i.e. -1/864 after
    division by (-2 pi i)^4, both in the exact record and numerically."""
    rec = next((r for r in report["values"] if r["r"] == 2), None)
    if rec is None or (report["k"], report["N"]) != (4, 1):
        return ["anchor: no k=4, N=1, r=2 record"]
    out = []
    one, ipart = coeff_from_json(rec["closed"]["one"]), coeff_from_json(rec["closed"]["i"])
    if one != {"": Fraction(-1, 864)} or ipart:
        out.append(f"anchor: exact closed value {rec['closed']} is not -1/864")
    with mp.workprec(CHECK_PREC):
        raw = parse_num(rec["closed_numeric"]) * (2 * mp.pi) ** 4
        diff = abs(raw - (-mp.pi ** 4 / 54))
        if not diff < mpf(10) ** -40:
            out.append(f"anchor: L*(e_4, 2) misses -pi^4/54 by {mp.nstr(diff, 5)}")
    return out


def check_functional_equation(label: str, lhs: mpc, rhs: mpc, tol=mpf(10) ** -30) -> list:
    """Lambda(f, s) = i^k Lambda(f|S, k - s), both sides from lvalue_numeric."""
    with mp.workprec(CHECK_PREC):
        diff = abs(mpc(lhs) - mpc(rhs))
        if not diff < tol:
            return [f"{label}: functional equation off by {mp.nstr(diff, 5)}"]
    return []


def check_invariant_report(label: str, report: dict, tol: str) -> list:
    """Every check reconstructs a rational, and each rational lies within the
    tolerance of the value it came from (imaginary part included)."""
    out = []
    checks = report["checks"]
    if len(checks) != 4 or report["failed"] != 0:
        out.append(f"{label}: {len(checks)} checks, {report['failed']} failed")
    with mp.workprec(CHECK_PREC):
        tol_v = mpf(tol)
        for rec in checks:
            name = rec["check"] + ("/" + rec["gamma"] if "gamma" in rec else "")
            if rec["reconstructed"] is None:
                out.append(f"{label} {name}: no rational reconstructed")
                continue
            q = rat(rec["reconstructed"])
            diff = abs(parse_num(rec["value"]) - mpf(q.numerator) / q.denominator)
            if not diff < tol_v:
                out.append(f"{label} {name}: {rec['reconstructed']} is {mp.nstr(diff, 5)} from the value")
    return out


def check_hecke_report(report: dict, tol=mpf(10) ** -15) -> list:
    """The Gaussian m = 2 assembly equals zeta(2) * Catalan."""
    with mp.workprec(CHECK_PREC):
        diff = abs(parse_num(report["value"]) - mp.zeta(2) * mp.catalan)
        if not diff < tol:
            return [f"hecke: value misses zeta(2)*Catalan by {mp.nstr(diff, 5)}"]
    return []
