"""Every output check accepts a real output and rejects a doctored one.

    python3 -m pytest bench -q

The outputs come from small runs of the program made here; each test then
alters one thing the check is there to catch.
"""
import copy
import json
import os
import sys

import pytest
from mpmath import mp, mpc, mpf

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))

import checks  # noqa: E402
import probe  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from eisperiods import cli, cocycle, lseries, modgroup  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def eisp(tmp, name, *argv):
    path = str(tmp / f"{name}.json")
    assert cli.main([*argv, "--out", path]) == 0
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def to_hex(x) -> str:
    sign, man, exp, _ = mpf(x)._mpf_
    return f"{'-' if sign else ''}0x{man:x}p{exp}"


def moved(num: dict, delta) -> dict:
    with mp.workprec(checks.CHECK_PREC):
        return {"re": to_hex(checks.parse_hex(num["re"]) + mpf(delta)), "im": num["im"]}


@pytest.fixture(scope="module")
def out(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("reports")
    cells = checks.admissible_cells(2, 4)
    lam = modgroup.ResiduePair(2, 1, 1)
    cochain = cocycle.build_induced(4, lam, 2)
    g, h = (7, 2, 3, 1), (1, 5, 0, 1)
    gh = checks.mat_mul(g, h)
    with mp.workprec(workloads.WORKPREC):
        f = lseries.LFunctionSpec.for_e_series(5, modgroup.ResiduePair(4, 0, 3), 4, 200)
        fs = lseries.LFunctionSpec.for_e_series(5, modgroup.ResiduePair(4, 3, 0), 4, 200)
        lhs = lseries.lvalue_numeric(f, mpf("2.3"), 192)
        rhs = mpc(1j) ** 5 * lseries.lvalue_numeric(fs, 5 - mpf("2.3"), 192)
    return {
        "cells": cells,
        "rationality": eisp(tmp, "r", "rationality", "--k-max", "4", "--N-max", "2", "--values"),
        "relations": eisp(tmp, "rel", "relations", "--k-max", "4", "--N-max", "2"),
        "descent": cocycle.shapiro_descend(cochain, modgroup.t_power(2)).to_json(),
        "pair": (
            cochain.table.elements, h,
            [p.to_json() for p in cocycle.evaluate_cocycle(cochain, modgroup.Mat2(*gh))],
            [p.to_json() for p in cocycle.evaluate_cocycle(cochain, modgroup.Mat2(*g))],
            [p.to_json() for p in cocycle.evaluate_cocycle(cochain, modgroup.Mat2(*h))],
        ),
        "lattice": eisp(
            tmp, "e16", "--tol", "1e-18", "--radius", str(workloads.lattice_radius(16)), "--trunc", "80",
            "fourier", "--kind", "e", "--k", "16", "--N", "1", "--lambda", "0,0",
            "--tau", "0.1,1.3", "--check-lattice",
        ),
        "g14": eisp(
            tmp, "g14", "--tol", "1e-18", "--radius", str(workloads.lattice_radius(14)), "--trunc", "80",
            "fourier", "--kind", "g", "--k", "14", "--N", "1", "--lambda", "0,0",
            "--tau", "0,1", "--check-lattice",
        ),
        "g4": eisp(tmp, "g4", "--trunc", "60", "fourier", "--kind", "e", "--k", "4", "--N", "1", "--lambda", "0,0"),
        "lv4": eisp(tmp, "lv4", "lvalues", "--k", "4", "--N", "1", "--lambda", "0,0"),
        "lv3": eisp(tmp, "lv3", "lvalues", "--k", "3", "--N", "3", "--lambda", "1,2"),
        "fe": (lhs, rhs),
        "invariant": eisp(tmp, "inv", "invariant", "--m", "2", "--preset", "gaussian"),
        "hecke": eisp(tmp, "hecke", "hecke", "--m", "2", "--preset", "gaussian"),
    }


# -- cocycle-sweep


def test_rationality_report(out):
    rep = out["rationality"]
    assert checks.check_rationality_report(rep, out["cells"]) == []

    bad = copy.deepcopy(rep)  # a surviving symbol, with the rational flag left on
    rec = next(r for r in bad["records"] if r["k"] == 4)
    rec["modified"]["S"][0][0]["symbols"].append({"w": 3, "arg": "1/2", "coeff": "1/3"})
    assert checks.check_rationality_report(bad, out["cells"])

    bad = copy.deepcopy(rep)  # a dropped cell, with the summary patched to match
    bad["records"].pop(3)
    bad["summary"]["cells"] -= 1
    bad["summary"]["certified"] -= 1
    assert checks.check_rationality_report(bad, out["cells"])

    bad = copy.deepcopy(rep)
    bad["records"][-1]["cosets"] += 1
    assert checks.check_rationality_report(bad, out["cells"])


def test_relations_report(out):
    rep = out["relations"]
    assert checks.check_relations_report(rep, out["cells"]) == []
    bad = copy.deepcopy(rep)
    bad["records"][2]["relations_hold"] = False
    assert checks.check_relations_report(bad, out["cells"])
    bad = copy.deepcopy(rep)
    bad["records"].pop()
    assert checks.check_relations_report(bad, out["cells"])


def test_descent(out):
    cell = (4, 2, 1, 1)
    assert checks.check_descent(cell, out["descent"]) == []
    bad = copy.deepcopy(out["descent"])
    bad[0]["rational"] = "1/7"
    assert checks.check_descent(cell, bad)
    bad = copy.deepcopy(out["descent"])
    bad[1]["symbols"].append({"w": 3, "arg": "1/2", "coeff": "1/1"})
    assert checks.check_descent(cell, bad)
    assert checks.check_descent((4, 2, 0, 1), out["descent"])


def test_cocycle_identity(out):
    cell = (4, 2, 1, 1)
    elements, h, c_gh, c_g, c_h = out["pair"]
    assert checks.check_cocycle_identity(cell, elements, h, c_gh, c_g, c_h) == []
    bad = copy.deepcopy(c_gh)
    bad[1][0]["rational"] = checks.rat(bad[1][0]["rational"]) + 1
    bad[1][0]["rational"] = f"{bad[1][0]['rational'].numerator}/{bad[1][0]['rational'].denominator}"
    assert checks.check_cocycle_identity(cell, elements, h, bad, c_g, c_h)
    # c(g)|h + c(h) is not c(h)|g + c(g)
    assert checks.check_cocycle_identity(cell, elements, h, c_gh, c_h, c_g)


def test_perturbed_cochain():
    assert checks.check_perturbed_rejected(False) == []
    assert checks.check_perturbed_rejected(True)


# -- lattice-check


def test_lattice_report(out):
    rep = out["lattice"]
    assert checks.check_lattice_report("e16", rep, "1e-18") == []
    bad = copy.deepcopy(rep)
    bad["lattice_check"]["fourier_value"] = moved(bad["lattice_check"]["fourier_value"], "1e-15")
    assert checks.check_lattice_report("e16", bad, "1e-18")
    bad = copy.deepcopy(rep)  # a residual that does not match the two values
    bad["lattice_check"]["residual"] = "0x0p0"
    assert checks.check_lattice_report("e16", bad, "1e-18")


def test_vanishing_at_i(out):
    rep = out["g14"]
    assert checks.check_lattice_report("g14", rep, "1e-18") == []
    assert checks.check_vanishing_at_i("g14", rep, "1e-18") == []
    bad = copy.deepcopy(rep)
    bad["lattice_check"]["lattice_value"] = moved(bad["lattice_check"]["lattice_value"], "1e-15")
    bad["lattice_check"]["fourier_value"] = moved(bad["lattice_check"]["fourier_value"], "1e-15")
    assert checks.check_vanishing_at_i("g14", bad, "1e-18")
    # a nonzero value at another tau is not the vanishing case
    assert checks.check_vanishing_at_i("e16", out["lattice"], "1e-18")


def test_g4_at_i(out):
    series = out["g4"]["series"]
    assert checks.check_g4_at_i(series) == []
    bad = copy.deepcopy(series)
    bad["coeffs"][0] = ["1/1"]
    assert checks.check_g4_at_i(bad)


# -- lvalue-invariant


def test_lvalues_report(out):
    tol = workloads.LValueInvariant.TOL
    rep = out["lv3"]
    assert checks.check_lvalues_report((3, 3, 1, 2), rep, tol) == []
    bad = copy.deepcopy(rep)
    bad["values"][0]["mellin_numeric"] = moved(bad["values"][0]["mellin_numeric"], "1e-30")
    assert checks.check_lvalues_report((3, 3, 1, 2), bad, tol)
    bad = copy.deepcopy(rep)
    bad["values"].pop()
    assert checks.check_lvalues_report((3, 3, 1, 2), bad, tol)
    assert checks.check_lvalues_report((3, 3, 2, 1), rep, tol)


def test_lvalue_anchor(out):
    rep = out["lv4"]
    assert checks.check_lvalue_anchor(rep) == []
    bad = copy.deepcopy(rep)
    bad["values"][1]["closed"]["one"]["rational"] = "-1/863"
    assert checks.check_lvalue_anchor(bad)
    bad = copy.deepcopy(rep)
    bad["values"][1]["closed_numeric"] = moved(bad["values"][1]["closed_numeric"], "1e-35")
    assert checks.check_lvalue_anchor(bad)


def test_functional_equation(out):
    lhs, rhs = out["fe"]
    assert checks.check_functional_equation("fe", lhs, rhs) == []
    assert checks.check_functional_equation("fe", lhs, rhs + mpf("1e-25"))


def test_invariant_report(out):
    rep = out["invariant"]
    assert checks.check_invariant_report("inv", rep, "1e-30") == []
    bad = copy.deepcopy(rep)
    q = checks.rat(bad["checks"][0]["reconstructed"])
    bad["checks"][0]["reconstructed"] = f"{q.numerator + 1}/{q.denominator}"
    assert checks.check_invariant_report("inv", bad, "1e-30")
    bad = copy.deepcopy(rep)
    bad["checks"][3]["reconstructed"] = None
    assert checks.check_invariant_report("inv", bad, "1e-30")


def test_hecke_report(out):
    rep = out["hecke"]
    assert checks.check_hecke_report(rep) == []
    bad = copy.deepcopy(rep)
    bad["value"] = moved(bad["value"], "1e-14")
    assert checks.check_hecke_report(bad)


# -- benchmark plumbing


def test_speed_scale():
    speed = probe.SpeedProbe()
    ref = probe.REFERENCE_S
    # two stretches of 1 s: one at the reference speed, one at half of it
    speed.samples = [(0.0, ref), (1.0 + ref, ref), (2.0 + 2 * ref, 3 * ref)]
    assert speed.scale() == pytest.approx((1.0 + 0.5) / 2.0)
    speed.samples = [(0.0, ref)]
    assert speed.scale() == 1.0


def test_check_errors_become_failures():
    assert workloads.run_checks({"a": None}, [("a", lambda v: v["missing"])])
    assert workloads.run_checks({}, [("a", lambda v: ["never run"])]) == []


def test_benchmark_json_lists_every_traced_metric():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    listed = [(m["name"], m["unit"]) for m in spec["per_layer"]]
    assert listed == tracing.per_layer_names()
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
