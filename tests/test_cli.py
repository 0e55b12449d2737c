import inspect
import io
import json
import os
import random
import subprocess
import sys

import pytest
from mpmath import mp, mpf

import eisperiods
from eisperiods import cli
from eisperiods.cli import MAX_PREC, main


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, (json.loads(out) if out.strip() else None)


class TestFourierCommand:
    def test_check_lattice_high_weight_passes(self, capsys):
        code, doc = run(
            capsys,
            "--tol", "1e-18", "--trunc", "80", "--radius", "300",
            "fourier", "--k", "11", "--N", "3", "--lambda", "1,2",
            "--tau", "0.2,2.0", "--check-lattice",
        )
        assert code == 0
        assert doc["lattice_check"]["pass"] is True

    def test_check_lattice_low_weight_documented_bound(self, capsys):
        # weight-4 truncation error sits near the documented R^{2-w} bound,
        # so a tolerance far below it must fail with exit code 1
        code, doc = run(
            capsys,
            "--tol", "1e-12", "--trunc", "60", "--radius", "50",
            "fourier", "--k", "4", "--N", "1", "--lambda", "0,0", "--check-lattice",
        )
        assert code == 1
        assert doc["lattice_check"]["pass"] is False
        code, doc = run(
            capsys,
            "--tol", "1e-2", "--trunc", "60", "--radius", "50",
            "fourier", "--k", "4", "--N", "1", "--lambda", "0,0", "--check-lattice",
        )
        assert code == 0

    def test_maass_all_zero_series(self, capsys):
        code, doc = run(
            capsys, "--trunc", "6",
            "fourier", "--k", "2", "--l", "1", "--N", "1", "--lambda", "0,0",
        )
        assert code == 0
        s = doc["series"]
        assert s["kind"] == "maass"
        assert all(not d for d in s["coeffs"])
        assert all(not d for d in s["coeffs_conj"])
        assert not s["nonholo"]

    def test_malformed_lambda_exits_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["fourier", "--k", "4", "--N", "1", "--lambda", "zz"])
        assert exc.value.code == 2

    def test_out_of_range_weight_exits_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["fourier", "--k", "40", "--N", "1", "--lambda", "0,0"])
        assert exc.value.code == 2


class TestLvaluesCommand:
    def test_triple_agreement(self, capsys):
        code, doc = run(
            capsys, "--tol", "1e-20",
            "lvalues", "--k", "4", "--N", "2", "--lambda", "0,1",
        )
        assert code == 0
        assert len(doc["values"]) == 3
        assert all(rec["pass"] for rec in doc["values"])

    def test_inadmissible_parameter_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            main(["lvalues", "--k", "2", "--N", "2", "--lambda", "0,0"])
        assert exc.value.code == 2


class TestPeriodsCommand:
    def test_period_json(self, capsys):
        code, doc = run(capsys, "periods", "--k", "4", "--N", "1", "--lambda", "0,0")
        assert code == 0
        assert doc["period_T"][0]["rational"] == "1/2160"
        assert doc["period_S"][1]["rational"] == "-1/432"
        assert doc["period_S"][0]["symbols"][0]["w"] == 3


class TestRationalityCommand:
    def test_small_sweep(self, capsys):
        code, doc = run(capsys, "rationality", "--k-max", "4", "--N-max", "3")
        assert code == 0
        assert doc["summary"]["failed"] == 0
        assert doc["summary"]["cells"] == doc["summary"]["certified"] > 0

    def test_weight_two_level_two_has_three_records(self, capsys):
        code, doc = run(capsys, "rationality", "--k", "2", "--N", "2")
        assert code == 0
        assert doc["summary"]["cells"] == 3

    def test_empty_sweep_warns(self, capsys):
        code, doc = run(capsys, "rationality", "--k", "3", "--N", "2")
        assert code == 0
        assert "warning" in doc
        assert doc["summary"]["cells"] == 0


class TestRelationsCommand:
    def test_relations_sweep(self, capsys):
        code, doc = run(capsys, "relations", "--k", "4", "--N", "2")
        assert code == 0
        assert all(rec["relations_hold"] for rec in doc["records"])
        assert "warning" not in doc

    def test_empty_sweep_warns(self, capsys):
        code, doc = run(capsys, "relations", "--k", "3", "--N", "1")
        assert code == 0
        assert doc["records"] == [] and doc["failed"] == 0
        assert doc["warning"].startswith("empty sweep: ")


class TestInvariantCommand:
    def test_gaussian_m2(self, capsys):
        code, doc = run(capsys, "invariant", "--m", "2", "--preset", "gaussian")
        assert code == 0
        assert doc["failed"] == 0
        recs = {c.get("gamma", c["check"]): c["reconstructed"] for c in doc["checks"]}
        assert recs["T"] == "2/135"
        assert recs["value_ratio"] == "-1/6"

    def test_eisenstein_m3_gamma_s(self, capsys):
        code, doc = run(capsys, "invariant", "--m", "3", "--preset", "eisenstein", "--gamma", "S")
        assert code == 0
        assert doc["failed"] == 0

    def test_missing_data_file_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            main(["invariant", "--m", "2", "--data", "/no/such/file.json"])
        assert exc.value.code == 2

    def test_data_file_round_trip(self, capsys, tmp_path):
        path = tmp_path / "lattice.json"
        path.write_text(json.dumps({"minpoly": [1, 0, 1], "omega2": "1/1", "N": 1, "lambda": [0, 0]}))
        code, doc = run(capsys, "invariant", "--m", "2", "--data", str(path), "--gamma", "T")
        assert code == 0
        assert doc["lattice"]["disc"] == -4


class TestHeckeCommand:
    def test_gaussian_value(self, capsys):
        code, doc = run(capsys, "--trunc", "200", "hecke", "--m", "2", "--preset", "gaussian")
        assert code == 0
        with mp.workprec(120):
            want = mp.zeta(2) * mp.catalan
            got = mp.mpf(doc["value"]["dec"].strip("()").split(" ")[0])
            assert abs(got - want) < mp.mpf(10) ** -12

    def test_value_keeps_working_precision(self, capsys):
        # the report renders the value at the working precision, not at the
        # 53 bits of the ambient context
        code, doc = run(capsys, "hecke", "--m", "2", "--preset", "gaussian")
        assert code == 0
        man, exp = doc["value"]["re"].split("p")
        with mp.workprec(400):
            got = mpf(int(man, 16)) * mpf(2) ** int(exp)
            assert abs(got - mp.zeta(2) * mp.catalan) < mpf(10) ** -60


class TestDeterminism:
    def test_byte_identical_reports(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        for target in (a, b):
            code = main(
                ["--out", str(target), "rationality", "--k-max", "3", "--N-max", "3"]
            )
            assert code == 0
        assert a.read_bytes() == b.read_bytes()

    def test_fourier_deterministic(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        for target in (a, b):
            main(
                ["--out", str(target), "--trunc", "20",
                 "fourier", "--k", "5", "--l", "3", "--N", "2", "--lambda", "1,0"]
            )
        assert a.read_bytes() == b.read_bytes()


STRINGS = [
    "", "plain", "é ü ∑ 𝔖 ʃ", 'quo"te', "back\\slash", "ctl \x00\x01\x1f\x7f\t\n\r\b\f",
    "\u2028\u2029\ufeff", 'all "é\\\x07"',
]
SCALARS = STRINGS + [
    None, True, False, 0, -1, 2 ** 200, -(3 ** 150), 0.5, -1e300, float("nan"), float("inf"),
    float("-inf"),
]
KEYS = ["a", "b", "Z", "é", 'k"q', "k\\b", "\x01", "", "records", "summary"]


def seeded_report(seed: int) -> dict:
    """A nested report with shared, empty and awkward members."""
    rng = random.Random(seed)
    shared_list = [rng.choice(SCALARS) for _ in range(3)] + [{"in": "shared", "e": []}]
    shared_dict = {"s": shared_list, "n": 7, "empty": {}}

    def node(depth):
        r = rng.random()
        if depth >= 7 or r < 0.25:
            return rng.choice(SCALARS)
        if r < 0.4:
            return rng.choice([shared_list, shared_dict])
        if r < 0.45:
            return rng.choice([[], {}, ()])
        if r < 0.65:
            return [node(depth + 1) for _ in range(rng.randint(1, 4))]
        if r < 0.7:
            return tuple(node(depth + 1) for _ in range(rng.randint(1, 3)))
        if r < 0.75:
            return {rng.randint(-50, 50): node(depth + 1) for _ in range(rng.randint(1, 4))}
        return {rng.choice(KEYS): node(depth + 1) for _ in range(rng.randint(1, 4))}

    return {
        "records": [node(2) for _ in range(6)],
        "shared": [shared_list, shared_list, shared_dict, shared_dict],
        "deep": {"a": {"b": {"c": {"d": [shared_list, shared_dict]}}}},
        "summary": {"cells": 2 ** 70, "ok": True, "none": None, "empty": [], "text": STRINGS},
    }


def written(obj) -> str:
    buf = io.StringIO()
    cli._write_json(buf.write, obj)
    return buf.getvalue()


class TestReportWriter:
    """The streaming writer must write the bytes of
    json.dumps(sort_keys=True, indent=2, ensure_ascii=False)."""

    @pytest.mark.parametrize("seed", range(20))
    def test_matches_json_dumps(self, seed):
        report = seeded_report(seed)
        assert written(report) == json.dumps(report, sort_keys=True, indent=2, ensure_ascii=False)

    @pytest.mark.parametrize("obj", [[], {}, (), "é\"", None, True, 2 ** 100, [[[[[]]]]], {"a": {}}])
    def test_matches_json_dumps_at_the_top(self, obj):
        assert written(obj) == json.dumps(obj, sort_keys=True, indent=2, ensure_ascii=False)

    @pytest.mark.parametrize("bad", [object(), {1, 2}, b"bytes", 1j])
    @pytest.mark.parametrize("depth", range(6))
    def test_rejects_what_json_dumps_rejects(self, bad, depth):
        report = bad
        for level in range(depth):
            report = {"x": report} if level % 2 else [1, report]
        with pytest.raises(TypeError):
            json.dumps(report, sort_keys=True, indent=2, ensure_ascii=False)
        with pytest.raises(TypeError):
            written(report)

    def test_stdout_and_out_file_match(self, capsys, tmp_path):
        argv = ["rationality", "--k-max", "4", "--N-max", "3", "--values"]
        target = tmp_path / "report.json"
        assert main(["--out", str(target)] + argv) == 0
        assert capsys.readouterr().out == ""
        assert main(argv) == 0
        assert capsys.readouterr().out.encode("utf-8") == target.read_bytes()


class TestEnvPrecision:
    def test_env_override(self, capsys, monkeypatch):
        monkeypatch.setenv("EISP_PREC", "96")
        code, doc = run(capsys, "periods", "--k", "4", "--N", "1", "--lambda", "0,0")
        assert code == 0
        assert doc["config"]["prec"] == 96


class TestTolValidation:
    def test_tol_below_precision_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            main(["--prec", "64", "--tol", "1e-40",
                  "periods", "--k", "4", "--N", "1", "--lambda", "0,0"])
        assert exc.value.code == 2


# inputs that pass argument parsing and are rejected once the command runs
REJECTED_INPUTS = {
    "inadmissible_weight_3": "fourier --kind e --k 3 --N 1 --lambda 0,0",
    "maass_total_weight_2": "fourier --kind maass --k 2 --l 0 --N 1 --lambda 0,1",
    "elliptic_total_weight_2": "fourier --kind elliptic --k 4 --l -2 --N 1 --lambda 0,0",
    "lvalue_r_below_range": "lvalues --k 4 --N 1 --lambda 0,0 --r 0",
    "lvalue_r_above_range": "lvalues --k 4 --N 1 --lambda 0,0 --r 9",
    "lattice_weight_2": "--trunc 10 fourier --kind g --k 2 --N 1 --lambda 0,1 --check-lattice",
    "invariant_tail_above_tol": "--trunc 10 invariant --m 2 --preset gaussian",
    "out_dir_missing": "--out /no/such/dir/x.json periods --k 4 --N 1 --lambda 0,0",
    "l_with_holomorphic_kind": "--trunc 40 --radius 40 --tol 1e-3 fourier --kind g --k 12 "
    "--l 2 --N 1 --lambda 0,0 --tau 0.1,1.2 --check-lattice",
}

# arguments that a subcommand's own parser rejects: name -> (command, argv)
SUBPARSER_REJECTED = {
    "lambda_not_a_pair": ("periods", "periods --k 4 --N 3 --lambda x"),
    "tau_not_finite": ("fourier", "fourier --kind e --k 4 --N 3 --lambda 1,2 --tau=0,inf"),
    "r_not_an_integer": ("lvalues", "lvalues --k 4 --N 3 --lambda 1,0 --r x"),
}

# --data payloads that parse as JSON and are rejected while loading
MALFORMED_DATA = {
    "omega2_zero_denominator": ("invariant", {"minpoly": [1, 0, 1], "omega2": "1/0", "N": 1}),
    "norm_b_zero_denominator": (
        "hecke", {"classes": [{"lattice": {"preset": "gaussian"}, "norm_b": "1/0"}]},
    ),
    "norm_b_negative": ("hecke", {"classes": [{"lattice": {"preset": "gaussian"}, "norm_b": "-2"}]}),
    "chi_zero": (
        "hecke", {"classes": [{"lattice": {"preset": "gaussian"}, "chi": {"re": "0", "im": "0"}}]},
    ),
    "w_f_not_integer": ("hecke", {"classes": [{"lattice": {"preset": "gaussian"}}], "w_f": "four"}),
}


class TestBadConfiguration:
    """Malformed configuration exits 2 through the argument parser."""

    def exits_2(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "error:" in err and "Traceback" not in err
        return err

    @pytest.mark.parametrize("name", sorted(REJECTED_INPUTS))
    def test_rejected_input(self, capsys, name):
        err = self.exits_2(capsys, REJECTED_INPUTS[name].split())
        assert err.count("eisp: error:") == 1

    @pytest.mark.parametrize("name", sorted(SUBPARSER_REJECTED))
    def test_subparser_rejection(self, capsys, name):
        # argparse names the subcommand whose parser rejected the argument
        command, argv = SUBPARSER_REJECTED[name]
        err = self.exits_2(capsys, argv.split())
        lines = [line for line in err.splitlines() if "error:" in line]
        assert len(lines) == 1 and lines[0].startswith(f"eisp {command}: error: ")

    @pytest.mark.parametrize("command", ["invariant", "hecke"])
    @pytest.mark.parametrize("m", ["0", "1", "7", "9"])
    def test_order_out_of_range(self, capsys, command, m):
        # the weight 2m is out of range too for m = 0 and m = 9; the message
        # names the option the user set
        err = self.exits_2(capsys, [command, "--m", m, "--preset", "gaussian"])
        assert "order m must be in [2, 6]" in err and "weight" not in err

    def test_non_numeric_tol(self, capsys):
        err = self.exits_2(capsys, ["--tol", "abc", "periods", "--k", "4", "--N", "1", "--lambda", "0,0"])
        assert "--tol" in err

    @pytest.mark.parametrize("tol", ["nan", "inf"])
    def test_non_finite_tol(self, capsys, tol):
        # a NaN tolerance would make every "residual < tol" test false and
        # every "residual >= tol" test false too
        err = self.exits_2(capsys, ["--tol", tol, "lvalues", "--k", "4", "--N", "1", "--lambda", "0,0"])
        assert "--tol" in err

    @pytest.mark.parametrize("tau", ["0,inf", "nan,1", "inf,1", "0,nan", "-inf,2"])
    def test_non_finite_tau(self, capsys, tau):
        # an infinite Im tau divides by zero in the lattice sum, and a NaN
        # one passes "Im tau > 0" and writes a NaN residual
        argv = ["fourier", "--kind", "e", "--k", "4", "--N", "3", "--lambda", "1,2",
                f"--tau={tau}", "--check-lattice"]
        err = self.exits_2(capsys, argv)
        assert err.count("error:") == 1 and "tau must be finite" in err

    def test_precision_above_cap(self, capsys, monkeypatch):
        def refuse(*args):
            raise AssertionError("the command ran before the precision was checked")

        argv = ["periods", "--k", "4", "--N", "1", "--lambda", "0,0"]
        code, doc = run(capsys, "--prec", str(MAX_PREC), *argv)  # exact, no precision-bound work
        assert code == 0
        monkeypatch.setattr(cli, "cmd_periods", refuse)
        assert "--prec" in self.exits_2(capsys, ["--prec", str(MAX_PREC + 1)] + argv)
        assert "--prec" in self.exits_2(capsys, argv + ["--prec", "100000000"])
        monkeypatch.setenv("EISP_PREC", str(MAX_PREC + 1))
        assert "EISP_PREC" in self.exits_2(capsys, argv)

    def test_non_integer_env_precision(self, capsys, monkeypatch):
        monkeypatch.setenv("EISP_PREC", "xx")
        err = self.exits_2(capsys, ["periods", "--k", "4", "--N", "1", "--lambda", "0,0"])
        assert "EISP_PREC" in err

    def test_invariant_data_not_json(self, capsys, tmp_path):
        path = tmp_path / "lattice.json"
        path.write_text("not json")
        self.exits_2(capsys, ["invariant", "--m", "2", "--data", str(path)])

    @pytest.mark.parametrize("command", ["invariant", "hecke"])
    def test_preset_with_data(self, capsys, tmp_path, command):
        # a command reads one lattice source; two would leave one of them unread
        path = tmp_path / "lattice.json"
        path.write_text(json.dumps({"preset": "eisenstein"}))
        err = self.exits_2(capsys, [command, "--m", "2", "--preset", "gaussian", "--data", str(path)])
        assert "not allowed with argument --preset" in err

    @pytest.mark.parametrize("name", sorted(MALFORMED_DATA))
    def test_malformed_data(self, capsys, tmp_path, name):
        command, payload = MALFORMED_DATA[name]
        path = tmp_path / "data.json"
        path.write_text(json.dumps(payload))
        err = self.exits_2(capsys, [command, "--m", "2", "--data", str(path)])
        assert err.count("eisp: error:") == 1

    def test_hecke_data_lattice_without_level(self, capsys, tmp_path):
        path = tmp_path / "classes.json"
        path.write_text(json.dumps({"classes": [{"lattice": {"minpoly": [1, 0, 1]}}]}))
        err = self.exits_2(capsys, ["hecke", "--m", "2", "--data", str(path)])
        assert "KeyError" in err


def test_every_command_takes_args_and_config():
    """main owns the parser, the precision block and the report; a command
    that took the parser could reject an input around that pipeline."""
    commands = {
        name: fn for name, fn in vars(cli).items() if name.startswith("cmd_") and callable(fn)
    }
    assert len(commands) == 7
    for name, fn in commands.items():
        assert list(inspect.signature(fn).parameters) == ["args", "config"], name


def test_one_process_matches_fresh_processes(capsys):
    """The parser is built once per process; a run of commands in one
    process, a rejected one among them, gives each command the stdout, the
    exit code and, on a rejection, the stderr of a fresh `eisp` process."""
    runs = [
        "periods --k 4 --N 2 --lambda 0,1",
        "lvalues --k 4 --N 3 --lambda 1,2 --r 2",
        "fourier --k 4 --N 1 --lambda zz",
        "--prec 96 periods --k 5 --N 3 --lambda 1,2",
        "fourier --kind e --k 3 --N 1 --lambda 0,0",
        "periods --k 4 --N 2 --lambda 0,1",
    ]
    env = {**os.environ, "PYTHONPATH": os.path.dirname(eisperiods.__path__[0])}
    env.pop("EISP_PREC", None)
    for argv in runs:
        try:
            code = main(argv.split())
        except SystemExit as exc:
            code = exc.code
        here = capsys.readouterr()
        fresh = subprocess.run(
            [sys.executable, "-m", "eisperiods.cli", *argv.split()],
            capture_output=True, text=True, env=env, check=False,
        )
        assert (code, here.out) == (fresh.returncode, fresh.stdout), argv
        if code:
            assert code == 2 and here.err == fresh.stderr and ": error: " in here.err, argv
