import inspect
import json

import pytest
from mpmath import mp, mpf

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


class TestEnvPrecision:
    def test_env_override(self, capsys, monkeypatch):
        monkeypatch.setenv("EISP_PREC", "96")
        code, doc = run(capsys, "periods", "--k", "4", "--N", "1", "--lambda", "0,0")
        assert code == 0


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

    def test_non_numeric_tol(self, capsys):
        err = self.exits_2(capsys, ["--tol", "abc", "periods", "--k", "4", "--N", "1", "--lambda", "0,0"])
        assert "--tol" in err

    @pytest.mark.parametrize("tol", ["nan", "inf"])
    def test_non_finite_tol(self, capsys, tol):
        # a NaN tolerance would make every "residual < tol" test false and
        # every "residual >= tol" test false too
        err = self.exits_2(capsys, ["--tol", tol, "lvalues", "--k", "4", "--N", "1", "--lambda", "0,0"])
        assert "--tol" in err

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
