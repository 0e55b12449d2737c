"""Golden reports: each `eisp` subcommand at one small configuration must
reproduce the committed JSON report byte for byte, with the same exit code.

Each case runs in a fresh interpreter, as `eisp` does, so module caches and the
ambient mpmath precision left behind by other tests cannot leak into it.
"""
import os
import subprocess
import sys
from pathlib import Path

import pytest

GOLDEN = Path(__file__).parent / "golden"

# name -> (exit code, argv)
CASES = {
    "periods": (0, "periods --k 4 --N 3 --lambda 1,2"),
    "rationality": (0, "rationality --k-max 4 --N-max 2 --values"),
    "relations": (0, "relations --k-max 4 --N-max 3"),
    "lvalues": (0, "lvalues --k 4 --N 3 --lambda 1,0"),
    "lvalues_n5": (0, "lvalues --k 4 --N 5 --lambda 1,2"),
    "fourier_e": (0, "--trunc 24 fourier --kind e --k 4 --N 3 --lambda 1,2"),
    "fourier_g": (0, "--trunc 24 fourier --kind g --k 4 --N 3 --lambda 1,2"),
    "check_lattice": (
        0,
        "--tol 1e-6 --trunc 12 --radius 30 fourier --kind elliptic --k 7 --l 5 "
        "--N 2 --lambda 1,1 --tau=-0.3,1.5 --check-lattice",
    ),
    "check_lattice_e": (
        0,
        "--tol 1e-6 --trunc 60 --radius 20 fourier --kind e --k 5 --N 5 --lambda 1,2 "
        "--tau=-0.3,1.5 --check-lattice",
    ),
    "fourier_maass": (0, "--trunc 60 fourier --kind maass --k 7 --l 5 --N 3 --lambda 1,2"),
    "fourier_elliptic": (0, "--trunc 60 fourier --kind elliptic --k 7 --l 5 --N 3 --lambda 1,2"),
    "invariant": (0, "invariant --m 2 --preset gaussian"),
    "invariant_eisenstein": (0, "invariant --m 3 --preset eisenstein"),
    "hecke": (0, "hecke --m 2 --preset gaussian"),
}


def run_case(argv: str, out: Path) -> int:
    src = str(Path(__file__).parents[1] / "src")
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=src + (os.pathsep + path if path else ""))
    cmd = [sys.executable, "-m", "eisperiods.cli", "--out", str(out)] + argv.split()
    return subprocess.run(cmd, env=env, capture_output=True).returncode


@pytest.mark.parametrize("name", sorted(CASES))
def test_report_matches_golden(name, tmp_path):
    code, argv = CASES[name]
    out = tmp_path / f"{name}.json"
    assert run_case(argv, out) == code
    assert out.read_bytes() == (GOLDEN / f"{name}.json").read_bytes()
