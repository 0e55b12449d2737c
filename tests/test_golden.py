"""Golden reports: each `eisp` subcommand at one small configuration must
reproduce the committed JSON report byte for byte, with the same exit code.
Three sweep reports too large to commit are pinned by their sha256 instead.

Each case runs in a fresh interpreter, as `eisp` does, so module caches and the
ambient mpmath precision left behind by other tests cannot leak into it.
"""
import hashlib
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


# Reports too large to commit, pinned by the sha256 of their bytes instead:
# name -> (exit code, argv, digest).
DIGESTS = {
    "rationality_values_k8_n4": (
        0,
        "rationality --values --k-max 8 --N-max 4",
        "77a172a44c4b0d81a5b61cf5d6cf8e68f01eca7b709e171d3a7c552865c64521",
    ),
    "rationality_defaults": (
        0,
        "rationality",
        "1a81528ba222daf21c677ceca021379775b62b5bef2dbae3fa032e6ccfc58d30",
    ),
    "relations_defaults": (
        0,
        "relations",
        "63d8a66e3f6aec899841764b66f39192a85ec1930e00aa868f8aa04823ae7044",
    ),
    # the largest level, where every lambda-orbit and coset table is largest
    "relations_k3_n12": (
        0,
        "relations --k 3 --N 12",
        "1c149b8daa6f684fd244e2d598a4ee7b65b2c7a6ec1f750b09aa16ed402658c2",
    ),
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


@pytest.mark.parametrize("name", sorted(DIGESTS))
def test_report_matches_digest(name, tmp_path):
    code, argv, digest = DIGESTS[name]
    out = tmp_path / f"{name}.json"
    assert run_case(argv, out) == code
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest
