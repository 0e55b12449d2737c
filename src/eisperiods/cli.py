"""Command-line front end: sweep orchestration and machine-checkable JSON
reports.

Every subcommand runs through one pipeline in `main`: parse the arguments,
build and validate the `RunConfig`, run the command's `cmd_*(args, config)`
under one `mp.workprec(prec + GUARD_BITS)` block, add the `config` block and
write the report.  A `cmd_*` function only builds its report and returns it
with its exit status.  It rejects an input by raising `ValueError`, as the
library does (`IndexSetError`, `PrecisionError` and the weight and range
checks are all `ValueError`s); `main` turns that, or an `OSError` from
writing `--out`, into one `eisp: error:` line and exit code 2.

Reports are deterministic byte for byte for a fixed configuration: summation
orders are fixed, JSON keys are sorted, exact rationals are rendered as p/q
strings and floating values as hex-significand strings.  One streaming
writer, _write_json, writes every report in the bytes of json.dumps(report,
sort_keys=True, indent=2, ensure_ascii=False), which cannot use the C encoder
with an indent: the outer levels go to the file or stdout piece by piece, and
each deeper value is encoded whole with every shared list or dict encoded
once, memoized by object id (sound only within one call, while the report
holds its objects).

Exit codes: 0 success, 1 tolerance or certification failure, 2 bad
configuration.
"""
from __future__ import annotations

import argparse
import json
import os
import sys
from contextlib import nullcontext
from dataclasses import dataclass
from functools import lru_cache
from json.encoder import encode_basestring
from math import inf

from mpmath import mp, mpc, mpf

from . import __version__
from .exact import QQ, qq, qq_str
from .eisenstein import (
    LatticeParams,
    e_fourier,
    elliptic_maass_fourier,
    eval_fourier,
    g_fourier,
    lattice_sum,
    maass_fourier,
)
from .cocycle import (
    build_induced,
    certify_parameter,
    period_S,
    period_T,
    verify_relations,
)
from .invariant import (
    IdealClassTerm,
    QuadLatticeData,
    psi_gamma_shift,
    psi_value_ratio,
    hecke_assemble,
)
from .lseries import LFunctionSpec, lvalue_closed, lvalue_lerch_product, lvalue_numeric
from .modgroup import S, T, ResiduePair, index_set
from .numerics import GUARD_BITS, mpc_json, mpf_hex, raw_scale, rational_reconstruct

MAX_WEIGHT = 16
MIN_PREC = 32
MAX_PREC = 4096  # bits, for --prec and EISP_PREC; every documented run needs at most 256
MAX_LEVEL = 12
MAX_ORDER = 6

EXIT_OK = 0
EXIT_TOLERANCE = 1
EXIT_CONFIG = 2


@dataclass
class RunConfig:
    prec: int
    trunc: int
    radius: int
    tol: mpf
    out: str | None

    def validate(self):
        if not MIN_PREC <= self.prec <= MAX_PREC:
            raise ValueError(f"--prec (or EISP_PREC) must be in [{MIN_PREC}, {MAX_PREC}] bits, got {self.prec}")
        if self.trunc < 1 or self.radius < 1:
            raise ValueError("--trunc and --radius must be positive")
        if not mp.isfinite(self.tol):
            raise ValueError(f"--tol must be a finite number, got {mp.nstr(self.tol)}")
        if self.tol < mpf(2) ** (16 - self.prec):
            raise ValueError("--tol below what --prec supports (need tol >= 2^(16-prec))")
        return self


def _parse_lambda(text: str):
    try:
        l1, l2 = (int(t) for t in text.split(","))
        return (l1, l2)
    except Exception:
        raise argparse.ArgumentTypeError(f"expected 'l1,l2', got {text!r}")


def _parse_tau(text: str) -> mpc:
    try:
        re_s, im_s = text.split(",")
        tau = mpc(mpf(re_s), mpf(im_s))
    except Exception:
        raise argparse.ArgumentTypeError(f"expected 're,im', got {text!r}")
    if not (mp.isfinite(tau.real) and mp.isfinite(tau.imag)):
        raise argparse.ArgumentTypeError(f"tau must be finite, got {text!r}")
    if tau.imag <= 0:
        raise argparse.ArgumentTypeError("tau must have positive imaginary part")
    return tau


def _check_weight(k, N, m=None):
    # the order first: the weight 2m is derived from it
    if m is not None and not 2 <= m <= MAX_ORDER:
        raise ValueError(f"order m must be in [2, {MAX_ORDER}]")
    if not 2 <= k <= MAX_WEIGHT:
        raise ValueError(f"weight k must be in [2, {MAX_WEIGHT}]")
    if not 1 <= N <= MAX_LEVEL:
        raise ValueError(f"level N must be in [1, {MAX_LEVEL}]")


# Containers at depths below this are written piece by piece; each deeper
# value is encoded whole, with its own memo.
STREAM_DEPTH = 3


def _scalar_json(obj) -> str:
    """A JSON scalar other than a string, as json.dumps writes it."""
    if obj is None:
        return "null"
    if obj is True:
        return "true"
    if obj is False:
        return "false"
    if isinstance(obj, int):
        return int.__repr__(obj)
    if isinstance(obj, float):
        if obj != obj:
            return "NaN"
        if obj in (inf, -inf):
            return "Infinity" if obj > 0 else "-Infinity"
        return float.__repr__(obj)
    raise TypeError(f"Object of type {obj.__class__.__name__} is not JSON serializable")


def _members(obj) -> tuple[str, str, list]:
    """The brackets of a non-empty list, tuple or dict and its members as
    (prefix, value) pairs: the encoded key and ': ' for a dict, in sorted
    key order, nothing for a list."""
    if isinstance(obj, dict):
        return "{", "}", [
            (encode_basestring(key if isinstance(key, str) else _scalar_json(key)) + ": ", value)
            for key, value in sorted(obj.items())
        ]
    return "[", "]", [("", value) for value in obj]


def _encode(obj, depth: int, memo: dict) -> str:
    """obj as json.dumps(sort_keys=True, indent=2, ensure_ascii=False)
    writes it at the given nesting depth; the text of each non-empty
    container is memoized by (object id, depth)."""
    if isinstance(obj, str):
        return encode_basestring(obj)
    if not isinstance(obj, (list, tuple, dict)):
        return _scalar_json(obj)
    if not obj:
        return "{}" if isinstance(obj, dict) else "[]"
    key = (id(obj), depth)
    text = memo.get(key)
    if text is None:
        open_, close, members = _members(obj)
        inner = "\n" + "  " * (depth + 1)
        text = memo[key] = (
            open_
            + inner
            + ("," + inner).join(prefix + _encode(value, depth + 1, memo) for prefix, value in members)
            + "\n"
            + "  " * depth
            + close
        )
    return text


def _write_json(write, obj, depth: int = 0) -> None:
    """Stream obj to write() in the bytes of json.dumps(obj, sort_keys=True,
    indent=2, ensure_ascii=False): containers above STREAM_DEPTH piece by
    piece, every deeper value whole through _encode.

    Shared objects are encoded once: cosets of one class share one period
    polynomial, so a report repeats the same list or dict many times.  The
    memo is keyed by object id, which is sound only while the report holds
    its objects, that is, within one call; each value encoded whole gets a
    fresh memo, so the memo never outlives it."""
    if depth < STREAM_DEPTH and isinstance(obj, (list, tuple, dict)) and obj:
        open_, close, members = _members(obj)
        inner = "\n" + "  " * (depth + 1)
        write(open_)
        for n, (prefix, value) in enumerate(members):
            write(("," if n else "") + inner + prefix)
            _write_json(write, value, depth + 1)
        write("\n" + "  " * depth + close)
    else:
        write(_encode(obj, depth, {}))


def _emit(report: dict, config: RunConfig) -> None:
    out = open(config.out, "w", encoding="utf-8") if config.out else nullcontext(sys.stdout)
    with out as fh:
        _write_json(fh.write, report)
        fh.write("\n")


def _num(z) -> dict:
    out = mpc_json(z)
    out["dec"] = mp.nstr(mpc(z), 30)
    return out


GAMMAS = {"T": T, "S": S, "ST": S * T}


# ---------------------------------------------------------------------------


def cmd_fourier(args, config: RunConfig) -> tuple[dict, int]:
    _check_weight(args.k, args.N)
    lam = ResiduePair(args.N, *args.lam)
    kind = args.kind or ("maass" if args.l is not None else "e")
    if kind in ("e", "g") and args.l is not None:
        raise ValueError(f"--l applies only to --kind maass or elliptic, not {kind!r}")
    l = args.l or 0
    scale = mpc(1)
    if kind == "e":
        series = e_fourier(args.k, lam, args.N, config.trunc)
        mode = "elliptic"
        scale = raw_scale(args.k, config.prec)
    elif kind == "g":
        series = g_fourier(args.k, lam, args.N, config.trunc, config.prec)
        mode = "congruence"
    elif kind == "maass":
        series = maass_fourier(args.k, l, lam, args.N, config.trunc, config.prec)
        mode = "congruence"
    else:
        series = elliptic_maass_fourier(args.k, l, lam, args.N, config.trunc, config.prec)
        mode = "elliptic"
    report = {"series": series.to_json()}
    status = EXIT_OK
    if args.check_lattice:
        tau = args.tau if args.tau is not None else mpc(0, 1)
        value = eval_fourier(series, tau, config.prec) * scale
        oracle = lattice_sum(
            LatticeParams(args.k, l, args.N, lam, mode, config.radius), tau, config.prec
        )
        residual = abs(value - oracle)
        report["lattice_check"] = {
            "tau": _num(tau),
            "fourier_value": _num(value),
            "lattice_value": _num(oracle),
            "residual": mpf_hex(residual),
            "residual_dec": mp.nstr(residual, 8),
            "tolerance": mp.nstr(config.tol, 8),
            "pass": bool(residual < config.tol),
        }
        if not residual < config.tol:
            status = EXIT_TOLERANCE
    return report, status


def cmd_lvalues(args, config: RunConfig) -> tuple[dict, int]:
    _check_weight(args.k, args.N)
    lam = ResiduePair(args.N, *args.lam)
    rs = [args.r] if args.r is not None else list(range(1, args.k))
    records = []
    status = EXIT_OK
    spec = LFunctionSpec.for_e_series(args.k, lam, args.N, config.trunc)
    scale = raw_scale(args.k, config.prec)
    for r in rs:
        closed = lvalue_closed(args.k, lam, args.N, r)
        one, ipart = closed.parts()
        c_num = closed.numeric(config.prec)
        v_num = lvalue_numeric(spec, r, config.prec)
        v_ler = lvalue_lerch_product(args.k, lam, args.N, r, config.prec) / scale
        spread = max(abs(c_num - v_num), abs(c_num - v_ler), abs(v_num - v_ler))
        records.append(
            {
                "r": r,
                "closed": {
                    "one": one.to_json(),
                    "i": ipart.to_json(),
                },
                "closed_numeric": _num(c_num),
                "mellin_numeric": _num(v_num),
                "lerch_numeric": _num(v_ler),
                "max_pairwise_diff": mp.nstr(spread, 8),
                "pass": bool(spread < config.tol),
            }
        )
        if not spread < config.tol:
            status = EXIT_TOLERANCE
    return {"k": args.k, "N": args.N, "lambda": list(args.lam), "values": records}, status


def cmd_periods(args, config: RunConfig) -> tuple[dict, int]:
    _check_weight(args.k, args.N)
    lam = ResiduePair(args.N, *args.lam)
    report = {
        "k": args.k,
        "N": args.N,
        "lambda": list(args.lam),
        "period_T": period_T(args.k, lam, args.N).to_json(),
        "period_S": period_S(args.k, lam, args.N).to_json(),
    }
    return report, EXIT_OK


EMPTY_SWEEP = "empty sweep: no admissible parameters in the requested range"


def _sweep_cells(args):
    ks = [args.k] if args.k is not None else list(range(2, args.k_max + 1))
    ns = [args.N] if args.N is not None else list(range(1, args.N_max + 1))
    for k in ks:
        for N in ns:
            _check_weight(k, N)
    return ks, ns


def cmd_rationality(args, config: RunConfig) -> tuple[dict, int]:
    ks, ns = _sweep_cells(args)
    records = []
    failures = 0
    cells = 0
    for N in ns:
        for k in ks:
            for lam in index_set(N, k):
                original, modified, report = certify_parameter(k, lam, N)
                cells += 1
                if not report.certified:
                    failures += 1
                records.append(
                    report.to_json(
                        include_values=args.values, modified=modified, original=original
                    )
                )
    out = {
        "records": records,
        "summary": {"cells": cells, "certified": cells - failures, "failed": failures},
    }
    if cells == 0:
        out["warning"] = EMPTY_SWEEP
    return out, EXIT_TOLERANCE if failures else EXIT_OK


def cmd_relations(args, config: RunConfig) -> tuple[dict, int]:
    ks, ns = _sweep_cells(args)
    records = []
    bad = 0
    for N in ns:
        for k in ks:
            lams = [ResiduePair(N, *args.lam)] if args.lam else index_set(N, k)
            for lam in lams:
                ok = verify_relations(build_induced(k, lam, N))
                records.append(
                    {"k": k, "N": N, "lambda": [lam.l1, lam.l2], "relations_hold": ok}
                )
                if not ok:
                    bad += 1
    out = {"records": records, "failed": bad}
    if not records:
        out["warning"] = EMPTY_SWEEP
    return out, EXIT_TOLERANCE if bad else EXIT_OK


def _load_data(path: str, build):
    """build(payload) for the JSON payload of a --data file; a missing file,
    malformed JSON or a bad entry (a zero denominator included) is a
    configuration error."""
    if not os.path.exists(path):
        raise ValueError(f"data file not found: {path}")
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return build(json.load(fh))
    except (AttributeError, KeyError, TypeError, ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"bad data file {path}: {type(exc).__name__}: {exc}") from exc


def _load_lattice(args) -> QuadLatticeData:
    if args.preset:
        return QuadLatticeData.preset(args.preset)
    if not args.data:
        raise ValueError("need --preset or --data")
    return _load_data(args.data, QuadLatticeData.from_json)


def _hecke_classes(payload: dict):
    """The ideal-class terms and w_f of a hecke --data payload."""
    classes = [
        IdealClassTerm(
            QuadLatticeData.from_json(entry["lattice"]),
            qq(entry.get("norm_b", "1/1")),
            mpc(mpf(entry.get("chi", {}).get("re", "1")), mpf(entry.get("chi", {}).get("im", "0"))),
        )
        for entry in payload["classes"]
    ]
    w_f = payload.get("w_f", 1)
    if type(w_f) is not int or w_f <= 0:
        raise ValueError(f"w_f must be a positive integer, got {w_f!r}")
    return classes, w_f


def cmd_invariant(args, config: RunConfig) -> tuple[dict, int]:
    _check_weight(2 * args.m, 1, m=args.m)
    data = _load_lattice(args)
    gammas = [args.gamma] if args.gamma else ["T", "S", "ST"]
    den_bound = 10 ** 6
    records = []
    failed = 0
    for name in gammas:
        gamma = GAMMAS.get(name)
        if gamma is None:
            raise ValueError(f"unknown generator {name!r} (choose from T, S, ST)")
        shift = psi_gamma_shift(args.m, data, gamma, M=config.trunc, prec=config.prec)
        rec = rational_reconstruct(shift, den_bound, config.tol, config.prec)
        records.append(
            {
                "check": "gamma_shift",
                "gamma": name,
                "value": _num(shift),
                "reconstructed": qq_str(rec) if rec is not None else None,
            }
        )
        if rec is None:
            failed += 1
    ratio = psi_value_ratio(args.m, data, data.lam, M=config.trunc, prec=config.prec)
    rec = rational_reconstruct(ratio, den_bound, config.tol, config.prec)
    records.append(
        {
            "check": "value_ratio",
            "value": _num(ratio),
            "reconstructed": qq_str(rec) if rec is not None else None,
        }
    )
    if rec is None:
        failed += 1
    report = {"m": args.m, "lattice": data.to_json(), "checks": records, "failed": failed}
    return report, EXIT_TOLERANCE if failed else EXIT_OK


def cmd_hecke(args, config: RunConfig) -> tuple[dict, int]:
    _check_weight(2 * args.m, 1, m=args.m)
    if args.data:
        classes, w_f = _load_data(args.data, _hecke_classes)
    elif args.preset:
        data = QuadLatticeData.preset(args.preset)
        classes = [IdealClassTerm(data, QQ(1), mpc(1))]
        w_f = {"gaussian": 4, "eisenstein": 6}[args.preset]
    else:
        raise ValueError("need --preset or --data")
    value = hecke_assemble(args.m, args.delta, classes, w_f, prec=config.prec, M=config.trunc)
    report = {
        "m": args.m,
        "delta": args.delta,
        "w_f": w_f,
        "classes": len(classes),
        "value": _num(value),
    }
    return report, EXIT_OK


def _config_json(config: RunConfig) -> dict:
    return {
        "prec": config.prec,
        "trunc": config.trunc,
        "radius": config.radius,
        "tol": mpf_hex(config.tol),
    }


def _add_global_options(parser: argparse.ArgumentParser, suppress: bool, env_prec: str):
    """Global flags are accepted both before and after the subcommand; the
    after-subcommand copies use SUPPRESS so they only override when given.
    env_prec is the value of EISP_PREC, the default of --prec."""

    def default(value):
        return argparse.SUPPRESS if suppress else value

    try:
        default_prec = int(env_prec)
    except ValueError:
        parser.error(f"EISP_PREC must be an integer number of bits, got {env_prec!r}")
    parser.add_argument("--prec", type=int, default=default(default_prec), help="working precision in bits")
    parser.add_argument(
        "--trunc",
        type=int,
        default=default(None),
        help="Fourier truncation order M: exact for fourier; an upper limit for lvalues, invariant "
        "and hecke, which stop each sum once its tail bound is below the working precision",
    )
    parser.add_argument("--radius", type=int, default=default(400), help="lattice-sum radius R")
    parser.add_argument("--tol", type=str, default=default(None), help="tolerance (default 2^-128)")
    parser.add_argument("--out", type=str, default=default(None), help="write the JSON report to this path")


def _add_lattice_options(parser: argparse.ArgumentParser):
    """--preset or --data, not both: each command would silently drop one."""
    group = parser.add_mutually_exclusive_group()
    group.add_argument("--preset", choices=["gaussian", "eisenstein"], default=None)
    group.add_argument("--data", type=str, default=None)


@lru_cache(maxsize=1)
def build_parser(env_prec: str) -> argparse.ArgumentParser:
    """The `eisp` parser, built once per value of EISP_PREC: parsing leaves
    it as it was, and building it costs about 3 ms, which a process running
    many commands would otherwise pay on each."""
    parser = argparse.ArgumentParser(
        prog="eisp",
        description="Eisenstein-series Fourier expansions, L-values, period "
        "cocycles and lattice invariants with exact certification.",
    )
    parser.add_argument("--version", action="version", version=f"eisp {__version__}")
    _add_global_options(parser, False, env_prec)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("fourier", help="Fourier coefficients, optionally checked against the lattice oracle")
    _add_global_options(p, True, env_prec)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--l", type=int, default=None)
    p.add_argument("--N", type=int, required=True)
    p.add_argument("--lambda", dest="lam", type=_parse_lambda, required=True)
    p.add_argument("--kind", choices=["e", "g", "maass", "elliptic"], default=None)
    p.add_argument(
        "--tau",
        type=_parse_tau,
        default=None,
        help="evaluation point 're,im' (default 0,1); write --tau=-0.3,1.5 when re < 0",
    )
    p.add_argument("--check-lattice", action="store_true")
    p.set_defaults(func=cmd_fourier)

    p = sub.add_parser("lvalues", help="special L-values by all three routes")
    _add_global_options(p, True, env_prec)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--N", type=int, required=True)
    p.add_argument("--lambda", dest="lam", type=_parse_lambda, required=True)
    p.add_argument("--r", type=int, default=None)
    p.set_defaults(func=cmd_lvalues)

    p = sub.add_parser("periods", help="period polynomials at T and S")
    _add_global_options(p, True, env_prec)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--N", type=int, required=True)
    p.add_argument("--lambda", dest="lam", type=_parse_lambda, required=True)
    p.set_defaults(func=cmd_periods)

    p = sub.add_parser("rationality", help="coboundary modification and exact rationality certification")
    _add_global_options(p, True, env_prec)
    p.add_argument("--k", type=int, default=None)
    p.add_argument("--N", type=int, default=None)
    p.add_argument("--k-max", type=int, default=8)
    p.add_argument("--N-max", type=int, default=6)
    p.add_argument("--values", action="store_true", help="include modified polynomial values")
    p.set_defaults(func=cmd_rationality)

    p = sub.add_parser("relations", help="exact cocycle-relation verification")
    _add_global_options(p, True, env_prec)
    p.add_argument("--k", type=int, default=None)
    p.add_argument("--N", type=int, default=None)
    p.add_argument("--k-max", type=int, default=8)
    p.add_argument("--N-max", type=int, default=6)
    p.add_argument("--lambda", dest="lam", type=_parse_lambda, default=None)
    p.set_defaults(func=cmd_relations)

    p = sub.add_parser("invariant", help="lattice-invariant rationality certification")
    _add_global_options(p, True, env_prec)
    p.add_argument("--m", type=int, required=True)
    _add_lattice_options(p)
    p.add_argument("--gamma", type=str, default=None)
    p.set_defaults(func=cmd_invariant)

    p = sub.add_parser("hecke", help="class-by-class L-value assembly")
    _add_global_options(p, True, env_prec)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--delta", type=int, default=0)
    _add_lattice_options(p)
    p.set_defaults(func=cmd_hecke)

    return parser


def main(argv=None) -> int:
    parser = build_parser(os.environ.get("EISP_PREC", "192"))
    args = parser.parse_args(argv)
    prec = args.prec
    if args.command in ("invariant", "hecke") and prec < 256:
        prec = 256  # reconstruction thresholds are calibrated to 256 bits
    trunc = args.trunc
    if trunc is None:
        trunc = 400 if args.command in ("invariant", "hecke") else 200
    if args.tol is not None:
        try:
            tol = mpf(args.tol)
        except ValueError:
            parser.error(f"--tol must be a number, got {args.tol!r}")
    elif args.command == "invariant":
        tol = mpf(10) ** -30
    else:
        tol = max(mpf(2) ** -128, mpf(2) ** (16 - prec))
    try:
        config = RunConfig(
            prec=prec, trunc=trunc, radius=args.radius, tol=tol, out=args.out
        ).validate()
        with mp.workprec(config.prec + GUARD_BITS):
            report, status = args.func(args, config)
        report["config"] = _config_json(config)
        _emit(report, config)
    except (ValueError, OSError) as exc:
        parser.error(str(exc))
    return status


if __name__ == "__main__":
    sys.exit(main())
