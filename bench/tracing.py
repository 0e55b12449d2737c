"""Per-module call tracing for the benchmark's traced rounds.

The tracer replaces each public function listed in ``WRAPPED`` by a timing
wrapper in every module namespace that holds it (the defining module and
every module that imported it by name), so calls between modules are caught.
Nothing under ``src/`` is edited; ``uninstall`` puts the originals back.

Each call becomes a span (name, start, end, parent span, operation index),
kept in flat arrays in memory and written out by ``write_spans`` once the
round ends.  Self time is a span's duration minus the durations of its
direct child spans.
"""
from __future__ import annotations

import fractions
import functools
import gzip
import sys
import time
from array import array

WRAPPED = {
    "cli": ["main"],
    "cocycle": [
        "build_induced",
        "coboundary",
        "modify_and_certify",
        "verify_relations",
        "evaluate_cocycle",
        "shapiro_descend",
        "period_T",
        "period_S",
        "PeriodPoly.act",
        "PeriodPoly.shift",
    ],
    "modgroup": ["enumerate_sl2", "decompose_ST"],
    "exact": ["bernoulli_value", "cyclo_canonical", "symbol_reduce"],
    "numerics": [
        "hurwitz_zeta",
        "polylog",
        "polylog_s",
        "e_of",
        "cyclo_value",
        "ext_scalar_value",
        "rational_reconstruct",
    ],
    "eisenstein": [
        "lattice_sum",
        "e_fourier",
        "g_fourier",
        "maass_fourier",
        "elliptic_maass_fourier",
        "eval_fourier",
    ],
    "lseries": [
        "LFunctionSpec.for_e_series",
        "lvalue_closed",
        "lvalue_numeric",
        "lvalue_lerch_product",
    ],
    "invariant": [
        "psi",
        "psi_r_value",
        "psi_gamma_shift",
        "psi_value_ratio",
        "hecke_assemble",
    ],
}

# counters read from outside the program at the end of a traced round
COUNTERS = [
    "cli.report_bytes",
    "exact.rationals_made",
    "numerics.polylog_cache_hits",
    "lseries.gamma_cache_entries",
]

# figures about the traced round itself
TRACE_METRICS = [("trace.wall_s", "s"), ("trace.overhead_s", "s"), ("trace.spans", "count")]


def traced_names() -> list:
    return [f"{mod}.{fn}" for mod, fns in WRAPPED.items() for fn in fns]


def per_layer_names() -> list:
    """(metric name, unit) for every per-layer metric, in report order."""
    out = []
    for name in traced_names():
        out.append((f"{name}.self_s", "s"))
        out.append((f"{name}.calls", "count"))
    out.extend((name, "count") for name in COUNTERS)
    out.extend(TRACE_METRICS)
    return out


class Tracer:
    def __init__(self):
        self.names: list = []
        self.self_s: list = []
        self.calls: list = []
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_op = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.op = -1  # index of the operation now running
        self.rationals = [0]
        self._stack = [-1]  # open span ids; -1 is the root
        self._child = [0.0]  # time spent in child spans of each open span
        self._undo: list = []
        self.t0 = time.perf_counter()

    def _wrap(self, name: str, fn):
        ix = len(self.names)
        self.names.append(name)
        self.self_s.append(0.0)
        self.calls.append(0)
        clock = time.perf_counter
        stack, child = self._stack, self._child
        s_name, s_parent, s_op = self.span_name, self.span_parent, self.span_op
        s_start, s_end = self.span_start, self.span_end
        self_s, calls = self.self_s, self.calls

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(s_start)
            s_name.append(ix)
            s_parent.append(stack[-1])
            s_op.append(self.op)
            s_start.append(0.0)
            s_end.append(0.0)
            stack.append(sid)
            child.append(0.0)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                inner = child.pop()
                dur = t1 - t0
                s_start[sid] = t0
                s_end[sid] = t1
                self_s[ix] += dur - inner
                calls[ix] += 1
                child[-1] += dur

        return traced

    def _replace(self, namespaces: list, orig, new) -> None:
        for ns in namespaces:
            for key, val in list(vars(ns).items()):
                if val is orig:
                    setattr(ns, key, new)
                    self._undo.append((ns, key, orig))

    def install(self, modules: dict, extra_namespaces: list = ()) -> None:
        """Wrap every function of WRAPPED.  ``modules`` maps the short module
        names to the imported modules; ``extra_namespaces`` are further
        modules (the benchmark's own) whose imported names are rebound too."""
        namespaces = list(modules.values()) + list(extra_namespaces)
        for mod_name, fns in WRAPPED.items():
            module = modules[mod_name]
            for qual in fns:
                name = f"{mod_name}.{qual}"
                owner_name, _, attr = qual.rpartition(".")
                owner = getattr(module, owner_name) if owner_name else module
                raw = vars(owner).get(attr)
                if raw is None:
                    print(f"trace: {name} not found; reported as 0", file=sys.stderr)
                    self._wrap(name, None)
                    continue
                if owner_name:  # a method or classmethod on a class
                    if isinstance(raw, classmethod):
                        new = classmethod(self._wrap(name, raw.__func__))
                    else:
                        new = self._wrap(name, raw)
                    setattr(owner, attr, new)
                    self._undo.append((owner, attr, raw))
                else:
                    self._replace(namespaces, raw, self._wrap(name, raw))
        qq = getattr(modules["exact"], "QQ", None)
        if qq is fractions.Fraction:
            self._count_fractions()

    def _count_fractions(self) -> None:
        """Count Fraction constructions; arithmetic on Fractions builds its
        results through the constructor, so this counts every rational made."""
        orig = vars(fractions.Fraction)["__new__"]
        inner = orig.__func__
        counter = self.rationals

        def counted_new(cls, *args, **kwargs):
            counter[0] += 1
            return inner(cls, *args, **kwargs)

        fractions.Fraction.__new__ = staticmethod(counted_new)
        self._undo.append((fractions.Fraction, "__new__", orig))

    def exclude(self, seconds: float) -> None:
        """Count ``seconds`` spent by the benchmark itself inside the open
        span as child time, so no function's self time includes it."""
        self._child[-1] += seconds

    def uninstall(self) -> None:
        for obj, attr, orig in reversed(self._undo):
            setattr(obj, attr, orig)
        self._undo.clear()

    def metrics(self) -> dict:
        out = {}
        for ix, name in enumerate(self.names):
            out[f"{name}.self_s"] = self.self_s[ix]
            out[f"{name}.calls"] = self.calls[ix]
        return out

    def write_spans(self, path: str, op_labels: list) -> None:
        """Gzipped TSV, one span per line: id, name, operation, start and end
        in seconds since the tracer was made, parent id (-1 for none)."""
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            fh.write("# operations: " + "\t".join(op_labels) + "\n")
            fh.write("id\tname\top\tstart_s\tend_s\tparent\n")
            names, t0 = self.names, self.t0
            for sid in range(len(self.span_start)):
                fh.write(
                    f"{sid}\t{names[self.span_name[sid]]}\t{self.span_op[sid]}\t"
                    f"{self.span_start[sid] - t0:.9f}\t{self.span_end[sid] - t0:.9f}\t"
                    f"{self.span_parent[sid]}\n"
                )
