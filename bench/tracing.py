"""Spans around calls into mhdstab, recorded from outside the package.

A wrapped function records one span per call: name, start, end, parent span
and the repetition it belongs to, plus the exception type if it raised.
Spans stay in memory; the harness aggregates them and writes them out when
the run ends.  A name that other modules imported with `from ... import` is
replaced in every mhdstab namespace that holds it, so calls through any of
those names are seen.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import Counter, defaultdict

import numpy as np

NAME, START, END, PARENT, REP, ERROR = range(6)


def replace_everywhere(old, new, undo: list) -> None:
    """Rebind every mhdstab module attribute that is `old` to `new`."""
    for name, mod in list(sys.modules.items()):
        if mod is None or name.split(".")[0] != "mhdstab":
            continue
        for attr, value in list(vars(mod).items()):
            if value is old:
                setattr(mod, attr, new)
                undo.append((mod, attr, old))


def restore(undo: list) -> None:
    for owner, attr, old in reversed(undo):
        setattr(owner, attr, old)
    undo.clear()


class Tracer:
    """Records spans for the functions it is installed on."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.rep = 0
        self._stack: list[int] = []
        self._undo: list = []

    def wrap(self, name: str, fn, on_call=None, on_result=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if on_call is not None:
                on_call(args, kwargs)
            span = [name, clock(), 0.0, stack[-1] if stack else -1, self.rep, None]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span[ERROR] = type(exc).__name__
                raise
            finally:
                span[END] = clock()
                stack.pop()
            if on_result is not None:
                result = on_result(result)
            return result

        return traced

    def innermost(self) -> str | None:
        return self.spans[self._stack[-1]][NAME] if self._stack else None

    def install(self) -> None:
        """Wrap the functions named in the benchmark's per-layer metrics."""
        from mhdstab import charstruct, cli, lopatinski, symbol, thermo

        def continuation(args, kwargs):
            gamma_L = args[1] if len(args) > 1 else kwargs["gamma_L"]
            if gamma_L <= 1e-8:
                self.counts["lopatinski.stable_subspace.continuation_calls"] += 1

        def rh_jacobian(args, kwargs):
            if self.innermost() == "lopatinski.rankine_hugoniot":
                self.counts["lopatinski.rankine_hugoniot.jacobian_evals"] += 1

        def trace_evaluator(op):
            # The shock operator's per-frequency work runs in its evaluator.
            op._evaluator = self.wrap("lopatinski.shock_boundary_operator",
                                      op._evaluator)
            return op

        functions = [
            (lopatinski.lopatinski_det, "lopatinski.lopatinski_det", None, None),
            (lopatinski.stable_subspace, "lopatinski.stable_subspace",
             continuation, None),
            (lopatinski.shock_boundary_operator,
             "lopatinski.shock_boundary_operator", None, trace_evaluator),
            (lopatinski.shock_scan, "lopatinski.scan", None, None),
            (lopatinski.uniform_scan, "lopatinski.scan", None, None),
            (lopatinski.rankine_hugoniot, "lopatinski.rankine_hugoniot", None, None),
            (charstruct.classify, "charstruct.classify", None, None),
            (charstruct.nonglancing_test, "charstruct.nonglancing_test", None, None),
            (charstruct.eigenvalues, "charstruct.eigenvalues", None, None),
            (charstruct.wave_speeds, "charstruct.wave_speeds", None, None),
            (symbol.assemble_full_symbol, "symbol.assemble_full_symbol", None, None),
            (symbol.boundary_matrix, "symbol.boundary_matrix", None, None),
            (thermo.eval_eos, "thermo.eval_eos", None, None),
            (cli.main, "cli.main", None, None),
            (cli.write_json, "cli.write", None, None),
        ]
        for fn, name, on_call, on_result in functions:
            replace_everywhere(fn, self.wrap(name, fn, on_call, on_result),
                               self._undo)

        # Counted, not spanned: Newton iterations inside the jump solve.
        flux_jacobian = lopatinski.flux_jacobian

        @functools.wraps(flux_jacobian)
        def counted_flux_jacobian(*args, **kwargs):
            rh_jacobian(args, kwargs)
            return flux_jacobian(*args, **kwargs)

        replace_everywhere(flux_jacobian, counted_flux_jacobian, self._undo)

        methods = [
            (lopatinski.BoundaryOperator, "matrix", "lopatinski.operator_matrix"),
            (lopatinski.BoundaryOperator, "kernel_basis", "lopatinski.kernel_basis"),
            (lopatinski.ScanResult, "write_csv", "cli.write"),
        ]
        for cls, attr, name in methods:
            old = cls.__dict__[attr]
            setattr(cls, attr, self.wrap(name, old))
            self._undo.append((cls, attr, old))

    def uninstall(self) -> None:
        restore(self._undo)

    def per_rep(self, n_reps: int) -> dict:
        """Per-layer figures per repetition: calls, self time, latencies."""
        dur = [s[END] - s[START] for s in self.spans]
        child = [0.0] * len(self.spans)
        for i, s in enumerate(self.spans):
            if s[PARENT] >= 0:
                child[s[PARENT]] += dur[i]
        by_name = defaultdict(list)
        for i, s in enumerate(self.spans):
            by_name[s[NAME]].append(i)
        out = {}
        for name, idx in by_name.items():
            d = np.array([dur[i] for i in idx])
            out[name] = {
                "calls": len(idx) / n_reps,
                "self_s": sum(dur[i] - child[i] for i in idx) / n_reps,
                "total_s": float(d.sum()) / n_reps,
                "us_p50": float(np.percentile(d, 50)) * 1e6,
                "us_p99": float(np.percentile(d, 99)) * 1e6,
                "failed": sum(self.spans[i][ERROR] is not None for i in idx) / n_reps,
            }
        return out
