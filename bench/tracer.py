"""Outside-in layer spans for the benchmark's traced run.

The tracer wraps the public functions of each fracbspde layer from the
benchmark's side: it replaces every module attribute that is bound to one
of those functions (the defining module and every module that imported the
name, e.g. ``fracbspde.bspde.project_expectation``), and the ``numpy.fft``
transforms that the library calls as ``np.fft.<name>``.  Nothing under
``src/`` changes; ``Tracer.installed()`` restores every binding on exit.

Spans live in memory and are written out once, in Chrome Trace Event
Format (``ph: "X"`` complete events, microseconds), which Perfetto and
``chrome://tracing`` open.  Each span carries its id, its parent's id and
the id of the op that caused it.  A span's self time is its duration minus
the durations of its direct children.

Counts are taken at the same boundaries from argument shapes only, so they
repeat exactly for the same inputs.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path

import numpy as np

import fracbspde.cli
import fracbspde.grid
from fracbspde.kernel import X_SWITCH

LAYERS = ("fft", "zakai", "regression", "grid", "kernel", "levy", "bspde", "cli")

FFT_COMPLEX = ("fft", "ifft")
FFT_REAL = ("rfft", "irfft")


def _bound(fn, args, kwargs) -> dict:
    bound = inspect.signature(fn).bind(*args, **kwargs)
    bound.apply_defaults()
    return bound.arguments


def _count_fft(fn, args, kwargs, counts):
    counts["fft.points"] += int(np.size(args[0]))
    if fn.__name__ in FFT_REAL:
        counts["fft.real_calls"] += 1


def _count_path_steps(fn, args, kwargs, counts):
    a = _bound(fn, args, kwargs)
    counts["zakai.path_steps"] += int(a["y_inc"].shape[0]) * int(a["n_steps"])


def _count_projection(fn, args, kwargs, counts):
    a = _bound(fn, args, kwargs)
    targets = np.asarray(a["targets"])
    counts["regression.design_cells"] += int(np.size(a["design"]))
    counts["regression.target_cols"] += int(targets.shape[1]) if targets.ndim == 2 else 1


def _count_norm_cells(fn, args, kwargs, counts):
    a = _bound(fn, args, kwargs)
    shape = np.shape(a["values"])
    paths, times, n = (1,) + shape if len(shape) == 2 else shape
    offsets = fracbspde.grid.pair_offsets(n, exact_limit=a["exact_limit"])
    counts["grid.norm_cells"] += paths * times * n * int(offsets.size)
    # one float64 difference array and one squared copy per offset
    counts["grid.norm_bytes_computed"] += 16 * paths * times * int(np.sum(n - offsets))


def _count_kernel_points(fn, args, kwargs, counts):
    x = np.abs(np.atleast_1d(np.asarray(args[0], dtype=float)))
    counts["kernel.points"] += int(x.size)
    counts["kernel.near_points"] += int(np.count_nonzero(x <= X_SWITCH))


def _count_samples(fn, args, kwargs, counts):
    size = _bound(fn, args, kwargs)["size"]
    counts["levy.samples"] += int(np.prod(size)) if size is not None else 1


# (module, function, span name, counter); the span's layer is its first component
TARGETS = [
    ("fracbspde.zakai", "cost_functional", "zakai.cost_functional", _count_path_steps),
    ("fracbspde.zakai", "solve_zakai", "zakai.solve_zakai", _count_path_steps),
    ("fracbspde.zakai", "solve_adjoint", "zakai.solve_adjoint", None),
    ("fracbspde.zakai", "hamiltonian", "zakai.hamiltonian", None),
    ("fracbspde.zakai", "brute_force_optimal_control", "zakai.brute_force_optimal_control", None),
    ("fracbspde.zakai", "verify_maximum_principle", "zakai.verify_maximum_principle", None),
    ("fracbspde.regression", "project_expectation", "regression.project_expectation", _count_projection),
    ("fracbspde.regression", "design_matrix", "regression.design_matrix", None),
    ("fracbspde.grid", "ensemble_process_norms", "grid.ensemble_process_norms", _count_norm_cells),
    ("fracbspde.kernel", "eval_G", "kernel.eval", _count_kernel_points),
    ("fracbspde.kernel", "deriv_G", "kernel.eval", _count_kernel_points),
    ("fracbspde.kernel", "frac_lap_G", "kernel.eval", _count_kernel_points),
    ("fracbspde.kernel", "verify_kernel_bounds", "kernel.verify_kernel_bounds", None),
    ("fracbspde.levy", "sample_stable", "levy.sample_stable", _count_samples),
    ("fracbspde.levy", "simulate_brownian_increments", "levy.simulate_brownian_increments", None),
    ("fracbspde.levy", "feynman_kac_estimate", "levy.feynman_kac_estimate", None),
    ("fracbspde.bspde", "solve_fourier_deterministic", "bspde.solve_fourier_deterministic", None),
    ("fracbspde.bspde", "solve_kernel_deterministic", "bspde.solve_kernel_deterministic", None),
    ("fracbspde.bspde", "solve_pde_variable_coeff", "bspde.solve_pde_variable_coeff", None),
    ("fracbspde.bspde", "solve_bspde_linear_gaussian", "bspde.solve_bspde_linear_gaussian", None),
    ("fracbspde.bspde", "solve_bspde_regression", "bspde.solve_bspde_regression", None),
    ("fracbspde.bspde", "space_process_norm", "bspde.space_process_norm", None),
    ("fracbspde.bspde", "verify_holder_estimate", "bspde.verify_holder_estimate", None),
    ("fracbspde.bspde", "fbsde_crosscheck", "bspde.fbsde_crosscheck", None),
    ("fracbspde.cli", "main", "cli.main", None),
]
TARGETS += [("numpy.fft", name, "fft." + name, _count_fft) for name in FFT_COMPLEX + FFT_REAL]

# per-function metrics the layer table names; every layer also reports calls/self_s/errors
FUNCTION_METRICS = [
    ("zakai.cost_functional", ("calls", "self_s")),
    ("zakai.solve_zakai", ("self_s",)),
    ("zakai.solve_adjoint", ("self_s",)),
    ("zakai.hamiltonian", ("self_s",)),
    ("zakai.brute_force_optimal_control", ("self_s",)),
    ("zakai.verify_maximum_principle", ("self_s",)),
    ("regression.project_expectation", ("calls", "self_s", "errors")),
    ("regression.design_matrix", ("self_s",)),
    ("grid.ensemble_process_norms", ("calls", "self_s")),
    ("kernel.eval", ("calls", "self_s")),
    ("kernel.verify_kernel_bounds", ("self_s",)),
    ("levy.sample_stable", ("calls", "self_s")),
    ("levy.simulate_brownian_increments", ("self_s",)),
    ("levy.feynman_kac_estimate", ("self_s",)),
] + [
    (name, ("self_s",))
    for module, _fn, name, _c in TARGETS
    if module == "fracbspde.bspde"
]

COUNTS = [
    "fft.real_calls",
    "fft.points",
    "zakai.path_steps",
    "regression.design_cells",
    "regression.target_cols",
    "grid.norm_cells",
    "grid.norm_bytes_computed",
    "kernel.points",
    "kernel.near_points",
    "levy.samples",
    "cli.bytes_written",
]


class Span:
    __slots__ = ("id", "name", "parent", "op", "start", "end", "child_s", "error", "args")

    def __init__(self, span_id, name, parent, op, args=None):
        self.id = span_id
        self.name = name
        self.parent = parent
        self.op = op
        self.start = time.perf_counter()
        self.end = None
        self.child_s = 0.0
        self.error = False
        self.args = args or {}


class Tracer:
    """In-memory span collector with per-name aggregates and exact counts."""

    def __init__(self):
        self.t0 = time.perf_counter()
        self.spans: list[Span] = []
        self.stack: list[Span] = []
        self.op_id: int | None = None
        self.counts: dict[str, int] = defaultdict(int)
        self.calls: dict[str, int] = defaultdict(int)
        self.self_s: dict[str, float] = defaultdict(float)
        self.errors: dict[str, int] = defaultdict(int)

    # --- spans -------------------------------------------------------------

    def _open(self, name: str, args=None) -> Span:
        parent = self.stack[-1].id if self.stack else None
        span = Span(len(self.spans), name, parent, self.op_id, args)
        self.spans.append(span)
        self.stack.append(span)
        return span

    def _close(self, span: Span) -> None:
        span.end = time.perf_counter()
        self.stack.pop()
        duration = span.end - span.start
        if self.stack:
            self.stack[-1].child_s += duration
        self.calls[span.name] += 1
        self.self_s[span.name] += duration - span.child_s
        self.errors[span.name] += span.error

    @contextmanager
    def op(self, op_id: int, kind: str, params: dict):
        """Root span of one op; every layer span inside it carries its id."""
        self.op_id = op_id
        span = self._open("op." + kind, {"params": params})
        try:
            yield span
        except BaseException:
            span.error = True
            raise
        finally:
            self._close(span)
            self.op_id = None

    def _wrap(self, fn, name, counter):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if counter is not None:
                counter(fn, args, kwargs, self.counts)
            span = self._open(name)
            try:
                return fn(*args, **kwargs)
            except BaseException:
                span.error = True
                raise
            finally:
                self._close(span)

        return traced

    @contextmanager
    def installed(self):
        """Patch every binding of the traced functions; restore them on exit."""
        saved = []
        try:
            for module_name, fn_name, span_name, counter in TARGETS:
                original = getattr(sys.modules[module_name], fn_name)
                traced = self._wrap(original, span_name, counter)
                for mod_name, module in list(sys.modules.items()):
                    if mod_name != module_name and not mod_name.startswith("fracbspde"):
                        continue
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            saved.append((module, attr, original))
                            setattr(module, attr, traced)
            yield self
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)

    # --- results -----------------------------------------------------------

    def layer_metrics(self) -> dict[str, float]:
        """Per-layer calls/self_s/errors, the named per-function figures, counts."""
        out: dict[str, float] = {}
        for layer in LAYERS:
            names = [n for n in self.calls if n.split(".", 1)[0] == layer]
            out[f"{layer}.calls"] = sum(self.calls[n] for n in names)
            out[f"{layer}.self_s"] = sum(self.self_s[n] for n in names)
            out[f"{layer}.errors"] = sum(self.errors[n] for n in names)
        table = {"calls": self.calls, "self_s": self.self_s, "errors": self.errors}
        for name, fields in FUNCTION_METRICS:
            for f in fields:
                out[f"{name}.{f}"] = table[f].get(name, 0)
        for key in COUNTS:
            out[key] = self.counts.get(key, 0)
        op_names = [n for n in self.calls if n.startswith("op.")]
        wall = sum(s.end - s.start for s in self.spans if s.parent is None and s.end)
        unattributed = sum(self.self_s[n] for n in op_names)
        out["op.wall_s"] = wall
        out["op.unattributed_s"] = unattributed
        out["op.unattributed_share"] = unattributed / wall if wall > 0 else 0.0
        return out

    def write_chrome_trace(self, path: Path, metadata: dict) -> None:
        """Write the spans as Chrome Trace Event Format JSON."""
        events = []
        for s in self.spans:
            if s.end is None:
                continue
            args = {"id": s.id, "parent": s.parent, "op": s.op}
            if s.error:
                args["error"] = True
            args.update(s.args)
            events.append(
                {
                    "name": s.name,
                    "cat": s.name.split(".", 1)[0],
                    "ph": "X",
                    "ts": round((s.start - self.t0) * 1e6, 3),
                    "dur": round((s.end - s.start) * 1e6, 3),
                    "pid": 1,
                    "tid": 1,
                    "args": args,
                }
            )
        path.write_text(
            json.dumps({"traceEvents": events, "displayTimeUnit": "ms", "otherData": metadata})
        )
