"""Unified command-line entry point.

Subcommands: kernel, fraclap, levy, solve-pde, solve-bspde, zakai, control,
verify-all (the COMMANDS table).  Each subcommand's schema maps every config
key to (type, default, flag); build_parser adds one option per flagged key,
parsed as the key's type, so a setting is declared in one place.  Every run
validates its configuration against that schema (unknown keys are rejected
with the offending key path and exit code 2), echoes the fully resolved
configuration into its JSON artifacts, and is bit-reproducible for a fixed
(config, seed).

Exit codes: 0 success, 1 check failure, 2 configuration error.
"""

from __future__ import annotations

import argparse
import csv
import importlib.resources
import json
import sys

import numpy as np

from . import __version__
from .bspde import (
    BSPDEData,
    PathFunctional,
    RandomFieldSpec,
    RandomTerm,
    solve_bspde_linear_gaussian,
    solve_bspde_regression,
    solve_fourier_deterministic,
    solve_pde_variable_coeff,
)
from .checks import CheckResult, check_ids, run_checks
from .errors import (
    ConfigError,
    FracBspdeError,
    MalformedInput,
    OffGridTime,
    OutOfRange,
    PositivityViolation,
    ResolutionError,
)
from .fraclap import SingularIntegralConfig, apply_singular_integral, apply_spectral
from .grid import Grid1D, read_field_csv, time_indices, write_field_csv
from .kernel import (
    CoefficientA,
    KernelParams,
    deriv_G_ts,
    eval_G_ts,
    kernel_tail_mass,
    verify_kernel_bounds,
)
from .levy import PathGrid, RngStream, sample_stable, simulate_brownian_increments
from .presets import parse_field, parse_time_fn
from .zakai import (
    ControlPolicy,
    ControlProblem,
    brute_force_optimal_control,
    solve_zakai,
    verify_maximum_principle,
)

GRID_DEFAULT = {"x_min": -32.0, "x_max": 32.0, "n": 2048}
# pathwise solvers materialize (paths, times, n) arrays; default them coarser
GRID_DEFAULT_PATHWISE = {"x_min": -32.0, "x_max": 32.0, "n": 256}
# least value of each count key, in every schema that has it; 8 is the floor
# of SingularIntegralConfig
COUNT_MINIMUM = {"samples": 1, "quadrature_points": 8, "paths": 1, "steps": 1, "intervals": 1}
# values that must be finite and > 0, in every schema that has them
POSITIVE_KEYS = ("T", "horizon", "p0_width", "x_range", "A", "inner_cutoff")


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool) and abs(value) < np.inf


def _load_config(path: str | None, schema: dict, overrides: dict) -> dict:
    """Merge config-file values and CLI overrides against a schema.

    schema maps key -> (type, default, flag); unknown keys, wrong types, counts
    below COUNT_MINIMUM, POSITIVE_KEYS <= 0, an alpha outside (1, 2] and a
    control set that is not a non-empty list of numbers are rejected with
    their path; None overrides are ignored.
    """
    raw = {}
    if path is not None:
        try:
            with open(path) as fh:
                raw = json.load(fh)
        except (OSError, ValueError) as exc:
            raise ConfigError(f"cannot read a JSON config: {exc}", "config") from exc
        if not isinstance(raw, dict):
            raise ConfigError("config root must be a JSON object", "")
    for key, value in overrides.items():
        if value is not None:
            raw[key] = value
    resolved = {}
    for key, value in raw.items():
        if key not in schema:
            raise ConfigError(f"unknown config key {key!r}", key)
        expected = schema[key][0]
        if expected is float and isinstance(value, int) and not isinstance(value, bool):
            value = float(value)
        # bool is an int subclass, and no key takes a bool
        if isinstance(value, bool) or (expected is not None and not isinstance(value, expected)):
            raise ConfigError(
                f"config key {key!r} expects {getattr(expected, '__name__', expected)}, "
                f"got {type(value).__name__}",
                key,
            )
        if key in COUNT_MINIMUM and value < COUNT_MINIMUM[key]:
            raise ConfigError(f"{key} must be >= {COUNT_MINIMUM[key]}, got {value}", key)
        if key in POSITIVE_KEYS and not (_is_number(value) and value > 0):
            raise ConfigError(f"{key} must be finite and > 0, got {value}", key)
        if key == "alpha" and not 1.0 < value <= 2.0:  # the range of fraclap.check_alpha
            raise ConfigError(f"alpha must lie in (1, 2], got {value}", key)
        if key == "controls" and not (value and all(map(_is_number, value))):
            raise ConfigError(f"controls must be a non-empty list of numbers, got {value}", key)
        resolved[key] = value
    for key, (_t, default, _flag) in schema.items():
        resolved.setdefault(key, default)
    return resolved


def _flags(args: argparse.Namespace, schema: dict) -> dict:
    """The command-line value of every schema key (None where no flag was given)."""
    return {key: getattr(args, key, None) for key in schema}


def _grid_from_cfg(cfg: dict, pathwise: bool = False) -> Grid1D:
    default = GRID_DEFAULT_PATHWISE if pathwise else GRID_DEFAULT
    schema = {k: (type(v), v, None) for k, v in default.items()}
    try:
        g = _load_config(None, schema, cfg.get("grid") or {})
    except ConfigError as exc:
        raise ConfigError(str(exc), f"grid.{exc.key_path}") from exc
    if g["n"] < 2 or g["n"] & (g["n"] - 1):
        raise ConfigError(f"n must be a power of two >= 2, got {g['n']}", "grid.n")
    if not (np.all(np.isfinite([g["x_min"], g["x_max"]])) and g["x_min"] < g["x_max"]):
        raise ConfigError("need finite x_min < x_max", "grid.x_max")
    return Grid1D(g["x_min"], g["x_max"], g["n"])


def _step_time_indices(ts: list, T: float, steps: int, key: str) -> np.ndarray:
    """Indices of the times ts on the step grid of [0, T]; a ConfigError naming key otherwise."""
    try:
        return time_indices(np.linspace(0.0, T, steps + 1), ts)
    except (OffGridTime, TypeError, ValueError) as exc:
        raise ConfigError(f"{exc}; times must be numbers on the {steps}-step grid", key) from exc


def _dump_json(obj, path: str) -> None:
    with open(path, "w") as fh:
        json.dump(obj, fh, sort_keys=True, indent=2)
        fh.write("\n")


def _write_rows(path: str, header: list[str], rows) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow([repr(float(v)) for v in row])


# --- kernel -----------------------------------------------------------------


KERNEL_SCHEMA = {
    "alpha": (float, 1.5, "--alpha"),
    "A": (float, 1.0, "--A"),
    "x_range": (float, 20.0, "--xrange"),
    "samples": (int, 401, "--samples"),
    "output": (str, "kernel.csv", "--output"),
    "report": ((str, type(None)), None, "--report"),
}


def cmd_kernel(cfg: dict) -> int:
    try:  # alpha is in range here; the scaling law bounds A from below
        params = KernelParams(cfg["alpha"], cfg["A"])
    except OutOfRange as exc:
        raise ConfigError(str(exc), "A") from exc
    xs = np.linspace(-cfg["x_range"], cfg["x_range"], cfg["samples"])
    rows = zip(
        xs,
        eval_G_ts(xs, params),
        deriv_G_ts(xs, params, 1),
        deriv_G_ts(xs, params, 2),
    )
    _write_rows(cfg["output"], ["x", "G", "DG", "D2G"], rows)
    if cfg["report"]:
        tail = (
            kernel_tail_mass(cfg["alpha"], cfg["x_range"] / params.A_ts ** (1 / cfg["alpha"]))
            if cfg["alpha"] < 2.0
            else 0.0
        )
        checks = verify_kernel_bounds(cfg["alpha"], base_n=501)
        _dump_json(
            {
                "config": cfg,
                "tail_mass_beyond_box": tail,
                "bounds": [
                    {
                        "id": c.check_id,
                        "formula": c.formula,
                        "constant": c.constant,
                        "rel_change": c.rel_change,
                        "stable": c.stable,
                    }
                    for c in checks
                ],
            },
            cfg["report"],
        )
    return 0


# --- fraclap -----------------------------------------------------------------


FRACLAP_SCHEMA = {
    "alpha": (float, 1.5, "--alpha"),
    "method": (str, "spectral", "--method"),
    "input": ((str, type(None)), None, "--input"),
    "output": (str, "fraclap.csv", "--output"),
    "quadrature_points": (int, 64, "--quad-points"),
    "inner_cutoff": (float, 2.0, "--inner-cutoff"),
}


def cmd_fraclap(cfg: dict) -> int:
    if cfg["method"] not in ("spectral", "integral"):
        raise ConfigError(f"method must be spectral or integral, got {cfg['method']!r}", "method")
    if cfg["method"] == "integral" and cfg["alpha"] == 2.0:
        raise ConfigError("the integral method needs alpha < 2; use the spectral method", "alpha")
    try:  # the counts are in range here; the cutoff must be >= 1 dx
        quad = SingularIntegralConfig(
            inner_cutoff=cfg["inner_cutoff"], quadrature_points=cfg["quadrature_points"]
        )
    except ResolutionError as exc:
        raise ConfigError(str(exc), "inner_cutoff") from exc
    if cfg["input"] is None:
        raise ConfigError("an input CSV is required", "input")
    try:
        f = read_field_csv(cfg["input"])
    except (OSError, MalformedInput) as exc:
        raise ConfigError(str(exc), "input") from exc
    if cfg["method"] == "spectral":
        out = apply_spectral(f, cfg["alpha"])
    else:
        out = apply_singular_integral(f, cfg["alpha"], quad)
    write_field_csv(out, cfg["output"])
    return 0


# --- levy ---------------------------------------------------------------------


LEVY_SCHEMA = {
    "alpha": (float, 1.5, "--alpha"),
    "paths": (int, 4, "--paths"),
    "steps": (int, 64, "--steps"),
    "seed": (int, 0, "--seed"),
    "horizon": (float, 1.0, "--horizon"),
    "output": ((str, type(None)), None, "--output"),
    "summary": ((str, type(None)), None, "--summary"),
}


def cmd_levy(cfg: dict) -> int:
    grid_t = PathGrid(0.0, cfg["horizon"], cfg["steps"])
    gen = RngStream(cfg["seed"]).generator()
    inc = sample_stable(cfg["alpha"], grid_t.dt, gen, (cfg["paths"], cfg["steps"]))
    values = np.concatenate(
        [np.zeros((cfg["paths"], 1)), np.cumsum(inc, axis=1)], axis=1
    )
    if cfg["output"]:
        header = ["t"] + [f"path{i}" for i in range(cfg["paths"])]
        _write_rows(cfg["output"], header, np.column_stack([grid_t.times, values.T]))
    if cfg["summary"]:
        terminal = values[:, -1]
        xi_probe = (0.5, 1.0, 2.0)
        summary = {
            "config": cfg,
            "terminal": {
                "median": float(np.median(terminal)),
                "iqr": float(np.subtract(*np.percentile(terminal, [75, 25]))),
                "abs_q90": float(np.percentile(np.abs(terminal), 90)),
            },
            "empirical_char_function": {
                str(x): float(np.mean(np.cos(x * terminal))) for x in xi_probe
            },
            "target_char_function": {
                str(x): float(np.exp(-cfg["horizon"] * x ** cfg["alpha"]))
                for x in xi_probe
            },
        }
        _dump_json(summary, cfg["summary"])
    return 0


# --- solve-pde -------------------------------------------------------------------


PDE_SCHEMA = {
    "grid": (dict, None, None),
    "alpha": (float, 1.5, None),
    "T": (float, 1.0, None),
    "a": (str, "const:1", None),
    "a_x": ((str, type(None)), None, None),
    "b": ((str, type(None)), None, None),
    "c": ((str, type(None)), None, None),
    "f": ((str, type(None)), None, None),
    "g": (str, "sin:1", None),
    "steps": (int, 128, "--steps"),
    "output_times": (list, None, None),
    "output": (str, "solution.csv", "--output"),
    "report": ((str, type(None)), None, "--report"),
}


def _coefficient_a(cfg: dict) -> CoefficientA:
    try:  # a diffusivity must be > 0 on [0, T]
        return CoefficientA.from_callable(parse_time_fn(cfg["a"], "a"), t_max=cfg["T"])
    except PositivityViolation as exc:
        raise ConfigError(str(exc), "a") from exc


def _pde_data(cfg: dict) -> BSPDEData:
    grid = _grid_from_cfg(cfg)
    a = _coefficient_a(cfg)
    a_xt = None
    if cfg["a_x"] is not None:
        shape = parse_field(cfg["a_x"], grid, "a_x")
        a_xt = lambda t: a.at(t) + shape
    fields = {}
    for key in ("b", "c", "f"):
        if cfg[key] is not None:
            arr = parse_field(cfg[key], grid, key)
            fields[key] = lambda t, arr=arr: arr
    return BSPDEData(
        grid=grid,
        alpha=cfg["alpha"],
        T=cfg["T"],
        a=a,
        g=parse_field(cfg["g"], grid, "g"),
        f=fields.get("f"),
        a_xt=a_xt,
        b=fields.get("b"),
        c=fields.get("c"),
    )


def cmd_solve_pde(cfg: dict) -> int:
    data = _pde_data(cfg)
    out_times = cfg["output_times"] or list(np.linspace(0.0, cfg["T"], 5))
    _step_time_indices(out_times, cfg["T"], cfg["steps"], "output_times")
    needs_var = any(cfg[k] is not None for k in ("a_x", "b", "c"))
    solve = solve_pde_variable_coeff if needs_var else solve_fourier_deterministic
    # an overflow surfaces as the BlowUp of the solver's finiteness guard, not as warnings
    with np.errstate(over="ignore", invalid="ignore"):
        sol = solve(data, n_steps=cfg["steps"], output_times=out_times)
    rows = []
    for ti, t in enumerate(sol.times):
        for xj, uj in zip(data.grid.x, sol.u[ti]):
            rows.append((t, xj, uj, 0.0))
    _write_rows(cfg["output"], ["t", "x", "u", "v"], rows)
    if cfg["report"]:
        _dump_json({"config": cfg, "solver": sol.meta["solver"]}, cfg["report"])
    return 0


# --- solve-bspde ------------------------------------------------------------------


BSPDE_SCHEMA = {
    "grid": (dict, None, None),
    "alpha": (float, 1.5, None),
    "T": (float, 1.0, None),
    "a": (str, "const:1", None),
    "sigma": (float, 0.0, None),
    "f": ((str, type(None)), None, None),
    "g_profile": (str, "sin:1", None),
    "g_c0": (float, 0.0, None),
    "g_c1": (float, 1.0, None),
    "paths": (int, 2000, "--paths"),
    "steps": (int, 64, "--steps"),
    "seed": (int, 0, "--seed"),
    "probe": (list, None, "--probe"),
    "output": (str, "bspde.csv", "--output"),
    "report": ((str, type(None)), None, "--report"),
}


def cmd_solve_bspde(cfg: dict) -> int:
    grid = _grid_from_cfg(cfg, pathwise=True)
    prof = parse_field(cfg["g_profile"], grid, "g_profile")
    spec = RandomFieldSpec(
        terms=(RandomTerm(prof, PathFunctional.affine_in_w(cfg["T"], cfg["g_c0"], cfg["g_c1"])),)
    )
    f_arr = parse_field(cfg["f"], grid, "f") if cfg["f"] else None
    data = BSPDEData(
        grid=grid,
        alpha=cfg["alpha"],
        T=cfg["T"],
        a=_coefficient_a(cfg),
        g=spec,
        f=(lambda t, arr=f_arr: arr) if f_arr is not None else None,
        sigma=cfg["sigma"],
    )
    probes = cfg["probe"] or [[0.0, 0.0]]
    if not all(isinstance(p, list) and len(p) == 2 and type(p[1]) in (int, float) for p in probes):
        raise ConfigError("each probe must be a [t, x] pair of numbers", "probe")
    probe_idx = _step_time_indices([t for t, _ in probes], cfg["T"], cfg["steps"], "probe")
    quarter_idx = [round(q * cfg["steps"]) for q in (0.0, 0.25, 0.5, 0.75, 1.0)]
    out_times = np.linspace(0.0, cfg["T"], cfg["steps"] + 1)[np.union1d(quarter_idx, probe_idx)]
    stream = RngStream(cfg["seed"])
    with np.errstate(over="ignore", invalid="ignore"):  # as in cmd_solve_pde
        closed, _ = solve_bspde_linear_gaussian(
            data, n_paths=cfg["paths"], rng=stream, n_steps=cfg["steps"], output_times=out_times
        )
        reg = solve_bspde_regression(
            data, n_paths=cfg["paths"], rng=stream, n_steps=cfg["steps"], output_times=out_times
        )
    rows = []
    for ti, t in enumerate(closed.times):
        u_mean = closed.u_at(t).mean(axis=0)
        v_mean = closed.v_at(t)
        for xj, uj, vj in zip(grid.x, u_mean, v_mean):
            rows.append((t, xj, uj, vj))
    _write_rows(cfg["output"], ["t", "x", "u", "v"], rows)
    probe_report = []
    for t, x in probes:
        xi_idx = int(np.argmin(np.abs(grid.x - x)))
        du = reg.u_values(t)[:, xi_idx] - closed.u_at(t)[:, xi_idx]
        probe_report.append(
            {
                "t": t,
                "x": float(grid.x[xi_idx]),
                "closed_mean": float(closed.u_at(t)[:, xi_idx].mean()),
                "regression_mean": float(reg.u_values(t)[:, xi_idx].mean()),
                "difference_mean": float(du.mean()),
            }
        )
    if cfg["report"]:
        _dump_json({"config": cfg, "probes": probe_report}, cfg["report"])
    return 0


# --- zakai ------------------------------------------------------------------------


ZAKAI_SCHEMA = {
    "grid": (dict, None, None),
    "alpha": (float, 1.5, None),
    "T": (float, 0.5, None),
    "mu": (str, "const:1", None),
    "k": ((str, type(None)), None, None),
    "h": ((str, type(None)), None, None),
    "p0_width": (float, 1.0, None),
    "steps": (int, 64, "--steps"),
    "seed": (int, 0, "--seed"),
    "output": (str, "zakai.csv", "--output"),
    "report": ((str, type(None)), None, "--report"),
}


def _unit_gaussian_density(grid: Grid1D, width: float, key: str) -> np.ndarray:
    """Centred Gaussian of the given width with unit mass on the grid; a
    ConfigError naming key when it underflows to zero there."""
    p = np.exp(-grid.x**2 / (2 * width**2))
    mass = p.sum() * grid.dx
    if not mass > 0:
        raise ConfigError(
            f"a Gaussian of width {width} vanishes on [{grid.x_min}, {grid.x_max}]", key
        )
    return p / mass


def cmd_zakai(cfg: dict) -> int:
    grid = _grid_from_cfg(cfg, pathwise=True)
    zeros = np.zeros(grid.n)
    k_arr = parse_field(cfg["k"], grid, "k") if cfg["k"] else zeros
    h_arr = parse_field(cfg["h"], grid, "h") if cfg["h"] else zeros
    mu_fn = parse_time_fn(cfg["mu"], "mu")
    try:  # p0 has unit mass, so only the diffusivity a(t) = |mu(t)|^alpha can fail here
        prob = ControlProblem(
            grid=grid,
            alpha=cfg["alpha"],
            T=cfg["T"],
            mu=lambda t: float(mu_fn(np.asarray([t]))[0]),
            k=lambda t, v: k_arr,
            h=lambda t: h_arr,
            f=lambda t, v: zeros,
            g=zeros,
            U=(0.0,),
            p0=_unit_gaussian_density(grid, cfg["p0_width"], "p0_width"),
        )
    except PositivityViolation as exc:
        raise ConfigError(str(exc), "mu") from exc
    y_inc = simulate_brownian_increments(
        PathGrid(0.0, cfg["T"], cfg["steps"]), RngStream(cfg["seed"]), 1
    )
    state = solve_zakai(prob, ControlPolicy.constant(0.0, cfg["T"]), y_inc, n_steps=cfg["steps"])
    rows = []
    stride = max(1, cfg["steps"] // 16)
    for ti in range(0, len(state.times), stride):
        for xj, pj in zip(grid.x, state.p[0, ti]):
            rows.append((state.times[ti], xj, pj))
    _write_rows(cfg["output"], ["t", "x", "p"], rows)
    if cfg["report"]:
        mass = state.mass()[0]
        _dump_json(
            {
                "config": cfg,
                "mass_initial": float(mass[0]),
                "mass_terminal": float(mass[-1]),
            },
            cfg["report"],
        )
    return 0


# --- control ------------------------------------------------------------------------


CONTROL_SCHEMA = {
    "grid": (dict, None, None),
    "alpha": (float, 1.5, None),
    "T": (float, 0.5, None),
    "target": (float, 1.0, None),
    "h_scale": (float, 0.4, None),
    "cost_clip": (float, 25.0, None),
    "controls": (list, [-0.5, 0.0, 0.5], None),
    "intervals": (int, 2, "--intervals"),
    "paths": (int, 2000, "--paths"),
    "steps": (int, 24, "--steps"),
    "seed": (int, 0, "--seed"),
    "output": (str, "control.json", "--output"),
}


def cmd_control(cfg: dict) -> int:
    m = cfg["intervals"]
    # the optimality check reads p, q at interval midpoints on this grid and on its halving
    if cfg["steps"] % (4 * m):
        raise ConfigError(f"steps must be a positive multiple of 4 * intervals = {4 * m}", "steps")
    if cfg["paths"] < 2:  # the check's margins carry a standard error over paths
        raise ConfigError("paths must be >= 2", "paths")
    grid = _grid_from_cfg(cfg, pathwise=True)
    weight = np.minimum((grid.x - cfg["target"]) ** 2, cfg["cost_clip"])
    prob = ControlProblem(
        grid=grid,
        alpha=cfg["alpha"],
        T=cfg["T"],
        mu=lambda t: 1.0,
        k=lambda t, v: np.full(grid.n, v),
        h=lambda t: cfg["h_scale"] * np.tanh(grid.x / 4.0),
        f=lambda t, v: 0.5 * weight,
        g=weight,
        U=tuple(float(v) for v in cfg["controls"]),
        p0=_unit_gaussian_density(grid, 1.0, "grid"),
    )
    y_inc = simulate_brownian_increments(
        PathGrid(0.0, cfg["T"], cfg["steps"]), RngStream(cfg["seed"]), cfg["paths"]
    )
    best = brute_force_optimal_control(
        prob, n_intervals=cfg["intervals"], y_inc=y_inc, n_steps=cfg["steps"]
    )
    rep = verify_maximum_principle(prob, best.policy, y_inc, n_steps=cfg["steps"])
    _dump_json(
        {
            "config": cfg,
            "optimal_policy": list(best.policy.values),
            "optimal_cost": best.cost,
            "cost_stderr": best.stderr,
            "policy_table": [
                {"values": list(v), "cost": m, "stderr": s} for v, m, s in best.table
            ],
            "hamiltonian_margins": [
                {
                    "t": e.t,
                    "v": e.v,
                    "margin": e.margin,
                    "stderr": e.stderr,
                    "tolerance": e.tolerance,
                    "passed": e.passed,
                }
                for e in rep.entries
            ],
            "maximum_principle_passed": rep.passed,
        },
        cfg["output"],
    )
    return 0 if rep.passed else 1


# --- verify-all ------------------------------------------------------------------------


VERIFY_SCHEMA = {
    "tier": (str, "quick", "--tier"),
    "seed": (int, 0, "--seed"),
    "checks": (list, None, "--checks"),
    "report": (str, "report.json", "--report"),
    "timing": (str, "timing.json", "--timing"),
}


def _report_payload(results: list[CheckResult], tier: str, seed: int, cfg: dict) -> dict:
    return {
        "version": __version__,
        "tier": tier,
        "seed": seed,
        "config": cfg,
        "checks": [
            {
                "id": r.check_id,
                "property": r.property,
                "status": r.status,
                "measured": r.measured,
                "tolerance": r.tolerance,
                "extras": r.extras,
            }
            for r in results
        ],
    }


def _validate_report(payload: dict) -> None:
    import jsonschema

    schema_text = (
        importlib.resources.files("fracbspde") / "schemas" / "report.schema.json"
    ).read_text()
    jsonschema.validate(payload, json.loads(schema_text))


def run_verification(
    tier: str = "quick", seed: int = 0, ids: list[str] | None = None
) -> tuple[dict, dict]:
    """Run the selected checks; returns (canonical report payload, timings).

    Wall-clock timings live in a separate structure so the canonical report
    stays byte-identical across reruns with the same (config, seed).
    """
    if tier not in ("quick", "full"):
        raise ConfigError(f"tier must be quick or full, got {tier!r}", "tier")
    if seed < 0:  # the checks seed numpy generators, which take no negative seed
        raise ConfigError(f"seed must be >= 0, got {seed}", "seed")
    if ids is not None:
        tier_label = "custom"
        known = set(check_ids("full"))
        for cid in ids:
            if cid not in known:
                raise ConfigError(f"unknown check id {cid!r}", "checks")
    else:
        tier_label = tier
    results, timings = run_checks(seed=seed, tier=tier, ids=ids)
    cfg = {"tier": tier_label, "seed": seed, "checks": ids or check_ids(tier)}
    payload = _report_payload(results, tier_label, seed, cfg)
    _validate_report(payload)
    return payload, timings


def cmd_verify_all(cfg: dict) -> int:
    payload, timings = run_verification(cfg["tier"], cfg["seed"], cfg["checks"])
    _dump_json(payload, cfg["report"])
    _dump_json({"seconds": timings}, cfg["timing"])
    width = max(len(c["id"]) for c in payload["checks"])
    all_pass = True
    for c in payload["checks"]:
        all_pass &= c["status"] == "pass"
        print(
            f"{c['id']:{width}s}  {c['status']:6s}  measured={c['measured']:+.3e}  "
            f"tolerance={c['tolerance']:+.3e}  [{timings[c['id']]:.1f}s]"
        )
    print(f"report: {cfg['report']}  timing: {cfg['timing']}")
    return 0 if all_pass else 1


# --- parser ---------------------------------------------------------------------------------


COMMANDS = (
    ("kernel", cmd_kernel, KERNEL_SCHEMA, "tabulate the fractional heat kernel"),
    ("fraclap", cmd_fraclap, FRACLAP_SCHEMA, "apply the fractional Laplacian to a CSV field"),
    ("levy", cmd_levy, LEVY_SCHEMA, "simulate alpha-stable paths"),
    ("solve-pde", cmd_solve_pde, PDE_SCHEMA, "solve the deterministic backward equation"),
    (
        "solve-bspde",
        cmd_solve_bspde,
        BSPDE_SCHEMA,
        "solve the backward SPDE (closed form + regression)",
    ),
    ("zakai", cmd_zakai, ZAKAI_SCHEMA, "filter one observation path, emit a density movie"),
    ("control", cmd_control, CONTROL_SCHEMA, "brute-force policy search + optimality margins"),
    ("verify-all", cmd_verify_all, VERIFY_SCHEMA, "run the acceptance checks"),
)

# how the two list keys parse their flags; every other flag is one value of its key's type
LIST_FLAGS = {
    "probe": {
        "action": "append",
        "type": lambda text: [float(v) for v in text.split(",")],
        "help": "t,x probe (repeatable)",
    },
    "checks": {
        "type": lambda text: text.split(","),
        "help": "comma-separated check ids (overrides the tier)",
    },
}


def build_parser() -> argparse.ArgumentParser:
    """One subparser per COMMANDS row: --config plus one option per flagged schema key."""
    parser = argparse.ArgumentParser(
        prog="fracbspde",
        description="Fractional heat kernels, stable-process simulation, "
        "fractional (B)SPDE solvers, and the Zakai-filter control stack.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, handler, schema, help in COMMANDS:
        p = sub.add_parser(name, help=help)
        p.add_argument("--config")
        p.set_defaults(handler=handler, schema=schema)
        for key, (kind, _default, flag) in schema.items():
            if flag is not None:
                # string keys keep argparse's default, which passes the text through
                opts = LIST_FLAGS.get(key, {"type": kind if kind in (int, float) else None})
                p.add_argument(flag, dest=key, **opts)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on bad flags, which matches the config-error code
        return int(exc.code or 0)
    try:
        return args.handler(_load_config(args.config, args.schema, _flags(args, args.schema)))
    except ConfigError as exc:
        print(f"config error at {exc.key_path or '<root>'}: {exc}", file=sys.stderr)
        return 2
    except FracBspdeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
