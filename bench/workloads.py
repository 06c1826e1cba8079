"""The benchmark's two seeded workloads, each made of two op streams.

An op stream (a ``Part``: ``control``, ``holder``, ``kernel``, ``bspde``)
is an endless sequence of rounds.  Round r of a part is drawn from
``(seed, part, r)`` alone, so a seed gives the same ops in the same order
however many rounds a run reaches, and every round holds the same mix of
op sizes, so runs with different seeds do the same amount of work.  A
workload's round r is round r of each of its parts, one after the other.

The parts are paired so that each later optimisation has a workload that
exercises it and one that bypasses it: ``control_holder`` has the Zakai
filter with its batched FFTs and the ensemble norms; ``kernel_bspde`` has
the kernel quadrature, stable sampling and the per-mode regression.

An op is one call of a public entry point: a CLI subcommand through the
in-process ``fracbspde.cli.main([...])`` where one exists, otherwise the
library function.  Entry points are looked up on their module at call time
so the tracer's patches apply.  Inputs (config files, fields, data
objects) are built when the round is drawn, before the clock starts; only
``Op.run`` is timed.  ``Op.check`` then applies the library's own oracle
and returns the op's numeric outputs for the digest.

Every op belongs to a size class (``Op.cls``): ops of one class do the
same work up to the seed's small draws, so a class's latency compares
across runs and seeds.  Sizes are drawn from narrow bands for that
reason; the seed moves values more than cost.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable

import numpy as np

from fracbspde import bspde, cli, kernel
from fracbspde.bspde import BSPDEData, PathFunctional, RandomFieldSpec, RandomTerm
from fracbspde.grid import Grid1D
from fracbspde.kernel import CoefficientA
from fracbspde.levy import RngStream

# z above which a statistical gate fails an op; see README.md ("Gates")
GATE_Z = 5.0


@dataclass
class Outcome:
    """What the gate found for one op."""

    passed: bool
    cause: str
    values: np.ndarray  # numeric outputs, float64, for the digest
    exact: bytes = b""  # outputs that must stay bit-identical on one machine
    z: list[float] = field(default_factory=list)  # statistical gate z-scores
    unstable_bounds: int = 0


@dataclass
class Op:
    kind: str
    params: dict
    run: Callable[[], Any]
    check: Callable[[Any], Outcome]
    working_set: int  # bytes of the op's largest array, from its shape
    outputs: list[Path] = field(default_factory=list)  # files the op writes
    cls: str = ""  # size class (default: kind); ops of one class cost about the same

    def __post_init__(self):
        self.cls = self.cls or self.kind


@dataclass(frozen=True)
class Part:
    name: str
    draw_round: Callable[[np.random.Generator, Path, str], list[Op]]
    warmup: Callable[[Path], Op]
    tag: int  # keeps the parts' random streams apart


def round_rng(seed: int, part: Part, r: int) -> np.random.Generator:
    return np.random.default_rng([seed % (1 << 63), part.tag, r])


@dataclass(frozen=True)
class Workload:
    name: str
    parts: tuple[Part, ...]

    def draw_round(self, seed: int, r: int, workdir: Path, tag: str) -> list[Op]:
        return [
            op for part in self.parts for op in part.draw_round(round_rng(seed, part, r), workdir, tag)
        ]

    def warmup(self, workdir: Path) -> Op:
        """The first part's warm-up op: imports, lazy set-up and caches of one small op."""
        return self.parts[0].warmup(workdir)


def _write_json(path: Path, obj) -> Path:
    path.write_text(json.dumps(obj, sort_keys=True))
    return path


def _cli_op(kind, params, argv, outputs, check, working_set, cls="") -> Op:
    return Op(
        kind=kind,
        params=params,
        run=lambda: cli.main(argv),
        check=check,
        working_set=working_set,
        outputs=outputs,
        cls=cls,
    )


# --- control ------------------------------------------------------------------

CONTROL_GRID = {"x_min": -32.0, "x_max": 32.0, "n": 128}
CONTROL_PATHS = 256
CONTROL_STEPS = 24


def _control_op(workdir: Path, tag: str, intervals: int, target: float, h_scale: float,
                obs_seed: int, paths: int = CONTROL_PATHS) -> Op:
    out = workdir / f"control-{tag}.json"
    cfg = {
        "grid": CONTROL_GRID,
        "alpha": 1.5,
        "T": 0.5,
        "target": target,
        "h_scale": h_scale,
        "controls": [-0.5, 0.0, 0.5],
        "intervals": intervals,
        "paths": paths,
        "steps": CONTROL_STEPS,
        "seed": obs_seed,
        "output": str(out),
    }
    cfg_path = _write_json(workdir / f"control-{tag}-cfg.json", cfg)

    def check(rc) -> Outcome:
        if rc != 0:
            return Outcome(False, f"exit {rc}", np.zeros(0))
        rep = json.loads(out.read_text())
        table = rep["policy_table"]
        values = [rep["optimal_cost"], rep["cost_stderr"]]
        values += [x for row in table for x in (row["cost"], row["stderr"])]
        values += [
            x for e in rep["hamiltonian_margins"] for x in (e["margin"], e["stderr"], e["tolerance"])
        ]
        passed = rep["maximum_principle_passed"] is True
        return Outcome(
            passed,
            "" if passed else "maximum_principle_passed is false",
            np.asarray(values, dtype=float),
            exact=json.dumps(table, sort_keys=True).encode(),
        )

    params = {k: cfg[k] for k in ("intervals", "target", "h_scale", "paths", "seed")}
    # the batched complex filter spectrum (paths, n)
    ws = paths * CONTROL_GRID["n"] * 16
    return _cli_op("control", params, ["control", "--config", str(cfg_path)], [out], check, ws,
                   cls=f"control.m{intervals}")


def control_round(rng: np.random.Generator, workdir: Path, tag: str) -> list[Op]:
    """Policy-interval counts m = 1, 2, 2, 3 in seeded order.

    m = 2 twice puts the run's median latency inside a class with twice
    the samples; m = 3 has the shared policy prefixes, m = 1 none.
    """
    return [
        _control_op(
            workdir,
            f"{tag}-{pos}",
            int(m),
            target=float(rng.uniform(0.5, 1.5)),
            h_scale=float(rng.uniform(0.3, 0.5)),
            obs_seed=int(rng.integers(1 << 31)),
        )
        for pos, m in enumerate(rng.permutation([1, 2, 2, 3]))
    ]


def control_warmup(workdir: Path) -> Op:
    return _control_op(workdir, "warmup", 1, 1.0, 0.4, obs_seed=0, paths=64)


# --- holder -------------------------------------------------------------------

HOLDER_RESOLUTIONS = ((256, 48), (512, 96))  # (grid n, time steps), as the check uses
HOLDER_MIX = ("det",) * 7 + ("rand",) * 3  # the check's 35:15 ratio
HOLDER_RAND_PATHS = 32
HOLDER_BETA = 0.6
HOLDER_STRIDE = 4  # verify_holder_estimate's default output stride


def _holder_field(grid: Grid1D, coefs: np.ndarray) -> np.ndarray:
    vals = np.zeros(grid.n)
    for k in range(coefs.shape[1]):
        xi = 2 * np.pi * (k + 1) / grid.length
        vals += coefs[0, k] * np.cos(xi * grid.x) + coefs[1, k] * np.sin(xi * grid.x)
    return vals


def _holder_op(rng: np.random.Generator, kind: str, n: int, steps: int) -> Op:
    """One instance drawn as the holder-estimate check draws them."""
    grid = Grid1D(-32.0, 32.0, n)
    a = CoefficientA.constant(1.0)
    if kind == "det":
        coefs = rng.normal(size=(2, 6)) / (1.0 + np.arange(6))
        omega = float(rng.uniform(0.3, 2.0))
        prof = _holder_field(grid, coefs[:, ::-1].copy())
        data = BSPDEData(
            grid=grid, alpha=1.5, T=1.0, a=a, g=_holder_field(grid, coefs),
            f=lambda t, p=prof, w=omega: p * np.cos(w * t),
        )
        kwargs = {}
        params = {"n": n, "steps": steps, "omega": omega}
        paths = 1
    else:
        coefs = rng.normal(size=(2, 4)) / (1.0 + np.arange(4))
        c0, c1 = float(rng.normal()), float(rng.uniform(0.5, 1.5))
        stream = int(rng.integers(1 << 31))
        spec = RandomFieldSpec(
            terms=(RandomTerm(_holder_field(grid, coefs), PathFunctional.affine_in_w(1.0, c0, c1)),)
        )
        data = BSPDEData(grid=grid, alpha=1.5, T=1.0, a=a, g=spec)
        kwargs = {"n_paths": HOLDER_RAND_PATHS, "rng": RngStream(stream, 1000)}
        params = {"n": n, "steps": steps, "c0": c0, "c1": c1, "stream": stream}
        paths = HOLDER_RAND_PATHS

    def run():
        return bspde.verify_holder_estimate(data, beta=HOLDER_BETA, n_steps=steps, **kwargs)

    def check(rep) -> Outcome:
        ratio = rep.ratio
        ok = ratio is not None and math.isfinite(ratio) and ratio > 0
        return Outcome(ok, "" if ok else f"ratio {ratio!r}", np.array([rep.lhs, rep.rhs]))

    # the (paths, times, n) ensemble the norm estimator reads
    ws = paths * (steps // HOLDER_STRIDE + 1) * n * 8
    return Op(f"holder.{kind}{n}", params, run, check, ws)


def holder_round(rng: np.random.Generator, workdir: Path, tag: str) -> list[Op]:
    """Seven deterministic and three random-terminal instances per resolution."""
    return [
        _holder_op(rng, kind, n, steps)
        for n, steps in HOLDER_RESOLUTIONS
        for kind in rng.permutation(HOLDER_MIX)
    ]


def holder_warmup(workdir: Path) -> Op:
    return _holder_op(np.random.default_rng(0), "det", *HOLDER_RESOLUTIONS[0])


# --- kernel -------------------------------------------------------------------

# one op per alpha stratum and round: the bounds' cost moves with alpha
KERNEL_ALPHA_STRATA = ((1.1, 1.3), (1.3, 1.5), (1.5, 1.7), (1.7, 1.9))
# sampling size of the bounds; `kernel --report` fixes 501, about 10 s an op
KERNEL_BASE_N = 41


def _kernel_op(workdir: Path, tag: str, alpha: float, A: float, x_range: float,
               samples: int, stratum: int) -> Op:
    """`fracbspde kernel` tabulation, then the report's `verify_kernel_bounds`."""
    out = workdir / f"kernel-{tag}.csv"
    argv = ["kernel", "--alpha", repr(alpha), "--A", repr(A), "--xrange", repr(x_range),
            "--samples", str(samples), "--output", str(out)]

    def run():
        return cli.main(argv), kernel.verify_kernel_bounds(alpha, base_n=KERNEL_BASE_N)

    def check(result) -> Outcome:
        rc, bounds = result
        if rc != 0:
            return Outcome(False, f"exit {rc}", np.zeros(0))
        with out.open(newline="") as fh:
            rows = list(csv.reader(fh))[1:]
        values = [float(v) for row in rows for v in row]
        ok, cause = len(rows) == samples and all(map(math.isfinite, values)), ""
        if not ok:
            cause = "tabulation is not finite"
        consts = [b.constant for b in bounds]
        values += consts + [b.rel_change for b in bounds]
        if not all(math.isfinite(c) and c > 0 for c in consts):
            ok, cause = False, "a bound constant is not finite and positive"
        unstable = sum(not b.stable for b in bounds)
        return Outcome(ok, cause, np.asarray(values, dtype=float), unstable_bounds=unstable)

    params = {"alpha": alpha, "A": A, "x_range": x_range, "samples": samples,
              "base_n": KERNEL_BASE_N}
    # the far-field rule's complex terms, evaluated in chunks of at most 2**20
    return Op("kernel", params, run, check, 2**20 * 16, outputs=[out],
              cls=f"kernel.a{stratum}")


def kernel_round(rng: np.random.Generator, workdir: Path, tag: str) -> list[Op]:
    """One op per alpha stratum, from alpha in (1.1, 1.3) to alpha in (1.7, 1.9)."""
    return [
        _kernel_op(
            workdir,
            f"{tag}-{pos}",
            alpha=float(rng.uniform(lo, hi)),
            A=float(rng.uniform(0.5, 2.0)),
            x_range=float(rng.uniform(10.0, 30.0)),
            samples=int(rng.integers(190, 210)) * 2 + 1,
            stratum=pos,
        )
        for pos, (lo, hi) in enumerate(KERNEL_ALPHA_STRATA)
    ]


def kernel_warmup(workdir: Path) -> Op:
    return _kernel_op(workdir, "warmup", 1.5, 1.0, 20.0, 401, stratum=2)


# --- bspde --------------------------------------------------------------------

BSPDE_GRID = Grid1D(-32.0, 32.0, 256)
BSPDE_STEPS = 64
BSPDE_PATHS = (1200, 2400, 3600)  # one solve op each per round
FK_PATHS = 36_000  # every probe op
PATH_JITTER = 0.03  # path counts are drawn within +-3% of these
FK_GRID = Grid1D(-16.0 * np.pi, 16.0 * np.pi, 2048)


def _jittered(rng: np.random.Generator, paths: int) -> int:
    return int(rng.integers(round(paths * (1 - PATH_JITTER)), round(paths * (1 + PATH_JITTER))))


def _solve_op(alpha: float, c0: float, c1: float, paths: int, stream: int, cls: str = "") -> Op:
    """Closed form plus regression on shared Brownian paths (the CLI's solve-bspde pair)."""
    grid, T = BSPDE_GRID, 1.0
    xi1 = 2 * np.pi / grid.length
    prof = np.sin(xi1 * grid.x)
    spec = RandomFieldSpec(terms=(RandomTerm(prof, PathFunctional.affine_in_w(T, c0, c1)),))
    data = BSPDEData(grid=grid, alpha=alpha, T=T, a=CoefficientA.constant(1.0), g=spec)
    out_times = [q * T for q in (0.0, 0.25, 0.5, 0.75, 1.0)]

    def run():
        rng = RngStream(stream)
        closed, _ = bspde.solve_bspde_linear_gaussian(
            data, n_paths=paths, rng=rng, n_steps=BSPDE_STEPS, output_times=out_times
        )
        reg = bspde.solve_bspde_regression(
            data, n_paths=paths, rng=rng, n_steps=BSPDE_STEPS, output_times=out_times
        )
        return closed, reg

    def check(result) -> Outcome:
        # the regression-bspde rule for u: |mean difference| <= z SE + explicit-scheme bias.
        # Ordinary least squares with an intercept keeps each step's path mean, so the
        # terminal mean's Monte Carlo error is what reaches t = 0; its SE is the gate's.
        # v is left to the digest: one op has no SE for it (the check takes it from
        # independent reps), and the fitted-value SE misses the accumulated error.
        closed, reg = result
        x = grid.n // 4
        lam1 = xi1**alpha
        dt = T / BSPDE_STEPS
        bias = abs((1.0 - lam1 * dt) ** BSPDE_STEPS - np.exp(-lam1 * T)) * (
            abs(c0) + 3.0 * abs(c1) * np.sqrt(T)
        )
        u_reg = reg.u_values(0.0)
        du = float(np.mean(u_reg[:, x] - closed.u_at(0.0)[:, x]))
        se_u = float(np.std(closed.u_at(T)[:, x], ddof=1) / np.sqrt(paths))
        z = (abs(du) - bias) / se_u
        passed = z <= GATE_Z
        values = np.concatenate(
            [
                closed.u_at(0.0).mean(axis=0),
                closed.v_at(0.0),
                u_reg.mean(axis=0),
                reg.v_values(0.0).mean(axis=0),
            ]
        )
        cause = "" if passed else f"regression u off the closed form by {z:.2f} SE"
        return Outcome(passed, cause, values, z=[z])

    params = {"alpha": alpha, "c0": c0, "c1": c1, "paths": paths, "stream": stream}
    # the closed form's (paths, output times, n) field
    ws = paths * len(out_times) * grid.n * 8
    return Op("bspde.solve", params, run, check, ws, cls=cls)


def _probe_op(alpha: float, amp: float, probe: tuple[float, float], paths: int,
              stream: int) -> Op:
    """Single-probe PDE vs Feynman-Kac cross-check (the feynman-kac check's data)."""
    grid = FK_GRID
    data = BSPDEData(
        grid=grid,
        alpha=alpha,
        T=1.0,
        a=CoefficientA.constant(1.0),
        g=np.cos(grid.x) + amp * np.sin(2.0 * grid.x),
        f=lambda t: 0.3 * np.cos(grid.x),
        c=lambda t: np.full(grid.n, -0.2),
    )

    def run():
        return bspde.fbsde_crosscheck(
            data, [probe], rng=RngStream(stream, 800), n_paths=paths,
            n_steps_solver=128, n_steps_mc=48,
        )

    def check(results) -> Outcome:
        (r,) = results
        z = (r.discrepancy - 3.0 * r.grid_bound) / r.mc.stderr
        passed = z <= GATE_Z
        values = np.array([r.t, r.x, r.pde_value, r.mc.mean, r.mc.stderr, r.grid_bound])
        cause = "" if passed else f"Monte Carlo off the PDE by {z:.2f} SE"
        return Outcome(passed, cause, values, z=[z])

    params = {"alpha": alpha, "amp": amp, "t": probe[0], "x": probe[1], "paths": paths,
              "stream": stream}
    # X, the discount, the running cost and one stable draw per path, float64
    return Op("bspde.fk_probe", params, run, check, paths * 4 * 8)


def bspde_round(rng: np.random.Generator, workdir: Path, tag: str) -> list[Op]:
    """Three solve ops (about 1.2k, 2.4k and 3.6k paths), each followed by a probe op."""
    ops = []
    for size, paths in enumerate(BSPDE_PATHS):
        ops.append(
            _solve_op(
                alpha=float(rng.uniform(1.3, 1.7)),
                c0=float(rng.uniform(-0.5, 0.5)),
                c1=float(rng.uniform(0.5, 1.5)),
                paths=_jittered(rng, paths),
                stream=int(rng.integers(1 << 31)),
                cls=f"bspde.solve.{size}",
            )
        )
        ops.append(
            _probe_op(
                alpha=float(rng.uniform(1.3, 1.8)),
                amp=float(rng.uniform(0.0, 1.0)),
                probe=(float(rng.choice([0.0, 0.25, 0.5, 0.75])), float(rng.uniform(-3.0, 3.0))),
                paths=_jittered(rng, FK_PATHS),
                stream=int(rng.integers(1 << 31)),
            )
        )
    return ops


def bspde_warmup(workdir: Path) -> Op:
    return _solve_op(1.5, 0.3, 1.0, 1000, 0, cls="bspde.solve.0")


PARTS = {
    p.name: p
    for p in (
        Part("control", control_round, control_warmup, 1),
        Part("holder", holder_round, holder_warmup, 2),
        Part("kernel", kernel_round, kernel_warmup, 3),
        Part("bspde", bspde_round, bspde_warmup, 4),
    )
}

WORKLOADS = {
    w.name: w
    for w in (
        Workload("control_holder", (PARTS["control"], PARTS["holder"])),
        Workload("kernel_bspde", (PARTS["kernel"], PARTS["bspde"])),
    )
}
