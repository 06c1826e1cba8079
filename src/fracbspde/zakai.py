"""Fractional Zakai filter, adjoint equation, Hamiltonian, and control search.

The unnormalized conditional density p of the partially observed jump
diffusion follows

    dp = [-a(t) (-Delta)^(alpha/2) p - D(k p)] dt + h p dY,

driven by the observation Y, a Brownian motion under the reference measure;
a(t) = |mu(t)|^alpha comes from the jump scale.  Time stepping splits the
generator: an exact spectral factor for the fractional diffusion, a
conservative dealiased spectral transport step, and the exact multiplicative
(geometric) observation update, which is positivity-preserving.

The adjoint pair (q, l) solves the backward equation

    dq = [-L* q - f - h l] dt + l dY,   q(T) = g,

with L* the computed L2 adjoint of L phi = -a (-Delta)^(alpha/2) phi
- D(k phi), namely L* phi = -a (-Delta)^(alpha/2) phi + k D phi.

The Hamiltonian H(t, v, p, q) = <f(t,.,v), p> - <D(k(t,.,v) p), q> feeds the
pointwise optimality check for brute-force optimal open-loop policies.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .bspde import _finite, regress_backward
from .errors import BlowUp, BudgetExceeded, PositivityViolation, StepRestriction, check_step_restrictions
from .fraclap import check_alpha, frac_lap_multiplier
from .grid import Grid1D, apply_multiplier, derivative_multiplier, time_grid_multiple, time_indices
from .kernel import CoefficientA, eval_A
from .levy import PathGrid

__all__ = [
    "ControlProblem",
    "ControlPolicy",
    "ZakaiState",
    "AdjointState",
    "apply_L",
    "apply_L_star",
    "duality_defect",
    "solve_zakai",
    "CostEstimate",
    "cost_functional",
    "solve_adjoint",
    "hamiltonian",
    "BruteForceResult",
    "brute_force_optimal_control",
    "MaxPrincipleReport",
    "check_step_count",
    "verify_maximum_principle",
]

ControlField = Callable[[float, float], np.ndarray]  # (t, control value) -> field


@dataclass
class ControlProblem:
    """Partially observed control problem on the periodic grid.

    k(t, v) and f(t, v) map a time and a control value to field arrays;
    h(t) maps a time to the observation field; g is the terminal cost
    weight; p0 the initial density (nonnegative, unit mass).  The diffusion
    coefficient a(t) = |mu(t)|^alpha is CoefficientA.from_callable on [0, T]:
    a mu that vanishes at one of its samples raises PositivityViolation.
    """

    grid: Grid1D
    alpha: float
    T: float
    mu: Callable[[float], float]
    k: ControlField
    h: Callable[[float], np.ndarray]
    f: ControlField
    g: np.ndarray
    U: tuple[float, ...]
    p0: np.ndarray

    def __post_init__(self):
        check_alpha(self.alpha)
        if not self.T > 0:  # a NaN T fails
            raise ValueError(f"horizon T must be > 0, got {self.T}")
        self.g = np.asarray(self.g, dtype=float)
        self.p0 = np.asarray(self.p0, dtype=float)
        if not (np.all(np.isfinite(self.p0)) and self.p0.min() >= 0):
            raise PositivityViolation("initial density must be finite and nonnegative")
        mass = float(np.sum(self.p0) * self.grid.dx)
        if abs(mass - 1.0) > 1e-8:
            raise PositivityViolation(
                f"initial density mass {mass} differs from 1 on the truncated domain"
            )
        if len(self.U) == 0:
            raise ValueError("control set U is empty")
        self.a = CoefficientA.from_callable(
            lambda t: np.abs(np.vectorize(self.mu)(t)) ** self.alpha, self.T
        )


@dataclass(frozen=True)
class ControlPolicy:
    """Open-loop piecewise-constant policy on [0, T]."""

    edges: tuple[float, ...]
    values: tuple[float, ...]

    def __post_init__(self):
        if len(self.edges) != len(self.values) + 1:
            raise ValueError("need len(edges) == len(values) + 1")
        if any(b <= a for a, b in zip(self.edges, self.edges[1:])):
            raise ValueError("edges must be strictly increasing")

    def value_at(self, t: float) -> float:
        i = int(np.searchsorted(self.edges, t, side="right")) - 1
        return self.values[min(max(i, 0), len(self.values) - 1)]

    @classmethod
    def constant(cls, v: float, T: float) -> "ControlPolicy":
        return cls(edges=(0.0, T), values=(v,))

    @classmethod
    def uniform(cls, values: Sequence[float], T: float) -> "ControlPolicy":
        return cls(edges=tuple(PathGrid(T, len(values)).times), values=tuple(values))


@dataclass
class ZakaiState:
    grid: Grid1D
    times: np.ndarray
    p: np.ndarray  # (paths, times, n)
    meta: dict = field(default_factory=dict)

    def p_at(self, t: float) -> np.ndarray:
        return self.p[:, time_indices(self.times, [t])[0], :]

    def mass(self) -> np.ndarray:
        """Total mass per (path, time)."""
        return self.p.sum(axis=2) * self.grid.dx


@dataclass
class AdjointState:
    grid: Grid1D
    times: np.ndarray
    q: np.ndarray  # (paths, times, n)
    l: np.ndarray
    l_se: np.ndarray  # (times,) aggregate fitted-value standard error for l
    meta: dict = field(default_factory=dict)

    def q_at(self, t: float) -> np.ndarray:
        return self.q[:, time_indices(self.times, [t])[0], :]

    def l_at(self, t: float) -> np.ndarray:
        return self.l[:, time_indices(self.times, [t])[0], :]


# --- operators -----------------------------------------------------------------


def apply_L(
    phi: np.ndarray, t: float, v: float, problem: ControlProblem
) -> np.ndarray:
    """L phi = -a(t) (-Delta)^(alpha/2) phi - D(k(t,.,v) phi)."""
    d1 = derivative_multiplier(problem.grid, 1)
    lam = frac_lap_multiplier(problem.grid, problem.alpha)
    k_t = np.asarray(problem.k(t, v), dtype=float)
    return -problem.a.at(t) * apply_multiplier(phi, lam) - apply_multiplier(k_t * phi, d1)


def apply_L_star(
    phi: np.ndarray, t: float, v: float, problem: ControlProblem
) -> np.ndarray:
    """Computed adjoint L* phi = -a (-Delta)^(alpha/2) phi + k D phi."""
    d1 = derivative_multiplier(problem.grid, 1)
    lam = frac_lap_multiplier(problem.grid, problem.alpha)
    k_t = np.asarray(problem.k(t, v), dtype=float)
    return -problem.a.at(t) * apply_multiplier(phi, lam) + k_t * apply_multiplier(phi, d1)


def duality_defect(
    phi: np.ndarray, psi: np.ndarray, t: float, v: float, problem: ControlProblem
) -> float:
    """|<L phi, psi> - <phi, L* psi>| with grid quadrature."""
    dx = problem.grid.dx
    lhs = float(np.sum(apply_L(phi, t, v, problem) * psi) * dx)
    rhs = float(np.sum(phi * apply_L_star(psi, t, v, problem)) * dx)
    return abs(lhs - rhs)


# --- Zakai time stepping ----------------------------------------------------------


class _ZakaiSteps:
    """The split filter step on one observation ensemble y_inc (paths,
    n_steps), with the factors that do not depend on the control (the
    diffusion multiplier and the observation field of each step) computed
    once."""

    def __init__(self, problem: ControlProblem, y_inc: np.ndarray, n_steps: int):
        n_paths = y_inc.shape[0]
        if y_inc.shape != (n_paths, n_steps):
            raise ValueError(f"observation increments shape {y_inc.shape} != (paths, {n_steps})")
        g = problem.grid
        self.problem, self.y_inc, self.n_steps = problem, y_inc, n_steps
        grid_t = PathGrid(problem.T, n_steps)
        self.dt, self.times = grid_t.dt, grid_t.times
        lam = frac_lap_multiplier(g, problem.alpha)
        # exact spectral fractional-diffusion factor over each step
        self.diffusion = [
            np.exp(-eval_A(problem.a, s, t, n_sub=8) * lam)
            for s, t in zip(self.times[:-1], self.times[1:])
        ]
        # D of the flux k p, 2/3-dealiased
        self.flux_mult = derivative_multiplier(g, 1) * (np.abs(np.fft.fftfreq(g.n) * g.n) <= g.n // 3)
        self.h = [np.asarray(problem.h(t), dtype=float)[None, :] for t in self.times[:-1]]
        self.h_drift = [0.5 * h**2 * self.dt for h in self.h]
        self.p0 = np.broadcast_to(problem.p0, (n_paths, g.n)).copy()
        # the blow-up guard: a step may not leave |p| above 1e6 (max |p0| + 1)
        self.guard_level = 1e6 * (float(np.abs(problem.p0).max()) + 1.0)

    def step(self, i: int, p: np.ndarray, v: float) -> np.ndarray:
        """p(t_{i+1}) from p(t_i) under the control value v."""
        dt = self.dt
        p = apply_multiplier(p, self.diffusion[i])
        # conservative transport, Heun stage pair on -D(k p)
        k_field = np.asarray(self.problem.k(self.times[i], v), dtype=float)
        f1 = -apply_multiplier(k_field * p, self.flux_mult)
        p_stage = p + dt * f1
        f2 = -apply_multiplier(k_field * p_stage, self.flux_mult)
        p = p + 0.5 * dt * (f1 + f2)
        # exact multiplicative observation update
        p = p * np.exp(self.h[i] * self.y_inc[:, i][:, None] - self.h_drift[i])
        # one pass: NaN propagates through max and fails <=, and inf exceeds the guard
        if not float(np.abs(p).max()) <= self.guard_level:
            raise BlowUp(
                f"density norm exceeded the blow-up guard at step {i + 1}/{self.n_steps}; "
                "reduce the step size"
            )
        return p

    def running_cost(self, i: int, p: np.ndarray, v: float) -> np.ndarray:
        """Per-path cost of step i, <f(t_i,.,v), p(t_i)> dt (left rectangle)."""
        f_field = np.asarray(self.problem.f(self.times[i], v), dtype=float)
        return self.dt * (p @ f_field) * self.problem.grid.dx


def _k_sup(problem: ControlProblem, t: float, v: float) -> float:
    """max |k(t, v)|, or 0 when k(t, v) holds a NaN: the blow-up guard catches that step."""
    sup = float(np.abs(np.asarray(problem.k(t, v), dtype=float)).max())
    return 0.0 if np.isnan(sup) else sup


def _cfl(problem: ControlProblem, k_sup: float) -> StepRestriction:
    """The transport CFL number max |k| dt / dx of a filter run with max |k| = k_sup."""
    return StepRestriction("transport CFL number {}", lambda n: k_sup * (problem.T / n) / problem.grid.dx)


def _policy_cfl(problem: ControlProblem, policy: ControlPolicy, n_steps: int) -> StepRestriction:
    """The CFL number of a run: max |k(t_i, u(t_i))| at its step times t_i, i < n_steps."""
    times = PathGrid(problem.T, n_steps).times[:-1]
    return _cfl(problem, max(_k_sup(problem, t, policy.value_at(t)) for t in times))


def solve_zakai(
    problem: ControlProblem,
    policy: ControlPolicy,
    y_inc: np.ndarray,
    n_steps: int = 64,
    output_times: Sequence[float] | None = None,
) -> ZakaiState:
    """Filter densities along observation paths; y_inc has shape (paths, n_steps)."""
    times = PathGrid(problem.T, n_steps).times
    out_idx = time_indices(times, output_times)
    p_out = np.empty((y_inc.shape[0], out_idx.size, problem.grid.n))
    check_step_restrictions([_policy_cfl(problem, policy, n_steps)], n_steps,
                            time_grid_multiple(problem.T, output_times))
    steps = _ZakaiSteps(problem, y_inc, n_steps)
    p = steps.p0
    for i in range(n_steps + 1):
        p_out[:, out_idx == i] = p[:, None]
        if i < n_steps:
            p = steps.step(i, p, policy.value_at(times[i]))
    return ZakaiState(
        grid=problem.grid,
        times=times[out_idx],
        p=p_out,
        meta={"n_steps": n_steps, "policy": policy},
    )


@dataclass(frozen=True)
class CostEstimate:
    mean: float
    stderr: float


def _policy_costs(
    problem: ControlProblem,
    edges: tuple[float, ...],
    choices: Sequence[Sequence[float]],
    y_inc: np.ndarray,
    n_steps: int,
) -> list[tuple[tuple[float, ...], CostEstimate]]:
    """The cost of every policy ControlPolicy(edges, values), values in
    itertools.product(*choices) order, stepped as a depth-first prefix tree.

    Step i and its running cost belong to the interval the policies'
    value_at(t_i) reads, so policies that share their first j values share p
    and the running cost up to the end of interval j; each node of the tree
    steps its interval once from its parent's state.  Every path sees the
    same operations in the same order as a per-policy run, so each cost is
    bit-identical to one.  One CFL check, over every (step time, value), comes first.
    """
    m = len(choices)
    times = PathGrid(problem.T, n_steps).times
    owner = ControlPolicy(edges, tuple(range(m)))
    interval = [owner.value_at(t) for t in times[:-1]]  # nondecreasing
    bounds = np.searchsorted(interval, np.arange(m + 1))  # interval j: bounds[j]:bounds[j+1]
    k_sup = max(_k_sup(problem, t, v) for j in range(m) for v in choices[j]
                for t in times[bounds[j]:bounds[j + 1]])
    check_step_restrictions([_cfl(problem, k_sup)], n_steps)
    steps = _ZakaiSteps(problem, y_inc, n_steps)
    n_paths = y_inc.shape[0]
    out = []

    def walk(picks: tuple[int, ...], p: np.ndarray, running: np.ndarray) -> None:
        j = len(picks)
        if j == m:
            per_path = running + (p @ problem.g) * problem.grid.dx
            out.append((tuple(choices[i][c] for i, c in enumerate(picks)), CostEstimate(
                mean=float(per_path.mean()),
                stderr=float(per_path.std(ddof=1) / np.sqrt(n_paths)) if n_paths > 1 else 0.0,
            )))
            return
        for c, v in enumerate(choices[j]):
            q, r = p, running.copy()
            for i in range(bounds[j], bounds[j + 1]):
                r += steps.running_cost(i, q, v)
                q = steps.step(i, q, v)
            walk(picks + (c,), q, r)

    walk((), steps.p0, np.zeros(n_paths))
    return out


def cost_functional(
    problem: ControlProblem,
    policy: ControlPolicy,
    y_inc: np.ndarray,
    n_steps: int = 64,
) -> CostEstimate:
    """J = E[int <f(t,.,u_t), p> dt + <g, p(T)>], left-rectangle in time."""
    ((_, est),) = _policy_costs(
        problem, policy.edges, [(v,) for v in policy.values], y_inc, n_steps
    )
    return est


# --- adjoint -----------------------------------------------------------------------

_SYMBOL_LIMIT = 1.0 + 1e-12  # round-off slack: the mean mode sits at exactly 1


def _adjoint_symbol(
    problem: ControlProblem, policy: ControlPolicy, n_steps: int
) -> tuple[float, StepRestriction]:
    """The adjoint's forward-Euler symbol on n_steps steps, max over modes of
    |1 - dt a(t_{i+1}) lam + dt K d1| with K = max |k(t_{i+1}, u(t_i))| over the
    steps the drift reads, and its restriction (K and a held), passing from
    dt <= 2 a lam / (a^2 lam^2 + K^2 xi^2) per mode (inf when K^2 overflows)."""
    times = PathGrid(problem.T, n_steps).times
    lam = frac_lap_multiplier(problem.grid, problem.alpha)
    d1 = derivative_multiplier(problem.grid, 1)
    K = max(_k_sup(problem, t, policy.value_at(s)) for s, t in zip(times[:-1], times[1:]))
    a = np.sort([problem.a.at(t) for t in times[1:]])[[0, -1], None]  # |symbol|^2 convex in a

    def symbol(n: int) -> float:
        dt = problem.T / n
        with np.errstate(over="ignore"):
            return float(np.abs(1.0 - dt * a * lam + dt * K * d1).max())

    with np.errstate(over="ignore", divide="ignore"):  # lam[0] = 0
        steps = problem.T / np.min(2 * a * lam[1:] / np.abs(a * lam[1:] - K * d1[1:]) ** 2)
    return symbol(n_steps), StepRestriction("explicit adjoint symbol {}", symbol, steps,
                                            limit=_SYMBOL_LIMIT, digits=5)


def check_step_count(
    problem: ControlProblem, policy: ControlPolicy, n_steps: int, multiple: int = 2
) -> None:
    """Check the stability guards of verify_maximum_principle's runs of policy:
    the transport CFL number and the adjoint's forward-Euler symbol, each on
    n_steps (even) and on the refinement probe's n_steps / 2.

    StabilityError names the first guard that fails and the least multiple of
    multiple (even) at which all four pass, their sampled k and a held.
    """
    half = n_steps // 2

    def probe(r: StepRestriction) -> StepRestriction:  # r read on the caller's n // 2 steps
        return r._replace(what=r.what + f" in the refinement probe at n_steps / 2 = {half} steps",
                          number=lambda n: r.number(n // 2), steps=r.steps and 2 * r.steps)

    cfl, cfl_half = (_policy_cfl(problem, policy, s) for s in (n_steps, half))
    (_, sym), (_, sym_half) = (_adjoint_symbol(problem, policy, s) for s in (n_steps, half))
    check_step_restrictions([cfl, probe(cfl_half), sym, probe(sym_half)], n_steps, multiple)


def solve_adjoint(
    problem: ControlProblem,
    policy: ControlPolicy,
    y_inc: np.ndarray,
    n_steps: int = 64,
    output_times: Sequence[float] | None = None,
) -> AdjointState:
    """Backward regression scheme for dq = [-L* q - f - h l] dt + l dY, q(T) = g.

    bspde.regress_backward with Y = q, Z = l, drift L* q + f and vol h: one
    projection per step gives l(t_i) ~ E[q(t_{i+1}) dY_i / dt | F_i] and
    q(t_i) ~ E[q(t_{i+1}) + dt (L* q(t_{i+1}) + f) | F_i] + dt h l(t_i), on
    path functionals of Y.  l at T is the fit of the last step.  With
    h == 0 the updates are deterministic and reproduce the backward PDE with
    transport coefficient k.

    The regression design holds the degree-2 monomials in Y at the coarse
    steps (up to six, evenly spaced) before the current one and at the current
    step, coarse-only columns first: the steps between two coarse steps share
    those columns' QR, so a 24-step run factors 6 full designs instead of 24.

    The step is forward Euler on L*: its symbol (_adjoint_symbol) must not
    exceed 1 at any mode, or StabilityError names the least n_steps that
    passes.  A non-finite q or l is BlowUp.
    """
    g = problem.grid
    grid_t = PathGrid(problem.T, n_steps)
    times = grid_t.times
    check_step_restrictions([_adjoint_symbol(problem, policy, n_steps)[1]], n_steps,
                            time_grid_multiple(problem.T, output_times))
    out_idx = time_indices(times, output_times)

    def drift(i: int, q: np.ndarray) -> np.ndarray:
        t_hi, v_hi = times[i + 1], policy.value_at(times[i])
        f_field = np.asarray(problem.f(t_hi, v_hi), dtype=float)
        return apply_L_star(q, t_hi, v_hi, problem) + f_field

    q_out, l_out, l_se, max_cond = regress_backward(
        y_inc,
        np.broadcast_to(problem.g, (y_inc.shape[0], g.n)),
        drift,
        lambda i: np.asarray(problem.h(times[i]), dtype=float),
        grid_t.coarse_steps(6), out_idx, grid_t.dt,
    )
    return AdjointState(
        grid=g,
        times=times[out_idx],
        q=_finite(q_out),
        l=_finite(l_out),
        l_se=np.sqrt(np.mean(l_se**2, axis=1)),
        meta={"n_steps": n_steps, "max_design_cond": max_cond, "policy": policy},
    )


# --- Hamiltonian and the maximum principle --------------------------------------------


def hamiltonian(
    t: float,
    v: float,
    p: np.ndarray,
    q: np.ndarray,
    problem: ControlProblem,
) -> np.ndarray | float:
    """H(t, v, p, q) = <f(t,.,v), p> - <D(k(t,.,v) p), q>; vectorized over paths."""
    dx = problem.grid.dx
    f_field = np.asarray(problem.f(t, v), dtype=float)
    k_field = np.asarray(problem.k(t, v), dtype=float)
    cost_part = (p @ f_field) * dx
    transport = apply_multiplier(k_field * p, derivative_multiplier(problem.grid, 1))
    pairing = np.sum(transport * q, axis=-1) * dx
    out = cost_part - pairing
    return float(out) if np.ndim(out) == 0 else out


@dataclass
class BruteForceResult:
    policy: ControlPolicy
    cost: float
    stderr: float
    table: list[tuple[tuple[float, ...], float, float]]


def brute_force_optimal_control(
    problem: ControlProblem,
    n_intervals: int,
    y_inc: np.ndarray,
    n_steps: int = 64,
) -> BruteForceResult:
    """Exhaustive search over the |U|^m uniform open-loop policies with common paths.

    The policies are taken in itertools.product(sorted(U), repeat=m) order
    and stepped as a depth-first prefix tree: policies that share their
    first j values share the filter state and the running cost up to the
    end of interval j, so each distinct prefix steps its interval once
    (_policy_costs).  With |U| = 3 and 24 steps, m = 2 takes 144 Zakai steps instead of 216
    and m = 3 takes 312 instead of 648.  The CFL check fails before any step,
    as cost_functional on the policy with the largest CFL number.  The table,
    the optimum, and every BlowUp are bit-identical to calling cost_functional
    on each policy in turn.  Ties break toward the lexicographically
    smallest value tuple.  More than 256 policies raise BudgetExceeded.
    """
    n_policies = len(problem.U) ** n_intervals
    if n_policies > 256:
        raise BudgetExceeded(f"|U|^m = {n_policies} exceeds the enumeration budget 256")
    edges = ControlPolicy.uniform((0.0,) * n_intervals, problem.T).edges
    costs = _policy_costs(
        problem, edges, [sorted(problem.U)] * n_intervals, y_inc, n_steps
    )
    table = []
    best = None
    for values, est in costs:
        table.append((values, est.mean, est.stderr))
        if best is None or est.mean < best[1] - 1e-15:
            best = (ControlPolicy.uniform(values, problem.T), est.mean, est.stderr)
    return BruteForceResult(policy=best[0], cost=best[1], stderr=best[2], table=table)


@dataclass(frozen=True)
class MarginEntry:
    t: float
    v: float
    margin: float
    stderr: float
    tolerance: float

    @property
    def passed(self) -> bool:
        return self.margin >= -self.tolerance


@dataclass
class MaxPrincipleReport:
    entries: list[MarginEntry]
    worst_margin: float
    discretization_estimate: float

    @property
    def passed(self) -> bool:
        return all(e.passed for e in self.entries)


def verify_maximum_principle(
    problem: ControlProblem,
    policy: ControlPolicy,
    y_inc: np.ndarray,
    n_steps: int = 64,
    discretization_estimate: float | None = None,
) -> MaxPrincipleReport:
    """Check H(t, v, p, q) >= H(t, u_t, p, q) - tol along the given policy.

    Margins are path averages of the Hamiltonian gap at each (t, v) with t
    the midpoint of a policy interval; tol = 3 (stderr + discretization
    estimate).  When no discretization estimate is supplied, the pipeline is
    re-run at half the step count on the first 512 paths and the worst
    margin shift is used; both runs' stability guards are checked first
    (check_step_count).  Fewer than 2 paths (no standard error) raise
    ValueError.
    """
    if y_inc.shape[0] < 2:
        raise ValueError(f"need at least 2 observation paths, got {y_inc.shape[0]}")
    check_times = list(0.5 * (np.asarray(policy.edges[:-1]) + np.asarray(policy.edges[1:])))

    def margins(paths: np.ndarray, steps: int):
        zak = solve_zakai(problem, policy, paths, n_steps=steps, output_times=check_times)
        adj = solve_adjoint(problem, policy, paths, n_steps=steps, output_times=check_times)
        out = {}
        for t in check_times:
            p_t = zak.p_at(t)
            q_t = adj.q_at(t)
            h_base = hamiltonian(t, policy.value_at(t), p_t, q_t, problem)
            for v in problem.U:
                gap = hamiltonian(t, v, p_t, q_t, problem) - h_base
                out[(t, v)] = (
                    float(np.mean(gap)),
                    float(np.std(gap, ddof=1) / np.sqrt(gap.size)),
                )
        return out

    if discretization_estimate is None:
        if n_steps % 2:
            raise ValueError("n_steps must be even for the internal refinement probe")
        check_step_count(problem, policy, n_steps)
    full = margins(y_inc, n_steps)
    if discretization_estimate is None:
        sub = y_inc[:512]
        sub_coarse = sub.reshape(sub.shape[0], n_steps // 2, 2).sum(axis=2)
        coarse = margins(sub_coarse, n_steps // 2)
        # with at most 512 paths the fine probe is the full run
        fine_sub = full if sub.shape[0] == y_inc.shape[0] else margins(sub, n_steps)
        discretization_estimate = max(
            abs(fine_sub[key][0] - coarse[key][0]) for key in coarse
        )

    entries = []
    for (t, v), (mean_gap, se) in sorted(full.items()):
        entries.append(
            MarginEntry(
                t=t,
                v=v,
                margin=mean_gap,
                stderr=se,
                tolerance=3.0 * (se + discretization_estimate),
            )
        )
    worst = min(e.margin for e in entries)
    return MaxPrincipleReport(
        entries=entries,
        worst_margin=worst,
        discretization_estimate=float(discretization_estimate),
    )
