"""Acceptance checks: every library-level guarantee as a runnable check.

Each check returns a CheckResult with a pass/fail status, the measured
value, and its tolerance.  The registry drives both the pytest acceptance
module and the `verify-all` CLI subcommand; check ids are stable across
versions and every entry carries the mathematical property it tests.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .bspde import (
    BSPDEData,
    PathFunctional,
    RandomFieldSpec,
    RandomTerm,
    fbsde_crosscheck,
    solve_bspde_linear_gaussian,
    solve_bspde_regression,
    solve_fourier_deterministic,
    solve_kernel_deterministic,
    verify_holder_estimate,
)
from .fraclap import SingularIntegralConfig, apply_singular_integral, apply_spectral
from .grid import Grid1D, GridFunction
from .kernel import (
    CoefficientA,
    KernelParams,
    eval_G_ts,
    kernel_cdf,
    kernel_tail_mass,
    semigroup_apply,
    verify_kernel_bounds,
)
from .levy import PathGrid, RngStream, path_from_increments, simulate_brownian_increments, simulate_forward_sde
from .zakai import (
    ControlPolicy,
    ControlProblem,
    brute_force_optimal_control,
    duality_defect,
    solve_adjoint,
    solve_zakai,
    verify_maximum_principle,
)
from .bspde import solve_pde_variable_coeff

__all__ = ["CheckResult", "CHECKS", "run_check", "run_checks", "check_ids"]


@dataclass
class CheckResult:
    check_id: str
    property: str
    status: str  # "pass" | "fail" | "indeterminate"
    measured: float
    tolerance: float
    extras: dict = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return self.status == "pass"


def _result(check_id, prop, ok, measured, tol, extras=None):
    return CheckResult(
        check_id=check_id,
        property=prop,
        status="pass" if ok else "fail",
        measured=float(measured),
        tolerance=float(tol),
        extras=extras or {},
    )


def _control_problem(grid: Grid1D, T: float, **fields) -> ControlProblem:
    """alpha = 1.5, mu = 1 and a unit-mass N(0, 1) p0; k, h, f, g zero and U = (0,)
    unless fields sets them."""
    zeros = np.zeros(grid.n)
    p0 = np.exp(-grid.x**2 / 2)
    defaults = dict(alpha=1.5, mu=lambda t: 1.0, k=lambda t, v: zeros, h=lambda t: zeros,
                    f=lambda t, v: zeros, g=zeros, U=(0.0,), p0=p0 / (p0.sum() * grid.dx))
    return ControlProblem(grid=grid, T=T, **(defaults | fields))


def _smooth(grid: Grid1D, rng, modes=6) -> np.ndarray:
    vals = np.zeros(grid.n)
    for k in range(1, modes + 1):
        xi = 2 * np.pi * k / grid.length
        vals += rng.normal() * np.cos(xi * grid.x) + rng.normal() * np.sin(xi * grid.x)
    return vals


# --- 1: kernel mass -----------------------------------------------------------


def check_kernel_mass(seed: int) -> CheckResult:
    gx, gw = np.polynomial.legendre.leggauss(12)
    worst = 0.0
    details = {}
    for alpha in (1.2, 1.5, 1.8, 2.0):
        for A in (0.1, 1.0):
            scale = A ** (1.0 / alpha)
            edges = np.concatenate(
                [
                    np.linspace(0.0, 8.0 * scale, 65),
                    np.linspace(8.0 * scale, 64.0 * scale, 113)[1:],
                ]
            )
            mid = 0.5 * (edges[1:] + edges[:-1])
            half = 0.5 * (edges[1:] - edges[:-1])
            nodes = (mid[:, None] + half[:, None] * gx).ravel()
            weights = (half[:, None] * gw).ravel()
            params = KernelParams(alpha, A)
            mass = 2.0 * float(np.dot(weights, eval_G_ts(nodes, params)))
            mass += kernel_tail_mass(alpha, 64.0) if alpha < 2.0 else 0.0
            details[f"alpha={alpha},A={A}"] = mass
            worst = max(worst, abs(mass - 1.0))
    return _result(
        "kernel-mass",
        "int G_(t,s)(x) dx = 1",
        worst < 1e-6,
        worst,
        1e-6,
        {"masses": details},
    )


# --- 2: Gaussian reduction ------------------------------------------------------


def check_gaussian_reduction(seed: int) -> CheckResult:
    xs = np.linspace(-20.0, 20.0, 1601)
    worst = 0.0
    for A in (0.1, 1.0):
        got = eval_G_ts(xs, KernelParams(2.0, A))
        exact = np.exp(-(xs**2) / (4.0 * A)) / (2.0 * np.sqrt(np.pi * A))
        worst = max(worst, float(np.max(np.abs(got - exact))))
    return _result(
        "gaussian-reduction",
        "alpha = 2 kernel equals exp(-x^2/4A) / (2 sqrt(pi A))",
        worst < 1e-7,
        worst,
        1e-7,
    )


# --- 3: Chapman-Kolmogorov --------------------------------------------------------


def check_chapman_kolmogorov(seed: int) -> CheckResult:
    grid = Grid1D(-32.0, 32.0, 512)
    rng = np.random.default_rng(seed)
    a = CoefficientA.from_callable(lambda t: 1.0 + 0.3 * np.cos(t), t_max=1.0)
    worst = 0.0
    for alpha in (1.3, 1.7, 2.0):
        phi = GridFunction(grid, _smooth(grid, rng))
        t1, t2, t3 = 0.05, 0.4, 0.95
        comp = semigroup_apply(semigroup_apply(phi, a, t1, t2, alpha), a, t2, t3, alpha)
        direct = semigroup_apply(phi, a, t1, t3, alpha)
        worst = max(worst, float(np.max(np.abs(comp.values - direct.values))))
    return _result(
        "chapman-kolmogorov",
        "R_(t2)^(t3)(R_(t1)^(t2) f) = R_(t1)^(t3) f",
        worst < 1e-10,
        worst,
        1e-10,
    )


# --- 4: operator cross-validation ---------------------------------------------------


def check_operator_cross_validation(seed: int) -> CheckResult:
    grid = Grid1D(-32.0, 32.0, 2048)
    fields = [
        GridFunction.from_callable(grid, lambda x: np.exp(-(x**2))),
        GridFunction.from_callable(grid, lambda x: np.exp(-((x - 5.0) ** 2) / 4.0)),
        GridFunction.from_callable(
            grid, lambda x: np.sin(2 * np.pi * 3 * x / grid.length)
        ),
    ]
    worst_default = 0.0
    worst_ratio = np.inf
    for alpha in (1.2, 1.5, 1.8):
        for f in fields:
            spec = apply_spectral(f, alpha)
            coarse = apply_singular_integral(
                f, alpha, SingularIntegralConfig(quadrature_points=64)
            )
            fine = apply_singular_integral(
                f, alpha, SingularIntegralConfig(quadrature_points=256)
            )
            e_c = float(np.max(np.abs(spec.values - coarse.values)))
            e_f = float(np.max(np.abs(spec.values - fine.values)))
            worst_default = max(worst_default, e_c)
            worst_ratio = min(worst_ratio, e_c / max(e_f, 1e-300))
    ok = worst_default < 5e-3 and worst_ratio >= 4.0
    return _result(
        "operator-cross-validation",
        "spectral and singular-integral (-Delta)^(alpha/2) agree; error drops >= 4x under 4x quadrature",
        ok,
        worst_default,
        5e-3,
        {"min_refinement_ratio": worst_ratio},
    )


# --- 5: kernel bound stability --------------------------------------------------------


def check_kernel_bound_stability(seed: int) -> CheckResult:
    checks = verify_kernel_bounds(1.5, base_n=2001)
    wanted = {
        "pointwise-decay-k0",
        "pointwise-decay-k1",
        "weighted-integral-k0-g0",
        "weighted-integral-k1-g0",
        "weighted-integral-k2-g0.6",
    }
    rel = {c.check_id: c.rel_change for c in checks if c.check_id in wanted}
    worst = max(rel.values())
    return _result(
        "kernel-bound-stability",
        "empirical constants of the kernel decay bounds are stable under 2x refinement",
        worst < 0.05 and len(rel) == len(wanted),
        worst,
        0.05,
        {"rel_changes": rel},
    )


# --- 6: stable process vs kernel law ----------------------------------------------------


def check_stable_kernel_duality(seed: int) -> CheckResult:
    from scipy.special import kolmogi  # imported here, with kstest: only this check needs them
    from scipy.stats import kstest

    alpha, T, n_paths = 1.5, 1.0, 100_000
    grid_t = PathGrid(T, 8)
    X = simulate_forward_sde(None, 1.0, alpha, 0.0, grid_t, RngStream(seed, 600), n_paths)
    stat = float(kstest(X[:, -1], kernel_cdf(alpha, A=T)).statistic)
    crit = float(kolmogi(0.01) / np.sqrt(n_paths))
    return _result(
        "stable-kernel-duality",
        "law of X_T for dX = dM matches the integrated kernel (KS below the 1% critical value)",
        stat < crit,
        stat,
        crit,
        {"n_paths": n_paths},
    )


# --- 7: solver equivalence ---------------------------------------------------------------


def check_solver_equivalence(seed: int) -> CheckResult:
    grid = Grid1D(-32.0, 32.0, 512)
    rng = np.random.default_rng(seed)
    a = CoefficientA.from_callable(lambda t: 1.0 + 0.4 * np.sin(2.0 * t), t_max=1.0)
    worst = 0.0
    for trial in range(20):
        g_term = _smooth(grid, rng)
        prof = _smooth(grid, rng, modes=4)
        omega = rng.uniform(0.5, 2.0)
        data = BSPDEData(
            grid=grid,
            alpha=float(rng.uniform(1.1, 2.0)),
            T=1.0,
            a=a,
            g=g_term,
            f=lambda t, p=prof, w=omega: p * np.cos(w * t),
        )
        sf = solve_fourier_deterministic(data, n_steps=48)
        sk = solve_kernel_deterministic(data, n_steps=48)
        worst = max(worst, float(np.max(np.abs(sf.u - sk.u))))
    return _result(
        "solver-equivalence",
        "Fourier-formula and semigroup-convolution solvers agree on deterministic data",
        worst < 1e-8,
        worst,
        1e-8,
    )


# --- 8: Feynman-Kac consistency -----------------------------------------------------------


def check_feynman_kac(seed: int) -> CheckResult:
    n_paths = 100_000
    grid = Grid1D(-16.0 * np.pi, 16.0 * np.pi, 2048)
    data = BSPDEData(
        grid=grid,
        alpha=1.5,
        T=1.0,
        a=CoefficientA.constant(1.0),
        g=np.cos(grid.x) + 0.5 * np.sin(2.0 * grid.x),
        f=lambda t: 0.3 * np.cos(grid.x) * np.ones(grid.n),
        c=lambda t: np.full(grid.n, -0.2),
    )
    probes = [(0.0, 0.0), (0.0, 1.0), (0.25, -2.0), (0.5, 0.5), (0.75, 3.0)]
    results = fbsde_crosscheck(
        data,
        probes,
        rng=RngStream(seed, 800),
        n_paths=n_paths,
        n_steps_solver=128,
        n_steps_mc=48,
    )
    worst = max(r.discrepancy - r.tolerance for r in results)
    return _result(
        "feynman-kac",
        "forward-SDE Monte Carlo reproduces the solver at probe points within 3 (stderr + grid bound)",
        all(r.passed for r in results),
        worst,
        0.0,
        {
            "probes": [
                {
                    "t": r.t,
                    "x": r.x,
                    "pde": r.pde_value,
                    "mc": r.mc.mean,
                    "stderr": r.mc.stderr,
                    "grid_bound": r.grid_bound,
                }
                for r in results
            ]
        },
    )


# --- 9: regression BSPDE vs closed form ------------------------------------------------------


def check_regression_bspde(seed: int) -> CheckResult:
    n_reps, paths_per_rep = 8, 1250
    grid = Grid1D(-32.0, 32.0, 256)
    xi1 = 2 * np.pi / grid.length
    prof = np.sin(xi1 * grid.x)
    c0, c1, T = 0.3, 1.0, 1.0
    spec = RandomFieldSpec(
        terms=(RandomTerm(prof, PathFunctional.affine_in_w(T, c0, c1)),)
    )
    data = BSPDEData(grid=grid, alpha=1.5, T=T, a=CoefficientA.constant(1.0), g=spec)
    n_steps = 64
    lam1 = xi1**1.5
    x_idx = grid.n // 4

    # scheme bias of the explicit per-mode multiplier, computed independently
    dt = T / n_steps
    bias_mult = abs((1.0 - lam1 * dt) ** n_steps - np.exp(-lam1 * T))
    bias = bias_mult * (abs(c0) + 3.0 * abs(c1) * np.sqrt(T))

    du, dv = [], []
    for rep in range(n_reps):
        stream = RngStream(seed, 900 + rep)
        closed, _ = solve_bspde_linear_gaussian(
            data, n_paths=paths_per_rep, rng=stream, n_steps=n_steps
        )
        reg = solve_bspde_regression(
            data, n_paths=paths_per_rep, rng=stream, n_steps=n_steps
        )
        du.append(np.mean(reg.u_values(0.0)[:, x_idx] - closed.u_at(0.0)[:, x_idx]))
        dv.append(np.mean(reg.v_values(0.0)[:, x_idx] - closed.v_at(0.0)[x_idx]))
    du, dv = np.asarray(du), np.asarray(dv)
    se_u = du.std(ddof=1) / np.sqrt(n_reps)
    se_v = dv.std(ddof=1) / np.sqrt(n_reps)
    ok_u = abs(du.mean()) <= 3 * se_u + bias
    ok_v = abs(dv.mean()) <= 3 * se_v + bias * abs(c1)

    det = BSPDEData(
        grid=grid, alpha=1.5, T=T, a=CoefficientA.constant(1.0), g=prof
    )
    reg_det = solve_bspde_regression(
        det, n_paths=2000, rng=RngStream(seed, 950), n_steps=32
    )
    v = reg_det.v_values(0.0)
    v_rms = float(np.sqrt(np.mean(v**2)))
    ok_zero = v_rms <= 3.0 * reg_det.v_noise_floor(0.0)
    # worst constraint violation; negative means every clause holds
    worst = max(
        abs(du.mean()) - (3 * se_u + bias),
        abs(dv.mean()) - (3 * se_v + bias * abs(c1)),
        v_rms - 3.0 * reg_det.v_noise_floor(0.0),
    )
    return _result(
        "regression-bspde",
        "regression solver matches the closed-form (u, v) within 3 SE; deterministic data give v = 0",
        ok_u and ok_v and ok_zero,
        worst,
        0.0,
        {
            "u_diff": float(du.mean()),
            "u_se": float(se_u),
            "v_diff": float(dv.mean()),
            "v_se": float(se_v),
            "scheme_bias": float(bias),
            "det_v_rms": v_rms,
            "det_v_floor": float(reg_det.v_noise_floor(0.0)),
            "total_paths": n_reps * paths_per_rep,
        },
    )


# --- 10: Holder-estimate boundedness -----------------------------------------------------------


def _holder_instances(seed: int):
    rng = np.random.default_rng(seed + 17)
    specs = []
    for i in range(35):
        coefs = rng.normal(size=(2, 6)) / (1.0 + np.arange(6))
        omega = float(rng.uniform(0.3, 2.0))
        specs.append(("det", coefs, omega))
    for i in range(15):
        coefs = rng.normal(size=(2, 4)) / (1.0 + np.arange(4))
        c0, c1 = float(rng.normal()), float(rng.uniform(0.5, 1.5))
        specs.append(("rand", coefs, (c0, c1)))
    return specs


def _holder_max_ratio(specs, n: int, n_steps: int, beta: float, seed: int) -> float:
    grid = Grid1D(-32.0, 32.0, n)
    alpha, T = 1.5, 1.0
    a = CoefficientA.constant(1.0)

    def build_field(coefs):
        vals = np.zeros(grid.n)
        for k in range(coefs.shape[1]):
            xi = 2 * np.pi * (k + 1) / grid.length
            vals += coefs[0, k] * np.cos(xi * grid.x) + coefs[1, k] * np.sin(xi * grid.x)
        return vals

    worst = 0.0
    for kind, coefs, extra in specs:
        if kind == "det":
            omega = extra
            g_term = build_field(coefs)
            prof = build_field(coefs[:, ::-1].copy())
            data = BSPDEData(
                grid=grid,
                alpha=alpha,
                T=T,
                a=a,
                g=g_term,
                f=lambda t, p=prof, w=omega: p * np.cos(w * t),
            )
            rep = verify_holder_estimate(data, beta=beta, n_steps=n_steps)
        else:
            c0, c1 = extra
            spec = RandomFieldSpec(
                terms=(RandomTerm(build_field(coefs), PathFunctional.affine_in_w(T, c0, c1)),)
            )
            data = BSPDEData(grid=grid, alpha=alpha, T=T, a=a, g=spec)
            rep = verify_holder_estimate(
                data, beta=beta, n_steps=n_steps, n_paths=96, rng=RngStream(seed, 1000)
            )
        if rep.ratio is not None:
            worst = max(worst, rep.ratio)
    return worst


def check_holder_estimate(seed: int) -> CheckResult:
    beta = 0.6
    specs = _holder_instances(seed)
    base = _holder_max_ratio(specs, n=256, n_steps=48, beta=beta, seed=seed)
    refined = _holder_max_ratio(specs, n=512, n_steps=96, beta=beta, seed=seed)
    rel = abs(refined - base) / base
    ok = np.isfinite(base) and np.isfinite(refined) and rel < 0.10
    return _result(
        "holder-estimate",
        "||u||_(alpha+beta,L2) + ||u||_(beta,S2) + ||v||_(beta,L2) <= C (||g||_(alpha/2+beta,L2) + ||f||_(beta,L2))",
        ok,
        rel,
        0.10,
        {"max_ratio": base, "max_ratio_refined": refined, "instances": len(specs)},
    )


# --- 11: Zakai closed form ---------------------------------------------------------------------


def check_zakai_closed_form(seed: int) -> CheckResult:
    grid = Grid1D(-32.0, 32.0, 256)
    h0, T, n_steps = 0.8, 0.5, 32
    prob = _control_problem(grid, T, h=lambda t: np.full(grid.n, h0))
    p0 = prob.p0
    y_inc = simulate_brownian_increments(PathGrid(T, n_steps), RngStream(seed, 1100), 8)
    state = solve_zakai(prob, ControlPolicy.constant(0.0, T), y_inc, n_steps=n_steps)
    worst = 0.0
    base_hat = np.fft.fft(p0)
    lam = np.abs(grid.xi) ** 1.5
    # pathwise check on the first path; the state holds every step, so row i is t_i
    y_path = path_from_increments(y_inc[:1])[0]
    for row, t in enumerate(state.times):
        base = np.real(np.fft.ifft(np.exp(-t * lam) * base_hat)) if t > 0 else p0
        expected = base * np.exp(h0 * y_path[row] - 0.5 * h0**2 * t)
        worst = max(worst, float(np.max(np.abs(state.p[0, row] - expected))))

    # mass conservation with h = 0 and transport on
    prob0 = _control_problem(grid, T, k=lambda t, v: 0.5 * np.sin(2 * np.pi * grid.x / grid.length))
    state0 = solve_zakai(
        prob0, ControlPolicy.constant(0.0, T), np.zeros((1, n_steps)), n_steps=n_steps
    )
    drift = float(np.max(np.abs(state0.mass() - 1.0))) / T
    ok = worst < 1e-6 and drift < 1e-8
    return _result(
        "zakai-closed-form",
        "filter equals (R_0^t p0) exp(h0 Y_t - h0^2 t / 2) for constant h; mass conserved when h = 0",
        ok,
        worst,
        1e-6,
        {"mass_drift_per_unit_time": drift},
    )


# --- 12: adjoint duality and degenerate case ------------------------------------------------------


def check_adjoint_duality(seed: int) -> CheckResult:
    grid = Grid1D(-32.0, 32.0, 128)
    xi1 = 2 * np.pi / grid.length
    rng = np.random.default_rng(seed)
    k_field = 0.3 * np.sin(xi1 * grid.x)
    f_prof = 0.5 * np.cos(xi1 * grid.x)
    g_term = np.sin(xi1 * grid.x)
    T = 0.5
    prob = _control_problem(grid, T, k=lambda t, v: k_field, f=lambda t, v: f_prof, g=g_term)
    phi, psi = _smooth(grid, rng), _smooth(grid, rng)
    scale = float(
        np.sqrt(np.sum(phi**2) * grid.dx) * np.sqrt(np.sum(psi**2) * grid.dx)
    )
    defect = duality_defect(phi, psi, 0.1, 0.0, prob) / scale

    n_steps = 256
    y_inc = simulate_brownian_increments(PathGrid(T, n_steps), RngStream(seed, 1200), 64)
    adj = solve_adjoint(prob, ControlPolicy.constant(0.0, T), y_inc, n_steps=n_steps)
    data = BSPDEData(
        grid=grid,
        alpha=1.5,
        T=T,
        a=CoefficientA.constant(1.0),
        g=g_term,
        f=lambda t: f_prof,
        b=lambda t: k_field,
    )
    pde = solve_pde_variable_coeff(data, n_steps=n_steps)
    worst = 0.0
    for t in (0.0, 0.25):
        worst = max(worst, float(np.max(np.abs(adj.q_at(t) - pde.u_at(t)[None, :]))))
    ok = defect < 1e-8 and worst < 1e-5
    return _result(
        "adjoint-duality",
        "<L phi, psi> = <phi, L* psi>; unobserved adjoint matches the backward PDE",
        ok,
        worst,
        1e-5,
        {"duality_defect": defect},
    )


# --- 13: maximum principle -----------------------------------------------------------------------


def check_maximum_principle(seed: int) -> CheckResult:
    n_paths = 10_000
    grid = Grid1D(-32.0, 32.0, 128)
    weight = np.minimum((grid.x - 1.0) ** 2, 25.0)
    T = 0.5
    prob = _control_problem(
        grid, T, k=lambda t, v: np.full(grid.n, v), h=lambda t: 0.4 * np.tanh(grid.x / 4.0),
        f=lambda t, v: 0.5 * weight, g=weight, U=(-0.5, 0.0, 0.5),
    )
    n_steps = 24
    y_inc = simulate_brownian_increments(
        PathGrid(T, n_steps), RngStream(seed, 1300), n_paths
    )
    best = brute_force_optimal_control(prob, n_intervals=3, y_inc=y_inc, n_steps=n_steps)
    rep = verify_maximum_principle(prob, best.policy, y_inc, n_steps=n_steps)
    return _result(
        "maximum-principle",
        "H(t, v, p, q) >= H(t, u_t, p, q) for all v in U along the brute-force optimum",
        rep.passed,
        rep.worst_margin,
        -min(e.tolerance for e in rep.entries),
        {
            "policy": list(best.policy.values),
            "cost": best.cost,
            "margins": [
                {"t": e.t, "v": e.v, "margin": e.margin, "tol": e.tolerance}
                for e in rep.entries
            ],
            "discretization_estimate": rep.discretization_estimate,
        },
    )


# --- registry -------------------------------------------------------------------------------------

CHECKS: list[tuple[str, str, Callable[[int], CheckResult]]] = [
    ("kernel-mass", "quick", check_kernel_mass),
    ("gaussian-reduction", "quick", check_gaussian_reduction),
    ("chapman-kolmogorov", "quick", check_chapman_kolmogorov),
    ("operator-cross-validation", "quick", check_operator_cross_validation),
    ("kernel-bound-stability", "full", check_kernel_bound_stability),
    ("stable-kernel-duality", "quick", check_stable_kernel_duality),
    ("solver-equivalence", "quick", check_solver_equivalence),
    ("feynman-kac", "full", check_feynman_kac),
    ("regression-bspde", "full", check_regression_bspde),
    ("holder-estimate", "full", check_holder_estimate),
    ("zakai-closed-form", "quick", check_zakai_closed_form),
    ("adjoint-duality", "quick", check_adjoint_duality),
    ("maximum-principle", "full", check_maximum_principle),
]


def check_ids(tier: str = "full") -> list[str]:
    if tier == "quick":
        return [cid for cid, t, _ in CHECKS if t == "quick"]
    return [cid for cid, _, _ in CHECKS]


def run_check(check_id: str, seed: int = 0) -> CheckResult:
    for cid, _, fn in CHECKS:
        if cid == check_id:
            return fn(seed)
    raise KeyError(f"unknown check id {check_id!r}")


def run_checks(
    seed: int = 0, tier: str = "full", ids: list[str] | None = None
) -> tuple[list[CheckResult], dict[str, float]]:
    """Run the selected checks; returns results plus wall-clock timings."""
    import time

    selected = ids if ids is not None else check_ids(tier)
    results = []
    timings = {}
    for cid in selected:
        t0 = time.perf_counter()
        results.append(run_check(cid, seed))
        timings[cid] = time.perf_counter() - t0
    return results, timings
