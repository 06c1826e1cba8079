"""Solvers for the linear fractional backward (stochastic) heat equation.

The backward equation solved here, written forward in time, is

    u_t = a (-Delta)^(alpha/2) u - b u_x - c u - f - sigma v,   u(T, .) = g,

with v the martingale integrand (identically zero for deterministic data).
Four routes are provided and cross-validated:

* a Fourier-multiplier solver for space-invariant a(t) with deterministic
  data (the conditional-expectation formula collapses, the Girsanov factor
  having unit mean);
* a semigroup-convolution solver that must agree with the Fourier one;
* a backward method-of-lines solver for space-time coefficients with the
  stiff part frozen at spatial means and integrated exactly in Fourier
  space (ETD1), the residual stepped explicitly;
* a closed-form pathwise solver for terminal data phi(x) (c0 + c1 W_T) with
  sigma = 0, plus a regression solver that estimates the per-mode
  conditional expectations by least squares on path functionals.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .errors import (
    BlowUp,
    GridMismatch,
    InvalidExponent,
    PositivityViolation,
    StepRestriction,
    UnsupportedSpec,
    check_step_restrictions,
)
from .fraclap import check_alpha, frac_lap_multiplier
from .grid import (
    Grid1D,
    GridFunction,
    apply_multiplier,
    derivative_multiplier,
    ensemble_process_norms,
    time_grid_multiple,
    time_indices,
)
from .kernel import CoefficientA, eval_A
from .levy import (FeynmanKacResult, PathGrid, RngStream, feynman_kac_estimate,
                   path_from_increments, simulate_brownian_increments)
from .regression import design_matrix, factor_coarse_block, project_expectation

__all__ = [
    "PathFunctional",
    "RandomTerm",
    "RandomFieldSpec",
    "BSPDEData",
    "SolutionField",
    "AffineSolutionField",
    "RegressionSolution",
    "solve_fourier_deterministic",
    "solve_kernel_deterministic",
    "solve_pde_variable_coeff",
    "solve_bspde_linear_gaussian",
    "solve_bspde_regression",
    "regress_backward",
    "check_regression_steps",
    "space_process_norm",
    "HolderRatio",
    "verify_holder_estimate",
    "ProbeResult",
    "fbsde_crosscheck",
]


# --- randomness descriptors --------------------------------------------------


@dataclass(frozen=True)
class PathFunctional:
    """Polynomial (degree <= 2) in Brownian values at fixed times.

    value = const + sum coeff * W_tau + sum coeff * W_tau1 * W_tau2.
    Evaluation clips each tau at the current time, which is what makes a
    source field built from these functionals adapted.
    """

    const: float = 0.0
    linear: tuple[tuple[float, float], ...] = ()
    quadratic: tuple[tuple[float, float, float], ...] = ()

    def times(self) -> tuple[float, ...]:
        ts = {tau for tau, _ in self.linear}
        ts.update(t for pair in self.quadratic for t in pair[:2])
        return tuple(sorted(ts))

    def evaluate(self, w_of: Callable[[float], np.ndarray]) -> np.ndarray:
        out = None
        for tau, coeff in self.linear:
            term = coeff * w_of(tau)
            out = term if out is None else out + term
        for tau1, tau2, coeff in self.quadratic:
            term = coeff * w_of(tau1) * w_of(tau2)
            out = term if out is None else out + term
        if out is None:
            return np.asarray(self.const)
        return out + self.const

    @classmethod
    def affine_in_w(cls, tau: float, c0: float, c1: float) -> "PathFunctional":
        return cls(const=c0, linear=((tau, c1),))


@dataclass(frozen=True)
class RandomTerm:
    profile: np.ndarray
    functional: PathFunctional

    def __post_init__(self):
        object.__setattr__(self, "profile", np.asarray(self.profile, dtype=float))


@dataclass(frozen=True)
class RandomFieldSpec:
    """Random field sum_i profile_i(x) * P_i(W)."""

    terms: tuple[RandomTerm, ...]

    def times(self) -> tuple[float, ...]:
        ts: set[float] = set()
        for term in self.terms:
            ts.update(term.functional.times())
        return tuple(sorted(ts))

    def affine_terms(self, T: float) -> list[tuple[np.ndarray, float, float]]:
        """(profile, c0, c1) per term c0 + c1 W_T; UnsupportedSpec for any other term."""
        out = []
        for term in self.terms:
            fn = term.functional
            if fn.quadratic or any(abs(tau - T) > 1e-12 for tau, _ in fn.linear):
                raise UnsupportedSpec(
                    "closed form covers terminal data affine in W_T only; "
                    "use the regression solver for richer functionals"
                )
            out.append((term.profile, fn.const, sum(c for _, c in fn.linear)))
        return out


# --- problem data -------------------------------------------------------------


FieldFn = Callable[[float], np.ndarray]


@dataclass
class BSPDEData:
    """Coefficients and data of the backward equation on a periodic grid.

    a is the space-invariant diffusivity; a_xt, b, c are optional space-time
    coefficients given as maps t -> field array on grid.x (used only by the
    variable-coefficient solver).  f is None, a deterministic map
    t -> field array, or a RandomFieldSpec; g is a field array / GridFunction
    or a RandomFieldSpec.
    """

    grid: Grid1D
    alpha: float
    T: float
    a: CoefficientA
    g: np.ndarray | GridFunction | RandomFieldSpec
    f: FieldFn | RandomFieldSpec | None = None
    sigma: Callable[[float], float] | float = 0.0
    a_xt: FieldFn | None = None
    b: FieldFn | None = None
    c: FieldFn | None = None

    def __post_init__(self):
        check_alpha(self.alpha)
        if not self.T > 0:  # a NaN T fails
            raise ValueError(f"horizon T must be > 0, got {self.T}")
        if isinstance(self.g, GridFunction):
            if self.g.grid != self.grid:
                raise GridMismatch("terminal condition lives on a different grid")
            self.g = self.g.values
        if isinstance(self.g, np.ndarray) and self.g.shape != (self.grid.n,):
            raise GridMismatch(
                f"terminal array shape {self.g.shape} does not match n={self.grid.n}"
            )

    def sigma_at(self, t) -> float:
        return float(self.sigma(t)) if callable(self.sigma) else float(self.sigma)

    def deterministic_g(self) -> np.ndarray:
        if isinstance(self.g, RandomFieldSpec):
            raise UnsupportedSpec("terminal condition is random; use a pathwise solver")
        return np.asarray(self.g, dtype=float)

    def deterministic_f(self) -> FieldFn | None:
        if isinstance(self.f, RandomFieldSpec):
            raise UnsupportedSpec("source is random; use a pathwise solver")
        return self.f


# --- solution containers -------------------------------------------------------


@dataclass
class SolutionField:
    """Solution pair on output times; u is (times, n) or (paths, times, n).

    v is None when it vanishes identically (deterministic data), a
    (times, n) array when deterministic, or pathwise like u.
    """

    grid: Grid1D
    times: np.ndarray
    u: np.ndarray
    v: np.ndarray | None
    meta: dict = field(default_factory=dict)

    def u_at(self, t: float) -> np.ndarray:
        return self.u[..., time_indices(self.times, [t])[0], :]

    def v_at(self, t: float) -> np.ndarray:
        if self.v is None:
            shape = self.u.shape[:-2] + (self.grid.n,)
            return np.zeros(shape)
        return self.v[..., time_indices(self.times, [t])[0], :]


class AffineSolutionField(SolutionField):
    """A pathwise solution affine in W, kept as its factors:

        u(t) = source(t) + sum_i (c0_i + c1_i W_t) prop_i(t),

    with source (times, n) or None, w = W at the output times (paths, times)
    and terms the (c0_i, c1_i, prop_i), each prop_i (times, n).  u_at
    assembles one (paths, n) slice; u assembles the (paths, times, n)
    ensemble on first read and keeps it.  Both add the terms in order onto
    the source row (or 0.0), so their bits are those of a dense array built
    term by term.
    """

    def __init__(self, grid: Grid1D, times: np.ndarray, source: np.ndarray | None,
                 w: np.ndarray, terms: list[tuple[float, float, np.ndarray]],
                 v: np.ndarray, meta: dict):
        self.grid, self.times, self.v, self.meta = grid, times, v, meta
        self.source, self.w, self.terms = source, w, terms
        self._u: np.ndarray | None = None

    def _row(self, row: int, out: np.ndarray | None = None) -> np.ndarray:
        """u at output row into out, a (paths, n) array or view (a new one if None)."""
        if out is None:
            out = np.empty((self.w.shape[0], self.grid.n))
        out[:] = 0.0 if self.source is None else self.source[row]
        for c0, c1, prop in self.terms:
            out += (c0 + c1 * self.w[:, row])[:, None] * prop[row]
        return out

    @property
    def u(self) -> np.ndarray:
        if self._u is None:
            self._u = np.empty((self.w.shape[0], self.times.size, self.grid.n))
            for row in range(self.times.size):
                self._row(row, self._u[:, row])
        return self._u

    def u_at(self, t: float) -> np.ndarray:
        return self._row(time_indices(self.times, [t])[0])

    def _check_finite(self) -> None:
        """BlowUp exactly when some entry of u is not finite.  No entry exceeds
        max|source| + sum_i max|c0_i + c1_i W| max|prop_i| (NaN or inf when a
        factor is not finite), so the rows are read only when that bound is
        not safely below overflow."""
        def peak(arr) -> float:  # a Python float: the bound's own overflow is silent
            return float(np.max(np.abs(arr), initial=0.0))

        bound = 0.0 if self.source is None else peak(self.source)
        for c0, c1, prop in self.terms:
            bound += peak(c0 + c1 * self.w) * peak(prop)
        if not bound <= 1e300:
            buf = np.empty((self.w.shape[0], self.grid.n))
            for row in range(self.times.size):
                _finite(self._row(row, buf))


# --- shared time machinery ------------------------------------------------------


def _tail_weights(m: int) -> np.ndarray:
    """Quadrature weights (unit spacing) for int over the last m intervals.

    Composite Simpson when m is even; a leading trapezoid panel absorbs the
    odd interval otherwise.  Shared by the Fourier and kernel solvers so the
    two routes quadrate identically.
    """
    w = np.zeros(m + 1)
    if m == 0:
        return w
    start = 0
    if m % 2 == 1:
        w[0] += 0.5
        w[1] += 0.5
        start = 1
    span = m - start
    if span > 0:
        ws = np.ones(span + 1)
        ws[1:-1:2] = 4.0
        ws[2:-1:2] = 2.0
        w[start:] += ws / 3.0
    return w


def _cumulative_A(a: CoefficientA, times: np.ndarray) -> np.ndarray:
    """A(0 -> t_i) accumulated per step, so differences compose exactly."""
    acc = np.zeros(times.size)
    for i in range(times.size - 1):
        acc[i + 1] = acc[i] + eval_A(a, times[i], times[i + 1], n_sub=8)
    return acc


def _finite(u: np.ndarray) -> np.ndarray:
    """u itself; BlowUp when any of its values is not finite."""
    if not np.all(np.isfinite(u)):
        raise BlowUp("solution is not finite: the data or coefficients overflow")
    return u


def _f_values(f: FieldFn, times: np.ndarray) -> np.ndarray:
    return np.stack([np.asarray(f(t), dtype=float) for t in times])


# --- deterministic solvers ------------------------------------------------------


def solve_fourier_deterministic(
    data: BSPDEData,
    n_steps: int = 128,
    output_times: Sequence[float] | None = None,
) -> SolutionField:
    """Per-mode exponential formula for deterministic data and time-only a.

    u_hat(t, xi) = e^{-A_{T,t} |xi|^alpha} g_hat(xi)
                   + int_t^T e^{-A_{s,t} |xi|^alpha} f_hat(s, xi) ds,
    with the s-integral on the shared composite-Simpson rule; v == 0.
    """
    g = data.grid
    grid_t = PathGrid(data.T, n_steps)
    lam = frac_lap_multiplier(g, data.alpha)
    acc = _cumulative_A(data.a, grid_t.times)

    g_hat = np.fft.fft(data.deterministic_g())
    f_fn = data.deterministic_f()
    if f_fn is not None:
        f_hat = np.fft.fft(_f_values(f_fn, grid_t.times), axis=1)

    out_idx = time_indices(grid_t.times, output_times)
    u = np.empty((out_idx.size, g.n))
    for row, i in enumerate(out_idx):
        m = n_steps - i
        u_hat = np.exp(-(acc[-1] - acc[i]) * lam) * g_hat
        if m > 0 and f_fn is not None:
            w = _tail_weights(m) * grid_t.dt
            mults = np.exp(-(acc[i:] - acc[i])[:, None] * lam[None, :])
            u_hat = u_hat + np.sum(w[:, None] * mults * f_hat[i:], axis=0)
        u[row] = np.real(np.fft.ifft(u_hat))
    return SolutionField(
        grid=g,
        times=grid_t.times[out_idx],
        u=_finite(u),
        v=None,
        meta={"solver": "fourier_deterministic", "n_steps": n_steps},
    )


def solve_kernel_deterministic(
    data: BSPDEData,
    n_steps: int = 128,
    output_times: Sequence[float] | None = None,
) -> SolutionField:
    """Semigroup-convolution form u(t) = R_t^T g + int_t^T R_t^s f(s) ds.

    Uses the same time weights as the Fourier route; the two must agree to
    round-off since the semigroup acts spectrally.
    """
    g = data.grid
    grid_t = PathGrid(data.T, n_steps)
    lam = frac_lap_multiplier(g, data.alpha)
    acc = _cumulative_A(data.a, grid_t.times)

    g_field = data.deterministic_g()
    f_fn = data.deterministic_f()
    if f_fn is not None:
        fvals = _f_values(f_fn, grid_t.times)

    def propagate(field_vals: np.ndarray, A: float) -> np.ndarray:
        if A == 0.0:
            return field_vals.copy()
        return apply_multiplier(field_vals, np.exp(-A * lam))

    out_idx = time_indices(grid_t.times, output_times)
    u = np.empty((out_idx.size, g.n))
    for row, i in enumerate(out_idx):
        m = n_steps - i
        val = propagate(g_field, acc[-1] - acc[i])
        if m > 0 and f_fn is not None:
            w = _tail_weights(m) * grid_t.dt
            for j in range(i, n_steps + 1):
                if w[j - i] != 0.0:
                    val = val + w[j - i] * propagate(fvals[j], acc[j] - acc[i])
        u[row] = val
    return SolutionField(
        grid=g,
        times=grid_t.times[out_idx],
        u=_finite(u),
        v=None,
        meta={"solver": "kernel_deterministic", "n_steps": n_steps},
    )


def solve_pde_variable_coeff(
    data: BSPDEData,
    n_steps: int = 256,
    output_times: Sequence[float] | None = None,
) -> SolutionField:
    """Backward method of lines for space-time (a, b, c) and deterministic data.

    Marching T -> 0, the spatial means (a_bar, b_bar, c_bar) are frozen per
    step and integrated exactly in Fourier space (the stiff fractional part
    plus exact phase/growth factors); the residual
    -(a - a_bar) (-Delta)^(alpha/2) u + (b - b_bar) u_x + (c - c_bar) u + f
    is stepped explicitly, giving first-order temporal convergence and
    exactness whenever the residual vanishes.  Without a_xt, a_bar is the
    time-only data.a.at(t) and the residual has no a term; without b it has no
    transport term.

    The frozen one-step factors (exp of the frozen symbol over the step and
    the Simpson weights of the load) depend only on (A_half, A_full, c_bar,
    b_bar), the in-step integrals of a_bar and the frozen means.  They are
    rebuilt only when one of these four changes its bit pattern (so -0.0
    differs from 0.0 and a NaN always rebuilds): once per solve for
    time-constant coefficients, every step for time-varying ones.
    """
    g = data.grid
    grid_t = PathGrid(data.T, n_steps)
    times, dt = grid_t.times, grid_t.dt
    lam = frac_lap_multiplier(g, data.alpha)
    xi_max = float(np.max(np.abs(g.xi)))

    a_xt = data.a_xt
    b_fn = data.b
    c_fn = data.c or (lambda t: np.zeros(g.n))
    f_fn = data.deterministic_f()

    def a_bar(t: float) -> float:
        return data.a.at(t) if a_xt is None else float(np.mean(np.asarray(a_xt(t), dtype=float)))

    def spread(fn, t: float) -> float:
        v = np.asarray(fn(t), dtype=float)
        if fn is a_xt and not np.all(v > 0):  # NaN included
            raise PositivityViolation(f"diffusivity a_xt(t={t}) has an entry that is not > 0")
        return float(np.max(np.abs(v - v.mean())))

    # a_xt > 0 and the stability of the explicit residual, sampled at step times
    # before any step (a NaN spread of b is skipped)
    worst_frac = 0.0 if a_xt is None else max(0.0, *(spread(a_xt, t) for t in times))
    worst_trans = 0.0 if b_fn is None else max(0.0, *(spread(b_fn, t) for t in times))
    check_step_restrictions([
        StepRestriction("explicit residual number |a - a_bar| xi_max^alpha dt = {}",
                        lambda n: worst_frac * xi_max**data.alpha * (data.T / n)),
        StepRestriction("explicit residual number |b - b_bar| xi_max dt = {}",
                        lambda n: worst_trans * xi_max * (data.T / n)),
    ], n_steps, time_grid_multiple(data.T, output_times))

    d1 = derivative_multiplier(g, 1)  # the unpaired Nyquist mode carries no transport phase

    out_idx = time_indices(times, output_times)
    u = np.empty((out_idx.size, g.n))
    u_hat = np.fft.fft(data.deterministic_g()).astype(complex)
    u_field = np.real(np.fft.ifft(u_hat))  # the running field, kept at out_idx only
    u[out_idx == n_steps] = u_field
    quarter = np.array([0.0, 0.25, 0.5, 0.75, 1.0])
    frozen_key = None  # bit pattern of the (A_half, A_full, c_bar, b_bar) behind mult, w_load
    bbar = 0.0
    for i in range(n_steps - 1, -1, -1):
        t_hi = times[i + 1]
        a_bars = np.array([a_bar(times[i] + q * dt) for q in quarter])
        if b_fn is not None:
            b_hi = np.asarray(b_fn(t_hi), dtype=float)
            bbar = float(np.mean(b_hi))
        c_hi = np.asarray(c_fn(t_hi), dtype=float)
        cbar = float(np.mean(c_hi))

        # frozen one-step backward factor exp(-dA lam + c_bar dt + i xi b_bar dt):
        # in the raw-fft basis exp(+i xi x), the +b u_x backward transport is a
        # shift x -> x + b dt, i.e. a +i xi b dt phase.  The in-step integrals
        # of a_bar come from Simpson on quarter points so a time-only
        # coefficient is propagated to quadrature accuracy.
        A_half = dt / 12.0 * (a_bars[0] + 4.0 * a_bars[1] + a_bars[2])
        A_full = A_half + dt / 12.0 * (a_bars[2] + 4.0 * a_bars[3] + a_bars[4])
        key = np.array([A_half, A_full, cbar, bbar])
        if key.tobytes() != frozen_key:
            exp_half = -A_half * lam + 0.5 * cbar * dt + 0.5 * d1 * bbar * dt
            exp_full = -A_full * lam + cbar * dt + d1 * bbar * dt
            mult = np.exp(exp_full)
            # in-step Simpson of the s -> t_i factor, for the explicit load
            w_load = dt / 6.0 * (1.0 + 4.0 * np.exp(exp_half) + mult)
            frozen_key = None if np.isnan(key).any() else key.tobytes()

        # summed b, a, c, f in this order whether or not b is given: the order fixes the bits
        expl = 0.0 if b_fn is None else (b_hi - bbar) * apply_multiplier(u_field, d1)
        if a_xt is not None:
            a_hi = np.asarray(a_xt(t_hi), dtype=float)  # against its own mean at t_hi
            expl = expl - (a_hi - float(np.mean(a_hi))) * np.real(np.fft.ifft(lam * u_hat))
        expl = expl + (c_hi - cbar) * u_field
        if f_fn is not None:
            expl = expl + np.asarray(f_fn(t_hi), dtype=float)
        u_hat = mult * u_hat + w_load * np.fft.fft(expl)
        u_field = np.real(np.fft.ifft(u_hat))
        u[out_idx == i] = u_field
    return SolutionField(
        grid=g,
        times=times[out_idx],
        u=_finite(u),
        v=None,
        meta={"solver": "pde_variable_coeff", "n_steps": n_steps},
    )


# --- pathwise solvers -----------------------------------------------------------


def _require_sigma_zero(data: BSPDEData) -> None:
    probes = np.linspace(0.0, data.T, 9)
    if any(not abs(data.sigma_at(t)) <= 1e-14 for t in probes):  # a NaN sigma is not zero
        raise UnsupportedSpec("this solver requires sigma identically zero")


def solve_bspde_linear_gaussian(
    data: BSPDEData,
    n_paths: int,
    rng: RngStream,
    n_steps: int = 128,
    output_times: Sequence[float] | None = None,
) -> tuple[SolutionField, np.ndarray]:
    """Closed-form pathwise solution for g = sum_i phi_i(x)(c0_i + c1_i W_T).

    With sigma = 0 the conditional expectations are plain martingale
    projections: p(t) = sum phi_i (c0_i + c1_i W_t), q = sum c1_i phi_i, and

        u(t, x) = (R_t^T p(t))(x) + int_t^T (R_t^s f(s))(x) ds,
        v(t, x) = (R_t^T q)(x)  (path-independent).

    Returns the solution, kept as its factors (AffineSolutionField: no
    (paths, times, n) array until u is read), and W at its output times,
    shape (paths, times): the paths that solve_bspde_regression draws from
    the same RngStream.  BlowUp when some entry of u or v is not finite.
    """
    _require_sigma_zero(data)
    if not isinstance(data.g, RandomFieldSpec):
        raise UnsupportedSpec("terminal condition must be a RandomFieldSpec")
    terms = data.g.affine_terms(data.T)
    f = data.deterministic_f()
    g = data.grid
    grid_t = PathGrid(data.T, n_steps)
    out_idx = time_indices(grid_t.times, output_times)

    def fourier_part(terminal: np.ndarray, f: FieldFn | None) -> np.ndarray:
        part = BSPDEData(grid=g, alpha=data.alpha, T=data.T, a=data.a, g=terminal, f=f)
        return solve_fourier_deterministic(part, n_steps=n_steps, output_times=grid_t.times[out_idx]).u

    w = path_from_increments(simulate_brownian_increments(grid_t, rng, n_paths))[:, out_idx]
    w.flags.writeable = False  # shared by the caller and the solution's factors

    # the deterministic source part, then R_t^T of each terminal profile
    source = fourier_part(np.zeros(g.n), f) if f is not None else None
    factors = []
    v = np.zeros((out_idx.size, g.n))
    for profile, c0, c1 in terms:
        prof_prop = fourier_part(profile, None)
        factors.append((c0, c1, prof_prop))
        v += c1 * prof_prop

    sol = AffineSolutionField(
        grid=g,
        times=grid_t.times[out_idx],
        source=source,
        w=w,
        terms=factors,
        v=_finite(v),
        meta={"solver": "linear_gaussian", "n_steps": n_steps, "n_paths": n_paths},
    )
    sol._check_finite()
    return sol, w


@dataclass
class RegressionSolution:
    """Per-mode regression solution; fields reconstruct from retained modes."""

    grid: Grid1D
    times: np.ndarray
    mode_indices: np.ndarray
    u_hat: np.ndarray  # (paths, times, modes) complex raw-FFT coefficients
    v_hat: np.ndarray
    v_se: np.ndarray  # (times, modes) fitted-value standard error per mode
    meta: dict = field(default_factory=dict)

    def _basis_matrix(self) -> np.ndarray:
        # coefficients are raw-fft values: f_j = (1/n) sum_k F_k e^{+i xi_k (x_j - x_min)}
        g = self.grid
        xi = g.xi[self.mode_indices]
        return np.exp(1j * np.outer(xi, g.x - g.x_min)) / g.n

    def u_values(self, t: float) -> np.ndarray:
        return np.real(self.u_hat[:, time_indices(self.times, [t])[0], :] @ self._basis_matrix())

    def v_values(self, t: float) -> np.ndarray:
        return np.real(self.v_hat[:, time_indices(self.times, [t])[0], :] @ self._basis_matrix())

    def v_noise_floor(self, t: float) -> float:
        """RMS field amplitude explainable by pure regression noise."""
        v_se = self.v_se[time_indices(self.times, [t])[0]]
        return float(np.sqrt(np.sum(v_se**2)) / self.grid.n)


def _mode_mass(field, grid: Grid1D, times: np.ndarray) -> np.ndarray:
    """Largest |fft| per mode of a field: the profiles of a RandomFieldSpec,
    an array, or a map t -> array sampled at about eight of the times."""
    out = np.zeros(grid.n)
    if field is None:
        return out
    if isinstance(field, RandomFieldSpec):
        arrays = [term.profile for term in field.terms]
    elif callable(field):
        arrays = [field(t) for t in times[:: max(1, times.size // 8)]]
    else:
        arrays = [field]
    for arr in arrays:
        out = np.maximum(out, np.abs(np.fft.fft(np.asarray(arr, dtype=float))))
    return out


def regress_backward(
    increments: np.ndarray,
    terminal: np.ndarray,
    drift: Callable[[int, np.ndarray], np.ndarray],
    vol: Callable[[int], np.ndarray | float],
    coarse_steps: np.ndarray,
    out_idx: np.ndarray,
    dt: float,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, float]:
    """Backward regression scheme of Gobet, Lemor & Warin (Ann. Appl. Probab.
    15(3), 2005) for dY = -(drift(t, Y) + vol(t) Z) dt + Z dW, Y(T) = terminal,
    on the paths with the given (paths, steps) Brownian increments.

    Step i makes one projection onto the degree-2 design of the path up to i,
        [Z_i, Y'_i] = E[[Y_{i+1} dW_i / dt, Y_{i+1} + dt drift(i, Y_{i+1})] | F_i],
    and sets Y_i = Y'_i + dt vol(i) Z_i: since Z_i lies in the design span, this
    is the projection of Y_{i+1} + dt (drift + vol Z_i).  The scheme leaves Z
    at T undefined; it is reported as the fit of the last step, N - 1.

    The design's leading columns are the monomials in W at the coarse steps
    before i (regression.design_matrix), which change only when i crosses a
    coarse step: their QR is taken once per such segment, and each step
    orthogonalises only its columns in W_i against it.  Returns Y, Z (paths,
    out_idx, columns), the fitted-value standard error of Z (out_idx,
    columns) and the largest design condition number.
    """
    n_paths, n_steps = increments.shape
    w_cum = path_from_increments(increments)
    coarse_steps, out_idx = np.asarray(coarse_steps), np.asarray(out_idx)
    Y = terminal
    cols = Y.shape[1]
    Y_out = np.empty((n_paths, out_idx.size, cols), dtype=Y.dtype)
    Z_out = np.zeros_like(Y_out)
    se_out = np.zeros((out_idx.size, cols))
    Y_out[:, out_idx == n_steps] = Y[:, None]
    max_cond = 0.0
    segment = None
    for i in range(n_steps - 1, -1, -1):
        design = design_matrix(w_cum, i, coarse_steps)
        coarse_before = int(np.count_nonzero(coarse_steps < i))
        if coarse_before != segment:  # a new coarse segment: factor its shared columns once
            segment, leading = coarse_before, factor_coarse_block(design, i, coarse_steps)
        targets = np.hstack([Y * (increments[:, i][:, None] / dt), Y + dt * drift(i, Y)])
        fitted, se, cond = project_expectation(design, targets, se_cols=cols, leading=leading)
        Z = fitted[:, :cols]
        Y = fitted[:, cols:] + dt * vol(i) * Z
        max_cond = max(max_cond, cond)
        if i == n_steps - 1:  # Z at T is the last step's fit
            Z_out[:, out_idx == n_steps], se_out[out_idx == n_steps] = Z[:, None], se
        row = out_idx == i
        Y_out[:, row], Z_out[:, row], se_out[row] = Y[:, None], Z[:, None], se
    return Y_out, Z_out, se_out, max_cond


def _functional_times(data: BSPDEData) -> list[float]:
    """The times at which the data functionals read W: the regression solver's
    conditioning variables, so they must be nodes of its time grid."""
    spec_times: set[float] = set()
    for spec in (data.f, data.g):
        if isinstance(spec, RandomFieldSpec):
            spec_times.update(spec.times())
    return sorted(spec_times)


def check_regression_steps(data: BSPDEData, n_steps: int,
                           output_times: Sequence[float] | None) -> np.ndarray:
    """The Fourier modes solve_bspde_regression retains on n_steps (those the
    data reach), once its explicit diffusion number over them passes.  Else
    StabilityError names the least count that passes and whose grid holds
    output_times and the times the data functionals read W at."""
    times = PathGrid(data.T, n_steps).times
    mass = np.maximum(_mode_mass(data.g, data.grid, times), _mode_mass(data.f, data.grid, times))
    mode_indices = np.nonzero(mass > 1e-12 * max(float(mass.max()), 1e-300))[0]
    if mode_indices.size == 0:
        mode_indices = np.array([0])
    stiff = float(np.max(frac_lap_multiplier(data.grid, data.alpha)[mode_indices])) * data.a.upper
    on_grid = [*_functional_times(data), *(() if output_times is None else output_times)]
    check_step_restrictions([StepRestriction(
        "explicit diffusion number a|xi|^alpha dt = {} for a retained mode",
        lambda n: stiff * (data.T / n),
    )], n_steps, time_grid_multiple(data.T, on_grid))
    return mode_indices


def solve_bspde_regression(
    data: BSPDEData,
    n_paths: int,
    rng: RngStream,
    n_steps: int = 128,
    output_times: Sequence[float] | None = None,
) -> RegressionSolution:
    """Backward regression scheme for the per-mode linear BSDE.

    Each retained Fourier mode satisfies a scalar linear BSDE, which
    regress_backward solves with Y = u_hat, Z = v_hat, drift
    -a|xi|^alpha u_hat + f_hat and vol sigma: one least-squares projection
    per step onto polynomials (degree <= 2, the degree of every
    PathFunctional) of the Brownian path at coarse times.  v_hat at T is the
    fit of the last step.
    """
    g = data.grid
    grid_t = PathGrid(data.T, n_steps)
    times = grid_t.times
    mode_indices = check_regression_steps(data, n_steps, output_times)
    lam = frac_lap_multiplier(g, data.alpha)[mode_indices]
    w_inc = simulate_brownian_increments(grid_t, rng, n_paths)

    def field_hat_at(spec, step: int) -> np.ndarray:
        """FFT of the field (array, map t -> array or RandomFieldSpec) at a step,
        clipped for adaptedness."""
        if isinstance(spec, RandomFieldSpec):
            out = np.zeros((n_paths, mode_indices.size), dtype=complex)
            # built per call, so no second full path lives beside regress_backward's
            w_cum = path_from_increments(w_inc[:, :step])

            def w_of(tau: float) -> np.ndarray:
                return w_cum[:, min(time_indices(times, [tau])[0], step)]

            for term in spec.terms:
                prof_hat = np.fft.fft(term.profile)[mode_indices]
                coeff = term.functional.evaluate(w_of)
                coeff = np.broadcast_to(np.asarray(coeff, dtype=float), (n_paths,))
                out += coeff[:, None] * prof_hat[None, :]
            return out
        vals = np.asarray(spec(times[step]) if callable(spec) else spec, dtype=float)
        return np.broadcast_to(np.fft.fft(vals)[mode_indices], (n_paths, mode_indices.size))

    extra = time_indices(times, _functional_times(data))
    coarse_steps = np.unique(np.concatenate([grid_t.coarse_steps(8), extra]).astype(int))

    def drift(i: int, u: np.ndarray) -> np.ndarray:
        f_hat = field_hat_at(data.f, i + 1) if data.f is not None else 0.0
        return -data.a.at(times[i + 1]) * lam[None, :] * u + f_hat

    out_idx = time_indices(times, output_times)
    u_store, v_store, v_se_store, max_cond = regress_backward(
        w_inc, field_hat_at(data.g, n_steps), drift, lambda i: data.sigma_at(times[i]),
        coarse_steps, out_idx, grid_t.dt,
    )
    return RegressionSolution(
        grid=g,
        times=times[out_idx],
        mode_indices=mode_indices,
        u_hat=_finite(u_store),
        v_hat=_finite(v_store),
        v_se=v_se_store,
        meta={
            "solver": "regression",
            "n_steps": n_steps,
            "n_paths": n_paths,
            "basis_degree": 2,
            "max_design_cond": max_cond,
            "coarse_steps": coarse_steps.tolist(),
        },
    )


# --- Holder-estimate verification ------------------------------------------------


def space_process_norm(
    values: np.ndarray,
    grid: Grid1D,
    dt: float,
    order: float,
    kind: str,
) -> float:
    """Norm ||phi||_{order, X}: sup and Holder parts of D^k phi for k <= m.

    order = m + frac with m integer and frac in (0, 1); derivative fields are
    taken spectrally snapshot by snapshot.
    """
    m = int(np.floor(order + 1e-12))
    frac = order - m
    if not 0.0 < frac < 1.0:
        raise InvalidExponent(f"order {order} must have a fractional part in (0,1)")
    arr = np.asarray(values, dtype=float)
    if arr.ndim == 2:
        arr = arr[None, :, :]
    total = 0.0
    current = arr
    for k in range(m + 1):
        rep = ensemble_process_norms(current, grid, dt=dt, beta=frac, kind=kind)
        total += rep.sup_norm + rep.holder_seminorm
        if k < m:
            current = apply_multiplier(current, derivative_multiplier(grid, 1))
    return total


@dataclass(frozen=True)
class HolderRatio:
    lhs: float
    rhs: float

    @property
    def ratio(self) -> float | None:
        if self.rhs == 0.0:
            return None  # undefined for zero data
        return self.lhs / self.rhs


def verify_holder_estimate(
    data: BSPDEData,
    beta: float,
    n_steps: int = 64,
    n_paths: int = 256,
    rng: RngStream | None = None,
) -> HolderRatio:
    """One instance of the a-priori estimate ratio.

    LHS = ||u||_{alpha+beta, L2} + ||u||_{beta, S2} + ||v||_{beta, L2};
    RHS = ||g||_{alpha/2+beta, L2(Omega)} + ||f||_{beta, L2}.
    Deterministic data solve through the Fourier route (v == 0); terminal
    data affine in W_T solve through the closed form.  The norms read every
    fourth time step, T included, so n_steps must be a multiple of 4.
    """
    if not 2.0 - data.alpha < beta < 1.0:
        raise InvalidExponent(f"beta={beta} outside (2 - alpha, 1)")
    g = data.grid
    out_times = PathGrid(data.T, n_steps).times[::4]
    if n_steps % 4:
        raise ValueError(f"n_steps must be a multiple of 4, the norms' time stride, got {n_steps}")
    dt_out = out_times[1] - out_times[0]

    random_g = isinstance(data.g, RandomFieldSpec)
    if random_g:
        rng = rng or RngStream(0)
        sol, _ = solve_bspde_linear_gaussian(
            data, n_paths=n_paths, rng=rng, n_steps=n_steps, output_times=out_times
        )
        u = sol.u
        v = np.broadcast_to(sol.v, (1,) + sol.v.shape)
    else:
        sol = solve_fourier_deterministic(data, n_steps=n_steps, output_times=out_times)
        u = sol.u[None, :, :]
        v = None

    lhs = space_process_norm(u, g, dt_out, data.alpha + beta, kind="l2")
    lhs += space_process_norm(u, g, dt_out, beta, kind="s2")
    if v is not None:
        lhs += space_process_norm(v, g, dt_out, beta, kind="l2")

    # RHS: ||g||_{alpha/2 + beta, L2(Omega)}
    order_g = data.alpha / 2.0 + beta
    if random_g:
        # E|g|^2 is exact for affine functionals: profile^2 (c0^2 + c1^2 T).
        # Build a Gaussian-exact ensemble representation on two quadrature
        # points of W_T: values +-sqrt(T) with equal weight reproduce first
        # and second moments of each affine functional
        wq = np.array([np.sqrt(data.T), -np.sqrt(data.T)])
        samples = np.zeros((2, 1, g.n))
        for prof, c0, c1 in data.g.affine_terms(data.T):
            samples += (c0 + c1 * wq)[:, None, None] * prof[None, None, :]
        rhs = space_process_norm(samples, g, dt=1.0, order=order_g, kind="s2")
    else:
        g_arr = data.deterministic_g()[None, None, :]
        rhs = space_process_norm(g_arr, g, dt=1.0, order=order_g, kind="s2")

    if data.f is not None:
        f_dt = data.deterministic_f()
        fvals = _f_values(f_dt, out_times)[None, :, :]
        rhs += space_process_norm(fvals, g, dt_out, beta, kind="l2")
    return HolderRatio(lhs=float(lhs), rhs=float(rhs))


# --- FBSDE cross-check ------------------------------------------------------------


@dataclass(frozen=True)
class ProbeResult:
    t: float
    x: float
    pde_value: float
    mc: FeynmanKacResult
    grid_bound: float

    @property
    def discrepancy(self) -> float:
        return abs(self.pde_value - self.mc.mean)

    @property
    def tolerance(self) -> float:
        return 3.0 * (self.mc.stderr + self.grid_bound)

    @property
    def passed(self) -> bool:
        return self.discrepancy <= self.tolerance


class _PeriodicStencil:
    """np.interp(x, grid.x, field, period=grid.length), byte for byte, for
    many fields at the same particle array x.

    The node table takes the steps of np.interp's periodic branch: the nodes
    reduced mod L and sorted, with the two wrap nodes added.  Each new x is
    located once: j with xp[j] <= x % L < xp[j+1], from one division by the
    node spacing corrected by one node each way.  The last x is recognised
    by identity, so it must not be written to between calls.  A field at the
    located x is then numpy's compiled formula slope[j] (xm - xp[j]) + fp[j]
    with slope[j] = (fp[j+1] - fp[j]) / (xp[j+1] - xp[j]) and its special
    cases: xm == xp[j] gives fp[j] (xm == xp[-1], which x % L == L reaches
    when a node is 0 mod L, among them), and a NaN x gives NaN.
    """

    def __init__(self, grid: Grid1D):
        self.period = grid.length
        xp = np.asarray(grid.x, dtype=np.float64) % self.period
        self.order = np.argsort(xp)
        xp = xp[self.order]
        self.xp = np.concatenate((xp[-1:] - self.period, xp, xp[0:1] + self.period))
        self.dxp = np.diff(self.xp)
        self.h = (self.xp[-1] - self.xp[0]) / (self.xp.size - 1)
        # the estimate is monotone in x, so it is within one node of every
        # interval once it is at most one below each node
        lag = np.arange(self.xp.size) - self._estimate(self.xp)
        if not (np.all(self.dxp > 0) and np.all((lag == 0) | (lag == 1))):
            raise ValueError("grid nodes mod L are not uniform enough to locate particles")
        self._x = None

    def _estimate(self, xm: np.ndarray) -> np.ndarray:
        """floor((xm - xp[0]) / h) clipped to [0, m - 2]; 0 for a NaN xm."""
        q = np.subtract(xm, self.xp[0])
        q /= self.h
        np.floor(q, out=q)
        np.fmax(q, 0.0, out=q)
        np.fmin(q, self.xp.size - 2, out=q)
        return q.astype(np.intp)

    def table(self, field: np.ndarray, what: str) -> tuple[np.ndarray, np.ndarray]:
        """(fp, slope) of a grid field; slope[-1] = 0 serves xm == xp[-1]."""
        fs = np.asarray(field, dtype=np.float64)[self.order]
        fp = np.concatenate((fs[-1:], fs, fs[0:1]))
        slope = np.zeros(fp.size)
        with np.errstate(over="ignore", invalid="ignore"):  # checked below
            np.divide(np.diff(fp), self.dxp, out=slope[:-1])
        if not (np.all(np.isfinite(fp)) and np.all(np.isfinite(slope))):
            raise BlowUp(f"{what} is not finite on the grid: cannot interpolate it")
        return fp, slope

    def __call__(self, x: np.ndarray, table: tuple[np.ndarray, np.ndarray]) -> np.ndarray:
        if x is not self._x:
            # x % L as numpy computes it: the exact fmod, plus L where it is
            # negative (adding 0.0 elsewhere turns -0.0 into +0.0)
            xm = np.fmod(np.asarray(x, dtype=np.float64), self.period)
            xm += (xm < 0) * self.period
            j = self._estimate(xm)
            xp_j = np.take(self.xp, j)
            j -= xm < xp_j
            j += xm >= np.take(self.xp[1:], j, out=xp_j)
            np.take(self.xp, j, out=xp_j)
            node = np.nonzero(xm == xp_j)
            self._x, self._j, self._d = x, j, np.subtract(xm, xp_j, out=xm)
            self._node, self._node_j = node, j[node]
        fp, slope = table
        out = slope[self._j]
        out *= self._d
        out += fp[self._j]
        out[self._node] = fp[self._node_j]
        return out


def fbsde_crosscheck(
    data: BSPDEData,
    probes: Sequence[tuple[float, float]],
    rng: RngStream,
    n_paths: int = 100_000,
    n_steps_solver: int = 128,
    n_steps_mc: int = 64,
) -> list[ProbeResult]:
    """Forward-SDE representation vs the deterministic solver at probe points.

    With sigma = 0 the representation reads u(t, x) = E[e^{int c} g(X_T)
    + int_t^T e^{int c} f ds | X_t = x] for dX = b dt + a^{1/alpha} dM.
    The grid bound per probe is the observed solver drift under halving the
    step count, plus a round-off floor.

    The particles see the grid fields (g, f, c, b, a_xt) through one shared
    periodic stencil: each step's particle array is located once on the
    uniform grid, and every field at it costs a gather and a multiply-add.
    The values equal np.interp(x, grid.x, field, period=grid.length) byte
    for byte, its special cases included.  A non-finite field raises BlowUp.
    Without a_xt the particles read a as one number per step, data.a.at(t).
    Each probe's x snaps to its nearest node (Grid1D.nearest_node), and an x
    outside [x_min, x_max] raises OutOfRange before any solve.
    """
    g = data.grid
    has_var_coeff = data.b is not None or data.c is not None or data.a_xt is not None

    def solve(n_steps):
        if has_var_coeff:
            return solve_pde_variable_coeff(data, n_steps=n_steps)
        return solve_fourier_deterministic(data, n_steps=n_steps)

    nodes = [g.nearest_node(x) for _, x in probes]
    fine = solve(n_steps_solver)
    coarse = solve(n_steps_solver // 2)

    stencil = _PeriodicStencil(g)

    def at_particles(field_fn, what):
        """t -> field on the grid becomes (t, x) -> its periodic interpolation at x."""
        def fn(t, x):
            return stencil(x, stencil.table(field_fn(t), f"{what}(t={t})"))

        return fn

    a_fn = (lambda t, x: data.a.at(t)) if data.a_xt is None else at_particles(data.a_xt, "a_xt")
    g_table = stencil.table(data.deterministic_g(), "g")
    f_dt = data.deterministic_f()

    results = []
    for idx, ((t, _), xi_idx) in enumerate(zip(probes, nodes)):
        pde_val = float(fine.u_at(t)[xi_idx])
        bound = abs(pde_val - float(coarse.u_at(t)[xi_idx])) + 1e-10
        mc = feynman_kac_estimate(
            g=lambda y: stencil(y, g_table),
            f=None if f_dt is None else at_particles(f_dt, "f"),
            c=None if data.c is None else at_particles(data.c, "c"),
            b=None if data.b is None else at_particles(data.b, "b"),
            a=a_fn,
            alpha=data.alpha,
            x=float(g.x[xi_idx]),
            t=t,
            T=data.T,
            n_steps=n_steps_mc,
            n_paths=n_paths,
            rng=rng.child(idx),
        )
        results.append(
            ProbeResult(t=t, x=float(g.x[xi_idx]), pde_value=pde_val, mc=mc, grid_bound=bound)
        )
    return results
