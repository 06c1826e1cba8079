"""Fractional heat kernel, its derivatives, the semigroup, and bound checks.

The base kernel is

    G(x) = (1/2pi) int exp(-i xi x - |xi|^alpha) d xi,

and the two-time kernel follows from the exact scaling law

    D^k G_{t,s}(x) = A^{-(1+k)/alpha} (D^k G)(A^{-1/alpha} x),
    A = A_{t,s} = int_s^t a(r) dr > 0.

Evaluation uses Gauss-Legendre panels on the half-line integral
H_p(x) = int_0^inf xi^p exp(-i xi x - xi^alpha) d xi: directly for small |x|
(mesh graded toward 0 where exp(-xi^alpha) has unbounded derivatives), and on
the rotated ray xi -> lambda exp(-i pi/(2 alpha)) for large |x|, where the
integrand decays like exp(-lambda x cos theta) with no oscillation blow-up.
Both rules agree to ~1e-12 on the overlap; absolute error stays below 1e-8
across |x| <= 64 by a wide margin.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from typing import Callable

import numpy as np
from scipy.special import gamma as gamma_fn

from .errors import (
    OrderViolation,
    PositivityViolation,
    UnsupportedOrder,
)
from .fraclap import check_alpha
from .grid import Grid1D, GridFunction, apply_multiplier

__all__ = [
    "CoefficientA",
    "KernelParams",
    "eval_A",
    "eval_G",
    "eval_G_ts",
    "deriv_G",
    "deriv_G_ts",
    "frac_lap_G",
    "semigroup_multiplier",
    "apply_semigroup_A",
    "semigroup_apply",
    "kernel_mass",
    "kernel_tail_mass",
    "kernel_cdf",
    "BoundCheck",
    "verify_kernel_bounds",
]

# |x| above which the rotated-ray rule takes over from the direct rule.
X_SWITCH = 8.0
_GL_ORDER = 12


def _gl_panels(edges: np.ndarray, order: int = _GL_ORDER):
    gx, gw = np.polynomial.legendre.leggauss(order)
    mid = 0.5 * (edges[1:] + edges[:-1])
    half = 0.5 * (edges[1:] - edges[:-1])
    return (mid[:, None] + half[:, None] * gx).ravel(), (half[:, None] * gw).ravel()


@lru_cache(maxsize=32)
def _direct_rule(alpha: float):
    # mesh graded geometrically near 0, uniform with h*X_SWITCH <= 2 beyond 1
    xi_max = (-np.log(1e-15)) ** (1.0 / alpha)
    edges = [0.0, 1e-6]
    e = 1e-6
    while e < 1.0:
        e = min(2 * e, 1.0)
        edges.append(e)
    h = min(0.25, 2.0 / X_SWITCH)
    while e < xi_max:
        e = min(e + h, xi_max)
        edges.append(e)
    return _gl_panels(np.asarray(edges))


@lru_cache(maxsize=1)
def _rotated_rule():
    # s-mesh for an exp(-s) integrand with O(1)-period bounded oscillation
    edges = [0.0, 1e-6]
    e = 1e-6
    while e < 1.0:
        e = min(2 * e, 1.0)
        edges.append(e)
    while e < 45.0:
        e = min(e + 0.35, 45.0)
        edges.append(e)
    return _gl_panels(np.asarray(edges))


def _half_line_transform(x: np.ndarray, alpha: float, power: float) -> np.ndarray:
    """H_p(x) = int_0^inf xi^p exp(-i xi x - xi^alpha) d xi for x >= 0."""
    x = np.asarray(x, dtype=float)
    out = np.empty(x.shape, dtype=complex)
    near = x <= X_SWITCH

    if np.any(near):
        nodes, weights = _direct_rule(alpha)
        w = weights * nodes**power * np.exp(-(nodes**alpha))
        xs = x[near]
        vals = np.empty(xs.size, dtype=complex)
        chunk = max(1, 2**22 // max(1, nodes.size))
        for i in range(0, xs.size, chunk):
            phase = np.exp(-1j * np.outer(xs[i : i + chunk], nodes))
            vals[i : i + chunk] = phase @ w
        out[near] = vals

    if np.any(~near):
        s_nodes, s_weights = _rotated_rule()
        theta = (alpha - 1.0) * np.pi / (2.0 * alpha)
        pref = np.exp(-1j * (power + 1.0) * np.pi / (2.0 * alpha))
        xs = x[~near]
        vals = np.empty(xs.size, dtype=complex)
        chunk = max(1, 2**20 // max(1, s_nodes.size))
        cos_t = np.cos(theta)
        for i in range(0, xs.size, chunk):
            xv = xs[i : i + chunk][:, None]
            lam = s_nodes[None, :] / (xv * cos_t)
            integ = lam**power * np.exp(-lam * xv * np.exp(1j * theta) + 1j * lam**alpha)
            vals[i : i + chunk] = (integ * s_weights[None, :]).sum(axis=1) / (
                xv[:, 0] * cos_t
            )
        out[~near] = pref * vals
    return out


def eval_G(x, alpha: float):
    """Base kernel G(x); even, positive on (1,2], unit mass on the line."""
    check_alpha(alpha)
    xv = np.atleast_1d(np.asarray(x, dtype=float))
    vals = np.real(_half_line_transform(np.abs(xv), alpha, 0.0)) / np.pi
    return vals if np.ndim(x) else float(vals[0])


def deriv_G(x, alpha: float, k: int):
    """k-th derivative of G, k in {0,1,2,3} (the orders the estimates use)."""
    check_alpha(alpha)
    if k not in (0, 1, 2, 3):
        raise UnsupportedOrder(f"derivative order {k} not in {{0,1,2,3}}")
    xv = np.atleast_1d(np.asarray(x, dtype=float))
    h = _half_line_transform(np.abs(xv), alpha, float(k))
    vals = np.real((-1j) ** k * h) / np.pi
    if k % 2 == 1:  # odd orders flip with x -> -x (they vanish at x = 0)
        vals = np.where(xv < 0, -vals, vals)
    return vals if np.ndim(x) else float(vals[0])


def frac_lap_G(x, alpha: float, gamma: float):
    """(-Delta)^(gamma/2) G(x) = (1/pi) Re int_0^inf xi^gamma e^{-i xi x - xi^alpha} d xi."""
    check_alpha(alpha)
    if gamma <= 0:
        raise PositivityViolation(f"gamma must be > 0, got {gamma}")
    xv = np.atleast_1d(np.asarray(x, dtype=float))
    vals = np.real(_half_line_transform(np.abs(xv), alpha, float(gamma))) / np.pi
    return vals if np.ndim(x) else float(vals[0])


@dataclass(frozen=True)
class CoefficientA:
    """Positive, bounded time coefficient a(t) with bounds 0 < lower <= a <= upper."""

    func: Callable[[np.ndarray], np.ndarray]
    lower: float
    upper: float

    def __post_init__(self):
        if not 0.0 < self.lower <= self.upper:
            raise PositivityViolation(
                f"need 0 < lower <= upper, got [{self.lower}, {self.upper}]"
            )

    def __call__(self, t):
        return np.asarray(self.func(np.asarray(t, dtype=float)), dtype=float)

    @classmethod
    def constant(cls, c: float) -> "CoefficientA":
        if c <= 0:
            raise PositivityViolation(f"constant coefficient must be > 0, got {c}")
        return cls(lambda t: np.full_like(np.asarray(t, dtype=float), c), c, c)

    @classmethod
    def from_callable(
        cls, func: Callable, t_max: float, samples: int = 2049
    ) -> "CoefficientA":
        """Infer bounds by sampling on [0, t_max]."""
        ts = np.linspace(0.0, t_max, samples)
        vals = np.asarray(func(ts), dtype=float)
        lo, hi = float(vals.min()), float(vals.max())
        if lo <= 0:
            raise PositivityViolation(f"coefficient dips to {lo} <= 0 on [0, {t_max}]")
        return cls(func, lo, hi)


@dataclass(frozen=True)
class KernelParams:
    """Fractional order plus accumulated diffusivity A_{t,s}."""

    alpha: float
    A_ts: float

    def __post_init__(self):
        check_alpha(self.alpha)
        if self.A_ts <= 0:
            raise PositivityViolation(f"A_ts must be > 0, got {self.A_ts}")


def eval_A(a: CoefficientA, s: float, t: float, n_sub: int = 256) -> float:
    """A_{t,s} = int_s^t a(r) dr by composite Simpson; bounds are asserted."""
    if s >= t:
        raise OrderViolation(f"need s < t, got s={s}, t={t}")
    if n_sub % 2:
        n_sub += 1
    r = np.linspace(s, t, n_sub + 1)
    vals = a(r)
    if np.any(vals <= 0):
        raise PositivityViolation("coefficient a is not positive on the sample grid")
    h = (t - s) / n_sub
    w = np.ones(n_sub + 1)
    w[1:-1:2] = 4.0
    w[2:-1:2] = 2.0
    value = float(h / 3.0 * np.dot(w, vals))
    lo, hi = a.lower * (t - s), a.upper * (t - s)
    slack = 1e-9 * max(1.0, hi)
    if not lo - slack <= value <= hi + slack:
        raise ValueError(
            f"A={value} escapes bounds [{lo}, {hi}]; coefficient bounds inconsistent"
        )
    return value


def eval_G_ts(x, params: KernelParams):
    """Two-time kernel via the scaling law A^{-1/alpha} G(A^{-1/alpha} x)."""
    scale = params.A_ts ** (-1.0 / params.alpha)
    vals = scale * eval_G(scale * np.asarray(x, dtype=float), params.alpha)
    return vals if np.ndim(x) else float(vals)


def deriv_G_ts(x, params: KernelParams, k: int):
    """D^k G_{t,s}(x) = A^{-(1+k)/alpha} (D^k G)(A^{-1/alpha} x)."""
    scale = params.A_ts ** (-1.0 / params.alpha)
    vals = scale ** (1 + k) * deriv_G(scale * np.asarray(x, dtype=float), params.alpha, k)
    return vals if np.ndim(x) else float(vals)


def frac_lap_G_ts(x, params: KernelParams, gamma: float):
    scale = params.A_ts ** (-1.0 / params.alpha)
    vals = scale ** (1 + gamma) * frac_lap_G(
        scale * np.asarray(x, dtype=float), params.alpha, gamma
    )
    return vals if np.ndim(x) else float(vals)


def semigroup_multiplier(grid: Grid1D, A: float, alpha: float) -> np.ndarray:
    """Fourier multiplier exp(-A |xi_k|^alpha) of the semigroup."""
    if A < 0:
        raise PositivityViolation(f"A must be >= 0, got {A}")
    return np.exp(-A * np.abs(grid.xi) ** alpha)


def apply_semigroup_A(phi: GridFunction, A: float, alpha: float) -> GridFunction:
    """Convolution with G_A computed spectrally."""
    check_alpha(alpha)
    mult = semigroup_multiplier(phi.grid, A, alpha)
    return GridFunction(phi.grid, apply_multiplier(phi.values, mult))


def semigroup_apply(
    phi: GridFunction, a: CoefficientA, s: float, t: float, alpha: float
) -> GridFunction:
    """Semigroup action R_s^t phi = G_{t,s} * phi (Chapman-Kolmogorov exact)."""
    if s >= t:
        raise OrderViolation(f"need s < t, got s={s}, t={t}")
    return apply_semigroup_A(phi, eval_A(a, s, t), alpha)


# --- mass, tails, CDF ------------------------------------------------------


# Terms j = 1..3 of the heavy-tail series
# G(x) ~ (1/pi) sum_j (-1)^{j+1} Gamma(j alpha + 1)/j! sin(j pi alpha/2) x^{-j alpha - 1}
_TAIL_J = np.arange(1, 4)


def _tail_series_coeffs(alpha: float) -> np.ndarray:
    j = _TAIL_J
    return (
        (-1.0) ** (j + 1)
        * gamma_fn(j * alpha + 1.0)
        / gamma_fn(j + 1.0)
        * np.sin(j * np.pi * alpha / 2.0)
        / np.pi
    )


def kernel_tail_mass(alpha: float, radius: float) -> float:
    """int_{|x| > radius} G dx from the heavy-tail asymptotic series."""
    check_alpha(alpha)
    j = _TAIL_J
    coeffs = _tail_series_coeffs(alpha)
    return float(2.0 * np.sum(coeffs * radius ** (-j * alpha) / (j * alpha)))


def kernel_mass(alpha: float) -> float:
    """Quadrature mass 2 int_0^R G dx plus the asymptotic tail beyond R = 64."""
    check_alpha(alpha)
    radius, panel_h = 64.0, 0.5
    edges = np.concatenate(
        [
            np.linspace(0.0, X_SWITCH, int(X_SWITCH / 0.25) + 1),
            np.arange(X_SWITCH + panel_h, radius + panel_h / 2, panel_h),
        ]
    )
    if edges[-1] < radius:
        edges = np.append(edges, radius)
    nodes, weights = _gl_panels(edges)
    inner = 2.0 * float(np.dot(weights, eval_G(nodes, alpha)))
    return inner + kernel_tail_mass(alpha, radius)


def kernel_cdf(alpha: float, A: float = 1.0):
    """CDF of the density G_A as a vectorized callable (for KS tests), tabulated on [0, 200]."""
    check_alpha(alpha)
    if A <= 0:
        raise PositivityViolation(f"A must be > 0, got {A}")
    x_max = 200.0
    xs = np.linspace(0.0, x_max, 40001)
    dens = eval_G(xs, alpha)
    cum = np.concatenate([[0.0], np.cumsum((dens[1:] + dens[:-1]) * 0.5 * np.diff(xs))])
    half_tail = 0.5 * kernel_tail_mass(alpha, x_max) if alpha < 2.0 else 0.0
    # renormalize the numeric half-mass so F(+inf) = 1 exactly
    cum = cum * (0.5 - half_tail) / cum[-1]
    scale = A ** (-1.0 / alpha)
    j = _TAIL_J
    coeffs = _tail_series_coeffs(alpha)

    def cdf(x):
        z = np.asarray(x, dtype=float) * scale
        az = np.abs(z)
        out = np.interp(az, xs, cum)
        far = az > x_max
        if np.any(far) and alpha < 2.0:
            tail = np.sum(
                coeffs[None, :] * az[far, None] ** (-j[None, :] * alpha) / (j * alpha),
                axis=1,
            )
            out[far] = 0.5 - tail
        elif np.any(far):
            out[far] = 0.5
        return np.where(z >= 0, 0.5 + out, 0.5 - out)

    return cdf


# --- empirical bound checks -------------------------------------------------


@dataclass(frozen=True)
class BoundCheck:
    """Empirical constant for one kernel estimate, with a refinement probe."""

    check_id: str
    formula: str
    k: float
    gamma: float
    constant: float
    refined_constant: float
    rel_change: float
    stable: bool
    extras: dict = field(default_factory=dict)


def _pointwise_constant(alpha: float, k: int, x_hi: float, n: int) -> float:
    xs = np.linspace(0.0, x_hi, n)
    vals = np.abs(deriv_G(xs, alpha, k)) * (1.0 + xs ** (1.0 + alpha + k))
    return float(vals.max())


def _fraclap_pointwise_constant(alpha: float, gamma: float, x_hi: float, n: int) -> float:
    xs = np.linspace(1e-6, x_hi, n)
    vals = np.abs(frac_lap_G(xs, alpha, gamma)) * (1.0 + xs ** (1.0 + gamma))
    return float(vals.max())


def _weighted_integral(alpha: float, k: int, gamma: float, A: float, n: int, z_hi: float) -> float:
    # int |D^k G_A(x)| |x|^gamma dx over x = A^{1/alpha} z, z in [0, z_hi]
    scale = A ** (1.0 / alpha)
    zs = np.linspace(0.0, z_hi, n)
    xs = scale * zs
    vals = np.abs(deriv_G_ts(xs, KernelParams(alpha, A), k)) * np.abs(xs) ** gamma
    return 2.0 * float(np.trapezoid(vals, xs))


def _fraclap_weighted_integral(alpha: float, gamma: float, A: float, n: int, z_hi: float) -> float:
    scale = A ** (1.0 / alpha)
    zs = np.linspace(0.0, z_hi, n)
    xs = scale * zs
    vals = np.abs(frac_lap_G_ts(xs, KernelParams(alpha, A), gamma)) * np.abs(xs) ** gamma
    return 2.0 * float(np.trapezoid(vals, xs))


def _sup_kernel_integral(alpha: float, gamma: float, A_lo: float, A_hi: float, n: int) -> float:
    # int sup_A G_A(x) |x|^gamma dx, sup over log-spaced A in [A_lo, A_hi]
    xs = np.linspace(0.0, 80.0, n)
    best = np.zeros_like(xs)
    for A in np.geomspace(A_lo, A_hi, 17):
        best = np.maximum(best, eval_G_ts(xs, KernelParams(alpha, A)))
    return 2.0 * float(np.trapezoid(best * np.abs(xs) ** gamma, xs))


def verify_kernel_bounds(
    alpha: float,
    beta: float = 0.6,
    base_n: int = 2001,
) -> list[BoundCheck]:
    """Empirical constants for the kernel decay and weighted-integral estimates.

    The constants in the underlying inequalities are existential, so the
    check fits the best constant over a sample (nine log-spaced tau = t - s
    in [1e-3, 1] for the time-dependent bounds) and marks it stable when it
    moves by less than 5% relative under a 2x refinement of the sampling grid.
    """
    check_alpha(alpha)
    taus = np.geomspace(1e-3, 1.0, 9)
    checks: list[BoundCheck] = []

    def add(check_id, formula, k, gam, coarse, fine, extras=None):
        rel = abs(fine - coarse) / max(abs(coarse), 1e-300)
        checks.append(
            BoundCheck(
                check_id=check_id,
                formula=formula,
                k=k,
                gamma=gam,
                constant=coarse,
                refined_constant=fine,
                rel_change=rel,
                stable=rel < 0.05,
                extras=extras or {},
            )
        )

    for k in (0, 1):
        c = _pointwise_constant(alpha, k, 60.0, base_n)
        cf = _pointwise_constant(alpha, k, 60.0, 2 * base_n - 1)
        add(
            f"pointwise-decay-k{k}",
            f"|D^{k} G(x)| <= C/(1+|x|^(1+alpha+{k}))",
            k,
            0.0,
            c,
            cf,
        )

    c = _fraclap_pointwise_constant(alpha, alpha / 2.0, 60.0, base_n)
    cf = _fraclap_pointwise_constant(alpha, alpha / 2.0, 60.0, 2 * base_n - 1)
    add(
        "pointwise-decay-fraclap",
        "|(-Delta)^(gamma/2) G(x)| <= C/(1+|x|^(1+gamma))",
        0,
        alpha / 2.0,
        c,
        cf,
    )

    gam_sup = min(beta, 0.9 * alpha)
    c = _sup_kernel_integral(alpha, gam_sup, taus[0], taus[-1], base_n)
    cf = _sup_kernel_integral(alpha, gam_sup, taus[0], taus[-1], 2 * base_n - 1)
    add(
        "sup-kernel-weighted-integral",
        "int sup_{t,s} G_{t,s}(x) |x|^gamma dx <= C",
        0,
        gam_sup,
        c,
        cf,
    )

    for k, gam in ((0, 0.0), (1, 0.0), (2, beta)):
        z_hi = 400.0
        expo = (gam - k) / alpha

        def fitted(n_pts):
            vals = [
                _weighted_integral(alpha, k, gam, tau, n_pts, z_hi) / tau**expo
                for tau in taus
            ]
            return float(np.max(vals)), vals

        c, vals_c = fitted(base_n)
        cf, _ = fitted(2 * base_n - 1)
        add(
            f"weighted-integral-k{k}-g{gam:g}",
            f"int |D^{k} G_(t,s)(x)| |x|^{gam:g} dx <= C (t-s)^(({gam:g}-{k})/alpha)",
            k,
            gam,
            c,
            cf,
            extras={"per_tau": vals_c, "taus": taus.tolist()},
        )

    # fractional-Laplacian weighted integral, gamma strictly below alpha
    gam = min(beta, 0.9 * alpha)
    expo = gam / alpha - 1.0

    def fitted_fl(n_pts):
        return float(
            np.max(
                [
                    _fraclap_weighted_integral(alpha, gam, tau, n_pts, 400.0) / tau**expo
                    for tau in taus
                ]
            )
        )

    add(
        "weighted-integral-fraclap",
        "int |(-Delta)^(alpha/2) G_(t,s)(x)| |x|^gamma dx <= C (t-s)^(gamma/alpha - 1)",
        alpha,
        gam,
        fitted_fl(base_n),
        fitted_fl(2 * base_n - 1),
    )
    return checks
