"""Fractional heat kernel, its derivatives, the semigroup, and bound checks.

The base kernel is

    G(x) = (1/2pi) int exp(-i xi x - |xi|^alpha) d xi,

and the two-time kernel follows from the exact scaling law

    D^k G_{t,s}(x) = A^{-(1+k)/alpha} (D^k G)(A^{-1/alpha} x),
    A = A_{t,s} = int_s^t a(r) dr > 0.

Evaluation uses Gauss-Legendre panels on the half-line integral
H_p(x) = int_0^inf xi^p exp(-i xi x - xi^alpha) d xi, of which the kernel
needs only (1/pi) Re((-i)^k H_p(|x|)), in real arithmetic throughout:

* |x| <= X_SWITCH, the direct rule (mesh graded toward 0, where
  exp(-xi^alpha) has unbounded derivatives): Re((-i)^k exp(-i x xi)) is
  cos, -sin, -cos or sin of x xi for k mod 4 = 0..3, so each point is one
  real cos or sin per node and a matvec with the weights
  xi^p exp(-xi^alpha), cached per (alpha, p).
* |x| > X_SWITCH, the rotated ray xi = lam exp(-i theta),
  theta = (alpha - 1) pi/(2 alpha), where the integrand decays like
  exp(-lam x cos theta) with no oscillation blow-up. With
  lam = s/(x cos theta) the sum separates into (x cos theta)^(-p-1) times
  sum_s W_s exp(i s^alpha (x cos theta)^(-alpha)); s^alpha and W_s are
  cached per (alpha, p, k), so each point is one cos and one sin per node.

Both rules agree to 1.3e-12 absolute on x in [6, 10] (alpha = 1.05, p = 3;
the direct rule's cut at exp(-xi^alpha) = 1e-15) and below 5e-14 for
alpha >= 1.5; absolute error stays below 1e-8 across |x| <= 64 by a wide
margin. The per-tau bounds of verify_kernel_bounds use the scaling law the
other way round: D^k G_tau(tau^(1/alpha) z) = tau^(-(1+k)/alpha) D^k G(z),
so one evaluation on the z grid serves all nine tau.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from typing import Callable

import numpy as np

from .errors import (
    OrderViolation,
    OutOfRange,
    PositivityViolation,
    UnsupportedOrder,
)
from .fraclap import check_alpha, frac_lap_multiplier
from .grid import GridFunction, apply_multiplier

__all__ = [
    "CoefficientA",
    "KernelParams",
    "eval_A",
    "eval_G",
    "eval_G_ts",
    "deriv_G",
    "deriv_G_ts",
    "frac_lap_G",
    "apply_semigroup_A",
    "semigroup_apply",
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


@lru_cache(maxsize=64)
def _graded_rule(h: float, end: float):
    # panel edges doubling from 1e-6 up to 1 (where the integrand has unbounded
    # derivatives at 0), then uniform steps of h up to end
    edges = [0.0, 1e-6]
    e = 1e-6
    while e < 1.0:
        e = min(2 * e, 1.0)
        edges.append(e)
    while e < end:
        e = min(e + h, end)
        edges.append(e)
    return _gl_panels(np.asarray(edges))


# elements of one chunk's (points x nodes) phase array: 512 KiB fits a core's L2
# cache; on a 2-core Xeon VM it ran the far rule faster than 2**20 in 15 of 15 timings
_CHUNK = 2**16


def _readonly(*arrays):
    for a in arrays:
        a.flags.writeable = False
    return arrays


# a few alphas' worth: one verify_kernel_bounds call uses five keys of each rule
@lru_cache(maxsize=16)
def _near_weights(alpha: float, power: float):
    """Nodes xi and weights w = weights xi^p exp(-xi^alpha) of the direct rule."""
    # xi-mesh up to exp(-xi^alpha) = 1e-15; beyond 1, panels of h = 4 / X_SWITCH,
    # so a panel spans at most 4 rad of the phase x xi for |x| <= X_SWITCH and
    # GL-12's error there, ~(4/2)^24 / 24!, is 3e-17 of the panel's weight
    xi_max = (-np.log(1e-15)) ** (1.0 / alpha)
    nodes, weights = _graded_rule(4.0 / X_SWITCH, xi_max)
    return _readonly(nodes, weights * nodes**power * np.exp(-(nodes**alpha)))


def _near_rule(x: np.ndarray, alpha: float, power: float, k: int) -> np.ndarray:
    """(1/pi) Re((-i)^k H_power(x)) by the direct rule, for x >= 0.

    Re((-i)^k exp(-i x xi)) is cos, -sin, -cos, sin of x xi for k mod 4 = 0..3.
    """
    nodes, w = _near_weights(alpha, power)
    trig = np.sin if k % 2 else np.cos
    out = np.empty(x.size)
    chunk = max(1, _CHUNK // nodes.size)
    for i in range(0, x.size, chunk):
        phase = np.outer(x[i : i + chunk], nodes)
        out[i : i + chunk] = trig(phase, out=phase) @ w
    return out / (-np.pi if k % 4 in (1, 2) else np.pi)


@lru_cache(maxsize=16)
def _far_weights(alpha: float, power: float, k: int):
    """s^alpha, Re W and -Im W of the rotated-ray sum, with
    W_s = (1/pi) (-i)^k exp(-i (p+1) pi/(2 alpha)) w_s s^p exp(-s (1 + i tan theta))."""
    # s-mesh for exp(-s (1 + i tan theta) + i s^alpha u), u = (x cos theta)^(-alpha)
    # <= (X_SWITCH cos theta)^(-alpha): the phase rate tan theta + alpha u s^(alpha-1)
    # is at most 1.6 rad per unit s for s <= 10 (1.4 at alpha = 1.9), where e^(-s)
    # still matters, so a panel of h = 2 spans about 3 rad and GL-12 resolves it
    s, ws = _graded_rule(2.0, 45.0)
    theta = (alpha - 1.0) * np.pi / (2.0 * alpha)
    c = (-1j) ** k * np.exp(-1j * (power + 1.0) * np.pi / (2.0 * alpha)) / np.pi
    W = c * ws * s**power * np.exp(-s * (1.0 + 1j * np.tan(theta)))
    return _readonly(s**alpha, W.real, -W.imag)


def _far_rule(x: np.ndarray, alpha: float, power: float, k: int) -> np.ndarray:
    """(1/pi) Re((-i)^k H_power(x)) on the rotated ray, for x > 0: the exponent
    -lam x exp(i theta) = -s (1 + i tan theta) does not depend on x, so the sum is
    (x cos theta)^(-p-1) sum_s W_s exp(i s^alpha (x cos theta)^(-alpha))."""
    s_alpha, w_re, w_im = _far_weights(alpha, power, k)
    xc = x * np.cos((alpha - 1.0) * np.pi / (2.0 * alpha))
    u = xc**-alpha
    out = np.empty(x.size)
    chunk = max(1, _CHUNK // s_alpha.size)
    for i in range(0, x.size, chunk):
        phase = np.outer(u[i : i + chunk], s_alpha)
        sin = np.sin(phase)
        out[i : i + chunk] = np.cos(phase, out=phase) @ w_re + sin @ w_im
    return out * xc ** (-power - 1.0)


def _kernel_transform(x, alpha: float, power: float, k: int = 0):
    """(1/pi) Re((-i)^k H_power(|x|)), odd in x for odd k (zero at x = 0)."""
    xv = np.atleast_1d(np.asarray(x, dtype=float))
    ax = np.abs(xv)
    vals = np.empty(ax.shape)
    near = ax <= X_SWITCH
    if np.any(near):
        vals[near] = _near_rule(ax[near], alpha, power, k)
    if not np.all(near):
        vals[~near] = _far_rule(ax[~near], alpha, power, k)
    if k % 2 == 1:
        vals = np.where(xv < 0, -vals, vals)
    return vals if np.ndim(x) else float(vals[0])


def eval_G(x, alpha: float):
    """Base kernel G(x); even, positive on (1,2], unit mass on the line."""
    check_alpha(alpha)
    return _kernel_transform(x, alpha, 0.0)


def deriv_G(x, alpha: float, k: int):
    """k-th derivative of G, k in {0,1,2,3} (the orders the estimates use)."""
    check_alpha(alpha)
    if k not in (0, 1, 2, 3):
        raise UnsupportedOrder(f"derivative order {k} not in {{0,1,2,3}}")
    return _kernel_transform(x, alpha, float(k), k)


def frac_lap_G(x, alpha: float, gamma: float):
    """(-Delta)^(gamma/2) G(x) = (1/pi) Re int_0^inf xi^gamma e^{-i xi x - xi^alpha} d xi."""
    check_alpha(alpha)
    if gamma <= 0:
        raise PositivityViolation(f"gamma must be > 0, got {gamma}")
    return _kernel_transform(x, alpha, float(gamma))


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

    def at(self, t: float) -> float:
        """a(t) as a number, from the one-element evaluation a([t])."""
        return float(self(np.asarray([t]))[0])

    @classmethod
    def constant(cls, c: float) -> "CoefficientA":
        if c <= 0:
            raise PositivityViolation(f"constant coefficient must be > 0, got {c}")
        return cls(lambda t: np.full_like(np.asarray(t, dtype=float), c), c, c)

    @classmethod
    def from_callable(cls, func: Callable, t_max: float) -> "CoefficientA":
        """Infer bounds by sampling on 2049 equispaced points of [0, t_max]."""
        ts = np.linspace(0.0, t_max, 2049)
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
        if not self.A_ts > 0:
            raise PositivityViolation(f"A_ts must be > 0, got {self.A_ts}")
        # the scaling law takes A_ts^(-(1+k)/alpha) for k <= 3 as a float
        if -4.0 / self.alpha * np.log(self.A_ts) >= np.log(np.finfo(float).max):
            raise OutOfRange(f"A_ts = {self.A_ts} is too small for alpha = {self.alpha}")


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


def _two_time(fn, x, params: KernelParams, order: float, *args):
    """Scaling law A^{-(1+order)/alpha} fn(A^{-1/alpha} x, alpha, *args)."""
    scale = params.A_ts ** (-1.0 / params.alpha)
    vals = scale ** (1 + order) * fn(scale * np.asarray(x, dtype=float), params.alpha, *args)
    return vals if np.ndim(x) else float(vals)


def eval_G_ts(x, params: KernelParams):
    """Two-time kernel via the scaling law A^{-1/alpha} G(A^{-1/alpha} x)."""
    return _two_time(eval_G, x, params, 0)


def deriv_G_ts(x, params: KernelParams, k: int):
    """D^k G_{t,s}(x) = A^{-(1+k)/alpha} (D^k G)(A^{-1/alpha} x)."""
    return _two_time(deriv_G, x, params, k, k)


def apply_semigroup_A(phi: GridFunction, A: float, alpha: float) -> GridFunction:
    """Convolution with G_A, computed as the multiplier exp(-A |xi_k|^alpha)."""
    check_alpha(alpha)
    if A < 0:
        raise PositivityViolation(f"A must be >= 0, got {A}")
    mult = np.exp(-A * frac_lap_multiplier(phi.grid, alpha))
    return GridFunction(phi.grid, apply_multiplier(phi.values, mult))


def semigroup_apply(
    phi: GridFunction, a: CoefficientA, s: float, t: float, alpha: float
) -> GridFunction:
    """Semigroup action R_s^t phi = G_{t,s} * phi (Chapman-Kolmogorov exact)."""
    if s >= t:
        raise OrderViolation(f"need s < t, got s={s}, t={t}")
    return apply_semigroup_A(phi, eval_A(a, s, t), alpha)


# --- tails, CDF ------------------------------------------------------------


# Terms j = 1..3 of the heavy-tail series
# G(x) ~ (1/pi) sum_j (-1)^{j+1} Gamma(j alpha + 1)/j! sin(j pi alpha/2) x^{-j alpha - 1}
_TAIL_J = np.arange(1, 4)


def _tail_series(alpha: float, radius) -> np.ndarray:
    """int_radius^inf G dx from the three series terms, elementwise in radius."""
    from scipy.special import gamma as gamma_fn  # imported here: only the tail series needs it

    j = _TAIL_J
    coeffs = (
        (-1.0) ** (j + 1)
        * gamma_fn(j * alpha + 1.0)
        / gamma_fn(j + 1.0)
        * np.sin(j * np.pi * alpha / 2.0)
        / np.pi
    )
    return np.sum(coeffs * np.asarray(radius)[..., None] ** (-j * alpha) / (j * alpha), axis=-1)


def kernel_tail_mass(alpha: float, radius: float) -> float:
    """int_{|x| > radius} G dx from the heavy-tail asymptotic series."""
    check_alpha(alpha)
    return float(2.0 * _tail_series(alpha, radius))


@lru_cache(maxsize=8)
def _cdf_table(alpha: float):
    """Nodes x on [0, 200] and int_0^x G there, the table of every kernel_cdf(alpha, A)
    (A only rescales x)."""
    x_max = 200.0
    xs = np.linspace(0.0, x_max, 40001)
    dens = eval_G(xs, alpha)
    cum = np.concatenate([[0.0], np.cumsum((dens[1:] + dens[:-1]) * 0.5 * np.diff(xs))])
    half_tail = 0.5 * kernel_tail_mass(alpha, x_max) if alpha < 2.0 else 0.0
    # renormalize the numeric half-mass so F(+inf) = 1 exactly
    return _readonly(xs, cum * (0.5 - half_tail) / cum[-1])


def kernel_cdf(alpha: float, A: float = 1.0):
    """CDF of the density G_A as a vectorized callable (for KS tests), tabulated on [0, 200]."""
    check_alpha(alpha)
    if A <= 0:
        raise PositivityViolation(f"A must be > 0, got {A}")
    xs, cum = _cdf_table(alpha)
    x_max = xs[-1]
    scale = A ** (-1.0 / alpha)

    def cdf(x):
        z = np.asarray(x, dtype=float) * scale
        az = np.abs(z)
        out = np.interp(az, xs, cum)
        far = az > x_max
        if np.any(far) and alpha < 2.0:
            out[far] = 0.5 - _tail_series(alpha, az[far])
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


def _base_and_refined(xs: np.ndarray, vals: np.ndarray, integral: bool) -> tuple[float, float]:
    """(base, refined) fit of vals on xs, the base grid being every other node: the
    maximum, or twice the trapezoid integral (even integrands on the half-line)."""

    def fit(step):
        v, x = vals[::step], xs[::step]
        return 2.0 * float(np.trapezoid(v, x)) if integral else float(v.max())

    return fit(2), fit(1)


def verify_kernel_bounds(alpha: float, base_n: int = 2001) -> list[BoundCheck]:
    """Empirical constants for the kernel decay and weighted-integral estimates.

    The constants in the underlying inequalities are existential, so the
    check fits the best constant over a sample (nine log-spaced tau = t - s
    in [1e-3, 1] for the time-dependent bounds) and marks it stable when it
    moves by less than 5% relative under a 2x refinement of the sampling grid.
    Each integrand is evaluated once, on the refined grid of 2 base_n - 1
    nodes; the base grid of base_n nodes is every other one of those nodes
    (``np.linspace(lo, hi, 2n - 1)[::2]`` is ``np.linspace(lo, hi, n)``).
    The weighted integrals take the Holder exponent beta = 0.6.
    """
    check_alpha(alpha)
    beta = 0.6
    n = 2 * base_n - 1
    taus = np.geomspace(1e-3, 1.0, 9)
    checks: list[BoundCheck] = []

    def add(check_id, formula, k, gam, fits, extras=None):
        coarse, fine = fits
        rel = abs(fine - coarse) / max(abs(coarse), 1e-300)
        checks.append(
            BoundCheck(check_id, formula, k, gam, coarse, fine, rel, rel < 0.05, extras or {})
        )

    xs = np.linspace(0.0, 60.0, n)
    for k in (0, 1):
        vals = np.abs(deriv_G(xs, alpha, k)) * (1.0 + xs ** (1.0 + alpha + k))
        add(
            f"pointwise-decay-k{k}",
            f"|D^{k} G(x)| <= C/(1+|x|^(1+alpha+{k}))",
            k,
            0.0,
            _base_and_refined(xs, vals, integral=False),
        )

    gam = alpha / 2.0
    xs = np.linspace(1e-6, 60.0, n)
    vals = np.abs(frac_lap_G(xs, alpha, gam)) * (1.0 + xs ** (1.0 + gam))
    add(
        "pointwise-decay-fraclap",
        "|(-Delta)^(gamma/2) G(x)| <= C/(1+|x|^(1+gamma))",
        0,
        gam,
        _base_and_refined(xs, vals, integral=False),
    )

    # int sup_A G_A(x) |x|^gamma dx, sup over log-spaced A in [tau_min, tau_max]
    gam = min(beta, 0.9 * alpha)
    xs = np.linspace(0.0, 80.0, n)
    best = np.zeros_like(xs)
    for A in np.geomspace(taus[0], taus[-1], 17):
        best = np.maximum(best, eval_G_ts(xs, KernelParams(alpha, A)))
    add(
        "sup-kernel-weighted-integral",
        "int sup_{t,s} G_{t,s}(x) |x|^gamma dx <= C",
        0,
        gam,
        _base_and_refined(xs, best * np.abs(xs) ** gam, integral=True),
    )

    zs = np.linspace(0.0, 400.0, n)

    def per_tau(base, order, gam, expo):
        # int |kernel_tau(x)| |x|^gam dx over x = tau^{1/alpha} z, z in [0, 400],
        # divided by tau^expo; by the scaling law kernel_tau(tau^{1/alpha} z) is
        # tau^{-(1+order)/alpha} base(z), so one evaluation on zs serves every tau;
        # rows (base, refined), one column per tau
        fits = []
        for tau in taus:
            xs = tau ** (1.0 / alpha) * zs
            vals = (tau ** (-1.0 / alpha)) ** (1 + order) * np.abs(base) * np.abs(xs) ** gam
            fits.append(np.array(_base_and_refined(xs, vals, integral=True)) / tau**expo)
        return np.array(fits).T

    for k, gam in ((0, 0.0), (1, 0.0), (2, beta)):
        fits = per_tau(deriv_G(zs, alpha, k), k, gam, (gam - k) / alpha)
        add(
            f"weighted-integral-k{k}-g{gam:g}",
            f"int |D^{k} G_(t,s)(x)| |x|^{gam:g} dx <= C (t-s)^(({gam:g}-{k})/alpha)",
            k,
            gam,
            fits.max(axis=1).tolist(),
            extras={"per_tau": fits[0].tolist(), "taus": taus.tolist()},
        )

    # fractional-Laplacian weighted integral, gamma strictly below alpha
    gam = min(beta, 0.9 * alpha)
    fits = per_tau(frac_lap_G(zs, alpha, gam), gam, gam, gam / alpha - 1.0)
    add(
        "weighted-integral-fraclap",
        "int |(-Delta)^(alpha/2) G_(t,s)(x)| |x|^gamma dx <= C (t-s)^(gamma/alpha - 1)",
        alpha,
        gam,
        fits.max(axis=1).tolist(),
    )
    return checks
