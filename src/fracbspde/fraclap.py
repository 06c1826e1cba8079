"""Two discretizations of the fractional Laplacian (-Delta)^(alpha/2).

The spectral route multiplies Fourier modes by |xi|^alpha and is taken as
the ground-truth sign convention.  The singular-integral route evaluates the
symmetric second-difference form

    -(|C_alpha|/2) int (f(x+z) + f(x-z) - 2 f(x)) / |z|^(1+alpha) dz,

with |C_alpha| = |2^alpha Gamma((1+alpha)/2) / (sqrt(pi) Gamma(-alpha/2))|.
The printed constant is negative on (1,2) because Gamma(-alpha/2) < 0 there;
the magnitude is what matches the positive multiplier |xi|^alpha, so the
magnitude is used throughout.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import OutOfRange, ResolutionError
from .grid import Grid1D, GridFunction, apply_multiplier

__all__ = [
    "check_alpha",
    "c_alpha",
    "SingularIntegralConfig",
    "apply_spectral",
    "apply_singular_integral",
    "frac_lap_multiplier",
]


def check_alpha(alpha: float, include_two: bool = True) -> float:
    """Validate the fractional order; the library supports alpha in (1, 2]."""
    hi_ok = alpha <= 2.0 if include_two else alpha < 2.0
    if not (1.0 < alpha and hi_ok):
        rng = "(1, 2]" if include_two else "(1, 2)"
        raise OutOfRange(f"alpha must lie in {rng}, got {alpha}")
    return float(alpha)


def c_alpha(alpha: float) -> float:
    """Magnitude of the singular-integral normalizing constant.

    Degenerates at alpha = 2 (pole of Gamma(-alpha/2) at -1 drives the
    constant to 0); the spectral route must be used there.
    """
    check_alpha(alpha, include_two=False)
    from scipy.special import gamma as gamma_fn  # imported here: only this constant needs it

    val = 2.0**alpha * gamma_fn((1.0 + alpha) / 2.0) / (
        np.sqrt(np.pi) * gamma_fn(-alpha / 2.0)
    )
    return float(abs(val))


@lru_cache(maxsize=32)
def frac_lap_multiplier(grid: Grid1D, alpha: float) -> np.ndarray:
    """Read-only |xi_k|^alpha in FFT ordering."""
    mult = np.abs(grid.xi) ** alpha
    mult.flags.writeable = False
    return mult


def apply_spectral(f: GridFunction, alpha: float) -> GridFunction:
    """Fractional Laplacian as the Fourier multiplier |xi|^alpha."""
    check_alpha(alpha)
    return GridFunction(f.grid, apply_multiplier(f.values, frac_lap_multiplier(f.grid, alpha)))


@dataclass(frozen=True)
class SingularIntegralConfig:
    """Quadrature parameters for the singular-integral discretization.

    inner_cutoff is measured in units of dx (must be >= 1: the integrand is
    replaced by its Taylor expansion below that scale).  The direct
    quadrature runs out to half the periodic box; beyond it the periodic
    images of f are followed out to 16 box lengths before the closed-form
    power-law tail (f frozen at its mean) takes over.  quadrature_points
    controls the log-spaced trapezoid rule on each of the two ranges.
    """

    inner_cutoff: float = 2.0
    quadrature_points: int = 64

    def __post_init__(self):
        if not self.inner_cutoff >= 1.0:
            raise ResolutionError(
                f"inner_cutoff must be >= 1 (in units of dx), got {self.inner_cutoff}"
            )
        if self.quadrature_points < 8:
            raise ResolutionError("quadrature_points must be >= 8")


def _log_trapezoid(a: float, b: float, m: int) -> tuple[np.ndarray, np.ndarray]:
    # nodes and weights for int_a^b g(z) dz under z = a (b/a)^t, t in [0,1]
    t = np.linspace(0.0, 1.0, m)
    z = a * (b / a) ** t
    h = t[1] - t[0]
    wt = np.full(m, h)
    wt[0] *= 0.5
    wt[-1] *= 0.5
    return z, wt * z * np.log(b / a)


def apply_singular_integral(
    f: GridFunction, alpha: float, cfg: SingularIntegralConfig | None = None
) -> GridFunction:
    """Singular-integral discretization; requires alpha strictly in (1, 2).

    The principal value and the gradient correction drop out of the
    symmetric second-difference form, valid for C^2 integrands.  Inside the
    inner cutoff the integrand is integrated in closed form from a two-term
    Taylor expansion; the derivatives there come from finite differences so
    the route stays independent of the spectral path.
    """
    check_alpha(alpha, include_two=False)
    cfg = cfg or SingularIntegralConfig()
    g = f.grid
    dx = g.dx
    delta = cfg.inner_cutoff * dx
    radius = 0.5 * g.length
    far = 16.0 * g.length  # the images' reach, where the tail takes over

    from scipy.interpolate import CubicSpline  # imported here: only this route needs it

    # periodic cubic spline so off-grid z offsets stay interpolation-only
    xs = np.concatenate([g.x, [g.x[0] + g.length]])
    vs = np.concatenate([f.values, [f.values[0]]])
    spline = CubicSpline(xs, vs, bc_type="periodic")

    def sample(points: np.ndarray) -> np.ndarray:
        return spline(np.mod(points - g.x_min, g.length) + g.x_min)

    z1, w1 = _log_trapezoid(delta, radius, cfg.quadrature_points)
    z2, w2 = _log_trapezoid(radius, far, cfg.quadrature_points)
    z = np.concatenate([z1, z2])
    w = np.concatenate([w1, w2]) / z ** (1.0 + alpha)

    plus = sample(g.x[None, :] + z[:, None])
    minus = sample(g.x[None, :] - z[:, None])
    second_diff = plus + minus - 2.0 * f.values[None, :]
    acc = w @ second_diff

    # inner Taylor: f'' z^2 + f'''' z^4 / 12, integrated against z^(-1-alpha)
    v = f.values
    f2 = (
        -np.roll(v, -2) + 16 * np.roll(v, -1) - 30 * v + 16 * np.roll(v, 1) - np.roll(v, 2)
    ) / (12 * dx**2)
    f4 = (
        np.roll(v, -2) - 4 * np.roll(v, -1) + 6 * v - 4 * np.roll(v, 1) + np.roll(v, 2)
    ) / dx**4
    inner = f2 * delta ** (2.0 - alpha) / (2.0 - alpha)
    inner += f4 / 12.0 * delta ** (4.0 - alpha) / (4.0 - alpha)

    # power-law tail with f frozen at its mean
    tail = 2.0 * (v.mean() - v) * far ** (-alpha) / alpha

    return GridFunction(g, -c_alpha(alpha) * (acc + inner + tail))
