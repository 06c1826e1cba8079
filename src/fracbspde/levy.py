"""Alpha-stable and Brownian increment sampling, and Feynman-Kac estimates.

Increments use the Chambers-Mallows-Stuck transform, which realizes the
symmetric stable law with characteristic function exp(-t |xi|^alpha) exactly;
the Poisson-jump-measure construction (compensated below a threshold) is kept
as a cross-check mode only, since truncating small jumps biases the law.
All randomness flows through counter-based Philox streams keyed by
(seed, stream_id), so ensembles are reproducible and mergeable in any order.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from numbers import Integral
from typing import Callable

import numpy as np

from .errors import OutOfRange
from .fraclap import c_alpha, check_alpha

__all__ = [
    "RngStream",
    "PathGrid",
    "path_from_increments",
    "sample_stable",
    "sample_stable_poisson_series",
    "simulate_brownian_increments",
    "simulate_forward_sde",
    "FeynmanKacResult",
    "feynman_kac_estimate",
]

_MIX = 0x9E3779B97F4A7C15  # splitmix64 increment, for child-stream derivation


@dataclass(frozen=True)
class RngStream:
    """Deterministic, splittable randomness: (seed, stream_id) -> Philox key."""

    seed: int
    stream_id: int = 0

    def generator(self) -> np.random.Generator:
        key = (self.seed & 0xFFFFFFFFFFFFFFFF) | (
            (self.stream_id & 0xFFFFFFFFFFFFFFFF) << 64
        )
        return np.random.Generator(np.random.Philox(key=key))

    def child(self, index: int) -> "RngStream":
        new_id = (self.stream_id * _MIX + index + 1) & 0xFFFFFFFFFFFFFFFF
        return RngStream(self.seed, new_id)


@dataclass(frozen=True)
class PathGrid:
    """Uniform time grid 0 = t_0 < ... < t_N = T, the one step grid of every solver."""

    T: float
    N: int

    def __post_init__(self):
        if not (isinstance(self.N, Integral) and self.N >= 1 and 0.0 < self.T < np.inf):  # a NaN T fails
            raise ValueError(f"need an integer N >= 1 and a finite T > 0, got N={self.N}, T={self.T}")

    @property
    def dt(self) -> float:
        return self.T / self.N

    @cached_property
    def times(self) -> np.ndarray:
        """The nodes np.linspace(0, T, N + 1), read-only: the last one is T."""
        times = np.linspace(0.0, self.T, self.N + 1)
        times.flags.writeable = False
        return times

    def coarse_steps(self, m: int) -> np.ndarray:
        """Up to m evenly spaced steps in 1..N, N included."""
        return np.unique(np.round(np.linspace(0, self.N, min(m, self.N) + 1)).astype(int))[1:]


def sample_stable(alpha: float, dt: float, rng: np.random.Generator, size=None):
    """Increment of the standard alpha-stable martingale over a step dt.

    The sample is dt^(1/alpha) S with E exp(i xi S) = exp(-|xi|^alpha); the
    alpha = 2 branch is Normal(0, 2 dt) (the multiplier |xi|^2 corresponds to
    variance 2t, not the probabilist's t).
    """
    check_alpha(alpha)
    if not dt > 0:  # a NaN dt fails
        raise OutOfRange(f"dt must be > 0, got {dt}")
    if alpha == 2.0:
        return rng.normal(0.0, np.sqrt(2.0 * dt), size)
    u = rng.uniform(-np.pi / 2, np.pi / 2, size)
    e = rng.exponential(1.0, size)
    if np.ndim(u) == 0:
        s = (
            np.sin(alpha * u)
            / np.cos(u) ** (1.0 / alpha)
            * (np.cos((alpha - 1.0) * u) / e) ** ((1.0 - alpha) / alpha)
        )
        return dt ** (1.0 / alpha) * s
    # the expression above, operation for operation, in two buffers
    s = np.multiply(alpha, u)
    np.sin(s, out=s)
    w = np.cos(u)
    np.power(w, 1.0 / alpha, out=w)
    np.divide(s, w, out=s)
    np.multiply(alpha - 1.0, u, out=w)
    np.cos(w, out=w)
    np.divide(w, e, out=w)
    np.power(w, (1.0 - alpha) / alpha, out=w)
    np.multiply(s, w, out=s)
    return np.multiply(dt ** (1.0 / alpha), s, out=s)


def sample_stable_poisson_series(
    alpha: float,
    dt: float,
    rng: np.random.Generator,
    size: int,
    eps: float = 1e-3,
):
    """Cross-check sampler built from the jump measure nu(dx) = |C_alpha| |x|^(-1-alpha) dx.

    Jumps larger than eps are simulated exactly; the compensated small-jump
    part is approximated by a Gaussian matching its variance
    2 |C_alpha| eps^(2-alpha) / (2-alpha) per unit time.
    """
    check_alpha(alpha, include_two=False)
    ca = c_alpha(alpha)
    rate = 2.0 * ca * eps ** (-alpha) / alpha * dt
    counts = rng.poisson(rate, size)
    total = int(counts.sum())
    mags = eps * (1.0 - rng.uniform(0.0, 1.0, total)) ** (-1.0 / alpha)
    signs = rng.choice((-1.0, 1.0), total)
    out = np.zeros(size)
    np.add.at(out, np.repeat(np.arange(size), counts), mags * signs)
    small_var = 2.0 * ca * eps ** (2.0 - alpha) / (2.0 - alpha) * dt
    return out + rng.normal(0.0, np.sqrt(small_var), size)


def simulate_brownian_increments(
    grid: PathGrid, rng: RngStream, n_paths: int
) -> np.ndarray:
    """Increment matrix of shape (n_paths, N)."""
    return rng.generator().normal(0.0, np.sqrt(grid.dt), (n_paths, grid.N))


def path_from_increments(increments: np.ndarray) -> np.ndarray:
    """The (paths, N + 1) path, 0 at step 0, from its (paths, N) increments."""
    path = np.zeros((increments.shape[0], increments.shape[1] + 1))
    np.cumsum(increments, axis=1, out=path[:, 1:])
    return path


def simulate_forward_sde(
    b: Callable[[float, np.ndarray], np.ndarray] | None,
    a: Callable[[float, np.ndarray], np.ndarray] | float,
    alpha: float,
    x0: float,
    grid: PathGrid,
    rng: RngStream,
    n_paths: int = 1,
) -> np.ndarray:
    """Euler scheme for dX = b(t, X) dt + a(t, X_-)^(1/alpha) dM.

    Coefficients are evaluated at the pre-jump state, then the stable
    increment is applied.  Returns X of shape (n_paths, N+1).
    """
    check_alpha(alpha)
    gen = rng.generator()
    dt = grid.dt
    X = np.empty((n_paths, grid.N + 1))
    X[:, 0] = x0
    for k, t in enumerate(grid.times[:-1]):
        xk = X[:, k]
        drift = 0.0 if b is None else np.asarray(b(t, xk), dtype=float)
        scale = a(t, xk) if callable(a) else a
        dM = sample_stable(alpha, dt, gen, n_paths)
        X[:, k + 1] = xk + drift * dt + np.asarray(scale, dtype=float) ** (1.0 / alpha) * dM
    return X


@dataclass(frozen=True)
class FeynmanKacResult:
    mean: float
    stderr: float
    n_paths: int


def feynman_kac_estimate(
    g: Callable[[np.ndarray], np.ndarray] | None,
    f: Callable[[float, np.ndarray], np.ndarray] | None,
    c: Callable[[float, np.ndarray], np.ndarray] | None,
    b: Callable[[float, np.ndarray], np.ndarray] | None,
    a: Callable[[float, np.ndarray], np.ndarray] | float,
    alpha: float,
    x: float,
    t: float,
    T: float,
    n_steps: int,
    n_paths: int,
    rng: RngStream,
) -> FeynmanKacResult:
    """Monte-Carlo estimate of E[e^{int c} g(X_T) + int_t^T e^{int c} f ds | X_t = x].

    This is the sigma = 0 stochastic representation of the backward equation:
    Y follows the forward jump diffusion, discounting accumulates c along the
    path, and the running cost uses a left-point rule (exact for constant f).
    """
    check_alpha(alpha)
    gen = rng.generator()
    dt = PathGrid(T - t, n_steps).dt
    X = np.full(n_paths, float(x))
    D = np.ones(n_paths)
    running = np.zeros(n_paths)
    for k in range(n_steps):
        tk = t + k * dt
        if f is not None:
            running += D * np.asarray(f(tk, X), dtype=float) * dt
        drift = 0.0 if b is None else np.asarray(b(tk, X), dtype=float)
        scale = a(tk, X) if callable(a) else a
        if c is not None:
            D = D * np.exp(np.asarray(c(tk, X), dtype=float) * dt)
        dM = sample_stable(alpha, dt, gen, n_paths)
        X = X + drift * dt + np.asarray(scale, dtype=float) ** (1.0 / alpha) * dM
    payoff = running
    if g is not None:
        payoff = payoff + D * np.asarray(g(X), dtype=float)
    mean = float(np.mean(payoff))
    stderr = float(np.std(payoff, ddof=1) / np.sqrt(n_paths)) if n_paths > 1 else 0.0
    return FeynmanKacResult(mean=mean, stderr=stderr, n_paths=n_paths)
