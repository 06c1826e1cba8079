"""Periodic spatial grid, Fourier multipliers, and norm estimators.

Fourier multipliers are arrays in FFT ordering (that of `Grid1D.xi`: modes
k = 0..n/2-1, then -n/2..-1, xi_k = 2 pi k / L).  They act on raw-FFT
coefficients (no dx weighting, no x_min phase) through `apply_multiplier`,
the one forward -> multiply -> inverse round trip.  The raw FFT expands in
exp(+i xi_k x), so d/dx is the multiplier +i xi_k; for odd derivative
orders the unpaired Nyquist mode -n/2 is zeroed, keeping derivatives of
real fields real and the first derivative exactly skew.  The 2/3
dealiasing rule (|k| <= n/3 kept) applies only to the flux k p of the Zakai
filter's transport step.  `time_indices` maps times to the nodes of a time
grid (all of them for None) and raises `OffGridTime` rather than snapping to
the nearest node; `time_grid_multiple` is the least step count whose grid
holds given times, the multiple a step guard names counts in.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from typing import Callable, Sequence

import numpy as np
import numpy.fft  # numpy 2 loads np.fft on first use; bench/tracer.py patches it at start

from .errors import EmptyEnsemble, GridMismatch, InvalidExponent, MalformedInput, OffGridTime, OutOfRange

__all__ = [
    "Grid1D",
    "GridFunction",
    "NormReport",
    "apply_multiplier",
    "derivative_multiplier",
    "time_indices",
    "time_grid_multiple",
    "holder_seminorm",
    "ensemble_process_norms",
    "pair_offsets",
    "write_field_csv",
    "read_field_csv",
]

# Above this size the Holder pair search restricts to dyadic offsets.
EXACT_PAIR_LIMIT = 4096


@dataclass(frozen=True)
class Grid1D:
    """Uniform periodic grid on [x_min, x_max) with n (a power of two) cells."""

    x_min: float
    x_max: float
    n: int

    def __post_init__(self):
        if self.x_max <= self.x_min:
            raise ValueError(f"empty interval [{self.x_min}, {self.x_max}]")
        if self.n < 2 or self.n & (self.n - 1):
            raise ValueError(f"n must be a power of two, got {self.n}")

    @property
    def length(self) -> float:
        return self.x_max - self.x_min

    @property
    def dx(self) -> float:
        return self.length / self.n

    @cached_property
    def x(self) -> np.ndarray:
        """Grid nodes x_j = x_min + j dx (x_max excluded, periodic wrap)."""
        return self.x_min + self.dx * np.arange(self.n)

    def nearest_node(self, x: float) -> int:
        """Index of the node nearest to x in [x_min, x_max]; OutOfRange for any
        other x, NaN included."""
        if not self.x_min <= x <= self.x_max:
            raise OutOfRange(f"x = {x} lies outside [{self.x_min}, {self.x_max}]")
        return int(np.argmin(np.abs(self.x - x)))

    @cached_property
    def xi(self) -> np.ndarray:
        """Angular frequencies 2*pi*k/L in FFT ordering, k = 0..n/2-1, -n/2..-1."""
        return 2.0 * np.pi * np.fft.fftfreq(self.n, d=self.dx)


@dataclass(frozen=True)
class GridFunction:
    """Real field sampled on a Grid1D."""

    grid: Grid1D
    values: np.ndarray

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=float)
        if vals.shape != (self.grid.n,):
            raise GridMismatch(
                f"values shape {vals.shape} does not match grid n={self.grid.n}"
            )
        if not np.all(np.isfinite(vals)):
            raise ValueError("field values must be finite")
        object.__setattr__(self, "values", vals)

    @classmethod
    def from_callable(cls, grid: Grid1D, fn: Callable[[np.ndarray], np.ndarray]) -> "GridFunction":
        return cls(grid, np.asarray(fn(grid.x), dtype=float))


@dataclass(frozen=True)
class NormReport:
    """Sup norm and Holder seminorm at exponent beta."""

    sup_norm: float
    holder_seminorm: float
    beta: float


def apply_multiplier(values: np.ndarray, mult: np.ndarray) -> np.ndarray:
    """Real part of the Fourier multiplier mult applied along the last axis.

    mult is in FFT ordering and broadcasts against the transformed values.
    """
    return np.real(np.fft.ifft(mult * np.fft.fft(values, axis=-1), axis=-1))


@lru_cache(maxsize=32)
def derivative_multiplier(grid: Grid1D, order: int) -> np.ndarray:
    """Read-only multiplier (i xi)^order of the order-th derivative, Nyquist rule applied."""
    mult = (1j * grid.xi) ** order
    if order % 2 == 1:
        mult[grid.n // 2] = 0.0
    mult.flags.writeable = False
    return mult


def time_indices(times: np.ndarray, ts: Sequence[float] | None) -> np.ndarray:
    """Sorted distinct indices of the nodes of the time grid times at ts.

    ts = None selects every node.  A finite time t matches a node within
    1e-9 max(1, |t|); any other time, a non-finite one included, raises
    OffGridTime instead of snapping to the nearest node.
    """
    times = np.asarray(times, dtype=float)
    if ts is None:
        return np.arange(times.size)
    ts = np.asarray(ts, dtype=float).reshape(-1)
    idx = np.argmin(np.abs(times[:, None] - ts[None, :]), axis=0)
    # an infinite tolerance would match +-inf to a node
    held = np.isfinite(ts) & (np.abs(times[idx] - ts) <= 1e-9 * np.maximum(1.0, np.abs(ts)))
    off = ts[~held]
    if off.size:
        raise OffGridTime(f"time {off[0]} is not a node of the time grid {times[0]}..{times[-1]}")
    return np.unique(idx)


def time_grid_multiple(T: float, ts: Sequence[float] | None) -> int:
    """The least n_steps whose time grid of [0, T] holds every time of ts, to
    time_indices' tolerance: the lcm of the denominators of the ts / T.  Every
    multiple of it holds them too.  1 for None, and 1 when no count up to 2**16
    does (time_indices then names the time)."""
    if ts is None:
        return 1
    ts = np.asarray(ts, dtype=float).reshape(-1)
    if not np.all(np.isfinite(ts)):
        return 1
    limit = 2**16
    n = math.lcm(1, *(Fraction(t / T).limit_denominator(limit).denominator for t in ts))
    node = np.clip(np.rint(ts / T * n), 0, n) * (T / n)
    held = np.abs(node - ts) <= 1e-9 * np.maximum(1.0, np.abs(ts))
    return n if n <= limit and held.all() else 1


def pair_offsets(n: int, exact_limit: int = EXACT_PAIR_LIMIT) -> np.ndarray:
    """Index offsets used in Holder pair searches.

    All offsets 1..n-1 when n <= exact_limit; otherwise dyadic strides
    {1,2,4,...} times {1..8}, which dominate the sup for Holder-regular fields.
    """
    if n <= exact_limit:
        return np.arange(1, n)
    offs = set()
    stride = 1
    while stride < n:
        for m in range(1, 9):
            if m * stride < n:
                offs.add(m * stride)
        stride *= 2
    return np.array(sorted(offs))


def holder_seminorm(f: GridFunction, beta: float) -> float:
    """sup over grid pairs of |f(x) - f(y)| / |x - y|^beta, beta in (0,1).

    Distances are Euclidean on the line (no periodic wrap), matching the
    definition of the seminorm on the truncated interval.
    """
    if not 0.0 < beta < 1.0:
        raise InvalidExponent(f"beta must lie in (0,1), got {beta}")
    vals = f.values
    dx = f.grid.dx
    best = 0.0
    for m in pair_offsets(f.grid.n):
        diff = float(np.max(np.abs(vals[m:] - vals[:-m])))
        best = max(best, diff / (m * dx) ** beta)
    return best


def _time_weights(times: int, dt: float) -> np.ndarray:
    # trapezoid in time; a single snapshot counts with full weight
    w = np.full(times, dt)
    if times > 1:
        w[0] *= 0.5
        w[-1] *= 0.5
    return w


def _ensemble_time_reduce(sq: np.ndarray, dt: float, kind: str) -> np.ndarray:
    # sq has shape (paths, times, ...); reduce the time axis
    if kind == "s2":
        return sq.max(axis=1)
    if kind == "l2":
        return np.tensordot(sq, _time_weights(sq.shape[1], dt), axes=([1], [0]))
    raise ValueError(f"unknown ensemble norm kind {kind!r}")


def _pair_mean_sq(arr: np.ndarray, m: int, dt: float, kind: str) -> np.ndarray:
    # P_m(x): the reduced squared difference of the pairs (x, x + m), direct form
    return _ensemble_time_reduce((arr[:, :, m:] - arr[:, :, :-m]) ** 2, dt, kind).mean(axis=0)


def _offset_bounds(arr: np.ndarray, dt: float, kind: str, offsets: np.ndarray) -> np.ndarray:
    """Per offset m, an upper bound U_m on max_x P_m(x) as ensemble_process_norms
    computes it; the derivation is in that docstring."""
    paths, times, n = arr.shape
    weight = max(1.0, dt * times) if kind == "l2" else 1.0
    amax = max(arr.max(), -arr.min())
    if not 8.0 * amax * amax * weight * paths < np.finfo(float).max:
        return np.full(offsets.size, np.inf)  # the direct form may overflow: no screen
    gamma = 2 * (paths * times + n + 32) * np.finfo(float).eps
    centred = arr - arr.mean(axis=2, keepdims=True)
    floor = 0.0
    if centred.any():
        floor = 4 * (paths * times + n + 32) * weight * np.finfo(float).smallest_subnormal
    if kind == "l2":
        centred *= np.sqrt(_time_weights(times, dt))[:, None]
        rows = centred.reshape(-1, n)
        pair = rows.T @ rows
        del centred, rows
        pair /= paths
        d = pair.diagonal().copy()
        pair *= -2.0  # G_xx + G_yy - 2 G_xy, in place
        pair += d[:, None]
        pair += d[None, :]
    else:
        np.square(centred, out=centred)
        d = _ensemble_time_reduce(centred, dt, kind).mean(axis=0)
        del centred
        r = np.sqrt(d)
        pair = np.add.outer(r, r)
        np.square(pair, out=pair)  # (sqrt d_x + sqrt d_y)^2
    widen = 4.0 * gamma * d.max() + floor
    # skew[x, m] = pair[x, x + m] (pair is C-contiguous) while x + m < n; the
    # rest of each column wraps into the lower triangle and is masked out
    skew = np.lib.stride_tricks.as_strided(
        pair, (n - 1, n), (pair.strides[0] + pair.strides[1], pair.strides[1]), writeable=False
    )
    inside = np.arange(n - 1)[:, None] < n - np.arange(n)
    bounds = np.max(skew, axis=0, where=inside, initial=-np.inf)[offsets] + widen
    del pair, skew, inside
    if kind == "s2":  # the chain of neighbour steps; cum[x + m] - cum[x] sums them
        cum = np.concatenate(([0.0], np.cumsum(np.sqrt(_pair_mean_sq(arr, 1, dt, kind) + floor))))
        # ahead[m, x] = cum[x + m], and -inf past the end, where no pair starts
        ahead = np.lib.stride_tricks.sliding_window_view(np.append(cum, np.full(n, -np.inf)), n)
        chain = (ahead[offsets] - cum).max(axis=1)
        bounds = np.minimum(bounds, ((chain + gamma * cum[-1]) * (1.0 + gamma)) ** 2 + floor)
    return bounds


def ensemble_process_norms(
    values: np.ndarray,
    grid: Grid1D,
    dt: float,
    beta: float,
    kind: str = "s2",
    exact_limit: int = 512,
) -> NormReport:
    """Monte-Carlo estimators of the process-valued sup and Holder norms.

    values has shape (paths, times, n) and must be finite, and the time
    step dt finite and positive. kind = "s2"
    reduces time by a sup (pathwise running maximum), kind = "l2" by a
    trapezoid time integral; the path axis is always reduced by a mean, the
    space axis by sup / Holder quotients over the pair-offset set.

    The Holder part is max_m q_m, q_m = sqrt(max_x P_m(x)) / (m dx)^beta,
    with P_m(x) the reduced squared difference of the pair (x, y = x + m)
    computed directly from the values.  Offsets are computed in decreasing
    order of an upper bound on q_m until the next bound is at most the best
    q_m so far.  A max does not depend on the order, so every result is
    bit-identical to computing all offsets.

    The bound.  Pair differences do not see a constant per (path, time) row,
    so it reads the centred values c = values - mean over x.  For "l2", let
    G = B^T B / paths (one BLAS call), B the rows of c scaled by the square
    roots of the trapezoid weights, and d_x = G_xx; P_m(x) is estimated by
    G_xx + G_yy - 2 G_xy.  For "s2", let d_x be the path mean of max_t c_x^2;
    the Minkowski inequality bounds P_m(x) by (sqrt d_x + sqrt d_y)^2.  With
    K = paths * times and gamma = 2 (K + n + 32) eps: each Gram entry rounds
    by at most gamma_K |b|^T |b'| <= gamma_K sqrt(d_x d_y) (Higham, Accuracy
    and Stability of Numerical Algorithms, 2nd ed., 2002, Sec. 3.1, with
    Cauchy-Schwarz), and the centring, the weights and the direct form
    itself round by O((times + paths) u) relative to
    (sqrt d_x + sqrt d_y)^2 <= 4 max d.  Together these stay below
    4 gamma max d, which widens the estimate.  For "s2" the bound is also at
    most the chain of neighbour steps: sqrt(path mean of max_t v^2) is a
    norm, so sqrt P_m(x) <= sum over x <= k < x + m of sqrt P_1(k), with
    P_1 computed as above; gamma times the sum over all k widens that sum
    for the rounding of its cumulative sums, and the widened square, times
    (1 + gamma)^2 for the rounding of P_1 and of P_m, bounds P_m(x).  The
    bound is the smaller of the two.
    Gradual underflow adds at most half a subnormal per product, covered by
    a floor of 4 (K + n + 32) w 2^-1074, w = max(1, times dt) for "l2" and 1
    for "s2" (0 when every row is constant: every difference is then 0).
    U_m is the max over x of the widened estimate, and sqrt(U_m) / (m dx)^beta
    times 1 + 1e-12 (for the rounding of the root, the quotient and the
    vectorised power) bounds q_m.  A non-finite bound counts as +inf, and
    values large enough for the direct form to overflow skip the screen.
    """
    if not 0.0 < beta < 1.0:
        raise InvalidExponent(f"beta must lie in (0,1), got {beta}")
    if not (np.isfinite(dt) and dt > 0):
        raise ValueError(f"dt must be finite and positive, got {dt}")
    arr = np.asarray(values, dtype=float)
    if arr.ndim == 2:  # single path
        arr = arr[None, :, :]
    if arr.ndim != 3 or arr.shape[0] == 0:
        raise EmptyEnsemble(f"expected nonempty (paths, times, n) array, got {arr.shape}")
    if arr.shape[2] != grid.n:
        raise GridMismatch(f"space axis {arr.shape[2]} does not match grid n={grid.n}")
    if not np.all(np.isfinite(arr)):
        raise ValueError("ensemble values must be finite")

    per_x = _ensemble_time_reduce(arr**2, dt, kind).mean(axis=0)
    sup = float(np.sqrt(per_x.max()))

    dx = grid.dx
    offsets = pair_offsets(grid.n, exact_limit=exact_limit)
    with np.errstate(over="ignore", invalid="ignore"):
        bound = np.sqrt(_offset_bounds(arr, dt, kind, offsets))
        bound = bound / (offsets * dx) ** beta * (1.0 + 1e-12)
    bound[~np.isfinite(bound)] = np.inf
    semi = 0.0
    for i in np.argsort(-bound, kind="stable"):
        if bound[i] <= semi:
            break
        m = offsets[i]
        per_pair = _pair_mean_sq(arr, m, dt, kind)
        semi = max(semi, float(np.sqrt(per_pair.max())) / (m * dx) ** beta)
    return NormReport(sup_norm=sup, holder_seminorm=semi, beta=beta)


def write_field_csv(f: GridFunction, path: str) -> None:
    """Write a field as CSV rows (x, value) under the header x,value."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["x", "value"])
        for xj, vj in zip(f.grid.x, f.values):
            writer.writerow([repr(float(xj)), repr(float(vj))])


def read_field_csv(path: str, grid: Grid1D | None = None) -> GridFunction:
    """Read a (x, value) CSV; infers the grid from the x column if not given.

    Raises MalformedInput unless the header is x,value, every row holds two
    finite numbers, and the x column is the node set of a uniform grid with a
    power-of-two number of rows (the given grid, if any).
    """
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    if not rows or rows[0] != ["x", "value"]:
        raise MalformedInput(f"{path}: expected the header x,value, got {rows[:1]!r}")
    if any(len(r) != 2 for r in rows[1:]):
        raise MalformedInput(f"{path}: every row must hold two numbers")
    try:
        data = np.array([[float(x), float(v)] for x, v in rows[1:]]).reshape(-1, 2)
    except ValueError as exc:
        raise MalformedInput(f"{path}: every row must hold two numbers ({exc})") from exc
    if not np.all(np.isfinite(data)):
        raise MalformedInput(f"{path}: non-finite entries")
    xs, vs = data[:, 0], data[:, 1]
    if grid is None:
        n = xs.size
        if n < 2 or n & (n - 1) or not xs[1] > xs[0]:
            raise MalformedInput(f"{path}: need a power of two >= 2 rows of increasing x")
        grid = Grid1D(xs[0], xs[0] + n * (xs[1] - xs[0]), n)
    if xs.size != grid.n or not np.max(np.abs(xs - grid.x)) <= 1e-9 * grid.length:
        raise MalformedInput(f"{path}: x column is not the uniform grid {grid}")
    return GridFunction(grid, vs)
