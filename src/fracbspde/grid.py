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
the nearest node.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Callable, Sequence

import numpy as np

from .errors import EmptyEnsemble, GridMismatch, InvalidExponent, MalformedInput, OffGridTime

__all__ = [
    "Grid1D",
    "GridFunction",
    "NormReport",
    "apply_multiplier",
    "derivative_multiplier",
    "time_indices",
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

    ts = None selects every node.  A time t matches a node within
    1e-9 max(1, |t|); any other time raises OffGridTime instead of snapping
    to the nearest node.
    """
    times = np.asarray(times, dtype=float)
    if ts is None:
        return np.arange(times.size)
    ts = np.asarray(ts, dtype=float).reshape(-1)
    idx = np.argmin(np.abs(times[:, None] - ts[None, :]), axis=0)
    off = ts[~(np.abs(times[idx] - ts) <= 1e-9 * np.maximum(1.0, np.abs(ts)))]
    if off.size:
        raise OffGridTime(f"time {off[0]} is not a node of the time grid {times[0]}..{times[-1]}")
    return np.unique(idx)


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


def _ensemble_time_reduce(sq: np.ndarray, dt: float, kind: str) -> np.ndarray:
    # sq has shape (paths, times, ...); reduce the time axis
    if kind == "s2":
        return sq.max(axis=1)
    if kind == "l2":
        # trapezoid in time; a single snapshot counts with full weight
        w = np.full(sq.shape[1], dt)
        if sq.shape[1] > 1:
            w[0] *= 0.5
            w[-1] *= 0.5
        return np.tensordot(sq, w, axes=([1], [0]))
    raise ValueError(f"unknown ensemble norm kind {kind!r}")


def ensemble_process_norms(
    values: np.ndarray,
    grid: Grid1D,
    dt: float,
    beta: float,
    kind: str = "s2",
    exact_limit: int = 512,
) -> NormReport:
    """Monte-Carlo estimators of the process-valued sup and Holder norms.

    values has shape (paths, times, n). kind = "s2" reduces time by a sup
    (pathwise running maximum), kind = "l2" by a trapezoid time integral; the
    path axis is always reduced by a mean, the space axis by sup / Holder
    quotients over the pair-offset set.
    """
    if not 0.0 < beta < 1.0:
        raise InvalidExponent(f"beta must lie in (0,1), got {beta}")
    arr = np.asarray(values, dtype=float)
    if arr.ndim == 2:  # single path
        arr = arr[None, :, :]
    if arr.ndim != 3 or arr.shape[0] == 0:
        raise EmptyEnsemble(f"expected nonempty (paths, times, n) array, got {arr.shape}")
    if arr.shape[2] != grid.n:
        raise GridMismatch(f"space axis {arr.shape[2]} does not match grid n={grid.n}")

    per_x = _ensemble_time_reduce(arr**2, dt, kind).mean(axis=0)
    sup = float(np.sqrt(per_x.max()))

    dx = grid.dx
    semi = 0.0
    for m in pair_offsets(grid.n, exact_limit=exact_limit):
        diff_sq = (arr[:, :, m:] - arr[:, :, :-m]) ** 2
        per_pair = _ensemble_time_reduce(diff_sq, dt, kind).mean(axis=0)
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
    if not rows or rows[0][:2] != ["x", "value"]:
        raise MalformedInput(f"{path}: expected the header x,value, got {rows[:1]!r}")
    try:
        data = np.array([[float(r[0]), float(r[1])] for r in rows[1:]]).reshape(-1, 2)
    except (ValueError, IndexError) as exc:
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
