"""Symbolic coefficient presets for the CLI configuration format.

Spatial fields ("const:c", "sin:k[:amp]", "cos:k[:amp]",
"gauss:center:width[:amp]", "csv:path") map to arrays on a grid; time
functions ("const:c", "sinmod:c0:c1:omega" meaning c0 + c1 sin(omega t))
map to scalar callables.  Mode numbers k refer to grid-commensurate
frequencies 2 pi k / L, so every preset is exactly periodic.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from .errors import ConfigError, MalformedInput
from .grid import Grid1D, read_field_csv

__all__ = ["parse_field", "parse_time_fn"]


def _parts(spec: str, name: str) -> list[str]:
    if not isinstance(spec, str) or not spec:
        raise ConfigError(f"{name}: preset must be a nonempty string", name)
    return spec.split(":")


def parse_field(spec: str, grid: Grid1D, name: str = "field") -> np.ndarray:
    """Spatial field preset -> array on grid.x."""
    parts = _parts(spec, name)
    kind, args = parts[0], parts[1:]
    try:
        if kind == "const":
            return np.full(grid.n, float(args[0]))
        if kind in ("sin", "cos"):
            k = int(args[0])
            amp = float(args[1]) if len(args) > 1 else 1.0
            xi = 2 * np.pi * k / grid.length
            fn = np.sin if kind == "sin" else np.cos
            return amp * fn(xi * grid.x)
        if kind == "gauss":
            center, width = float(args[0]), float(args[1])
            amp = float(args[2]) if len(args) > 2 else 1.0
            return amp * np.exp(-((grid.x - center) ** 2) / width**2)
        if kind == "csv":
            return read_field_csv(args[0], grid=grid).values
    except (IndexError, ValueError) as exc:
        raise ConfigError(f"{name}: malformed preset {spec!r} ({exc})", name) from exc
    except (OSError, MalformedInput) as exc:
        raise ConfigError(f"{name}: unreadable preset {spec!r} ({exc})", name) from exc
    raise ConfigError(f"{name}: unknown field preset kind {kind!r}", name)


def parse_time_fn(spec: str, name: str = "coefficient") -> Callable[[np.ndarray], np.ndarray]:
    """Time-function preset -> vectorized callable of t."""
    parts = _parts(spec, name)
    kind, args = parts[0], parts[1:]
    try:
        if kind == "const":
            c = float(args[0])
            return lambda t: c * np.ones_like(np.asarray(t, dtype=float))
        if kind == "sinmod":
            c0, c1, omega = float(args[0]), float(args[1]), float(args[2])
            return lambda t: c0 + c1 * np.sin(omega * np.asarray(t, dtype=float))
    except (IndexError, ValueError) as exc:
        raise ConfigError(f"{name}: malformed preset {spec!r} ({exc})", name) from exc
    raise ConfigError(f"{name}: unknown time preset kind {kind!r}", name)
