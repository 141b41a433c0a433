"""Shared utilities: deterministic seeding, grids, slope fits, float formatting,
and the solver-failure exception."""

from __future__ import annotations

import numpy as np

#: Number of significant digits that round-trips float64 through text.
FLOAT_DIGITS = 17


class OptimizationError(RuntimeError):
    """A numerical solver failed or could not certify its result."""


def spawn_rng(master_seed: int, *key: int) -> np.random.Generator:
    """Independent generator for one (seed, key...) cell.

    Streams are derived from the master seed through ``SeedSequence`` spawn
    keys, so every (trial, repeat, ...) coordinate gets its own stream and
    results do not depend on evaluation order.
    """
    ss = np.random.SeedSequence(entropy=int(master_seed), spawn_key=tuple(int(k) for k in key))
    return np.random.default_rng(ss)


def as_points(x) -> np.ndarray:
    """``x`` as a float array of points; a 1-D array becomes one column."""
    x = np.asarray(x, dtype=float)
    return x.reshape(-1, 1) if x.ndim == 1 else x


def midpoint_grid(d: int, res: int) -> np.ndarray:
    """Cell midpoints of the ``res^d`` grid on [0,1]^d, last coordinate fastest."""
    axis = (np.arange(res) + 0.5) / res
    mesh = np.meshgrid(*([axis] * d), indexing="ij")
    return np.column_stack([m.ravel() for m in mesh])


def fmt_float(x: float) -> str:
    """Format a float with 17 significant digits (text round-trip safe)."""
    return format(float(x), f".{FLOAT_DIGITS}g")


def fit_loglog(x, y):
    """Least-squares slope of log y against log x.

    Returns ``(slope, intercept, slope_stderr)``.  All x and y must be
    strictly positive.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.size != y.size or x.size < 2:
        raise ValueError("need at least two (x, y) pairs of equal length")
    if np.any(x <= 0) or np.any(y <= 0):
        raise ValueError("log-log fit requires positive values")
    lx, ly = np.log(x), np.log(y)
    A = np.column_stack([lx, np.ones_like(lx)])
    coef, *_ = np.linalg.lstsq(A, ly, rcond=None)
    slope, intercept = float(coef[0]), float(coef[1])
    resid = ly - A @ coef
    n = x.size
    if n > 2:
        s2 = float(resid @ resid) / (n - 2)
        denom = float(np.sum((lx - lx.mean()) ** 2))
        stderr = np.sqrt(s2 / denom) if denom > 0 else np.inf
    else:
        stderr = 0.0
    return slope, intercept, float(stderr)


def logsumexp2(log2_terms) -> float:
    """log2 of a sum of nonnegative terms given by their base-2 logs."""
    arr = np.asarray(log2_terms, dtype=float)
    arr = arr[~np.isneginf(arr)]
    if arr.size == 0:
        return -np.inf
    mx = float(arr.max())
    return mx + float(np.log2(np.sum(np.exp2(arr - mx))))
