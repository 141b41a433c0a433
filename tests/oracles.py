"""Reference implementations that the tests compare the library against.

No subcommand reads these, so they live beside the tests.  The module name
has no ``test_`` prefix, so pytest imports it without collecting it.
"""

from __future__ import annotations

import math
from typing import Tuple

import numpy as np

from widthlab.barron import PiecewiseLinear1D
from widthlab.separation import Number, width_exponent
from widthlab.transport import (
    TORUS_LINF,
    DiscreteMeasure,
    TorusMetricConfig,
    TransportError,
    _check_balls,
)
from widthlab.util import fit_loglog
from widthlab.widthprobe import WidthCurve


def piecewise_linear_values(f: PiecewiseLinear1D, x) -> np.ndarray:
    """Values of the piecewise-linear function ``f`` at the points ``x``."""
    return np.interp(x, f.knots, f.values)


def w1_assignment_oracle(mu: DiscreteMeasure, nu: DiscreteMeasure,
                         metric: TorusMetricConfig = TORUS_LINF) -> float:
    """Independent exact solver: expand to a balanced assignment problem.

    Requires all weights to be integer multiples of a common 1/N with a
    moderate N (e.g. uniform grids vs uniform empirical measures whose sizes
    divide each other).  Used as a cross-check oracle for :func:`w1_exact`.
    """
    from scipy.optimize import linear_sum_assignment

    if mu.dim != nu.dim:
        raise TransportError("dimension mismatch")
    counts = []
    for meas in (mu, nu):
        inv = np.round(1.0 / np.min(meas.weights[meas.weights > 0]))
        mult = meas.weights * inv
        if not np.allclose(mult, np.round(mult), atol=1e-9):
            raise TransportError("weights are not commensurate; oracle not applicable")
        counts.append((int(inv), np.round(mult).astype(int)))
    N = int(np.lcm(counts[0][0], counts[1][0]))
    if N > 5000:
        raise TransportError(f"expansion size {N} too large for the assignment oracle")
    reps_mu = counts[0][1] * (N // counts[0][0])
    reps_nu = counts[1][1] * (N // counts[1][0])
    C = metric.pairwise(mu.points, nu.points)
    Cbig = np.repeat(np.repeat(C, reps_mu, axis=0), reps_nu, axis=1)
    r, c = linear_sum_assignment(Cbig)
    return float(Cbig[r, c].sum() / N)


def w1_1d_cdf(mu: DiscreteMeasure, nu: DiscreteMeasure) -> float:
    """Closed-form 1D distance (non-periodic): integral of |CDF difference|."""
    if mu.dim != 1 or nu.dim != 1:
        raise TransportError("cdf formula is one-dimensional")
    xs = np.concatenate([mu.points.ravel(), nu.points.ravel()])
    order = np.argsort(xs, kind="stable")
    deltas = np.concatenate([mu.weights, -nu.weights])[order]
    xs = xs[order]
    cdf_gap = np.cumsum(deltas)[:-1]
    return float(np.sum(np.abs(cdf_gap) * np.diff(xs)))


def ball_intersection_volume_mc(offset, epsilon: float, samples: int = 100_000,
                                seed: int = 0) -> Tuple[float, float]:
    """Monte-Carlo overlap volume (rejection from one ball), with std error:
    the independent reference for :func:`ball_intersection_volume`."""
    _check_balls(epsilon)
    offset = np.atleast_1d(np.asarray(offset, dtype=float))
    d = offset.size
    rng = np.random.default_rng(seed)
    diff = rng.uniform(-epsilon, epsilon, size=(samples, d)) - offset
    diff = diff - np.round(diff)
    inside = np.max(np.abs(diff), axis=1) <= epsilon
    vol_ball = 2.0**d * epsilon**d
    frac = inside.mean()
    se = vol_ball * float(np.sqrt(frac * (1 - frac) / samples))
    return float(vol_ball * frac), se


def rate_exponent_pipeline(alpha: Number, beta: Number) -> dict:
    """Exponent arithmetic with validity report instead of an exception.

    Returns ``{"alpha": ..., "beta": ..., "valid": bool, "exponent": value
    or None}``; ``exponent`` is exact for Fraction inputs.  Useful when
    sweeping dimension-parametrized rates through zero denominators.
    """
    valid = bool(alpha > beta)
    out = {"alpha": alpha, "beta": beta, "valid": valid, "exponent": None}
    if valid:
        out["exponent"] = width_exponent(alpha, beta)
    return out


def certificate_consistency(curve: WidthCurve, exponent: float) -> dict:
    """One-sided comparison of a measured curve with a certified decay rate.

    Measured errors are optimizer upper bounds, so a single-target curve can
    never strictly refute a worst-case certificate; the meaningful check is
    that the curve's fitted *tail* decay is no steeper than the certified
    exponent, within the slope uncertainty propagated from the per-point
    standard errors.  Early budgets (where the error is pinned near the
    target's norm) are excluded by the same tail window the exponent fit
    uses.
    """
    pts = [p for p in curve.samples if p.error > 0]
    tail = pts[max(len(pts) - max(len(pts) // 2, 2), 0):]
    if len(tail) < 2:
        return {"consistent": True, "checked": 0, "measured_tail_slope": None,
                "certified_exponent": exponent}
    ts = np.array([p.t for p in tail])
    errs = np.array([p.error for p in tail])
    slope, _, fit_sigma = fit_loglog(ts, errs)
    # quadrature noise enters log-space as se/e; convert to slope units
    log_sigmas = np.array([p.error_se / p.error for p in tail])
    span = math.log(ts[-1] / ts[0])
    noise_sigma = float(np.sqrt(np.sum(log_sigmas**2))) / span if span > 0 else 0.0
    sigma = max(fit_sigma if math.isfinite(fit_sigma) else 0.0, noise_sigma)
    consistent = slope + 2.0 * sigma >= -exponent - 1e-12
    return {"consistent": bool(consistent), "checked": len(tail),
            "measured_tail_slope": slope, "slope_sigma": sigma,
            "certified_exponent": exponent}
