"""Reference implementations that the tests compare the library against.

No subcommand reads these, so they live beside the tests.  The module name
has no ``test_`` prefix, so pytest imports it without collecting it.
"""

from __future__ import annotations

import math
from typing import Tuple

import numpy as np

from widthlab.barron import RELU, PiecewiseLinear1D, TwoLayerNetwork, path_norm
from widthlab.separation import Number, width_exponent
from widthlab.transport import (
    TORUS_LINF,
    DiscreteMeasure,
    TorusMetricConfig,
    TransportError,
    _check_balls,
)
from widthlab.util import fit_loglog, spawn_rng
from widthlab.widthprobe import WidthCurve, _refit_outer, project_path_norm


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


def relu_loss_per_array(a, W, b, X, y, grad=False):
    """The relu loss on three arrays ``(a, W, b)``, each network's on a
    leading axis: ``(loss, act, (d/da, d/dW, d/db))``, with the fit's
    points-last arithmetic (``act`` is (..., m, n)) on the points ``X``."""
    m, n = a.shape[-1], X.shape[0]
    X1 = np.vstack([X.T, np.ones(n)])
    act = np.concatenate([W, b[..., None]], axis=-1) @ X1
    np.maximum(act, 0.0, out=act)
    resid = (a[..., None, :] @ act)[..., 0, :]
    resid /= m
    resid -= y
    loss = (resid[..., None, :] @ resid[..., None])[..., 0, 0] / n
    if not grad:
        return loss, act, None
    g = 2.0 * resid / (n * m)
    dWb = ((act > 0).astype(float) @ (X1.T * g[..., :, None])) * a[..., None]
    return loss, act, ((act @ g[..., None])[..., 0], dWb[..., :-1], dWb[..., -1])


def lbfgs_polish(P, m, X, y, maxiter):
    """The L-BFGS polish one restart at a time: each row ``[a, W row-major,
    b]`` of the width-m stack P goes alone through ``scipy.optimize.minimize(
    method="L-BFGS-B")`` with the polish's options, on lone per-array loss
    calls.  Returns the stacked polished rows and each run's ``nit`` and
    ``nfev``."""
    from scipy.optimize import minimize

    def unpack(v):
        return v[:m], v[m:-m].reshape(m, -1), v[-m:]

    def fg(v):
        loss, _, grads = relu_loss_per_array(*unpack(v), X, y, grad=True)
        return loss, np.concatenate([g.ravel() for g in grads])

    polished, nits, nfevs = [], [], []
    for v0 in P:
        res = minimize(fg, v0, jac=True, method="L-BFGS-B",
                       options={"maxiter": maxiter, "maxcor": 30,
                                "ftol": 1e-18, "gtol": 1e-14})
        polished.append(res.x)
        nits.append(res.nit)
        nfevs.append(res.nfev)
    return np.stack(polished), nits, nfevs


def _refit_problem(act, costs, m):
    """The refit's data: ``D_i = act_i / (c_i m)`` for each neuron of path
    weight ``c_i > 1e-12`` and 0 otherwise, and the mask of those neurons."""
    keep = costs > 1e-12
    return np.divide(act, (costs * m)[..., None], out=np.zeros_like(act),
                     where=keep[..., None]), keep


def higham_gamma(k):
    """Higham's gamma_k = k u / (1 - k u), u the unit roundoff of float64."""
    return k * 2.0**-53 / (1 - k * 2.0**-53)


def refit_certificate(act, y, costs, m, t, outer):
    """Per row of a stacked refit (``act`` (K, m, n), ``costs`` and ``outer``
    (K, m)): ``(gap, allowance, value)`` in loss units.  With ``z_i = c_i
    a_i`` and R = t m the loss is ``|D^T z - y|^2 / n``; ``value`` is its
    z-dependent part ``2/n (z.G.z / 2 - c.z)`` with ``G = D D^T`` and
    ``c = D y``, and the Frank-Wolfe gap ``2/n (R |r|_inf - r.z)`` with
    ``r = c - G z`` bounds its excess over the minimum on the ball
    ``|z|_1 <= R``.  The allowance is the gap's change under the float error
    of the sums that form r: D >= 0, so c and G z are off by at most
    ``gamma_(n+m+2) (D|y| + G|z|)`` per entry, and the gap by R times the
    largest of those, twice.  ``value``'s own float error is at most half
    the allowance (``|z|.G|z|`` and ``|c|.|z|`` are at most R times those
    entries)."""
    n = act.shape[-1]
    D, keep = _refit_problem(act, costs, m)
    G, c = D @ np.swapaxes(D, -1, -2), (D @ y[:, None])[..., 0]
    z = np.where(keep, outer * costs, 0.0)
    Gz = (G @ z[..., None])[..., 0]
    r = c - Gz
    R = t * m
    gap = 2.0 / n * (R * np.abs(r).max(axis=-1) - (r * z).sum(axis=-1))
    err = higham_gamma(n + m + 2) * ((D @ np.abs(y)[:, None])[..., 0]
                                     + (G @ np.abs(z)[..., None])[..., 0])
    value = 2.0 / n * ((0.5 * Gz - c) * z).sum(axis=-1)
    return gap, 2.0 / n * 2.0 * R * err.max(axis=-1), value


def refit_outer_brute_force(act, y, costs, m, t):
    """The refit by enumeration, for one network of width m <= 5: the least
    squares point and, for every support A and sign pattern s, the solution
    of the budget-binding KKT system ``[G_AA s; s^T 0] [z_A; lam] = [c_A;
    R]``, each scaled into the ball, so each is feasible and the least loss
    among them (the zero vector's included) is at least the minimum, which
    the optimum's own support and signs attain: its outer weights."""
    from itertools import combinations, product

    D, keep = _refit_problem(act, costs, m)
    G, c, R = D @ D.T, D @ y, t * m
    points = [np.zeros(m), np.linalg.lstsq(G, c, rcond=None)[0]]
    for k in range(1, m + 1):
        for A in map(list, combinations(range(m), k)):
            for s in product((-1.0, 1.0), repeat=k):
                M = np.block([[G[np.ix_(A, A)], np.array(s)[:, None]], [np.array(s), 0.0]])
                z = np.zeros(m)
                z[A] = np.linalg.lstsq(M, np.append(c[A], R), rcond=None)[0][:k]
                points.append(z)
    points = [z * min(1.0, R / max(np.abs(z).sum(), 1e-300)) for z in points]
    best = min(points, key=lambda z: 0.5 * z @ G @ z - c @ z)
    return np.divide(best, costs, out=np.zeros(m), where=keep)


def init_network_per_array(width, d, t, rng) -> TwoLayerNetwork:
    """A fit's random start as a network, scaled into the budget by
    :func:`path_norm`."""
    W = rng.standard_normal((width, d))
    anchors = rng.random((width, d))
    b = -np.einsum("ij,ij->i", W, anchors)  # kinks anchored inside the cube
    a = 0.5 * rng.standard_normal(width)
    net = TwoLayerNetwork(a, W, b, RELU, averaged=True)
    pn = path_norm(net)
    if pn > 0:
        net = net.scale_outer(min(t, 1.0 + 0.5 * t) / pn)
    return net


def fit_restarts_per_array(target, t, width, config, X, y, seed,
                           init=init_network_per_array) -> list:
    """A fit's restarts with each network's parameters in three arrays
    ``(a, W, b)``: Adam steps the three stacks one by one, each restart is
    polished alone (:func:`lbfgs_polish`), and every candidate is a
    :class:`TwoLayerNetwork`, projected by :func:`project_path_norm`.  Entry r
    is restart r's best candidate and loss, or None when it was dropped."""
    def stack(nets):
        return [np.stack([getattr(net, f) for net in nets]) for f in ("outer", "inner", "bias")]

    a, W, b = stack([init(width, target.d, t, spawn_rng(seed, r))
                     for r in range(config.restarts)])
    state = [np.zeros_like(p) for p in (a, W, b)]
    state2 = [np.zeros_like(p) for p in (a, W, b)]
    beta1, beta2, eps = 0.9, 0.999, 1e-8
    alive = np.arange(config.restarts)
    best_loss = np.full(config.restarts, np.inf)
    best = [a.copy(), W.copy(), b.copy()]
    for step in range(config.steps):
        loss, _, grads = relu_loss_per_array(a, W, b, X, y, grad=True)
        ok = np.isfinite(loss)
        if not ok.all():
            alive, loss, a, W, b = alive[ok], loss[ok], a[ok], W[ok], b[ok]
            grads, state, state2 = ([v[ok] for v in vs] for vs in (grads, state, state2))
            if not alive.size:
                return [None] * config.restarts
        better = loss < best_loss[alive]
        best_loss[alive[better]] = loss[better]
        for kept, p in zip(best, (a, W, b)):
            kept[alive[better]] = p[better]
        lr = 1e-3 + 0.5 * (0.08 - 1e-3) * (1 + math.cos(math.pi * step / config.steps))
        for p, g, m1, m2 in zip((a, W, b), grads, state, state2):
            m1 *= beta1
            m1 += (1 - beta1) * g
            m2 *= beta2
            m2 += (1 - beta2) * g * g
            mhat = m1 / (1 - beta1 ** (step + 1))
            vhat = m2 / (1 - beta2 ** (step + 1))
            p -= lr * mhat / (np.sqrt(vhat) + eps)
        pn = np.sum(np.abs(a) * (np.abs(W).sum(axis=-1) + np.abs(b)), axis=-1) / width
        over = (pn > t) & (pn > 0)
        a[over] *= (t / pn[over])[:, None]
    kept = [p[alive] for p in best]
    polished = kept
    if config.polish_iters:
        rows = lbfgs_polish(np.concatenate([kept[0], kept[1].reshape(len(alive), -1), kept[2]],
                                           axis=1), width, X, y, config.polish_iters)[0]
        polished = (rows[:, :width], rows[:, width:-width].reshape(len(alive), width, -1),
                    rows[:, -width:])
    cands = [project_path_norm(TwoLayerNetwork(*(p[row] for p in params), RELU,
                                               averaged=True), t)
             for row in range(len(alive)) for params in (kept, polished, (a, W, b))]
    outer, inner, bias = stack(cands)
    loss, act, _ = relu_loss_per_array(outer, inner, bias, X, y)
    costs = np.abs(inner).sum(axis=-1) + np.abs(bias)
    a_star = _refit_outer(act, y, costs, width, t)
    refit_loss = relu_loss_per_array(a_star, inner, bias, X, y)[0]
    winners = [None] * config.restarts
    for row, r in enumerate(alive):
        finals = [pair for k in range(3 * row, 3 * row + 3) for pair in (
            (cands[k], loss[k]),
            (TwoLayerNetwork(a_star[k], inner[k], bias[k], RELU, averaged=True), refit_loss[k]))]
        winners[r] = min(finals, key=lambda c: c[1])
    return winners
