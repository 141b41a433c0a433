"""Best constrained L2 approximation by path-norm-bounded networks.

Measures, for a given Lipschitz target phi on the unit cube, the curve

    t  ->  min over relu networks with path norm <= t of |f - phi|_L2

by optimization on a quadrature point set, so every reported value is an
*upper* bound on the in-sample minimum at the fitted points (conclusions
drawn from these curves are one-sided).  Radial rescaling of the outer
weights, exact for relu by positive homogeneity, keeps each iterate in the
budget, and each candidate's outer layer is then refit exactly under it.
One point set serves the whole budget grid and each fit is seeded with the
previous budget's solution, so the reported curve is nonincreasing by
construction.  A fit's restarts are one array, a row each: Adam steps them
together, their L-BFGS-B polish runs in lockstep (:func:`minimize`) and
their candidates are scored as one stack.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np
from scipy.linalg import cho_solve
from scipy.optimize import OptimizeResult, _lbfgsb

from .barron import RELU, OptimizationError, TwoLayerNetwork, path_norm
from .util import fit_loglog, midpoint_grid, spawn_rng

__all__ = [
    "TargetError",
    "TargetFunction",
    "FitConfig",
    "FitResult",
    "fit_constrained",
    "project_path_norm",
    "l2_error",
    "CurvePoint",
    "WidthCurve",
    "rho_curve",
]


class TargetError(ValueError):
    """Target function fails its declared contract."""


# ---------------------------------------------------------------------------
# Targets
# ---------------------------------------------------------------------------


@dataclass
class TargetFunction:
    """Evaluable Lipschitz target on [0,1]^d."""

    fn: Callable[[np.ndarray], np.ndarray]
    d: int
    kind: str

    @classmethod
    def distance_to_point_set(cls, points) -> "TargetFunction":
        """Sup-norm distance to a finite point set: exactly 1-Lipschitz,
        cheap in any dimension, and not representable at small path norm."""
        pts = np.atleast_2d(np.asarray(points, dtype=float))

        def fn(X):
            X = np.atleast_2d(np.asarray(X, dtype=float))
            return np.min(np.max(np.abs(X[:, None, :] - pts[None, :, :]), axis=2), axis=1)

        return cls(fn=fn, d=pts.shape[1], kind="distance_to_point_set")

    @classmethod
    def barron_explicit(cls, net: TwoLayerNetwork) -> "TargetFunction":
        return cls(fn=lambda X: net.evaluate(X), d=net.dim, kind="barron_explicit")

    @classmethod
    def custom(cls, fn, d: int) -> "TargetFunction":
        return cls(fn=fn, d=d, kind="custom")


# ---------------------------------------------------------------------------
# Quadrature
# ---------------------------------------------------------------------------


def _quadrature_size(size) -> int:
    size = int(size)
    if size < 1:
        raise TargetError(f"quadrature size must be >= 1, got {size}")
    return size


def _quadrature_points(quadrature, d: int, seed: int) -> np.ndarray:
    """("mc", N) uniform points or ("grid", res) midpoint tensor grid."""
    kind, size = quadrature
    if kind not in ("mc", "grid"):
        raise TargetError(f"unknown quadrature kind {kind!r}")
    size = _quadrature_size(size)
    if kind == "mc":
        return spawn_rng(seed).random((size, d))
    if size**d > 2_000_000:
        raise TargetError(f"grid {size}^{d} too large")
    return midpoint_grid(d, size)


def l2_error(net: TwoLayerNetwork, target: TargetFunction, quadrature,
             seed: int) -> Tuple[float, float]:
    """Estimate of ``int (f - phi)^2`` over the cube, with standard error.

    Monte-Carlo quadrature reports the standard error of the mean; the
    deterministic midpoint grid reports 0.  In one dimension the grid
    variant uses composite Simpson weights, which makes it exact to
    O(res^-3) even for kinked integrands.
    """
    kind, size = quadrature
    if target.d == 1 and kind == "grid":
        res = _quadrature_size(size)
        if res % 2 == 1:
            res += 1
        xs = np.linspace(0.0, 1.0, res + 1).reshape(-1, 1)
        diff = np.asarray(net.evaluate(xs)) - np.asarray(target.fn(xs))
        w = np.ones(res + 1)
        w[1:-1:2], w[2:-1:2] = 4.0, 2.0
        return float((w @ diff**2) / (3.0 * res)), 0.0
    X = _quadrature_points(quadrature, target.d, seed)
    diff = np.asarray(net.evaluate(X)) - np.asarray(target.fn(X))
    sq = diff**2
    if kind == "mc":
        se = float(sq.std(ddof=1) / math.sqrt(sq.size)) if sq.size > 1 else 0.0
    else:
        se = 0.0
    return float(sq.mean()), se


# ---------------------------------------------------------------------------
# Constrained fitting
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FitConfig:
    steps: int
    restarts: int
    quadrature: tuple
    polish_iters: int  # quasi-Newton sharpening of every restart's best iterate

    def __post_init__(self):
        if self.steps < 1 or self.restarts < 1:
            raise TargetError("steps and restarts must be >= 1")
        if self.polish_iters < 0:
            raise TargetError("polish_iters must be >= 0")


def _views(P, m):
    """``(a, W, b)`` of the width-m networks stacked in the rows of P, each
    row laid out as ``[a, W row-major, b]`` (a lone network is one such
    row); views, so writing them writes P."""
    return P[..., :m], P[..., m:-m].reshape(P.shape[:-1] + (m, -1)), P[..., -m:]


def _path_norms(P, m):
    """Path norms of the networks stacked in P, with their neurons' path
    weights ``|w_i|_1 + |b_i|``: :func:`path_norm`'s arithmetic, row by row."""
    a, W, b = _views(P, m)
    costs = np.abs(W).sum(axis=-1) + np.abs(b)
    return np.sum(np.abs(a) * costs, axis=-1) / m, costs


def _relu_loss(P, m, X1, y, grad=False):
    """``(loss, act, grad)`` of ``f = a relu(W x + b) / m`` against y for the
    networks stacked in P (:func:`_views`) at the points ``X1 = [X | 1]^T``
    (d+1, n): the mean squared residual, the activations (..., m, n) and the
    gradient laid out as P (relu' is 0 at 0) if ``grad``, else None.  Points
    last, a network takes one gemm forward, ``relu([W | b] X1)``, and one
    gemm and one gemv back, ``[dW | db] = a * (H (g * X1)^T)`` with H = act >
    0 and g the residual's weight per point, and ``da = act g``; each row of
    a stacked call matches a lone call bitwise."""
    a, W, b = _views(P, m)
    n = X1.shape[-1]
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
    return loss, act, np.concatenate([(act @ g[..., None])[..., 0], dWb[..., :-1].reshape(
        *P.shape[:-1], -1), dWb[..., -1]], axis=-1)


def minimize(fg, x0, maxiter):
    """L-BFGS-B from every row of ``x0``, all rows in lockstep.

    Each row runs its own workspace of scipy's reverse-communication
    L-BFGS-B (``setulb``) with the options, stopping rules and evaluation
    cache of ``scipy.optimize.minimize(method="L-BFGS-B", options={"maxiter":
    maxiter, "maxcor": 30, "ftol": 1e-18, "gtol": 1e-14})``, so it takes the
    steps of a lone run.  Each sweep advances every unfinished row until it
    asks for f and g at a new point or stops; one call ``fg(V)`` answers
    every request, where ``V`` stacks the points (P, n) and ``fg`` returns
    their losses (P,) and gradients (P, n).  Returns the final points ``x``,
    with ``nit`` and ``nfev`` summed over the rows.
    """
    x = np.array(x0, dtype=float)
    K, n = x.shape
    # scipy evaluates at x0 as it builds its objective, and answers a request
    # at the last point it evaluated from that cache.  setulb may rewrite its
    # g in place, so it gets its own copy; it never reads f or g on START
    x_at = x.copy()
    f_at, g_at = fg(x_at)
    g, task = np.zeros((K, n)), np.zeros((K, 2), np.int32)
    # per row: its views, then setulb's wa, iwa, task, lsave, isave, dsave,
    # maxls and ln_task for maxcor 30
    rows = [(x[k], g[k], task[k], x_at[k], g_at[k],
             (np.zeros(2 * 30 * n + 5 * n + 11 * 30 * 30 + 8 * 30), np.zeros(3 * n, np.int32),
              task[k], np.zeros(4, np.int32), np.zeros(44, np.int32), np.zeros(29), 20,
              np.zeros(2, np.int32))) for k in range(K)]
    unbounded, nbd = np.zeros(n), np.zeros(n, np.int32)
    nit, nfev = [0] * K, np.ones(K, int)
    running = list(range(K))
    while running:
        asks = []
        for k in running:
            xk, gk, tk, xk_at, gk_at, work = rows[k]
            while True:
                _lbfgsb.setulb(30, xk, unbounded, unbounded, nbd, f_at[k], gk,
                               1e-18 / 2.0**-52, 1e-14, *work)   # factr = ftol / eps
                if tk[0] == 3:                    # f and g wanted at xk
                    if not (xk == xk_at).all():
                        asks.append(k)
                        break
                    gk[:] = gk_at
                elif tk[0] == 1:                  # a new iterate
                    nit[k] += 1
                    if nit[k] >= maxiter or nfev[k] > 15000:   # maxiter, maxfun
                        tk[:] = 5, 504 if nit[k] >= maxiter else 502
                else:
                    break
        if asks:
            x_at[asks] = x[asks]
            f_at[asks], g[asks] = fg(x_at[asks])
            g_at[asks] = g[asks]
            nfev[asks] += 1
        running = asks
    return OptimizeResult(x=x, nit=sum(nit), nfev=int(nfev.sum()))


@dataclass
class FitResult:
    net: TwoLayerNetwork
    error: float              # L2 norm of the residual (sqrt of the integral)


def project_path_norm(net: TwoLayerNetwork, t: float) -> TwoLayerNetwork:
    """Radial rescaling onto the path-norm ball of radius t.

    Scales the outer weights by ``t / path_norm`` when the constraint is
    exceeded; a no-op otherwise.  For relu this moves along the ray of the
    same function direction.
    """
    pn = path_norm(net)
    if pn <= t or pn == 0.0:
        return net
    return net.scale_outer(t / pn)


def _init_network(width: int, d: int, t: float, rng) -> np.ndarray:
    W = rng.standard_normal((width, d))
    b = -np.einsum("ij,ij->i", W, rng.random((width, d)))  # kinks anchored inside the cube
    row = np.concatenate([0.5 * rng.standard_normal(width), W.ravel(), b])
    pn = _path_norms(row, width)[0]
    if pn > 0:
        row[:width] *= min(t, 1.0 + 0.5 * t) / pn
    return row


def _lasso_homotopy(A, u, R, tol):
    """argmin of ``|A z - u|^2`` over ``|z|_1 <= R`` by the lasso homotopy
    (Osborne, Presnell & Turlach 2000): the penalized path from z = 0, its
    active correlations ``A^T (u - A z)`` at +-lam, event to event (a
    coordinate joins or reaches 0) until the budget binds or lam is rounding.
    Directions come from the QR factor of the active columns; a joiner within
    ``tol`` of their span (dead, duplicate, affine) waits for one to leave."""
    m, floor = A.shape[1], tol * np.abs(A.T @ u).max()   # lam below it is rounding
    z, order, out = np.zeros(m), [], np.zeros(m, bool)
    for _ in range(4 * m + 8):
        r = A.T @ (u - A @ z)
        order = order or [int(np.argmax(np.abs(r)))]
        lam = np.abs(r[order]).max()
        if not lam > floor:                  # NaN included
            break
        T = np.linalg.qr(A[:, order], mode="r")
        if len(T) < len(order) or abs(T[-1, -1]) <= tol * np.abs(np.diag(T)).max():
            out[order.pop()] = True          # the last joiner is dependent
            continue
        dz = cho_solve((T, False), np.sign(r[order]))
        slope, zon = A.T @ (A[:, order] @ dz), z[order]
        grow = np.where(zon != 0, np.sign(zon) * dz, np.abs(dz)).sum()   # of |z|_1
        with np.errstate(divide="ignore", invalid="ignore"):
            join = np.minimum(np.where(slope < 1, (lam - r) / (1 - slope), np.inf),
                              np.where(slope > -1, (lam + r) / (1 + slope), np.inf))
            join[out] = join[order] = np.inf
            steps = np.concatenate([
                [lam, (R - np.abs(z).sum()) / grow if grow > 0 else np.inf],
                np.maximum(join, 0), np.where(zon * dz < 0, -zon / dz, np.inf)])
        k = int(np.argmin(steps))
        z[order] += steps[k] * dz
        if k < 2:                            # lam reached 0 or the budget binds
            break
        if k < 2 + m:                        # a coordinate joins
            order.append(k - 2)
        else:                                # an active coordinate reaches 0
            z[order.pop(k - 2 - m)], out[:] = 0.0, False
    return z * min(1.0, R / max(np.abs(z).sum(), 1e-300))


def _refit_outer(act, y, costs, m, t):
    """Exact refit of the outer weights under the budget t, for K stacked
    networks (``act`` (K, m, n), ``costs`` (K, m)): with ``z_i = c_i a_i`` it
    is ``|D^T z - y|^2 / n``, ``D_i = act_i / (c_i m)``, over ``|z|_1 <= t
    m``, solved on the R factor of ``[D^T | y]`` with the float error of D's
    n-term sums as the tolerance for rank and for lam."""
    keep = costs > 1e-12
    D = np.divide(act, (costs * m)[..., None], out=np.zeros_like(act), where=keep[..., None])
    tol = act.shape[-1] * np.finfo(float).eps
    z = np.stack([_lasso_homotopy(T[:, :-1], T[:, -1], t * m, tol)
                  for T in (np.linalg.qr(np.vstack([Dk, y]).T, mode="r") for Dk in D)])
    return np.divide(z, costs, out=np.zeros_like(z), where=keep)


def _fit_restarts(target, t, width, config, X, y, seed) -> list:
    """Every restart of projected Adam on the shared quadrature set as one
    stack P of rows ``[a, W row-major, b]`` (:func:`_views`), the step size
    cosine-annealed from 0.08 to 1e-3.  Restart r starts from
    ``spawn_rng(seed, r)`` and does the arithmetic of a lone fit.  Entry r is
    its best candidate and loss, or None when its loss turned non-finite and
    it was dropped."""
    X1 = np.vstack([X.T, np.ones(len(X))])      # [X | 1]^T, built once per fit
    P = np.stack([_init_network(width, target.d, t, spawn_rng(seed, r))
                  for r in range(config.restarts)])
    M1, M2 = np.zeros_like(P), np.zeros_like(P)
    beta1, beta2, eps = 0.9, 0.999, 1e-8
    alive = np.arange(config.restarts)      # restart of each row of P
    best_loss = np.full(config.restarts, np.inf)
    best = P.copy()                         # indexed by restart
    for step in range(config.steps):
        loss, _, G = _relu_loss(P, width, X1, y, grad=True)
        ok = np.isfinite(loss)
        if not ok.all():  # drop the restarts whose loss turned non-finite
            alive, loss, P, G, M1, M2 = (v[ok] for v in (alive, loss, P, G, M1, M2))
            if not alive.size:
                return [None] * config.restarts
        better = loss < best_loss[alive]
        best_loss[alive[better]] = loss[better]
        best[alive[better]] = P[better]
        lr = 1e-3 + 0.5 * (0.08 - 1e-3) * (1 + math.cos(math.pi * step / config.steps))
        M1 *= beta1
        M1 += (1 - beta1) * G
        M2 *= beta2
        M2 += (1 - beta2) * G * G
        mhat = M1 / (1 - beta1 ** (step + 1))
        vhat = M2 / (1 - beta2 ** (step + 1))
        P -= lr * mhat / (np.sqrt(vhat) + eps)
        # radial projection back onto the budget ball
        pn = _path_norms(P, width)[0]
        over = (pn > t) & (pn > 0)
        P[over, :width] *= (t / pn[over])[:, None]
    # per restart: the best iterate, its L-BFGS polish (all restarts in
    # lockstep) and the last iterate, each projected as project_path_norm
    # does (a NaN path norm included) and then refit, all 3R in one stack
    kept = best[alive]
    fg = lambda V: _relu_loss(V, width, X1, y, grad=True)[::2]
    polished = minimize(fg, kept, config.polish_iters).x if config.polish_iters else kept
    cands = np.stack([kept, polished, P], axis=1).reshape(3 * len(alive), -1)
    pn, costs = _path_norms(cands, width)
    scale = ~((pn <= t) | (pn == 0.0))
    cands[scale, :width] *= (t / pn[scale])[:, None]
    loss, act, _ = _relu_loss(cands, width, X1, y)
    refits = np.concatenate([_refit_outer(act, y, costs, width, t), cands[:, width:]], axis=1)
    # per restart: each candidate, then its refit
    pool = np.stack([cands, refits], axis=1).reshape(len(alive), 6, -1)
    pool_loss = np.stack([loss, _relu_loss(refits, width, X1, y)[0]], axis=1).reshape(-1, 6)
    winners = [None] * config.restarts
    for row, r in enumerate(alive):
        k = min(range(6), key=pool_loss[row].__getitem__)
        winners[r] = (TwoLayerNetwork(*_views(pool[row, k], width), RELU, averaged=True),
                      pool_loss[row, k])
    return winners


def fit_constrained(target: TargetFunction, t: float, width: int, config: FitConfig,
                    seed: int, quad_seed: int,
                    init_net: Optional[TwoLayerNetwork]) -> FitResult:
    """Best-of-multi-start constrained fit; returns an upper bound on the
    in-sample minimal L2 error at budget t on the fitted points.

    ``init_net``, unless None, is projected onto the budget and joins the
    candidate pool, which makes warm-started sweeps monotone by
    construction.  ``quad_seed`` selects the quadrature point set; sweeps
    over t share it.
    """
    if width < 1:
        raise TargetError("width must be >= 1")
    if not math.isfinite(t) or t < 0:
        raise TargetError(f"budget t must be finite and nonnegative, got {t}")
    X = _quadrature_points(config.quadrature, target.d, quad_seed)
    y = np.asarray(target.fn(X), dtype=float)

    zero = TwoLayerNetwork(np.zeros(1), np.zeros((1, target.d)), np.zeros(1),
                           RELU, averaged=True)
    candidates: List[Tuple[TwoLayerNetwork, float]] = [
        (zero, float(np.mean(y**2)))]
    if t > 0:
        if init_net is not None:
            warm = project_path_norm(init_net, t)
            resid = np.asarray(warm.evaluate(X)) - y
            candidates.append((warm, float(np.mean(resid**2))))
        winners = [w for w in _fit_restarts(target, t, width, config, X, y, seed) if w]
        if not winners:
            raise OptimizationError("every restart produced non-finite losses")
        candidates += winners
    net, loss = min(candidates, key=lambda c: c[1])
    if not path_norm(net) <= t * (1 + 1e-9) + 1e-12:
        raise OptimizationError(f"the fit at budget t={t} left the path-norm ball")
    return FitResult(net=net, error=math.sqrt(max(loss, 0.0)))


# ---------------------------------------------------------------------------
# Budget sweeps
# ---------------------------------------------------------------------------


@dataclass
class CurvePoint:
    t: float
    error: float
    error_se: float


@dataclass
class WidthCurve:
    samples: List[CurvePoint]
    fitted_exponent: float
    exponent_stderr: float
    meta: dict


def rho_curve(target: TargetFunction, t_grid: Sequence[float], width: int,
              config: FitConfig, seed: int) -> WidthCurve:
    """Upper-bound curve of best errors over an increasing budget grid.

    One quadrature set, drawn from ``seed``, is shared across the grid, and
    each budget is warm started from the previous solution, so the curve is
    nonincreasing by construction.  The tail decay exponent is fitted on
    the upper half of the grid (positive errors only).
    """
    t_grid = list(t_grid)
    if any(b <= a for a, b in zip(t_grid, t_grid[1:])):
        raise TargetError("t_grid must be strictly increasing")
    points: List[CurvePoint] = []
    prev: Optional[TwoLayerNetwork] = None
    for i, t in enumerate(t_grid):
        res = fit_constrained(target, t, width, config, seed=seed + 1000 * i,
                              quad_seed=seed, init_net=prev)
        prev = res.net
        # standard error of the squared-error estimate, propagated to the norm
        _, se_sq = l2_error(res.net, target, config.quadrature, seed=seed)
        se = se_sq / (2 * res.error) if res.error > 0 else 0.0
        points.append(CurvePoint(t=float(t), error=res.error, error_se=se))
    errs = np.array([p.error for p in points])
    ts = np.array([p.t for p in points])
    tail = max(len(points) // 2, 2)
    keep = errs[-tail:] > 1e-9
    if keep.sum() >= 2:
        slope, _, stderr = fit_loglog(ts[-tail:][keep], errs[-tail:][keep])
    else:
        slope, stderr = -math.inf, 0.0
    return WidthCurve(samples=points, fitted_exponent=slope, exponent_stderr=stderr,
                      meta={"seed": seed, "width": width, "target": target.kind,
                            "d": target.d, "quadrature": list(config.quadrature),
                            "restarts": config.restarts, "steps": config.steps})

