"""Best constrained L2 approximation by path-norm-bounded networks.

Measures, for a given Lipschitz target phi on the unit cube, the curve

    t  ->  min over relu networks with path norm <= t of |f - phi|_L2

via first-order optimization (so every reported value is an *upper* bound on
the true minimum; conclusions drawn from these curves are one-sided).  The
path-norm constraint is enforced by radial rescaling of the outer weights,
which is exact for relu by positive homogeneity and leaves the network's
direction unchanged.  A single quadrature point set is shared across the
whole budget grid so that curve monotonicity is not polluted by quadrature
noise, and each fit is seeded with the previous budget's solution, so the
reported curve is nonincreasing by construction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np
from scipy.optimize import minimize

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


def _quadrature_points(quadrature, d: int, seed: int) -> np.ndarray:
    """("mc", N) uniform points or ("grid", res) midpoint tensor grid."""
    kind, size = quadrature
    if kind not in ("mc", "grid"):
        raise TargetError(f"unknown quadrature kind {kind!r}")
    size = int(size)
    if size < 1:
        raise TargetError(f"quadrature size must be >= 1, got {size}")
    if kind == "mc":
        return spawn_rng(seed).random((size, d))
    if size**d > 2_000_000:
        raise TargetError(f"grid {size}^{d} too large")
    return midpoint_grid(d, size)


def l2_error(net: TwoLayerNetwork, target: TargetFunction,
             quadrature=("mc", 4096), seed: int = 0) -> Tuple[float, float]:
    """Estimate of ``int (f - phi)^2`` over the cube, with standard error.

    Monte-Carlo quadrature reports the standard error of the mean; the
    deterministic midpoint grid reports 0.  In one dimension the grid
    variant uses composite Simpson weights, which makes it exact to
    O(res^-3) even for kinked integrands.
    """
    kind, size = quadrature
    if target.d == 1 and kind == "grid":
        res = int(size)
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
    steps: int = 600
    restarts: int = 6
    quadrature: tuple = ("mc", 2048)
    polish_iters: int = 300  # quasi-Newton sharpening of the best restart

    def __post_init__(self):
        if self.steps < 1 or self.restarts < 1:
            raise TargetError("steps and restarts must be >= 1")
        if self.polish_iters < 0:
            raise TargetError("polish_iters must be >= 0")


def _relu_loss(a, W, b, X, y, grad=False):
    """``(loss, act, grads)`` of ``f = relu(X W^T + b) a / m`` against y: the
    mean squared residual, the hidden activations and, when ``grad`` is set,
    ``(d/da, d/dW, d/db)`` (relu' is 0 at 0), else None.  ``a``, ``W`` and
    ``b`` may stack networks on a leading axis; a stacked ``np.matmul`` does
    each network's lone gemm, gemv or dot, so each slice matches it bitwise."""
    m, n = a.shape[-1], X.shape[0]
    pre = X @ np.swapaxes(W, -1, -2) + b[..., None, :]
    act = np.maximum(pre, 0.0)
    resid = (act @ a[..., None])[..., 0] / m - y
    loss = (resid[..., None, :] @ resid[..., None])[..., 0, 0] / n
    if not grad:
        return loss, act, None
    g_common = 2.0 * resid / (n * m)
    mask = (pre > 0) * (g_common[..., None] * a[..., None, :])
    return loss, act, ((np.swapaxes(act, -1, -2) @ g_common[..., None])[..., 0],
                       np.swapaxes(mask, -1, -2) @ X, mask.sum(axis=-2))


def _lbfgs_polish(a, W, b, X, y, maxiter):
    """Unconstrained quasi-Newton refinement; callers re-project afterwards."""
    m, d = W.shape

    def unpack(v):
        aa, WW, bb = np.split(v, [m, m + m * d])
        return aa, WW.reshape(m, d), bb

    def fg(v):
        loss, _, grads = _relu_loss(*unpack(v), X, y, grad=True)
        return loss, np.concatenate([g.ravel() for g in grads])

    x0 = np.concatenate([a, W.ravel(), b])
    res = minimize(fg, x0, jac=True, method="L-BFGS-B",
                   options={"maxiter": maxiter, "maxcor": 30,
                            "ftol": 1e-18, "gtol": 1e-14})
    return unpack(res.x)


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


def _init_network(width: int, d: int, t: float, rng) -> TwoLayerNetwork:
    W = rng.standard_normal((width, d))
    anchors = rng.random((width, d))
    b = -np.einsum("ij,ij->i", W, anchors)  # kinks anchored inside the cube
    a = 0.5 * rng.standard_normal(width)
    net = TwoLayerNetwork(a, W, b, RELU, averaged=True)
    pn = path_norm(net)
    if pn > 0:
        net = net.scale_outer(min(t, 1.0 + 0.5 * t) / pn)
    return net


def _project_l1_ball(v: np.ndarray, radius: float) -> np.ndarray:
    """Euclidean projection of each row of v onto the l1 ball of the given
    radius (> 0)."""
    a = np.abs(v)
    u = np.sort(a, axis=-1)[:, ::-1]
    css = np.cumsum(u, axis=-1)
    above = u * np.arange(1, u.shape[-1] + 1) > (css - radius)
    rho = u.shape[-1] - 1 - np.argmax(above[:, ::-1], axis=-1)  # last True per row
    theta = (css[np.arange(len(v)), rho] - radius) / (rho + 1.0)
    inside = a.sum(axis=-1) <= radius
    return np.where(inside[:, None], v, np.sign(v) * np.maximum(a - theta[:, None], 0.0))


def _refit_outer(act: np.ndarray, y: np.ndarray, costs: np.ndarray, m: int,
                 t: float, a0: np.ndarray) -> np.ndarray:
    """Convex refit of the outer weights with the path-norm budget, for K
    stacked networks: ``act`` is (K, n, m), ``costs`` and ``a0`` are (K, m).
    With inner weights frozen, minimizing the quadratic loss subject to
    ``(1/m) sum c_i |a_i| <= t`` is least squares over a weighted l1 ball;
    substituting ``z_i = c_i a_i`` turns the constraint into a plain l1 ball
    and the problem is solved by 300 steps of accelerated projected gradient.
    """
    n = act.shape[1]
    keep = costs > 1e-12
    D = np.divide(act, (costs * m)[:, None, :], out=np.zeros_like(act),
                  where=keep[:, None, :])
    DT = np.swapaxes(D, 1, 2)
    norm = lambda v: np.sqrt((v[:, None, :] @ v[:, :, None])[:, 0, 0])  # np.linalg.norm per row
    # Lipschitz constant of the gradient via a few power iterations; a row
    # that reaches the zero vector stays there
    v = np.full(costs.shape, 1.0 / math.sqrt(m))
    for _ in range(25):
        v = (DT @ (D @ v[..., None]))[..., 0]
        nv = norm(v)
        v /= np.where(nv == 0, 1.0, nv)[:, None]
    # 1.3 safety factor: the power estimate can undershoot the top singular
    # value, and an overestimated step size would make the iteration diverge
    L = 1.3 * 2.0 * np.maximum(norm((D @ v[..., None])[..., 0]) ** 2, 1e-12) / n
    radius = t * m
    z = _project_l1_ball(a0 * costs, radius)
    zp = z.copy()
    tk = 1.0
    for _ in range(300):
        w = z + ((tk - 1) / (tk + 1)) * (z - zp)
        grad = 2.0 * (DT @ ((D @ w[..., None])[..., 0] - y)[..., None])[..., 0] / n
        zp = z
        z = _project_l1_ball(w - grad / L[:, None], radius)
        tk += 1.0
    return np.divide(z, costs, out=np.zeros_like(z), where=keep)


def _stack(nets):
    return [np.stack([getattr(net, f) for net in nets]) for f in ("outer", "inner", "bias")]


def _fit_restarts(target, t, width, config, X, y, seed) -> list:
    """Every restart of projected Adam on the shared quadrature set as one
    stacked batch, the step size cosine-annealed from 0.08 to 1e-3.  Restart
    r starts from ``spawn_rng(seed, r)`` and does the arithmetic of a lone
    fit.  Entry r is its best candidate and loss, or None when its loss
    turned non-finite and it was dropped."""
    a, W, b = _stack([_init_network(width, target.d, t, spawn_rng(seed, r))
                      for r in range(config.restarts)])
    state = [np.zeros_like(p) for p in (a, W, b)]
    state2 = [np.zeros_like(p) for p in (a, W, b)]
    beta1, beta2, eps = 0.9, 0.999, 1e-8
    alive = np.arange(config.restarts)      # restart of each row of a, W, b
    best_loss = np.full(config.restarts, np.inf)
    best = [a.copy(), W.copy(), b.copy()]   # indexed by restart
    for step in range(config.steps):
        loss, _, grads = _relu_loss(a, W, b, X, y, grad=True)
        ok = np.isfinite(loss)
        if not ok.all():  # drop the restarts whose loss turned non-finite
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
        # radial projection back onto the budget ball; path_norm's arithmetic
        pn = np.sum(np.abs(a) * (np.abs(W).sum(axis=-1) + np.abs(b)), axis=-1) / width
        over = (pn > t) & (pn > 0)
        a[over] *= (t / pn[over])[:, None]
    # per restart: the best iterate, its L-BFGS polish and the last iterate,
    # each projected and then refit, all 3R candidates in one batch
    cands = []
    for row, r in enumerate(alive):
        kept = tuple(p[r] for p in best)
        polished = _lbfgs_polish(*kept, X=X, y=y, maxiter=config.polish_iters) \
            if config.polish_iters else kept
        for params in (kept, polished, (a[row], W[row], b[row])):
            cands.append(project_path_norm(TwoLayerNetwork(*params, RELU, averaged=True), t))
    outer, inner, bias = _stack(cands)
    loss, act, _ = _relu_loss(outer, inner, bias, X, y)
    # convex polish: with these features frozen, the outer layer solves a
    # budgeted least-squares problem exactly
    costs = np.abs(inner).sum(axis=-1) + np.abs(bias)
    a_star = _refit_outer(act, y, costs, width, t, outer)
    refit_loss = _relu_loss(a_star, inner, bias, X, y)[0]
    winners = [None] * config.restarts
    for row, r in enumerate(alive):
        finals = [pair for k in range(3 * row, 3 * row + 3) for pair in (
            (cands[k], loss[k]),
            (TwoLayerNetwork(a_star[k], inner[k], bias[k], RELU, averaged=True), refit_loss[k]))]
        winners[r] = min(finals, key=lambda c: c[1])
    return winners


def fit_constrained(target: TargetFunction, t: float, width: int = 64,
                    config: Optional[FitConfig] = None, seed: int = 0,
                    quad_seed: Optional[int] = None,
                    init_net: Optional[TwoLayerNetwork] = None) -> FitResult:
    """Best-of-multi-start constrained fit; returns an upper bound on the
    true minimal L2 error at budget t.

    ``init_net`` (projected onto the budget) joins the candidate pool, which
    makes warm-started sweeps monotone by construction.  ``quad_seed``
    selects the quadrature point set; sweeps over t share it.
    """
    if width < 1:
        raise TargetError("width must be >= 1")
    if not math.isfinite(t) or t < 0:
        raise TargetError(f"budget t must be finite and nonnegative, got {t}")
    config = config or FitConfig()
    quad_seed = seed if quad_seed is None else quad_seed
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
    assert path_norm(net) <= t * (1 + 1e-9) + 1e-12
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


def rho_curve(target: TargetFunction, t_grid: Sequence[float], width: int = 64,
              config: Optional[FitConfig] = None, seed: int = 0) -> WidthCurve:
    """Upper-bound curve of best errors over an increasing budget grid.

    One quadrature set is shared across the grid, and each budget is warm
    started from the previous solution, so the curve is nonincreasing by
    construction.  The tail decay exponent is fitted on the upper half of
    the grid (positive errors only).
    """
    t_grid = list(t_grid)
    if any(b <= a for a, b in zip(t_grid, t_grid[1:])):
        raise TargetError("t_grid must be strictly increasing")
    config = config or FitConfig()
    quad_seed = seed
    points: List[CurvePoint] = []
    prev: Optional[TwoLayerNetwork] = None
    for i, t in enumerate(t_grid):
        res = fit_constrained(target, t, width, config, seed=seed + 1000 * i,
                              quad_seed=quad_seed, init_net=prev)
        prev = res.net
        # standard error of the squared-error estimate, propagated to the norm
        _, se_sq = l2_error(res.net, target, config.quadrature, seed=quad_seed)
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

