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
    "certificate_consistency",
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
    if kind == "mc":
        return spawn_rng(seed).random((int(size), d))
    if kind == "grid":
        res = int(size)
        if res**d > 2_000_000:
            raise TargetError(f"grid {res}^{d} too large")
        return midpoint_grid(d, res)
    raise TargetError(f"unknown quadrature kind {kind!r}")


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


def _relu_loss(a, W, b, X, y, grad=False):
    """``(loss, act, grads)`` of ``f = relu(X W^T + b) a / m`` against y: the
    mean squared residual, the hidden activations and, when ``grad`` is set,
    ``(d/da, d/dW, d/db)`` (relu' is 0 at 0), else None."""
    m, n = a.shape[0], X.shape[0]
    pre = X @ W.T + b
    act = np.maximum(pre, 0.0)
    resid = act @ a / m - y
    loss = float(resid @ resid) / n
    if not grad:
        return loss, act, None
    g_common = 2.0 * resid / (n * m)
    mask = (pre > 0) * (g_common[:, None] * a[None, :])
    return loss, act, (act.T @ g_common, mask.T @ X, mask.sum(axis=0))


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
    """Euclidean projection onto the l1 ball of the given radius."""
    if radius <= 0:
        return np.zeros_like(v)
    a = np.abs(v)
    if a.sum() <= radius:
        return v.copy()
    u = np.sort(a)[::-1]
    css = np.cumsum(u)
    rho = np.nonzero(u * np.arange(1, len(u) + 1) > (css - radius))[0][-1]
    theta = (css[rho] - radius) / (rho + 1.0)
    return np.sign(v) * np.maximum(a - theta, 0.0)


def _refit_outer(act: np.ndarray, y: np.ndarray, costs: np.ndarray, m: int,
                 t: float, a0: np.ndarray) -> np.ndarray:
    """Convex refit of the outer weights with the path-norm budget.

    With inner weights frozen, minimizing the quadratic loss subject to
    ``(1/m) sum c_i |a_i| <= t`` is least squares over a weighted l1 ball;
    substituting ``z_i = c_i a_i`` turns the constraint into a plain l1 ball
    and the problem is solved by 300 steps of accelerated projected gradient.
    """
    n = act.shape[0]
    keep = costs > 1e-12
    D = np.zeros_like(act)
    D[:, keep] = act[:, keep] / (costs[keep] * m)
    # Lipschitz constant of the gradient via a few power iterations
    v = np.ones(D.shape[1]) / math.sqrt(D.shape[1])
    for _ in range(25):
        v = D.T @ (D @ v)
        nv = np.linalg.norm(v)
        if nv == 0:
            break
        v /= nv
    # 1.3 safety factor: the power estimate can undershoot the top singular
    # value, and an overestimated step size would make the iteration diverge
    L = 1.3 * 2.0 * max(float(np.linalg.norm(D @ v) ** 2), 1e-12) / n
    radius = t * m
    z = _project_l1_ball(a0 * costs, radius)
    zp = z.copy()
    tk = 1.0
    for _ in range(300):
        w = z + ((tk - 1) / (tk + 1)) * (z - zp)
        grad = 2.0 * (D.T @ (D @ w - y)) / n
        zp = z
        z = _project_l1_ball(w - grad / L, radius)
        tk += 1.0
    a = np.zeros_like(z)
    a[keep] = z[keep] / costs[keep]
    return a


def _adam_fit(target, t, width, config, X, y, rng) -> Tuple[TwoLayerNetwork, float]:
    """One restart of projected Adam on the shared quadrature set, its step
    size cosine-annealed from 0.08 to 1e-3."""
    net = _init_network(width, target.d, t, rng)
    a, W, b = net.outer.copy(), net.inner.copy(), net.bias.copy()
    state = [np.zeros_like(p) for p in (a, W, b)]
    state2 = [np.zeros_like(p) for p in (a, W, b)]
    beta1, beta2, eps = 0.9, 0.999, 1e-8
    best_loss, best = np.inf, None
    for step in range(config.steps):
        loss, _, grads = _relu_loss(a, W, b, X, y, grad=True)
        if not math.isfinite(loss):
            raise OptimizationError("non-finite loss")
        if loss < best_loss:
            best_loss, best = loss, (a.copy(), W.copy(), b.copy())
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
        pn = float(np.sum(np.abs(a) * (np.abs(W).sum(axis=1) + np.abs(b)))) / width
        if pn > t and pn > 0:
            a *= t / pn
    polished = _lbfgs_polish(*best, X=X, y=y, maxiter=config.polish_iters) \
        if config.polish_iters else best
    finals = []
    for params in (best, polished, (a, W, b)):
        cand = project_path_norm(TwoLayerNetwork(*params, RELU, averaged=True), t)
        loss, act, _ = _relu_loss(cand.outer, cand.inner, cand.bias, X, y)
        finals.append((cand, loss))
        # convex polish: with these features frozen, the outer layer solves a
        # budgeted least-squares problem exactly
        costs = np.abs(cand.inner).sum(axis=1) + np.abs(cand.bias)
        a_star = _refit_outer(act, y, costs, width, t, cand.outer)
        refit = TwoLayerNetwork(a_star, cand.inner.copy(), cand.bias.copy(),
                                RELU, averaged=True)
        finals.append((refit, _relu_loss(a_star, refit.inner, refit.bias, X, y)[0]))
    return min(finals, key=lambda c: c[1])


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
        failures = 0
        for r in range(config.restarts):
            rng = spawn_rng(seed, r)
            try:
                candidates.append(_adam_fit(target, t, width, config, X, y, rng))
            except OptimizationError:
                failures += 1
        if failures == config.restarts:
            raise OptimizationError("every restart produced non-finite losses")
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

    def errors(self) -> np.ndarray:
        return np.array([p.error for p in self.samples])


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
