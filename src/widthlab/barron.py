"""Finite two-layer networks and their complexity measures.

Data space is ``[-1,1]^d`` (or ``[0,1]^d``) with the sup norm; inner weights
are measured in the dual l1 norm throughout (``q=1``), with ``q=2``
available.  The path norm of a network ``f(x) = (1/m) sum a_i s(w_i.x+b_i)``
is ``(1/m) sum |a_i| (|w_i|_q + off(b_i))`` where the offset term is ``|b|``
for relu and ``1`` for the bounded sigmoidal tanh.  The path norm is the
complexity proxy that drives every bound in this module:

- Rademacher complexity of the unit relu path-norm ball is estimated
  empirically (supremum over signed normalized single neurons, the extreme
  points of the ball) and compared against the closed form
  ``2 sqrt(2 log(2d) / n)``.
- On ``[0,1]`` the representation cost is equivalent to
  ``|f(0)| + |f'(0)| + total variation of f'``; ``bv_norm_1d`` computes it
  and ``canonical_network_1d`` materializes the witnessing network.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .util import OptimizationError, as_points, spawn_rng

__all__ = [
    "ActivationSpec",
    "TwoLayerNetwork",
    "path_norm",
    "rademacher_bound",
    "rademacher_estimate",
    "RademacherEstimate",
    "PiecewiseLinear1D",
    "bv_norm_1d",
    "canonical_network_1d",
]


# ---------------------------------------------------------------------------
# Activations
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ActivationSpec:
    """Activation with its path-weight offset rule.

    ``kind`` is one of ``"relu"`` (positively 1-homogeneous, offset |b|) or
    ``"tanh"`` (bounded sigmoidal, offset 1); both are 1-Lipschitz.
    """

    kind: str

    def __post_init__(self):
        if self.kind not in ("relu", "tanh"):
            raise ValueError(f"unknown activation {self.kind!r}")

    def apply(self, z):
        if self.kind == "relu":
            return np.maximum(z, 0.0)
        return np.tanh(z)

    def path_offset(self, b):
        """Contribution of the bias to the per-neuron path weight."""
        if self.kind == "relu":
            return np.abs(b)
        return np.ones_like(np.asarray(b, dtype=float))


RELU = ActivationSpec("relu")
TANH = ActivationSpec("tanh")


# ---------------------------------------------------------------------------
# Networks
# ---------------------------------------------------------------------------


@dataclass
class TwoLayerNetwork:
    """``f(x) = (1/m) sum_i a_i s(w_i . x + b_i)`` (the 1/m factor only when
    ``averaged``)."""

    outer: np.ndarray          # (m,)
    inner: np.ndarray          # (m, d)
    bias: np.ndarray           # (m,)
    activation: ActivationSpec
    averaged: bool

    def __post_init__(self):
        self.outer = np.atleast_1d(np.asarray(self.outer, dtype=float))
        self.inner = np.asarray(self.inner, dtype=float)
        if self.inner.ndim == 1:
            self.inner = self.inner.reshape(len(self.outer), -1)
        self.bias = np.atleast_1d(np.asarray(self.bias, dtype=float))
        if not (len(self.outer) == self.inner.shape[0] == len(self.bias)):
            raise ValueError("outer, inner, bias must agree on the number of neurons")

    @property
    def width(self) -> int:
        return len(self.outer)

    @property
    def dim(self) -> int:
        return self.inner.shape[1] if self.width else 0

    def evaluate(self, x):
        x = np.asarray(x, dtype=float)
        single = x.ndim == 1
        X = x.reshape(1, -1) if single else x
        if self.width == 0:
            out = np.zeros(X.shape[0])
        else:
            pre = X @ self.inner.T + self.bias
            out = self.activation.apply(pre) @ self.outer
            if self.averaged:
                out = out / self.width
        return float(out[0]) if single else out

    def scale_outer(self, factor: float) -> "TwoLayerNetwork":
        return TwoLayerNetwork(self.outer * factor, self.inner.copy(), self.bias.copy(),
                               self.activation, self.averaged)

    @classmethod
    def from_dict(cls, payload: dict) -> "TwoLayerNetwork":
        """Network from its wire format,
        ``{"activation": ..., "averaged": ..., "neurons": [[a, [w...], b], ...]}``;
        ``averaged`` is a JSON boolean (true when absent).  A malformed
        payload raises ValueError naming the bad field."""
        if not isinstance(payload, dict):
            raise ValueError(
                f"a network payload must be a JSON object, not {type(payload).__name__}")
        kind = payload.get("activation", "relu")
        act = {"relu": RELU, "tanh": TANH}.get(kind) if isinstance(kind, str) else None
        if act is None:
            raise ValueError(f"unsupported activation in network payload: {kind!r}")
        averaged = payload.get("averaged", True)
        if not isinstance(averaged, bool):
            raise ValueError(
                f"network payload: 'averaged' must be true or false, got {averaged!r}")
        neurons = payload.get("neurons")
        bad = ValueError("network payload: 'neurons' must be a list of [a, [w...], b] "
                         "triples of finite numbers")
        if not isinstance(neurons, list) or not all(
                isinstance(n, list) and len(n) == 3 for n in neurons):
            raise bad
        if not neurons:
            return cls(np.zeros(0), np.zeros((0, 0)), np.zeros(0), act, averaged)
        try:
            outer, inner, bias = (np.array(column, dtype=float) for column in zip(*neurons))
        except (TypeError, ValueError):  # a string, an object or a ragged list
            raise bad from None
        # w may be a bare number (d = 1); a null reads as nan
        if outer.ndim != 1 or inner.ndim > 2 or bias.ndim != 1 or not all(
                np.isfinite(v).all() for v in (outer, inner, bias)):
            raise bad
        return cls(outer, inner, bias, act, averaged)


def path_norm(net: TwoLayerNetwork, q: int = 1) -> float:
    """``(1/m) sum |a_i| (|w_i|_q + off(b_i))``, the width-free complexity."""
    if q not in (1, 2):
        raise ValueError("q must be 1 or 2")
    if net.width == 0:
        return 0.0
    wnorm = np.abs(net.inner).sum(axis=1) if q == 1 else np.sqrt((net.inner**2).sum(axis=1))
    total = float(np.sum(np.abs(net.outer) * (wnorm + net.activation.path_offset(net.bias))))
    return total / net.width if net.averaged else total


# ---------------------------------------------------------------------------
# Rademacher complexity of the unit path-norm ball
# ---------------------------------------------------------------------------


def rademacher_bound(n: int, d: int) -> float:
    """Closed-form bound ``2 sqrt(2 log(2d) / n)`` on signed empirical means
    over the unit relu path-norm ball, for samples inside [-1,1]^d."""
    if n < 1 or d < 1:
        raise ValueError("n and d must be positive")
    return 2.0 * math.sqrt(2.0 * math.log(2.0 * d) / n)


@dataclass
class RademacherEstimate:
    estimate: float            # average of the per-draw suprema
    bound: float               # closed-form bound
    draws: np.ndarray          # per-draw suprema

    @property
    def violations(self) -> int:
        return int(np.sum(self.draws > self.bound))


_ASCENT_STEPS = 60  # projected ascent steps per start and sign
# Largest n x columns of one batched ascent.  Whole draws fill a chunk up to
# it; a wider ``X.T @ mask`` switches OpenBLAS's gemm kernel, which changes
# the last bit of the draws and costs memory for no speed.
_CHUNK_ELEMENTS = 2**17


def _sup_relu_draws(X, draws, restarts, rng):
    """Per sign draw, max over normalized relu neurons +-s(w.x+b)/(|w|_1+|b|)
    of the signed empirical mean.

    Projected subgradient ascent on the l1 sphere of (w, b); the normalized
    objective is scale-free by positive homogeneity, so the projection is a
    radial rescale.  Every (sign, draw, start) is a column of one batch and
    does the arithmetic of a lone ascent.
    """
    n, d = X.shape
    s = restarts + 4
    xis, starts = np.empty((draws, n)), np.zeros((draws, s, d + 1))
    for xi, W in zip(xis, starts):
        xi[:] = rng.choice([-1.0, 1.0], size=n)
        W[:restarts] = rng.standard_normal((restarts, d + 1))
        W[:restarts] /= np.abs(W[:restarts]).sum(axis=1, keepdims=True)
        # deterministic starts: the best vertex of the l1 ball for the linear
        # relaxation sup_{|w|_1<=1} w.(mean of xi_i x_i), and the constant neuron
        lin = X.T @ xi / n
        j = int(np.argmax(np.abs(lin)))
        sj = np.sign(lin[j]) or 1.0
        W[restarts:][[0, 1, 2, 3], [j, j, d, d]] = [sj, -sj, 1.0, -1.0]
    P = np.tile(starts.reshape(draws * s, d + 1), (2, 1))  # columns (sign, draw, start)
    signed_xi = np.tile(np.repeat(xis.T, s, axis=1), 2)
    scale = np.repeat([1.0 / n, -1.0 / n], draws * s)[:, None]
    step = 0.5
    for _ in range(_ASCENT_STEPS):
        pre = X @ P[:, :d].T + P[:, d]
        mask = (pre > 0).astype(float) * signed_xi
        grad = np.column_stack([(X.T @ mask).T, mask.sum(axis=0)]) * scale
        P = P + step * grad
        norms = np.abs(P).sum(axis=1, keepdims=True)
        norms[norms == 0.0] = 1.0
        P /= norms
        step *= 0.93
    relu = np.maximum(X @ P[:, :d].T + P[:, d], 0.0)
    best = np.zeros(draws)
    for c in range(2 * draws):
        # one product per draw and sign: a batched einsum differs in the last bit
        sign, i = (1.0, c) if c < draws else (-1.0, c - draws)
        vals = sign * (xis[i] @ relu[:, c * s:(c + 1) * s]) / n
        if not np.all(np.isfinite(vals)):
            raise OptimizationError("non-finite objective in rademacher ascent")
        best[i] = max(best[i], float(vals.max()))
    return best


def rademacher_estimate(sample, restarts: int, seed: int,
                        sign_draws: int) -> RademacherEstimate:
    """Monte-Carlo Rademacher complexity of the unit relu path-norm ball.

    For each sign vector the supremum over the ball is reduced to signed
    normalized single neurons (the ball's extreme points) and maximized by
    multi-start ascent (60 steps), whole draws batched into one ascent up to
    ``_CHUNK_ELEMENTS``.  The returned per-draw values are optimizer lower
    bounds on the true suprema; each must stay below the closed-form bound.
    """
    X = as_points(sample)
    if X.size == 0:
        raise ValueError("sample must be nonempty")
    if restarts < 1:
        raise ValueError("restarts must be >= 1")
    if sign_draws < 1:
        raise ValueError("sign_draws must be >= 1")
    n, d = X.shape
    rng = spawn_rng(seed, n, d)
    chunk = max(1, _CHUNK_ELEMENTS // (n * 2 * (restarts + 4)))
    draws = np.concatenate([_sup_relu_draws(X, min(chunk, sign_draws - lo), restarts, rng)
                            for lo in range(0, sign_draws, chunk)])
    return RademacherEstimate(estimate=float(draws.mean()),
                              bound=rademacher_bound(n, d), draws=draws)


# ---------------------------------------------------------------------------
# One-dimensional second-derivative norm
# ---------------------------------------------------------------------------


@dataclass
class PiecewiseLinear1D:
    """Continuous piecewise-linear function on [0,1]: knots (0=t0<...<tM=1)
    and values at the knots."""

    knots: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        self.knots = np.asarray(self.knots, dtype=float)
        self.values = np.asarray(self.values, dtype=float)
        if self.knots[0] != 0.0 or self.knots[-1] != 1.0 or np.any(np.diff(self.knots) <= 0):
            raise ValueError("knots must increase strictly from 0 to 1")
        if len(self.knots) != len(self.values):
            raise ValueError("knots and values must have equal length")

    @property
    def slopes(self) -> np.ndarray:
        return np.diff(self.values) / np.diff(self.knots)

    @classmethod
    def from_network(cls, net: TwoLayerNetwork) -> "PiecewiseLinear1D":
        """Exact piecewise-linear form of a one-dimensional relu network."""
        if net.activation.kind != "relu" or net.dim not in (0, 1):
            raise ValueError("exact conversion needs a 1D relu network")
        kinks = []
        for w, b in zip(net.inner.ravel(), net.bias):
            if w != 0.0:
                t = -b / w
                if 0.0 < t < 1.0:
                    kinks.append(t)
        knots = np.unique(np.concatenate([[0.0, 1.0], np.asarray(kinks, dtype=float)]))
        return cls(knots=knots, values=np.asarray(net.evaluate(knots.reshape(-1, 1))))

    def integral(self) -> float:
        """Exact integral over [0,1] (trapezoid is exact per linear segment)."""
        return float(np.sum(np.diff(self.knots) * (self.values[:-1] + self.values[1:]) / 2.0))


def bv_norm_1d(f: PiecewiseLinear1D) -> float:
    """``|f(0)| + |f'(0+)| + sum of |slope jumps|`` on [0,1].

    The jump sum is the total variation of f', i.e. the total mass of f''.
    Equivalent, with explicit constants tested in both directions, to the
    minimal network representation cost on [0,1].
    """
    s = f.slopes
    jumps = float(np.abs(np.diff(s)).sum()) if len(s) > 1 else 0.0
    return float(abs(f.values[0]) + abs(s[0]) + jumps)


def canonical_network_1d(f: PiecewiseLinear1D) -> TwoLayerNetwork:
    """Explicit relu representation ``f(0) s(1) + f'(0) s(x) + sum_j d_j s(x - t_j)``.

    Reproduces f exactly on [0,1]; its path norm is
    ``|f(0)| + |f'(0)| + sum |d_j| (1 + t_j)``, which sits between one and
    two times :func:`bv_norm_1d`.
    """
    s = f.slopes
    outer = [float(f.values[0]), float(s[0])]
    inner = [[0.0], [1.0]]
    bias = [1.0, 0.0]
    for t, d in zip(f.knots[1:-1], np.diff(s)):
        outer.append(float(d))
        inner.append([1.0])
        bias.append(-float(t))
    return TwoLayerNetwork(np.array(outer), np.array(inner), np.array(bias),
                           RELU, averaged=False)
