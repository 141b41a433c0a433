"""Constrained approximation probe: projection, quadrature, curves."""

import dataclasses
from fractions import Fraction

import numpy as np
import pytest
from scipy.optimize import OptimizeResult

from widthlab import widthprobe
from widthlab.barron import RELU, OptimizationError, TwoLayerNetwork, path_norm
from widthlab.widthprobe import (
    FitConfig,
    TargetError,
    TargetFunction,
    WidthCurve,
    CurvePoint,
    fit_constrained,
    l2_error,
    project_path_norm,
    rho_curve,
)
from widthlab.widthprobe import _relu_loss
from widthlab.util import spawn_rng

from oracles import (
    certificate_consistency,
    fit_restarts_per_array,
    higham_gamma,
    init_network_per_array,
    lbfgs_polish,
    refit_certificate,
    refit_outer_brute_force,
)

FAST = FitConfig(steps=250, restarts=2, quadrature=("mc", 1024), polish_iters=50)
#: the width subcommand's fit budget (``cli``'s flag defaults and its polish)
CLI_FIT = {"steps": 600, "restarts": 6, "quadrature": ("mc", 2048), "polish_iters": 300}


def make_target_net(rng, d, width=3):
    return TwoLayerNetwork(rng.standard_normal(width), rng.standard_normal((width, d)),
                           rng.uniform(-0.5, 0.5, width), RELU, averaged=True)


def holds_lipschitz(target, L, seed):
    """``|f(x) - f(y)| <= L |x - y|_inf`` on 10^4 random pairs of the cube,
    up to a 1e-9 slack."""
    rng = spawn_rng(seed)
    X = rng.random((10_000, target.d))
    Y = rng.random((10_000, target.d))
    num = np.abs(np.asarray(target.fn(X)) - np.asarray(target.fn(Y)))
    den = np.max(np.abs(X - Y), axis=1)
    return bool(np.all(num <= L * den * (1 + 1e-9) + 1e-9))


class TestTargets:
    def test_distance_target_is_one_lipschitz(self):
        rng = np.random.default_rng(0)
        target = TargetFunction.distance_to_point_set(rng.random((5, 3)))
        assert holds_lipschitz(target, 1.0, seed=1)

    def test_barron_target_constant_from_path_norm(self):
        rng = np.random.default_rng(1)
        net = make_target_net(rng, 2)
        target = TargetFunction.barron_explicit(net)
        assert target.d == 2
        assert holds_lipschitz(target, path_norm(net), seed=3)


class TestProjection:
    def test_noop_inside_ball(self):
        rng = np.random.default_rng(2)
        net = make_target_net(rng, 2)
        out = project_path_norm(net, path_norm(net) * 2)
        assert out is net

    def test_rescales_onto_sphere_keeping_direction(self):
        rng = np.random.default_rng(3)
        net = make_target_net(rng, 2)
        t = path_norm(net) / 3
        out = project_path_norm(net, t)
        assert path_norm(out) == pytest.approx(t, rel=1e-12)
        ratio = out.outer / net.outer
        np.testing.assert_allclose(ratio, ratio[0], rtol=1e-12)
        np.testing.assert_array_equal(out.inner, net.inner)


class TestL2Error:
    def test_identical_networks_zero(self):
        rng = np.random.default_rng(4)
        net = make_target_net(rng, 2)
        target = TargetFunction.barron_explicit(net)
        val, _ = l2_error(net, target, ("mc", 512), seed=0)
        assert val == 0.0

    def test_exact_piecewise_integral_1d(self):
        """Simpson grid matches the exact segment-wise integral of the
        squared piecewise-linear residual to 1e-10."""
        rng = np.random.default_rng(5)
        net = make_target_net(rng, 1, width=4)
        tgt_net = make_target_net(rng, 1, width=3)
        target = TargetFunction.barron_explicit(tgt_net)

        # oracle: merge kinks, integrate the quadratic exactly per segment
        kinks = [0.0, 1.0]
        for f in (net, tgt_net):
            for w, b in zip(f.inner.ravel(), f.bias):
                if w != 0 and 0 < -b / w < 1:
                    kinks.append(-b / w)
        xs = np.unique(np.asarray(kinks))
        vals = net.evaluate(xs.reshape(-1, 1)) - tgt_net.evaluate(xs.reshape(-1, 1))
        exact = 0.0
        for i in range(len(xs) - 1):
            v0, v1 = vals[i], vals[i + 1]
            exact += (xs[i + 1] - xs[i]) * (v0 * v0 + v0 * v1 + v1 * v1) / 3.0

        val, se = l2_error(net, target, ("grid", 1 << 17), seed=0)
        assert se == 0.0
        assert val == pytest.approx(exact, abs=1e-10)

    @pytest.mark.parametrize("size", [0, -3])
    def test_empty_1d_grid_rejected(self, size):
        """The 1-D grid takes its own Simpson path; it checks the size too."""
        net = make_target_net(np.random.default_rng(6), 1)
        target = TargetFunction.barron_explicit(make_target_net(np.random.default_rng(7), 1))
        with pytest.raises(TargetError, match=f"quadrature size must be >= 1, got {size}"):
            l2_error(net, target, ("grid", size), seed=0)

    def test_grid_and_mc_agree_within_3se(self):
        rng = np.random.default_rng(6)
        for d in (1, 2, 3):
            net = make_target_net(rng, d)
            target = TargetFunction.distance_to_point_set(rng.random((3, d)))
            g, _ = l2_error(net, target, ("grid", 24 if d == 3 else 64), seed=0)
            m, se = l2_error(net, target, ("mc", 20_000), seed=7)
            assert abs(g - m) <= 3 * se + 2e-4

    def test_mc_error_bar_scaling(self):
        rng = np.random.default_rng(7)
        net = make_target_net(rng, 2)
        target = TargetFunction.distance_to_point_set(rng.random((2, 2)))
        _, se1 = l2_error(net, target, ("mc", 4096), seed=8)
        _, se2 = l2_error(net, target, ("mc", 8192), seed=8)
        assert se2 / se1 == pytest.approx(1 / np.sqrt(2), rel=0.2)


class TestReluLoss:
    def test_gradients_match_central_differences(self):
        rng = np.random.default_rng(11)
        m, d, n = 5, 3, 40
        a, W, b = rng.standard_normal(m), rng.standard_normal((m, d)), rng.standard_normal(m)
        X, y = rng.random((n, d)), rng.standard_normal(n)
        # no pre-activation within reach of a kink, so the loss is smooth
        assert np.min(np.abs(X @ W.T + b)) > 1e-3
        P = np.concatenate([a, W.ravel(), b])
        X1 = np.vstack([X.T, np.ones(n)])             # the fit's [X | 1]^T
        loss, act, grad = _relu_loss(P, m, X1, y, grad=True)
        net = TwoLayerNetwork(a, W, b, RELU, averaged=True)
        assert loss == pytest.approx(np.mean((net.evaluate(X) - y) ** 2), rel=1e-12)
        # points last: act[i, k] is relu(w_i . x_k + b_i), a sum of d + 1
        # products, within gamma_(d+1) of the exact value (Higham, Thm 3.1)
        exact = np.array([[max(sum(Fraction(float(v)) * Fraction(float(u))
                                   for v, u in zip(np.append(W[i], b[i]), X1[:, k])), 0)
                           for k in range(n)] for i in range(m)], dtype=float)
        assert act.shape == (m, n)
        bound = higham_gamma(d + 1) * (np.abs(np.column_stack([W, b])) @ np.abs(X1))
        assert np.all(np.abs(act - exact) <= bound)
        assert _relu_loss(P, m, X1, y)[2] is None
        h = 1e-6
        assert grad.shape == P.shape
        fd = np.empty_like(P)
        for i in range(len(P)):
            orig = P[i]
            P[i] = orig + h
            up = _relu_loss(P, m, X1, y)[0]
            P[i] = orig - h
            down = _relu_loss(P, m, X1, y)[0]
            P[i] = orig
            fd[i] = (up - down) / (2 * h)
        np.testing.assert_allclose(grad, fd, rtol=1e-6, atol=1e-9)


class TestFitConstrained:
    def test_zero_budget_returns_zero_network(self):
        target = TargetFunction.custom(lambda X: np.abs(X[:, 0] - 0.5), 1)
        res = fit_constrained(target, t=0.0, width=8, config=FAST,
                              seed=0, quad_seed=0, init_net=None)
        assert path_norm(res.net) == 0.0
        # error equals the target's L2 norm on the quadrature set
        val, _ = l2_error(res.net, target, FAST.quadrature, seed=0)
        assert res.error == pytest.approx(np.sqrt(val), rel=1e-12)

    def test_constraint_satisfied(self):
        rng = np.random.default_rng(8)
        target = TargetFunction.distance_to_point_set(rng.random((2, 2)))
        for t in (0.1, 0.7, 2.3):
            res = fit_constrained(target, t=t, width=12, config=FAST,
                                  seed=1, quad_seed=1, init_net=None)
            assert path_norm(res.net) <= t * (1 + 1e-9)

    def test_representable_target_recovered(self):
        rng = np.random.default_rng(9)
        net = make_target_net(rng, 1)
        target = TargetFunction.barron_explicit(net)
        cfg = FitConfig(steps=400, restarts=3, quadrature=("mc", 2048), polish_iters=300)
        res = fit_constrained(target, t=2 * path_norm(net), width=24, config=cfg,
                              seed=2, quad_seed=2, init_net=None)
        assert res.error <= 1e-3

    def test_absolute_distance_two_neuron_budget(self):
        """|x - 1/2| has an exact 2-neuron form with path norm 3, so budgets
        beyond 3 drive the error to optimizer precision."""
        target = TargetFunction.custom(lambda X: np.abs(X[:, 0] - 0.5), 1)
        cfg = FitConfig(steps=400, restarts=3, quadrature=("mc", 2048), polish_iters=300)
        res = fit_constrained(target, t=3.0, width=24, config=cfg,
                              seed=3, quad_seed=3, init_net=None)
        assert res.error <= 1e-3

    @pytest.mark.parametrize("kwargs", [{"steps": 0}, {"restarts": 0}, {"steps": -2}])
    def test_config_without_steps_or_restarts_rejected(self, kwargs):
        with pytest.raises(TargetError, match="steps and restarts"):
            FitConfig(**{**CLI_FIT, **kwargs})

    def test_negative_polish_iters_rejected(self):
        with pytest.raises(TargetError, match="polish_iters"):
            FitConfig(**{**CLI_FIT, "polish_iters": -1})

    @pytest.mark.parametrize("kind", ["mc", "grid"])
    def test_empty_quadrature_rejected(self, kind):
        target = TargetFunction.custom(lambda X: X[:, 0], 2)
        cfg = dataclasses.replace(FAST, quadrature=(kind, 0))
        with pytest.raises(TargetError, match="quadrature size"):
            fit_constrained(target, t=1.0, width=4, config=cfg, seed=0, quad_seed=0, init_net=None)

    @pytest.mark.parametrize("t", [float("nan"), float("inf")])
    def test_non_finite_budget_rejected(self, t):
        target = TargetFunction.custom(lambda X: X[:, 0], 1)
        with pytest.raises(TargetError, match="finite"):
            fit_constrained(target, t=t, width=4, config=FAST, seed=0, quad_seed=0, init_net=None)


def refit_instance(kind, seed):
    """One network's refit data ``(act, y, costs, m, t)``: points-last
    activations (m, n) of m <= 5 neurons at n = 40 points, with the
    degeneracy that ``kind`` names."""
    rng = np.random.default_rng(seed)
    m = 5 if kind != "random" else int(rng.integers(1, 6))
    act = np.maximum(rng.standard_normal((m, 40)), 0.0)
    y = rng.standard_normal(40)
    costs = rng.uniform(0.5, 2.0, m)
    t = float(rng.uniform(0.1, 1.0))
    if kind == "duplicate":            # the same neuron twice: equal Gram rows
        act[3], costs[3] = act[1], costs[1]
    elif kind == "dead":               # an all-zero activation column
        act[2] = 0.0
    elif kind == "affine":             # act[4] in the span of act[0:3]
        act[4] = 0.5 * act[0] + act[1] + 0.25 * act[2]
    elif kind == "loose":              # budget above the least-squares l1 norm
        t = 1e3
    elif kind == "tiny":
        t = 1e-6
    return act, y, costs, m, t


class TestRefitOuter:
    """The outer refit is exact: against every support and sign pattern
    (``oracles.refit_outer_brute_force``) its value agrees within the
    float-error allowance of the certificate, it stays in the ball, and its
    Frank-Wolfe gap is within that allowance."""

    KINDS = ["random", "duplicate", "dead", "affine", "loose", "tiny"]

    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize("kind", KINDS)
    def test_matches_brute_force(self, kind, seed):
        act, y, costs, m, t = refit_instance(kind, seed)
        outer = widthprobe._refit_outer(act[None], y, costs[None], m, t)
        brute = refit_outer_brute_force(act, y, costs, m, t)[None]
        gap, allow, value = (v[0] for v in refit_certificate(act[None], y, costs[None], m, t,
                                                             outer))
        gap_b, allow_b, value_b = (v[0] for v in refit_certificate(act[None], y, costs[None],
                                                                   m, t, brute))
        assert np.abs(outer[0] * costs).sum() <= t * m * (1 + higham_gamma(m + 3))
        assert gap <= allow
        # each value is within half its allowance of the exact one, and the
        # exact values differ by at most the exact gap of the larger, which
        # is within its allowance of the computed gap
        assert value - value_b <= gap + allow + (allow + allow_b) / 2
        assert value_b - value <= gap_b + allow_b + (allow + allow_b) / 2
        if kind == "dead":
            assert outer[0, 2] == 0.0

    def test_rows_match_lone_calls(self):
        rows = [refit_instance(kind, 7) for kind in ("duplicate", "dead", "affine", "tiny")]
        act = np.stack([r[0] for r in rows])
        costs = np.stack([r[2] for r in rows])
        y = rows[0][1]
        stacked = widthprobe._refit_outer(act, y, costs, 5, 0.4)
        for k in range(len(rows)):
            lone = widthprobe._refit_outer(act[k:k + 1], y, costs[k:k + 1], 5, 0.4)
            assert np.array_equal(stacked[k], lone[0])

    def test_fit_refits_are_certified(self, monkeypatch):
        """Every refit row of lab-mix's ``width`` run at seed 2, whose Grams
        are rank deficient (dead, duplicate or affine neurons), is within its
        allowance of the optimum and in the ball."""
        rows = []
        refit = widthprobe._refit_outer

        def spy(act, y, costs, m, t):
            outer = refit(act, y, costs, m, t)
            rows.append((act, y, costs, m, t, outer))
            return outer
        monkeypatch.setattr(widthprobe, "_refit_outer", spy)
        target = TargetFunction.distance_to_point_set(spawn_rng(2, 99).random((3, 2)))
        config = FitConfig(steps=150, restarts=2, quadrature=("mc", 512), polish_iters=300)
        rho_curve(target, [0.5, 1.0, 2.0], width=16, config=config, seed=2)
        assert len(rows) == 3
        singular = 0
        for act, y, costs, m, t, outer in rows:
            gap, allow, _ = refit_certificate(act, y, costs, m, t, outer)
            assert np.all(gap <= allow)
            assert np.all(np.abs(outer * costs).sum(axis=1) <= t * m * (1 + higham_gamma(m + 3)))
            singular += sum(np.linalg.cond(a @ a.T) > 1e16 for a in act)
        assert singular > 0


class TestBatchedRestarts:
    """All restarts of a fit run as one stacked batch; each restart still
    does the arithmetic of a lone fit.  The tolerances are for BLAS builds
    whose products depend on the batch size; this one agrees bit for bit."""

    CFG = FitConfig(steps=60, restarts=2, quadrature=("mc", 256), polish_iters=20)

    def _winners(self, restarts, init=widthprobe._init_network):
        target = TargetFunction.distance_to_point_set(np.random.default_rng(12).random((2, 2)))
        X = widthprobe._quadrature_points(self.CFG.quadrature, 2, 7)
        config = dataclasses.replace(self.CFG, restarts=restarts)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(widthprobe, "_init_network", init)
            return widthprobe._fit_restarts(target, 0.8, 10, config, X, target.fn(X), seed=3)

    @staticmethod
    def _assert_same(one, other):
        (net, loss), (net2, loss2) = one, other
        assert loss == pytest.approx(loss2, rel=1e-12, abs=1e-15)
        for f in ("outer", "inner", "bias"):
            np.testing.assert_allclose(getattr(net, f), getattr(net2, f),
                                       rtol=1e-12, atol=1e-15)

    def test_winner_does_not_depend_on_the_restart_count(self):
        two, five = self._winners(2), self._winners(5)
        assert len(five) == 5 and all(w is not None for w in five)
        for r in range(2):
            self._assert_same(two[r], five[r])

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_non_finite_restart_dropped_alone(self):
        """A restart whose loss turns non-finite is dropped; the others
        finish as they would without it."""
        lone = widthprobe._init_network

        def init(width, d, t, rng):
            row = lone(width, d, t, rng)
            if init.calls == 1:
                row[0] = np.inf    # its first outer weight
            init.calls += 1
            return row
        init.calls = 0
        winners = self._winners(3, init)
        assert winners[1] is None
        full = self._winners(3)
        self._assert_same(winners[0], full[0])
        self._assert_same(winners[2], full[2])

    def test_single_restart(self):
        target = TargetFunction.distance_to_point_set(np.random.default_rng(13).random((2, 2)))
        cfg = FitConfig(steps=60, restarts=1, quadrature=("mc", 256), polish_iters=20)
        res = fit_constrained(target, t=0.8, width=10, config=cfg,
                              seed=3, quad_seed=3, init_net=None)
        assert path_norm(res.net) <= 0.8 * (1 + 1e-9)
        assert res.net.width == 10 and 0.0 < res.error < 1.0

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_nan_target_raises(self):
        target = TargetFunction.custom(lambda X: np.full(len(X), np.nan), 2)
        with pytest.raises(OptimizationError, match="every restart"):
            fit_constrained(target, t=1.0, width=4, config=self.CFG,
                            seed=0, quad_seed=0, init_net=None)


class TestLockstepPolish:
    """Every restart's L-BFGS-B runs in lockstep, its requests answered by
    one stacked loss call; each takes the steps of a lone scipy run."""

    WIDTH = 8

    @classmethod
    def _kept(cls, K, d, seed):
        """K stacked width-8 networks, rows ``[a, W row-major, b]``."""
        rng = np.random.default_rng(seed)
        X = rng.random((256, d))
        y = np.abs(X - 0.5).max(axis=1)
        m = cls.WIDTH
        kept = np.concatenate([rng.standard_normal((K, m)), rng.standard_normal((K, m * d)),
                               0.3 * rng.standard_normal((K, m))], axis=1)
        return kept, X, y

    @classmethod
    def _polish(cls, kept, X, y, maxiter):
        """The fit's polish of the stack ``kept``, one ``minimize`` call on
        the stacked loss: its rows and its result."""
        X1 = np.vstack([X.T, np.ones(len(X))])
        fg = lambda V: widthprobe._relu_loss(V, cls.WIDTH, X1, y, grad=True)[::2]
        res = widthprobe.minimize(fg, kept, maxiter)
        return res.x, res

    @staticmethod
    def _assert_same(polished, want):
        for got, ref in zip(polished, want):
            assert np.array_equal(got, ref)

    @pytest.mark.parametrize("d", [1, 2, 4])
    @pytest.mark.parametrize("K", [1, 2, 3, 4])
    def test_matches_lone_scipy_runs(self, K, d):
        kept, X, y = self._kept(K, d, seed=10 * K + d)
        polished, res = self._polish(kept, X, y, 60)
        want, nits, nfevs = lbfgs_polish(kept, self.WIDTH, X, y, 60)
        self._assert_same(polished, want)
        assert (res.nit, res.nfev) == (sum(nits), sum(nfevs))

    def test_rows_stop_at_different_iterations(self):
        """Rows that converge early leave the sweep while the others go on
        to ``maxiter``."""
        kept, X, y = self._kept(4, 2, seed=3)
        # the all-zero row's gradient is exactly 0, so it stops at its first
        # check whichever BLAS kernels compute the other rows
        kept = np.vstack([kept, np.zeros_like(kept[0])])
        polished, res = self._polish(kept, X, y, 90)
        want, nits, nfevs = lbfgs_polish(kept, self.WIDTH, X, y, 90)
        assert min(nits) < 90 == max(nits)
        self._assert_same(polished, want)
        assert (res.nit, res.nfev) == (sum(nits), sum(nfevs))

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_row_whose_loss_turns_non_finite(self, monkeypatch):
        """A row whose loss overflows during the polish does what a lone
        scipy run does with it, and the other rows are untouched."""
        kept, X, y = self._kept(3, 2, seed=5)
        kept[1, :self.WIDTH] /= 1e154       # a
        kept[1, self.WIDTH:] *= 1e154       # W and b
        losses = []
        loss_of = widthprobe._relu_loss

        def spy(*args, **kwargs):
            out = loss_of(*args, **kwargs)
            losses.append(out[0])
            return out
        monkeypatch.setattr(widthprobe, "_relu_loss", spy)
        polished, res = self._polish(kept, X, y, 60)
        assert not all(np.isfinite(loss).all() for loss in losses)   # row 1's, alone
        monkeypatch.setattr(widthprobe, "_relu_loss", loss_of)
        want, nits, nfevs = lbfgs_polish(kept, self.WIDTH, X, y, 60)
        self._assert_same(polished, want)
        assert (res.nit, res.nfev) == (sum(nits), sum(nfevs))

    @pytest.mark.parametrize("polish_iters", [0, 20])
    def test_fit_matches_lone_polish(self, polish_iters, monkeypatch):
        """A fit's winners are those of the per-restart polish; with
        ``polish_iters=0`` no L-BFGS-B runs at all."""
        target = TargetFunction.distance_to_point_set(np.random.default_rng(14).random((2, 2)))
        config = FitConfig(steps=60, restarts=3, quadrature=("mc", 256),
                           polish_iters=polish_iters)
        X = widthprobe._quadrature_points(config.quadrature, 2, 7)
        calls = []
        lockstep = widthprobe.minimize

        def spy(*args):
            calls.append(args)
            return lockstep(*args)

        def fit():
            return widthprobe._fit_restarts(target, 0.8, 10, config, X, target.fn(X), seed=3)
        monkeypatch.setattr(widthprobe, "minimize", spy)
        got = fit()
        assert len(calls) == (1 if polish_iters else 0)
        monkeypatch.setattr(widthprobe, "minimize", lambda fg, kept, maxiter: OptimizeResult(
            x=lbfgs_polish(kept, 10, X, target.fn(X), maxiter)[0]))
        want = fit()
        for (net, loss), (ref, ref_loss) in zip(got, want):
            assert loss == ref_loss
            for f in ("outer", "inner", "bias"):
                assert np.array_equal(getattr(net, f), getattr(ref, f))


class TestParameterStack:
    """A fit keeps its restarts in one stack of rows ``[a, W row-major, b]``
    from Adam to the winners; they are the winners of the fit on three
    arrays per network (``oracles.fit_restarts_per_array``), bit for bit."""

    @staticmethod
    def _fits(d, width, restarts, polish_iters, poisoned=()):
        """The winners of both fits; each restart in ``poisoned`` starts with
        an infinite outer weight, so it is dropped at the first step."""
        target = TargetFunction.distance_to_point_set(np.random.default_rng(15).random((3, d)))
        config = FitConfig(steps=50, restarts=restarts, quadrature=("mc", 200),
                           polish_iters=polish_iters)
        X = widthprobe._quadrature_points(config.quadrature, d, 7)

        def poison(init, first_outer):
            def wrapped(width, d, t, rng):
                start = init(width, d, t, rng)
                if wrapped.calls in poisoned:
                    first_outer(start)[0] = np.inf
                wrapped.calls += 1
                return start
            wrapped.calls = 0
            return wrapped
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(widthprobe, "_init_network",
                          poison(widthprobe._init_network, lambda row: row))
            got = widthprobe._fit_restarts(target, 0.7, width, config, X, target.fn(X), seed=5)
        want = fit_restarts_per_array(
            target, 0.7, width, config, X, target.fn(X), seed=5,
            init=poison(init_network_per_array, lambda net: net.outer))
        return got, want

    @staticmethod
    def _assert_same(got, want):
        assert len(got) == len(want)
        for g, w in zip(got, want):
            assert (g is None) == (w is None)
            if g is not None:
                (net, loss), (ref, ref_loss) = g, w
                assert loss == ref_loss
                for f in ("outer", "inner", "bias"):
                    assert np.array_equal(getattr(net, f), getattr(ref, f))

    @pytest.mark.parametrize("polish_iters", [0, 15])
    @pytest.mark.parametrize("restarts", [1, 3])
    @pytest.mark.parametrize("width", [1, 5, 16])
    @pytest.mark.parametrize("d", [1, 2, 4])
    def test_matches_per_array_fit(self, d, width, restarts, polish_iters):
        self._assert_same(*self._fits(d, width, restarts, polish_iters))

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("polish_iters", [0, 15])
    @pytest.mark.parametrize("poisoned", [(1,), (0, 2), (0, 1, 2)])
    def test_dropped_restarts_match_per_array_fit(self, poisoned, polish_iters):
        got, want = self._fits(2, 6, 3, polish_iters, poisoned)
        assert [r for r, w in enumerate(got) if w is None] == list(poisoned)
        self._assert_same(got, want)


class TestRhoCurve:
    def test_monotone_by_construction(self):
        rng = np.random.default_rng(10)
        target = TargetFunction.distance_to_point_set(rng.random((2, 2)))
        curve = rho_curve(target, [0.2, 0.5, 1.0, 2.0], width=12, config=FAST, seed=4)
        errs = np.array([p.error for p in curve.samples])
        assert np.all(np.diff(errs) <= 1e-12)
        assert np.all(errs >= 0)

    def test_bit_identical_reruns(self):
        rng = np.random.default_rng(11)
        target = TargetFunction.distance_to_point_set(rng.random((2, 1)))
        a = rho_curve(target, [0.3, 1.0], width=8, config=FAST, seed=5)
        b = rho_curve(target, [0.3, 1.0], width=8, config=FAST, seed=5)
        assert [p.error for p in a.samples] == [p.error for p in b.samples]
        assert a.fitted_exponent == b.fitted_exponent

    def test_grid_must_increase(self):
        target = TargetFunction.custom(lambda X: X[:, 0], 1)
        with pytest.raises(TargetError):
            rho_curve(target, [1.0, 0.5], width=4, config=FAST, seed=6)

    def test_representable_target_curve_hits_zero_and_stays(self):
        rng = np.random.default_rng(12)
        net = make_target_net(rng, 1)
        target = TargetFunction.barron_explicit(net)
        s = path_norm(net)
        cfg = FitConfig(steps=400, restarts=2, quadrature=("mc", 2048),
                        polish_iters=300)
        curve = rho_curve(target, [1.2 * s, 2.0 * s, 3.0 * s], width=24,
                          config=cfg, seed=7)
        assert np.all(np.array([p.error for p in curve.samples]) <= 1e-3)

    def test_certificate_consistency_reports(self):
        # tail decays like t^-0.32: no conflict with a certified t^-0.5 rate
        curve = WidthCurve(
            samples=[CurvePoint(t, e, 0.0) for t, e in
                     [(1.0, 0.5), (2.0, 0.4), (4.0, 0.32)]],
            fitted_exponent=-0.32, exponent_stderr=0.0, meta={})
        ok = certificate_consistency(curve, exponent=0.5)
        assert ok["consistent"]
        # tail decays like t^-3: far steeper than the certified rate
        bad_curve = WidthCurve(
            samples=[CurvePoint(t, e, 0.0) for t, e in
                     [(1.0, 0.5), (2.0, 0.06), (4.0, 0.008)]],
            fitted_exponent=-3.0, exponent_stderr=0.0, meta={})
        bad = certificate_consistency(bad_curve, exponent=0.5)
        assert not bad["consistent"]
        assert bad["measured_tail_slope"] < -2.5
