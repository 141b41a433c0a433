"""Networks, path norms, Rademacher estimates, 1D norm and integral."""

import math

import numpy as np
import pytest

from widthlab import barron
from widthlab.barron import (
    RELU,
    OptimizationError,
    TANH,
    PiecewiseLinear1D,
    TwoLayerNetwork,
    bv_norm_1d,
    canonical_network_1d,
    path_norm,
    rademacher_bound,
    rademacher_estimate,
)


def random_relu_net(rng, d=1, width=6, averaged=True):
    return TwoLayerNetwork(rng.standard_normal(width) * 2,
                           rng.standard_normal((width, d)),
                           rng.uniform(-1, 1, width), RELU, averaged=averaged)


class TestPathNorm:
    def test_zero_network(self):
        net = TwoLayerNetwork(np.zeros(3), np.zeros((3, 2)), np.zeros(3))
        assert path_norm(net) == 0.0
        empty = TwoLayerNetwork(np.zeros(0), np.zeros((0, 2)), np.zeros(0))
        assert path_norm(empty) == 0.0

    def test_single_neuron_hand_value(self):
        # a=2, w=(1,0), b=-1, relu, averaged, q=1: 2*(1+1)/1 = 4
        net = TwoLayerNetwork([2.0], [[1.0, 0.0]], [-1.0], RELU, averaged=True)
        assert path_norm(net, q=1) == pytest.approx(4.0, rel=1e-15)

    def test_outer_homogeneity(self):
        rng = np.random.default_rng(0)
        net = random_relu_net(rng, d=3)
        assert path_norm(net.scale_outer(2.0)) == pytest.approx(2 * path_norm(net), rel=1e-12)
        assert path_norm(net.scale_outer(-3.0)) == pytest.approx(3 * path_norm(net), rel=1e-12)

    def test_relu_reparametrization_invariance(self):
        """(a, w, b) -> (a/lam, lam w, lam b) changes neither values nor norm."""
        rng = np.random.default_rng(1)
        net = random_relu_net(rng, d=2)
        lam = 3.7
        reparam = TwoLayerNetwork(net.outer / lam, net.inner * lam, net.bias * lam,
                                  RELU, averaged=True)
        X = rng.uniform(-1, 1, (64, 2))
        np.testing.assert_allclose(net.evaluate(X), reparam.evaluate(X), rtol=1e-12)
        assert path_norm(reparam) == pytest.approx(path_norm(net), rel=1e-12)

    def test_sigmoidal_offset_is_one(self):
        net = TwoLayerNetwork([2.0], [[1.0, 0.0]], [-5.0], TANH, averaged=True)
        # 2 * (1 + 1), the bias enters as a constant offset for bounded sigmoids
        assert path_norm(net) == pytest.approx(4.0)

    def test_lipschitz_bound_on_random_pairs(self):
        """The path norm bounds the Lipschitz constant under the sup norm."""
        rng = np.random.default_rng(2)
        for _ in range(20):
            net = random_relu_net(rng, d=4, width=8)
            L = path_norm(net)
            X = rng.uniform(-1, 1, (50, 4))
            Y = rng.uniform(-1, 1, (50, 4))
            lhs = np.abs(net.evaluate(X) - net.evaluate(Y))
            rhs = L * np.max(np.abs(X - Y), axis=1)
            assert np.all(lhs <= rhs * (1 + 1e-9) + 1e-12)

    def test_relu_positive_homogeneity_numeric(self):
        z = np.random.default_rng(4).standard_normal(100)
        for lam in (0.5, 2.0, 7.0):
            np.testing.assert_allclose(RELU.apply(lam * z), lam * RELU.apply(z), rtol=1e-15)

    def test_wire_format_roundtrip(self):
        net = TwoLayerNetwork([2.0, -1.5, 0.5], [[1.0, 0.0, -0.5], [0.25, 1.0, 0.0],
                                                 [-1.0, 0.5, 2.0]],
                              [-1.0, 0.25, 0.0], RELU, averaged=True)
        clone = TwoLayerNetwork.from_dict(
            {"activation": "relu", "averaged": True,
             "neurons": [[2.0, [1.0, 0.0, -0.5], -1.0], [-1.5, [0.25, 1.0, 0.0], 0.25],
                         [0.5, [-1.0, 0.5, 2.0], 0.0]]})
        for field in ("outer", "inner", "bias"):
            np.testing.assert_array_equal(getattr(clone, field), getattr(net, field))
        assert (clone.activation, clone.averaged) == (net.activation, net.averaged)
        X = np.random.default_rng(5).uniform(-1, 1, (16, 3))
        np.testing.assert_allclose(net.evaluate(X), clone.evaluate(X), rtol=0, atol=0)


class TestRademacher:
    def test_bound_value(self):
        # 2 sqrt(2 ln 4 / 100), direct evaluation
        assert rademacher_bound(100, 2) == pytest.approx(2 * math.sqrt(2 * math.log(4) / 100),
                                                         rel=1e-15)
        assert rademacher_bound(100, 2) == pytest.approx(0.333022, rel=1e-5)

    def test_single_point_at_origin_sup_is_one(self):
        """With one sample at 0 the constant neuron attains the supremum 1."""
        est = rademacher_estimate(np.zeros((1, 1)), sign_draws=4, restarts=2, seed=0)
        assert np.all(est.draws >= 1.0 - 1e-6)
        assert np.all(est.draws <= 1.0 + 1e-12)

    def test_estimates_below_bound_for_every_draw(self):
        rng = np.random.default_rng(10)
        for d in (2, 5):
            X = rng.uniform(-1, 1, (128, d))
            est = rademacher_estimate(X, sign_draws=16, restarts=8, seed=1)
            assert est.violations == 0
            assert est.estimate <= est.bound

    @pytest.mark.parametrize("sign_draws", [0, -1])
    def test_no_sign_draws_rejected(self, sign_draws):
        with pytest.raises(ValueError, match="sign_draws"):
            rademacher_estimate(np.zeros((4, 2)), sign_draws=sign_draws)

    def test_draws_do_not_depend_on_the_chunking(self):
        """At n = 1,024 one batched ascent holds only a few whole draws, so a
        run of 7 draws takes several chunks; its first 4 draws equal those of
        a 4-draw run, whose chunks split the draws differently.  The
        tolerance is for BLAS builds whose products depend on the batch
        width; this one agrees bit for bit."""
        n, restarts = 1024, 16
        assert barron._CHUNK_ELEMENTS // (n * 2 * (restarts + 4)) < 4
        X = np.random.default_rng(8).uniform(-1, 1, (n, 2))
        many = rademacher_estimate(X, sign_draws=7, restarts=restarts, seed=2).draws
        few = rademacher_estimate(X, sign_draws=4, restarts=restarts, seed=2).draws
        np.testing.assert_allclose(many[:4], few, rtol=1e-12)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_non_finite_objective_raises(self):
        X = np.array([[np.inf, 0.0]] * 4)
        with pytest.raises(OptimizationError, match="non-finite"):
            rademacher_estimate(X, sign_draws=3, restarts=2, seed=0)

    def test_rate_scaling_in_expectation(self):
        """Estimate decays roughly like 1/sqrt(n) over a seeded sweep."""
        means = []
        ns = [32, 128, 512]
        for n in ns:
            rng = np.random.default_rng(100 + n)
            X = rng.uniform(-1, 1, (n, 4))
            means.append(rademacher_estimate(X, sign_draws=12, restarts=8, seed=3).estimate)
        slope = np.polyfit(np.log(ns), np.log(means), 1)[0]
        assert slope == pytest.approx(-0.5, abs=0.2)


class TestBV1D:
    def test_single_kink(self):
        # relu(x - 1/2): f(0)=0, f'(0)=0, one unit slope jump
        net = TwoLayerNetwork([1.0], [[1.0]], [-0.5], RELU, averaged=False)
        f = PiecewiseLinear1D.from_network(net)
        assert bv_norm_1d(f) == pytest.approx(1.0, rel=1e-14)

    def test_linear_function(self):
        f = PiecewiseLinear1D(knots=[0.0, 1.0], values=[0.0, 2.0])
        assert bv_norm_1d(f) == pytest.approx(2.0, rel=1e-15)

    def test_shifted_ramp_pair_separation(self):
        """relu(x-a) - relu(x-b) has norm exactly 2 for 0 < a < b < 1."""
        rng = np.random.default_rng(6)
        for _ in range(20):
            a, b = np.sort(rng.uniform(0.05, 0.95, 2))
            if b - a < 1e-3:
                continue
            net = TwoLayerNetwork([1.0, -1.0], [[1.0], [1.0]], [-a, -b], RELU, averaged=False)
            f = PiecewiseLinear1D.from_network(net)
            assert bv_norm_1d(f) == pytest.approx(2.0, rel=1e-9)

    def test_from_network_exact(self):
        rng = np.random.default_rng(7)
        for _ in range(10):
            net = random_relu_net(rng, d=1, width=7, averaged=False)
            f = PiecewiseLinear1D.from_network(net)
            xs = rng.uniform(0, 1, 300)
            np.testing.assert_allclose(f.evaluate(xs), net.evaluate(xs.reshape(-1, 1)),
                                       rtol=1e-10, atol=1e-12)

    def test_canonical_network_identity_and_cost(self):
        """The explicit representation reproduces f and its path norm sits in
        [bv, 2 bv]; any realizing network has path norm >= bv/2."""
        rng = np.random.default_rng(8)
        for _ in range(25):
            net = random_relu_net(rng, d=1, width=6, averaged=False)
            f = PiecewiseLinear1D.from_network(net)
            bv = bv_norm_1d(f)
            canon = canonical_network_1d(f)
            xs = rng.uniform(0, 1, 200)
            np.testing.assert_allclose(canon.evaluate(xs.reshape(-1, 1)), f.evaluate(xs),
                                       rtol=1e-9, atol=1e-10)
            pn = path_norm(canon)
            assert bv <= pn * (1 + 1e-12)
            assert pn <= 2 * bv * (1 + 1e-12)
            assert bv <= 2 * path_norm(net) * (1 + 1e-12)


class TestIntegral1D:
    @pytest.mark.parametrize("w,b", [(0.7, -0.2), (-1.3, 0.4), (2.0, 0.5), (0.5, -0.9),
                                     (3.0, -4.0), (0.0, 0.3)])
    def test_single_neuron_closed_form(self, w, b):
        """int_0^1 a relu(w x + b) dx = a (relu(w+b)^2 - relu(b)^2) / (2w)."""
        a = 1.7
        net = TwoLayerNetwork([a], [[w]], [b], RELU, averaged=False)
        exact = a * (max(w + b, 0.0) ** 2 - max(b, 0.0) ** 2) / (2 * w) if w else a * max(b, 0.0)
        got = PiecewiseLinear1D.from_network(net).integral()
        assert got == pytest.approx(exact, rel=1e-14, abs=1e-14)

    def test_random_networks_match_midpoint_rule(self):
        rng = np.random.default_rng(12)
        n = 200_000
        xs = ((np.arange(n) + 0.5) / n).reshape(-1, 1)
        for averaged in (True, False):
            for _ in range(5):
                net = random_relu_net(rng, d=1, width=8, averaged=averaged)
                midpoint = float(np.mean(net.evaluate(xs)))
                assert PiecewiseLinear1D.from_network(net).integral() == pytest.approx(
                    midpoint, abs=1e-9)
