"""Exact transport distances, covering bounds, ball machinery."""

import numpy as np
import pytest

from widthlab.transport import (
    CUBE_LINF,
    TORUS_LINF,
    DiscreteMeasure,
    TorusMetricConfig,
    TransportError,
    ball_intersection_volume,
    ball_intersection_volume_mc,
    covering_lower_bound,
    default_gamma,
    empirical_w1_rate,
    indicator_sum_l2,
    smoothing_l2_surrogate,
    smoothing_operator_constant,
    w1_1d_cdf,
    w1_assignment_oracle,
    w1_exact,
)


def random_measure(rng, n, d):
    w = rng.random(n)
    return DiscreteMeasure(rng.random((n, d)), w / w.sum())


class TestW1Exact:
    def test_dirac_pair_is_distance(self):
        rng = np.random.default_rng(0)
        for metric in (CUBE_LINF, TORUS_LINF, TorusMetricConfig("ell_2", True)):
            for _ in range(5):
                x, y = rng.random(3), rng.random(3)
                got = w1_exact(DiscreteMeasure.dirac(x), DiscreteMeasure.dirac(y), metric)
                assert got == pytest.approx(metric.distance(x, y), abs=1e-12)

    def test_identity_is_zero(self):
        mu = random_measure(np.random.default_rng(1), 20, 2)
        assert w1_exact(mu, mu) == pytest.approx(0.0, abs=1e-12)

    def test_two_point_hand_case(self):
        # uniform on {0, 1/2} vs uniform on {1/4, 3/4}, plain line:
        # matchings cost (1/4+1/4)/2 or (3/4+1/4)/2, the optimum is 1/4
        mu = DiscreteMeasure.empirical(np.array([[0.0], [0.5]]))
        nu = DiscreteMeasure.empirical(np.array([[0.25], [0.75]]))
        assert w1_exact(mu, nu, CUBE_LINF) == pytest.approx(0.25, abs=1e-12)

    def test_metric_axioms_on_random_triples(self):
        rng = np.random.default_rng(2)
        for _ in range(8):
            mu = random_measure(rng, rng.integers(2, 12), 2)
            nu = random_measure(rng, rng.integers(2, 12), 2)
            rho = random_measure(rng, rng.integers(2, 12), 2)
            ab = w1_exact(mu, nu)
            ba = w1_exact(nu, mu)
            assert ab == pytest.approx(ba, abs=1e-9)
            ac = w1_exact(mu, rho)
            cb = w1_exact(rho, nu)
            assert ab <= ac + cb + 1e-9

    def test_torus_translation_invariance(self):
        rng = np.random.default_rng(3)
        mu = random_measure(rng, 9, 2)
        nu = random_measure(rng, 7, 2)
        shift = rng.random(2)
        mu_s = DiscreteMeasure(np.mod(mu.points + shift, 1.0), mu.weights)
        nu_s = DiscreteMeasure(np.mod(nu.points + shift, 1.0), nu.weights)
        assert w1_exact(mu_s, nu_s, TORUS_LINF) == pytest.approx(
            w1_exact(mu, nu, TORUS_LINF), abs=1e-9)

    def test_against_assignment_oracle(self):
        """The 8^2 grid is solved at its own scale; the 32^2 grid (1,024
        atoms) through one coarse level of 16^2 cells first."""
        rng = np.random.default_rng(4)
        cases = [(8, (4, 16), (CUBE_LINF, TORUS_LINF)),
                 (32, (4, 16, 64), (CUBE_LINF, TORUS_LINF, TorusMetricConfig("ell_2", True)))]
        for res, sizes, metrics in cases:
            grid = DiscreteMeasure.uniform_grid(2, res)
            for n in sizes:
                emp = DiscreteMeasure.empirical(rng.random((n, 2)))
                for metric in metrics:
                    a = w1_exact(grid, emp, metric)
                    b = w1_assignment_oracle(grid, emp, metric)
                    assert a == pytest.approx(b, abs=1e-10)

    def test_against_1d_cdf_oracle(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            mu = random_measure(rng, rng.integers(2, 30), 1)
            nu = random_measure(rng, rng.integers(2, 30), 1)
            assert w1_exact(mu, nu, CUBE_LINF) == pytest.approx(
                w1_1d_cdf(mu, nu), abs=1e-10)

    def test_coarsened_scattered_measure_against_1d_cdf(self):
        """2,000 scattered atoms with random weights: the coarse level sums
        the masses of the atoms sharing a cell, unlike on a grid."""
        rng = np.random.default_rng(8)
        big = random_measure(rng, 2000, 1)
        for n in (5, 40):
            small = random_measure(rng, n, 1)
            assert w1_exact(big, small, CUBE_LINF) == pytest.approx(
                w1_1d_cdf(big, small), abs=1e-10)

    def test_north_west_support_is_feasible_in_any_order(self):
        """The north-west-corner support holds a plan meeting both margins
        whatever the orders: m+n-1 arcs for weights in general position, and
        a few touching arcs more where cumulative masses tie."""
        from widthlab.transport import _north_west_pairs, _transport_model, linprog

        rng = np.random.default_rng(9)
        for mu, nu, ties in ((random_measure(rng, 50, 2), random_measure(rng, 7, 2), False),
                             (DiscreteMeasure.uniform_grid(2, 8),
                              DiscreteMeasure.uniform_grid(2, 4), True)):
            m, n = mu.size, nu.size
            pairs = _north_west_pairs(mu.weights, nu.weights,
                                      rng.permutation(m), rng.permutation(n))
            assert len(np.unique(pairs, axis=0)) == len(pairs)
            assert len(pairs) > m + n - 1 if ties else len(pairs) == m + n - 1
            C = TORUS_LINF.pairwise(mu.points, nu.points)
            arcs = np.ravel_multi_index(pairs.T, C.shape)
            model = _transport_model(mu.weights, nu.weights, arcs)
            assert linprog(np.take(C, arcs), model=model).status == 0

    def test_hilbert_order_steps_to_a_neighbouring_cell(self):
        """Along the curve, consecutive grid cells share a face."""
        from widthlab.transport import _hilbert_order
        from widthlab.util import midpoint_grid

        for d, res in ((1, 64), (2, 32), (3, 8)):
            pts = midpoint_grid(d, res)
            path = pts[_hilbert_order(pts)] * res
            steps = np.abs(np.diff(path, axis=0)).sum(axis=1)
            np.testing.assert_allclose(steps, 1.0)

    def test_round_without_new_arcs_rescales_costs(self, monkeypatch):
        """HiGHS accepts duals feasible to 1e-7, so a round can find its only
        violated arcs already in the LP.  Faked here on a dense LP by lifting
        one row dual by 1e-9: the LP is re-solved with its costs scaled by
        2^10, and the value is the unscaled solve's."""
        from types import SimpleNamespace

        from widthlab import transport

        rng = np.random.default_rng(10)
        mu, nu = random_measure(rng, 6, 2), random_measure(rng, 5, 2)
        expect = w1_exact(mu, nu)
        costs = []
        linprog = transport.linprog

        def lifted_once(c, **kwargs):
            res = linprog(c, **kwargs)
            costs.append(c)
            if len(costs) > 1:
                return res
            marginals = res.eqlin.marginals.copy()
            marginals[0] += 1e-9
            return SimpleNamespace(status=res.status, message=res.message, fun=res.fun,
                                   eqlin=SimpleNamespace(marginals=marginals))

        monkeypatch.setattr(transport, "linprog", lifted_once)
        assert w1_exact(mu, nu) == expect
        assert len(costs) == 2
        np.testing.assert_array_equal(costs[1], costs[0] * 2.0**10)

    def test_no_restricted_lp_is_infeasible(self, monkeypatch):
        """Every restricted LP contains a north-west-corner plan, so none is
        infeasible.  On this instance the nearest-neighbour arcs of the 64^2
        grid alone (``_initial_pairs``) make an infeasible LP."""
        from widthlab import transport
        from widthlab.util import spawn_rng

        statuses = []
        linprog = transport.linprog

        def counted(*args, **kwargs):
            res = linprog(*args, **kwargs)
            statuses.append(res.status)
            return res

        monkeypatch.setattr(transport, "linprog", counted)
        emp = DiscreteMeasure.empirical(spawn_rng(20240801, 256, 0).random((256, 2)))
        w1 = w1_exact(DiscreteMeasure.uniform_grid(2, 64), emp, CUBE_LINF)
        assert w1 >= covering_lower_bound(256, 2, CUBE_LINF) - 2 / 64
        assert statuses and 2 not in statuses  # HiGHS status 2: infeasible

    @pytest.mark.parametrize("metric", [CUBE_LINF, TORUS_LINF, TorusMetricConfig("ell_2", True)],
                             ids=["cube-linf", "torus-linf", "torus-l2"])
    @pytest.mark.parametrize("m,n", [(60, 12), (200, 9)])
    def test_warm_model_from_north_west_support_matches_dense_lp(self, m, n, metric,
                                                                 monkeypatch):
        """Started from a north-west-corner support alone, in random orders,
        the one model per level gains arcs over several rounds.  Its value
        must match a dense ``scipy.optimize.linprog`` solve over every arc,
        and so must the dual bound ``a.u + b.v`` of its column duals and
        their c-transform."""
        from scipy import sparse
        from scipy.optimize import linprog as dense_linprog

        from widthlab import transport

        rng = np.random.default_rng(m + n)
        mu, nu = random_measure(rng, m, 2), random_measure(rng, n, 2)
        a, b = mu.weights, nu.weights
        C = metric.pairwise(mu.points, nu.points)
        pairs = transport._north_west_pairs(a, b, rng.permutation(m), rng.permutation(n))
        columns = []
        linprog = transport.linprog

        def counted(cost, **kwargs):
            columns.append(len(cost))
            return linprog(cost, **kwargs)

        monkeypatch.setattr(transport, "linprog", counted)
        value, v = transport._column_generation(C, a, b, pairs)
        assert columns[0] == m + n - 1  # weights in general position
        assert len(columns) >= 3 and columns[-1] > columns[0]

        margins = sparse.vstack([sparse.kron(sparse.eye(m), np.ones((1, n))),
                                 sparse.kron(np.ones((1, m)), sparse.eye(n))])
        dense = dense_linprog(C.ravel(), A_eq=margins, b_eq=np.concatenate([a, b]),
                              bounds=(0, None), method="highs")
        assert dense.status == 0
        assert value == pytest.approx(dense.fun, abs=1e-12)
        assert a @ (C - v).min(axis=1) + b @ v == pytest.approx(dense.fun, abs=1e-12)

    def test_dimension_mismatch(self):
        with pytest.raises(TransportError):
            w1_exact(DiscreteMeasure.dirac([0.5]), DiscreteMeasure.dirac([0.5, 0.5]))

    def test_degenerate_weights_rejected(self):
        with pytest.raises(TransportError):
            DiscreteMeasure(np.array([[0.5]]), np.array([0.9]))
        with pytest.raises(TransportError):
            DiscreteMeasure(np.zeros((0, 1)), np.zeros(0))


def test_perfbench_tracer_sees_every_lp(monkeypatch):
    """perfbench's traced worker wraps ``transport.linprog`` by attribute,
    reads ``len(args[0])``, ``status`` and ``nit`` from every call and
    writes the ``w1_exact`` values as JSON.  A 32^2 grid (one coarse
    level) under its tracer must feed every LP counter and give a float."""
    import json
    from pathlib import Path

    from widthlab import transport

    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
    import tracing

    tracer = tracing.Tracer()
    tracing.prepare(tracer)
    tracer.enable()
    try:
        emp = DiscreteMeasure.empirical(np.random.default_rng(12).random((16, 2)))
        value = transport.w1_exact(DiscreteMeasure.uniform_grid(2, 32), emp, CUBE_LINF)
    finally:
        tracer.disable()
    counts = tracer.summary()[2]
    assert counts["transport.lp.calls"] >= 2
    assert counts["transport.lp.arcs"] > 0 and counts["transport.lp.simplex_iters"] > 0
    assert counts["transport.lp.infeasible"] == 0
    assert type(value) is float
    json.dumps(value)


class TestCoveringBound:
    def test_d1_n1_value(self):
        # (1/2) * (2 * omega_1)**-1 with omega_1 = 2
        assert covering_lower_bound(1, 1, CUBE_LINF) == pytest.approx(1 / 8, rel=1e-15)

    def test_exact_1d_dirac_check(self):
        # distance from (a grid version of) the uniform measure to a single
        # atom at 1/2 is the integral of |x - 1/2| = 1/4 >= the 1/8 bound
        grid = DiscreteMeasure.uniform_grid(1, 256)
        w1 = w1_exact(grid, DiscreteMeasure.dirac([0.5]), CUBE_LINF)
        assert w1 == pytest.approx(0.25, abs=1 / 256)
        assert w1 >= covering_lower_bound(1, 1, CUBE_LINF)

    def test_power_law_scaling(self):
        assert covering_lower_bound(8 * 13, 3) / covering_lower_bound(13, 3) == pytest.approx(
            0.5, rel=1e-12)

    def test_holds_on_adversarial_grid_configuration(self):
        """Even a perfectly spread (grid) empirical measure obeys the bound."""
        grid = DiscreteMeasure.uniform_grid(2, 64)
        for k in (2, 4):
            centers = DiscreteMeasure.uniform_grid(2, k)  # k^2 optimally spread atoms
            w1 = w1_exact(grid, centers, CUBE_LINF)
            assert w1 >= covering_lower_bound(k * k, 2, CUBE_LINF) - 2 / 64

    def test_bound_below_random_trials(self):
        rng = np.random.default_rng(7)
        grid = DiscreteMeasure.uniform_grid(2, 32)
        for n in (4, 16, 64):
            emp = DiscreteMeasure.empirical(rng.random((n, 2)))
            w1 = w1_exact(grid, emp, CUBE_LINF)
            assert w1 >= covering_lower_bound(n, 2, CUBE_LINF) - 2 / 32


class TestBalls:
    def test_full_overlap(self):
        for d in (1, 2, 3):
            vol = ball_intersection_volume(np.zeros(d), 0.1, TORUS_LINF)
            assert vol == pytest.approx(0.2**d, rel=1e-12)

    def test_disjoint(self):
        assert ball_intersection_volume(np.array([0.5, 0.0]), 0.1, TORUS_LINF) == 0.0

    def test_half_offset_hand_case(self):
        # d=2, eps=1/4, offset (1/4, 0), cube (no wrap): (2e-1/4)(2e) = 1/8
        vol = ball_intersection_volume(np.array([0.25, 0.0]), 0.25, CUBE_LINF)
        assert vol == pytest.approx(1 / 8, rel=1e-12)

    def test_monte_carlo_cross_check(self):
        rng = np.random.default_rng(8)
        for _ in range(5):
            offset = rng.uniform(-0.3, 0.3, 2)
            eps = rng.uniform(0.05, 0.2)
            exact = ball_intersection_volume(offset, eps, TORUS_LINF)
            mc, se = ball_intersection_volume_mc(offset, eps, TORUS_LINF, samples=200_000,
                                                 seed=9)
            assert mc == pytest.approx(exact, abs=max(4 * se, 1e-4))

    def test_periodic_radius_guard(self):
        with pytest.raises(TransportError):
            ball_intersection_volume(np.zeros(2), 0.3, TORUS_LINF)

    def test_indicator_sum_single_and_disjoint(self):
        one = indicator_sum_l2(np.array([[0.5, 0.5]]), 0.1)
        assert one == pytest.approx(0.2**2, rel=1e-12)
        two = indicator_sum_l2(np.array([[0.2, 0.2], [0.7, 0.7]]), 0.1)
        assert two == pytest.approx(2 * 0.2**2, rel=1e-12)

    def test_indicator_sum_matches_grid_integration(self):
        """Random centers: exact value matches dense-grid integration of
        the squared indicator sum."""
        rng = np.random.default_rng(10)
        centers = rng.random((6, 2))
        eps = 0.11
        exact = indicator_sum_l2(centers, eps, TORUS_LINF)
        res = 500
        axis = (np.arange(res) + 0.5) / res
        gx, gy = np.meshgrid(axis, axis, indexing="ij")
        pts = np.column_stack([gx.ravel(), gy.ravel()])
        diff = np.abs(pts[:, None, :] - centers[None, :, :])
        diff = np.minimum(diff, 1 - diff)
        inside = (diff.max(axis=2) <= eps).sum(axis=1).astype(float)
        grid_val = float(np.mean(inside**2))
        assert grid_val == pytest.approx(exact, abs=2e-3 * max(exact, 1.0))


class TestSmoothingSurrogate:
    def test_surrogate_bounded_uniformly_in_n(self):
        """The realized operator-norm surrogate stays below the dimension
        constant (doubled for sampling slack) for all n at the default scale."""
        d = 2
        gamma = default_gamma(d)
        cap = 2.0 * smoothing_operator_constant(d, gamma)
        rng = np.random.default_rng(13)
        for n in (4, 16, 64, 256, 1024):
            centers = rng.random((n, d))
            eps = gamma * n ** (-1.0 / d)
            assert smoothing_l2_surrogate(centers, eps) <= cap

    def test_default_gamma_keeps_bracket_positive(self):
        for d in (1, 2, 3, 5, 8):
            cov = covering_lower_bound(1, d) / 1.0  # n-free covering constant
            assert default_gamma(d) * (d / (d + 1.0)) < cov


class TestRateExperiment:
    def test_small_rate_report(self):
        report = empirical_w1_rate(d=1, n_values=[4, 8, 16, 32], trials=4,
                                   grid_resolution=64, seed=5)
        assert report.all_bounds_hold
        # one dimension: CLT-rate decay around -1/2, still above the n**-1 bound
        assert -0.75 <= report.slope <= -0.25
        assert set(report.mean_w1) == {4, 8, 16, 32}

    def test_threads_do_not_change_results(self):
        a = empirical_w1_rate(1, [4, 8], 2, 32, seed=6, threads=1)
        b = empirical_w1_rate(1, [4, 8], 2, 32, seed=6, threads=4)
        assert [t.w1 for t in a.trials] == [t.w1 for t in b.trials]

    def test_grid_budget_enforced(self):
        with pytest.raises(TransportError):
            DiscreteMeasure.uniform_grid(3, 101)
