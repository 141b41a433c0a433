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
    covering_lower_bound,
    default_gamma,
    empirical_w1_rate,
    indicator_sum_l2,
    smoothing_l2_surrogate,
    smoothing_operator_constant,
    w1_exact,
)

from oracles import ball_intersection_volume_mc, w1_1d_cdf, w1_assignment_oracle


def random_measure(rng, n, d):
    w = rng.random(n)
    return DiscreteMeasure(rng.random((n, d)), w / w.sum())


def permuted(rng, measure):
    """The same measure with its atoms in a random order."""
    order = rng.permutation(measure.size)
    return DiscreteMeasure(measure.points[order], measure.weights[order])


def north_west_support(a, b):
    """The split of a one-cell plan that sends ``b_j`` to column j onto the
    atoms ``a``: the north-west-corner support, both measures in input
    order."""
    from widthlab.transport import _split_plan

    one_cell = (np.stack([np.zeros(len(b), dtype=np.int64), np.arange(len(b))], axis=1), b)
    return _split_plan(one_cell, np.zeros(len(a), dtype=np.int64), a)[0]


class TestW1Exact:
    def test_dirac_pair_is_distance(self):
        rng = np.random.default_rng(0)
        for metric in (CUBE_LINF, TORUS_LINF, TorusMetricConfig("ell_2", True)):
            for _ in range(5):
                x, y = rng.random(3), rng.random(3)
                got = w1_exact(DiscreteMeasure(np.atleast_2d(x), [1.0]),
                               DiscreteMeasure(np.atleast_2d(y), [1.0]), metric)
                assert got == pytest.approx(
                    metric.pairwise(np.atleast_2d(x), np.atleast_2d(y))[0, 0], abs=1e-12)

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

    @pytest.mark.parametrize("case", ["grid-64x64-vs-256", "scattered-1d-2000"])
    def test_split_plan_is_a_forest_meeting_both_margins(self, case, monkeypatch):
        """Every level starts from the plan of the level before split onto
        its atoms; the coarsest from a one-cell plan, whose split is the
        north-west-corner plan.  Every split that ``w1_exact`` makes must
        meet the fine margins and the coarse flows it splits, with
        nonnegative flows, on at most m+n-1 distinct arcs that form a forest:
        the rank of a bipartite graph's incidence matrix is its node count
        less its number of connected components, so it equals the arc count
        exactly when there is no cycle."""
        from scipy import sparse
        from scipy.sparse import csgraph

        from widthlab import transport
        from widthlab.util import spawn_rng

        if case == "grid-64x64-vs-256":
            big = DiscreteMeasure.uniform_grid(2, 64)
            small = DiscreteMeasure.empirical(spawn_rng(20240801, 256, 0).random((256, 2)))
        else:
            rng = np.random.default_rng(8)
            big, small = random_measure(rng, 2000, 1), random_measure(rng, 40, 1)
        splits = []
        split_plan = transport._split_plan

        def recorded(plan, cell_of, a):
            out = split_plan(plan, cell_of, a)
            splits.append((plan, cell_of, a, out))
            return out

        monkeypatch.setattr(transport, "_split_plan", recorded)
        w1_exact(big, small, CUBE_LINF)
        assert len(splits) == len(transport._levels(big.points, big.weights)) >= 2
        n = small.size
        for (coarse, coarse_flow), cell_of, a, (pairs, flow) in splits:
            m = len(a)
            assert np.all(flow >= 0)
            np.testing.assert_allclose(np.bincount(pairs[:, 0], flow, minlength=m), a,
                                       rtol=0, atol=1e-14)
            keys, group = np.unique(cell_of[pairs[:, 0]] * n + pairs[:, 1], return_inverse=True)
            order = np.argsort(coarse[:, 0] * n + coarse[:, 1])
            np.testing.assert_array_equal(keys, (coarse[:, 0] * n + coarse[:, 1])[order])
            np.testing.assert_allclose(np.bincount(group.ravel(), flow), coarse_flow[order],
                                       rtol=0, atol=1e-14)
            assert len(np.unique(pairs, axis=0)) == len(pairs) <= m + n - 1
            graph = sparse.coo_matrix((np.ones(len(pairs)), (pairs[:, 0], m + pairs[:, 1])),
                                      shape=(m + n, m + n))
            components = csgraph.connected_components(graph, directed=False)[0]
            assert m + n - components == len(pairs)

    def test_finest_level_starts_from_the_split_plan(self, monkeypatch):
        """On the d=1 4,096-atom grid against 16 atoms, the finest level's
        first HiGHS run, started from the split coarse plan, takes under a
        tenth of the simplex iterations of a cold run on the same restricted
        LP, and the value still matches the CDF formula."""
        from widthlab import transport

        grid = DiscreteMeasure.uniform_grid(1, 4096)
        emp = DiscreteMeasure.empirical(np.random.default_rng(13).random((16, 1)))
        levels, iterations = [], []
        column_generation, linprog = transport._column_generation, transport.linprog

        def recorded_levels(*args):
            levels.append((len(iterations), args))
            return column_generation(*args)

        def counted(cost, **kwargs):
            res = linprog(cost, **kwargs)
            iterations.append(res.nit)
            return res

        monkeypatch.setattr(transport, "_column_generation", recorded_levels)
        monkeypatch.setattr(transport, "linprog", counted)
        assert w1_exact(grid, emp, CUBE_LINF) == pytest.approx(w1_1d_cdf(grid, emp), abs=1e-12)
        first, (metric, X, Y, a, b, pairs, basic) = levels[-1]
        C = metric.pairwise(X, Y)
        assert len(levels) == 3 and len(a) == 4096 and basic is not None
        arcs = np.unique(np.ravel_multi_index(np.concatenate([pairs, basic]).T, C.shape))
        cold = linprog(np.take(C, arcs), model=transport._transport_model(a, b, arcs))
        assert cold.status == 0
        assert iterations[first] < cold.nit / 10

    def test_north_west_support_is_feasible_in_any_order(self):
        """The split of the one-cell plan holds a plan meeting both margins
        whatever order the atoms come in: m+n-1 arcs for weights in general
        position, and at most that where cumulative masses tie."""
        from widthlab.transport import _transport_model, linprog

        rng = np.random.default_rng(9)
        for mu, nu, ties in ((random_measure(rng, 50, 2), random_measure(rng, 7, 2), False),
                             (DiscreteMeasure.uniform_grid(2, 8),
                              DiscreteMeasure.uniform_grid(2, 4), True)):
            mu, nu = permuted(rng, mu), permuted(rng, nu)
            m, n = mu.size, nu.size
            pairs = north_west_support(mu.weights, nu.weights)
            assert len(np.unique(pairs, axis=0)) == len(pairs)
            assert len(pairs) <= m + n - 1 if ties else len(pairs) == m + n - 1
            C = TORUS_LINF.pairwise(mu.points, nu.points)
            arcs = np.ravel_multi_index(pairs.T, C.shape)
            model = _transport_model(mu.weights, nu.weights, arcs)
            assert linprog(np.take(C, arcs), model=model).status == 0

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
        """No restricted LP is infeasible: every level contains the split
        plan of the level before, which meets the margins; at the coarsest
        level that is the north-west-corner plan, atoms in input order.  On
        this instance the nearest-neighbour arcs of the 64^2 grid alone
        (``_initial_pairs``) make an infeasible LP."""
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

    def test_finer_levels_start_from_tight_arcs_and_the_split_plan(self, monkeypatch):
        """On the 64^2 grid against 256 atoms the coarsest level starts with
        no basis, from the nearest arcs and the north-west-corner support.
        Every finer level starts from the split plan as its basis, and beside
        it only from arcs tight for the column duals of the level before and
        their c-transform, at least one per row; no HiGHS run finds its
        restricted LP infeasible."""
        from widthlab import transport
        from widthlab.util import spawn_rng

        calls, statuses = [], []
        column_generation, linprog = transport._column_generation, transport.linprog

        def recorded(metric, X, Y, a, b, pairs, basic):
            out = column_generation(metric, X, Y, a, b, pairs, basic)
            calls.append((metric.pairwise(X, Y), pairs, basic, out[1]))
            return out

        def counted(*args, **kwargs):
            res = linprog(*args, **kwargs)
            statuses.append(res.status)
            return res

        monkeypatch.setattr(transport, "_column_generation", recorded)
        monkeypatch.setattr(transport, "linprog", counted)
        emp = DiscreteMeasure.empirical(spawn_rng(20240801, 256, 0).random((256, 2)))
        w1_exact(DiscreteMeasure.uniform_grid(2, 64), emp, CUBE_LINF)
        assert len(calls) == 3 and calls[0][2] is None
        for (_, _, _, v), (C, pairs, basic, _) in zip(calls, calls[1:]):
            assert basic is not None
            reduced = C - v
            tight = reduced == reduced.min(axis=1, keepdims=True)
            assert tight[pairs[:, 0], pairs[:, 1]].all()
            np.testing.assert_array_equal(np.unique(pairs[:, 0]), np.arange(len(C)))
        assert statuses and 2 not in statuses  # HiGHS status 2: infeasible

    @pytest.mark.parametrize("n", [16, 256])
    def test_multiscale_sweep_d1_against_cdf(self, n):
        """The 4,096-atom grid on [0,1] (two coarse levels) against seeded
        empirical measures matches the CDF formula to 1e-12."""
        from widthlab.util import spawn_rng

        grid = DiscreteMeasure.uniform_grid(1, 4096)
        for seed in range(3):
            emp = DiscreteMeasure.empirical(spawn_rng(seed, n, 0).random((n, 1)))
            assert w1_exact(grid, emp, CUBE_LINF) == pytest.approx(w1_1d_cdf(grid, emp),
                                                                   abs=1e-12)

    @pytest.mark.parametrize("n", [16, 64])
    def test_multiscale_sweep_d2_against_assignment(self, n):
        """The 32^2 grid (one coarse level) against seeded empirical measures
        matches the assignment oracle to 1e-12 under every metric."""
        from widthlab.util import spawn_rng

        grid = DiscreteMeasure.uniform_grid(2, 32)
        for seed in range(3):
            emp = DiscreteMeasure.empirical(spawn_rng(seed, n, 0).random((n, 2)))
            for metric in (CUBE_LINF, TORUS_LINF, TorusMetricConfig("ell_2", True)):
                assert w1_exact(grid, emp, metric) == pytest.approx(
                    w1_assignment_oracle(grid, emp, metric), abs=1e-12)

    def test_value_does_not_depend_on_atom_order(self):
        """Input order picks the north-west-corner support, so permuting the
        atoms of both measures changes the starting arcs but not the value:
        the 32^2 grid against 64 atoms matches the assignment oracle, and the
        4,096-atom grid on [0,1] against 64 atoms the CDF formula."""
        from functools import partial

        from widthlab.util import spawn_rng

        for d, res, oracle in ((2, 32, partial(w1_assignment_oracle, metric=CUBE_LINF)),
                               (1, 4096, w1_1d_cdf)):
            grid = DiscreteMeasure.uniform_grid(d, res)
            for seed in range(3):
                emp = DiscreteMeasure.empirical(spawn_rng(seed, 64, 0).random((64, d)))
                rng = np.random.default_rng(seed)
                value = w1_exact(permuted(rng, grid), permuted(rng, emp), CUBE_LINF)
                assert value == pytest.approx(oracle(grid, emp), abs=1e-12)

    def test_zero_weight_atoms_are_dropped(self):
        """A 64^2 grid carrying zero weight on a quarter of its atoms is
        solved as the 3,072-atom measure without them, coarse to fine."""
        from widthlab.util import spawn_rng

        grid = DiscreteMeasure.uniform_grid(2, 64)
        zero = np.arange(grid.size) % 4 == 1
        weights = np.where(zero, 0.0, 1.0 / (~zero).sum())
        emp = DiscreteMeasure.empirical(spawn_rng(5, 64, 0).random((64, 2)))
        with_zeros = w1_exact(DiscreteMeasure(grid.points, weights), emp, CUBE_LINF)
        kept = DiscreteMeasure(grid.points[~zero], weights[~zero])
        assert kept.size >= 1024
        assert with_zeros == pytest.approx(w1_exact(kept, emp, CUBE_LINF), abs=1e-12)

    @pytest.mark.parametrize("metric", [CUBE_LINF, TORUS_LINF, TorusMetricConfig("ell_2", True)],
                             ids=["cube-linf", "torus-linf", "torus-l2"])
    @pytest.mark.parametrize("m,n", [(60, 12), (200, 9)])
    def test_warm_model_from_north_west_support_matches_dense_lp(self, m, n, metric,
                                                                 monkeypatch):
        """Started from the north-west-corner support alone, on measures whose
        atoms come in random orders, the one model per level gains arcs over
        several rounds.  Its value must match a dense
        ``scipy.optimize.linprog`` solve over every arc, and so must the dual
        bound ``a.u + b.v`` of its column duals and their c-transform."""
        from scipy import sparse
        from scipy.optimize import linprog as dense_linprog

        from widthlab import transport

        rng = np.random.default_rng(m + n)
        mu, nu = random_measure(rng, m, 2), random_measure(rng, n, 2)
        mu, nu = permuted(rng, mu), permuted(rng, nu)
        a, b = mu.weights, nu.weights
        C = metric.pairwise(mu.points, nu.points)
        pairs = north_west_support(a, b)
        columns = []
        linprog = transport.linprog

        def counted(cost, **kwargs):
            columns.append(len(cost))
            return linprog(cost, **kwargs)

        monkeypatch.setattr(transport, "linprog", counted)
        value, v, _ = transport._column_generation(metric, mu.points, nu.points, a, b, pairs,
                                                   None)
        assert columns[0] == m + n - 1  # weights in general position
        assert len(columns) >= 3 and columns[-1] > columns[0]

        margins = sparse.vstack([sparse.kron(sparse.eye(m), np.ones((1, n))),
                                 sparse.kron(np.ones((1, m)), sparse.eye(n))])
        dense = dense_linprog(C.ravel(), A_eq=margins, b_eq=np.concatenate([a, b]),
                              bounds=(0, None), method="highs")
        assert dense.status == 0
        assert value == pytest.approx(dense.fun, abs=1e-12)
        assert a @ (C - v).min(axis=1) + b @ v == pytest.approx(dense.fun, abs=1e-12)

    def test_solve_holds_no_m_by_n_array(self):
        """The 64^2 grid against 256 atoms: costs are checked one row block
        at a time and each column is costed from its two atoms, so numpy's
        traced peak stays below one finest m x n float matrix (8 MiB)."""
        import tracemalloc

        from widthlab.util import spawn_rng

        grid = DiscreteMeasure.uniform_grid(2, 64)
        emp = DiscreteMeasure.empirical(spawn_rng(20240801, 256, 0).random((256, 2)))
        tracemalloc.start()
        try:
            w1_exact(grid, emp, CUBE_LINF)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < grid.size * emp.size * 8

    @pytest.mark.parametrize("rows", [1, 3], ids=["one-row-blocks", "ragged-three-row-blocks"])
    @pytest.mark.parametrize("d,res,n", [(2, 64, 256), (1, 4096, 64)],
                             ids=["grid-64x64", "line-4096"])
    def test_row_blocks_do_not_change_the_solve(self, d, res, n, rows, monkeypatch):
        """Blocks are scanned in row order and every entry is the same float
        operation, so blocks of one row, or of three rows with a shorter
        last block at every level, give the default blocks' value and the
        same column count in every HiGHS run."""
        from widthlab import transport
        from widthlab.util import spawn_rng

        grid = DiscreteMeasure.uniform_grid(d, res)
        emp = DiscreteMeasure.empirical(spawn_rng(20240801, n, 0).random((n, d)))
        columns = []
        linprog = transport.linprog

        def counted(cost, **kwargs):
            columns.append(len(cost))
            return linprog(cost, **kwargs)

        monkeypatch.setattr(transport, "linprog", counted)
        default = w1_exact(grid, emp, CUBE_LINF), list(columns)
        assert all(len(a) % 3 for _, a, _ in transport._levels(grid.points, grid.weights))
        columns.clear()
        monkeypatch.setattr(transport, "_BLOCK_ENTRIES", rows * n + 1)
        assert (w1_exact(grid, emp, CUBE_LINF), columns) == default

    @pytest.mark.parametrize("d,atoms", [(1, 4096), (2, 4096), (2, 3000), (3, 4096), (4, 5000)])
    def test_levels_match_the_unique_cell_rows(self, d, atoms):
        """Each coarse level holds the distinct cells in lexicographic row
        order, its masses summed per cell, as ``np.unique(cells, axis=0)``
        orders them."""
        from widthlab import transport

        rng = np.random.default_rng(d * atoms)
        points, weights = rng.random((atoms, d)), rng.dirichlet(np.ones(atoms))
        levels = transport._levels(points, weights)
        assert len(levels) >= 2
        coarse = np.zeros(atoms, dtype=np.int64)
        for centres, mass, cell_of in levels[:-1]:
            k = round(0.5 / np.min(centres))
            cells = np.minimum((points * k).astype(np.int64), k - 1)
            want, inverse = np.unique(cells, axis=0, return_inverse=True)
            inverse = inverse.ravel()
            assert np.array_equal(centres, (want + 0.5) / k)
            assert np.array_equal(mass, np.bincount(inverse, weights=weights))
            assert np.array_equal(cell_of[inverse], coarse)
            coarse = inverse
        assert np.array_equal(levels[-1][2], coarse)

    def test_dimension_mismatch(self):
        with pytest.raises(TransportError):
            w1_exact(DiscreteMeasure(np.atleast_2d([0.5]), [1.0]),
                     DiscreteMeasure(np.atleast_2d([0.5, 0.5]), [1.0]))

    def test_degenerate_weights_rejected(self):
        with pytest.raises(TransportError):
            DiscreteMeasure(np.array([[0.5]]), np.array([0.9]))
        with pytest.raises(TransportError):
            DiscreteMeasure(np.zeros((0, 1)), np.zeros(0))

    @pytest.mark.parametrize("points,weights,message", [
        ([[0.2], [0.4]], [1.0], "equal length"),
        ([[0.2], [0.4]], [1.5, -0.5], "nonnegative"),
        ([[0.2], [1.0]], [0.5, 0.5], r"\[0, 1\)"),
        ([[-0.1, 0.5]], [1.0], r"\[0, 1\)"),
        ([[np.nan], [0.5]], [0.5, 0.5], r"\[0, 1\)"),
        ([[0.2], [0.4]], [np.nan, 0.5], "nonnegative"),
    ], ids=["lengths", "negative-weight", "coordinate-one", "negative-coordinate",
            "nan-coordinate", "nan-weight"])
    def test_invalid_measure_rejected(self, points, weights, message):
        with pytest.raises(TransportError, match=message):
            DiscreteMeasure(np.array(points), np.array(weights))

    def test_empty_grid_rejected(self):
        with pytest.raises(TransportError, match="resolution"):
            DiscreteMeasure.uniform_grid(2, 0)


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


def _broadcast_pairwise(metric, X, Y):
    """The distance matrix through the (m, n, d) array of coordinate gaps."""
    D = np.abs(X[:, None, :] - Y[None, :, :])
    if metric.periodic:
        D = np.minimum(D, 1.0 - D)
    return D.max(axis=2) if metric.norm == "ell_inf" else np.sqrt((D**2).sum(axis=2))


_METRICS = [TorusMetricConfig(norm, periodic) for norm in ("ell_inf", "ell_2")
            for periodic in (False, True)]


def _metric_id(metric):
    return f"{'torus' if metric.periodic else 'cube'}-{metric.norm}"


# every metric and dimension where the Euclidean sums are bit for bit the
# broadcast's (fewer than 8 terms)
_BIT_EXACT = [pytest.param(metric, d, id=f"{_metric_id(metric)}-d{d}")
              for metric in _METRICS for d in range(1, 9) if metric.norm == "ell_inf" or d <= 7]


class TestPairwise:
    @pytest.mark.parametrize("metric,d", _BIT_EXACT)
    def test_slabs_match_broadcast_bit_for_bit(self, metric, d):
        """Each coordinate's gap is the same float operation either way, and
        a max is exact in any order.  numpy sums fewer than 8 terms in
        order, as the running sum does, so the Euclidean norm is bit for bit
        the same up to d = 7."""
        rng = np.random.default_rng(d)
        X, Y = rng.random((70, d)), rng.random((30, d))
        np.testing.assert_array_equal(metric.pairwise(X, Y), _broadcast_pairwise(metric, X, Y))

    @pytest.mark.parametrize("metric,d", _BIT_EXACT)
    def test_arc_costs_match_pairwise_bit_for_bit(self, metric, d):
        """Each LP column's cost comes from its two atoms through the same
        distance kernel as ``pairwise``, so every arc, taken in any order,
        costs exactly its matrix entry; some coordinate gaps exceed 1/2, so
        periodic metrics wrap."""
        from widthlab.transport import _arc_costs

        rng = np.random.default_rng(d)
        X, Y = rng.random((70, d)), rng.random((30, d))
        assert np.any(np.abs(X[:, None, :] - Y[None, :, :]) > 0.5)
        arcs = rng.permutation(70 * 30)
        np.testing.assert_array_equal(_arc_costs(metric, X, Y, arcs),
                                      metric.pairwise(X, Y).ravel()[arcs])

    @pytest.mark.parametrize("periodic", [False, True])
    @pytest.mark.parametrize("d", [8, 9, 12, 16])
    def test_euclidean_from_d8_within_summation_error(self, d, periodic):
        """From 8 terms numpy sums pairwise, so the two sums of the same d
        squares differ in order only.  Each is within gamma_(d-1) * S of the
        exact sum S (gamma_k = k u / (1 - k u), u = 2^-53), so the square
        roots differ by at most gamma_(d-1) * sqrt(S) to first order, and
        each rounded root adds u; the factor 1 + gamma_(d-1) covers the
        second-order terms and measuring against the computed root."""
        u = 2.0**-53
        gamma = (d - 1) * u / (1 - (d - 1) * u)
        metric = TorusMetricConfig("ell_2", periodic)
        rng = np.random.default_rng(d)
        X, Y = rng.random((70, d)), rng.random((30, d))
        got, ref = metric.pairwise(X, Y), _broadcast_pairwise(metric, X, Y)
        assert np.all(np.abs(got - ref) <= (gamma + 2 * u) * (1 + gamma) * ref)

    @pytest.mark.parametrize("metric", _METRICS, ids=_metric_id)
    def test_peak_memory_below_three_matrices(self, metric):
        """No (m, n, d) temporary: on 4,096 x 256 points in d = 4 the build
        peaks below three m x n float matrices (numpy reports its buffers to
        tracemalloc); the gap array alone would take four."""
        import tracemalloc

        rng = np.random.default_rng(4)
        X, Y = rng.random((4096, 4)), rng.random((256, 4))
        tracemalloc.start()
        try:
            metric.pairwise(X, Y)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 3 * 4096 * 256 * 8


class TestCoveringBound:
    def test_d1_n1_value(self):
        # (1/2) * (2 * omega_1)**-1 with omega_1 = 2
        assert covering_lower_bound(1, 1, CUBE_LINF) == pytest.approx(1 / 8, rel=1e-15)

    def test_exact_1d_dirac_check(self):
        # distance from (a grid version of) the uniform measure to a single
        # atom at 1/2 is the integral of |x - 1/2| = 1/4 >= the 1/8 bound
        grid = DiscreteMeasure.uniform_grid(1, 256)
        w1 = w1_exact(grid, DiscreteMeasure(np.atleast_2d([0.5]), [1.0]), CUBE_LINF)
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
            vol = ball_intersection_volume(np.zeros(d), 0.1)
            assert vol == pytest.approx(0.2**d, rel=1e-12)

    def test_disjoint(self):
        assert ball_intersection_volume(np.array([0.5, 0.0]), 0.1) == 0.0

    def test_half_offset_hand_case(self):
        # d=2, eps=1/5, offset (1/5, 0): (2e-1/5)(2e) = 2/25
        vol = ball_intersection_volume(np.array([0.2, 0.0]), 0.2)
        assert vol == pytest.approx(2 / 25, rel=1e-12)

    def test_monte_carlo_cross_check(self):
        rng = np.random.default_rng(8)
        for _ in range(5):
            offset = rng.uniform(-0.3, 0.3, 2)
            eps = rng.uniform(0.05, 0.2)
            exact = ball_intersection_volume(offset, eps)
            mc, se = ball_intersection_volume_mc(offset, eps, samples=200_000, seed=9)
            assert mc == pytest.approx(exact, abs=max(4 * se, 1e-4))

    def test_periodic_radius_guard(self):
        with pytest.raises(TransportError):
            ball_intersection_volume(np.zeros(2), 0.3)

    @pytest.mark.parametrize("volume", [
        ball_intersection_volume,
        lambda offset, eps: ball_intersection_volume_mc(offset, eps, samples=1000)],
        ids=["exact", "mc"])
    def test_radius_bounds(self, volume):
        """Torus balls need ``0 < eps < 1/4``: none at zero or negative
        radius, and none that wraps onto itself."""
        for eps in (0.0, -0.1, 0.25):
            with pytest.raises(TransportError):
                volume(np.zeros(2), eps)
        volume(np.zeros(2), 0.2499)

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
        exact = indicator_sum_l2(centers, eps)
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
