"""Empirical-measure machinery on the unit cube / flat torus.

Exact 1-Wasserstein distances between finitely supported measures (network
LP with a dual optimality certificate), the ball-covering lower bound
against any n-point empirical measure, and the L2 operator-norm surrogate
of the smoothed evaluation functionals

    A(phi) = (1/n) sum_i average of phi over the ball B_eps(x_i),

which stays bounded uniformly in n when ``eps = gamma_d n**(-1/d)``.

Conventions.  Points live in ``[0,1)^d``.  The default ground norm is the
sup norm.  The ball layer (intersection volumes, indicator sums, the
surrogate) knows one metric only: sup-norm balls on the flat torus, that is
axis-aligned cubes whose distances wrap per coordinate, so volumes and
pairwise intersection volumes are exact products and boundary effects
vanish.  The empirical-rate experiment defaults to the plain unit cube for
W1, where the covering bound argument also applies verbatim, and reports
the surrogate on torus balls whatever its ground metric.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import List, Sequence

import numpy as np
from scipy.optimize import OptimizeResult
from scipy.optimize._highspy import _core as highs  # HiGHS's own binding, scipy >= 1.15

from .util import OptimizationError, as_points, fit_loglog, midpoint_grid, spawn_rng

__all__ = [
    "TransportError",
    "TorusMetricConfig",
    "DiscreteMeasure",
    "w1_exact",
    "covering_lower_bound",
    "ball_intersection_volume",
    "indicator_sum_l2",
    "default_gamma",
    "smoothing_l2_surrogate",
    "smoothing_operator_constant",
    "empirical_w1_rate",
    "RateReport",
    "RateTrial",
]


class TransportError(ValueError):
    """Invalid measures, metrics, or infeasible problem sizes."""


# ---------------------------------------------------------------------------
# Ground metric
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TorusMetricConfig:
    """Ground metric on the unit cube, optionally with per-coordinate wrap.

    ``norm`` is ``"ell_inf"`` (default; balls are cubes, everything exact)
    or ``"ell_2"``.  When ``periodic``, coordinate differences are reduced to
    ``min(|u|, 1-|u|)`` before taking the norm.
    """

    norm: str = "ell_inf"
    periodic: bool = True

    def __post_init__(self):
        if self.norm not in ("ell_inf", "ell_2"):
            raise TransportError(f"unsupported norm {self.norm!r}")

    def _distance(self, X, Y, out, slab) -> np.ndarray:
        """Distances between the points of X and Y (coordinates on the last
        axis), elementwise over their broadcast leading axes, written into
        ``out`` one coordinate at a time, with ``slab`` of the same shape as
        scratch: a running max, or a running sum of squares.  Every distance
        the module uses goes through here, so the same pair of points gives
        the same bits whatever array it sits in."""
        for k in range(X.shape[-1]):
            gap = slab if k else out  # max(0, s) and 0 + s are s, so out starts as the first gap
            np.abs(np.subtract(X[..., k], Y[..., k], out=gap), out=gap)
            if self.periodic:  # min(s, 1 - s): 1 - s is exact for s >= 1/2
                np.subtract(1.0, gap, out=gap, where=gap > 0.5)
            if self.norm == "ell_2":
                np.square(gap, out=gap)
            if not k:
                continue
            if self.norm == "ell_inf":
                np.maximum(out, gap, out=out)
            else:
                out += gap
        return out if self.norm == "ell_inf" else np.sqrt(out, out=out)

    def pairwise(self, X, Y) -> np.ndarray:
        """Distance matrix between rows of X and rows of Y."""
        X, Y = np.asarray(X, float), np.asarray(Y, float)
        shape = (len(X), len(Y))
        return self._distance(X[:, None, :], Y[None, :, :], np.empty(shape), np.empty(shape))


CUBE_LINF = TorusMetricConfig(norm="ell_inf", periodic=False)
TORUS_LINF = TorusMetricConfig(norm="ell_inf", periodic=True)


# ---------------------------------------------------------------------------
# Measures
# ---------------------------------------------------------------------------


@dataclass
class DiscreteMeasure:
    """Weighted point cloud on [0,1)^d; weights sum to one."""

    points: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        self.points = as_points(self.points)
        self.weights = np.asarray(self.weights, dtype=float)
        if self.points.shape[0] != self.weights.shape[0]:
            raise TransportError("points and weights must have equal length")
        if self.points.shape[0] == 0:
            raise TransportError("measure must have nonempty support")
        # each check is written so that a NaN fails it
        if not np.all(self.weights >= 0):
            raise TransportError("weights must be nonnegative")
        if not abs(self.weights.sum() - 1.0) <= 1e-12:
            raise TransportError(f"weights must sum to 1, got {self.weights.sum()!r}")
        if not np.all((self.points >= 0.0) & (self.points < 1.0)):
            raise TransportError("all coordinates must lie in [0, 1)")

    @property
    def size(self) -> int:
        return self.points.shape[0]

    @property
    def dim(self) -> int:
        return self.points.shape[1]

    @classmethod
    def empirical(cls, points) -> "DiscreteMeasure":
        points = as_points(points)
        n = points.shape[0]
        return cls(points, np.full(n, 1.0 / n))

    @classmethod
    def uniform_grid(cls, d: int, resolution: int) -> "DiscreteMeasure":
        """Midpoint tensor grid discretizing the uniform measure on the cube."""
        if resolution < 1:
            raise TransportError("resolution must be >= 1")
        if resolution**d > 1_000_000:
            raise TransportError(
                f"grid of size {resolution}^{d} exceeds the 1e6-atom exact-solver budget")
        pts = midpoint_grid(d, resolution)
        return cls(pts, np.full(pts.shape[0], 1.0 / pts.shape[0]))

    def drop_zero_atoms(self) -> "DiscreteMeasure":
        keep = self.weights > 0
        if keep.all():
            return self
        return DiscreteMeasure(self.points[keep], self.weights[keep])


# ---------------------------------------------------------------------------
# Exact W1 (coarse-to-fine restricted LPs with a dual certificate)
# ---------------------------------------------------------------------------

_REDUCED_COST_TOL = 1e-11
_MULTISCALE_MIN_ATOMS = 1024  # smaller measures are solved at their own scale only
_COARSEST_CELLS = 256  # the coarsest level is the finest dyadic grid with this many cells
_STALL_SCALE = 2.0**10  # exact in binary, so scaled costs and values stay exact
_BLOCK_ENTRIES = 1 << 16  # reduced costs are scanned in row blocks of at most this many arcs


def _initial_pairs(C: np.ndarray) -> np.ndarray:
    """The 6 nearest arcs of each row and the 8 nearest of each column (all
    of them where a row or column has fewer)."""
    m, n = C.shape
    near_cols = np.argpartition(C, min(6, n) - 1, axis=1)[:, :6]
    near_rows = np.argpartition(C, min(8, m) - 1, axis=0)[:8]
    rows = np.concatenate([np.repeat(np.arange(m), near_cols.shape[1]), near_rows.ravel()])
    cols = np.concatenate([near_cols.ravel(), np.tile(np.arange(n), near_rows.shape[0])])
    return np.stack([rows, cols], axis=1)


def _cost_blocks(metric, X, Y):
    """The cost matrix between the points X and Y as ``(first row, block)``
    pairs in row order, each block built from the points and holding at
    most ``_BLOCK_ENTRIES`` entries (one row at least).  Every block is
    written into the same buffer, so each is gone once the next is drawn."""
    rows = min(len(X), max(1, _BLOCK_ENTRIES // len(Y)))
    out, slab = np.empty((rows, len(Y))), np.empty((rows, len(Y)))
    for lo in range(0, len(X), rows):
        k = min(rows, len(X) - lo)
        yield lo, metric._distance(X[lo:lo + k, None, :], Y[None, :, :], out[:k], slab[:k])


def _arc_costs(metric, X, Y, arcs) -> np.ndarray:
    """The cost of each arc (a flat index into the cost matrix between the
    points X and Y), from its two atoms."""
    rows, cols = np.divmod(arcs, len(Y))
    return metric._distance(X[rows], Y[cols], np.empty(len(arcs)), np.empty(len(arcs)))


def _warm_pairs(metric, X, Y, v) -> np.ndarray:
    """Arcs tight for the column duals ``v`` and their c-transform
    ``u_i = min_j (C_ij - v_j)``: in each row, every arc whose reduced cost
    ``C_ij - v_j - u_i`` is zero, ties included."""
    tight = []
    for lo, reduced in _cost_blocks(metric, X, Y):
        reduced -= v
        tight.append(np.argwhere(reduced == reduced.min(axis=1, keepdims=True)) + [lo, 0])
    return np.concatenate(tight)


def _levels(points: np.ndarray, weights: np.ndarray):
    """Coarse-to-fine copies of a measure as ``(points, weights, cell_of)``,
    where ``cell_of`` maps each atom to the atom of the level before that
    holds it (all 0 at the first level).

    Each coarse copy snaps the atoms to a dyadic cell grid and sums their
    masses at the cell centres (so a midpoint grid coarsens to a midpoint
    grid).  Each level has about four times the cells of the one before,
    nested in them; a cell grid serves only while it has at most a quarter
    as many cells as the measure has atoms, and the last level is the
    measure itself.
    """
    m, d = points.shape
    level, step = (_COARSEST_CELLS.bit_length() - 1) // d, max(1, 2 // d)
    out, coarse = [], np.zeros(m, dtype=np.int64)
    while m >= _MULTISCALE_MIN_ATOMS and level >= 1 and 4 << (level * d) <= m:
        k = 1 << level
        cells = np.minimum((points * k).astype(np.int64), k - 1)
        # ascending linear cell index is the lexicographic order of the rows
        index, inverse = np.unique(cells @ k ** np.arange(d - 1, -1, -1), return_inverse=True)
        cells = np.stack(np.unravel_index(index, (k,) * d), axis=1)
        cell_of = np.empty(len(cells), dtype=np.int64)
        cell_of[inverse] = coarse
        out.append(((cells + 0.5) / k, np.bincount(inverse, weights=weights), cell_of))
        level, coarse = level + step, inverse
    out.append((points, weights, coarse))
    return out


def _split_plan(plan, cell_of, a):
    """Prolong the coarse plan ``(pairs, flow)``, whose rows are cells, onto
    the atoms (masses ``a``) of the next level; ``cell_of`` maps each atom to
    its cell.

    Each coarse arc's flow goes onto the atoms of its cell by a north-west
    corner: the cell's atoms in input order against its arcs in column
    order.  One corner runs over both lists, sorted by cell and laid end to
    end on one mass axis.  Each cell's arcs are anchored to the cell's span
    of atom mass and the last one ends where the span ends, so the corner
    never crosses a cell, and the rounding between the two sums of a cell's
    mass falls on its last arc.  The result meets the fine margins and the
    coarse flows up to that rounding.  It is a staircase within each cell,
    so it is a forest when the coarse plan is one.  Split from a single cell
    that sends ``b_j`` to column j, it is the support of the north-west-corner
    plan between ``a`` and ``b``.
    """
    atoms = np.argsort(cell_of, kind="stable")
    cells = cell_of[atoms]
    hi_a = np.cumsum(a[atoms])
    end = hi_a[np.append(cells[1:] != cells[:-1], True)]  # every cell holds an atom
    start = np.concatenate([[0.0], end[:-1]])
    pairs, flow = plan
    arcs = np.lexsort((pairs[:, 1], pairs[:, 0]))
    rows, flow = pairs[arcs, 0], flow[arcs]
    sums = np.cumsum(flow)
    within = sums - (sums - flow)[np.searchsorted(rows, rows)]
    hi_b = np.minimum(start[rows] + within, end[rows])
    last = np.append(rows[1:] != rows[:-1], True)
    hi_b[last] = end[rows[last]]
    cuts = np.unique(np.concatenate([hi_a, hi_b]))
    fine = np.stack([atoms[np.searchsorted(hi_a, cuts)],
                     pairs[arcs[np.searchsorted(hi_b, cuts)], 1]], axis=1)
    return fine, np.diff(cuts, prepend=0.0)


# scipy's status codes for HiGHS's model statuses; every other status is 4
_STATUS = {highs.HighsModelStatus.kOptimal: 0, highs.HighsModelStatus.kTimeLimit: 1,
           highs.HighsModelStatus.kIterationLimit: 1, highs.HighsModelStatus.kInfeasible: 2,
           highs.HighsModelStatus.kUnbounded: 3}


def _transport_model(a, b, arcs):
    """HiGHS model of the transport LP between the margins ``a`` and ``b`` on
    ``arcs`` (flat indices into the m x n cost matrix), all costs zero.

    One margin constraint is redundant (both margins sum to 1); the last one
    is dropped to keep the equality system full rank, so its dual is pinned
    to zero.
    """
    model = highs._Highs()
    model.setOptionValue("output_flag", False)
    model.setOptionValue("simplex_strategy", 0)  # primal from a feasible basis, else dual
    rhs = np.concatenate([a, b[:-1]])
    empty = np.zeros(0, dtype=np.int32)
    model.addRows(len(rhs), rhs, rhs, 0, empty, empty, np.zeros(0))
    _add_arcs(model, len(a), len(b), arcs)
    return model


def _add_arcs(model, m, n, arcs):
    """Append one zero-cost column per arc: a 1 in its row margin and, unless
    it ends in the dropped last column margin, a 1 in its column margin."""
    rows, cols = np.divmod(arcs, n)
    index = np.stack([rows, m + cols], axis=1)
    keep = index < m + n - 1
    counts = keep.sum(axis=1)
    model.addCols(len(arcs), np.zeros(len(arcs)), np.zeros(len(arcs)),
                  np.full(len(arcs), highs.kHighsInf), counts.sum(),
                  (np.cumsum(counts) - counts).astype(np.int32),
                  index[keep].astype(np.int32), np.ones(counts.sum()))


def _set_basis(model, basic):
    """Start ``model`` from the columns flagged in ``basic``: an alien basis,
    which HiGHS completes with row logicals where it is rank deficient."""
    start = highs.HighsBasis()
    status = np.full(len(basic), highs.HighsBasisStatus.kLower)
    status[basic] = highs.HighsBasisStatus.kBasic
    start.col_status = status
    start.row_status = [highs.HighsBasisStatus.kLower] * model.getNumRow()
    start.alien = True
    if model.setBasis(start) != highs.HighsStatus.kOk:
        raise OptimizationError("HiGHS rejected the starting basis")


def linprog(cost, *, model) -> OptimizeResult:
    """Run HiGHS on ``model`` with ``cost`` as the costs of all its columns,
    starting from the basis of the model's last run or the basis set on it,
    if it has one.

    Reports as scipy's ``linprog`` does: ``status`` (0 optimal, 1 limit,
    2 infeasible, 3 unbounded, 4 other), ``message``, ``fun``, ``nit`` (the
    simplex iterations of this run) and ``eqlin.marginals`` (the row duals);
    ``fun`` and the duals are None unless the status is 0.
    """
    model.changeColsCost(len(cost), np.arange(len(cost), dtype=np.int32), cost)
    model.run()
    status = model.getModelStatus()
    info = model.getInfo()
    res = OptimizeResult(status=_STATUS.get(status, 4), message=model.modelStatusToString(status),
                         nit=info.simplex_iteration_count, fun=None,
                         eqlin=OptimizeResult(marginals=None))
    if res.status == 0:
        res.fun = info.objective_function_value
        res.eqlin.marginals = np.array(model.getSolution().row_dual)
    return res


def _column_generation(metric, X, Y, a, b, pairs, basic):
    """Optimal cost, column duals ``v`` and optimal plan of the transport LP
    between the atoms X (masses ``a``) and Y (masses ``b``) under ``metric``;
    the plan is ``(pairs, flow)``, its arcs with positive flow.

    Builds one HiGHS model on ``pairs`` and ``basic``, starting from the
    basis that holds the arcs of ``basic`` (cold if it is None), and checks
    the duals of its optimum against every arc.  Arcs with negative reduced
    cost that the model lacks are appended as new columns, and HiGHS
    re-optimises from the basis it holds; this repeats until no arc is
    violated, for at most 60 rounds.  Each column's cost comes from its two
    atoms, and each round's check builds the costs one row block at a time
    (``_cost_blocks``), so no m x n array is held.

    HiGHS stops once its duals are feasible to 1e-7, far above
    ``_REDUCED_COST_TOL``, so a violated arc may already be in the model.
    When a round adds no arc, the model's costs are scaled by
    ``_STALL_SCALE``, which tightens HiGHS's tolerance by the same factor,
    and it re-optimises from the same basis.
    """
    m, n = len(X), len(Y)
    start = pairs if basic is None else np.concatenate([pairs, basic])
    arcs = np.unique(np.ravel_multi_index(start.T, (m, n)))
    model = _transport_model(a, b, arcs)
    if basic is not None:
        _set_basis(model, np.isin(arcs, np.ravel_multi_index(basic.T, (m, n))))
    scale, cost = 1.0, _arc_costs(metric, X, Y, arcs)
    for _ in range(60):
        lp = linprog(cost * scale, model=model)
        if lp.status != 0:
            raise OptimizationError(f"transport LP failed: {lp.message}")
        duals = lp.eqlin.marginals / scale
        u = duals[:m]
        v = np.concatenate([duals[m:], [0.0]])
        violated, reduced = [], []
        for lo, block in _cost_blocks(metric, X, Y):
            np.subtract(block, u[lo:lo + len(block), None], out=block)
            block -= v
            hits = np.flatnonzero(block < -_REDUCED_COST_TOL)
            violated.append(hits + lo * n)
            reduced.append(np.take(block, hits))
        violated = np.concatenate(violated)
        if violated.size == 0:
            flow = np.array(model.getSolution().col_value)
            used = flow > 0
            return float(lp.fun) / scale, v, (np.stack(np.divmod(arcs[used], n), axis=1),
                                               flow[used])
        if violated.size > 20_000:
            violated = violated[np.argsort(np.concatenate(reduced))[:20_000]]
        new = np.setdiff1d(violated, arcs)
        if new.size == 0:
            scale *= _STALL_SCALE
        else:
            _add_arcs(model, m, n, new)
            arcs = np.concatenate([arcs, new])
            cost = np.concatenate([cost, _arc_costs(metric, X, Y, new)])
    raise OptimizationError("column generation did not certify optimality")


def w1_exact(mu: DiscreteMeasure, nu: DiscreteMeasure,
             metric: TorusMetricConfig = TORUS_LINF) -> float:
    """Optimal transport cost between two discrete measures, solved exactly.

    The larger measure is solved coarse to fine.  From 1,024 atoms up (in at
    most eight dimensions) its atoms are snapped to dyadic cell grids, the
    coarsest with at most 256 cells and each next one with about four times
    as many, and their masses summed; the last level is the measure itself.
    The smaller measure is the same at every level.

    Every level starts from the optimal plan of the level before, each
    coarse arc's flow split onto the atoms of its cell (``_split_plan``).
    Before the coarsest level stands one cell holding all the mass, which
    sends ``b_j`` to column j, so the coarsest level's split is the support
    of a north-west-corner plan, both measures in input order.  The split
    plan meets the margins, so its arcs make the restricted LP feasible.
    The coarsest level starts cold, with the dual simplex, from those arcs,
    the 6 nearest arcs of each row and the 8 nearest of each column.  Each
    finer level starts from its split plan as HiGHS's basis, primal
    feasible, and HiGHS re-optimises with the primal simplex.  Beside it
    the level holds only the arcs tight for the column duals ``v`` of the
    level before and their c-transform ``u_i = min_j (C_ij - v_j)``.

    Each level is one HiGHS model, solved by column generation: its optimum
    is certified against *all* arcs through its duals, and violated arcs are
    appended and re-optimised from the last optimal basis until the reduced
    costs are clean.  The result equals the full LP's optimum.

    Memory follows the arcs, not m x n.  Beside HiGHS's models a solve
    holds each restricted LP's arcs and their costs, each round's violated
    arcs, one row block of the cost matrix at a time with its scratch slab
    (at most 65,536 entries each, built from the points), and the coarsest
    level's whole cost matrix, from which its nearest arcs are picked: at
    most 256 rows where the measure is coarsened, and the measure's own
    rows otherwise (fewer than 1,024 in up to eight dimensions).  Raises
    :class:`~widthlab.util.OptimizationError` when HiGHS fails or rejects a
    starting basis, or 60 rounds do not certify a level.
    """
    mu, nu = mu.drop_zero_atoms(), nu.drop_zero_atoms()
    if mu.dim != nu.dim:
        raise TransportError(f"dimension mismatch: {mu.dim} vs {nu.dim}")
    swap = mu.size < nu.size
    big, small = (nu, mu) if swap else (mu, nu)
    Y, b = small.points, small.weights
    # before the coarsest level, one cell holds all the mass and sends b_j to column j
    v, plan = None, (np.stack([np.zeros(len(b), dtype=np.int64), np.arange(len(b))], axis=1), b)
    for X, a, cell_of in _levels(big.points, big.weights):
        split = _split_plan(plan, cell_of, a)[0]
        if v is None:
            pairs, basic = np.concatenate([_initial_pairs(metric.pairwise(X, Y)), split]), None
        else:
            pairs, basic = _warm_pairs(metric, X, Y, v), split
        value, v, plan = _column_generation(metric, X, Y, a, b, pairs, basic)
    return value


# ---------------------------------------------------------------------------
# Covering lower bound
# ---------------------------------------------------------------------------


def covering_lower_bound(n: int, d: int, metric: TorusMetricConfig = TORUS_LINF) -> float:
    """Transport cost from the uniform cube measure to *any* n-point measure.

    Balls of radius ``eps n**(-1/d)`` around the n support points cover at
    most ``omega_d eps^d`` of the cube, so mass ``1 - omega_d eps^d`` must
    travel at least ``eps n**(-1/d)``; optimizing eps gives

        d/(d+1) * ((d+1) omega_d)**(-1/d) * n**(-1/d).
    """
    if n < 1 or d < 1:
        raise TransportError("n and d must be positive")
    if metric.norm == "ell_inf":
        omega = 2.0**d
    else:
        omega = math.pi ** (d / 2.0) / math.gamma(d / 2.0 + 1.0)
    return d / (d + 1.0) * ((d + 1.0) * omega) ** (-1.0 / d) * n ** (-1.0 / d)


# ---------------------------------------------------------------------------
# Balls: intersections and the smoothing surrogate
# ---------------------------------------------------------------------------


def _check_balls(epsilon: float):
    """Torus balls of positive radius below 1/4, so that no ball wraps onto
    itself."""
    if not 0 < epsilon < 0.25:
        raise TransportError(f"epsilon must lie in (0, 1/4) for torus balls, got {epsilon}")


def ball_intersection_volume(offset, epsilon: float) -> np.ndarray:
    """Volume of the overlap of two radius-eps sup-norm torus balls at the
    given offset.

    The last axis of ``offset`` holds the coordinates, so an array of
    offsets gives an array of volumes (one offset gives a float).  Exact:
    the overlap factorizes per coordinate into ``max(0, 2 eps - dist_i)``,
    with ``dist_i`` the wrapped coordinate distance.
    """
    _check_balls(epsilon)
    delta = np.abs(np.asarray(offset, dtype=float))
    delta = np.minimum(delta, 1.0 - delta)
    return np.prod(np.maximum(0.0, 2.0 * epsilon - delta), axis=-1)


def indicator_sum_l2(centers, epsilon: float) -> float:
    """Squared L2 norm of the sum of the n torus ball indicators.

    Equals ``n omega_d eps^d`` plus the sum of all pairwise intersection
    volumes, that is the sum of the overlaps of every ordered pair of balls,
    each with itself included; exact.  Rows of centres go
    in blocks of about 2^20 offsets, so memory stays flat in n.
    """
    centers = as_points(centers)
    n, d = centers.shape
    rows = max(1, (1 << 20) // (n * d))
    return float(sum(ball_intersection_volume(block[:, None, :] - centers[None, :, :],
                                              epsilon).sum()
                     for block in np.split(centers, range(rows, n, rows))))


def default_gamma(d: int) -> float:
    """Ball-scale constant keeping the covering bound's bracket positive.

    One quarter of the sup-norm covering constant divided by ``d/(d+1)``,
    the mean radius ``|x|`` over the unit ball, so the smoothed measure
    stays at least 3/4 of the covering bound away from the uniform measure.
    """
    return 0.25 * covering_lower_bound(1, d) / (d / (d + 1.0))


def smoothing_l2_surrogate(centers, epsilon: float) -> float:
    """Realized L2 operator-norm surrogate ``|sum 1_B|_2 / (n omega eps^d)``
    on torus balls, ``omega = 2^d``."""
    centers = as_points(centers)
    n, d = centers.shape
    mass = n * 2.0**d * epsilon**d
    return float(math.sqrt(indicator_sum_l2(centers, epsilon)) / mass)


def smoothing_operator_constant(d: int, gamma: float) -> float:
    """Dimension constant bounding the expected L2 surrogate for random
    centers at scale ``eps = gamma n**(-1/d)``, for sup-norm balls.

    Their normalized mean intersection constant equals 1, giving
    ``sqrt((1 + (2 gamma)^d) / (omega_d gamma^d))`` with ``omega_d = 2^d``.
    """
    return math.sqrt((1.0 + 2.0**d * gamma**d) / (2.0**d * gamma**d))


# ---------------------------------------------------------------------------
# Empirical convergence-rate experiment
# ---------------------------------------------------------------------------


@dataclass
class RateTrial:
    n: int
    trial: int
    w1: float
    lower_bound: float
    l2_surrogate: float
    seed_key: str


@dataclass
class RateReport:
    d: int
    trials: List[RateTrial]
    mean_w1: dict
    slope: float
    slope_stderr: float
    intercept: float
    grid_spacing: float
    discretization_error: float
    smoothing_gamma: float
    smoothing_operator_constant: float

    @property
    def all_bounds_hold(self) -> bool:
        slack = 2.0 * self.grid_spacing
        return all(t.w1 >= t.lower_bound - slack for t in self.trials)


def empirical_w1_rate(d: int, n_values: Sequence[int], trials: int,
                      grid_resolution: int, seed: int = 0,
                      metric: TorusMetricConfig = CUBE_LINF,
                      threads: int = 1) -> RateReport:
    """Mean exact W1 between the grid-uniform measure and iid empirical
    measures, with a log-log rate fit.

    Every individual trial is checked against the covering lower bound minus
    the grid discretization slack.  Each trial also carries the L2 surrogate
    of its smoothed functional at ``eps = gamma n**(-1/d)``, on sup-norm
    torus balls whatever ``metric`` is (the surrogate is a property of the
    centres, not of the ground metric), for comparison with
    :func:`smoothing_operator_constant`.  Trials are independently seeded
    from ``(seed, n, trial)`` and may run concurrently.
    """
    grid = DiscreteMeasure.uniform_grid(d, grid_resolution)
    jobs = [(n, t) for n in n_values for t in range(trials)]
    gamma = default_gamma(d)

    def run(job):
        n, t = job
        points = spawn_rng(seed, n, t).random((n, d))
        emp = DiscreteMeasure.empirical(points)
        return RateTrial(n=n, trial=t, w1=w1_exact(grid, emp, metric),
                         lower_bound=covering_lower_bound(n, d, metric),
                         l2_surrogate=smoothing_l2_surrogate(points, gamma * n ** (-1.0 / d)),
                         seed_key=f"{seed}:{n}:{t}")

    # serial path kept: a one-worker pool's thread gets its own malloc arena (+2 MiB RSS)
    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            results = list(pool.map(run, jobs))
    else:
        results = [run(j) for j in jobs]

    mean_w1 = {n: float(np.mean([r.w1 for r in results if r.n == n])) for n in n_values}
    slope, intercept, stderr = fit_loglog(list(mean_w1.keys()), list(mean_w1.values()))
    spacing = 1.0 / grid_resolution
    disc = spacing / 2.0 if metric.norm == "ell_inf" else math.sqrt(d) * spacing / 2.0
    return RateReport(d=d, trials=results, mean_w1=mean_w1, slope=slope, slope_stderr=stderr,
                      intercept=intercept, grid_spacing=spacing, discretization_error=disc,
                      smoothing_gamma=gamma,
                      smoothing_operator_constant=smoothing_operator_constant(d, gamma))
