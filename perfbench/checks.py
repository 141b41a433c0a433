"""Output checks, made apart from widthlab.

Every check recomputes what it compares against with numpy/scipy alone, or
tests a property the method must have.  :func:`outputs_of` turns a worker
record into plain JSON data; :func:`check` returns the list of
``(check name, message)`` failures for it, empty when the outputs are
correct.
"""

import csv
import json
import math
from math import comb
from pathlib import Path

import numpy as np
from scipy.optimize import linear_sum_assignment

import spec


def _seeded(seed, *key):
    return np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=key))


def midpoint_grid(d, res):
    axis = (np.arange(res) + 0.5) / res
    mesh = np.meshgrid(*([axis] * d), indexing="ij")
    return np.column_stack([m.ravel() for m in mesh])


def sup_cost(X, Y):
    """Plain-cube sup-norm distances between the rows of X and Y."""
    return np.abs(X[:, None, :] - Y[None, :, :]).max(axis=2)


def assignment_w1(grid, points, N):
    """W1 between the uniform measure on ``grid`` and the empirical measure
    on ``points``, expanded to an N x N assignment problem."""
    C = sup_cost(grid, points)
    C = np.repeat(np.repeat(C, N // len(grid), axis=0), N // len(points), axis=1)
    rows, cols = linear_sum_assignment(C)
    return float(C[rows, cols].sum() / N)


def cdf_w1(grid_1d, points_1d):
    """W1 on the line as the integral of |F - G|.  The weights 1/4096 and
    1/16 are dyadic, so the cumulative sums are exact."""
    xs = np.concatenate([grid_1d, points_1d])
    w = np.concatenate([np.full(len(grid_1d), 1.0 / len(grid_1d)),
                        np.full(len(points_1d), -1.0 / len(points_1d))])
    order = np.argsort(xs, kind="stable")
    gap = np.cumsum(w[order])[:-1]
    return math.fsum(np.abs(gap) * np.diff(xs[order]))


def covering_bound(n, d):
    """``d/(d+1) ((d+1) 2^d)^(-1/d) n^(-1/d)``: the sup-norm W1 from the
    uniform measure to any n-point measure is at least this."""
    return d / (d + 1) * ((d + 1) * 2.0**d) ** (-1.0 / d) * n ** (-1.0 / d)


def w1_instance_points(instance_seed, d, n, trial):
    return _seeded(instance_seed, n, trial).random((n, d))


# -- w1-colgen ----------------------------------------------------------------


def check_w1(out, references):
    fails = []
    seed = out["instance_seed"]
    refs = references.get(str(seed), {})
    if not out.get("rounds_agree", True):
        fails.append(("w1.repeat", "rounds returned different values"))
    for d, n, trial in spec.W1_INSTANCES:
        key = f"{d}:{n}:{trial}"
        value = out["values"].get(key)
        if value is None:
            fails.append(("w1.present", f"no value for instance {key}"))
            continue
        res = spec.W1_GRID[d]
        if d == 2:
            ref = refs[key]
            if not abs(value - ref) <= 1e-9:
                fails.append(("w1.reference", f"{key}: {value!r} vs assignment {ref!r}"))
        elif d == 1:
            exact = cdf_w1(midpoint_grid(1, res).ravel(),
                           w1_instance_points(seed, d, n, trial).ravel())
            if not abs(value - exact) <= 1e-12:
                fails.append(("w1.cdf", f"{key}: {value!r} vs CDF integral {exact!r}"))
        floor = covering_bound(n, d) - 2.0 / res
        if not value >= floor:
            fails.append(("w1.covering", f"{key}: {value!r} below covering bound {floor!r}"))
    return fails


# -- width-curve --------------------------------------------------------------


def network_path_norm(net):
    a, W, b = (np.asarray(net[k], float) for k in ("outer", "inner", "bias"))
    return float(np.sum(np.abs(a) * (np.abs(W).sum(axis=1) + np.abs(b))) / len(a))


def heldout_error(net, anchors, seed):
    """Monte-Carlo L2 error on points the fit never saw, with its standard
    error, for the sup-norm distance-to-anchors target."""
    X = _seeded(seed, 7).random((spec.WIDTH_HELDOUT_POINTS, anchors.shape[1]))
    a, W, b = (np.asarray(net[k], float) for k in ("outer", "inner", "bias"))
    f = np.maximum(X @ W.T + b, 0.0) @ a / len(a)
    phi = np.min(np.max(np.abs(X[:, None, :] - anchors[None, :, :]), axis=2), axis=1)
    sq = (f - phi) ** 2
    err = math.sqrt(sq.mean())
    se = float(sq.std(ddof=1) / math.sqrt(sq.size)) / (2 * err)
    return err, se


def check_width(out):
    fails = []
    if not out.get("rounds_agree", True) or not out["capture_agrees"]:
        fails.append(("width.repeat", "sweeps of one seed returned different curves"))
    ts, errors, nets = out["t_grid"], out["errors"], out["nets"]
    if not len(ts) == len(errors) == len(nets):
        return fails + [("width.present", f"{len(ts)} budgets, {len(errors)} errors, "
                                          f"{len(nets)} networks")]
    anchors = _seeded(out["seed"], 99).random((spec.WIDTH_ANCHORS, spec.WIDTH_D))
    for t, err, net in zip(ts, errors, nets):
        if net["activation"] != "relu" or not net["averaged"]:
            fails.append(("width.path_norm", f"t={t}: not an averaged relu network"))
        pn = network_path_norm(net)
        if not pn <= t * (1 + 1e-9):
            fails.append(("width.path_norm", f"t={t}: path norm {pn!r} over budget"))
        ho, se = heldout_error(net, anchors, out["seed"])
        if not abs(err - ho) <= spec.WIDTH_HELDOUT_REL * ho + 4 * se:
            fails.append(("width.heldout", f"t={t}: reported {err!r}, held-out {ho!r}"))
    for (t0, e0), (t1, e1) in zip(zip(ts, errors), zip(ts[1:], errors[1:])):
        if not e1 <= e0:
            fails.append(("width.monotone", f"error rises from {e0!r} at t={t0} "
                                            f"to {e1!r} at t={t1}"))
    return fails


# -- lab-mix ------------------------------------------------------------------


def load_lab_results(directory):
    """Parsed results.csv and results.json of each command's output dir."""
    results = {}
    for name, _ in spec.LAB_COMMANDS:
        d = Path(directory) / name
        if (d / "results.json").is_file():
            with open(d / "results.csv", newline="") as fh:
                rows = list(csv.DictReader(fh))
            results[name] = {"csv": rows,
                             "json": json.loads((d / "results.json").read_text())}
    return results


def harmonic_dimension(d, k):
    """Degree-k harmonics on S^d: homogeneous polynomials of degree k in
    d+1 variables, minus those of degree k-2."""
    return comb(k + d, d) - (comb(k - 2 + d, d) if k >= 2 else 0)


def check_lab(out):
    fails = []
    codes, res = out["codes"], out["results"]
    if not out.get("rounds_agree", True):
        fails.append(("lab.repeat", "rounds wrote different outputs"))
    for name, _ in spec.LAB_COMMANDS:
        if codes.get(name) != 0 or name not in res:
            fails.append(("lab.exit", f"{name} exited {codes.get(name)!r}"))
    if fails:
        return fails

    sep = spec.LAB_SEPARATION
    expo = sep["beta"] / (sep["alpha"] - sep["beta"])
    got = res["separation"]["json"]["exponent"]
    if not math.isclose(got, expo, rel_tol=1e-15):
        fails.append(("lab.separation", f"exponent {got!r}, expected {expo!r}"))

    tr = spec.LAB_TRANSPORT
    grid = midpoint_grid(tr["d"], tr["grid"])
    N = len(grid)
    rows = res["transport"]["csv"]
    if len(rows) != len(tr["n_list"]) * tr["trials"]:
        fails.append(("lab.transport", f"{len(rows)} transport rows"))
    for row in rows:
        n, trial, w1 = int(row["n"]), int(row["trial"]), float(row["w1"])
        pts = _seeded(out["seed"], n, trial).random((n, tr["d"]))
        exact = assignment_w1(grid, pts, N)
        if not abs(w1 - exact) <= 1e-12:
            fails.append(("lab.transport", f"n={n} trial={trial}: {w1!r} vs "
                                           f"assignment {exact!r}"))

    for row in res["barron"]["csv"]:
        d, n, sup = int(row["d"]), int(row["n"]), float(row["sup"])
        bound = 2.0 * math.sqrt(2.0 * math.log(2.0 * d) / n)
        if not sup <= bound:
            fails.append(("lab.rademacher", f"n={n} draw {row['draw']}: {sup!r} > {bound!r}"))

    d = spec.LAB_KERNEL_D
    lam = {}
    for row in res["spectrum"]["csv"]:
        k = int(row["k"])
        lam[k] = float(row["lambda"])
        if int(row["mult"]) != harmonic_dimension(d, k):
            fails.append(("lab.multiplicity", f"k={k}: {row['mult']} vs "
                                              f"{harmonic_dimension(d, k)}"))
    if sorted(lam) != list(range(spec.LAB_KERNEL_DEGREES + 1)):
        fails.append(("lab.spectrum", "degrees missing from the spectrum table"))
    for k in range(2, spec.LAB_KERNEL_DEGREES - 1, 2):
        # the magnitudes follow the closed-form two-step ratio; the stored
        # values alternate in sign between consecutive even degrees
        ratio = abs(lam[k + 2] / lam[k]) if lam[k] else math.nan
        want = (k - 1) / (k + d + 2)
        if not abs(ratio - want) <= 1e-9 * want:
            fails.append(("lab.spectrum", f"k={k}: |lambda_(k+2)/lambda_k| = {ratio!r}, "
                                          f"expected {want!r}"))

    ntk = res["ntk"]["json"]
    for key in ("lower_ok", "reversed_upper_ok"):
        if ntk.get(key) is not True:
            fails.append(("lab.ntk", f"{key} is {ntk.get(key)!r}"))
    return fails


def outputs_of(workload, record):
    out = dict(record["outputs"], rounds_agree=record["rounds_agree"])
    if workload == "lab-mix":
        out["results"] = load_lab_results(out.pop("dir"))
    return out


def check(workload, out):
    if workload == "w1-colgen":
        return check_w1(out, json.loads(spec.REFERENCES.read_text()))
    if workload == "width-curve":
        return check_width(out)
    return check_lab(out)
