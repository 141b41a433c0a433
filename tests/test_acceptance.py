"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Every test asserts its criterion at its stated tolerance and within its
stated runtime budget.  Two criteria assert the kernel facts that the RKHS
argument rests on, with targets that are proved, not fitted:

- criterion 2: the relu closed form decays like k^-(d+3)/2 by degree and
  like n^-(d+3)/(2d) in the flattened indexing.  Proof: the duplication
  formula gives the exact ratio lambda_(k+2)/lambda_k = (k-1)/(k+d+2).
- criterion 5: K_rf <= K_ntk and (1+a0^2) K_rf <= K_ntk in the PSD order,
  while (1+a0^2) K_rf - K_ntk has negative trace.  Proof: per parameter
  sample the difference K_ntk - (1+a0^2) K_rf is a0^2 D X (I - u u^T) X^T D
  for the unit parameter vector u.
"""

import math
import sys
import time
from fractions import Fraction

import numpy as np

from widthlab import barron, kernels, separation, transport, widthprobe
from widthlab.util import fit_loglog, spawn_rng

import oracles


def report(num: int, ok: bool, detail: str, elapsed: float):
    status = "PASS" if ok else "FAIL"
    print(f"{status} criterion {num:2d} ({elapsed:7.2f}s): {detail}",
          file=sys.__stdout__, flush=True)


def test_criterion_01_spectrum_formulas():
    """Harmonic multiplicities and the closed form vs the quadrature oracle."""
    t0 = time.time()
    mult_ok = all(kernels.multiplicity(d, 1) == d + 1 for d in range(1, 11))
    ev = kernels.exact_eigenvalue(2, 2)
    oracle = kernels.funk_hecke_eigenvalue(2, 2, 200)
    agree = abs(ev - oracle) <= 1e-6 * abs(ev)
    elapsed = time.time() - t0
    ok = mult_ok and agree and elapsed < 1.0
    report(1, ok, f"multiplicities exact, eigenvalue(2,2)={ev:.6e} vs "
                  f"oracle {oracle:.6e}", elapsed)
    assert mult_ok
    assert agree
    assert elapsed < 1.0


def test_criterion_02_spectral_decay():
    """Decay targets -(d+3)/2 by degree and -(d+3)/(2d) flattened, for d=6.

    Proof of the rates: the duplication formula gives the closed form's
    exact two-step ratio lambda_(k+2)/lambda_k = (k-1)/(k+d+2), so the local
    slope log((k-1)/(k+d+2)) / log((k+2)/k) = -(d+3)/2 + O(1/k); with the
    cumulative multiplicity ~ k^d the flattened rate is -(d+3)/(2d).  No
    slower rate is possible: relu(x.y) is Hilbert-Schmidt on L2(S^d), so
    sum_k N(d,k) lambda_k^2 < inf with N(d,k) ~ k^(d-1).

    Fit ranges.  A least-squares log-log slope is a positive-weighted
    average of the slopes between adjacent points.  Both local slopes rise
    monotonically towards their targets, so a fit lies between the target
    and the local slope at the start of its range:

    - degree fit, even k in 200..1000: the local slope at k=200 is -4.445,
      within 0.055 of -4.5 (at k=100 it is still -4.39, so a range that
      starts at k=2 fits about -4.0);
    - flattened fit, the plateau endpoints of the positive degrees 40..120
      (cumulative positive multiplicity up to degree k against lambda_k,
      i.e. the last index of that plateau in the sorted sequence): the
      local slope between consecutive endpoints from degree 42 on is
      -0.782, within 0.032 of -0.75.

    The cumulative counts are exact integers from ``multiplicity``; the
    flattened sequence itself would hold about 2e9 entries at degree 120.
    """
    t0 = time.time()
    d = 6
    ks = np.arange(200, 1001, 2)
    lams = np.array([kernels.exact_eigenvalue(d, int(k)) for k in ks])
    slope_k, _, _ = fit_loglog(ks, lams)

    # positive plateau values decrease with the degree, so the cumulative
    # positive multiplicity is the plateau's last index in the sorted sequence
    counts, vals, cum = [], [], 0
    for entry in kernels.exact_spectrum(d, 120, 200).degrees:
        if entry.value > 0:
            cum += entry.mult
            if entry.k >= 40:
                counts.append(cum)
                vals.append(entry.value)
    slope_mu, _, _ = fit_loglog(counts, vals)
    elapsed = time.time() - t0

    target_k, target_mu = -(d + 3) / 2.0, -(d + 3) / (2.0 * d)
    ok_k = abs(slope_k - target_k) <= 0.15
    ok_mu = abs(slope_mu - target_mu) <= 0.1
    ok = ok_k and ok_mu and elapsed < 10.0
    report(2, ok, f"degree slope {slope_k:.3f} vs target -(d+3)/2 = {target_k} "
                  f"(+-0.15); flattened slope {slope_mu:.3f} vs target "
                  f"-(d+3)/(2d) = {target_mu} (+-0.1); exact ratio "
                  "lambda_(k+2)/lambda_k = (k-1)/(k+d+2)", elapsed)
    assert elapsed < 10.0
    assert ok_k, (
        f"degree slope {slope_k:.4f} over even k in 200..1000 is not within "
        f"0.15 of {target_k}; the exact ratio (k-1)/(k+d+2) pins -(d+3)/2")
    assert ok_mu, (
        f"flattened slope {slope_mu:.4f} over degrees 40..120 is not within "
        f"0.1 of {target_mu}; degree rate -(d+3)/2 over multiplicity ~ k^d "
        "pins -(d+3)/(2d)")


def test_criterion_03_nystrom_consistency():
    """Plateau widths 3 and 5 with 5%-accurate plateau means at n=2000."""
    t0 = time.time()
    d, n, seeds = 2, 2000, 5
    tops = np.mean([kernels.nystrom_spectrum(d, n=n, seed=s)[:12]
                    for s in range(seeds)], axis=0)
    lam1 = kernels.funk_hecke_eigenvalue(d, 1, 200)  # below the closed form's range
    lam2 = kernels.exact_eigenvalue(d, 2)

    p1, p2 = tops[1:4], tops[4:9]
    spread1, spread2 = np.ptp(p1), np.ptp(p2)
    gap_in1 = tops[0] - tops[1]
    gap_12 = tops[3] - tops[4]
    gap_out2 = tops[8] - tops[9]
    widths_ok = (min(gap_in1, gap_12) >= 5 * spread1
                 and min(gap_12, gap_out2) >= 5 * spread2)
    mean1_ok = abs(p1.mean() - lam1) <= 0.05 * lam1
    mean2_ok = abs(p2.mean() - lam2) <= 0.05 * lam2
    elapsed = time.time() - t0
    ok = widths_ok and mean1_ok and mean2_ok and elapsed < 120.0
    report(3, ok, f"plateau means {p1.mean():.5f}/{p2.mean():.5f} vs "
                  f"{lam1:.5f}/{lam2:.5f}; gap/spread "
                  f"{gap_12 / max(spread1, 1e-12):.1f}", elapsed)
    assert widths_ok
    assert mean1_ok and mean2_ok
    assert elapsed < 120.0


def test_criterion_04_arccos_closed_form():
    """Monte-Carlo Gaussian features match the angle form, 20 seed reps."""
    t0 = time.time()
    angles = [0.0, math.pi / 4, math.pi / 2, 3 * math.pi / 4, math.pi]
    full_matches = 0
    for seed in range(20):
        all_ok = True
        for j, phi in enumerate(angles):
            x = np.array([1.0, 0.0])
            y = np.array([math.cos(phi), math.sin(phi)])
            est, se = kernels.mc_kernel(x, y, samples=100_000, seed=1000 * seed + j)
            # the 1e-12 absolute floor covers the zero-variance antipodal
            # case, where the closed form evaluates to an O(eps) residue
            if abs(est - kernels.arccos_kernel(phi)) > 3 * se + 1e-12:
                all_ok = False
        full_matches += all_ok
    elapsed = time.time() - t0
    ok = full_matches >= 18 and elapsed < 30.0
    report(4, ok, f"{full_matches}/20 seeds matched all five angles within 3 SE",
           elapsed)
    assert full_matches >= 18
    assert elapsed < 30.0


def test_criterion_05_ntk_sandwich():
    """Tangent/feature sandwich K_rf <= K_ntk and (1+a0^2) K_rf <= K_ntk.

    Proof: for one parameter sample with unit u = (w, b) and X = (x, 1),
    1-homogeneity makes the random-feature term s'(u.X) s'(u.Y) (u.X)(u.Y)
    and the gradient term a0^2 s'(u.X) s'(u.Y) (X.Y), so
    K_ntk - (1+a0^2) K_rf averages a0^2 D X (I - u u^T) X^T D, which is PSD.
    The opposite ordering (1+a0^2) K_rf - K_ntk fails: on the diagonal
    s(z)^2 <= s'(z) |X|^2 because z = u.X <= |X|, so its trace is negative.
    Both PSD orderings are asserted at -1e-8 trace in every trial, and the
    negative trace of the opposite ordering is asserted in every trial.
    """
    t0 = time.time()
    lower_ok_all = True
    reversed_ok_all = True
    stated_trace_negative_all = True
    worst_stated = 0.0
    worst_reversed = math.inf
    trial = 0
    for d in (3, 5):
        for a0 in (0.5, 1.0, 2.0):
            for seed in range(20):
                rng = spawn_rng(42, d, int(a0 * 10), seed)
                pts = kernels.uniform_sphere_points(32, d - 1, rng)
                rep = kernels.ntk_gram(pts, a0=a0, param_samples=4096,
                                       seed=seed + 17)
                lower_ok_all &= rep.lower_ok
                reversed_ok_all &= rep.reversed_upper_ok
                stated_trace = (1 + a0**2) * rep.k_rf.trace - rep.k_ntk.trace
                stated_trace_negative_all &= stated_trace < 0
                worst_stated = min(worst_stated, rep.stated_upper_min)
                worst_reversed = min(worst_reversed, rep.reversed_upper_min)
                trial += 1
    elapsed = time.time() - t0
    ok = (lower_ok_all and reversed_ok_all and stated_trace_negative_all
          and elapsed < 60.0)
    report(5, ok, f"K_ntk - K_rf PSD {lower_ok_all}; K_ntk - (1+a0^2) K_rf PSD "
                  f"{reversed_ok_all} (worst min eig {worst_reversed:.3g}); "
                  f"(1+a0^2) K_rf - K_ntk has negative trace "
                  f"{stated_trace_negative_all} (worst min eig "
                  f"{worst_stated:.2f}) over {trial} trials", elapsed)
    assert elapsed < 60.0
    assert lower_ok_all
    assert reversed_ok_all, (
        f"K_ntk - (1+a0^2) K_rf has min eigenvalue {worst_reversed:.3g} below "
        "-1e-8 trace in some trial; per sample it is a0^2 D X (I - u u^T) X^T D")
    assert stated_trace_negative_all, (
        "(1+a0^2) K_rf - K_ntk has nonnegative trace in some trial; its "
        "diagonal is a0^2 (s(z)^2 - s'(z) |X|^2) <= 0 per sample")


def test_criterion_06_transport_rates():
    """Exact transport per trial above the covering bound; rate -0.5 +- 0.1."""
    t0 = time.time()
    report_obj = transport.empirical_w1_rate(
        d=2, n_values=[4, 8, 16, 32, 64, 128, 256], trials=20,
        grid_resolution=64, seed=20240801, metric=transport.CUBE_LINF, threads=1)
    elapsed = time.time() - t0
    bounds_ok = report_obj.all_bounds_hold
    slope_ok = abs(report_obj.slope - (-0.5)) <= 0.1
    ok = bounds_ok and slope_ok and elapsed < 600.0
    report(6, ok, f"slope {report_obj.slope:.4f} (target -0.5 +- 0.1), "
                  f"bounds hold: {bounds_ok}, 140 exact solves", elapsed)
    assert bounds_ok
    assert slope_ok
    assert elapsed < 600.0


def test_criterion_07_rademacher():
    """Per-draw suprema below 2 L sqrt(2 log(2d)/n); decay -0.5 +- 0.15."""
    t0 = time.time()
    total_violations = 0
    slopes = {}
    for d in (2, 8):
        means = []
        ns = [16, 32, 64, 128, 256, 512, 1024]
        for n in ns:
            rng = spawn_rng(7, d, n)
            X = rng.uniform(-1.0, 1.0, (n, d))
            est = barron.rademacher_estimate(X, restarts=16, seed=7, sign_draws=50)
            total_violations += est.violations
            means.append(est.estimate)
        slopes[d], _, _ = fit_loglog(ns, means)
    elapsed = time.time() - t0
    slopes_ok = all(abs(s + 0.5) <= 0.15 for s in slopes.values())
    ok = total_violations == 0 and slopes_ok and elapsed < 300.0
    report(7, ok, f"violations {total_violations}/700 draws; slopes "
                  f"d=2: {slopes[2]:.3f}, d=8: {slopes[8]:.3f}", elapsed)
    assert total_violations == 0
    assert slopes_ok
    assert elapsed < 300.0


def test_criterion_08_separation_calculator():
    """Exact rational exponents and schedule tail domination."""
    t0 = time.time()
    first_ok = all(
        separation.width_exponent(Fraction(1, 2), Fraction(1, d)) == Fraction(2, d - 2)
        for d in range(3, 21))
    pipeline_ok = True
    for d in range(3, 21):
        rep = oracles.rate_exponent_pipeline(
            Fraction(1, 4) - Fraction(3, 4 * d), Fraction(1, d))
        if d > 7:
            pipeline_ok &= rep["valid"] and rep["exponent"] == Fraction(4, d - 7)
        else:
            pipeline_ok &= not rep["valid"]
    tail_ok = all(
        separation.tail_sum_bound_log2(k) <= separation.tail_domination_log2(k)
        for k in range(2, 7))
    elapsed = time.time() - t0
    ok = first_ok and pipeline_ok and tail_ok and elapsed < 1.0
    report(8, ok, "exponents 2/(d-2) and 4/(d-7) exact as rationals; "
                  "tail domination holds for k=2..6", elapsed)
    assert first_ok and pipeline_ok and tail_ok
    assert elapsed < 1.0


def test_criterion_09_bv_equivalence():
    """Both directions of the 1D norm equivalence on 100 random networks."""
    t0 = time.time()
    rng = np.random.default_rng(123)
    xs_dense = np.linspace(0, 1, 2001).reshape(-1, 1)
    all_ok = True
    for _ in range(100):
        width = int(rng.integers(2, 9))
        net = barron.TwoLayerNetwork(
            rng.standard_normal(width) * 2.0,
            rng.standard_normal((width, 1)),
            rng.uniform(-1.0, 1.0, width),
            barron.RELU, averaged=bool(rng.integers(0, 2)))
        f = barron.PiecewiseLinear1D.from_network(net)
        bv = barron.bv_norm_1d(f)
        canon = barron.canonical_network_1d(f)
        # direction 1: bv <= 2 * path norm of any realizing network
        dir1 = bv <= 2.0 * barron.path_norm(net) * (1 + 1e-9)
        # direction 2: the explicit representation reproduces f and its cost
        # sits within [bv, 2 bv] (the |f(0)| + |f'(0)| + |f''| construction)
        ident = float(np.max(np.abs(canon.evaluate(xs_dense) - oracles.piecewise_linear_values(
            f, xs_dense.ravel())))) <= 1e-9
        pn = barron.path_norm(canon)
        dir2 = ident and bv <= pn * (1 + 1e-9) and pn <= 2.0 * bv * (1 + 1e-9)
        all_ok &= dir1 and dir2
    elapsed = time.time() - t0
    ok = all_ok and elapsed < 5.0
    report(9, ok, "norm equivalence (factor 2 / explicit representation) "
                  "on 100 random piecewise-linear functions", elapsed)
    assert all_ok
    assert elapsed < 5.0


def test_criterion_10_width_probe():
    """Curve monotonicity, representable-target recovery, exact quadrature."""
    t0 = time.time()
    fast = widthprobe.FitConfig(steps=250, restarts=2, quadrature=("mc", 1024),
                                polish_iters=50)
    strong = widthprobe.FitConfig(steps=600, restarts=4, quadrature=("mc", 2048),
                                  polish_iters=300)

    # (a) monotonicity within optimizer slack on 10 random targets
    mono_ok = True
    rng = np.random.default_rng(2024)
    dims = [1, 2, 4, 1, 2, 4, 1, 2, 4, 2]
    for i, d in enumerate(dims):
        anchors = rng.random((int(rng.integers(1, 4)), d))
        target = widthprobe.TargetFunction.distance_to_point_set(anchors)
        curve = widthprobe.rho_curve(target, [0.25, 0.5, 1.0, 2.0], width=16,
                                     config=fast, seed=100 + i)
        errs = np.array([p.error for p in curve.samples])
        ses = np.array([p.error_se for p in curve.samples])
        slack = 2 * (ses[1:] + ses[:-1])
        mono_ok &= bool(np.all(np.diff(errs) <= slack + 1e-12))

    # (b) representable targets reach 1e-3 at budgets >= their path norm
    recover_ok = True
    for i, d in enumerate((1, 2, 4)):
        for rep in range(2):
            net_rng = np.random.default_rng(10 * i + rep)
            net = barron.TwoLayerNetwork(
                net_rng.standard_normal(3), net_rng.standard_normal((3, d)),
                net_rng.uniform(-0.5, 0.5, 3), barron.RELU, averaged=True)
            target = widthprobe.TargetFunction.barron_explicit(net)
            s = barron.path_norm(net)
            res = widthprobe.fit_constrained(target, t=2.0 * s, width=48, config=strong,
                                             seed=rep, quad_seed=rep, init_net=None)
            recover_ok &= res.error <= 1e-3

    # (b') one-sided consistency with a certified decay exponent: for d=8
    # the certified rate is 2/(d-2) = 1/3; measured errors are upper bounds
    # and must not fall below the anchored certificate curve
    target8 = widthprobe.TargetFunction.distance_to_point_set(
        np.random.default_rng(81).random((3, 8)))
    curve8 = widthprobe.rho_curve(target8, [0.25, 0.5, 1.0, 2.0, 4.0], width=16,
                                  config=fast, seed=88)
    cert = oracles.certificate_consistency(
        curve8, exponent=float(separation.width_exponent(0.5, 1.0 / 8.0)))
    cert_ok = cert["consistent"] and math.isfinite(curve8.fitted_exponent)

    # (c) one-dimensional grid quadrature matches the exact integral to 1e-10
    qrng = np.random.default_rng(55)
    net = barron.TwoLayerNetwork(qrng.standard_normal(5),
                                 qrng.standard_normal((5, 1)),
                                 qrng.uniform(-0.5, 0.5, 5),
                                 barron.RELU, averaged=True)
    tgt_net = barron.TwoLayerNetwork(qrng.standard_normal(4),
                                     qrng.standard_normal((4, 1)),
                                     qrng.uniform(-0.5, 0.5, 4),
                                     barron.RELU, averaged=True)
    target = widthprobe.TargetFunction.barron_explicit(tgt_net)
    kinks = [0.0, 1.0]
    for g in (net, tgt_net):
        for w, b in zip(g.inner.ravel(), g.bias):
            if w != 0 and 0 < -b / w < 1:
                kinks.append(-b / w)
    xs = np.unique(np.asarray(kinks))
    vals = net.evaluate(xs.reshape(-1, 1)) - tgt_net.evaluate(xs.reshape(-1, 1))
    exact = sum((xs[i + 1] - xs[i]) *
                (vals[i] ** 2 + vals[i] * vals[i + 1] + vals[i + 1] ** 2) / 3.0
                for i in range(len(xs) - 1))
    grid_val, _ = widthprobe.l2_error(net, target, ("grid", 1 << 17), seed=0)
    quad_ok = abs(grid_val - exact) <= 1e-10

    elapsed = time.time() - t0
    ok = mono_ok and recover_ok and cert_ok and quad_ok
    report(10, ok, f"monotone curves: {mono_ok}; representable recovery: "
                   f"{recover_ok}; certificate one-sided: {cert_ok}; "
                   f"exact quadrature: {quad_ok}", elapsed)
    assert mono_ok
    assert recover_ok
    assert cert_ok
    assert quad_ok
