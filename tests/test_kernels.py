"""Spherical kernel spectra: closed form vs quadrature oracle vs Nystrom."""

import math
import tracemalloc
from math import pi

import numpy as np
import pytest
from scipy import special

from widthlab import kernels
from widthlab.kernels import (
    KernelError,
    QuadratureError,
    UnsupportedDegreeError,
    arccos_kernel,
    exact_eigenvalue,
    exact_eigenvalue_log,
    exact_spectrum,
    funk_hecke_eigenvalue,
    mc_kernel,
    multiplicity,
    ntk_gram,
    nystrom_spectrum,
    uniform_sphere_points,
    zonal_relu_scale,
)
from widthlab.util import fit_loglog, spawn_rng


def kernel_profile_eigenvalue(d, k, profile):
    """Degree-k eigenvalue of the zonal kernel ``profile(x.y)`` on the
    uniformly measured S^d: the surface ratio ``|S^(d-1)|/|S^d|`` times
    ``int profile(t) G_k(t) (1-t^2)^((d-2)/2) dt``, on the shared 400-node
    Gauss-Jacobi rule."""
    alpha = (d - 2) / 2.0
    x, w = kernels._jacobi_rule(400, alpha, alpha)
    ratio = math.exp(math.lgamma((d + 1) / 2) - 0.5 * math.log(pi) - math.lgamma(d / 2))
    return ratio * float(np.dot(w, profile(x) * kernels.gegenbauer_ratio(d, k, x)))


class TestMultiplicity:
    def test_degree_one_is_ambient_dimension(self):
        for d in range(1, 11):
            assert multiplicity(d, 1) == d + 1

    def test_degree_two_on_s2(self):
        assert multiplicity(2, 2) == 5

    def test_exact_for_large_arguments(self):
        # (2k+d-1)/k * binom(k+d-2, d-1) stays an exact integer
        assert multiplicity(50, 120) == (2 * 120 + 49) * math.comb(120 + 48, 49) // 120

    def test_polynomial_growth_ratio_stabilizes(self):
        """N(3,k)/k^2 approaches a constant (the degree is d-1 = 2)."""
        ratios = [multiplicity(3, k) / k**2 for k in range(150, 201)]
        assert max(ratios) / min(ratios) < 1.02
        assert ratios[-1] == pytest.approx(1.0, rel=0.02)

    def test_rejects_bad_input(self):
        with pytest.raises(KernelError):
            multiplicity(0, 1)


class TestClosedFormEigenvalue:
    def test_s2_degree_two_value(self):
        # (1/(2pi)) (1/4) G(1)G(1)/(G(1)G(3)) = 1/(16 pi)
        assert exact_eigenvalue(2, 2) == pytest.approx(1.0 / (16 * pi), rel=1e-12)

    def test_low_degrees_unsupported(self):
        for k in (0, 1):
            with pytest.raises(UnsupportedDegreeError):
                exact_eigenvalue(2, k)

    def test_circle_degenerates_to_zero(self):
        assert exact_eigenvalue(1, 5) == 0.0

    def test_log_form_consistent(self):
        for d, k in ((2, 6), (5, 11), (8, 40)):
            assert math.exp(exact_eigenvalue_log(d, k)) == pytest.approx(
                exact_eigenvalue(d, k), rel=1e-13)

    def test_even_degree_decay_exponent(self):
        """The closed form decays like k**-(d+3)/2 (duplication-formula
        asymptotics), here checked as a fitted slope for d=6."""
        ks = np.arange(40, 101, 2)
        lams = [exact_eigenvalue(6, int(k)) for k in ks]
        slope, _, _ = fit_loglog(ks, lams)
        assert slope == pytest.approx(-4.5, abs=0.25)

    def test_two_step_ratio(self):
        """lambda_(k+2)/lambda_k = (k-1)/(k+d+2) exactly (duplication formula),
        in the closed form and in the quadrature oracle; the oracle alternates
        in sign between consecutive even degrees."""
        for d in (2, 6, 9):
            for k in (2, 10, 40):
                ratio = (k - 1) / (k + d + 2)
                assert exact_eigenvalue(d, k + 2) / exact_eigenvalue(d, k) == \
                    pytest.approx(ratio, rel=1e-12)
                assert funk_hecke_eigenvalue(d, k + 2, 200) / funk_hecke_eigenvalue(d, k, 200) == \
                    pytest.approx(-ratio, rel=1e-9)


class TestFunkHeckeOracle:
    @pytest.mark.parametrize("d", [2, 3, 4, 6, 9])
    @pytest.mark.parametrize("k", [2, 4, 6, 10, 40])
    def test_matches_closed_form_magnitude_at_even_degrees(self, d, k):
        oracle = funk_hecke_eigenvalue(d, k, 200)
        assert abs(oracle) == pytest.approx(exact_eigenvalue(d, k), rel=1e-9)

    @pytest.mark.parametrize("d", [2, 3, 6])
    @pytest.mark.parametrize("k", [3, 5, 9, 21])
    def test_vanishes_at_odd_degrees(self, d, k):
        assert abs(funk_hecke_eigenvalue(d, k, 200)) < 1e-12

    def test_degree_zero_and_one_available(self):
        # direct integrals: (1/(2pi)) * 1/2 and (1/(2pi)) * 1/3 on S^2
        assert funk_hecke_eigenvalue(2, 0, 200) == pytest.approx(1.0 / (4 * pi), rel=1e-10)
        assert funk_hecke_eigenvalue(2, 1, 200) == pytest.approx(1.0 / (6 * pi), rel=1e-10)

    def test_constant_kernel_profile_orthogonality(self):
        """A constant zonal kernel has eigenvalue c at degree 0 and 0 above."""
        prof = lambda t: np.full_like(np.asarray(t, float), 0.7)
        assert kernel_profile_eigenvalue(3, 0, prof) == pytest.approx(0.7, rel=1e-12)
        for k in (1, 2, 5):
            assert abs(kernel_profile_eigenvalue(3, k, prof)) < 1e-12

    @pytest.mark.parametrize("d", [2, 3])
    @pytest.mark.parametrize("k", [0, 1, 2, 4])
    def test_feature_kernel_eigenvalues_are_squares(self, d, k):
        """Eigenvalues of the angle-form feature kernel equal
        ``2 (d+1) (lambda_k / scale)^2``: composing the first-order zonal
        operator with itself squares the spectrum."""
        prof = lambda t: np.array([arccos_kernel(math.acos(min(1.0, max(-1.0, v))))
                                   for v in np.atleast_1d(t)])
        got = kernel_profile_eigenvalue(d, k, prof)
        first_order = funk_hecke_eigenvalue(d, k, 200) / zonal_relu_scale(d)
        assert got == pytest.approx(2 * (d + 1) * first_order**2, rel=1e-6, abs=1e-12)

    def test_each_jacobi_rule_is_built_once(self, monkeypatch):
        """A spectrum builds its two rules (n and 2n nodes) once, whatever
        its degree count, and a second spectrum builds none."""
        calls = []
        roots_jacobi = special.roots_jacobi

        def counting(*args):
            calls.append(args)
            return roots_jacobi(*args)

        monkeypatch.setattr(special, "roots_jacobi", counting)
        kernels._jacobi_rule.cache_clear()
        exact_spectrum(6, 40, 200)
        assert len(calls) == 2
        exact_spectrum(6, 40, 200)
        assert len(calls) == 2

    @pytest.mark.parametrize("npts", [64, 200])
    def test_shared_rule_values_are_bit_identical(self, npts):
        def uncached(d, k, npts):
            alpha = (d - 2) / 2.0
            x, w = special.roots_jacobi(npts, alpha, 0.0)
            t = (x + 1.0) / 2.0
            vals = t * kernels.gegenbauer_ratio(d, k, t) * (1.0 + t) ** alpha
            return float(0.5 ** (alpha + 1.0) * np.dot(w, vals))

        for d in (2, 3, 6):
            pref = (d - 1) / (2.0 * pi)
            for k in range(41):
                assert kernels._relu_profile_integral(d, k, npts) == uncached(d, k, npts)
                assert funk_hecke_eigenvalue(d, k, npts) == pref * uncached(d, k, 2 * npts)

    def test_shared_rule_is_read_only(self):
        x, w = kernels._jacobi_rule(64, 2.0, 0.0)
        for arr in (x, w):
            with pytest.raises(ValueError):
                arr[0] = 0.0

    def test_refinement_disagreement_raises(self):
        # at d=6 the relu integrand is a polynomial of degree k+3: the
        # 64-node rule is exact only to degree 127 and the 128-node rule to
        # 255, so at k=200 the two levels disagree and that must surface
        with pytest.raises(QuadratureError):
            funk_hecke_eigenvalue(6, 200, quadrature_points=64)


class TestArccosKernel:
    def test_endpoint_values(self):
        assert arccos_kernel(0.0) == pytest.approx(1.0, rel=1e-15)
        assert arccos_kernel(pi) == pytest.approx(0.0, abs=1e-15)

    def test_orthogonal_value(self):
        assert arccos_kernel(pi / 2) == pytest.approx(1 / pi, rel=1e-15)

    def test_domain_guard(self):
        with pytest.raises(KernelError):
            arccos_kernel(3.5)


class TestMcKernel:
    def _unit_pair(self, d, phi):
        x = np.zeros(d)
        x[0] = 1.0
        y = np.zeros(d)
        y[0], y[1] = math.cos(phi), math.sin(phi)
        return x, y

    def test_gaussian_features_match_closed_form(self):
        for phi in (0.0, pi / 3, pi / 2):
            x, y = self._unit_pair(3, phi)
            est, se = mc_kernel(x, y, samples=40_000, seed=11)
            assert abs(est - arccos_kernel(phi)) <= 3 * max(se, 1e-12)

    def test_same_seed_symmetry_is_exact(self):
        rng = np.random.default_rng(0)
        x, y = rng.standard_normal(4), rng.standard_normal(4)
        assert mc_kernel(x, y, 500, seed=3) == mc_kernel(y, x, 500, seed=3)

    def test_invalid_arguments(self):
        x, y = self._unit_pair(3, pi / 3)
        with pytest.raises(KernelError, match="samples"):
            mc_kernel(x, y, samples=99, seed=0)

    def test_rotationally_symmetric_samplers_agree_up_to_constant(self):
        """Uniform-sphere weights reproduce the Gaussian closed form times
        one global constant: ratios are flat across 50 pairs (CV < 2%)."""
        d = 2  # sphere S^2, inputs in R^3
        rng = np.random.default_rng(5)
        ratios = []
        while len(ratios) < 50:
            x, y = uniform_sphere_points(2, d, rng)
            phi = math.acos(np.clip(x @ y, -1, 1))
            if arccos_kernel(phi) < 0.05:
                continue  # near-antipodal pairs have no signal for a ratio
            W = uniform_sphere_points(60_000, d, spawn_rng(100 + len(ratios)))
            feats = np.maximum(np.vstack([x, y]) @ W.T, 0.0)
            est = float((feats[0] * feats[1]).mean())
            ratios.append(est / arccos_kernel(phi))
        ratios = np.asarray(ratios)
        assert ratios.std() / ratios.mean() < 0.02
        # the constant itself: 1 / (2 (d+1)) for normalized sphere weights
        assert ratios.mean() == pytest.approx(1.0 / (2 * (d + 1)), rel=0.02)


class TestNtkSandwich:
    def test_lower_and_reversed_upper_hold(self):
        rng = np.random.default_rng(7)
        for d, a0 in ((3, 0.5), (5, 1.0), (4, 2.0)):
            pts = uniform_sphere_points(16, d - 1, rng)
            rep = ntk_gram(pts, a0=a0, param_samples=4096, seed=int(rng.integers(1 << 30)))
            assert rep.lower_ok, f"gradient term lost PSD at d={d}, a0={a0}"
            assert rep.reversed_upper_ok, f"dominance failed at d={d}, a0={a0}"

    def test_stated_upper_ordering_fails_at_scale(self):
        """(1+a0^2) K_rf - K_ntk has negative trace: per parameter sample its
        diagonal is a0^2 (s(u.X)^2 - s'(u.X) |X|^2) <= 0, since u.X <= |X| for
        the unit parameter vector u, so some eigenvalue is negative at O(1)
        scale.  The opposite ordering is the one that holds."""
        pts = uniform_sphere_points(16, 2, np.random.default_rng(8))
        rep = ntk_gram(pts, a0=1.0, param_samples=4096, seed=9)
        assert rep.stated_upper_min < -0.1  # far beyond any eigensolver noise
        assert not rep.stated_upper_ok

    def test_small_a0_collapses_to_rf(self):
        pts = uniform_sphere_points(10, 2, np.random.default_rng(9))
        rep = ntk_gram(pts, a0=1e-4, param_samples=2048, seed=10)
        assert np.max(np.abs(rep.k_ntk.matrix - rep.k_rf.matrix)) < 1e-6

    def test_single_point_scalar_sandwich(self):
        pts = uniform_sphere_points(1, 3, np.random.default_rng(10))
        rep = ntk_gram(pts, a0=1.5, param_samples=8192, seed=11)
        krf = rep.k_rf.matrix[0, 0]
        kntk = rep.k_ntk.matrix[0, 0]
        assert krf <= kntk
        assert kntk >= (1 + 1.5**2) * krf - 1e-12

    def test_feature_kernels_are_psd(self):
        pts = uniform_sphere_points(24, 3, np.random.default_rng(11))
        rep = ntk_gram(pts, a0=1.0, param_samples=4096, seed=12)
        for gram in (rep.k_rf, rep.k_ntk):
            assert gram.eigenvalues[-1] >= -1e-8 * gram.trace

    @pytest.mark.parametrize("a0", [0.3, 0.7])
    def test_grams_exactly_symmetric(self, a0):
        """Where a0^2 is not a short binary fraction, a gradient Gram that
        weights one factor by a^2 is a general gemm, which a threaded BLAS
        can leave off symmetric in its last bit (seen with 2 OpenBLAS
        threads at this size); both Grams must be symmetric bit for bit."""
        X = uniform_sphere_points(97, 2, np.random.default_rng(3))
        K_rf, K_ntk = kernels._ntk_gram_matrix(X, a0, 513, spawn_rng(4))
        assert np.array_equal(K_rf, K_rf.T)
        assert np.array_equal(K_ntk, K_ntk.T)

    @pytest.mark.parametrize("a0", [0.3, 1.0, 2.0])
    def test_reversed_upper_min_matches_its_eigensolve(self, a0):
        """reversed_upper_min is read off the stated difference's spectrum;
        against a direct eigensolve of K_ntk - (1+a0^2) K_rf it agrees to
        n eps max|lambda| (bit identity depends on the LAPACK build)."""
        n = 40
        pts = uniform_sphere_points(n, 3, np.random.default_rng(5))
        rep = ntk_gram(pts, a0=a0, param_samples=2048, seed=6)
        want = np.linalg.eigvalsh(rep.k_ntk.matrix - (1 + a0**2) * rep.k_rf.matrix)
        tol = n * np.finfo(float).eps * np.max(np.abs(want))
        assert abs(rep.reversed_upper_min - want[0]) <= tol

    def test_mc_kernel_consistent_with_gram_diagonal(self):
        """A Monte-Carlo tangent-kernel estimate of ``a s(w.x + b)`` at
        ``|a| = 1.5`` and unit ``(w, b)``, from its own draw, agrees with the
        full Gram assembly at matching arguments."""
        rng = np.random.default_rng(12)
        x = uniform_sphere_points(1, 3, rng)[0]
        draw = spawn_rng(13)
        wb = uniform_sphere_points(60_000, 4, draw)  # unit (w, b) in R^5
        a = 1.5 * draw.choice([-1.0, 1.0], size=60_000)
        X = np.vstack([x, x])
        pre = X @ wb[:, :4].T + wb[:, 4]
        feat, dfeat = np.maximum(pre, 0.0), (pre > 0).astype(float)
        prods = feat[0] * feat[1] + (a**2) * dfeat[0] * dfeat[1] * (X @ X.T + 1.0)[0, 1]
        est, se = float(prods.mean()), float(prods.std(ddof=1) / math.sqrt(60_000))
        rep = ntk_gram(x.reshape(1, -1), a0=1.5, param_samples=60_000, seed=14)
        assert abs(est - rep.k_ntk.matrix[0, 0]) <= 4 * max(se, 1e-6)


class TestNystrom:
    def test_sphere_plateaus_match_tables(self):
        ev = nystrom_spectrum(2, n=700, seed=1)
        lam0 = funk_hecke_eigenvalue(2, 0, 200)
        lam1 = funk_hecke_eigenvalue(2, 1, 200)
        lam2 = exact_eigenvalue(2, 2)
        assert ev[0] == pytest.approx(lam0, rel=0.1)
        assert np.mean(ev[1:4]) == pytest.approx(lam1, rel=0.1)
        assert np.mean(ev[4:9]) == pytest.approx(lam2, rel=0.15)

    def test_sphere_plateaus_second_dimension(self):
        """Same plateau agreement in another dimension (d=3: widths 1, 5, 9)."""
        ev = nystrom_spectrum(3, n=900, seed=2)
        lam1 = funk_hecke_eigenvalue(3, 1, 200)
        lam2 = exact_eigenvalue(3, 2)
        assert np.mean(ev[1:5]) == pytest.approx(lam1, rel=0.1)     # mult 4
        assert np.mean(ev[5:14]) == pytest.approx(lam2, rel=0.15)   # mult 9

    def test_point_budget(self):
        with pytest.raises(KernelError):
            nystrom_spectrum(2, n=5001, seed=0)

    @pytest.mark.parametrize("d", [0, -1])
    def test_dimension_below_one(self, d):
        with pytest.raises(KernelError, match="d must be"):
            nystrom_spectrum(d, n=10, seed=0)


def traced_peak_bytes(fn):
    """Peak bytes that numpy and Python allocate while ``fn()`` runs, above
    what was allocated when it started."""
    started = not tracemalloc.is_tracing()
    if started:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        fn()
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        if started:
            tracemalloc.stop()


DOUBLE = 8
# Python objects, small index arrays and scipy's argument handling.
SLACK = 1 << 16


def syevd_values_only_bytes(n):
    """syevd's workspace without vectors, with its eigenvalues and integer
    workspace.  LAPACK documents a minimum of 2n + 1 doubles; scipy asks
    the workspace query, which returns the blocked optimum (2 + NB) n,
    where NB, the block size of dsytrd, is 32 in reference LAPACK (64
    allowed here)."""
    return DOUBLE * ((2 + 64) * n + n + 1)


class TestInPlaceNystrom:
    @pytest.mark.parametrize("n", [1, 2, 129, 1000])
    def test_nystrom_gram_is_exactly_symmetric(self, n):
        """The Gram exactly as nystrom_spectrum builds it, which no pass
        symmetrizes: numpy must form X @ X.T symmetric bit for bit."""
        d = 3
        X = uniform_sphere_points(n, d, spawn_rng(n))
        K = X @ X.T
        np.maximum(K, 0.0, out=K)
        K *= zonal_relu_scale(d)
        K /= n
        assert np.array_equal(K, K.T)

    @pytest.mark.parametrize("d, n, seed", [(3, 1000, 1), (2, 700, 1), (5, 129, 4)])
    def test_nystrom_matches_numpy_path(self, d, n, seed):
        """Against the eigensolve it replaced, to n eps max|lambda|: numpy
        and scipy wheels may ship different LAPACK builds, so bit identity
        is not a property of the code."""
        X = uniform_sphere_points(n, d, spawn_rng(seed))
        K = zonal_relu_scale(d) * np.maximum(X @ X.T, 0.0) / n
        want = np.linalg.eigvalsh(0.5 * (K + K.T))[::-1]
        tol = n * np.finfo(float).eps * np.max(np.abs(want))
        np.testing.assert_allclose(nystrom_spectrum(d, n, seed), want, rtol=0, atol=tol)

    def test_nystrom_holds_one_matrix(self):
        """The Gram, the points and their draw and syevd's workspace without
        vectors: a copy of the Gram anywhere, scipy's wrapper included, adds
        n^2 doubles."""
        d, n = 3, 1000
        nystrom_spectrum(d, n=8, seed=0)
        peak = traced_peak_bytes(lambda: nystrom_spectrum(d, n=n, seed=0))
        held = DOUBLE * (n * n + 3 * n * (d + 1) + n)
        assert peak <= held + syevd_values_only_bytes(n) + SLACK


class TestSpectrumAssembly:
    def test_flags_and_signs_on_s2(self):
        spec = exact_spectrum(2, 8, 200)
        vals = {e.k: e.value for e in spec.degrees}
        assert vals[0] == pytest.approx(1 / (4 * pi), rel=1e-9)
        assert vals[1] == pytest.approx(1 / (6 * pi), rel=1e-9)
        assert vals[2] == pytest.approx(1 / (16 * pi), rel=1e-9)
        # odd degrees >= 3: oracle zero, closed form flagged
        for k in (3, 5, 7):
            assert vals[k] == 0.0
            assert spec.flags[k]["reason"] == "oracle_zero"
            assert spec.flags[k]["formula"] > 0
        # degree 4 carries a sign flip relative to the closed form
        assert vals[4] == pytest.approx(-1 / (96 * pi), rel=1e-9)
        assert spec.flags[4]["reason"] == "sign"
        # the oracle's sign alternates over even degrees: k = 0 (mod 4) flips
        assert [k for k, f in spec.flags.items() if f["reason"] == "sign"] == [4, 8]

    def test_flattened_sequence_structure(self):
        spec = exact_spectrum(2, 6, 200)
        mu = spec.mu(sum(e.mult for e in spec.degrees))
        assert np.all(np.diff(mu) <= 1e-15)
        assert mu[0] == pytest.approx(1 / (4 * pi), rel=1e-9)
        np.testing.assert_allclose(mu[1:4], 1 / (6 * pi), rtol=1e-9)
        np.testing.assert_allclose(mu[4:9], 1 / (16 * pi), rtol=1e-9)

    def test_leading_entries_match_full_sort(self):
        """``mu(count)`` is the head of the fully materialised, sorted
        sequence, which stays here as the reference."""
        spec = exact_spectrum(6, 30, 200)
        full = np.sort(np.concatenate([np.full(e.mult, e.value)
                                       for e in spec.degrees]))[::-1]
        for count in (0, 1, 7, 10_000, full.size - 1, full.size, full.size + 5):
            np.testing.assert_array_equal(spec.mu(count), full[:count])

    def test_trace_identity_against_gram_diagonal(self):
        """Signed eigenvalue totals reproduce the operator's diagonal value
        (the mean diagonal of the discretized Gram / n equals the kernel's
        value at zero angle, here the zonal scale itself)."""
        spec = exact_spectrum(2, 40, 200)
        assert spec.trace_sum() == pytest.approx(zonal_relu_scale(2), abs=1e-3)

    def test_flattened_decay_exponent_d6(self):
        """Flattened sequence decay for d=6 at the proved -(d+3)/(2d) = -0.75.

        Fits the plateau endpoints of the positive degrees 40..120: the
        cumulative positive multiplicity up to degree k against lambda_k.
        The local slope between consecutive endpoints rises from -0.782 at
        degree 42 towards -0.75, and a least-squares slope is a
        positive-weighted average of local slopes, so the fit lies within
        0.035 of the target.
        """
        counts, vals, cum = [], [], 0
        for entry in exact_spectrum(6, 120, 200).degrees:
            if entry.value > 0:
                cum += entry.mult
                if entry.k >= 40:
                    counts.append(cum)
                    vals.append(entry.value)
        slope, _, _ = fit_loglog(counts, vals)
        assert slope == pytest.approx(-0.75, abs=0.035)
