"""Spherical random-feature and neural-tangent kernels and their spectra.

Sphere convention: ``S^d`` is the unit sphere in ``R^(d+1)`` (so degree-1
harmonics have dimension d+1); uniform samples are normalized Gaussians.

Spectrum convention.  For relu features drawn uniformly on the sphere, all
zonal objects diagonalize in spherical harmonics, and eigenvalues reduce to
one-dimensional Gegenbauer-weighted integrals of a profile (the classical
zonal-average identity).  Two related operators appear:

- the *first-order zonal operator* T with kernel ``s(x.y)`` (relu of the
  inner product); its degree-k eigenvalue is the Gegenbauer coefficient of
  the relu profile.
- the *random-feature integral operator* with kernel
  ``avg_w s(w.x) s(w.y)``; it equals T composed with itself, so its
  eigenvalues are the squares of T's.

The closed form

    lambda_k = (d-1)/(2 pi) * 2**-k * G(d/2) G(k-1) / (G(k/2) G((k+d+2)/2))

(``G`` the gamma function, k >= 2) tabulates the first-order convention:
``lambda_k = zonal_relu_scale(d) * eig_k(T)``.  The quadrature oracle
:func:`funk_hecke_eigenvalue` evaluates the same quantity independently
(Gauss-Jacobi instead of gamma functions; each rule is built once per
process and shared by all degrees) and is authoritative where the two
disagree: it vanishes identically for odd k >= 3, where the closed form
does not, and its sign alternates between consecutive even degrees, so every
k = 0 (mod 4) is negative and flagged "sign".  Degrees 0 and 1 sit outside
the closed form's validity and are always taken from the oracle.

``nystrom_spectrum`` discretizes the operator matching the tabulated
convention (the scaled first-order operator of the sphere kind), so its
plateau heights line up with ``exact_eigenvalue`` and plateau widths with
``multiplicity``.  Feature-space kernels (Gaussian random features, NTK)
are positive semidefinite and are checked as such; the first-order
operator is symmetric but indefinite at the sign-flagged degrees.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction
from math import lgamma, pi
from typing import Dict, List, Tuple

import numpy as np
from scipy import linalg, special

from .util import OptimizationError, spawn_rng

__all__ = [
    "KernelError",
    "UnsupportedDegreeError",
    "QuadratureError",
    "multiplicity",
    "exact_eigenvalue",
    "exact_eigenvalue_log",
    "gegenbauer_ratio",
    "funk_hecke_eigenvalue",
    "zonal_relu_scale",
    "arccos_kernel",
    "uniform_sphere_points",
    "mc_kernel",
    "GramResult",
    "ntk_gram",
    "NtkSandwich",
    "nystrom_spectrum",
    "DegreeEigenvalue",
    "KernelSpectrum",
    "exact_spectrum",
]


class KernelError(ValueError):
    """Invalid kernel parameters or unusable spectra."""


class UnsupportedDegreeError(KernelError):
    """Closed-form eigenvalue requested outside its validity range (k < 2)."""


class QuadratureError(OptimizationError):
    """Quadrature refinement did not converge to the requested tolerance."""


# ---------------------------------------------------------------------------
# Exact combinatorics and closed-form eigenvalues
# ---------------------------------------------------------------------------


def multiplicity(d: int, k: int) -> int:
    """Dimension N(d,k) of degree-k spherical harmonics on S^d, exactly.

    ``N(d,k) = (2k+d-1)/k * binom(k+d-2, d-1)`` for k >= 1 and N(d,0) = 1.
    Computed in exact rational arithmetic (arbitrary precision).
    """
    if d < 1 or k < 0:
        raise KernelError(f"need d >= 1 and k >= 0, got d={d}, k={k}")
    if k == 0:
        return 1
    val = Fraction(2 * k + d - 1, k) * math.comb(k + d - 2, d - 1)
    if val.denominator != 1:
        raise KernelError(f"multiplicity N({d},{k}) did not reduce to an integer")
    return int(val)


def exact_eigenvalue_log(d: int, k: int) -> float:
    """Natural log of the closed-form degree-k eigenvalue (k >= 2)."""
    if d < 1:
        raise KernelError(f"need d >= 1, got {d}")
    if k < 2:
        raise UnsupportedDegreeError(
            f"closed form is valid for k >= 2 only, got k={k}; use the quadrature oracle")
    if d == 1:
        return -math.inf  # the (d-1) prefactor vanishes on the circle
    return (math.log(d - 1) - math.log(2 * pi) - k * math.log(2.0)
            + lgamma(d / 2) + lgamma(k - 1) - lgamma(k / 2) - lgamma((k + d + 2) / 2))


def exact_eigenvalue(d: int, k: int) -> float:
    """Closed-form degree-k eigenvalue, evaluated through log-gamma.

    Values whose logs fall below the float range are reported as 0.0; use
    :func:`exact_eigenvalue_log` when the magnitude itself matters.
    """
    lg = exact_eigenvalue_log(d, k)
    if lg < math.log(1e-300):
        return 0.0
    return math.exp(lg)


def zonal_relu_scale(d: int) -> float:
    """Scale ``G(d/2) / (sqrt(pi) G((d-1)/2))`` relating the tabulated
    eigenvalues to the raw zonal-average spectrum (equals 1/pi at d=2)."""
    if d < 2:
        raise KernelError("zonal scale defined for d >= 2")
    return math.exp(lgamma(d / 2) - 0.5 * math.log(pi) - lgamma((d - 1) / 2))


# ---------------------------------------------------------------------------
# Funk-Hecke quadrature oracle
# ---------------------------------------------------------------------------


def gegenbauer_ratio(d: int, k: int, t) -> np.ndarray:
    """Normalized zonal polynomial ``C_k^{(d-1)/2}(t) / C_k^{(d-1)/2}(1)``.

    The d=1 limit degenerates to the Chebyshev polynomial of degree k.
    """
    t = np.asarray(t, dtype=float)
    if k == 0:
        return np.ones_like(t)
    if d == 1:
        return special.eval_chebyt(k, t)
    nu = (d - 1) / 2.0
    return special.eval_gegenbauer(k, nu, t) / special.eval_gegenbauer(k, nu, 1.0)


@functools.lru_cache(maxsize=16)
def _jacobi_rule(npts: int, alpha: float, beta: float) -> Tuple[np.ndarray, np.ndarray]:
    """Gauss-Jacobi nodes and weights, built once per process and shared by
    every degree; the arrays are read-only because they are shared."""
    x, w = special.roots_jacobi(npts, alpha, beta)
    x.setflags(write=False)
    w.setflags(write=False)
    return x, w


def _relu_profile_integral(d: int, k: int, npts: int) -> float:
    """``int_0^1 t G_k(t) (1-t^2)^((d-2)/2) dt`` by Gauss-Jacobi.

    On [0,1] only the (1-t) factor of the weight is singular; it is absorbed
    into a Jacobi weight so the rule converges geometrically (and is exact
    for even d, where the remaining integrand is polynomial).
    """
    alpha = (d - 2) / 2.0
    x, w = _jacobi_rule(npts, alpha, 0.0)
    t = (x + 1.0) / 2.0
    vals = t * gegenbauer_ratio(d, k, t) * (1.0 + t) ** alpha
    return float(0.5 ** (alpha + 1.0) * np.dot(w, vals))


def funk_hecke_eigenvalue(d: int, k: int, quadrature_points: int) -> float:
    """Degree-k eigenvalue by one-dimensional Gegenbauer-weighted quadrature.

    Integrates the relu activation profile, reproducing the tabulated
    convention ``(d-1)/(2 pi) * integral`` (signed).

    Two refinement levels are compared; disagreement beyond 1e-6 relative
    raises :class:`QuadratureError` rather than returning a silent
    wrong digit.  The Gauss-Jacobi rule of each level depends only on
    ``(quadrature_points, d)``, so it is built once per process and shared
    by all degrees; the value is the same as with a freshly built rule.
    """
    if d < 1 or k < 0:
        raise KernelError(f"need d >= 1 and k >= 0, got d={d}, k={k}")
    if quadrature_points < 64:
        raise KernelError("quadrature_points must be >= 64")

    pref = (d - 1) / (2.0 * pi)
    coarse = pref * _relu_profile_integral(d, k, quadrature_points)
    fine = pref * _relu_profile_integral(d, k, 2 * quadrature_points)

    scale = max(abs(fine), abs(coarse))
    if scale > 1e-13 and abs(fine - coarse) > 1e-6 * scale:
        raise QuadratureError(
            f"quadrature for (d={d}, k={k}) did not converge: {coarse} vs {fine}")
    return fine


# ---------------------------------------------------------------------------
# Kernels: closed form, Monte-Carlo features, Gram matrices
# ---------------------------------------------------------------------------


def arccos_kernel(phi: float) -> float:
    """Angle form of the relu random-feature kernel for rotationally
    symmetric weights: ``((pi - phi)/pi) cos(phi) + sin(phi)/pi``.

    Normalized to 1 at phi=0; independent of the ambient dimension.
    """
    if not -1e-12 <= phi <= pi + 1e-12:
        raise KernelError(f"angle must lie in [0, pi], got {phi}")
    phi = min(max(phi, 0.0), pi)
    return (pi - phi) / pi * math.cos(phi) + math.sin(phi) / pi


def uniform_sphere_points(n: int, d: int, rng) -> np.ndarray:
    """n uniform points on S^d (unit vectors in R^(d+1))."""
    pts = rng.standard_normal((n, d + 1))
    return pts / np.linalg.norm(pts, axis=1, keepdims=True)


def _relu(z):
    return np.maximum(z, 0.0)


def mc_kernel(x, y, samples: int, seed: int) -> Tuple[float, float]:
    """Unbiased Monte-Carlo value of the relu random-feature kernel, with its
    standard error.

    The weights are Gaussian with variance 2 and there is no bias, so unit
    inputs reproduce :func:`arccos_kernel`; the input dimension is the length
    of ``x``.  The same weight draw is used for both arguments, so estimates
    at (x, y) and (y, x) under one seed coincide exactly.
    """
    if samples < 100:
        raise KernelError("samples must be >= 100")
    x = np.atleast_1d(np.asarray(x, float))
    y = np.atleast_1d(np.asarray(y, float))
    rng = spawn_rng(seed)
    X = np.vstack([x, y])
    W = math.sqrt(2.0) * rng.standard_normal((samples, X.shape[1]))
    feats = _relu(X @ W.T)
    prods = feats[0] * feats[1]
    est = float(prods.mean())
    se = float(prods.std(ddof=1) / math.sqrt(samples))
    return est, se


@dataclass
class GramResult:
    matrix: np.ndarray
    eigenvalues: np.ndarray  # nonincreasing

    @property
    def trace(self) -> float:
        return float(np.trace(self.matrix))


def _gram_result(K: np.ndarray) -> GramResult:
    return GramResult(matrix=K, eigenvalues=np.linalg.eigvalsh(K)[::-1])


def _ntk_gram_matrix(X, a0, samples, rng):
    """``(K_rf, K_ntk)``, both exactly symmetric.  The outer weights are
    ``+-a0`` and enter only as ``a0**2``, so no sign is drawn; numpy forms
    each ``A @ A.T`` as a symmetric rank-k update, and the elementwise steps
    after it keep the symmetry bit for bit."""
    d = X.shape[1]
    wb = uniform_sphere_points(samples, d, rng)     # unit (w, b) in R^(d+1)
    pre = X @ wb[:, :d].T + wb[:, d]
    feat = _relu(pre)
    dfeat = (pre > 0).astype(float)
    K_rf = feat @ feat.T / samples
    K_grad = (a0**2 * (dfeat @ dfeat.T) / samples) * (X @ X.T + 1.0)
    return K_rf, K_rf + K_grad


@dataclass
class NtkSandwich:
    k_rf: GramResult
    k_ntk: GramResult
    a0: float
    lower_min: float            # min eig of K_ntk - K_rf
    stated_upper_min: float     # min eig of (1+a0^2) K_rf - K_ntk
    reversed_upper_min: float   # min eig of K_ntk - (1+a0^2) K_rf

    def tolerance(self) -> float:
        return -1e-8 * self.k_ntk.trace

    @property
    def lower_ok(self) -> bool:
        return self.lower_min >= self.tolerance()

    @property
    def stated_upper_ok(self) -> bool:
        return self.stated_upper_min >= self.tolerance()

    @property
    def reversed_upper_ok(self) -> bool:
        return self.reversed_upper_min >= self.tolerance()


def ntk_gram(points, a0: float, param_samples: int, seed: int) -> NtkSandwich:
    """Tangent and random-feature Gram matrices from one parameter sample.

    Parameters are drawn with ``|a| = a0`` and unit ``(w, b)``; the outer
    weight enters both Grams only through ``a0**2``, so its sign is never
    drawn, and both Grams are exactly symmetric by construction.  The report
    carries both orderings of the comparison with ``(1+a0^2) K_rf``: the
    difference ``K_ntk - K_rf`` is positive semidefinite by construction,
    and under the unit-parameter hypothesis the gradient term dominates
    ``a0^2 K_rf`` (Cauchy-Schwarz against the unit parameter vector plus
    1-homogeneity), making ``K_ntk - (1+a0^2) K_rf`` positive semidefinite
    as well.  The opposite ordering is evaluated and reported, not assumed.
    """
    X = np.asarray(points, dtype=float)
    if X.ndim != 2:
        raise KernelError("points must be a (n, d) array")
    if a0 <= 0:
        raise KernelError("a0 must be positive")
    rng = spawn_rng(seed)
    K_rf, K_ntk = _ntk_gram_matrix(X, a0, param_samples, rng)
    # eigh, not eigvalsh: the two differ in the last digit of lower_min
    lower = np.linalg.eigh(K_ntk - K_rf)[0]
    stated = np.linalg.eigvalsh((1 + a0**2) * K_rf - K_ntk)
    # K_ntk - (1+a0^2) K_rf is the stated difference negated, exactly, so its
    # least eigenvalue is minus the stated one's greatest
    return NtkSandwich(k_rf=_gram_result(K_rf), k_ntk=_gram_result(K_ntk), a0=float(a0),
                       lower_min=float(lower[0]),
                       stated_upper_min=float(stated[0]),
                       reversed_upper_min=-float(stated[-1]))


MAX_NYSTROM_POINTS = 5000


def nystrom_spectrum(d: int, n: int, seed: int) -> np.ndarray:
    """Nonincreasing eigenvalues of Gram/n on n uniform samples of S^d.

    The Gram is that of the sphere random-feature kind (weights uniform on
    the inputs' sphere, no bias): it realizes the scaled first-order zonal
    operator (closed form ``zonal_relu_scale(d) * relu(x.y)``), whose
    spectrum the eigenvalue tables follow; its top eigenvalues form
    plateaus of width ``multiplicity(d, k)``.

    Memory: the n x n Gram is built and eigensolved in place; it is
    symmetric by construction, so no pass repairs it, and beside it the
    call holds only the points and syevd's O(n) workspace.  At the
    5,000-point cap that is one 191 MiB matrix.
    """
    if d < 1:
        raise KernelError("d must be >= 1")
    if n < 1 or n > MAX_NYSTROM_POINTS:
        raise KernelError(f"n must lie in [1, {MAX_NYSTROM_POINTS}]")
    # points on S^d in R^(d+1), matching the spectrum tables
    X = uniform_sphere_points(n, d, spawn_rng(seed))
    scale = zonal_relu_scale(d) if d >= 2 else 1.0
    K = X @ X.T
    np.maximum(K, 0.0, out=K)
    K *= scale
    K /= n
    # numpy forms X @ X.T as a symmetric rank-k update and copies one
    # triangle onto the other, and relu and the scalings act elementwise, so
    # K is exactly symmetric.  K.T is the F-ordered view, so LAPACK's syevd
    # (numpy's routine, with its UPLO='L') works in K's own memory and reads
    # the values numpy would
    return linalg.eigh(K.T, lower=True, overwrite_a=True, driver="evd",
                       check_finite=False, eigvals_only=True)[::-1]


# ---------------------------------------------------------------------------
# Assembled spectra
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DegreeEigenvalue:
    k: int
    value: float       # oracle-arbitrated, signed
    mult: int


@dataclass
class KernelSpectrum:
    """Eigenvalues per harmonic degree plus the flattened repeated sequence.

    ``flags`` records degrees where the closed form and the quadrature
    oracle disagree (odd degrees k >= 3, where the oracle vanishes, and
    every k = 0 (mod 4), where the oracle's sign, alternating between
    consecutive even degrees, is negative); the stored value is always the
    oracle's, never an average of the two.
    """

    degrees: List[DegreeEigenvalue]
    flags: Dict[int, dict]

    def mu(self, count: int) -> np.ndarray:
        """The leading ``count`` eigenvalues repeated with multiplicity,
        sorted nonincreasing; only those entries are built."""
        top = sorted(self.degrees, key=lambda e: e.value, reverse=True)
        ends = np.minimum(np.cumsum([e.mult for e in top], dtype=np.int64), max(count, 0))
        return np.repeat([e.value for e in top], np.diff(ends, prepend=0))

    def trace_sum(self) -> float:
        return float(sum(e.mult * e.value for e in self.degrees))


_ORACLE_ZERO_TOL = 1e-12


def exact_spectrum(d: int, max_degree: int, quadrature_points: int) -> KernelSpectrum:
    """Spectrum for degrees 0..max_degree in the first-order convention.

    Degrees 0 and 1 come from the quadrature oracle (outside the closed
    form's range).  At k >= 2 the closed form is evaluated as written and
    the oracle arbitrates: oracle-zero degrees store 0 and are flagged with
    both values; sign disagreements store the signed oracle value and are
    flagged; magnitude disagreements beyond 1e-6 relative are flagged, with
    the oracle value stored.
    """
    if d < 2:
        raise KernelError("spectra are tabulated for d >= 2")
    degrees: List[DegreeEigenvalue] = []
    flags: Dict[int, dict] = {}
    for k in range(max_degree + 1):
        oracle = funk_hecke_eigenvalue(d, k, quadrature_points)
        if k < 2:
            value = oracle
        else:
            formula = exact_eigenvalue(d, k)
            if abs(oracle) <= _ORACLE_ZERO_TOL and formula > _ORACLE_ZERO_TOL:
                value = 0.0
                flags[k] = {"formula": formula, "oracle": oracle, "reason": "oracle_zero"}
            elif not math.isclose(abs(oracle), formula, rel_tol=1e-6, abs_tol=1e-300):
                value = oracle
                flags[k] = {"formula": formula, "oracle": oracle, "reason": "magnitude"}
            elif oracle < 0:
                value = oracle
                flags[k] = {"formula": formula, "oracle": oracle, "reason": "sign"}
            else:
                value = formula
        degrees.append(DegreeEigenvalue(k=k, value=value, mult=multiplicity(d, k)))
    return KernelSpectrum(degrees=degrees, flags=flags)
