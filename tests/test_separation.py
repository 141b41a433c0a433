"""Separation calculator: exact exponent arithmetic, bound shape, schedules."""

import math
from fractions import Fraction

import numpy as np
import pytest

from widthlab.separation import (
    ParameterError,
    ScheduleError,
    SeparationParams,
    build_schedule,
    tail_domination_log2,
    tail_sum_bound_log2,
    width_bound,
    width_exponent,
)

from oracles import rate_exponent_pipeline


class TestExponentArithmetic:
    def test_monte_carlo_vs_empirical_rates(self):
        """alpha=1/2, beta=1/d gives exponent 2/(d-2), exactly as rationals."""
        for d in range(3, 21):
            expo = width_exponent(Fraction(1, 2), Fraction(1, d))
            assert expo == Fraction(2, d - 2)

    def test_kernel_spectrum_rate_pipeline(self):
        """alpha=1/4-3/(4d), beta=1/d gives 4/(d-7) where the rates separate."""
        for d in range(3, 21):
            alpha = Fraction(1, 4) - Fraction(3, 4 * d)
            beta = Fraction(1, d)
            report = rate_exponent_pipeline(alpha, beta)
            if d > 7:
                assert report["valid"]
                assert report["exponent"] == Fraction(4, d - 7)
            else:
                # alpha <= beta: the abstract bound does not apply
                assert not report["valid"]
                assert report["exponent"] is None

    def test_exponent_requires_separated_rates(self):
        with pytest.raises(ParameterError):
            width_exponent(Fraction(1, 4), Fraction(1, 4))


class TestWidthLowerBound:
    def test_unit_constants_value(self):
        # all constants 1, alpha=1, beta=1/2, t=1:
        # 2**(-1/2) * (1/2)**2 = 2**(-5/2), frozen from hand evaluation
        params = SeparationParams(alpha=1.0, beta=0.5, c_fast=1.0, c_slow=1.0)
        out = width_bound(params, 1.0).evaluate(1.0)
        assert not out.below_threshold
        assert out.value == pytest.approx(2.0**-2.5, rel=1e-15)
        assert out.value == pytest.approx(0.17677669529663687, rel=1e-12)

    def test_below_threshold_flagged_zero(self):
        params = SeparationParams(alpha=1.0, beta=0.5, c_fast=1.0, c_slow=1.0)  # threshold = 1/2
        out = width_bound(params, 1.0).evaluate(0.49)
        assert out.below_threshold and out.value == 0.0

    def test_invalid_params(self):
        with pytest.raises(ParameterError):
            width_bound(SeparationParams(alpha=0.3, beta=0.5, c_fast=1.0, c_slow=1.0),
                        1.0).evaluate(1.0)
        with pytest.raises(ParameterError):
            SeparationParams(alpha=1.0, beta=0.5, c_fast=0.0, c_slow=1.0)
        with pytest.raises(ParameterError):
            width_bound(SeparationParams(alpha=1.0, beta=0.5, c_fast=1.0, c_slow=1.0),
                        1.0).evaluate(0.0)
        with pytest.raises(ParameterError, match="c_ambient"):
            width_bound(SeparationParams(alpha=1.0, beta=0.5, c_fast=1.0, c_slow=1.0), 0.0)

    def test_log_affine_with_exact_slope(self):
        """log bound is affine in log t with slope exactly -beta/(alpha-beta)."""
        rng = np.random.default_rng(7)
        for _ in range(50):
            beta = rng.uniform(0.05, 1.0)
            alpha = beta + rng.uniform(0.05, 2.0)
            params = SeparationParams(
                alpha=alpha, beta=beta,
                c_fast=rng.uniform(0.1, 5), c_slow=rng.uniform(0.1, 5),
            )
            wb = width_bound(params, rng.uniform(0.1, 5))
            t1 = wb.threshold_t * rng.uniform(1.0, 10.0)
            t2 = t1 * rng.uniform(1.5, 20.0)
            v1, v2 = wb.evaluate(t1).value, wb.evaluate(t2).value
            slope = (math.log(v2) - math.log(v1)) / (math.log(t2) - math.log(t1))
            assert slope == pytest.approx(-beta / (alpha - beta), rel=1e-12)

    def test_nonincreasing_in_t(self):
        rng = np.random.default_rng(11)
        params = SeparationParams(alpha=0.8, beta=0.3, c_fast=2.0, c_slow=1.5)
        wb = width_bound(params, 0.7)
        ts = np.sort(rng.uniform(wb.threshold_t, 50.0, size=200))
        vals = [wb.evaluate(t).value for t in ts]
        assert all(a >= b for a, b in zip(vals, vals[1:]))

    def test_scaling_covariance_in_c_slow(self):
        """Scaling c_slow by s scales prefactor by s**(alpha/(alpha-beta)) and threshold by s."""
        rng = np.random.default_rng(3)
        for _ in range(20):
            beta = rng.uniform(0.1, 0.6)
            alpha = beta + rng.uniform(0.1, 1.0)
            s = rng.uniform(0.2, 8.0)
            base = SeparationParams(alpha=alpha, beta=beta, c_fast=1.3, c_slow=0.9)
            scaled = SeparationParams(alpha=alpha, beta=beta, c_fast=1.3, c_slow=0.9 * s)
            wb0, wb1 = width_bound(base, 2.1), width_bound(scaled, 2.1)
            assert wb1.prefactor == pytest.approx(
                wb0.prefactor * s ** (alpha / (alpha - beta)), rel=1e-12)
            assert wb1.threshold_t == pytest.approx(wb0.threshold_t * s, rel=1e-12)


class TestExactInstance:
    """The first claim against an instance whose width is known exactly.

    In l-infinity take ``A_n x = c_ambient x_n``, the fast ball the box
    ``|x_n| <= (c_fast/c_ambient) n**-alpha`` and the slow ball the box
    ``|z_n| <= (c_slow/c_ambient) n**-beta``.  Both rate hypotheses hold with
    equality, and coordinate by coordinate

        rho(t) = max_n ((c_slow n**-beta - t c_fast n**-alpha) / c_ambient)_+.

    The bracket rises in n up to ``n* = (t c_fast alpha/(c_slow beta))**(1/(alpha-beta))``
    and falls after it, so the maximum sits at the integers next to n*, or
    at n = 1 when n* < 1.
    """

    #: (alpha, beta, c_fast, c_slow, c_ambient): beta/alpha from 1/6 to 0.9
    INSTANCES = [(alpha, beta, *constants)
                 for alpha, beta in ((3.0, 0.5), (1.0, 0.25), (0.5, 0.2), (1.0, 0.5),
                                     (2.0, 1.5), (1.0, 0.9))
                 for constants in ((1.0, 1.0, 1.0), (2.0, 0.5, 1.0), (0.3, 4.0, 2.5),
                                   (5.0, 3.0, 0.2))]

    @staticmethod
    def n_star(t, alpha, beta, c_fast, c_slow, c_ambient):
        return (t * c_fast * alpha / (c_slow * beta)) ** (1.0 / (alpha - beta))

    @staticmethod
    def width(n, t, alpha, beta, c_fast, c_slow, c_ambient):
        """The largest bracket over the rows of ``n``, floored at 0."""
        bracket = (c_slow * n**-beta - t * c_fast * n**-alpha) / c_ambient
        return np.maximum(bracket.max(axis=0), 0.0)

    def rho(self, t, *args):
        nstar = self.n_star(t, *args)
        n = np.maximum(np.stack([np.ones_like(nstar), np.floor(nstar), np.ceil(nstar)]), 1.0)
        return self.width(n, t, *args)

    def test_bound_holds_from_threshold_to_a_million_times_it(self):
        for args in self.INSTANCES:
            wb = width_bound(SeparationParams(*args[:4]), args[4])
            ts = wb.threshold_t * np.logspace(0.0, 6.0, 200)
            rho = self.rho(ts, *args)
            assert np.all(np.array([wb.evaluate(t).value for t in ts]) <= rho), args
            # the closed form is the maximum over every n, checked where n*
            # is small enough to try them all
            small = self.n_star(ts, *args) < 1000
            brute = self.width(np.arange(1.0, 2001.0)[:, None], ts[small], *args)
            assert np.array_equal(rho[small], brute), args

    def test_local_slope_is_the_bound_exponent(self):
        """Over the reals the maximum is ``c_slow n*^-beta (alpha-beta)/(alpha c_ambient)``,
        an exact power law of slope ``-beta/(alpha-beta)`` in t.  At an
        integer n = n* e^r the bracket is that maximum times
        ``phi(r) = (alpha e^(-beta r) - beta e^(-alpha r))/(alpha-beta)``, which
        peaks at r = 0, and one of the two integers next to n* has
        ``|r| <= R = log(n*/(n* - 1/2))``.  So log rho lies within
        ``-log min(phi(R), phi(-R))`` below the power law at t, and closer at
        2t, where n* is larger.  The float evaluation adds a few roundings
        of each term, magnified by the cancellation ``(alpha+beta)/(alpha-beta)``."""
        eps = np.finfo(float).eps
        for args in self.INSTANCES:
            alpha, beta = args[:2]
            wb = width_bound(SeparationParams(*args[:4]), args[4])
            t = 1e6 * wb.threshold_t
            slope = math.log(self.rho(2 * t, *args) / self.rho(t, *args)) / math.log(2.0)
            nstar = self.n_star(t, *args)
            R = math.log(nstar / (nstar - 0.5))
            phi = [(alpha * math.exp(-beta * r) - beta * math.exp(-alpha * r)) / (alpha - beta)
                   for r in (R, -R)]
            rounding = 8 * eps * (alpha + beta) / (alpha - beta)
            tol = (-math.log(min(phi)) + 2 * rounding) / math.log(2.0)
            assert abs(slope + wb.exponent) <= tol, args


class TestSchedule:
    def test_log2_n_is_k_to_the_k(self):
        sched = build_schedule(SeparationParams(alpha=1.0, beta=0.25, c_fast=1.0, c_slow=1.0),
                               k_max=3)
        assert [e.log2_n for e in sched] == [1, 4, 27]

    def test_first_scale_is_threshold(self):
        params = SeparationParams(alpha=1.0, beta=0.25, c_fast=2.0, c_slow=3.0)
        sched = build_schedule(params, k_max=1)
        assert sched[0].log_t == pytest.approx(math.log(3.0 / 4.0), rel=1e-15)

    def test_log_m_formula(self):
        params = SeparationParams(alpha=1.0, beta=0.25, c_fast=1.0, c_slow=1.0)
        sched = build_schedule(params, k_max=4)
        gap = 0.75
        for e in sched:
            assert e.log_m == pytest.approx((e.k / gap) * e.log2_n * math.log(2.0), rel=1e-14)

    def test_effective_exponent_decreases_to_limit(self):
        params = SeparationParams(alpha=1.0, beta=0.25, c_fast=1.0, c_slow=1.0)
        sched = build_schedule(params, k_max=10)
        effs = [e.effective_exponent for e in sched]
        assert effs[0] == math.inf
        finite = effs[1:]
        assert all(a > b for a, b in zip(finite, finite[1:]))
        limit = width_exponent(params.alpha, params.beta)
        assert all(e > limit for e in finite)
        assert finite[-1] == pytest.approx(limit + 1.0 / (9 * 0.75), rel=1e-12)

    def test_m_rounded_reported_when_small(self):
        sched = build_schedule(SeparationParams(alpha=1.0, beta=0.25, c_fast=1.0, c_slow=1.0),
                               k_max=2)
        # m_1 = 2**(1/0.75) ~ 2.52, m_2 = 16**(2/0.75) ~ 1625498.6
        assert sched[0].m_rounded == 3
        assert sched[1].m_rounded == round(16 ** (2 / 0.75))

    def test_schedule_rejects_beta_at_or_above_half_alpha(self):
        with pytest.raises(ScheduleError, match="boundary"):
            build_schedule(SeparationParams(alpha=1.0, beta=0.5, c_fast=1.0, c_slow=1.0), k_max=3)
        with pytest.raises(ScheduleError):
            build_schedule(SeparationParams(alpha=1.0, beta=0.6, c_fast=1.0, c_slow=1.0), k_max=3)

    def test_k_max_cap(self):
        with pytest.raises(ScheduleError):
            build_schedule(SeparationParams(alpha=1.0, beta=0.25, c_fast=1.0, c_slow=1.0), k_max=13)


class TestTailSum:
    def test_k1_value_frozen(self):
        # dominant terms: n_1 * (1/n_2 + 1/n_3 + ...) = 2*(2**-4 + 2**-27 + ...)
        tb = tail_sum_bound_log2(1)
        assert 2.0**tb == pytest.approx(0.12500001490116119, rel=1e-14)

    def test_k2_value(self):
        # 16 * 2**-27 * (1 + 2**-229 + ...) = 2**-23 up to float resolution
        tb = tail_sum_bound_log2(2)
        assert tb == pytest.approx(-23.0, abs=1e-12)
        assert 2.0**tb <= 2.0**-23 * (1 + 1e-12)

    def test_domination_for_k_ge_2(self):
        """n_k * tail <= 2 * n_k**-k, checked in the log domain."""
        for k in range(2, 9):
            assert tail_sum_bound_log2(k) <= tail_domination_log2(k)

    def test_monotone_decreasing(self):
        logs = [tail_sum_bound_log2(k) for k in range(1, 9)]
        assert all(a > b for a, b in zip(logs, logs[1:]))

    def test_underflow_reported(self):
        """The bound lies below the smallest subnormal, so only its log2,
        which stays finite, carries it."""
        tb = tail_sum_bound_log2(5)
        assert math.isfinite(tb) and tb < -1074
        assert 2.0**tb == 0.0

    def test_out_of_range(self):
        for k in (0, 9):
            with pytest.raises(ParameterError):
                tail_sum_bound_log2(k)
