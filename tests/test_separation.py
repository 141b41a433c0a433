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
    rate_exponent_pipeline,
    tail_domination_log2,
    tail_sum_bound_log2,
    width_bound,
    width_exponent,
)


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
        params = SeparationParams(alpha=1.0, beta=0.5)
        out = width_bound(params).evaluate(1.0)
        assert not out.below_threshold
        assert out.value == pytest.approx(2.0**-2.5, rel=1e-15)
        assert out.value == pytest.approx(0.17677669529663687, rel=1e-12)

    def test_below_threshold_flagged_zero(self):
        params = SeparationParams(alpha=1.0, beta=0.5)  # threshold = 1/2
        out = width_bound(params).evaluate(0.49)
        assert out.below_threshold and out.value == 0.0

    def test_invalid_params(self):
        with pytest.raises(ParameterError):
            width_bound(SeparationParams(alpha=0.3, beta=0.5)).evaluate(1.0)
        with pytest.raises(ParameterError):
            SeparationParams(alpha=1.0, beta=0.5, c_fast=0.0)
        with pytest.raises(ParameterError):
            width_bound(SeparationParams(alpha=1.0, beta=0.5)).evaluate(0.0)

    def test_log_affine_with_exact_slope(self):
        """log bound is affine in log t with slope exactly -beta/(alpha-beta)."""
        rng = np.random.default_rng(7)
        for _ in range(50):
            beta = rng.uniform(0.05, 1.0)
            alpha = beta + rng.uniform(0.05, 2.0)
            params = SeparationParams(
                alpha=alpha, beta=beta,
                c_fast=rng.uniform(0.1, 5), c_slow=rng.uniform(0.1, 5),
                c_ambient=rng.uniform(0.1, 5),
            )
            wb = width_bound(params)
            t1 = wb.threshold_t * rng.uniform(1.0, 10.0)
            t2 = t1 * rng.uniform(1.5, 20.0)
            v1, v2 = wb.evaluate(t1).value, wb.evaluate(t2).value
            slope = (math.log(v2) - math.log(v1)) / (math.log(t2) - math.log(t1))
            assert slope == pytest.approx(-beta / (alpha - beta), rel=1e-12)

    def test_nonincreasing_in_t(self):
        rng = np.random.default_rng(11)
        params = SeparationParams(alpha=0.8, beta=0.3, c_fast=2.0, c_slow=1.5, c_ambient=0.7)
        wb = width_bound(params)
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
            base = SeparationParams(alpha=alpha, beta=beta, c_fast=1.3, c_slow=0.9, c_ambient=2.1)
            scaled = SeparationParams(alpha=alpha, beta=beta, c_fast=1.3,
                                      c_slow=0.9 * s, c_ambient=2.1)
            wb0, wb1 = width_bound(base), width_bound(scaled)
            assert wb1.prefactor == pytest.approx(
                wb0.prefactor * s ** (alpha / (alpha - beta)), rel=1e-12)
            assert wb1.threshold_t == pytest.approx(wb0.threshold_t * s, rel=1e-12)


class TestSchedule:
    def test_log2_n_is_k_to_the_k(self):
        sched = build_schedule(SeparationParams(alpha=1.0, beta=0.25), k_max=3)
        assert [e.log2_n for e in sched] == [1, 4, 27]

    def test_first_scale_is_threshold(self):
        params = SeparationParams(alpha=1.0, beta=0.25, c_fast=2.0, c_slow=3.0)
        sched = build_schedule(params, k_max=1)
        assert sched[0].log_t == pytest.approx(math.log(3.0 / 4.0), rel=1e-15)

    def test_log_m_formula(self):
        params = SeparationParams(alpha=1.0, beta=0.25)
        sched = build_schedule(params, k_max=4)
        gap = 0.75
        for e in sched:
            assert e.log_m == pytest.approx((e.k / gap) * e.log2_n * math.log(2.0), rel=1e-14)

    def test_effective_exponent_decreases_to_limit(self):
        params = SeparationParams(alpha=1.0, beta=0.25)
        sched = build_schedule(params, k_max=10)
        effs = [e.effective_exponent for e in sched]
        assert effs[0] == math.inf
        finite = effs[1:]
        assert all(a > b for a, b in zip(finite, finite[1:]))
        limit = width_exponent(params.alpha, params.beta)
        assert all(e > limit for e in finite)
        assert finite[-1] == pytest.approx(limit + 1.0 / (9 * 0.75), rel=1e-12)

    def test_m_rounded_reported_when_small(self):
        sched = build_schedule(SeparationParams(alpha=1.0, beta=0.25), k_max=2)
        # m_1 = 2**(1/0.75) ~ 2.52, m_2 = 16**(2/0.75) ~ 1625498.6
        assert sched[0].m_rounded == 3
        assert sched[1].m_rounded == round(16 ** (2 / 0.75))

    def test_schedule_rejects_beta_at_or_above_half_alpha(self):
        with pytest.raises(ScheduleError, match="boundary"):
            build_schedule(SeparationParams(alpha=1.0, beta=0.5), k_max=3)
        with pytest.raises(ScheduleError):
            build_schedule(SeparationParams(alpha=1.0, beta=0.6), k_max=3)

    def test_k_max_cap(self):
        with pytest.raises(ScheduleError):
            build_schedule(SeparationParams(alpha=1.0, beta=0.25), k_max=13)


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
