"""Abstract two-space separation calculators.

Setting: two function classes embed in a common ambient space, and a sequence
of linear functionals converges at rate ``n**-alpha`` (with constant
``c_fast``) on the fast class but no faster than ``n**-beta`` (constant
``c_slow``) on the slow class, while staying uniformly bounded by
``c_ambient`` on the ambient space.  Under ``alpha > beta`` this forces the
width function

    rho(t) = sup over unit slow ball of distance to the radius-t fast ball

to decay no faster than ``t**-(beta/(alpha-beta))``.  This module evaluates
that lower bound exactly, and computes the multi-scale schedule
``(n_k, m_k, t_k)`` used to pin a single slowly-approximable element across
infinitely many scales.  Schedule sizes grow like ``2**(k**k)`` so every
schedule quantity is carried in the log domain.

All functions are pure and accept ``fractions.Fraction`` inputs wherever the
result is rational (exponents), so rate arithmetic can be checked exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import List, Optional, Union

from .util import logsumexp2

Number = Union[int, float, Fraction]


class ParameterError(ValueError):
    """Raised when rate constants violate their validity conditions."""


class ScheduleError(ValueError):
    """Raised when the multi-scale schedule is not applicable."""


@dataclass(frozen=True)
class SeparationParams:
    """Rate constants of the fast/slow operator estimates.

    ``alpha``/``c_fast`` bound the operator norm on the fast class from
    above by ``c_fast * n**-alpha``; ``beta``/``c_slow`` bound it on the slow
    class from below by ``c_slow * n**-beta``.  The ambient bound
    ``c_ambient`` is an argument of :func:`width_bound`, its only reader.
    """

    alpha: Number
    beta: Number
    c_fast: Number
    c_slow: Number

    def __post_init__(self):
        for name in ("alpha", "beta", "c_fast", "c_slow"):
            v = getattr(self, name)
            if not v > 0:
                raise ParameterError(f"{name} must be strictly positive, got {v!r}")

    def require_bound_valid(self):
        if not self.alpha > self.beta:
            raise ParameterError(
                f"width bound requires alpha > beta, got alpha={self.alpha}, beta={self.beta}"
            )

    def require_schedule_valid(self):
        self.require_bound_valid()
        if self.beta == self.alpha / 2:
            # Boundary case: the strict form is enforced; equality is called
            # out explicitly rather than silently accepted or lumped into the
            # generic error.
            raise ScheduleError(
                "schedule requires beta < alpha/2 strictly; beta == alpha/2 is "
                "the boundary case and is rejected"
            )
        if self.beta > self.alpha / 2:
            raise ScheduleError(
                f"schedule requires beta < alpha/2, got alpha={self.alpha}, beta={self.beta}"
            )


def width_exponent(alpha: Number, beta: Number):
    """Decay exponent ``beta / (alpha - beta)`` of the width lower bound.

    Exact when called with ``Fraction`` arguments.  Raises if the rates are
    not separated (``alpha <= beta``), since the bound is vacuous there.
    """
    if not alpha > beta:
        raise ParameterError(f"exponent defined for alpha > beta only, got {alpha}, {beta}")
    return beta / (alpha - beta)


@dataclass(frozen=True)
class WidthBound:
    """Closed form of the width lower bound: valid for ``t >= threshold_t``.

    ``rho(t) >= prefactor * t**-exponent``.
    """

    exponent: float
    prefactor: float
    threshold_t: float

    def evaluate(self, t: float) -> "BoundValue":
        if not t > 0:
            raise ParameterError(f"t must be positive, got {t}")
        if t < self.threshold_t:
            return BoundValue(value=0.0, below_threshold=True)
        return BoundValue(value=self.prefactor * float(t) ** (-self.exponent),
                          below_threshold=False)


@dataclass(frozen=True)
class BoundValue:
    value: float
    below_threshold: bool


def width_bound(params: SeparationParams, c_ambient: Number) -> WidthBound:
    """Assemble exponent, prefactor and validity threshold from the constants,
    ``c_ambient`` bounding the operator norm on the ambient space.

    prefactor = 2**-beta * (c_slow/2)**(alpha/(alpha-beta))
                / (c_ambient * c_fast**(beta/(alpha-beta)))
    threshold = c_slow / (2 c_fast)
    """
    if not c_ambient > 0:
        raise ParameterError(f"c_ambient must be strictly positive, got {c_ambient!r}")
    params.require_bound_valid()
    alpha, beta = float(params.alpha), float(params.beta)
    c_fast, c_slow, c_amb = float(params.c_fast), float(params.c_slow), float(c_ambient)
    expo = width_exponent(alpha, beta)
    prefactor = (
        2.0 ** (-beta) * (c_slow / 2.0) ** (alpha / (alpha - beta)) / (c_amb * c_fast**expo)
    )
    return WidthBound(exponent=expo, prefactor=prefactor, threshold_t=c_slow / (2.0 * c_fast))


# ---------------------------------------------------------------------------
# Multi-scale schedule
# ---------------------------------------------------------------------------

MAX_SCHEDULE_K = 12


@dataclass(frozen=True)
class ScheduleEntry:
    k: int
    log2_n: int              # exactly k**k
    log_m: float             # natural log of m_k = n_k**(k/(alpha-beta))
    log_t: float             # natural log of t_k = threshold * n_k**(k-1)
    effective_exponent: float
    m_rounded: Optional[int]  # nearest integer to m_k when representable


def build_schedule(params: SeparationParams, k_max: int) -> List[ScheduleEntry]:
    """Scales ``n_k = 2**(k**k)``, ``m_k = n_k**(k/(alpha-beta))`` and
    ``t_k = c_slow/(2 c_fast) * n_k**(k-1)``, all in the log domain.

    The per-entry effective exponent
    ``beta/(alpha-beta) + alpha/((k-1)(alpha-beta))`` decreases to the
    limiting width exponent; entry k=1 has no finite effective exponent and
    stores ``inf``.  ``m_k`` is kept as a real; a rounded companion value is
    reported whenever it fits an int64-exact float.
    """
    params.require_schedule_valid()
    if not 1 <= k_max <= MAX_SCHEDULE_K:
        raise ScheduleError(f"k_max must lie in [1, {MAX_SCHEDULE_K}], got {k_max}")
    alpha, beta = float(params.alpha), float(params.beta)
    gap = alpha - beta
    log_threshold = math.log(float(params.c_slow) / (2.0 * float(params.c_fast)))
    base_expo = width_exponent(alpha, beta)
    entries = []
    for k in range(1, k_max + 1):
        log2_n = k**k
        log_n = log2_n * math.log(2.0)
        log_m = (k / gap) * log_n
        log_t = log_threshold + (k - 1) * log_n
        eff = math.inf if k == 1 else base_expo + alpha / ((k - 1) * gap)
        m_rounded = None
        if log_m < 53 * math.log(2.0):
            m_rounded = round(math.exp(log_m))
        entries.append(
            ScheduleEntry(
                k=k, log2_n=log2_n, log_m=log_m, log_t=log_t,
                effective_exponent=eff, m_rounded=m_rounded,
            )
        )
    return entries


MAX_TAIL_K = 8
_TAIL_TERMS = 50


def tail_sum_bound_log2(k: int) -> float:
    """log2 of an upper bound on ``n_k * sum_{l>k} 1/n_l`` with
    ``n_l = 2**(l**l)``; the raw value underflows float64 from k=4 on, so
    consumers compare ``log2`` values.

    Partial sums run to ``l = k + 50``; the remainder is covered by a
    geometric estimate (consecutive terms shrink by at least a factor 2
    because ``(l+1)**(l+1) - l**l >= 1``), so the result is a true upper
    bound.  For k >= 2 it must come out below ``2 * n_k**-k``.
    """
    if not 1 <= k <= MAX_TAIL_K:
        raise ParameterError(f"k must lie in [1, {MAX_TAIL_K}], got {k}")
    kk = k**k
    log2_terms = [float(kk - l**l) for l in range(k + 1, k + 1 + _TAIL_TERMS)]
    l_rem = k + 1 + _TAIL_TERMS
    log2_terms.append(float(kk - l_rem**l_rem) + 1.0)  # geometric remainder
    return logsumexp2(log2_terms)


def tail_domination_log2(k: int) -> float:
    """log2 of the comparison level ``2 * n_k**-k``."""
    return 1.0 - float(k) * float(k**k)
