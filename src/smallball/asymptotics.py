"""Closed-form and semi-closed-form small-ball asymptotics.

Conventions.  An :class:`AsymptoticForm` (A, alpha, beta, D) stands for

    F(x) ~ A * x^alpha * exp(-D * x^(-beta)),    x -> 0+,

with the slowly varying factor fixed to 1.  All asymptotic evaluators
return natural-log probabilities, because the interesting regime underflows
double precision.

Two independent routes to the same asymptotics are kept deliberately
separate: ``naznik_asymptotic`` carries fully explicit constants for the
power-law weight family (theta (k + delta))^(-d), while ``dll_asymptotic``
evaluates the general log-convex route through the tilted integrals
I0, I1, I2.  The single unknown prefactor of the latter is calibrated once
against the former on the reference power law and cached.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

from scipy.integrate import quad
from scipy.optimize import brentq
from scipy.special import gammaln

from .errors import NumericError

__all__ = [
    "AsymptoticForm",
    "PowerLawPhi",
    "dll_root",
    "dll_asymptotic",
    "dll_prefactor",
    "naznik_params",
    "naznik_asymptotic",
    "naznik_form",
    "NazNikParams",
    "differentiate_form",
    "abel_reduce",
    "green_rate",
    "green_base_form",
]


@dataclass(frozen=True)
class AsymptoticForm:
    """F(x) ~ amplitude * x^power * exp(-rate * x^(-order)) as x -> 0+."""

    amplitude: float
    power: float
    order: float
    rate: float

    def __post_init__(self):
        if not all(math.isfinite(v) for v in (self.amplitude, self.power, self.order, self.rate)):
            raise ValueError("amplitude, power, order and rate must be finite")
        if self.amplitude <= 0:
            raise ValueError("amplitude must be positive")
        if self.order <= 0:
            raise ValueError("order must be positive")
        if self.rate <= 0:
            raise ValueError("rate must be positive")

    def log_evaluate(self, x: float) -> float:
        if x <= 0:
            raise ValueError("x must be positive")
        return math.log(self.amplitude) + self.power * math.log(x) - self.rate * x ** (-self.order)

    def evaluate(self, x: float) -> float:
        return math.exp(self.log_evaluate(x))


def differentiate_form(form: AsymptoticForm, m: int) -> AsymptoticForm:
    """m-th derivative of the form: the exponential survives untouched while
    the amplitude gains (rate*order)^m and the power drops by m*(order+1)."""
    if m < 0:
        raise ValueError("m must be >= 0")
    if m == 0:
        return form
    return AsymptoticForm(
        amplitude=form.amplitude * (form.rate * form.order) ** m,
        power=form.power - m * (form.order + 1.0),
        order=form.order,
        rate=form.rate,
    )


def abel_reduce(form: AsymptoticForm) -> AsymptoticForm:
    """Asymptotics of the Abel convolution
    int_0^r x^power exp(-rate x^(-order)) (r - x)^(-1/2) dx:
    amplitude gains sqrt(pi / (rate * order)) and the power rises by
    (order + 1)/2."""
    return AsymptoticForm(
        amplitude=form.amplitude * math.sqrt(math.pi / (form.rate * form.order)),
        power=form.power + (form.order + 1.0) / 2.0,
        order=form.order,
        rate=form.rate,
    )


def green_rate(l: int) -> tuple[float, float]:
    """Decay order d and rate D of the squared-norm small-ball exponent for
    a Green process of differential order 2l:
    d = 1/(2l-1), D = (2d)^(-1) (2l sin(pi/(2l)))^(-d-1)."""
    if l < 1:
        raise ValueError("green order l must be a positive integer")
    d = 1.0 / (2.0 * l - 1.0)
    rate = (2.0 * l * math.sin(math.pi / (2.0 * l))) ** (-d - 1.0) / (2.0 * d)
    return d, rate


def green_base_form(l: int, amplitude: float = 1.0, power: float = 0.0) -> AsymptoticForm:
    """A small-ball form in the r = eps^2 variable with the exponent of a
    Green process of order 2l; amplitude and power are free bookkeeping."""
    d, rate = green_rate(l)
    return AsymptoticForm(amplitude=amplitude, power=power, order=d, rate=rate)


# ---------------------------------------------------------------------------
# Explicit power-law asymptotics
# ---------------------------------------------------------------------------


class NazNikParams(NamedTuple):
    gamma: float
    amplitude: float
    exponent_coefficient: float


def naznik_params(theta: float, delta: float, d: float) -> NazNikParams:
    """Constants (gamma, C, coef) of the asymptotics

        P{sum (theta(k+delta))^(-d) xi_k^2 < eps^2}
            ~ C eps^gamma exp(-coef eps^(-2/(d-1))),

    with gamma = (2 - d - 2 d delta) / (2(d-1)),
    coef = (d-1)/2 * (pi / (d theta sin(pi/d)))^(d/(d-1)) and

        C = (2 pi)^(d/4) theta^(d gamma/2) sin(pi/d)^((1+gamma)/2)
            / ((d-1)^(1/2) (pi/d)^(1+gamma/2) Gamma(1+delta)^(d/2)).

    (theta, delta, d) must name a ``PowerLawPhi`` member, which checks it;
    constants that overflow double precision raise NumericError.
    """
    PowerLawPhi(theta, delta, d)
    gamma = (2.0 - d - 2.0 * d * delta) / (2.0 * (d - 1.0))
    sin_pd = math.sin(math.pi / d)
    log_c = (
        (d / 4.0) * math.log(2.0 * math.pi)
        + (d * gamma / 2.0) * math.log(theta)
        + ((1.0 + gamma) / 2.0) * math.log(sin_pd)
        - 0.5 * math.log(d - 1.0)
        - (1.0 + gamma / 2.0) * math.log(math.pi / d)
        - (d / 2.0) * gammaln(1.0 + delta)
    )
    try:
        coef = (d - 1.0) / 2.0 * (math.pi / (d * theta * sin_pd)) ** (d / (d - 1.0))
        amplitude = math.exp(log_c)
    except OverflowError:
        raise NumericError(f"naznik constants overflow at theta={theta}, d={d}") from None
    return NazNikParams(gamma=gamma, amplitude=amplitude, exponent_coefficient=coef)


def naznik_asymptotic(theta: float, delta: float, d: float, eps: float) -> float:
    """log P{sum (theta(k+delta))^(-d) xi_k^2 < eps^2} per the explicit
    power-law asymptotics; an exponent eps^(-2/(d-1)) that overflows raises
    NumericError."""
    if not (eps > 0 and math.isfinite(eps)):
        raise ValueError("eps must be positive and finite")
    gamma, amp, coef = naznik_params(theta, delta, d)
    try:
        scale = eps ** (-2.0 / (d - 1.0))
    except OverflowError:
        raise NumericError(f"naznik exponent eps^(-2/(d-1)) overflows at eps={eps}, d={d}") from None
    return math.log(amp) + gamma * math.log(eps) - coef * scale


def naznik_form(theta: float, delta: float, d: float) -> AsymptoticForm:
    """The same asymptotics as an AsymptoticForm in the r = eps^2 variable."""
    gamma, amp, coef = naznik_params(theta, delta, d)
    return AsymptoticForm(amplitude=amp, power=gamma / 2.0, order=1.0 / (d - 1.0), rate=coef)


# ---------------------------------------------------------------------------
# General log-convex route (tilted integrals)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PowerLawPhi:
    """Catalog member phi(t) = (theta (t + delta))^(-d) on [1, inf).

    Positive, integrable (d > 1) and log-convex: (ln phi)'' = d/(t+delta)^2.
    """

    theta: float
    delta: float
    d: float

    def __post_init__(self):
        if not all(math.isfinite(v) for v in (self.theta, self.delta, self.d)):
            raise ValueError("theta, delta and d must be finite")
        if self.theta <= 0:
            raise ValueError("theta must be positive")
        if self.d <= 1:
            raise ValueError("d must exceed 1 for integrability")
        if self.delta <= -1:
            raise ValueError("delta must exceed -1")

    def __call__(self, t):
        return (self.theta * (t + self.delta)) ** (-self.d)

    def knee(self, u: float) -> float:
        """Scale point t* with 2 u phi(t*) = 1, floored at 2."""
        t_star = (2.0 * u) ** (1.0 / self.d) / self.theta - self.delta
        return min(max(t_star, 2.0), 1e300)


# The tilted integrands as functions of x = u phi(t), for
# f(x) = (1 + 2x)^(-1/2): ln f(x), x (ln f)'(x) and x^2 (ln f)''(x).


def _log_f(x: float) -> float:
    return -0.5 * math.log1p(2.0 * x)


def _x_dlog_f(x: float) -> float:
    return -x / (1.0 + 2.0 * x)


def _x2_d2log_f(x: float) -> float:
    return 2.0 * x * x / (1.0 + 2.0 * x) ** 2


def _integrate_scaled(h, phi: PowerLawPhi, u: float) -> float:
    """int_1^inf h(u phi(t)) dt for integrands h vanishing at 0.

    The range splits at the knee t* where 2 u phi = 1.  On [1, t*] the
    substitution t = e^y evens out the many decades the tilt can span
    (u reaches ~1e15 during calibration); on [t*, inf) use t = t*/s.
    """
    g = lambda t: h(u * phi(t))  # noqa: E731
    t_star = phi.knee(u)
    inner, e1 = quad(lambda y: g(math.exp(y)) * math.exp(y), 0.0, math.log(t_star), limit=400)
    outer, e2 = quad(lambda s: g(t_star / s) * t_star / (s * s), 0.0, 1.0, limit=400)
    if e1 + e2 > 1e-7 * (1.0 + abs(inner) + abs(outer)):
        raise NumericError("tilted integral did not converge")
    return inner + outer


def tilt_integrals(phi: PowerLawPhi, u: float) -> tuple[float, float, float]:
    """(I0, I1, I2) of the tilt u: I0 = int ln f(u phi), I1 = int u phi (ln f)',
    I2 = int (u phi)^2 (ln f)''."""
    if u <= 0:
        raise ValueError("tilt u must be positive")
    return tuple(_integrate_scaled(h, phi, u) for h in (_log_f, _x_dlog_f, _x2_d2log_f))


def dll_root(spec: PowerLawPhi, r: float) -> float:
    """The tilt u(r) > 0 solving I1(u) + u r = 0.

    I1 is negative and sublinear in u while u r grows linearly, so the root
    exists for every r below the total mass
    int_1^inf phi = theta^(-d) (1 + delta)^(1-d) / (d - 1); r at or above it
    raises ValueError, and a mass that overflows raises NumericError.  The
    bracket is expanded geometrically in both directions before Brent's
    method.
    """
    if not (r > 0 and math.isfinite(r)):
        raise ValueError("r must be positive and finite")
    try:
        mass = spec.theta ** (-spec.d) * (1.0 + spec.delta) ** (1.0 - spec.d) / (spec.d - 1.0)
    except OverflowError:
        raise NumericError(f"dll_root: the mass of phi overflows at theta={spec.theta}") from None
    if r >= mass:
        raise ValueError(
            f"r = {r:g} must be below the mass of phi, int_1^inf phi = "
            f"theta^(-d) (1+delta)^(1-d) / (d-1) = {mass:.6g}"
        )

    # I1 is the costly part: the bracket loops both start at u = 1, brentq
    # re-evaluates the bracket ends and the residual check reads its root
    memo: dict[float, float] = {}

    def f(u):
        if u not in memo:
            memo[u] = _integrate_scaled(_x_dlog_f, spec, u) + u * r
        return memo[u]

    lo = hi = 1.0
    tries = 0
    while f(lo) > 0:
        lo /= 8.0
        tries += 1
        if tries > 400:
            raise NumericError("dll_root: lower bracket expansion failed")
    tries = 0
    while f(hi) < 0:
        hi *= 8.0
        tries += 1
        if tries > 400:
            raise NumericError("dll_root: upper bracket expansion failed")
    u = brentq(f, lo, hi, rtol=1e-14, maxiter=500)
    resid = f(u)
    if abs(resid) > 1e-10 * abs(u * r):
        raise NumericError(f"dll_root residual too large: {resid:.3e} at u={u:.6e}")
    return u


@lru_cache(maxsize=1)
def dll_prefactor() -> float:
    """The constant C of the log-convex asymptotics, fixed by matching the
    explicit power-law route at the reference member theta=1, delta=0, d=2
    deep in its asymptotic regime (r = 1e-8).  Comes out ~0.367879, the
    Euler-Maclaurin companion of (2 pi)^(-1/2)."""
    ref = PowerLawPhi(theta=1.0, delta=0.0, d=2.0)
    r_cal = 1e-8
    uncal, _ = _dll_log_uncalibrated(ref, r_cal)
    target = naznik_asymptotic(1.0, 0.0, 2.0, math.sqrt(r_cal))
    return math.exp(target - uncal)


def _dll_log_uncalibrated(spec: PowerLawPhi, r: float) -> tuple[float, float]:
    """(log-probability without the prefactor C, tilt u) at r."""
    u = dll_root(spec, r)
    i0 = _integrate_scaled(_log_f, spec, u)
    i2 = _integrate_scaled(_x2_d2log_f, spec, u)
    return 0.5 * (_log_f(u * spec(1.0)) - math.log(i2)) + i0 + u * r, u


def _dll_log_and_tilt(spec: PowerLawPhi, r: float) -> tuple[float, float]:
    """(dll_asymptotic(spec, r), dll_root(spec, r)) from one root solve."""
    uncal, u = _dll_log_uncalibrated(spec, r)
    return math.log(dll_prefactor()) + uncal, u


def dll_asymptotic(spec: PowerLawPhi, r: float) -> float:
    """log P{sum phi(k) xi_k^2 <= r} via the tilted-integral asymptotics

        C sqrt(f(u phi(1)) / I2(u)) exp(I0(u) + u r),   f(x) = (1+2x)^(-1/2),

    with u = u(r) the exact root of I1(u) + u r = 0 and C the calibrated
    prefactor."""
    return _dll_log_and_tilt(spec, r)[0]
