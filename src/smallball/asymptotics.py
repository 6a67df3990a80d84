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

For the power-law phi the tilted integrals take no quadrature: the
substitution x = u phi(t) makes I1 and I2 incomplete beta functions,
summed here by their hypergeometric series on the math module alone, and
I0 follows from I1 by parts.  The tilt u(r) is a safeguarded Newton root
in log u whose steps read I1 and I2 at one tilt, and the solve forms the
log-probability from I1 and I2 at its last tilt.  The whole route runs
in plain floats, with no numpy: a ``dll_asymptotic`` call on the
bridge or Wiener member at eps = 0.005 to 0.095 takes 11-34 us on a
2-core Xeon host (median of 200 calls).
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

from .errors import NumericError, _check_integer, _check_positive, _check_real

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


# names benchmark/tracing.py wraps while it records; no library path calls
# them; deleted with ROADMAP item 1
quad = None


@dataclass(frozen=True)
class AsymptoticForm:
    """F(x) ~ amplitude * x^power * exp(-rate * x^(-order)) as x -> 0+.

    The power is a finite real and the other three are positive; the form
    algebra below raises NumericError for a form it cannot hold in doubles.
    """

    amplitude: float
    power: float
    order: float
    rate: float

    def __post_init__(self):
        for name in ("amplitude", "power", "order", "rate"):
            value = _check_real(name, getattr(self, name), positive=name != "power")
            object.__setattr__(self, name, value)

    def log_evaluate(self, x: float) -> float:
        """log F(x); a value beyond the double range raises NumericError."""
        x = _check_positive("x", x)
        try:
            out = math.log(self.amplitude) + self.power * math.log(x) - self.rate * x ** (-self.order)
        except OverflowError:
            out = math.nan
        if not math.isfinite(out):
            raise NumericError(f"log F(x) of {self} leaves the double range at x = {x!r}")
        return out

    def evaluate(self, x: float) -> float:
        try:
            return math.exp(self.log_evaluate(x))
        except OverflowError:
            raise NumericError(f"F(x) of {self} overflows the double range at x = {x!r}") from None


def _derived_form(what: str, amplitude: float, power: float, order: float, rate: float) -> AsymptoticForm:
    """The form that ``what`` computed from valid forms.  An amplitude or
    power that left the double range is a result the doubles cannot hold,
    so it raises NumericError, not the constructor's argument error."""
    if not (0.0 < amplitude <= sys.float_info.max and math.isfinite(power)):
        raise NumericError(f"{what} leaves the double range: amplitude {amplitude!r}, power {power!r}")
    return AsymptoticForm(amplitude=amplitude, power=power, order=order, rate=rate)


def differentiate_form(form: AsymptoticForm, m: int) -> AsymptoticForm:
    """m-th derivative of the form: the exponential survives untouched while
    the amplitude gains (rate*order)^m and the power drops by m*(order+1);
    an amplitude or power beyond the double range raises NumericError."""
    _check_integer("m", m, 0)
    if m == 0:
        return form
    try:
        gain = (form.rate * form.order) ** m
    except OverflowError:
        gain = math.inf
    return _derived_form(
        "differentiate_form",
        amplitude=form.amplitude * gain,
        power=form.power - m * (form.order + 1.0),
        order=form.order,
        rate=form.rate,
    )


def abel_reduce(form: AsymptoticForm) -> AsymptoticForm:
    """Asymptotics of the Abel convolution
    int_0^r x^power exp(-rate x^(-order)) (r - x)^(-1/2) dx:
    amplitude gains sqrt(pi / (rate * order)) and the power rises by
    (order + 1)/2; an amplitude beyond the double range raises NumericError."""
    try:
        gain = math.sqrt(math.pi / (form.rate * form.order))
    except ZeroDivisionError:  # rate * order underflows
        gain = math.inf
    return _derived_form(
        "abel_reduce",
        amplitude=form.amplitude * gain,
        power=form.power + (form.order + 1.0) / 2.0,
        order=form.order,
        rate=form.rate,
    )


def green_rate(l: int) -> tuple[float, float]:
    """Decay order d and rate D of the squared-norm small-ball exponent for
    a Green process of differential order 2l:
    d = 1/(2l-1), D = (2d)^(-1) (2l sin(pi/(2l)))^(-d-1)."""
    _check_integer("green order l", l, 1)
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
    constants that overflow double precision, an amplitude C that
    underflows to 0, and a log C that sums infinite terms of both signs
    (theta far below 1 with delta near the double range) raise NumericError.
    """
    PowerLawPhi(theta, delta, d)
    try:
        log_gamma = math.lgamma(1.0 + delta)
    except OverflowError:  # past delta ~ 2.5e305, where C underflows anyway
        log_gamma = math.inf
    gamma = (2.0 - d - 2.0 * d * delta) / (2.0 * (d - 1.0))
    sin_pd = math.sin(math.pi / d)
    log_c = (
        (d / 4.0) * math.log(2.0 * math.pi)
        + (d * gamma / 2.0) * math.log(theta)
        + ((1.0 + gamma) / 2.0) * math.log(sin_pd)
        - 0.5 * math.log(d - 1.0)
        - (1.0 + gamma / 2.0) * math.log(math.pi / d)
        - (d / 2.0) * log_gamma
    )
    try:
        coef = (d - 1.0) / 2.0 * (math.pi / (d * theta * sin_pd)) ** (d / (d - 1.0))
        amplitude = math.exp(log_c)
    except OverflowError:
        raise NumericError(f"naznik constants overflow at theta={theta}, d={d}") from None
    if math.isnan(log_c):
        raise NumericError(f"naznik amplitude is undefined at theta={theta}, delta={delta}, d={d}: "
                           "log C sums infinite terms of both signs")
    if amplitude == 0.0:
        raise NumericError(f"naznik amplitude exp({log_c:.6g}) underflows at theta={theta}, delta={delta}, d={d}")
    return NazNikParams(gamma=gamma, amplitude=amplitude, exponent_coefficient=coef)


def naznik_asymptotic(theta: float, delta: float, d: float, eps: float) -> float:
    """log P{sum (theta(k+delta))^(-d) xi_k^2 < eps^2} per the explicit
    power-law asymptotics; an exponent eps^(-2/(d-1)) that overflows raises
    NumericError."""
    eps = _check_positive("eps", eps)
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
        for name in ("theta", "delta", "d"):
            value = _check_real(name, getattr(self, name), positive=name == "theta")
            object.__setattr__(self, name, value)
        if self.d <= 1:
            raise ValueError("d must exceed 1 for integrability")
        if self.delta <= -1:
            raise ValueError("delta must exceed -1")

    def __call__(self, t):
        return (self.theta * (t + self.delta)) ** (-self.d)


# The tilted integrals are I_j(u) = int_1^inf h_j(u phi(t)) dt with, for
# f(x) = (1 + 2x)^(-1/2), h0 = ln f, h1 = x (ln f)' and h2 = x^2 (ln f)''.
# x = u phi(t) maps [1, inf) onto (0, x1], x1 = u phi(1), and
# w = 2x / (1 + 2x) turns each into an incomplete beta function.

_LOG2 = math.log(2.0)
# the tilt solve stops on a Newton step below this in log u, or on a G
# within rounding of 0: G sums terms of size |log u| and |log r| and is
# known to a few ulp of them
_TILT_STEP_TOL = 1e-14
_G_FLOOR = 4.0 * sys.float_info.epsilon
# bisections alone narrow any bracket of doubles below 1e-14 in ~60 steps
_NEWTON_MAX = 100
_LOG_MAX = math.log(sys.float_info.max)


def _log_f(log_x: float) -> float:
    """ln f(x) = -ln(1 + 2x) / 2, with x given by its log: the softplus
    ln(1 + e^s), s = ln 2 + ln x, is taken so that no exponential overflows."""
    s = _LOG2 + log_x
    return -0.5 * (s + math.log1p(math.exp(-s)) if s > 0.0 else math.log1p(math.exp(s)))


def _betainc(p: float, q: float, x: float) -> float:
    """Regularized incomplete beta I_x(p, q) for 0 <= x <= 1/2 and p, q > 0,
    by the positive-term series (DLMF 8.17.8)

        I_x(p, q) = x^p (1-x)^q / (p B(p, q)) sum_k (p+q)_k / (p+1)_k x^k,

    summed until a term falls below 1e-17 of the sum.  The term ratio
    tends to x, so about 60 terms run at x = 1/2 and 6 at x = 1e-3.
    x = 0 gives 0.
    """
    term = total = 1.0
    k = 0.0
    while term > 1e-17 * total:
        term *= (p + q + k) / (p + 1.0 + k) * x
        total += term
        k += 1.0
    log_beta = math.lgamma(p) + math.lgamma(q) - math.lgamma(p + q)
    return x**p * math.exp(q * math.log1p(-x) - log_beta) / p * total


def _tilt_pass(phi: PowerLawPhi, log_u: float) -> tuple[float, float, float]:
    """(I0, I1, I2) at the tilt u = exp(log_u), in closed form.

    x = u phi(t) gives dt = -u^(1/d) x^(-1/d-1) dx / (d theta), and
    w = 2x / (1 + 2x) makes I1 and I2 regularized incomplete beta
    functions I_w1 of a = (d-1)/d and b = 1/d, w1 = 2 x1 / (1 + 2 x1):

        I1 = -P I_w1(a, b),   I2 = a P I_w1(a+1, b),
        P = u^(1/d) 2^(-a) pi / (d theta sin(pi a)),

    and I0 = d I1 - (1 + delta) ln f(x1) by parts.  Above w1 = 1/2 each
    I_w1(p, b) is taken as 1 - I_v1(b, p), v1 = 1 / (1 + 2 x1), so it
    keeps its precision as w1 -> 1; v1 = f(x1)^2 is read from ln f(x1) in
    logs, so it holds where x1 itself overflows.  Either way each I_x is
    read at x <= 1/2, where ``_betainc`` sums its series.  A P beyond
    double precision makes an integral that is not finite, which raises
    NumericError.
    """
    d = phi.d
    a = (d - 1.0) / d
    log_x1 = log_u - d * (math.log(phi.theta) + math.log1p(phi.delta))
    log_f1 = _log_f(log_x1)
    # exp(log_u / d) itself is finite for every finite u and d > 1
    p = math.exp(log_u / d) * (2.0 ** -a * math.pi / (d * phi.theta * math.sin(math.pi * a)))
    b = 1.0 / d
    if log_x1 <= -_LOG2:
        x1 = math.exp(log_x1)
        w1 = 2.0 * x1 / (1.0 + 2.0 * x1)
        beta = (_betainc(a, b, w1), _betainc(a + 1.0, b, w1))
    else:
        v1 = math.exp(2.0 * log_f1)
        beta = (1.0 - _betainc(b, a, v1), 1.0 - _betainc(b, a + 1.0, v1))
    i1 = -p * beta[0]
    out = (d * i1 - (1.0 + phi.delta) * log_f1, i1, a * p * beta[1])
    if not all(map(math.isfinite, out)):
        raise NumericError(f"tilted integral at log u = {log_u:.6g} overflows double precision")
    return out


def tilt_integrals(phi: PowerLawPhi, u: float) -> tuple[float, float, float]:
    """(I0, I1, I2) of the tilt u: I0 = int ln f(u phi), I1 = int u phi (ln f)',
    I2 = int (u phi)^2 (ln f)'', each int_1^inf dt, in closed form (see
    ``_tilt_pass``); integrals beyond double precision raise NumericError."""
    return _tilt_pass(phi, math.log(_check_positive("tilt u", u)))


def _solve_tilt(spec: PowerLawPhi, r: float) -> tuple[float, float]:
    """(log-probability without the prefactor C, tilt u) at the root u of
    I1(u) + u r = 0, with I1 and I2 from the last pass; see dll_root.

    I0 + u r = (d I1 + u r) - (1 + delta) ln f(x1), and d I1 and u r are
    each about |log P|; they are summed first, so that their cancellation
    is exact and nothing of that size is rounded before it.
    """
    r = _check_positive("r", r)
    d = spec.d
    try:
        mass = spec.theta ** (-d) * (1.0 + spec.delta) ** (1.0 - d) / (d - 1.0)
    except OverflowError:
        raise NumericError(f"dll_root: the mass of phi overflows at theta={spec.theta}") from None
    if r >= mass:
        raise ValueError(
            f"r = {r:g} must be below the mass of phi, int_1^inf phi = "
            f"theta^(-d) (1+delta)^(1-d) / (d-1) = {mass:.6g}"
        )
    log_r = math.log(r)
    log_theta = math.log(spec.theta)
    # G(z) = log(-I1) - z - log r decreases in z = log u.  u phi / (1 + 2 u
    # phi(1)) <= -h1(u phi) <= min(u phi, 1/2) bound -I1 by
    # u mass / (1 + 2 u phi(1)) and d (2u)^(1/d) / (2 theta (d-1)), so
    # G >= 0 at lo and G <= 0 at hi
    lo = math.log(mass - r) - log_r - _LOG2 + d * (log_theta + math.log1p(spec.delta))
    hi = (_LOG2 - d * (_LOG2 + log_theta + math.log(d - 1.0) - math.log(d) + log_r)) / (d - 1.0)
    if lo >= _LOG_MAX:
        raise NumericError("dll_root: the tilt u overflows double precision")
    capped = hi > _LOG_MAX
    hi = min(hi, _LOG_MAX)
    # the lower bound is within a factor 1 + 2 u phi(1) of -I1, at most 3
    # up to lo when r > mass / 3; start at the end whose bound is tighter
    z = lo if 3.0 * r > mass else hi
    for _ in range(_NEWTON_MAX):
        _, i1, i2 = _tilt_pass(spec, z)
        if not (i1 < 0.0 < i2):
            raise NumericError(f"dll_root: tilted integrals underflow at log u = {z:.6g}")
        g = math.log(-i1) - z - log_r
        if g > 0.0:
            if capped and z == hi:
                raise NumericError("dll_root: the tilt u overflows double precision")
            lo = z
        else:
            hi = z
        # dG/dz = -I2 / |I1|, in (-1, 0)
        step = -g * i1 / i2
        if abs(step) <= _TILT_STEP_TOL or abs(g) <= _G_FLOOR * (1.0 + abs(z) + abs(log_r)):
            break
        z_next = z + step
        if not lo < z_next < hi:
            z_next = 0.5 * (lo + hi)
            if not lo < z_next < hi:
                # the bracket holds no double but its ends: G's rounding
                # floor, a few ulp of z, is reached
                break
        z = z_next
    else:
        raise NumericError("dll_root: Newton iteration did not converge")
    if abs(math.expm1(g)) > 1e-10:
        raise NumericError(f"dll_root residual too large: {math.expm1(g):.3e} relative at log u = {z:.6e}")
    u = math.exp(z)
    log_f1 = _log_f(math.log(u) - d * (log_theta + math.log1p(spec.delta)))
    return (d * i1 + u * r) - (0.5 + spec.delta) * log_f1 - 0.5 * math.log(i2), u


def dll_root(spec: PowerLawPhi, r: float) -> float:
    """The tilt u(r) > 0 solving I1(u) + u r = 0.

    I1 is negative and sublinear in u while u r grows linearly, so the root
    exists for every r below the total mass
    int_1^inf phi = theta^(-d) (1 + delta)^(1-d) / (d - 1); r at or above it
    raises ValueError, and a mass that overflows raises NumericError.

    The root is that of G(z) = log(-I1) - z - log r in z = log u, which
    decreases with dG/dz = -I2 / |I1| in (-1, 0), so each safeguarded
    Newton step reads the closed-form I1 and I2 of one ``_tilt_pass``.  The
    bounds u mass / (1 + 2 u phi(1)) <= -I1 <= d (2u)^(1/d) / (2 theta
    (d-1)) give its bracket; the iteration starts at the tighter end, keeps
    the bracket, bisects it when a step would leave it, and stops on a step
    below 1e-14 in log u or on a G within rounding of 0 (2-8 passes on
    the catalog members).  The returned u is the last tilt evaluated.  A
    tilt or a tilted integral beyond double precision, or a relative
    residual |I1 + u r| / (u r) above 1e-10, raises NumericError.
    """
    return _solve_tilt(spec, r)[1]


@lru_cache(maxsize=1)
def dll_prefactor() -> float:
    """The constant C of the log-convex asymptotics, fixed by matching the
    explicit power-law route at the reference member theta=1, delta=0, d=2
    deep in its asymptotic regime (r = 1e-8).  Comes out ~0.367879, the
    Euler-Maclaurin companion of (2 pi)^(-1/2)."""
    ref = PowerLawPhi(theta=1.0, delta=0.0, d=2.0)
    r_cal = 1e-8
    uncal, _ = _solve_tilt(ref, r_cal)
    target = naznik_asymptotic(1.0, 0.0, 2.0, math.sqrt(r_cal))
    return math.exp(target - uncal)


def _dll_log_and_tilt(spec: PowerLawPhi, r: float) -> tuple[float, float]:
    """(dll_asymptotic(spec, r), dll_root(spec, r)) from one root solve."""
    uncal, u = _solve_tilt(spec, r)
    return math.log(dll_prefactor()) + uncal, u


def dll_asymptotic(spec: PowerLawPhi, r: float) -> float:
    """log P{sum phi(k) xi_k^2 <= r} via the tilted-integral asymptotics

        C sqrt(f(u phi(1)) / I2(u)) exp(I0(u) + u r),   f(x) = (1+2x)^(-1/2),

    with u = u(r) the root of I1(u) + u r = 0 (``dll_root``) and C the
    calibrated prefactor.  I0 + u r is formed as (d I1 + u r) - (1 + delta)
    ln f(u phi(1)), with I1 and I2 from the root solve's last pass, at the
    returned tilt, so the call makes no pass of its own."""
    return _dll_log_and_tilt(spec, r)[0]
