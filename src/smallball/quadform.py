"""Distribution of weighted chi-square forms sum_k mu_k xi_k^2.

Three evaluators with complementary ranges:

* ``cdf_gil_pelaez`` inverts the characteristic function; accurate for
  central probabilities (P >~ 1e-6) where it reaches ~1e-8 absolute.  The
  phase and amplitude of the characteristic function do not depend on r,
  so one t-grid serves every radius a call needs.
* ``cdf_saddlepoint`` is a Lugannani-Rice left-tail approximation on the
  exact cumulant generating function; returns log-probabilities reliably
  down to e^-10000 where inversion cancels catastrophically.  Its saddle
  comes from a safeguarded Newton iteration on K'(s) = r.
* ``cdf_monte_carlo`` is the brute-force check, deterministic for a fixed
  (seed, shard layout).

A weight sequence is a finite head plus a bound on the discarded tail sum.
The tail concentrates tightly around its mean (its variance is of higher
order), so the evaluators treat it as the deterministic shift
r -> r - tail_sum_bound and report the shift sensitivity
cdf(r) - cdf(r - tail_sum_bound) inside the error bound; Gil-Pelaez takes
both radii from the same inversion.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np
from scipy.integrate import quad  # noqa: F401  (benchmark/tracing.py counts calls to quadform.quad)
from scipy.optimize import brentq  # noqa: F401  (benchmark/tracing.py counts calls to quadform.brentq)
from scipy.special import log_ndtr, ndtr
from scipy.special import ndtri  # noqa: F401  (benchmark/tracing.py times calls to quadform.ndtri)

from .errors import NumericError, _check_integer, _check_positive

__all__ = [
    "WeightSeq",
    "ProbabilityEstimate",
    "cdf_gil_pelaez",
    "cdf_saddlepoint",
    "cdf_monte_carlo",
    "distortion_constant",
    "read_weights",
    "write_weights",
]

# the Monte Carlo sample budget is split over this many generator shards;
# the split fixes which generator draws which sample, so it is part of every
# seeded result
MC_SHARDS = 16

# elements per block in both samplers: a shard draws and reduces one block at
# a time, so each worker holds O(SAMPLER_BLOCK) floats whatever the shard size
SAMPLER_BLOCK = 1 << 17


@dataclass(frozen=True)
class WeightSeq:
    """Positive non-increasing weights mu_1..mu_N plus a tail descriptor.

    ``tail_sum_bound`` bounds sum_{k>N} mu_k for the discarded tail of an
    infinite sequence; zero means the sequence is exactly finite.
    """

    head: np.ndarray
    tail_sum_bound: float = 0.0
    label: str = ""

    def __post_init__(self):
        head = np.asarray(self.head, dtype=float).ravel()
        object.__setattr__(self, "head", head)
        if head.size == 0:
            raise ValueError("weight sequence must be non-empty")
        if not np.all(np.isfinite(head)):
            raise ValueError("weights must be finite")
        if not np.all(head > 0):
            raise ValueError("weights must be strictly positive")
        if np.any(np.diff(head) > 1e-12 * head[0]):
            raise ValueError("weights must be non-increasing")
        if not math.isfinite(self.tail_sum_bound):
            raise ValueError("tail_sum_bound must be finite")
        if self.tail_sum_bound < 0:
            raise ValueError("tail_sum_bound must be >= 0")

    @property
    def total(self) -> float:
        return float(self.head.sum())


@dataclass(frozen=True)
class ProbabilityEstimate:
    """Probability with a log-scale companion and an error estimate.

    ``log_value`` stays meaningful when ``value`` underflows to zero.
    """

    value: float
    log_value: float
    error_bound: float
    method: str


# ---------------------------------------------------------------------------
# Gil-Pelaez / Imhof inversion
# ---------------------------------------------------------------------------


def _imhof_parts(mu: np.ndarray, t):
    """Phase theta0(t) and amplitude log rho(t) of the characteristic
    function prod (1 - 2 i mu_k t)^(-1/2); t is a scalar or an array, and
    both results have its shape."""
    t = np.asarray(t, dtype=float)[..., None]
    theta = 0.5 * np.arctan(2.0 * mu * t).sum(axis=-1)
    log_rho = 0.25 * np.log1p(4.0 * mu * mu * t * t).sum(axis=-1)
    return theta, log_rho


# QUADPACK qk21: the 21-point Kronrod rule and its embedded 10-point Gauss
# rule on [-1, 1], as scipy's quad applies them in its first step
_XGK = np.array([
    0.995657163025808080735527280689003, 0.973906528517171720077964012084452,
    0.930157491355708226001207180059508, 0.865063366688984510732096688423493,
    0.780817726586416897063717578345042, 0.679409568299024406234327365114874,
    0.562757134668604683339000099272694, 0.433395394129247190799265943165784,
    0.294392862701460198131126603103866, 0.148874338981631210884826001129720,
    0.0,
])
_WGK = np.array([
    0.011694638867371874278064396062192, 0.032558162307964727478818972459390,
    0.054755896574351996031381300244580, 0.075039674810919952767043140916190,
    0.093125454583697605535065465083366, 0.109387158802297641899210590325805,
    0.123491976262065851077208980040215, 0.134709217311473325928054001771707,
    0.142775938577060080797094273138717, 0.147739104901338491374841515972068,
    0.149445554002916905664936468389821,
])
_WG = np.array([
    0.066671344308688137593568809893332, 0.149451349150580593145776339657697,
    0.219086362515982043995534934228163, 0.269266719309996355091226921569469,
    0.295524224714752870173892994651338,
])
# nodes -x_0 .. -x_9, 0, x_9 .. x_0; the Gauss nodes are x_1, x_3, .., x_9
_GK_NODES = np.concatenate([-_XGK[:-1], _XGK[::-1]])
_GK_WEIGHTS = np.concatenate([_WGK[:-1], _WGK[::-1]])
_G_WEIGHTS = np.zeros(21)
_G_WEIGHTS[1:10:2] = _WG
_G_WEIGHTS[11:20:2] = _WG[::-1]
# quad's default tolerances, which decide whether its first step is final
_QUAD_EPS = 1.49e-8
# elements of the (t, mu_k) outer product evaluated at once; this bounds each
# temporary at 512 KiB whatever the panel count
_BLOCK = 1 << 16
# passes that may halve a failing panel; the panel at t = 0 needs at most 5
_MAX_HALVINGS = 12
GIL_PELAEZ_TOL = 1e-9


def _integrate_panels(mu: np.ndarray, rs: np.ndarray, edges: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """For each radius r in ``rs``, the sum over the panels
    [edges[i], edges[i+1]] of int sin(theta0(t) - t r) / (t rho(t)) dt, and
    the sum of the error estimates.

    Each pass applies quad's first step, the 21-point Gauss-Kronrod rule
    with QUADPACK's error estimate, to all pending panels at once.  theta0
    and rho do not depend on r, so they are evaluated once per node and
    serve every radius.  A panel is accepted when it meets quad's default
    tolerances at every radius; the others, typically only the one at
    t = 0, are halved for the next pass, unless they were halved
    ``_MAX_HALVINGS`` times or the next pass would outgrow the first.  Then
    they are kept with their error estimates for the caller to judge.
    """
    a, b = edges[:-1], edges[1:]
    per_block = max(1, _BLOCK // (_GK_NODES.size * mu.size))
    r_col = rs[:, None, None]
    total = np.zeros(rs.size)
    err_sum = np.zeros(rs.size)
    halvings = 0
    while a.size:
        half = 0.5 * (b - a)
        nodes = 0.5 * (a + b)[:, None] + half[:, None] * _GK_NODES
        f = np.empty((rs.size,) + nodes.shape)
        for i in range(0, a.size, per_block):
            t = nodes[i:i + per_block]
            theta, log_rho = _imhof_parts(mu, t)
            f[:, i:i + per_block] = np.sin(theta - t * r_col) * np.exp(-log_rho) / t
        res_k = f @ _GK_WEIGHTS
        res_g = f @ _G_WEIGHTS
        res_abs = np.abs(f) @ _GK_WEIGHTS * half
        res_asc = np.abs(f - 0.5 * res_k[..., None]) @ _GK_WEIGHTS * half
        result = res_k * half
        err = np.abs(res_k - res_g) * half
        scaled = np.divide(200.0 * err, res_asc, out=np.ones_like(err), where=res_asc > 0)
        err = np.where((res_asc > 0) & (err > 0), res_asc * np.minimum(1.0, scaled**1.5), err)
        err = np.maximum(err, 50.0 * np.finfo(float).eps * res_abs)
        passed = ((err <= np.maximum(_QUAD_EPS, _QUAD_EPS * np.abs(result))) & (err != res_asc)) | (err == 0)
        done = passed.all(axis=0)
        if halvings == _MAX_HALVINGS or 2 * np.count_nonzero(~done) > edges.size - 1:
            done[:] = True
        total += result[:, done].sum(axis=1)
        err_sum += err[:, done].sum(axis=1)
        a, b = a[~done], b[~done]
        mid = 0.5 * (a + b)
        a, b = np.concatenate([a, mid]), np.concatenate([mid, b])
        halvings += 1
    return total, err_sum


def cdf_gil_pelaez(w: WeightSeq, r: float) -> ProbabilityEstimate:
    """P{sum mu_k xi_k^2 < r} by numerical inversion of the characteristic
    function:

        F(r) = 1/2 - (1/pi) int_0^inf sin(theta0(t) - t r) / (t rho(t)) dt.

    The integral is cut where an integration-by-parts estimate of the
    remainder drops below ``GIL_PELAEZ_TOL``, and that first by-parts term
    is added back.  With a tail, F(r - tail_sum_bound) and the shift bound
    F(r) come from one inversion on a shared t-grid, both at
    ``GIL_PELAEZ_TOL``.  Intended for central probabilities; the deep left
    tail belongs to ``cdf_saddlepoint``.
    """
    r = _check_positive("r", r)
    tail = w.tail_sum_bound
    r_eff = r - tail
    # the error of treating the tail as a deterministic shift is cdf(r) -
    # cdf(r - tail_sum_bound), and the main value is 0 if r_eff <= 0
    rs = [r_eff, r] if tail > 0 and r_eff > 0 else [r]
    values, errs = _gp_values(w.head, np.array(rs))
    value, err = (float(values[0]), float(errs[0])) if r_eff > 0 else (0.0, 0.0)
    if tail > 0:
        err += max(float(values[-1]) - value, 0.0)
    value_c = min(max(value, 0.0), 1.0)
    log_value = math.log(value_c) if value_c > 0 else -np.inf
    return ProbabilityEstimate(value_c, log_value, err, "gil_pelaez")


def _gp_values(mu: np.ndarray, rs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """F(r) and its error bound at each radius in ``rs``, from one t-grid at
    ``GIL_PELAEZ_TOL``: T is cut for the smallest radius, the strictest,
    and the panels are sized for the largest, which oscillates most."""
    n = mu.size
    # P{Q < r} <= prod_j P{mu_j xi_j^2 < r} <= prod_j sqrt(2r/(pi mu_j));
    # where that bound is already negligible, skip the oscillatory integral
    log_bound = (0.5 * np.cumsum(np.log(2.0 * rs[:, None] / (np.pi * mu)), axis=1)).min(axis=1)
    values, errs = np.zeros(rs.size), np.exp(log_bound)
    live = log_bound >= math.log(1e-14)
    if not live.any():
        return values, errs
    rs = rs[live]

    def theta_slope(t):
        return float(np.sum(mu / (1.0 + 4.0 * mu * mu * t * t)))

    # truncation point: after one integration by parts the remainder is
    # O((|g'| + g * theta0') / r^2) with g = 1 / (t rho); expand T until
    # that is small
    r_min = float(rs.min())
    T = 10.0 / mu[0]
    while T < 1e15:
        theta_T, log_rho_T = _imhof_parts(mu, T)
        g_T = math.exp(-log_rho_T) / T
        resid_num = (1.0 + 0.5 * n) * g_T / T + g_T * theta_slope(T)
        if resid_num / (r_min * r_min) <= 0.5 * GIL_PELAEZ_TOL:
            break
        T *= 1.6
    else:
        raise NumericError("gil_pelaez: could not find a truncation point")
    n_osc = (theta_T + T * float(rs.max())) / (2.0 * math.pi)
    if n_osc > 50000:
        raise NumericError(
            f"gil_pelaez: integrand oscillates {n_osc:.0f} times before decay; "
            "this regime belongs to cdf_saddlepoint"
        )
    n_panels = int(max(1.5 * n_osc, 20.0))
    edges = np.linspace(0.0, T, n_panels + 1)
    total, err = _integrate_panels(mu, rs, edges)
    # leading by-parts term of the cut tail
    slope_T = rs - theta_slope(T)
    total += g_T * np.cos(theta_T - T * rs) / slope_T
    err += np.abs(resid_num / (slope_T * slope_T))
    if err.max() > max(100.0 * GIL_PELAEZ_TOL, 1e-6):
        raise NumericError(f"gil_pelaez inversion did not converge (err={err.max():.2e})")
    values[live] = 0.5 - total / math.pi
    errs[live] = err
    return values, errs


# ---------------------------------------------------------------------------
# Saddlepoint (Lugannani-Rice) left tail
# ---------------------------------------------------------------------------


def _cgf(s: float, mu: np.ndarray) -> float:
    return -0.5 * float(np.sum(np.log1p(-2.0 * s * mu)))


def _cgf12(s: float, mu: np.ndarray) -> tuple[float, float]:
    """K'(s) and K''(s) from one pass over the weights."""
    a = mu / (1.0 - 2.0 * s * mu)
    return float(a.sum()), 2.0 * float(a @ a)


def _cgf3(s: float, mu: np.ndarray) -> float:
    return float(np.sum(8.0 * mu**3 / (1.0 - 2.0 * s * mu) ** 3))


def cdf_saddlepoint(w: WeightSeq, r: float) -> ProbabilityEstimate:
    """Lugannani-Rice approximation of P{sum mu_k xi_k^2 < r} in the left
    tail r < sum mu_k.

    The saddle s(r) < 0 solves K'(s) = r for the exact cumulant generating
    function K(s) = -1/2 sum log(1 - 2 s mu_k); the tilt exists for every
    0 < r < sum mu_k, and ``_solve_saddle`` finds it by a safeguarded Newton
    iteration.  Near the mean the 1/w - 1/u cancellation is replaced by its
    limit K'''/(6 K''^{3/2}).
    """
    r = _check_positive("r", r)
    mu = w.head
    r_eff = r - w.tail_sum_bound
    if r_eff <= 0:
        return ProbabilityEstimate(0.0, -np.inf, 0.0, "saddlepoint")
    s, k2 = _solve_saddle(mu, r_eff)
    log_value, w_hat = _lr_logcdf(mu, r_eff, s, k2)
    # relative accuracy of LR is O(1/w^2); quote it through the saddle scale
    rel = 1.0 / max(w_hat * w_hat, 1.0)
    value = math.exp(log_value) if log_value > -700 else 0.0
    err = value * rel
    if w.tail_sum_bound > 0:
        # local log-slope of the CDF is the tilt |s|, so the shift moves the
        # value by at most a factor 1 - exp(-|s| tail)
        err += value * min(1.0, -math.expm1(-abs(s) * w.tail_sum_bound))
    return ProbabilityEstimate(value, log_value, err, "saddlepoint")


def _solve_saddle(mu: np.ndarray, r: float) -> tuple[float, float]:
    """Root s of K'(s) = r on the CGF domain (-inf, 1/(2 mu_1)), and K''
    from the last pass.  K' is increasing from 0 to +inf there, so every
    r > 0 has a unique tilt.

    Newton's method runs on log K' = log r in the one variable
    y = -log(1 - 2 mu_1 s), which maps the whole domain onto the real line,
    s < 0 onto y < 0, and in which log K' is close to linear in both deep
    tails.  Each step reads K' and K'' from one pass over the weights.
    Since K'(0) e^-y <= K'(s) <= N / (-2 s) below the mean and
    mu_1 e^y <= K'(s) <= K'(0) e^y above it, the iteration starts at
    y = log(r / K'(0)) and keeps a sign bracket whose other end is
    -log1p(mu_1 N / r) below the mean and log(r / mu_1) above it; a step
    that would leave the bracket bisects it.  The iteration stops, and
    returns s moved by the step, once that step moves s by less than 1e-12
    relative or K'(s) matches r to 1e-14 relative.  The second test is the
    rounding floor within about 1e-4 of the mean, where s is too small for
    the first.  Both come before the bracket test, so a step at the
    rounding floor ends the iteration instead of starting bisections.  Far
    enough in the left tail K'' underflows to zero (r <= 1e-160 on 2000
    weights mu_k = 1/(pi k)^2) and the step is undefined; that raises
    NumericError, as does a bracket end where 1 - 2 mu_1 s passes exp(700)
    (r <= 1e-302 on those weights).  So does the right tail once y passes
    about -log(eps) (r >= 6e14 on those weights), where s rounds onto the
    pole 1/(2 mu_1); it raises before the pass there.
    """
    k1 = float(mu.sum())
    edge = -math.log1p(float(mu[0]) * mu.size / r) if r < k1 else math.log(r / mu[0])
    if edge < -700.0:
        raise NumericError(
            f"saddle equation: r = {r:.6g} is so far below the mean that 1 - 2 mu_1 s overflows"
        )

    def to_s(y):
        # beyond y ~ -log(eps), s rounds onto the pole, where K' is infinite
        s = -math.expm1(-y) / (2.0 * mu[0])
        if 2.0 * s * mu[0] >= 1.0:
            raise NumericError(
                f"saddle equation: r = {r:.6g} is so far above the mean that s rounds "
                f"onto the pole 1/(2 mu_1) = {0.5 / mu[0]:.6g}"
            )
        return s

    # g = log(K'(s) / r) increases through its root on [lo, hi]
    y = math.log(r / k1)
    lo, hi = min(y, edge), max(y, edge)
    for _ in range(200):
        s = to_s(y)
        k1, k2 = _cgf12(s, mu)
        if k2 == 0.0:
            raise NumericError(f"saddle equation: K'' underflows at s = {s:.3e}")
        g = math.log(k1 / r)
        if g < 0.0:
            lo = y
        else:
            hi = y
        ds_dy = 0.5 / mu[0] - s
        step = -g * k1 / (k2 * ds_dy)
        if abs(g) <= 1e-14 or abs(step * ds_dy) <= 1e-12 * abs(s):
            return to_s(y + step), k2
        y = y + step if lo < y + step < hi else 0.5 * (lo + hi)
    raise NumericError("saddle equation: Newton iteration did not converge")


_LOG_SQRT_2PI = math.log(math.sqrt(2.0 * math.pi))


def _norm_pdf(z):
    return np.exp(-0.5 * z * z) / math.sqrt(2.0 * math.pi)


def _lr_logcdf(mu: np.ndarray, r: float, s: float, k2: float) -> tuple[float, float]:
    """Lugannani-Rice log P{Q < r} at the saddle s and its K''(s) = k2, both
    from _solve_saddle(mu, r), and the signed root
    w_hat = sign(s) sqrt(2 (s r - K(s)))."""
    k0 = _cgf(s, mu)
    arg = 2.0 * (s * r - k0)
    w_hat = math.copysign(math.sqrt(max(arg, 0.0)), s)
    if abs(w_hat) < 1e-5:
        # limiting form at the mean
        corr = _cgf3(s, mu) / (6.0 * k2**1.5)
        p = ndtr(w_hat) + _norm_pdf(w_hat) * corr
        return math.log(p), w_hat
    u_hat = s * math.sqrt(k2)
    term = 1.0 / w_hat - 1.0 / u_hat
    log_phi_part = log_ndtr(w_hat)
    if term == 0.0:
        return log_phi_part, w_hat
    log_term = -0.5 * w_hat * w_hat - _LOG_SQRT_2PI + math.log(abs(term))
    if term > 0:
        return float(np.logaddexp(log_phi_part, log_term)), w_hat
    if log_term >= log_phi_part:
        raise NumericError("Lugannani-Rice correction exceeded the leading term")
    return log_phi_part + math.log1p(-math.exp(log_term - log_phi_part)), w_hat


# ---------------------------------------------------------------------------
# Monte Carlo
# ---------------------------------------------------------------------------


def _worker_count(shards: int) -> int:
    """Threads for a sharded map: SMALLBALL_THREADS if set, else the cores
    this process may run on; never more than the shard count."""
    raw = os.environ.get("SMALLBALL_THREADS", "")
    if raw:
        workers = int(raw) if raw.isdecimal() else 0
        if workers < 1:
            raise ValueError(f"SMALLBALL_THREADS must be a positive integer, got '{raw}'")
    elif hasattr(os, "sched_getaffinity"):
        workers = len(os.sched_getaffinity(0))
    else:
        workers = os.cpu_count() or 1
    return min(workers, shards)


def _sharded_map(fn, seed: int, sizes: list[int]) -> list:
    """[fn(rng_j, sizes[j]) for each shard j], in shard order.

    Shard j draws from PCG64(SeedSequence(entropy=seed, spawn_key=(j,))),
    so its result depends only on (seed, j, sizes[j]).  The shards run on a
    pool of ``_worker_count`` threads, or in the calling thread when that is
    1.  Either way the output is the same.
    """

    def shard(j):
        rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(entropy=seed, spawn_key=(j,))))
        return fn(rng, sizes[j])

    workers = _worker_count(len(sizes))
    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            return list(pool.map(shard, range(len(sizes))))
    return [shard(j) for j in range(len(sizes))]


def cdf_monte_carlo(w: WeightSeq, r: float, n_samples: int, seed: int) -> ProbabilityEstimate:
    """Empirical P{sum mu_k xi_k^2 < r} over ``n_samples`` draws, with the
    tail as the shift r -> r - tail_sum_bound.

    The error bound is three binomial standard errors plus the shift
    sensitivity, the fraction of the same draws that falls in
    [r - tail_sum_bound, r).  Results are bitwise reproducible for a fixed
    seed: the sample budget is split as evenly as possible across
    ``MC_SHARDS`` shards (earlier shards take the remainder), each shard
    draws normals with ``Generator.standard_normal`` (the ziggurat) from
    its own spawned generator, and the shard counts are integers, so the
    thread count does not change the result.
    """
    _check_integer("n_samples", n_samples, 1)
    _check_integer("seed", seed, 0)
    r = _check_positive("r", r)
    threshold = r - w.tail_sum_bound
    mu = w.head
    block = max(1, SAMPLER_BLOCK // mu.size)

    def count_below(rng, n):
        below = below_r = 0
        for done in range(0, n, block):
            xi = rng.standard_normal((min(block, n - done), mu.size))
            q = (xi * xi) @ mu
            below += int(np.count_nonzero(q < threshold))
            below_r += int(np.count_nonzero(q < r))
        return below, below_r

    base, rem = divmod(n_samples, MC_SHARDS)
    counts = _sharded_map(count_below, seed, [base + (j < rem) for j in range(MC_SHARDS)])
    count, count_r = (sum(c) for c in zip(*counts))
    value = count / n_samples
    se = math.sqrt(max(value * (1.0 - value), 1.0 / n_samples) / n_samples)
    log_value = math.log(value) if value > 0 else -np.inf
    return ProbabilityEstimate(value, log_value, 3.0 * se + (count_r - count) / n_samples, "monte_carlo")


# ---------------------------------------------------------------------------
# Li comparison constant
# ---------------------------------------------------------------------------

DISTORTION_MAX_LOG_DRIFT = 0.05


def distortion_constant(w_num: WeightSeq, w_den: WeightSeq) -> float:
    """The comparison constant (prod_k num_k / den_k)^(1/2).

    Sequences are paired index by index over the shorter head.  Convergence
    is judged by the drift |log-product(N) - log-product(N/2)|; a drift above
    ``DISTORTION_MAX_LOG_DRIFT`` signals a divergent product (the excluded
    case of the comparison principle, e.g. num = c * den with c != 1) and
    raises.
    """
    n = min(w_num.head.size, w_den.head.size)
    if n < 2:
        raise ValueError("need at least two paired weights")
    full, drift = _log_product_drift(w_num.head[:n], w_den.head[:n])
    if drift > DISTORTION_MAX_LOG_DRIFT:
        raise NumericError(
            f"distortion product has not converged (drift {drift:.3e} over "
            f"N={n} vs N//2); the infinite product likely diverges"
        )
    return math.exp(0.5 * full)


def _log_product_drift(num: np.ndarray, den: np.ndarray) -> tuple[float, float]:
    """log prod_k num_k / den_k over the N paired entries, and its drift
    |log-product(N) - log-product(N//2)|, the convergence diagnostic."""
    log_ratio = np.log(num) - np.log(den)
    full = float(log_ratio.sum())
    return full, abs(full - float(log_ratio[: log_ratio.size // 2].sum()))


# ---------------------------------------------------------------------------
# CSV weight files
# ---------------------------------------------------------------------------


def read_weights(path) -> WeightSeq:
    """Weight file: one mu per line; optional '# tail_sum_bound=...' header
    comment; other '#' lines ignored."""
    tail = 0.0
    label = ""
    values = []
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            if line.startswith("#"):
                body = line[1:].strip()
                if body.startswith("tail_sum_bound="):
                    tail = float(body.split("=", 1)[1])
                elif body.startswith("label="):
                    label = body.split("=", 1)[1]
                continue
            values.append(float(line))
    return WeightSeq(head=np.array(values), tail_sum_bound=tail, label=label)


def write_weights(path, w: WeightSeq) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        if w.label:
            fh.write(f"# label={w.label}\n")
        if w.tail_sum_bound:
            fh.write(f"# tail_sum_bound={float(w.tail_sum_bound)!r}\n")
        for mu in w.head:
            fh.write(f"{float(mu)!r}\n")
