"""Distribution of weighted chi-square forms sum_k mu_k xi_k^2.

Three evaluators with complementary ranges:

* ``cdf_gil_pelaez`` inverts the characteristic function by Davies's
  midpoint rule, with a rigorous absolute error bound, about 1e-9 on long
  heads; for central probabilities.  The phase and amplitude of the
  characteristic function do not depend on r, so one grid serves every
  radius; the weight sequence's evaluator grows it geometrically up to its
  convexity cut and keeps their values at its nodes for later calls.
* ``cdf_saddlepoint`` is a Lugannani-Rice left-tail approximation on the
  exact cumulant generating function; returns log-probabilities reliably
  down to e^-10000 where inversion cancels catastrophically.  Its saddle
  comes from a safeguarded Newton iteration on K'(s) = r, and its normal
  CDF and log-CDF from ``math.erfc`` and the Mills-ratio series.
* ``cdf_monte_carlo`` is the brute-force check, deterministic for a fixed
  (seed, shard layout).  It draws each sample's normals one column chunk of
  the weights at a time and stops once the partial sum reaches r: the terms
  are non-negative, so the sample's indicator is then fixed, and in the left
  tail most samples draw a few dozen normals instead of one per weight.

A weight sequence is a finite head plus a bound tau = tail_sum_bound on
the discarded tail sum.  The tail concentrates tightly around its mean (its
variance is of higher order), so the evaluators treat it as a shift of at
most tau, which puts P{Q < r} in [F(r - tau), F(r)], F the head's CDF.  All
three follow one rule: the value is F(r - tau), 0 for r <= tau, and the
error bound reaches from it up to F(r).  Gil-Pelaez inverts both radii on
the same grid and bounds that rise rigorously, the saddlepoint estimates it
from the tilt at r - tau, and the Monte Carlo counts its draws in
[r - tau, r).

Inversion and saddlepoint read their weight sums from one evaluator per
``WeightSeq``, built on first use.  The phase theta0(t), the amplitude
log rho(t) and the cumulant generating function K(s) with its first three
derivatives are each a sum over k of f(2 x mu_k), x = t or s.  The weights
with 2 |x| mu_k <= 1/2, the small ones, are summed by the Taylor series of
f truncated after the 75th power, through power sums of the weights stored
at about four split points per octave of the index; the truncation error
is below 1e-17 relative.  Only the leading weights are summed term by
term, so an evaluation costs about one transcendental per leading weight
instead of one per weight.
"""

from __future__ import annotations

import math
import os
import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

from .errors import NumericError, _check_array, _check_integer, _check_positive

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


# names benchmark/tracing.py wraps while it records; no library path calls
# them; deleted with ROADMAP item 1
quad = brentq = ndtri = None


# the Monte Carlo sample budget is split over this many generator shards;
# the split fixes which generator draws which sample, so it is part of every
# seeded result
MC_SHARDS = 16

# elements per block in both samplers: a shard allocates one block buffer at
# its start and draws, transforms and reduces every block in it, so each
# worker holds one block of SAMPLER_BLOCK floats (two for the location-scale
# omega^2 fit) whatever the shard size
SAMPLER_BLOCK = 1 << 17

# the Monte Carlo draws a row block's normals by column chunks of the
# weights: the first chunk is MC_FIRST_CHUNK wide, each later one twice as
# wide as the one before, and a row block holds SAMPLER_BLOCK // (widest
# chunk) samples, at most MC_ROWS; like MC_SHARDS these fix which normal
# meets which weight, so they are part of every seeded result
MC_FIRST_CHUNK = 16
MC_ROWS = 4096


@dataclass(frozen=True, eq=False)
class WeightSeq:
    """Positive non-increasing weights mu_1..mu_N plus a tail descriptor.

    ``tail_sum_bound`` bounds sum_{k>N} mu_k for the discarded tail of an
    infinite sequence; zero means the sequence is exactly finite.  ``head``
    is a read-only copy, so no caller can change it after the checks or
    under the power sums its evaluator stores on first use.
    """

    head: np.ndarray
    tail_sum_bound: float = 0.0
    label: str = ""

    def __post_init__(self):
        head = _check_array("head", self.head, (None,)).copy()
        if not np.all(head > 0):
            raise ValueError("head must be strictly positive")
        if np.any(np.diff(head) > 1e-12 * head[0]):
            raise ValueError("head must be non-increasing")
        if self.tail_sum_bound != 0:
            object.__setattr__(self, "tail_sum_bound", _check_positive("tail_sum_bound", self.tail_sum_bound))
        head.flags.writeable = False
        object.__setattr__(self, "head", head)

    @property
    def total(self) -> float:
        return float(self.head.sum())

    @cached_property
    def _evaluator(self) -> "_Evaluator":
        return _Evaluator(self.head)


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
# Power-sum evaluator of the characteristic function and the CGF
# ---------------------------------------------------------------------------

# Every weight sum the evaluators read is sum_k f(2 x mu_k) for one argument
# x: t for theta0 and log rho, s for K and its derivatives.  A term with
# |2 x mu_k| <= _SERIES_DELTA = d is summed by the Taylor series of f up to
# the power _SERIES_POWERS = P, through stored power sums of the weights;
# the leading weights, where 2 |x| mu_k > d, are summed directly.  The
# slowest series is K''' = 8 sum mu^3 (1 - u)^-3 = 8 sum mu^3 sum_j
# C(j+2, 2) u^j with u = 2 s mu, which keeps j <= P - 3.  For |u| <= d the
# dropped part is at most C(P, 2) d^(P-2) / (1 - d)^3 of 8 mu^3, and the
# term is at least 8 mu^3 / (1 + d)^3, so the relative truncation error is
# at most C(P, 2) d^(P-2) ((1 + d) / (1 - d))^3 = 2775 * 2^-73 * 27 =
# 7.9e-18.  K'' and K' keep one and two more powers, and K, theta0 and
# log rho have smaller coefficients, so their bounds are smaller still.
# The terms of each sum share one sign, so each bound holds for the sum as
# well.
_SERIES_DELTA = 0.5
_SERIES_POWERS = 75
# split points per octave of the weight index: the directly summed part
# has at most 2^(1/4), about 1.19 times, the terms it needs, plus one
_SPLITS_PER_OCTAVE = 4
# elements of the scratch buffer of one evaluator call: 512 KiB whatever
# the weight or node count
_BLOCK = 1 << 16


class _Evaluator:
    """theta0 and log rho of the characteristic function, and K, K', K''
    and K''' of the cumulant generating function, of one weight sequence.

    The split points K_0 = 0 < K_1 < .. < K_L = N grow by a factor of about
    2^(1/_SPLITS_PER_OCTAVE).  For each one the power sums
    R_p = sum_{k >= K} (mu_k / S)^p, p = 0.._SERIES_POWERS, are stored on
    the scale S, the power of two in (M/2, M] of the suffix maximum
    M = max_{k >= K} mu_k (the weights may rise by 1e-12 mu_1).  An argument
    x reads the first split point where 2 |x| M <= _SERIES_DELTA: the
    series in z = 2 x S there covers the suffix, and the weights before it
    are summed directly in one scratch buffer.  The table has L + 1, about
    4 log2 N, rows.  R_1 at K = 0 is the weight total scaled exactly, so
    K'(0) is ``WeightSeq.total`` bit for bit.

    Gil-Pelaez keeps one more datum of the sequence, built on its first
    inversion: the midpoint grid, theta0 and g = 1 / ((k + 1/2) rho) on a
    prefix of its nodes (``_Grid``).  The grid does not depend on the
    radius, so every later inversion reads it, and the prefix grows until
    it holds the convexity cut; it is kept as long as the sequence is.
    Threads may share an evaluator: two that grow the grid at once both
    compute it, and the longer copy is kept.
    """

    def __init__(self, mu: np.ndarray):
        n, top = mu.size, _SERIES_POWERS
        self.mu = mu
        self.total = float(mu.sum())
        steps = np.floor(2.0 ** (np.arange(_SPLITS_PER_OCTAVE * math.log2(n) + 1) / _SPLITS_PER_OCTAVE))
        steps = np.unique(steps.astype(np.intp))
        self._split = np.concatenate([[0], steps[steps < n], [n]])
        suffix_max = np.maximum.accumulate(np.maximum.reduceat(mu, self._split[:-1])[::-1])[::-1]
        self._limit = np.append(_SERIES_DELTA / (2.0 * suffix_max), np.inf)
        self._scale = np.append(np.ldexp(1.0, np.frexp(suffix_max)[1] - 1), 0.0)
        p = np.arange(top + 1)
        sums = np.zeros((self._split.size, top + 1))
        for j in range(self._split.size - 2, -1, -1):
            x = mu[self._split[j]:self._split[j + 1]] / self._scale[j]
            sums[j] = _power_sums(x, top) + sums[j + 1] * (self._scale[j + 1] / self._scale[j]) ** p
        sums[0, 1] = self.total / self._scale[0]

        def shifted(q):  # R_{p+q} in column p
            out = np.zeros_like(sums)
            out[:, : top + 1 - q] = sums[:, q:]
            return out

        inv = 1.0 / np.maximum(p, 1)
        odd, even = p % 2 == 1, (p % 2 == 0) & (p > 0)
        # theta0 = 1/2 sum arctan z_k and log rho = 1/4 sum log1p(z_k^2), z_k = 2 t mu_k
        self._phase_coef = np.stack(
            [
                np.where(odd, 0.5 * (-1.0) ** (p // 2) * inv, 0.0) * sums,
                np.where(even, 0.5 * (-1.0) ** (p // 2 + 1) * inv, 0.0) * sums,
            ],
            axis=1,
        )
        # K = 1/2 sum z^p R_p / p, K' / S, K'' / S^2 and K''' / S^3 with z = 2 s S
        self._cgf_coef = np.stack(
            [0.5 * (p > 0) * inv * sums, shifted(1), 2.0 * (p + 1) * shifted(2), 4.0 * (p + 1) * (p + 2) * shifted(3)],
            axis=1,
        )
        self._grid: _Grid | None = None

    def _at(self, x: float) -> tuple[int, int, np.ndarray]:
        """Split level j of the scalar x, its split point, and z^0 .. z^P
        for z = 2 x S_j."""
        j = int(np.searchsorted(self._limit, abs(x)))
        powers = np.full(_SERIES_POWERS + 1, 2.0 * x * self._scale[j])
        powers[0] = 1.0
        return j, int(self._split[j]), np.cumprod(powers, out=powers)

    def phase(self, t: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """theta0(t) = 1/2 sum arctan(2 mu_k t) and
        log rho(t) = 1/4 sum log1p(4 mu_k^2 t^2) at every t of a non-empty
        one-dimensional array of ascending t >= 0.

        Ascending arguments have ascending split levels.  The series part
        takes the powers of every z = 2 t S at once and one product with
        each level's row of power sums; the direct part takes each level's
        leading weights.  Both work in blocks of one scratch buffer."""
        ts = np.asarray(t, dtype=float)
        level = np.searchsorted(self._limit, ts)
        starts = np.searchsorted(level, np.arange(self._split.size + 1))
        groups = np.flatnonzero(np.diff(starts))
        out = np.empty((2, ts.size))
        buf = np.empty(max(_BLOCK, 2 * int(self._split[groups[-1]])))
        cols = buf.size // (_SERIES_POWERS + 1)
        for i in range(0, ts.size, cols):
            e = min(i + cols, ts.size)
            powers = buf[: (_SERIES_POWERS + 1) * (e - i)].reshape(_SERIES_POWERS + 1, e - i)
            np.multiply(ts[i:e], 2.0 * self._scale[level[i:e]], out=powers[1])
            _fill_powers(powers)
            for j in groups:
                lo, hi = max(starts[j], i), min(starts[j + 1], e)
                if lo < hi:
                    out[:, lo:hi] = self._phase_coef[j] @ powers[:, lo - i : hi - i]
        for j in groups[self._split[groups] > 0]:
            k = int(self._split[j])
            rows = buf.size // (2 * k)
            for lo in range(starts[j], starts[j + 1], rows):
                hi = min(lo + rows, starts[j + 1])
                z = buf[: (hi - lo) * k].reshape(hi - lo, k)
                z2 = buf[(hi - lo) * k : 2 * (hi - lo) * k].reshape(hi - lo, k)
                np.multiply((2.0 * ts[lo:hi])[:, None], self.mu[:k], out=z)
                np.square(z, out=z2)
                out[0, lo:hi] += 0.5 * np.arctan(z, out=z).sum(axis=1)
                out[1, lo:hi] += 0.25 * np.log1p(z2, out=z2).sum(axis=1)
        return out[0], out[1]

    def _tilted(self, s: float, k: int) -> np.ndarray:
        """mu_k / (1 - 2 s mu_k) over the leading k weights, in one array."""
        a = np.multiply(self.mu[:k], -2.0 * s)
        a += 1.0
        return np.divide(self.mu[:k], a, out=a)

    def cgf(self, s: float) -> float:
        """K(s) = -1/2 sum log1p(-2 s mu_k)."""
        j, k, powers = self._at(s)
        u = np.multiply(self.mu[:k], -2.0 * s)
        return -0.5 * float(np.log1p(u, out=u).sum()) + float(self._cgf_coef[j, 0] @ powers)

    def cgf12(self, s: float) -> tuple[float, float]:
        """K'(s) = sum a_k and K''(s) = 2 sum a_k^2, a_k = mu_k / (1 - 2 s mu_k),
        from one pass over the leading weights."""
        j, k, powers = self._at(s)
        a = self._tilted(s, k)
        c1, c2 = self._cgf_coef[j, 1:3] @ powers
        scale = self._scale[j]
        return float(a.sum()) + scale * c1, 2.0 * float(a @ a) + scale * (scale * c2)

    def cgf3(self, s: float) -> float:
        """K'''(s) = 8 sum a_k^3."""
        j, k, powers = self._at(s)
        a = self._tilted(s, k)
        scale = self._scale[j]
        return 8.0 * float((a * a) @ a) + scale * (scale * (scale * float(self._cgf_coef[j, 3] @ powers)))


def _fill_powers(powers: np.ndarray) -> np.ndarray:
    """Rows z^0, z^1, .. of ``powers``, whose row 1 holds z on entry; each
    doubling step multiplies the rows it has by the next power of z."""
    powers[0] = 1.0
    have = 2
    while have < powers.shape[0]:
        m = min(have, powers.shape[0] - have)
        np.multiply(powers[:m], powers[have - 1] * powers[1], out=powers[have : have + m])
        have += m
    return powers


def _power_sums(x: np.ndarray, top: int) -> np.ndarray:
    """sum_k x_k^p for p = 0..top, in blocks of at most _BLOCK powers."""
    out = np.zeros(top + 1)
    cols = max(1, _BLOCK // (top + 1))
    for i in range(0, x.size, cols):
        powers = np.empty((top + 1, min(cols, x.size - i)))
        powers[1] = x[i : i + cols]
        out += _fill_powers(powers).sum(axis=1)
    return out


# ---------------------------------------------------------------------------
# Gil-Pelaez / Imhof inversion by Davies's midpoint rule
# ---------------------------------------------------------------------------

GIL_PELAEZ_TOL = 1e-9
# a grid keeps at most this many nodes, 16 MiB; a radius whose truncation
# bound has not met its share there is left to the convergence check
_MAX_NODES = 1 << 20
# nodes of a new grid and the factor of each growth, from paired cold-call
# timings: 1,024 nodes hold the Durbin limits' cuts, and 1.45 reaches those
# of 300 bridge and Wiener weights in one and four growths, just past each
_FIRST_NODES = 1 << 10
_GROWTH = 1.45
# relative accuracy of theta0 and log rho from the evaluator, which
# TestEvaluator checks against exactly rounded sums
_PHASE_RTOL = 1e-14
_EPS = math.ulp(1.0)


@dataclass(frozen=True, eq=False)
class _Grid:
    """Davies's midpoint grid u_k = (k + 1/2) ``step`` of one weight
    sequence, and theta0(u_k) and g_k = 1 / ((k + 1/2) rho(u_k)) on a
    prefix of its nodes.

    ``period`` L = 2 pi / step puts P{Q > L} <= exp(K(s) - s L) at a
    quarter of GIL_PELAEZ_TOL for the ``tilt`` s, whose K(s) is ``cgf``.
    ``cut`` is the convexity cut, the first node K whose bound on the
    dropped terms from the convexity of log rho, taken through the chord
    from node K - 1, meets half of GIL_PELAEZ_TOL; it is None until the
    prefix holds node K + 1."""

    step: float
    period: float
    tilt: float
    cgf: float
    cut: int | None
    theta: np.ndarray
    g: np.ndarray


def _convexity_bound(k: np.ndarray, log_rho: np.ndarray) -> np.ndarray:
    """Bounds on the sum of g_j over j > k[i], from log rho at the increasing
    node indices k, for i >= 1.

    log rho is convex in log u, since each term log(1 + 4 mu^2 u^2) is, so
    for u >= u_K it lies above its tangent at u_K, whose slope c is at least
    that of the chord from any node below.  Then rho(u_j) >= rho(u_K)
    ((j + 1/2) / (K + 1/2))^c, and the sum over j > K is at most
    1 / (c rho(u_K))."""
    c = np.diff(log_rho) / np.diff(np.log(k + 0.5))
    return np.divide(np.exp(-log_rho[1:]), c, out=np.full(c.shape, np.inf), where=c > 0)


def _grown(ev: _Evaluator, grid: _Grid | None) -> _Grid:
    """``grid`` with _GROWTH times its nodes, up to _MAX_NODES, or for None a
    new grid of _FIRST_NODES nodes; kept on the evaluator unless it keeps a
    longer one.  A growth looks for the cut among the nodes it adds, with
    log rho read back from g as ``_midpoint_value`` reads it.  A grid is
    replaced, never changed, so a kept node has the bits a fresh grid
    gives; two threads that grow it at once compute the same arrays, and
    the longer copy is kept."""
    if grid is None:
        # Chernoff: P{Q > L} <= exp(K(s) - s L) for 0 < s < 1 / (2 mu_1)
        tilts = [(s, ev.cgf(s)) for s in (1.0 - 2.0 ** -np.arange(1.0, 8.0)) / (2.0 * float(ev.mu[0]))]
        period, tilt, cgf = min(((k0 + math.log(4.0 / GIL_PELAEZ_TOL)) / s, s, k0) for s, k0 in tilts)
        grid = _Grid(2.0 * math.pi / period, period, tilt, cgf, None, np.empty(0), np.empty(0))
    n = grid.theta.size
    k = np.arange(n, min(int(_GROWTH * n) if n else _FIRST_NODES, _MAX_NODES)) + 0.5
    theta, log_rho = ev.phase(k * grid.step)
    g = np.concatenate([grid.g, np.exp(-log_rho) / k])
    # the nodes K = n - 1 .. size - 2 are new candidates, each with node K - 1
    k = np.arange(max(n - 2, 0), g.size - 1)
    met = np.flatnonzero(_convexity_bound(k, -np.log(g[k] * (k + 0.5))) <= 0.5 * math.pi * GIL_PELAEZ_TOL)
    grid = replace(grid, cut=int(k[met[0] + 1]) if met.size else None, theta=np.concatenate([grid.theta, theta]), g=g)
    kept = ev._grid
    if kept is None or kept.theta.size < grid.theta.size:
        ev._grid = grid
    return grid


def _midpoint_value(ev: _Evaluator, r: float) -> tuple[float, float]:
    """F(r) by the midpoint sum on the evaluator's grid, and its error bound:
    the alias, truncation and rounding terms.

    The sum equals F(r) + P{r + L < Q < r + 2L} + P{r + 3L < Q < r + 4L} +
    .. for 0 < r < L, as Q >= 0, so the alias term is P{Q > r + L}, bounded
    by Chernoff at the grid's tilt; for r >= L the value is 1, within
    P{Q >= r}.  The sum stops at the first node K where the Kusmin-Landau
    bound meets half of GIL_PELAEZ_TOL, and at the convexity cut at the
    latest.  The grid grows while its prefix holds neither node and is
    shorter than _MAX_NODES; the last node but one of a full grid without
    either ends the sum."""
    # P{Q < r} <= prod_j P{mu_j xi_j^2 < r} <= prod_j sqrt(2r/(pi mu_j));
    # where that bound is already negligible, skip the inversion
    log_bound = 0.5 * float(np.cumsum(np.log(2.0 * r / (np.pi * ev.mu))).min())
    if log_bound < math.log(1e-14):
        return 0.0, math.exp(log_bound)
    grid = ev._grid or _grown(ev, None)
    # Kusmin-Landau: g_k is positive and decreasing, and theta0 is concave,
    # so once theta0 rises by at most step r / 2 from node K to K + 1, the
    # phase steps of the dropped terms are monotone and lie in
    # [-step r, -step r / 2]; the terms then sum to at most
    # g_{K+1} cot(pi lam / 2), lam = min(r / 2L, 1 - r / L)
    lam = min(0.5 * r / grid.period, 1.0 - r / grid.period)
    if lam <= 0.0:
        return 1.0, math.exp(grid.cgf - grid.tilt * r)
    landau = 1.0 / math.tan(0.5 * math.pi * lam)
    while True:
        end = grid.theta.size if grid.cut is None else grid.cut + 2
        steady = np.diff(grid.theta[:end]) <= 0.5 * grid.step * r
        met = steady & (grid.g[1:end] * landau <= 0.5 * math.pi * GIL_PELAEZ_TOL)
        if met.any() or grid.cut is not None or end == _MAX_NODES:
            break
        grid = _grown(ev, grid)
    K = int(np.argmax(met)) if met.any() else end - 2
    arg = np.arange(K + 1, dtype=float)
    arg += 0.5
    arg *= -grid.step * r
    arg += grid.theta[: K + 1]
    total = float(np.sin(arg, out=arg) @ grid.g[: K + 1])
    k = np.arange(max(K - 1, 0), K + 1)
    log_rho = -np.log(grid.g[k] * (k + 0.5))
    dropped = grid.g[K + 1] * landau if steady[K] else math.inf
    if K:
        dropped = min(dropped, float(_convexity_bound(k, log_rho)[0]))
    # rounding: theta0 and log rho carry _PHASE_RTOL relative and rise with
    # u, so node K bounds them.  With the argument's subtraction, the sin,
    # the exp and the products, term k carries at most
    # (_PHASE_RTOL (theta_K + log rho_K) + eps (theta_K + 7)) g_k, plus
    # 3 eps u_k r g_k from u_k r, where u_k g_k = step / rho_k <= step.  The
    # sum adds (K + 1) eps of sum g_k, which is at most 2 + log(2K + 1).
    theta_K = float(grid.theta[K])
    rounding = (2.0 + math.log(2 * K + 1)) * (_PHASE_RTOL * (theta_K + log_rho[-1]) + _EPS * (theta_K + K + 8))
    rounding += 3.0 * _EPS * r * (K + 1) * grid.step
    alias = math.exp(grid.cgf - grid.tilt * (r + grid.period))
    return 0.5 - total / math.pi, alias + (dropped + rounding) / math.pi


def cdf_gil_pelaez(w: WeightSeq, r: float) -> ProbabilityEstimate:
    """P{sum mu_k xi_k^2 < r} by Davies's midpoint rule for the inversion of
    the characteristic function (Davies 1973, Biometrika 60:415; 1980,
    AS 155):

        F(r) ~ 1/2 - (1/pi) sum_{k=0}^{K} sin(theta0(u_k) - u_k r) g_k,

    u_k = (k + 1/2) step and g_k = 1 / ((k + 1/2) rho(u_k)).  The error
    bound e(r) of the sum F^(r) adds three terms, each rigorous: the alias
    term P{Q > r + L}, L = 2 pi / step, by Chernoff; the dropped terms, by
    the convexity of log rho in log u or by the Kusmin-Landau inequality,
    whichever is smaller; and the rounding of theta0, rho and the sum.  The
    first two are held to a quarter and a half of ``GIL_PELAEZ_TOL``.  With
    a tail tau the value is F^(r - tau) clipped to [0, 1], 0 for r <= tau,
    and the bound is max(e(r - tau), F^(r) + e(r) - value): the truth lies
    in [F(r - tau), F(r)].

    The step depends only on the weights.  The weight sequence's evaluator
    keeps theta0 and g at the grid's first 1,024 nodes, and grows them by a
    factor of 1.45 while a radius needs more, until they hold the convexity
    cut (1,484 nodes for 300 bridge weights, 4,521 for Wiener), so a later
    call on the same ``w``, and the tail's second radius r, is one sin
    pass and one dot product per radius.  A head of a few weights meets no
    convexity cut; its grid grows up to 2^20 nodes (16 MiB), and a bound
    still above max(100 GIL_PELAEZ_TOL, 1e-6) there raises NumericError.
    A kept node has the bits of a fresh one, so the result does not depend
    on the calls before it.  Concurrent calls may share ``w``.  Intended
    for central probabilities; the deep left tail belongs to
    ``cdf_saddlepoint``.
    """
    r = _check_positive("r", r)
    tail = w.tail_sum_bound
    r_eff = r - tail
    # the value is F(r - tail_sum_bound), 0 if r_eff <= 0, and with a tail
    # F(r) is inverted too
    results = [_midpoint_value(w._evaluator, x) for x in ([r_eff, r] if tail > 0 and r_eff > 0 else [r])]
    worst = max(err for _, err in results)
    if worst > max(100.0 * GIL_PELAEZ_TOL, 1e-6):
        raise NumericError(f"gil_pelaez inversion did not converge (err={worst:.2e})")
    value, err = results[0] if r_eff > 0 else (0.0, 0.0)
    value = min(max(value, 0.0), 1.0)
    if tail > 0:
        # the truth lies in [F(r - tail_sum_bound), F(r)]: at most err below
        # the clipped value, and at most F(r)'s sum plus its bound above it
        at_r, err_r = results[-1]
        err = max(err, at_r + err_r - value)
    log_value = math.log(value) if value > 0 else -np.inf
    return ProbabilityEstimate(value, log_value, err, "gil_pelaez")


# ---------------------------------------------------------------------------
# Saddlepoint (Lugannani-Rice) left tail
# ---------------------------------------------------------------------------


def cdf_saddlepoint(w: WeightSeq, r: float) -> ProbabilityEstimate:
    """Lugannani-Rice approximation of P{sum mu_k xi_k^2 < r} in the left
    tail r < sum mu_k.

    The saddle s(r) < 0 solves K'(s) = r for the exact cumulant generating
    function K(s) = -1/2 sum log(1 - 2 s mu_k); the tilt exists for every
    0 < r < sum mu_k, and ``_solve_saddle`` finds it by a safeguarded Newton
    iteration.  Near the mean the 1/w - 1/u cancellation is replaced by its
    limit K'''/(6 K''^{3/2}).  K and its derivatives split the weights at
    2 |s| mu_k = 1/2: the smaller ones are summed by their series in
    u = 2 s mu_k on stored power sums, to 1e-17 relative, and only the
    leading ones term by term.

    The error bound is the value over max(w_hat^2, 1), LR's relative
    order.  With a tail tau the value is at r - tau, and the bound adds the
    rise to F(r): value (e^(|s| tau) - 1) with s the tilt at r - tau, at
    most 1 - value, so 0 where the value underflows.  For r <= tau the
    value is 0 and the bound the head's own LR value at r.
    """
    r = _check_positive("r", r)
    r_eff = r - w.tail_sum_bound
    ev = w._evaluator
    if r_eff <= 0:
        # the ball lies below the shift: the value is 0, and the shift
        # sensitivity cdf(r) - 0 is the head's own value at r
        log_shift, _ = _lr_logcdf(ev, r, *_solve_saddle(ev, r))
        return ProbabilityEstimate(0.0, -np.inf, math.exp(log_shift), "saddlepoint")
    s, k2 = _solve_saddle(ev, r_eff)
    log_value, w_hat = _lr_logcdf(ev, r_eff, s, k2)
    # relative accuracy of LR is O(1/w^2); quote it through the saddle scale
    rel = 1.0 / max(w_hat * w_hat, 1.0)
    value = math.exp(log_value) if log_value > -700 else 0.0
    err = value * rel
    if w.tail_sum_bound > 0:
        # the value sits at r - tail_sum_bound and the truth may lie up to
        # F(r); the log-slope of the CDF there is the tilt |s|, so F(r) is
        # about value exp(|s| tail), and never above 1; the exponent stops
        # at 700, short of expm1's overflow
        err += min(value * math.expm1(min(abs(s) * w.tail_sum_bound, 700.0)), 1.0 - value)
    return ProbabilityEstimate(value, log_value, err, "saddlepoint")


def _solve_saddle(ev: _Evaluator, r: float) -> tuple[float, float]:
    """Root s of K'(s) = r on the CGF domain (-inf, 1/(2 mu_1)), and K''
    from the last pass.  K' is increasing from 0 to +inf there, so every
    r > 0 has a unique tilt.

    Newton's method runs on log K' = log r in the one variable
    y = -log(1 - 2 mu_1 s), which maps the whole domain onto the real line,
    s < 0 onto y < 0, and in which log K' is close to linear in both deep
    tails.  Each step reads K' and K'' from one ``_Evaluator.cgf12`` pass.
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
    mu = ev.mu
    k1 = ev.total
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
        k1, k2 = ev.cgf12(s)
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


_SQRT_HALF = math.sqrt(0.5)


def _ndtr(x: float) -> float:
    """Standard normal CDF Phi(x)."""
    return 0.5 * math.erfc(-x * _SQRT_HALF)


def _log_ndtr(x: float) -> float:
    """log Phi(x), in three regimes.

    Above x = -1 it is log1p(-Phi(-x)), which keeps the relative precision
    of a value near 0; Phi(-x) carries the rounding of x / sqrt(2), up to
    about x^2 ulp, as scipy's does.  Down to x = -20 it is log Phi(x), to
    a few ulp.  Below that Phi nears the double underflow, and log Phi(x)
    = -x^2/2 - log(-x) - log sqrt(2 pi) + log(1 - 1/x^2 + 3/x^4 - ...),
    the Mills-ratio series summed until a term falls below the double
    epsilon, again to a few ulp; it is -inf where x^2 overflows.
    """
    if x > -1.0:
        return math.log1p(-_ndtr(-x))
    if x > -20.0:
        return math.log(_ndtr(x))
    inv_x2 = 1.0 / (x * x)
    term, series, i = 1.0, 0.0, 0
    while abs(term) > sys.float_info.epsilon:
        i += 1
        term *= -(2 * i - 1) * inv_x2
        series += term
    return -0.5 * x * x - math.log(-x) - _LOG_SQRT_2PI + math.log1p(series)


def _lr_logcdf(ev: _Evaluator, r: float, s: float, k2: float) -> tuple[float, float]:
    """Lugannani-Rice log P{Q < r} at the saddle s and its K''(s) = k2, both
    from _solve_saddle(ev, r), and the signed root
    w_hat = sign(s) sqrt(2 (s r - K(s)))."""
    k0 = ev.cgf(s)
    arg = 2.0 * (s * r - k0)
    w_hat = math.copysign(math.sqrt(max(arg, 0.0)), s)
    if abs(w_hat) < 1e-5:
        # limiting form at the mean
        corr = ev.cgf3(s) / (6.0 * k2**1.5)
        p = _ndtr(w_hat) + _norm_pdf(w_hat) * corr
        return math.log(p), w_hat
    u_hat = s * math.sqrt(k2)
    term = 1.0 / w_hat - 1.0 / u_hat
    log_phi_part = _log_ndtr(w_hat)
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
    """Empirical P{sum mu_k xi_k^2 < r - tail_sum_bound} over ``n_samples``
    draws.

    The error bound is three binomial standard errors plus the rise to
    F(r), the fraction of the same draws that falls in
    [r - tail_sum_bound, r).  Results are bitwise reproducible for a fixed
    seed: the sample budget is split as evenly as possible across
    ``MC_SHARDS`` shards (earlier shards take the remainder), each shard
    draws normals with ``Generator.standard_normal`` (the ziggurat) from
    its own spawned generator, and the shard counts are integers, so the
    thread count does not change the result.

    A shard draws its samples in row blocks, one column chunk of the
    weights at a time (``MC_FIRST_CHUNK``, ``MC_ROWS``), and each chunk only
    for the samples whose partial sum is still below r.  The terms are
    non-negative, so a rounded partial sum never decreases: a sample that
    reaches r would end at or above r, and it is dropped, counted in
    neither count, exactly as a full draw would count it.
    """
    _check_integer("n_samples", n_samples, 1)
    _check_integer("seed", seed, 0)
    r = _check_positive("r", r)
    threshold = r - w.tail_sum_bound
    mu = w.head
    edges = [0]
    while edges[-1] < mu.size:
        edges.append(min(mu.size, 2 * edges[-1] + MC_FIRST_CHUNK))
    widest = int(max(np.diff(edges)))
    block = min(MC_ROWS, SAMPLER_BLOCK // widest)

    def count_below(rng, n):
        below = below_r = 0
        rows = min(block, n)
        buf = np.empty(rows * widest)
        q, spare = np.empty(rows), np.empty(rows)
        alive = np.empty(rows, dtype=bool)
        for done in range(0, n, block):
            k = min(block, n - done)
            q[:k] = 0.0
            for lo, hi in zip(edges, edges[1:]):
                if lo:
                    kept = int(np.count_nonzero(alive[:k]))
                    np.compress(alive[:k], q[:k], out=spare[:kept])
                    q, spare, k = spare, q, kept
                xi = rng.standard_normal(out=buf[: k * (hi - lo)].reshape(k, hi - lo))
                np.einsum("ij,j->i", np.square(xi, out=xi), mu[lo:hi], out=spare[:k])
                np.add(q[:k], spare[:k], out=q[:k])
                np.less(q[:k], r, out=alive[:k])
            below_r += int(np.count_nonzero(alive[:k]))
            below += int(np.count_nonzero(np.less(q[:k], threshold, out=alive[:k])))
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
