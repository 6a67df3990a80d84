"""Distribution of weighted chi-square forms sum_k mu_k xi_k^2.

Three evaluators with complementary ranges:

* ``cdf_gil_pelaez`` inverts the characteristic function; accurate for
  central probabilities (P >~ 1e-6) where it reaches ~1e-8 absolute.  The
  phase and amplitude of the characteristic function do not depend on r,
  so one t-grid serves every radius a call needs, and the weight
  sequence's evaluator keeps the grid's values for later calls.
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
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
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


def __getattr__(name):
    # benchmark/tracing.py counts calls to ``quadform.quad`` and
    # ``quadform.brentq`` and times ``quadform.ndtri``, which no evaluator
    # calls, so the scipy modules are imported only when the tracer looks the
    # names up.  Serves the tracer only; delete with ROADMAP item 1.
    if name == "quad":
        from scipy.integrate import quad

        return quad
    if name == "brentq":
        from scipy.optimize import brentq

        return brentq
    if name == "ndtri":
        from scipy.special import ndtri

        return ndtri
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


# the Monte Carlo sample budget is split over this many generator shards;
# the split fixes which generator draws which sample, so it is part of every
# seeded result
MC_SHARDS = 16

# elements per block in both samplers: a shard draws and reduces one block at
# a time, so each worker holds O(SAMPLER_BLOCK) floats whatever the shard size
SAMPLER_BLOCK = 1 << 17


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
# 7.9e-18.  K'' and K' keep one and two more powers, and K, theta0, theta0'
# and log rho have smaller coefficients, so their bounds are smaller
# still.  The terms of each sum share one sign, so each bound holds for
# the sum as well.
_SERIES_DELTA = 0.5
_SERIES_POWERS = 75
# split points per octave of the weight index: the directly summed part
# has at most 2^(1/4), about 1.19 times, the terms it needs, plus one
_SPLITS_PER_OCTAVE = 4
# elements of the scratch buffer of one evaluator call, and of each block of
# Gauss-Kronrod nodes: 512 KiB whatever the weight or panel count
_BLOCK = 1 << 16
# doubles of Gil-Pelaez phase tables and their keys one evaluator keeps:
# 1 MiB per weight sequence, for as long as the sequence lives, plus a few
# hundred bytes of Python object headers per table
_TABLE_BUDGET = 2 * _BLOCK


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

    Gil-Pelaez reads one more store, filled on first need, since theta0
    and rho do not depend on the radius: ``phase_table`` keeps theta0 and
    g = 1 / (t rho) at the Gauss-Kronrod nodes of one inversion pass, keyed
    by the pass's panel endpoints, while the tables and their keys fit
    ``_TABLE_BUDGET`` doubles; a table that does not fit is not stored.
    That memory belongs to the sequence and is kept as long as the sequence
    is.  The tables pay off only when calls on one sequence repeat a grid,
    as radii a few per cent apart do; the radii of one cold curve share
    few grids.  A stored table holds the bits a fresh evaluation gives, so
    a hit and a miss return the same result.  Threads may share an
    evaluator: two that miss the same table at once both compute it, and
    one copy is kept.
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
        # theta0' / S = sum (mu_k / S) / (1 + z_k^2)
        self._slope_coef = np.where(p % 2 == 0, (-1.0) ** (p // 2), 0.0) * shifted(1)
        # K = 1/2 sum z^p R_p / p, K' / S, K'' / S^2 and K''' / S^3 with z = 2 s S
        self._cgf_coef = np.stack(
            [0.5 * (p > 0) * inv * sums, shifted(1), 2.0 * (p + 1) * shifted(2), 4.0 * (p + 1) * (p + 2) * shifted(3)],
            axis=1,
        )
        self._tables: dict[tuple[bytes, bytes], np.ndarray] = {}
        self._table_room = _TABLE_BUDGET
        self._table_lock = threading.Lock()

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
        array; both results have its shape.

        The arguments are sorted by split level.  The series part takes the
        powers of every z = 2 t S at once and one product with each level's
        row of power sums; the direct part takes each level's leading
        weights.  Both work in blocks of one scratch buffer."""
        t = np.asarray(t, dtype=float)
        level = np.searchsorted(self._limit, np.abs(t.ravel()))
        order = np.argsort(level, kind="stable")
        level, ts = level[order], t.ravel()[order]
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
        theta, log_rho = np.empty(ts.size), np.empty(ts.size)
        theta[order], log_rho[order] = out
        return theta.reshape(t.shape), log_rho.reshape(t.shape)

    def phase_at(self, t: float) -> tuple[float, float, float]:
        """theta0(t), log rho(t) and theta0'(t) = sum mu_k / (1 + 4 mu_k^2 t^2)
        at a scalar t."""
        j, k, powers = self._at(t)
        z = (2.0 * t) * self.mu[:k]
        th, lr = self._phase_coef[j] @ powers
        slope = self._scale[j] * float(self._slope_coef[j] @ powers)
        z2 = z * z
        return (
            0.5 * float(np.arctan(z).sum()) + th,
            0.25 * float(np.log1p(z2).sum()) + lr,
            float(np.sum(self.mu[:k] / (1.0 + z2))) + slope,
        )

    def phase_g(self, t: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """theta0(t) and g(t) = exp(-log rho(t)) / t at every t of an array."""
        theta, log_rho = self.phase(t)
        return theta, np.exp(-log_rho) / t

    def phase_table(self, a: np.ndarray, b: np.ndarray, nodes: np.ndarray) -> np.ndarray | None:
        """theta0 and g stacked as (2,) + nodes.shape at ``nodes``, the
        Gauss-Kronrod nodes of the panels [a_i, b_i] of one inversion pass,
        one row per panel.  The panel ends are the key; they fix every node
        bit for bit.  A miss fills the table ``_PANELS_PER_BLOCK`` panels at
        a time, as a streamed pass evaluates them, and stores it if it and
        its key fit the room left of ``_TABLE_BUDGET``; None means they do
        not fit."""
        key = (a.tobytes(), b.tobytes())
        table = self._tables.get(key)
        size = 2 * nodes.size + a.size + b.size
        if table is None and size <= self._table_room:
            table = np.empty((2,) + nodes.shape)
            for i in range(0, a.size, _PANELS_PER_BLOCK):
                table[:, i : i + _PANELS_PER_BLOCK] = self.phase_g(nodes[i : i + _PANELS_PER_BLOCK])
            with self._table_lock:
                if key not in self._tables and size <= self._table_room:
                    self._tables[key] = table
                    self._table_room -= size
        return table

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
# Gil-Pelaez / Imhof inversion
# ---------------------------------------------------------------------------


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
# panels per block of _BLOCK nodes
_PANELS_PER_BLOCK = _BLOCK // _GK_NODES.size
# quad's default tolerances, which decide whether its first step is final
_QUAD_EPS = 1.49e-8
# passes that may halve a failing panel; the panel at t = 0 needs at most 5
_MAX_HALVINGS = 12
GIL_PELAEZ_TOL = 1e-9
# beyond this many oscillations before decay the inversion is refused
_MAX_OSCILLATIONS = 50000
# panel counts ceil(20 * 2^(j/8)): 1.5 panels per oscillation rounded up to
# the ladder, so nearby radii share a t-grid, up to 1.5 * _MAX_OSCILLATIONS;
# a count m becomes at most 2^(1/8) m + 1
_PANEL_LADDER = np.ceil(20.0 * 2.0 ** (np.arange(97) / 8.0)).astype(int)


def _integrate_panels(ev: _Evaluator, rs: np.ndarray, edges: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """For each radius r in ``rs``, the sum over the panels
    [edges[i], edges[i+1]] of int sin(theta0(t) - t r) g(t) dt,
    g = 1 / (t rho(t)), and the sum of the error estimates.

    Each pass applies quad's first step, the 21-point Gauss-Kronrod rule
    with QUADPACK's error estimate, to all pending panels at once.  theta0
    and g do not depend on r, so they are evaluated once per node and serve
    every radius: read from the evaluator's phase table of the pass, or,
    where it does not fit, streamed in blocks of ``_BLOCK`` nodes.  A panel
    is accepted when it meets quad's default tolerances at every radius;
    the others, typically only the one at t = 0, are halved for the next
    pass, unless they were halved ``_MAX_HALVINGS`` times or the next pass
    would outgrow the first.  Then they are kept with their error estimates
    for the caller to judge.
    """
    a, b = edges[:-1], edges[1:]
    r_col = rs[:, None, None]
    total = np.zeros(rs.size)
    err_sum = np.zeros(rs.size)
    halvings = 0
    while a.size:
        half = 0.5 * (b - a)
        nodes = 0.5 * (a + b)[:, None] + half[:, None] * _GK_NODES
        table = ev.phase_table(a, b, nodes)
        f = np.empty((rs.size,) + nodes.shape)
        for i in range(0, a.size, _PANELS_PER_BLOCK):
            t = nodes[i : i + _PANELS_PER_BLOCK]
            theta, g = ev.phase_g(t) if table is None else table[:, i : i + _PANELS_PER_BLOCK]
            f[:, i : i + _PANELS_PER_BLOCK] = np.sin(theta - t * r_col) * g
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
    ``GIL_PELAEZ_TOL``.  theta0 and rho at each node split the weights at
    2 t mu_k = 1/2: the smaller ones are summed by the arctan and log1p
    series on stored power sums, to 1e-17 relative, and only the leading
    ones term by term.  The weight sequence's evaluator keeps theta0 and
    1 / (t rho) at the nodes of each grid, so a later call on the same
    ``w`` whose grid it shares, as radii a few per cent apart do, evaluates
    no node again; a kept value has the bits of a fresh one, so the result
    does not depend on the calls before it.  Concurrent calls may share
    ``w``.  Intended for central probabilities; the deep left tail belongs
    to ``cdf_saddlepoint``.
    """
    r = _check_positive("r", r)
    tail = w.tail_sum_bound
    r_eff = r - tail
    # the error of treating the tail as a deterministic shift is cdf(r) -
    # cdf(r - tail_sum_bound), and the main value is 0 if r_eff <= 0
    rs = [r_eff, r] if tail > 0 and r_eff > 0 else [r]
    values, errs = _gp_values(w._evaluator, np.array(rs))
    value, err = (float(values[0]), float(errs[0])) if r_eff > 0 else (0.0, 0.0)
    if tail > 0:
        err += max(float(values[-1]) - value, 0.0)
    value_c = min(max(value, 0.0), 1.0)
    log_value = math.log(value_c) if value_c > 0 else -np.inf
    return ProbabilityEstimate(value_c, log_value, err, "gil_pelaez")


def _gp_values(ev: _Evaluator, rs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """F(r) and its error bound at each radius in ``rs``, from one t-grid at
    ``GIL_PELAEZ_TOL``: T is cut for the smallest radius, the strictest,
    and the panels are sized for the largest, which oscillates most.

    The panel count, 1.5 per oscillation and at least 20, is rounded up to
    ``_PANEL_LADDER``, so radii a few per cent apart share one grid and
    read one set of the evaluator's phase tables; a cold call evaluates at
    most 2^(1/8) times the nodes of the unrounded count, plus one panel.
    Two threads that fill the same table at once each compute it, and one
    copy is kept."""
    mu = ev.mu
    n = mu.size
    # P{Q < r} <= prod_j P{mu_j xi_j^2 < r} <= prod_j sqrt(2r/(pi mu_j));
    # where that bound is already negligible, skip the oscillatory integral
    log_bound = (0.5 * np.cumsum(np.log(2.0 * rs[:, None] / (np.pi * mu)), axis=1)).min(axis=1)
    values, errs = np.zeros(rs.size), np.exp(log_bound)
    live = log_bound >= math.log(1e-14)
    if not live.any():
        return values, errs
    rs = rs[live]
    # truncation point: after one integration by parts the remainder is
    # O((|g'| + g * theta0') / r^2) with g = 1 / (t rho); expand T until
    # that is small
    r_min = float(rs.min())
    T = 10.0 / mu[0]
    while T < 1e15:
        theta_T, log_rho_T, slope_T = ev.phase_at(T)
        g_T = math.exp(-log_rho_T) / T
        resid_num = (1.0 + 0.5 * n) * g_T / T + g_T * slope_T
        if resid_num / (r_min * r_min) <= 0.5 * GIL_PELAEZ_TOL:
            break
        T *= 1.6
    else:
        raise NumericError("gil_pelaez: could not find a truncation point")
    n_osc = (theta_T + T * float(rs.max())) / (2.0 * math.pi)
    if n_osc > _MAX_OSCILLATIONS:
        raise NumericError(
            f"gil_pelaez: integrand oscillates {n_osc:.0f} times before decay; "
            "this regime belongs to cdf_saddlepoint"
        )
    n_panels = int(_PANEL_LADDER[np.searchsorted(_PANEL_LADDER, int(1.5 * n_osc))])
    edges = np.linspace(0.0, T, n_panels + 1)
    total, err = _integrate_panels(ev, rs, edges)
    # leading by-parts term of the cut tail
    slope_T = rs - slope_T
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
    """
    r = _check_positive("r", r)
    r_eff = r - w.tail_sum_bound
    if r_eff <= 0:
        return ProbabilityEstimate(0.0, -np.inf, 0.0, "saddlepoint")
    ev = w._evaluator
    s, k2 = _solve_saddle(ev, r_eff)
    log_value, w_hat = _lr_logcdf(ev, r_eff, s, k2)
    # relative accuracy of LR is O(1/w^2); quote it through the saddle scale
    rel = 1.0 / max(w_hat * w_hat, 1.0)
    value = math.exp(log_value) if log_value > -700 else 0.0
    err = value * rel
    if w.tail_sum_bound > 0:
        # local log-slope of the CDF is the tilt |s|, so the shift moves the
        # value by at most a factor 1 - exp(-|s| tail)
        err += value * min(1.0, -math.expm1(-abs(s) * w.tail_sum_bound))
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


def _lr_logcdf(ev: _Evaluator, r: float, s: float, k2: float) -> tuple[float, float]:
    """Lugannani-Rice log P{Q < r} at the saddle s and its K''(s) = k2, both
    from _solve_saddle(ev, r), and the signed root
    w_hat = sign(s) sqrt(2 (s r - K(s)))."""
    from scipy.special import log_ndtr, ndtr  # kept off the import path

    k0 = ev.cgf(s)
    arg = 2.0 * (s * r - k0)
    w_hat = math.copysign(math.sqrt(max(arg, 0.0)), s)
    if abs(w_hat) < 1e-5:
        # limiting form at the mean
        corr = ev.cgf3(s) / (6.0 * k2**1.5)
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
