import dataclasses
import math
import os
import sys
import threading
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy.integrate import quad as scipy_quad
from scipy.optimize import brentq
from scipy.special import chdtr, gammainc, log_ndtr, ndtr
from scipy.stats import norm

from smallball import (
    NumericError,
    WeightSeq,
    cdf_gil_pelaez,
    cdf_monte_carlo,
    cdf_saddlepoint,
    distortion_constant,
    durbin,
    durbin_kernel_spec,
    naznik_asymptotic,
    nystrom_spectrum,
    quadform,
    read_weights,
    simulate_omega2,
    write_weights,
)

CHI2_1_AT_1 = 2.0 * norm.cdf(1.0) - 1.0  # P{xi^2 < 1}, univariate normal oracle


def wiener_weights(n, tail=True):
    k = np.arange(1, n + 1)
    head = 1.0 / ((k - 0.5) * np.pi) ** 2
    # sum_{k>n} ((k-1/2) pi)^-2 = (1/pi^2) sum_{k>n} (k-1/2)^-2, telescoped
    # against the integral: int_n^inf (x-1/2)^-2 dx = 1/(n-1/2)
    tail_sum = 1.0 / (np.pi**2 * (n - 0.5)) if tail else 0.0
    return WeightSeq(head=head, tail_sum_bound=tail_sum, label="wiener")


def bridge_weights(n):
    k = np.arange(1, n + 1)
    return WeightSeq(head=1.0 / (np.pi * k) ** 2, label="bridge")


class TestGilPelaez:
    def test_chi2_one(self):
        est = cdf_gil_pelaez(WeightSeq(head=np.array([1.0])), 1.0)
        assert est.value == pytest.approx(CHI2_1_AT_1, abs=1e-6)
        assert est.error_bound < 1e-5

    def test_chi2_two(self):
        # sum of two unit weights is chi-square(2): CDF 1 - exp(-r/2)
        est = cdf_gil_pelaez(WeightSeq(head=np.array([1.0, 1.0])), 2.0)
        assert est.value == pytest.approx(1.0 - math.exp(-1.0), abs=1e-6)

    @pytest.mark.parametrize("n,r", [(1, 0.1), (1, 1.0), (2, 2.0), (3, 3.0), (1, 60.0)])
    def test_bound_contains_closed_form(self, n, r):
        # n unit weights: chi-square(n), whose CDF scipy gives in closed
        # form; r = 60 lies beyond the alias period L = 49, where the value
        # is 1 within the Chernoff bound on P{Q >= r}
        est = cdf_gil_pelaez(WeightSeq(head=np.ones(n)), r)
        assert abs(est.value - chdtr(n, r)) <= est.error_bound

    def test_left_endpoint(self):
        w = bridge_weights(100)
        est = cdf_gil_pelaez(w, float(w.head[-1]) * 1e-12)
        assert est.value == pytest.approx(0.0, abs=1e-12)
        assert est.value <= est.error_bound + 1e-15

    def test_rejects_bad_r(self):
        with pytest.raises(ValueError):
            cdf_gil_pelaez(bridge_weights(10), -1.0)


class TestSaddlepoint:
    def test_chi2_one_near_mean(self):
        est = cdf_saddlepoint(WeightSeq(head=np.array([1.0])), 1.0)
        assert est.value == pytest.approx(CHI2_1_AT_1, rel=0.01)

    def test_monotone_in_r(self):
        w = bridge_weights(200)
        rs = [0.001, 0.005, 0.02, 0.08, 1.0 / 6.0]
        vals = [cdf_saddlepoint(w, r).log_value for r in rs]
        assert all(a < b for a, b in zip(vals, vals[1:]))

    def test_wiener_truncated_vs_explicit_asymptotics(self):
        # the explicit power-law value at eps = 0.05 is the independent
        # anchor; the truncation enters through the deterministic tail shift
        w = wiener_weights(2000)
        est = cdf_saddlepoint(w, 0.05**2)
        target = naznik_asymptotic(math.pi, -0.5, 2.0, 0.05)
        assert est.log_value == pytest.approx(target, abs=0.5)

    def test_deep_tail_log_scale(self):
        # far enough down that the probability underflows doubles; the
        # truncated-form value must sit between the infinite-sum asymptotic
        # (a smaller probability) and the single-weight bound
        # P{mu_1 xi^2 < r} ~ sqrt(2r/(pi mu_1))
        w = bridge_weights(500)
        r = 1e-5
        est = cdf_saddlepoint(w, r)
        assert est.value == 0.0
        lower = naznik_asymptotic(math.pi, 0.0, 2.0, math.sqrt(r))
        upper = 0.5 * math.log(2.0 * r / (math.pi * float(w.head[0])))
        assert lower < est.log_value < upper

    def test_e_minus_ten_thousand(self):
        # with a near-complete weight set the explicit power-law value is the
        # oracle all the way down to log-probabilities ~ -1e4; the head must
        # reach far enough that the tilt never saturates the discarded tail
        # (s^2 sum_tail mu^2 small), which 1e5 weights comfortably ensure
        w = wiener_weights(100000)
        eps = math.sqrt(1.0 / (8.0 * 1e4))
        est = cdf_saddlepoint(w, eps * eps)
        target = naznik_asymptotic(math.pi, -0.5, 2.0, eps)
        assert est.value == 0.0
        assert est.log_value == pytest.approx(target, rel=0.005)

    def test_rejects_nonpositive_r(self):
        with pytest.raises(ValueError):
            cdf_saddlepoint(bridge_weights(10), 0.0)

    @pytest.mark.parametrize("delta", [0.0, -0.5], ids=["bridge", "wiener"])
    def test_newton_saddle_matches_brentq(self, monkeypatch, delta):
        # the cdf_curve saddlepoint heads, from the deep tail to past the
        # mean (eps = 0.41 for the bridge, 0.71 for the Wiener process), and
        # the mean K'(0) itself and 1e-9 relative to either side of it;
        # every solve takes at most 10 fused K'/K'' passes and lands on the
        # root of a full-precision brentq solve
        w = _closed_form_weights(delta, n=100_000)
        mu = w.head
        passes, saddles = [], []
        real_cgf12 = quadform._Evaluator.cgf12

        def counting(ev, s):
            passes[-1] += 1
            return real_cgf12(ev, s)

        monkeypatch.setattr(quadform._Evaluator, "cgf12", counting)
        mean, k2_mean = float(mu.sum()), 2.0 * float(mu @ mu)
        radii = [eps * eps - w.tail_sum_bound for eps in np.geomspace(0.003, 0.8, 16)]
        for r in radii + [mean * (1.0 - 1e-9), mean, mean * (1.0 + 1e-9)]:
            passes.append(0)
            saddles.append(quadform._solve_saddle(w._evaluator, r)[0])
            f = lambda s: float(np.sum(mu / (1.0 - 2.0 * s * mu))) - r  # noqa: E731
            # K'(s) <= N / (-2 s) below 0 and K'(s) >= mu_1 / (1 - 2 s mu_1) above
            lo, hi = (-mu.size / (2.0 * r), 0.0) if f(0.0) > 0 else (0.0, (1.0 - mu[0] / r) / (2.0 * mu[0]))
            s_ref = brentq(f, lo, hi, xtol=1e-300, rtol=8.9e-16, maxiter=200)
            assert passes[-1] <= 10
            # 1e-9 from the mean the rounding of K' fixes s only to about
            # 1e-7 relative, for brentq as for Newton; there both roots must
            # give the same K' to 1e-13 relative, |s - s_ref| K''(0) <= 1e-13 r
            tol = 0.0 if r in radii else 1e-13 * r / k2_mean
            assert saddles[-1] == pytest.approx(s_ref, rel=1e-12, abs=tol)
        assert min(saddles) < 0 < max(saddles)
        assert saddles[-2] == 0.0

    @pytest.mark.parametrize("delta, n", [(0.0, 100_000), (-0.5, 100_000), (0.0, 10)],
                             ids=["bridge", "wiener", "bridge_10"])
    def test_saddle_near_the_mean(self, monkeypatch, delta, n):
        # within about 1e-4 relative of the mean K'(0) no step can move s by
        # less than 1e-12 relative of itself, so the solve also stops once
        # K'(s) matches r to rounding; on these radii about a quarter of the
        # solves once ran 200 passes and raised "did not converge"
        w = _closed_form_weights(delta, n=n)
        mu = w.head
        mean = float(mu.sum())
        passes = []
        real_cgf12 = quadform._Evaluator.cgf12

        def counting(ev, s):
            passes[-1] += 1
            return real_cgf12(ev, s)

        monkeypatch.setattr(quadform._Evaluator, "cgf12", counting)
        for e in np.geomspace(1e-14, 1e-2, 25):
            for r in (mean * (1.0 - e), mean * (1.0 + e)):
                passes.append(0)
                s, _ = quadform._solve_saddle(w._evaluator, r)
                assert passes[-1] <= 10
                assert (s < 0.0) == (r < mean)
                assert float(np.sum(mu / (1.0 - 2.0 * s * mu))) == pytest.approx(r, rel=1e-13, abs=0.0)

    @pytest.mark.parametrize("delta", [0.0, -0.5], ids=["bridge", "wiener"])
    def test_lr_reads_k2_of_the_last_newton_pass(self, monkeypatch, delta):
        # _lr_logcdf takes K'' from the solve's last fused pass instead of a
        # pass of its own; that pass is within 1e-12 relative of the saddle,
        # so log_value and error_bound stay within 1e-11 of their values
        # with K'' taken at the saddle itself
        w = _closed_form_weights(delta, n=100_000)
        mu = w.head
        last_k2, lr_k2 = [], []
        real_cgf12, real_lr = quadform._Evaluator.cgf12, quadform._lr_logcdf

        def recording_k2(ev, s):
            k1, k2 = real_cgf12(ev, s)
            last_k2.append(k2)
            return k1, k2

        def recording(ev, r, s, k2):
            lr_k2.append(k2)
            return real_lr(ev, r, s, k2)

        monkeypatch.setattr(quadform._Evaluator, "cgf12", recording_k2)
        monkeypatch.setattr(quadform, "_lr_logcdf", recording)
        for eps in np.geomspace(0.003, 0.8, 12):
            est = cdf_saddlepoint(w, eps * eps)
            assert lr_k2[-1] == last_k2[-1]
            r = eps * eps - w.tail_sum_bound
            s, _ = quadform._solve_saddle(w._evaluator, r)
            a = mu / (1.0 - 2.0 * s * mu)
            log_ref, w_hat = real_lr(w._evaluator, r, s, 2.0 * float(np.sum(a * a)))
            assert est.log_value == pytest.approx(log_ref, rel=1e-11, abs=0.0)
            rel = 1.0 / max(w_hat * w_hat, 1.0)
            value = math.exp(log_ref) if log_ref > -700 else 0.0
            shift = min(value * math.expm1(abs(s) * w.tail_sum_bound), 1.0 - value) if value > 0 else 0.0
            err_ref = value * rel + shift
            assert est.error_bound == pytest.approx(err_ref, rel=1e-11, abs=0.0)

    @pytest.mark.parametrize("n", [2000, 100_000])
    @pytest.mark.parametrize("r", [6e14, 1e15, 1e16, 1e300])
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_far_above_the_mean(self, monkeypatch, n, r):
        # past y = -log(1 - 2 s mu_1) ~ -log(eps) the saddle rounds onto the
        # pole 1/(2 mu_1); each call gives a value in [0, 1] or a
        # NumericError naming the pole, after at most 10 passes and with no
        # numpy warning (1e15 gave inf, 1e16 200 passes and no convergence)
        passes = []
        real = quadform._Evaluator.cgf12

        def counting(ev, s):
            passes.append(s)
            return real(ev, s)

        monkeypatch.setattr(quadform._Evaluator, "cgf12", counting)
        try:
            est = cdf_saddlepoint(bridge_weights(n), r)
        except NumericError as exc:
            assert "pole" in str(exc)
        else:
            assert 0.0 <= est.value <= 1.0
        assert len(passes) <= 10

    @pytest.mark.parametrize("r", [1e-160, 1e-200, 1e-300])
    def test_underflowing_k2_raises(self, r):
        # on 2000 bridge weights a = mu / (1 - 2 s mu) is below 1e-162 at the
        # saddle, so K'' = 2 a.a underflows and no Newton step is defined
        with pytest.raises(NumericError, match="underflows"):
            cdf_saddlepoint(bridge_weights(2000), r)

    @pytest.mark.parametrize("r", [1e-304, 1e-306, 5e-324])
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_tilt_variable_overflow_raises(self, r):
        # on 2000 bridge weights the far bracket end 1 - 2 mu_1 s = 1 + mu_1 N / r
        # passes exp(700) below r ~ 1e-302: a NumericError, not an
        # OverflowError from expm1
        with pytest.raises(NumericError, match="overflows"):
            cdf_saddlepoint(bridge_weights(2000), r)

    def test_one_cgf_pass_per_call(self, monkeypatch):
        # the error bound reuses the w_hat of the Lugannani-Rice step
        calls = []
        real = quadform._Evaluator.cgf

        def counting(ev, s):
            calls.append(s)
            return real(ev, s)

        monkeypatch.setattr(quadform._Evaluator, "cgf", counting)
        cdf_saddlepoint(wiener_weights(1000), 0.01)
        assert len(calls) == 1


def _evaluator_cases():
    k = np.arange(1.0, 301.0)
    flat = np.full(3000, 0.25)
    flat[1::2] += 0.9e-12  # rises of 0.9e-12 mu_1, which WeightSeq allows
    return {
        "tiny": 1e-150 / k**2,
        "huge": 1e150 / k**2,
        "flat_with_rises": np.concatenate([[1.0, 0.5], flat]),
        "equal": np.full(500, 0.3),
        "single": np.array([0.7]),
        "bridge_1e5": 1.0 / (np.pi * np.arange(1, 100_001)) ** 2,
    }


def _ulps(a: float, b: float) -> float:
    return 0.0 if a == b else abs(a - b) / math.ulp(max(abs(a), abs(b)))


# x from -1e4 to 40, with each side of the log-CDF's regime boundaries
_NORMAL_CDF_XS = sorted({*map(float, -np.logspace(4, 0, 60)), *map(float, np.linspace(-40.0, 40.0, 321)),
                         *(float(np.nextafter(b, b + side)) for b in (-20.0, -1.0) for side in (-1.0, 1.0))})


class TestNormalCdf:
    """The saddlepoint's math-module Phi and log Phi against scipy.special
    and 40-digit mpmath values.  Phi(x) and, above x = -1, Phi(-x) are
    erfc at the rounded x / sqrt(2), as in scipy.special; that rounding
    alone moves them by up to about x^2 ulp, which the tolerances allow."""

    @staticmethod
    def _references(x):
        import mpmath

        with mpmath.workdps(40):
            phi = mpmath.ncdf(x)
            # log Phi(x) for x > 0 from the upper tail, which 40 digits hold
            log_phi = mpmath.log(phi) if x <= 0 else mpmath.log1p(-mpmath.ncdf(-x))
            return float(phi), float(log_phi)

    def test_ndtr(self):
        for x in _NORMAL_CDF_XS:
            got, (ref, _) = quadform._ndtr(x), self._references(x)
            if ref > 1e-300:
                assert _ulps(got, ref) <= 4.0 + 2.0 * x * x, x
            if x >= -1.0:
                assert _ulps(got, float(ndtr(x))) <= 4.0, x

    def test_log_ndtr(self):
        for x in _NORMAL_CDF_XS:
            got, (_, ref) = quadform._log_ndtr(x), self._references(x)
            if abs(ref) < 1e-300:  # subnormal, or 0 from x = 38.5 on
                assert abs(got - ref) <= 1e-300, x
            elif x <= -1.0:
                # log Phi absorbs the argument's rounding: a few ulp of both
                assert _ulps(got, ref) <= 4.0 and _ulps(got, float(log_ndtr(x))) <= 8.0, x
            else:
                assert _ulps(got, ref) <= 4.0 + 2.0 * x * x, x
                assert _ulps(got, float(log_ndtr(x))) <= 8.0 + 4.0 * x * x, x

    def test_log_ndtr_where_x_squared_overflows(self):
        assert quadform._log_ndtr(-1e200) == float(log_ndtr(-1e200)) == -math.inf


# a subnormal result keeps only an absolute accuracy of a few hundred units
# of 5e-324, in the reference sums as in the evaluator
_SUBNORMAL_ATOL = 1e-320


class TestEvaluator:
    """The power-sum evaluator against direct, exactly rounded sums over
    every weight."""

    @pytest.fixture(scope="class", params=list(_evaluator_cases()))
    def case(self, request):
        mu = _evaluator_cases()[request.param]
        return WeightSeq(head=mu)._evaluator, mu

    def test_phase(self, case):
        ev, mu = case
        t = np.geomspace(1e-6, 1e6, 49) / mu[0]
        theta, log_rho = ev.phase(t)
        ref_theta = [0.5 * math.fsum(np.arctan(2.0 * mu * x)) for x in t]
        ref_log_rho = [0.25 * math.fsum(np.log1p((2.0 * mu * x) ** 2)) for x in t]
        np.testing.assert_allclose(theta, ref_theta, rtol=1e-14, atol=0)
        np.testing.assert_allclose(log_rho, ref_log_rho, rtol=1e-14, atol=0)

    def test_cgf(self, case):
        # s from -1e6 to 1 - 1e-6 times the pole 1/(2 mu_1)
        ev, mu = case
        pole = 0.5 / mu[0]
        s = np.concatenate([-np.geomspace(1e6, 1e-6, 49) * pole, [0.0], (1.0 - np.geomspace(1.0, 1e-6, 25)[1:]) * pole])
        with np.errstate(over="ignore"):
            for x in s:
                a = mu / (1.0 - 2.0 * x * mu)
                ref = (
                    -0.5 * math.fsum(np.log1p(-2.0 * x * mu)),
                    math.fsum(a),
                    2.0 * math.fsum(a * a),
                    8.0 * math.fsum(a * a * a) if np.all(np.isfinite(a * a * a)) else math.inf,
                )
                got = (ev.cgf(x), *ev.cgf12(x), ev.cgf3(x))
                np.testing.assert_allclose(got, ref, rtol=1e-14, atol=_SUBNORMAL_ATOL, err_msg=f"s = {x!r}")

    def test_mean_is_the_total(self, case):
        # K'(0) is WeightSeq.total bit for bit, so the radius r = total has
        # the saddle 0
        ev, mu = case
        assert ev.cgf12(0.0)[0] == ev.total == float(mu.sum())

    def test_direct_part_within_a_fifth_of_need(self, case):
        # an argument x sums the weights directly up to the first split
        # point where 2 |x| max_{k >= K} mu_k <= delta: at most 2^(1/4) times
        # the index where that first holds, plus one, from about four split
        # points per octave
        ev, mu = case
        suffix_max = np.maximum.accumulate(mu[::-1])[::-1]
        assert ev._split.size <= 4 * math.log2(mu.size) + 3
        for x in np.geomspace(1e-3, 1e8, 67) / mu[0]:
            need = int(np.count_nonzero(2.0 * x * suffix_max > quadform._SERIES_DELTA))
            used = int(ev._split[np.searchsorted(ev._limit, x)])
            assert need <= used <= 2.0**0.25 * need + 1

    def test_truncation_bound(self):
        # the series of the third derivative, the slowest, keeps the powers
        # up to P - 3 of |u| <= delta; its relative truncation error is
        # below 1e-17
        d, p = quadform._SERIES_DELTA, quadform._SERIES_POWERS
        assert math.comb(p, 2) * d ** (p - 2) * ((1.0 + d) / (1.0 - d)) ** 3 < 1e-17

    def test_caller_write_leaves_sequence_unchanged(self):
        # the sequence keeps a read-only copy of the caller's array, so the
        # power sums stored on first use cannot go stale
        mu = 1.0 / (np.pi * np.arange(1.0, 51.0)) ** 2
        w = WeightSeq(head=mu)
        before = cdf_saddlepoint(w, 0.01)
        mu[:] = 1.0
        assert w.head[0] == 1.0 / np.pi**2
        assert cdf_saddlepoint(w, 0.01) == before
        with pytest.raises(ValueError, match="read-only"):
            w.head[0] = 1.0


class TestMonteCarlo:
    def test_chi2_one(self):
        est = cdf_monte_carlo(WeightSeq(head=np.array([1.0])), 1.0, 10**6, seed=20260808)
        assert est.value == pytest.approx(CHI2_1_AT_1, abs=0.0014)
        assert est.error_bound == pytest.approx(3.0 * math.sqrt(CHI2_1_AT_1 * (1 - CHI2_1_AT_1) / 1e6), rel=0.05)

    @pytest.mark.parametrize("r", [0.01, 1.0, 9.0])
    def test_chi2_one_both_tails(self, r):
        # the sampled normals have the standard law in the centre and in
        # both tails: xi^2 < 0.01 needs |xi| < 0.1, xi^2 >= 9 needs |xi| >= 3
        n = 10**6
        exact = float(chdtr(1, r))
        est = cdf_monte_carlo(WeightSeq(head=np.array([1.0])), r, n, seed=1018)
        assert abs(est.value - exact) < 5.0 * math.sqrt(exact * (1.0 - exact) / n)

    @pytest.mark.parametrize(
        "n_samples,seed,error,name",
        [
            (10.5, 1, TypeError, "n_samples"),
            (True, 1, TypeError, "n_samples"),
            (0, 1, ValueError, "n_samples"),
            (100, -1, ValueError, "seed"),
            (100, 1.0, TypeError, "seed"),
            (100, "1", TypeError, "seed"),
        ],
    )
    def test_argument_validation(self, n_samples, seed, error, name):
        with pytest.raises(error, match=name):
            cdf_monte_carlo(WeightSeq(head=np.array([1.0])), 1.0, n_samples, seed)

    def test_numpy_integer_arguments(self):
        w = WeightSeq(head=np.array([1.0]))
        est = cdf_monte_carlo(w, 1.0, np.int64(1000), np.uint32(4))
        assert est.value == cdf_monte_carlo(w, 1.0, 1000, 4).value

    def test_seed_determinism(self):
        w = bridge_weights(50)
        a = cdf_monte_carlo(w, 0.15, 20000, seed=7)
        b = cdf_monte_carlo(w, 0.15, 20000, seed=7)
        assert a.value == b.value
        c = cdf_monte_carlo(w, 0.15, 20000, seed=8)
        assert c.value != a.value

    def test_bridge_against_inversion(self):
        w = bridge_weights(500)
        r = 1.0 / 6.0
        mc = cdf_monte_carlo(w, r, 200000, seed=11)
        gp = cdf_gil_pelaez(w, r)
        assert abs(mc.value - gp.value) < mc.error_bound + gp.error_bound

    @staticmethod
    def _normals_drawn(monkeypatch, w, r, n_samples):
        """Normals the shard generators of one call hand out."""
        drawn = []
        real_map = quadform._sharded_map

        class Counting:
            def __init__(self, rng):
                self.rng = rng

            def standard_normal(self, *args, **kwargs):
                out = self.rng.standard_normal(*args, **kwargs)
                drawn.append(out.size)
                return out

        def counting_map(fn, seed, sizes):
            return real_map(lambda rng, n: fn(Counting(rng), n), seed, sizes)

        monkeypatch.setattr(quadform, "_sharded_map", counting_map)
        cdf_monte_carlo(w, r, n_samples, seed=9)
        return sum(drawn)

    def test_left_tail_draws_few_normals(self, monkeypatch):
        # near P = 0.1 most samples reach r within the first few dozen
        # weights and draw no more
        w, n = bridge_weights(300), 40000
        assert cdf_gil_pelaez(w, 0.0457).value == pytest.approx(0.1, abs=0.002)
        assert self._normals_drawn(monkeypatch, w, 0.0457, n) <= 0.25 * n * w.head.size

    def test_unreached_radius_draws_every_normal(self, monkeypatch):
        w, n = bridge_weights(300), 4001
        assert self._normals_drawn(monkeypatch, w, 1e3, n) == n * w.head.size

    @pytest.mark.parametrize("r,p", [(0.02446, 0.01), (1.1675, 0.999)])
    def test_exit_rates_at_both_extremes(self, r, p):
        # almost every sample exits after the first chunk at P = 0.01, and
        # almost none at P = 0.999
        w, n = bridge_weights(300), 100000
        gp = cdf_gil_pelaez(w, r)
        assert gp.value == pytest.approx(p, rel=0.01)
        mc = cdf_monte_carlo(w, r, n, seed=17)
        assert abs(mc.value - gp.value) <= 5.0 * math.sqrt(gp.value * (1.0 - gp.value) / n) + gp.error_bound


class TestInterMethodAgreement:
    @pytest.mark.parametrize("r", [0.05, 1.0 / 6.0, 0.4])
    def test_three_backends_agree(self, r):
        w = bridge_weights(300)
        gp = cdf_gil_pelaez(w, r)
        sp = cdf_saddlepoint(w, r)
        mc = cdf_monte_carlo(w, r, 200000, seed=3)
        assert abs(gp.value - mc.value) <= gp.error_bound + mc.error_bound
        assert abs(sp.value - gp.value) <= sp.error_bound + gp.error_bound
        assert abs(sp.value - mc.value) <= sp.error_bound + mc.error_bound


class TestTailShift:
    def test_shift_moves_value_down(self):
        head = bridge_weights(300).head
        plain = cdf_gil_pelaez(WeightSeq(head=head), 0.1)
        shifted = cdf_gil_pelaez(WeightSeq(head=head, tail_sum_bound=0.01), 0.1)
        assert shifted.value < plain.value
        # the reported error bound covers the shift sensitivity
        assert shifted.error_bound >= plain.value - shifted.value - 1e-6

    @pytest.mark.parametrize("frac", [0.5, 1.0])
    def test_ball_below_shift(self, frac):
        # r <= tail_sum_bound: the value is 0 and the error bound is the
        # head's own F(r) at most: its sum plus that sum's bound
        w = wiener_weights(300)
        r = frac * w.tail_sum_bound
        est = cdf_gil_pelaez(w, r)
        assert est.value == 0.0
        assert est.log_value == -math.inf
        value, err = quadform._midpoint_value(w._evaluator, r)
        assert est.error_bound == max(value + err, 0.0)

    # the README's weights file: 200 bridge weights with tail bound 5e-4
    README = WeightSeq(head=1.0 / (np.pi * np.arange(1, 201)) ** 2, tail_sum_bound=5e-4)
    README_RADII = tuple(0.0025 * 2.0**j for j in range(7))

    @pytest.mark.parametrize("r", README_RADII)
    def test_gil_pelaez_bound_spans_the_shift(self, r):
        # the truth lies in [F(r - tail), F(r)] of the head, and the bound
        # reaches both ends from the reported value
        w = self.README
        est = cdf_gil_pelaez(w, r)
        assert _quad_cdf(w.head, r - w.tail_sum_bound) - est.value >= -est.error_bound
        assert _quad_cdf(w.head, r) - est.value <= est.error_bound

    def test_gil_pelaez_readme_bound(self):
        # at r = 0.0025 the value is 0 within its bound, and the tail term
        # no longer counts the main sum's error twice (1.1e-9 before)
        est = cdf_gil_pelaez(self.README, 0.0025)
        assert est.value == 0.0
        assert est.error_bound <= quadform.GIL_PELAEZ_TOL

    @pytest.mark.parametrize("r", README_RADII)
    def test_saddlepoint_bound_covers_the_shift(self, r):
        # the value sits at r - tail; the bound reaches the head's own value
        # at r (at r = 0.0025 that gap is 1.3e-18, and the old factor
        # 1 - exp(-|s| tail) gave a bound of 3.0e-22)
        w = self.README
        est = cdf_saddlepoint(w, r)
        at_r = cdf_saddlepoint(WeightSeq(head=w.head), r).value
        assert at_r - est.value <= est.error_bound

    @pytest.mark.parametrize(
        "n,tail,r,bound",
        [(50, 0.05, 0.06, None), (50, 0.05, 0.0502, 1.0), (2000, 0.01, 0.0101, 0.0)],
        ids=["capped", "past_overflow", "underflow"],
    )
    def test_saddlepoint_shift_term_capped(self, n, tail, r, bound):
        # a wide tail on a short head: |s| tail is 42 at r = 0.06 and 6,000
        # at 0.0502, where expm1 alone would overflow; the term stays at
        # 1 - value, and is 0 where the value underflows (log P = -842)
        est = cdf_saddlepoint(WeightSeq(head=bridge_weights(n).head, tail_sum_bound=tail), r)
        if bound is None:
            assert 0.99 < est.error_bound <= 1.0
        else:
            assert est.error_bound == bound

    @pytest.mark.parametrize("r", [0.4, 0.5])
    def test_saddlepoint_ball_below_shift(self, r):
        # r <= tail_sum_bound: the value is 0, and the error bound is the
        # shift sensitivity, the head's own Lugannani-Rice value at r, near
        # its exact P{Q < r} (0.2445 at r = 0.4)
        head = np.array([1.0, 0.5])
        est = cdf_saddlepoint(WeightSeq(head=head, tail_sum_bound=0.5), r)
        assert est.value == 0.0
        assert est.log_value == -math.inf
        assert est.error_bound == cdf_saddlepoint(WeightSeq(head=head), r).value
        assert est.error_bound == pytest.approx(cdf_gil_pelaez(WeightSeq(head=head), r).value, rel=0.05)

    # a short head with a wide tail, so that many draws fall in [r - tail, r)
    SHORT = WeightSeq(head=bridge_weights(3).head, tail_sum_bound=0.05)

    def test_monte_carlo_reports_shift(self):
        # the value counts the draws below r - tail; the error bound adds
        # the share of the same draws in [r - tail, r) to 3 SE
        w, r, n = self.SHORT, 0.15, 20000
        est = cdf_monte_carlo(w, r, n, seed=5)
        below, below_r = _layout_count(w.head, r, n, seed=5, tail=w.tail_sum_bound)
        shifted = below_r - below
        assert shifted > 0
        p = below / n
        assert est.value == p
        assert est.error_bound == pytest.approx(3.0 * math.sqrt(p * (1.0 - p) / n) + shifted / n, rel=1e-12)

    @pytest.mark.parametrize("frac", [0.5, 1.0])
    def test_monte_carlo_ball_below_shift(self, frac):
        # r <= tail_sum_bound: the value is 0, as from Gil-Pelaez, and the
        # error bound is 3/n plus the share of draws below r
        w, n = self.SHORT, 20000
        r = frac * w.tail_sum_bound
        est = cdf_monte_carlo(w, r, n, seed=5)
        below, below_r = _layout_count(w.head, r, n, seed=5, tail=w.tail_sum_bound)
        assert below == 0 and below_r > 0
        assert est.value == 0.0
        assert est.log_value == -math.inf
        assert est.error_bound == pytest.approx(3.0 / n + below_r / n, rel=1e-12)

    def test_kl_consistency_pathwise(self):
        # pathwise oracle: ||B||^2 simulated from Brownian bridge paths on a
        # fine time grid, independent of the eigenvalue route
        rng = np.random.Generator(np.random.PCG64(123))
        m = 2048
        dt = 1.0 / m
        r = 1.0 / 6.0
        count = 0
        total = 200000
        block = 2000
        done = 0
        while done < total:
            b = min(block, total - done)
            incr = rng.standard_normal((b, m)) * math.sqrt(dt)
            w_path = np.cumsum(incr, axis=1)
            t_grid = (np.arange(1, m + 1)) * dt
            bridge_path = w_path - w_path[:, -1:] * t_grid[None, :]
            norm2 = (bridge_path**2).sum(axis=1) * dt
            count += int(np.count_nonzero(norm2 < r))
            done += b
        empirical = count / total
        est = cdf_gil_pelaez(bridge_weights(500), r)
        se = math.sqrt(empirical * (1 - empirical) / total)
        # 3 MC standard errors plus an O(dt) discretization allowance
        assert abs(empirical - est.value) < 3 * se + 0.004


class TestDistortion:
    def test_identity(self):
        w = bridge_weights(100)
        assert distortion_constant(w, w) == 1.0

    def test_scaled_sequence_diverges(self):
        w = bridge_weights(200)
        scaled = WeightSeq(head=1.3 * w.head)
        with pytest.raises(NumericError):
            distortion_constant(scaled, w)

    def test_wiener_vs_bridge_diverges(self):
        # log-product of (k/(k-1/2))^2 grows like the harmonic series; the
        # N vs N/2 drift plateaus at ~ln 2 and must be flagged
        n = 20000
        k = np.arange(1, n + 1)
        num = WeightSeq(head=1.0 / ((k - 0.5) * np.pi) ** 2)
        den = WeightSeq(head=1.0 / (k * np.pi) ** 2)
        with pytest.raises(NumericError):
            distortion_constant(num, den)

    def test_convergent_pair_closed_form(self):
        # num_k/den_k = 1 + 1/k^2 and prod (1 + 1/k^2) = sinh(pi)/pi
        n = 200000
        k = np.arange(1, n + 1)
        den = 1.0 / (np.pi * k) ** 2
        num = den * (1.0 + 1.0 / k**2)
        val = distortion_constant(WeightSeq(head=num), WeightSeq(head=den))
        assert val == pytest.approx(math.sqrt(math.sinh(math.pi) / math.pi), rel=1e-4)


class TestWeightIO:
    def test_roundtrip(self, tmp_path):
        w = WeightSeq(head=np.array([0.5, 0.25, 0.1]), tail_sum_bound=0.01, label="demo")
        path = tmp_path / "w.csv"
        write_weights(path, w)
        back = read_weights(path)
        np.testing.assert_array_equal(back.head, w.head)
        assert back.tail_sum_bound == w.tail_sum_bound
        assert back.label == "demo"

    def test_validation(self):
        with pytest.raises(ValueError):
            WeightSeq(head=np.array([0.1, 0.5]))
        with pytest.raises(ValueError):
            WeightSeq(head=np.array([0.1, -0.5]))
        with pytest.raises(ValueError):
            WeightSeq(head=np.array([]))
        with pytest.raises(ValueError):
            WeightSeq(head=np.array([1.0]), tail_sum_bound=-1.0)

    @given(
        st.lists(st.floats(min_value=1e-6, max_value=1.0), min_size=1, max_size=20),
        st.sampled_from([math.nan, math.inf]),
        st.integers(min_value=0),
    )
    def test_non_finite_head_rejected(self, values, bad, pos):
        head = sorted(values, reverse=True)
        head[pos % len(head)] = bad
        with pytest.raises(ValueError):
            WeightSeq(head=np.array(head))

    @given(st.sampled_from([math.nan, math.inf]))
    def test_non_finite_tail_rejected(self, bad):
        # a nan tail used to reach cdf_monte_carlo and come back as 0 +- 3/n
        with pytest.raises(ValueError):
            WeightSeq(head=np.array([0.5, 0.25]), tail_sum_bound=bad)

    @given(st.sampled_from([math.nan, math.inf]))
    def test_non_finite_r_rejected(self, r):
        # a nan r used to come back from cdf_monte_carlo as 0 +- 3/n
        w = WeightSeq(head=np.array([0.5, 0.25]))
        for cdf in (cdf_gil_pelaez, cdf_saddlepoint, lambda w, r: cdf_monte_carlo(w, r, 10, 0)):
            with pytest.raises(ValueError, match="r must be positive and finite"):
                cdf(w, r)


def _shard_rng(seed, shard):
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(entropy=seed, spawn_key=(shard,))))


def _layout_count(mu, r, n_samples, seed, tail=0.0, shards=16, first_chunk=16, max_rows=4096, block=1 << 17):
    """Monte Carlo counts below r - tail and below r, written out as one
    serial loop over the documented layout: shards, row blocks of
    min(max_rows, block // widest chunk) samples, and column chunks of the
    weights 16, 32, 64, ... wide, each drawn for the samples still below r
    only."""
    chunks, start = [], 0
    while start < mu.size:
        chunks.append(mu[start : 2 * start + first_chunk])
        start = 2 * start + first_chunk
    rows = min(max_rows, block // max(c.size for c in chunks))
    base, rem = divmod(n_samples, shards)
    below = below_r = 0
    for shard in range(shards):
        rng = _shard_rng(seed, shard)
        n = base + (1 if shard < rem else 0)
        for done in range(0, n, rows):
            q = np.zeros(min(rows, n - done))
            for chunk in chunks:
                q = q[q < r]
                xi = rng.standard_normal((q.size, chunk.size))
                q = q + (xi * xi) @ chunk
            below += int(np.count_nonzero(q < r - tail))
            below_r += int(np.count_nonzero(q < r))
    return below, below_r


def _layout_draw(fam, rng, shape):
    """Samples from F(., theta0), written out independently of the library:
    standard normals from the generator's ziggurat, exponentials by inverse
    CDF."""
    if fam.family == "exponential_rate":
        return -np.log1p(-rng.random(shape)) / fam.theta0[0]
    z = rng.standard_normal(shape)
    return fam.theta0[0] + (z if fam.family == "normal_location" else fam.theta0[1] * z)


def _layout_omega2(fam, n, reps, seed, block=8192):
    """The omega^2 replications, written out as one serial loop over the
    documented shard layout."""
    centers = (2.0 * np.arange(1, n + 1) - 1.0) / (2.0 * n)
    out = np.empty(reps)
    pos = shard = 0
    while pos < reps:
        b = min(block, reps - pos)
        t = durbin._mle_transform(fam, _layout_draw(fam, _shard_rng(seed, shard), (b, n)))
        t.sort(axis=1)
        out[pos : pos + b] = ((t - centers) ** 2).sum(axis=1) + 1.0 / (12.0 * n)
        pos += b
        shard += 1
    return out


@pytest.fixture(params=[None, "1", "2"], ids=["threads_unset", "threads_1", "threads_2"])
def threads(request, monkeypatch):
    if request.param is None:
        monkeypatch.delenv("SMALLBALL_THREADS", raising=False)
    else:
        monkeypatch.setenv("SMALLBALL_THREADS", request.param)
    return request.param


def _pin_cores(monkeypatch, cores):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cores)), raising=False)


class TestThreading:
    def test_thread_count_does_not_change_result(self, monkeypatch):
        # shard counts are integers, so the reduction is order-free and the
        # worker pool size must not matter
        w = bridge_weights(40)
        monkeypatch.setenv("SMALLBALL_THREADS", "1")
        serial = cdf_monte_carlo(w, 0.2, 50000, seed=13)
        monkeypatch.setenv("SMALLBALL_THREADS", "4")
        threaded = cdf_monte_carlo(w, 0.2, 50000, seed=13)
        assert serial.value == threaded.value

    @pytest.mark.parametrize(
        "k,n_samples,r,tail",
        [pytest.param(40, n, 0.15, 0.002, id=str(n)) for n in (1, 15, 16, 17, 40001)]
        + [
            # with 300 weights each shard's 2500 draws span several row blocks
            pytest.param(300, 40000, 0.15, 0.002, id="k300-40000"),
            # over 80 % of the draws reach r within the first chunk
            pytest.param(300, 40000, 0.03, 0.002, id="k300-left-tail"),
            # a head no wider than the first chunk: one chunk per row block
            pytest.param(1, 40001, 0.15, 0.002, id="k1-40001"),
            # tail_sum_bound >= r: the value is 0, the counts below r remain
            pytest.param(40, 40001, 0.15, 0.15, id="tail-above-r"),
        ],
    )
    def test_monte_carlo_matches_layout(self, threads, k, n_samples, r, tail):
        w = WeightSeq(head=bridge_weights(k).head, tail_sum_bound=tail)
        est = cdf_monte_carlo(w, r, n_samples, seed=3)
        below, below_r = _layout_count(w.head, r, n_samples, seed=3, tail=tail)
        p = below / n_samples
        assert est.value == p
        se = math.sqrt(max(p * (1.0 - p), 1.0 / n_samples) / n_samples)
        assert est.error_bound == pytest.approx(3.0 * se + (below_r - below) / n_samples, rel=1e-12)

    @pytest.mark.parametrize(
        "n,reps",
        [pytest.param(20, r, id=str(r)) for r in (1, 8191, 8192, 8193, 16385)]
        # at n = 500 a shard works through its replications in row blocks
        + [pytest.param(500, r, id=f"n500-{r}") for r in (300, 16385)],
    )
    @pytest.mark.parametrize("family", ["normal_location", "exponential_rate", "normal_location_scale"])
    def test_omega2_matches_layout(self, threads, family, n, reps):
        fam = getattr(durbin, family)()
        stats = simulate_omega2(fam, n, reps, seed=11)
        assert stats.tobytes() == _layout_omega2(fam, n, reps, seed=11).tobytes()

    @pytest.mark.parametrize(
        "env,cores,shards,pool",
        [
            (None, 3, 16, 3),
            (None, 3, 2, 2),
            (None, 1, 16, None),
            ("", 3, 16, 3),
            ("1", 3, 16, None),
            ("8", 1, 16, 8),
            ("8", 1, 2, 2),
        ],
    )
    def test_worker_count(self, monkeypatch, env, cores, shards, pool):
        # unset or empty: one thread per available core; never more threads
        # than shards, and no pool for a single worker
        if env is None:
            monkeypatch.delenv("SMALLBALL_THREADS", raising=False)
        else:
            monkeypatch.setenv("SMALLBALL_THREADS", env)
        _pin_cores(monkeypatch, cores)
        pools = []
        real_pool = quadform.ThreadPoolExecutor

        def spy_pool(max_workers):
            pools.append(max_workers)
            return real_pool(max_workers=max_workers)

        monkeypatch.setattr(quadform, "ThreadPoolExecutor", spy_pool)
        sizes = list(range(1, shards + 1))
        assert quadform._sharded_map(lambda rng, n: n, seed=0, sizes=sizes) == sizes
        assert pools == ([] if pool is None else [pool])

    def test_worker_count_without_affinity(self, monkeypatch):
        monkeypatch.delenv("SMALLBALL_THREADS", raising=False)
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 5)
        assert quadform._worker_count(16) == 5
        monkeypatch.setattr(os, "cpu_count", lambda: None)
        assert quadform._worker_count(16) == 1

    @pytest.mark.parametrize("bad", ["abc", "0", "-2", "1.5"])
    def test_bad_thread_count_rejected(self, monkeypatch, bad):
        monkeypatch.setenv("SMALLBALL_THREADS", bad)
        with pytest.raises(ValueError, match=f"SMALLBALL_THREADS must be a positive integer, got '{bad}'"):
            cdf_monte_carlo(bridge_weights(5), 0.2, 100, seed=1)


def _peak_traced_mb(fn):
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()


class TestSamplerMemory:
    """Each worker holds O(SAMPLER_BLOCK) floats, whatever the shard size.

    The default worker count follows the cores, so they are pinned to 3 to
    keep the bound independent of the machine."""

    BOUND_MB = 6.0

    def test_omega2_peak(self, monkeypatch, threads):
        _pin_cores(monkeypatch, 3)
        peak = _peak_traced_mb(lambda: simulate_omega2(durbin.normal_location(), 500, 16385, seed=5))
        assert peak < self.BOUND_MB

    def test_monte_carlo_peak(self, monkeypatch, threads):
        _pin_cores(monkeypatch, 3)
        w = WeightSeq(head=bridge_weights(300).head)
        peak = _peak_traced_mb(lambda: cdf_monte_carlo(w, 0.15, 40000, seed=5))
        assert peak < self.BOUND_MB


class TestInversionMonotonicity:
    def test_cdf_monotone_in_r(self):
        w = bridge_weights(120)
        rs = (0.02, 0.05, 0.1, 1.0 / 6.0, 0.3, 0.6)
        vals = [cdf_gil_pelaez(w, r).value for r in rs]
        assert all(a < b for a, b in zip(vals, vals[1:]))


def _quad_cdf(mu, r):
    """P{sum mu_k xi_k^2 < r} by scipy's quad over (0, inf) on the
    Gil-Pelaez integrand, with theta0 and rho summed directly over the
    weights: an oracle that shares neither the grid nor the truncation of
    the midpoint sum."""

    def integrand(t):
        z = 2.0 * mu * t
        theta = 0.5 * float(np.sum(np.arctan(z)))
        log_rho = 0.25 * float(np.sum(np.log1p(z * z)))
        return math.sin(theta - t * r) * math.exp(-log_rho) / t

    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        total, _ = scipy_quad(integrand, 0.0, math.inf, epsabs=1e-13, epsrel=0.0, limit=5000)
    return 0.5 - total / math.pi


def _closed_form_weights(delta, n=300):
    # mu_k = (pi (k + delta))^-2 with sum_{k>n} mu_k <= 1 / (pi^2 (n + delta))
    k = np.arange(1, n + 1)
    return WeightSeq(head=1.0 / (np.pi * (k + delta)) ** 2, tail_sum_bound=1.0 / (np.pi**2 * (n + delta)))


CURVE_CASES = [("bridge", r) for r in (0.02, 0.03, 0.05, 0.08, 0.12, 0.2, 0.3, 0.5, 0.8)] + [
    ("wiener", r) for r in (0.03, 0.05, 0.08, 0.12, 0.2, 0.3, 0.5, 0.8, 1.2)
]
DURBIN_FAMILIES = ("normal_location", "normal_location_scale", "exponential_rate")


@pytest.fixture(scope="module")
def durbin_limit_weights(gl1000):
    out = {}
    for name in DURBIN_FAMILIES:
        spec = nystrom_spectrum(durbin_kernel_spec(getattr(durbin, name)(), gl1000), gl1000, 300)
        out[name] = WeightSeq(head=spec.eigenvalues[:300])
    return out


def _ruben_log_cdf(mu, r, rtol=1e-15, max_terms=20_000):
    """log P{sum mu_j xi_j^2 < r} for a finite weight set by Ruben's
    chi-square mixture (Ruben 1962; Kotz, Johnson & Boyd 1967), and the
    bound on its dropped terms relative to the value.  With beta = min mu_j,

        P{Q < r} = sum_k c_k P{chi2_{N+2k} < r / beta},
        c_0 = prod_j (beta / mu_j)^(1/2),  c_k = (1/2k) sum_{i<k} d_{k-i} c_i,
        d_m = sum_j (1 - beta / mu_j)^m.

    Every term is positive, sum_k c_k = 1, and the chi-square CDF falls as
    its degrees grow, so the terms from K on sum to at most
    (1 - sum_{k<K} c_k) P{chi2_{N+2K} < r / beta}.  The c_k are carried
    divided by c_0 (e^-196 for 200 bridge weights), so the unused mass is
    1 / c_0 minus their sum, widened by its rounding, and the series stops
    once that remainder is below ``rtol`` of the scaled sum."""
    mu = np.asarray(mu, dtype=float)
    beta = float(mu.min())
    a, half_x = 0.5 * mu.size, 0.5 * r / beta
    log_c0 = 0.5 * float(np.sum(np.log(beta / mu)))
    mass = math.exp(-log_c0)
    q = 1.0 - beta / mu
    q_m = q.copy()
    d, c = np.empty(max_terms), np.empty(max_terms)
    c[0] = 1.0
    total, used = float(gammainc(a, half_x)), 1.0
    for k in range(1, max_terms):
        d[k - 1] = q_m.sum()
        q_m *= q
        c[k] = float(d[k - 1 :: -1] @ c[:k]) / (2 * k)
        total += c[k] * float(gammainc(a + k, half_x))
        used += c[k]
        unused = max(mass - used, 0.0) + (k + abs(log_c0) + 2) * math.ulp(1.0) * mass
        remainder = unused * float(gammainc(a + k + 1, half_x))
        if remainder <= rtol * total:
            return log_c0 + math.log(total), remainder / total
    raise AssertionError(f"Ruben's series did not converge in {max_terms} terms")


def _mp_gil_pelaez(mu, r):
    """P{sum mu_j xi_j^2 < r} from the Gil-Pelaez integral in 30-digit
    mpmath, and mpmath's estimate of its quadrature error:

        F(r) = 1/2 - (1/pi) int_0^inf Im g(t) dt,  g(t) = e^(-itr) phi(t) / t,
        phi(t) = prod_j (1 - 2i mu_j t)^(-1/2).

    g is analytic for Re t > 0, where no branch point -i / (2 mu_j) lies,
    and decays in the lower half plane, so its integral from
    T = 1 / (2 mu_1) to infinity equals the one down the line T - iy,
    y >= 0, on which the oscillation becomes the decay e^(-yr); that path
    is split at the heights of the branch points."""
    import mpmath

    with mpmath.workdps(30):
        two_mu = [2 * mpmath.mpf(float(m)) for m in mu]
        r = mpmath.mpf(float(r))

        def g(t):
            phi = mpmath.mpc(1)
            for a in two_mu:
                phi /= mpmath.sqrt(1 - 1j * a * t)
            return mpmath.expj(-t * r) * phi / t

        top = 1 / max(two_mu)
        head, head_err = mpmath.quad(lambda t: mpmath.im(g(t)), [0, top], error=True)
        knots = sorted(1 / a for a in two_mu)
        tail, tail_err = mpmath.quad(lambda y: g(top - 1j * y), [0, *knots, mpmath.inf], error=True)
        value = 0.5 - (head + mpmath.im(-1j * tail)) / mpmath.pi
        return value, (head_err + tail_err) / mpmath.pi


def _power_weights(proc, n):
    # the bridge's (pi k)^-2 and Wiener's (pi (k - 1/2))^-2, as finite sets
    k = np.arange(1, n + 1) - {"bridge": 0.0, "wiener": 0.5}[proc]
    return 1.0 / (np.pi * k) ** 2


# r / sum mu at which the oracle is summed; for N = 200 nearer the mean the
# series needs about 10^4 terms
ORACLE_CASES = [
    (proc, n, frac)
    for proc in ("bridge", "wiener")
    for n, fracs in ((10, (0.3, 0.1, 0.03, 0.01, 0.005)), (50, (0.3, 0.1, 0.03, 0.01, 0.005)), (200, (0.03, 0.01, 0.005)))
    for frac in fracs
]


class TestRubenOracle:
    """Ruben's series is exact to its remainder bound at every depth; the
    evaluators' error bounds are checked against it on finite bridge and
    Wiener weight sets."""

    @pytest.fixture(scope="class")
    def exact(self):
        out = {}
        for proc, n, frac in ORACLE_CASES:
            mu = _power_weights(proc, n)
            out[proc, n, frac] = _ruben_log_cdf(mu, frac * mu.sum())
        return out

    @pytest.mark.parametrize("proc", ["bridge", "wiener"])
    @pytest.mark.parametrize("frac", [0.3, 0.03, 0.005])
    def test_matches_mpmath_gil_pelaez(self, exact, proc, frac):
        import mpmath

        mu = _power_weights(proc, 10)
        ref, quad_err = _mp_gil_pelaez(mu, frac * mu.sum())
        assert quad_err < 1e-25
        log_value, remainder = exact[proc, 10, frac]
        assert remainder <= 1e-15
        assert abs(log_value - float(mpmath.log(ref))) <= 1e-13

    @pytest.mark.parametrize("proc,n,frac", ORACLE_CASES)
    def test_gil_pelaez_bound_contains_oracle(self, exact, proc, n, frac):
        mu = _power_weights(proc, n)
        est = cdf_gil_pelaez(WeightSeq(head=mu), frac * mu.sum())
        assert abs(est.value - math.exp(exact[proc, n, frac][0])) <= est.error_bound

    @pytest.mark.parametrize("proc,n,frac", ORACLE_CASES)
    def test_saddlepoint_log_error_within_its_bound(self, exact, proc, n, frac):
        # the log error read +2.4e-3 to +6.7e-2 on these cases
        mu = _power_weights(proc, n)
        est = cdf_saddlepoint(WeightSeq(head=mu), frac * mu.sum())
        assert abs(est.log_value - exact[proc, n, frac][0]) <= math.log1p(est.error_bound / est.value)


class TestPanelOracle:
    """The reported error bound contains the value of ``_quad_cdf``, and on
    300-weight heads it stays within GIL_PELAEZ_TOL."""

    @pytest.mark.parametrize("proc,r", CURVE_CASES)
    def test_cdf_curve_radii(self, monkeypatch, proc, r):
        # with the tail: F(r - tail) of the head, and the shift bound; the
        # inversion itself makes no scalar quad call
        quad_calls = []
        monkeypatch.setattr("scipy.integrate.quad", lambda *args, **kwargs: quad_calls.append(args[1:3]))
        w = _closed_form_weights({"bridge": 0.0, "wiener": -0.5}[proc])
        est = cdf_gil_pelaez(w, r)
        assert quad_calls == []
        assert abs(est.value - _quad_cdf(w.head, r - w.tail_sum_bound)) <= est.error_bound

    @pytest.mark.parametrize("proc,r", CURVE_CASES)
    def test_cdf_curve_radii_without_tail(self, proc, r):
        w = WeightSeq(head=_closed_form_weights({"bridge": 0.0, "wiener": -0.5}[proc]).head)
        est = cdf_gil_pelaez(w, r)
        assert abs(est.value - _quad_cdf(w.head, r)) <= est.error_bound <= quadform.GIL_PELAEZ_TOL

    @pytest.mark.parametrize("family", DURBIN_FAMILIES)
    def test_durbin_limit_at_q10(self, durbin_limit_weights, family):
        w = durbin_limit_weights[family]
        q10 = brentq(lambda r: cdf_gil_pelaez(w, r).value - 0.1, 0.1 * w.total, w.total, xtol=1e-6)
        est = cdf_gil_pelaez(w, q10)
        assert abs(est.value - _quad_cdf(w.head, q10)) <= est.error_bound <= quadform.GIL_PELAEZ_TOL

    @pytest.mark.parametrize("proc,r", CURVE_CASES)
    def test_tail_shares_the_t_grid(self, monkeypatch, proc, r):
        # F(r - tail) and the shift bound F(r) read one grid: a tailed call
        # evaluates theta0 and rho on no more nodes than a call at r alone
        nodes = []
        real = quadform._Evaluator.phase

        def counting(ev, t):
            nodes[-1] += np.size(t)
            return real(ev, t)

        monkeypatch.setattr(quadform._Evaluator, "phase", counting)
        w = _closed_form_weights({"bridge": 0.0, "wiener": -0.5}[proc])
        for weights in (w, WeightSeq(head=w.head)):
            nodes.append(0)
            cdf_gil_pelaez(weights, r)
        assert nodes[0] <= nodes[1]

    def test_node_cap_reaches_convergence_check(self):
        # one weight at r = 1e-3: the Kusmin-Landau bound at 2^20 nodes is
        # about 4e-5, which the inversion's convergence check rejects
        w = WeightSeq(head=np.array([1.0]))
        with pytest.raises(NumericError, match="did not converge"):
            cdf_gil_pelaez(w, 1e-3)
        assert w._evaluator._grid.theta.size == quadform._MAX_NODES


class TestPhaseTables:
    """The midpoint grid each evaluator keeps across calls: theta0 and g at
    its nodes."""

    @pytest.fixture(scope="class")
    def warmed(self):
        # one weight sequence per (process, tail) that has served every
        # curve radius once
        out = {}
        for proc, delta in (("bridge", 0.0), ("wiener", -0.5)):
            w = _closed_form_weights(delta)
            for weights in (w, WeightSeq(head=w.head)):
                for _, r in (case for case in CURVE_CASES if case[0] == proc):
                    cdf_gil_pelaez(weights, r)
                out[proc, weights.tail_sum_bound > 0] = weights
        return out

    @pytest.mark.parametrize("tailed", [True, False], ids=["tailed", "untailed"])
    @pytest.mark.parametrize("proc,r", CURVE_CASES)
    def test_warm_call_matches_fresh_copy(self, warmed, proc, r, tailed):
        w = warmed[proc, tailed]
        fresh = WeightSeq(head=w.head, tail_sum_bound=w.tail_sum_bound)
        warm = cdf_gil_pelaez(w, r)
        cold = cdf_gil_pelaez(fresh, r)
        assert (warm.value, warm.log_value, warm.error_bound) == (cold.value, cold.log_value, cold.error_bound)

    def test_repeat_call_evaluates_no_node(self, monkeypatch):
        # neither a grid node nor a tilt of the alias bound is evaluated again
        w = _closed_form_weights(-0.5)
        first = cdf_gil_pelaez(w, 0.3)
        calls = []

        def counted(name):
            real = getattr(quadform._Evaluator, name)

            def call(ev, t):
                calls.append((name, np.size(t)))
                return real(ev, t)

            return call

        for name in ("phase", "cgf"):
            monkeypatch.setattr(quadform._Evaluator, name, counted(name))
        assert cdf_gil_pelaez(w, 0.3) == first
        assert calls == []

    @pytest.mark.parametrize("proc", ["bridge", "wiener"])
    def test_one_grid_serves_every_radius(self, proc):
        # a 300-weight head meets the convexity cut at the curve radii: a
        # grid that holds its cut never grows, whatever the radii after it,
        # and no call reads a node past cut + 1, here made NaN
        w = _closed_form_weights({"bridge": 0.0, "wiener": -0.5}[proc])
        for _, r in (case for case in CURVE_CASES if case[0] == proc):
            cdf_gil_pelaez(w, r)
        grid = w._evaluator._grid
        assert grid.cut is not None
        assert grid.cut + 2 <= grid.theta.size == grid.g.size < 6000
        theta, g = grid.theta.copy(), grid.g.copy()
        theta[grid.cut + 2 :] = g[grid.cut + 2 :] = np.nan
        grid = w._evaluator._grid = dataclasses.replace(grid, theta=theta, g=g)
        fresh = WeightSeq(head=w.head, tail_sum_bound=w.tail_sum_bound)
        for r in np.linspace(0.01, 3.0, 50) * w.total:
            assert cdf_gil_pelaez(w, r) == cdf_gil_pelaez(fresh, r)
            assert w._evaluator._grid is grid

    @pytest.mark.parametrize("proc", ["bridge", "wiener"])
    def test_cut_is_the_first_node_meeting_the_bound(self, proc):
        # the cut is exactly the first node whose convexity bound, through
        # the chord from the node below, meets half of GIL_PELAEZ_TOL
        w = _closed_form_weights({"bridge": 0.0, "wiener": -0.5}[proc])
        cdf_gil_pelaez(w, 0.01)
        grid = w._evaluator._grid
        k = np.arange(grid.theta.size)
        bound = quadform._convexity_bound(k, -np.log(grid.g * (k + 0.5)))
        met = np.flatnonzero(bound[:-1] <= 0.5 * math.pi * quadform.GIL_PELAEZ_TOL)
        assert met.size
        assert grid.cut == met[0] + 1

    def test_cold_call_evaluates_each_node_once(self, monkeypatch):
        # the calls that grow a grid to its cut pass phase each kept node
        # once, and no argument besides
        args = []
        real = quadform._Evaluator.phase

        def counting(ev, t):
            args.append(np.array(t))
            return real(ev, t)

        monkeypatch.setattr(quadform._Evaluator, "phase", counting)
        w = _closed_form_weights(0.0)
        for _, r in (case for case in CURVE_CASES if case[0] == "bridge"):
            cdf_gil_pelaez(w, r)
        grid = w._evaluator._grid
        assert grid.cut is not None
        nodes = np.concatenate(args)
        assert np.array_equal(nodes, (np.arange(grid.theta.size) + 0.5) * grid.step)

    def test_short_head_extends_the_kept_prefix(self):
        # three weights meet no convexity cut below 2^20 nodes: a smaller
        # radius grows the kept nodes, which keep their bits, and every
        # node has the bits of a fresh grid's
        w = WeightSeq(head=np.ones(3))
        cdf_gil_pelaez(w, 6.0)
        kept = w._evaluator._grid
        cdf_gil_pelaez(w, 1.0)
        grid = w._evaluator._grid
        assert grid.cut is None
        assert quadform._FIRST_NODES <= kept.theta.size < grid.theta.size
        assert np.array_equal(grid.theta[: kept.theta.size], kept.theta)
        assert np.array_equal(grid.g[: kept.g.size], kept.g)
        fresh = WeightSeq(head=np.ones(3))
        cdf_gil_pelaez(fresh, 1.0)
        assert np.array_equal(fresh._evaluator._grid.theta, grid.theta)
        assert np.array_equal(fresh._evaluator._grid.g, grid.g)

    def test_longer_grid_is_kept(self, monkeypatch):
        # while one call grows the grid, a second call on the same
        # evaluator grows it further than the first call needs: none of the
        # first call's shorter grids replaces the longer one
        w = WeightSeq(head=np.ones(3))
        cdf_gil_pelaez(w, 6.0)
        ev = w._evaluator
        real = quadform._grown
        longer = []

        def interleaved(ev, grid):
            if not longer:
                longer.append(real(ev, real(ev, real(ev, real(ev, grid)))))
            return real(ev, grid)

        monkeypatch.setattr(quadform, "_grown", interleaved)
        cdf_gil_pelaez(w, 1.0)
        assert ev._grid is longer[0]
        monkeypatch.undo()
        fresh = WeightSeq(head=np.ones(3))
        cdf_gil_pelaez(fresh, 1.0)
        n = min(fresh._evaluator._grid.theta.size, ev._grid.theta.size)
        assert np.array_equal(ev._grid.theta[:n], fresh._evaluator._grid.theta[:n])
        assert cdf_gil_pelaez(w, 1.0) == cdf_gil_pelaez(fresh, 1.0)

    def test_threads_share_the_stores(self):
        # more threads than cores build and grow one evaluator's grid at
        # once, with frequent switches: every result has the bits of a
        # fresh copy's, and so has the grid kept
        cases = [(_closed_form_weights(0.0), [r for proc, r in CURVE_CASES if proc == "bridge"]),
                 (WeightSeq(head=np.ones(3)), [6.0, 3.0, 1.5])]
        want = [[cdf_gil_pelaez(WeightSeq(head=w.head, tail_sum_bound=w.tail_sum_bound), r) for r in radii]
                for w, radii in cases]
        got = {}
        start = threading.Barrier(6)

        def work(j):
            start.wait(timeout=60)
            w, radii = cases[j % 2]
            got[j] = [cdf_gil_pelaez(w, r) for r in radii[j % 3 :] + radii[: j % 3]]

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            workers = [threading.Thread(target=work, args=(j,)) for j in range(6)]
            for t in workers:
                t.start()
            for t in workers:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in workers)
        assert len(got) == 6
        for j, results in got.items():
            expected = want[j % 2]
            assert results == expected[j % 3 :] + expected[: j % 3]
        for w, radii in cases:
            fresh = WeightSeq(head=w.head, tail_sum_bound=w.tail_sum_bound)
            cdf_gil_pelaez(fresh, min(radii))
            shared, own = w._evaluator._grid, fresh._evaluator._grid
            n = min(shared.theta.size, own.theta.size)
            assert np.array_equal(shared.theta[:n], own.theta[:n])
            assert np.array_equal(shared.g[:n], own.g[:n])
