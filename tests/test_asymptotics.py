import math
import types
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.special import betainc

from smallball import (
    AsymptoticForm,
    NumericError,
    PowerLawPhi,
    abel_reduce,
    differentiate_form,
    dll_asymptotic,
    dll_prefactor,
    dll_root,
    green_base_form,
    green_rate,
    naznik_asymptotic,
    naznik_form,
    naznik_params,
    theorem2_closed,
)
from smallball import asymptotics
from smallball.asymptotics import tilt_integrals


class TestNazNik:
    def test_wiener_constants(self):
        gamma, amp, coef = naznik_params(math.pi, -0.5, 2.0)
        assert gamma == pytest.approx(1.0, abs=1e-15)
        assert amp == pytest.approx(4.0 / math.sqrt(math.pi), abs=1e-12)
        assert coef == pytest.approx(0.125, abs=1e-15)

    def test_bridge_constants(self):
        gamma, amp, coef = naznik_params(math.pi, 0.0, 2.0)
        assert gamma == pytest.approx(0.0, abs=1e-15)
        assert amp == pytest.approx(2.0 * math.sqrt(2.0) / math.sqrt(math.pi), abs=1e-12)
        assert coef == pytest.approx(0.125, abs=1e-15)

    def test_theta_drops_out_at_gamma_zero(self):
        # C carries theta^(d gamma / 2), so gamma = 0 kills the dependence
        a = naznik_params(1.0, 0.0, 2.0)
        b = naznik_params(2.0, 0.0, 2.0)
        assert a.amplitude == pytest.approx(b.amplitude, rel=1e-14)

    def test_wiener_log_value(self):
        got = naznik_asymptotic(math.pi, -0.5, 2.0, 0.05)
        expected = math.log(4.0 / math.sqrt(math.pi)) + math.log(0.05) - 50.0
        assert got == pytest.approx(expected, abs=1e-12)

    def test_monotone_in_eps(self):
        vals = [naznik_asymptotic(math.pi, -0.5, 2.0, e) for e in (0.02, 0.05, 0.1, 0.5)]
        assert all(a < b for a, b in zip(vals, vals[1:]))

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            naznik_params(math.pi, -0.5, 1.0)
        with pytest.raises(ValueError):
            naznik_params(math.pi, -1.5, 2.0)
        with pytest.raises(ValueError):
            naznik_params(-1.0, 0.0, 2.0)

    @pytest.mark.parametrize("theta, delta, d", [(math.pi, 1e300, 2.0), (1e300, 0.0, 50.0)])
    def test_amplitude_underflow_is_numeric_error(self, theta, delta, d):
        # log C = -6.9e302 and -8436: exp underflows to 0, whose log was a
        # bare math domain error
        with pytest.raises(NumericError, match="amplitude .* underflows"):
            naznik_params(theta, delta, d)
        with pytest.raises(NumericError, match="underflows"):
            naznik_asymptotic(theta, delta, d, 0.05)

    def test_overflow_is_numeric_error(self):
        # coef = (d-1)/2 (pi / (d theta sin(pi/d)))^(d/(d-1)) for d just above
        # 1, and eps^(-2/(d-1)) at eps = 1e-300, exceed double precision
        with pytest.raises(NumericError, match="overflow"):
            naznik_params(math.pi, 0.0, 1.0000001)
        with pytest.raises(NumericError, match="overflow"):
            naznik_asymptotic(1e300, 0.0, 2.0, 1e-300)

    @given(st.sampled_from([math.nan, math.inf, -math.inf]), st.integers(min_value=0, max_value=3))
    def test_non_finite_input_rejected(self, bad, slot):
        args = [math.pi, -0.5, 2.0, 0.05]
        args[slot] = bad
        with pytest.raises(ValueError):
            naznik_asymptotic(*args)

    def test_form_agrees_with_log(self):
        form = naznik_form(math.pi, -0.5, 2.0)
        eps = 0.07
        assert form.log_evaluate(eps * eps) == pytest.approx(
            naznik_asymptotic(math.pi, -0.5, 2.0, eps), rel=1e-12
        )


# catalog members the tilted integrals are pinned on: bridge, Wiener, the
# d = 3 and d = 1.5 laws and an off-calibration (theta, delta, d)
_MEMBERS = [(math.pi, 0.0, 2.0), (math.pi, -0.5, 2.0), (1.0, 0.0, 3.0), (2.0, 0.5, 2.5), (1.0, 0.0, 1.5)]


def _integrate_scaled(h, phi, u):
    """int_1^inf h(u phi(t)) dt by adaptive scalar quad to 1e-12 relative:
    t = e^y on [1, t*] and t = t*/s on [t*, inf), t* the knee 2 u phi = 1
    floored at 2."""
    g = lambda t: h(u * phi(t))  # noqa: E731
    t_star = min(max((2.0 * u) ** (1.0 / phi.d) / phi.theta - phi.delta, 2.0), 1e300)
    inner, _ = quad(lambda y: g(math.exp(y)) * math.exp(y), 0.0, math.log(t_star), limit=400, epsabs=0, epsrel=1e-12)
    outer, _ = quad(lambda s: g(t_star / s) * t_star / (s * s), 0.0, 1.0, limit=400, epsabs=0, epsrel=1e-12)
    return inner + outer


# members at the edges of the closed forms: a = (d-1)/d -> 0 (d near 1),
# b = 1/d -> 0 (d = 40) and delta near -1
_EDGE_MEMBERS = [(1.0, 0.0, 1.1), (1.0, 0.0, 1.01), (1.0, -0.9, 1.05), (0.1, 3.0, 6.0), (1.0, 0.0, 40.0)]


class TestTiltIntegrals:
    @pytest.mark.parametrize("member", _MEMBERS + _EDGE_MEMBERS, ids=str)
    @pytest.mark.parametrize("u", [1e-3, 1.0, 1e3, 1e8, 1e15, 1e-10])
    def test_match_scalar_quad(self, member, u):
        spec = PowerLawPhi(*member)
        hs = (
            lambda x: -0.5 * math.log1p(2.0 * x),
            lambda x: -x / (1.0 + 2.0 * x),
            lambda x: 2.0 * x * x / (1.0 + 2.0 * x) ** 2,
        )
        got = tilt_integrals(spec, u)
        for h, value in zip(hs, got):
            assert value == pytest.approx(_integrate_scaled(h, spec, u), rel=1e-10, abs=0)

    @pytest.mark.parametrize("d", [1.05, 1.5, 2.0, 2.5, 3.0, 4.0, 10.0, 50.0])
    def test_incomplete_beta_matches_scipy_and_mpmath(self, d):
        # the four (p, q) pairs _tilt_pass reads, on x from 1e-300 to 1/2
        import mpmath

        a, b = (d - 1.0) / d, 1.0 / d
        xs = [*np.logspace(-300, -1, 31), *np.linspace(0.1, 0.5, 9)]
        for p, q in ((a, b), (a + 1.0, b), (b, a), (b, a + 1.0)):
            for x in map(float, xs):
                got = asymptotics._betainc(p, q, x)
                with mpmath.workdps(40):
                    ref = float(mpmath.betainc(p, q, 0, x, regularized=True))
                if ref < 1e-300:  # below the normal doubles
                    assert abs(got - ref) <= 1e-300
                    continue
                assert got == pytest.approx(ref, rel=1e-12, abs=0), (p, q, x)
                assert got == pytest.approx(float(betainc(p, q, x)), rel=1e-12, abs=0), (p, q, x)
        assert asymptotics._betainc(a, b, 0.0) == 0.0

    def test_log_f_matches_numpy_softplus(self):
        # ln f(x) = -ln(1 + 2x) / 2 on the math module, bit for bit what
        # numpy's logaddexp gives, across the branch at x = 1/2 and at the ends
        log_half = -math.log(2.0)
        log_xs = [*np.linspace(-800.0, 800.0, 16001), log_half, math.nextafter(log_half, 0.0),
                  math.nextafter(log_half, -math.inf), math.inf, -math.inf]
        for log_x in map(float, log_xs):
            want = float(-0.5 * np.logaddexp(0.0, math.log(2.0) + log_x))
            assert asymptotics._log_f(log_x).hex() == want.hex(), log_x

    @given(st.sampled_from([0.0, -1.0, math.inf, math.nan]))
    def test_bad_tilt_rejected(self, u):
        with pytest.raises(ValueError, match="tilt u"):
            tilt_integrals(PowerLawPhi(math.pi, 0.0, 2.0), u)


class TestDllRoot:
    def test_residual(self):
        spec = PowerLawPhi(theta=math.pi, delta=0.0, d=2.0)
        r = 0.01
        u = dll_root(spec, r)
        _, i1, _ = tilt_integrals(spec, u)
        assert abs(i1 + u * r) <= 1e-10 * u * r

    def test_monotone_in_r(self):
        spec = PowerLawPhi(theta=math.pi, delta=0.0, d=2.0)
        u1 = dll_root(spec, 0.001)
        u2 = dll_root(spec, 0.01)
        assert u1 > u2

    def test_scaling_with_r(self):
        # for d = 2 the tilt is the derivative of the exponent -1/(8r):
        # u(r) ~ (1/8) r^-2, so u r^2 stabilizes near 1/8 as r -> 0
        spec = PowerLawPhi(theta=math.pi, delta=0.0, d=2.0)
        scaled = [dll_root(spec, r) * r * r for r in (1e-2, 1e-3, 1e-4)]
        assert scaled[0] > 0
        assert abs(scaled[2] - 0.125) < abs(scaled[0] - 0.125)
        assert scaled[2] == pytest.approx(0.125, rel=0.02)


    def test_r_at_or_above_mass_rejected(self):
        # Wiener member: int_1^inf (pi (t - 1/2))^-2 dt = 2 / pi^2 ~ 0.2026
        spec = PowerLawPhi(theta=math.pi, delta=-0.5, d=2.0)
        assert dll_root(spec, 0.2) > 0
        for r in (2.0 / math.pi**2, 0.21, 1.0):
            with pytest.raises(ValueError, match="mass of phi.*0.202642"):
                dll_root(spec, r)
        with pytest.raises(ValueError, match="mass of phi"):
            dll_asymptotic(spec, 0.5)

    @pytest.mark.parametrize("delta", [-0.5, 0.0])
    @pytest.mark.parametrize("r", [2.5e-5, 1e-4, 1e-3])
    def test_no_tilt_integrated_twice(self, monkeypatch, delta, r):
        # each Newton step reads I1 and I2 of one pass, a bisection never
        # returns to a tilt it has seen, and dll_asymptotic reads I0 and I2
        # from the root's last pass: each tilt is evaluated once
        spec = PowerLawPhi(theta=math.pi, delta=delta, d=2.0)
        expected = dll_root(spec, r)
        dll_prefactor()
        tilts = []
        tilt_pass = asymptotics._tilt_pass

        def spy(phi, log_u):
            tilts.append(log_u)
            return tilt_pass(phi, log_u)

        monkeypatch.setattr(asymptotics, "_tilt_pass", spy)
        assert dll_root(spec, r) == expected
        root_tilts = list(tilts)
        assert root_tilts and len(set(root_tilts)) == len(root_tilts) <= 8
        assert math.exp(root_tilts[-1]) == expected
        tilts.clear()
        dll_asymptotic(spec, r)
        assert tilts == root_tilts

    @pytest.mark.parametrize("member, r", [((1.0, 0.0, 1.5), 1e-7), ((1.0, 0.0, 3.0), 0.5 * (1.0 - 1e-6))],
                             ids=["log_u_50", "r_near_mass"])
    def test_newton_stops_at_the_rounding_floor(self, monkeypatch, member, r):
        # G rounds to a few ulp of |log u| + |log r|: at u ~ 7e21 a Newton
        # step at that floor exceeds 1e-14, and near the mass (slope of G
        # ~ 1e-6) so does every step within G's rounding of the root.  The
        # solve stops there instead of revisiting tilts until its cap
        spec = PowerLawPhi(*member)
        tilts = []
        tilt_pass = asymptotics._tilt_pass

        def spy(phi, log_u):
            tilts.append(log_u)
            return tilt_pass(phi, log_u)

        monkeypatch.setattr(asymptotics, "_tilt_pass", spy)
        u = dll_root(spec, r)
        assert len(set(tilts)) == len(tilts) <= 10
        _, i1, _ = tilt_integrals(spec, u)
        assert abs(i1 + u * r) <= 1e-10 * u * r

    def test_tilt_beyond_double_precision_is_numeric_error(self):
        # d = 1.01 at r = 0.0025 needs log u ~ 1e3 > log(max double), and
        # theta = 1e-300, d = 1.001 a knee t* beyond it: NumericError, with
        # no numpy warning on the way
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericError, match="overflows"):
                dll_root(PowerLawPhi(theta=math.pi, delta=0.0, d=1.01), 0.0025)
            with pytest.raises(NumericError):
                dll_asymptotic(PowerLawPhi(theta=1e-300, delta=0.0, d=1.001), 0.0025)

    def test_mass_overflow_is_numeric_error(self):
        # theta^(-d) = 1e600 at theta = 1e-300, d = 2
        with pytest.raises(NumericError, match="mass of phi overflows"):
            dll_root(PowerLawPhi(theta=1e-300, delta=0.0, d=2.0), 0.0025)

    @given(st.sampled_from([math.nan, math.inf]))
    def test_non_finite_r_rejected(self, r):
        with pytest.raises(ValueError):
            dll_root(PowerLawPhi(theta=math.pi, delta=0.0, d=2.0), r)

    @given(st.sampled_from([math.nan, math.inf]), st.integers(min_value=0, max_value=2))
    def test_non_finite_phi_rejected(self, bad, slot):
        # a nan theta used to leak brentq's "function value at x=1.0 is NaN",
        # and an infinite one reported the mass of phi as 0
        args = [math.pi, 0.0, 2.0]
        args[slot] = bad
        name = ("theta", "delta", "d")[slot]
        with pytest.raises(ValueError, match=rf"^{name} must be (positive and )?finite, got {bad}"):
            PowerLawPhi(*args)


# (theta, delta, d, r) and dll_asymptotic, dll_root and tilt_integrals at
# the root, as float.hex; the last four members have their root at
# x1 = u phi(1) <= 1/2, where _tilt_pass sums the series side, the one
# before them just above it
_PINNED = [
    ((math.pi, -0.5, 2.0, 0.01), ("-0x1.bc29e4c5fa573p+3", "0x1.2bdfc59d014cfp+10", "-0x1.6450f1f833cf5p+4", "-0x1.7fd6bf8149587p+3", "0x1.77d8da30734dep+2")),
    ((math.pi, 0.0, 2.0, 0.0001), ("-0x1.38620d00ff5f1p+10", "0x1.7d2a1bffdad3fp+23", "-0x1.375414c7cdda9p+11", "-0x1.383ffcb90528ap+10", "0x1.381ffcb9d946cp+9")),
    ((0.5, -0.8, 1.05, 0.3), ("-0x1.39348e1f06810p+141", "0x1.46416960512d5p+147", "-0x1.9b14fa88b8380p+145", "-0x1.8781b1a6c7d3dp+145", "0x1.2a4a6ef8f9c64p+141")),
    ((0.5, 0.3, 1.05, 0.0001), ("-0x1.3c76f28fdece0p+372", "0x1.e2e2ffdec59abp+389", "-0x1.9f5c1e5cd300bp+376", "-0x1.8b94af33d5253p+376", "0x1.2d6517c5f7bb1p+372")),
    ((1.0, -0.5, 10.0, 0.01), ("-0x1.6e9638baef58ep+2", "0x1.c481532316efep+5", "-0x1.5ee3852d77468p+1", "-0x1.219a72a5d13d8p-1", "0x1.efafa9a611a08p-2")),
    ((1.0, 0.3, 4.0, 1e-12), ("-0x1.0d6a1d470cef8p+14", "0x1.46e1d6dd68362p+52", "-0x1.670bbb96d45aap+14", "-0x1.676927c5c5c56p+12", "0x1.0d8c443ababa6p+12")),
    ((math.pi, -0.8, 1.5, 1e-08), ("-0x1.034ea26c37ea8p+50", "0x1.8265d56ada84ap+77", "-0x1.84f5f3a253d5fp+51", "-0x1.034ea26c37e47p+51", "0x1.59be2de59fdb3p+49")),
    ((7.0, 0.0, 3.0, 1e-06), ("-0x1.1739d161ef27bp+6", "0x1.0c23303d9150ep+25", "-0x1.8d486c538018ep+6", "-0x1.192999970cab4p+5", "0x1.7437784e617c9p+4")),
    ((math.pi, 0.0, 1.5, 0.3), ("-0x1.38d5d8bafa66cp-3", "0x1.65a5b5bbfe15cp+1", "-0x1.d1dcb7b1bf62cp-1", "-0x1.ad2d407b30e6cp-1", "0x1.cc961b20834b7p-4")),
    ((0.5, 1.5, 4.0, 0.3), ("0x1.0a7abc12fc7f2p+0", "0x1.abf5f5fcb758cp-2", "-0x1.1159bc1d0cbcep-3", "-0x1.00c6c6cad4687p-3", "0x1.d59fe9117e679p-7")),
    ((1.0, 0.3, 10.0, 0.01), ("0x1.8071effa57fe4p+1", "0x1.6a5c47f9f2808p-1", "-0x1.daa9c596e4410p-8", "-0x1.cfd247a6551fdp-8", "0x1.4c8cae12f4624p-12")),
    ((math.pi, 0.3, 1.5, 0.3), ("0x1.29bdedabe4a70p+0", "0x1.c2c7e03402c4bp-1", "-0x1.14fcc9b30162fp-2", "-0x1.0e77ecec01a93p-2", "0x1.8442985440074p-7")),
    ((math.pi, 0.0, 10.0, 1e-06), ("0x1.d440439dea144p+0", "0x1.339037256ad79p+14", "-0x1.5e3dc79578850p-6", "-0x1.4280e7e378807p-6", "0x1.7e63e24720c40p-9")),
]


def test_asymptotics_bind_no_numpy():
    # the DLL route runs on the math module alone
    assert not [name for name, value in vars(asymptotics).items()
                if isinstance(value, types.ModuleType) and value.__name__.partition(".")[0] == "numpy"]


class TestDllAsymptotic:
    @pytest.mark.parametrize("member, pinned", _PINNED, ids=[str(m) for m, _ in _PINNED])
    def test_pinned_bit_for_bit(self, member, pinned):
        *shape, r = member
        spec = PowerLawPhi(*shape)
        u = dll_root(spec, r)
        got = (dll_asymptotic(spec, r), u, *tilt_integrals(spec, u))
        assert [type(v) for v in got] == [float] * 5
        assert [v.hex() for v in got] == list(pinned)

    def test_prefactor_bit_for_bit(self):
        dll_prefactor.cache_clear()
        assert dll_prefactor().hex() == "0x1.78b5641f29a56p-2"

    def test_agrees_with_explicit_power_law(self):
        spec = PowerLawPhi(theta=math.pi, delta=0.0, d=2.0)
        ratios = []
        for r in (1e-2, 1e-3, 1e-4):
            log_dll = dll_asymptotic(spec, r)
            log_naz = naznik_asymptotic(math.pi, 0.0, 2.0, math.sqrt(r))
            ratios.append(math.exp(log_dll - log_naz))
        assert abs(ratios[2] - 1.0) < 0.05
        assert abs(ratios[1] - 1.0) < abs(ratios[0] - 1.0)
        assert abs(ratios[2] - 1.0) < abs(ratios[1] - 1.0)

    def test_exponent_factor(self):
        # exp(I0 + u r) must carry the bridge exponent: (I0 + ur) * 8r -> -1
        spec = PowerLawPhi(theta=math.pi, delta=0.0, d=2.0)
        vals = []
        for r in (1e-3, 1e-4, 1e-5):
            u = dll_root(spec, r)
            i0, _, _ = tilt_integrals(spec, u)
            vals.append((i0 + u * r) * 8.0 * r)
        assert abs(vals[-1] + 1.0) < 5e-3
        assert abs(vals[1] + 1.0) < abs(vals[0] + 1.0)

    def test_monotone_in_r(self):
        spec = PowerLawPhi(theta=math.pi, delta=0.0, d=2.0)
        vals = [dll_asymptotic(spec, r) for r in (1e-4, 1e-3, 1e-2)]
        assert vals[0] < vals[1] < vals[2]

    def test_prefactor_calibration_stable(self):
        c = dll_prefactor()
        assert 0.3 < c < 0.45
        assert dll_prefactor() == c

    def test_prefactor_matches_high_precision(self):
        # exp(target - uncal) with the tilted integrals at the calibration
        # root (u ~ 1.2e15) in 40-digit arithmetic (mpmath.quad) and the
        # target naznik_asymptotic(1, 0, 2, 1e-4) as the double it is; the
        # exponent is ~1.2e8 there, so 1e-8 is about one ulp of it
        assert dll_prefactor() == pytest.approx(0.36787945289894198, rel=1e-8)

    def test_no_scalar_quad(self, monkeypatch):
        # every tilted integral comes from the closed-form incomplete beta
        # series; the scipy attribute catches a function-local import of quad
        # as well
        def no_quad(*args, **kwargs):
            raise AssertionError("scalar quad called")

        monkeypatch.setattr(asymptotics, "quad", no_quad)
        monkeypatch.setattr("scipy.integrate.quad", no_quad)
        dll_prefactor.cache_clear()
        assert 0.3 < dll_prefactor() < 0.45
        for theta, delta, d in _MEMBERS:
            spec = PowerLawPhi(theta, delta, d)
            assert math.isfinite(dll_asymptotic(spec, 1e-4))
            assert all(math.isfinite(v) for v in tilt_integrals(spec, 1e3))

    def test_other_catalog_members_approach_one(self):
        for theta, delta, d in ((1.0, 0.0, 3.0), (math.pi, -0.5, 2.0)):
            spec = PowerLawPhi(theta=theta, delta=delta, d=d)
            r1, r2 = 1e-2, 1e-4
            g1 = math.exp(dll_asymptotic(spec, r1) - naznik_asymptotic(theta, delta, d, math.sqrt(r1)))
            g2 = math.exp(dll_asymptotic(spec, r2) - naznik_asymptotic(theta, delta, d, math.sqrt(r2)))
            assert abs(g2 - 1.0) < abs(g1 - 1.0)

    def test_log_convexity_spot_check(self):
        # (ln phi)'' by central differences on a mesh must be nonnegative
        spec = PowerLawPhi(theta=2.0, delta=0.5, d=2.5)
        h = 1e-4
        for t in np.linspace(1.0, 40.0, 25):
            second = (
                math.log(spec(t + h)) - 2.0 * math.log(spec(t)) + math.log(spec(t - h))
            ) / (h * h)
            assert second >= -1e-6

    def test_catalog_domain(self):
        with pytest.raises(ValueError):
            PowerLawPhi(theta=1.0, delta=0.0, d=1.0)
        with pytest.raises(ValueError):
            PowerLawPhi(theta=0.0, delta=0.0, d=2.0)
        with pytest.raises(ValueError):
            PowerLawPhi(theta=1.0, delta=-2.0, d=2.0)


class TestDifferentiateForm:
    def test_single_derivative_exact(self):
        # d/dx exp(-1/x) = x^-2 exp(-1/x) exactly
        out = differentiate_form(AsymptoticForm(1.0, 0.0, 1.0, 1.0), 1)
        assert out == AsymptoticForm(1.0, -2.0, 1.0, 1.0)

    def test_identity_at_m_zero(self):
        form = AsymptoticForm(2.0, 0.5, 1.0, 0.125)
        assert differentiate_form(form, 0) == form

    def test_bridge_second_derivative(self):
        # amplitude gains rate^2 (order = 1) and the power shifts by -4
        form = AsymptoticForm(2.0 * math.sqrt(2.0 / math.pi), 0.0, 1.0, 0.125)
        out = differentiate_form(form, 2)
        assert out.amplitude == pytest.approx(form.amplitude * 0.125**2, rel=1e-15)
        assert out.power == form.power - 4.0
        assert (out.order, out.rate) == (form.order, form.rate)

    @given(
        st.integers(min_value=0, max_value=5),
        st.integers(min_value=0, max_value=5),
    )
    def test_composition(self, m1, m2):
        form = AsymptoticForm(1.7, -0.3, 0.8, 2.5)
        a = differentiate_form(differentiate_form(form, m1), m2)
        b = differentiate_form(form, m1 + m2)
        assert a.amplitude == pytest.approx(b.amplitude, rel=1e-12)
        assert a.power == pytest.approx(b.power, rel=1e-12)

    def test_finite_difference_anchor(self):
        # 5-point central difference of exp(-1/x) at x = 0.2
        f = lambda x: math.exp(-1.0 / x)  # noqa: E731
        x, h = 0.2, 1e-3
        fd = (-f(x + 2 * h) + 8 * f(x + h) - 8 * f(x - h) + f(x - 2 * h)) / (12 * h)
        lead = differentiate_form(AsymptoticForm(1.0, 0.0, 1.0, 1.0), 1).evaluate(x)
        assert abs(fd - lead) / abs(fd) < 2e-3


class TestAbelReduce:
    def test_unit_case(self):
        out = abel_reduce(AsymptoticForm(1.0, 0.0, 1.0, 1.0))
        assert out.amplitude == pytest.approx(math.sqrt(math.pi), rel=1e-15)
        assert out.power == 1.0
        assert (out.order, out.rate) == (1.0, 1.0)

    @pytest.mark.parametrize("r", [0.05, 0.02, 0.01])
    def test_quadrature_oracle(self, r):
        # brute-force adaptive quadrature of the half-power convolution
        val, _ = quad(lambda y: 2.0 * math.exp(-1.0 / (r - y * y)), 0.0, math.sqrt(r) * (1 - 1e-14))
        asym = abel_reduce(AsymptoticForm(1.0, 0.0, 1.0, 1.0)).evaluate(r)
        assert abs(val / asym - 1.0) < 0.10 if r <= 0.02 else abs(val / asym - 1.0) < 0.2

    def test_error_shrinks_with_r(self):
        errs = []
        for r in (0.05, 0.02, 0.01):
            val, _ = quad(lambda y: 2.0 * math.exp(-1.0 / (r - y * y)), 0.0, math.sqrt(r) * (1 - 1e-14))
            asym = abel_reduce(AsymptoticForm(1.0, 0.0, 1.0, 1.0)).evaluate(r)
            errs.append(abs(val / asym - 1.0))
        assert errs[2] < errs[1] < errs[0]


class TestGreenForms:
    def test_order_one_is_brownian_scale(self):
        d, rate = green_rate(1)
        assert d == 1.0
        assert rate == pytest.approx(0.125, abs=1e-15)

    def test_known_wiener_form(self):
        # the classical Wiener small-ball law as a form in r = eps^2
        form = naznik_form(math.pi, -0.5, 2.0)
        assert form.order == 1.0
        assert form.rate == pytest.approx(0.125, abs=1e-14)
        d, rate = green_rate(1)
        assert (form.order, form.rate) == (d, pytest.approx(rate, abs=1e-14))

    def test_green_base_form_order_two(self):
        form = green_base_form(2)
        assert form.order == pytest.approx(1.0 / 3.0, rel=1e-15)
        # rate = (1/(2d)) (2l sin(pi/(2l)))^(-d-1) at l = 2
        expected = 1.5 * (4.0 * math.sin(math.pi / 4.0)) ** (-4.0 / 3.0)
        assert form.rate == pytest.approx(expected, rel=1e-14)

    def test_validation(self):
        with pytest.raises(ValueError):
            green_rate(0)
        with pytest.raises(ValueError):
            AsymptoticForm(-1.0, 0.0, 1.0, 1.0)
        with pytest.raises(ValueError):
            AsymptoticForm(1.0, 0.0, -1.0, 1.0)

    @given(st.sampled_from([math.nan, math.inf]), st.integers(min_value=0, max_value=3))
    def test_non_finite_form_rejected(self, bad, slot):
        args = [1.0, 0.0, 1.0, 1.0]
        args[slot] = bad
        name = ("amplitude", "power", "order", "rate")[slot]
        with pytest.raises(ValueError, match=rf"^{name} must be (positive and )?finite, got {bad}"):
            AsymptoticForm(*args)

    @pytest.mark.parametrize(
        "call",
        [
            lambda: naznik_form(math.pi, 0, 1.5).log_evaluate(1e-200),
            lambda: AsymptoticForm(1.0, 10.0, 1.0, 1.0).evaluate(1e40),
            lambda: differentiate_form(green_base_form(1), 10**6),
            lambda: abel_reduce(AsymptoticForm(1.0, 0.0, 1e-200, 1e-200)),
            lambda: theorem2_closed(AsymptoticForm(1e-300, 0.0, 1.0, 1.0), 1, 1e-100),
        ],
        ids=["log_evaluate_overflow", "evaluate_overflow", "differentiate_underflow", "abel_zero_rate_order",
             "theorem2_underflow"],
    )
    def test_result_beyond_double_range_is_numeric_error(self, call):
        # valid arguments whose result the doubles cannot hold: these once
        # raised OverflowError, ZeroDivisionError or "amplitude must be positive"
        with pytest.raises(NumericError, match="double range"):
            call()


@settings(deadline=None, max_examples=25)
@given(
    st.floats(min_value=0.1, max_value=10.0),
    st.floats(min_value=-3.0, max_value=3.0),
    st.floats(min_value=0.2, max_value=3.0),
    st.floats(min_value=0.05, max_value=5.0),
)
def test_differentiate_then_abel_power_ledger(amp, power, order, rate):
    # one derivative then one smoothing nets a power shift of -(order+1)/2
    # and an amplitude factor sqrt(pi (rate * order))
    form = AsymptoticForm(amp, power, order, rate)
    out = abel_reduce(differentiate_form(form, 1))
    assert out.power == pytest.approx(power - (order + 1.0) / 2.0, rel=1e-12, abs=1e-12)
    assert out.amplitude == pytest.approx(amp * math.sqrt(math.pi * rate * order), rel=1e-12)
