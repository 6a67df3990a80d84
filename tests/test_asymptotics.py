import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

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
        # the bracket loops share u = 1, brentq re-reads its bracket ends
        # and the residual check reads the root: each tilt is integrated once
        spec = PowerLawPhi(theta=math.pi, delta=delta, d=2.0)
        expected = dll_root(spec, r)
        tilts = []
        integrate = asymptotics._integrate_scaled

        def spy(h, phi, u):
            tilts.append(u)
            return integrate(h, phi, u)

        monkeypatch.setattr(asymptotics, "_integrate_scaled", spy)
        assert dll_root(spec, r) == expected
        assert tilts and len(set(tilts)) == len(tilts)

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
        with pytest.raises(ValueError, match="theta, delta and d must be finite"):
            PowerLawPhi(*args)


class TestDllAsymptotic:
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
        with pytest.raises(ValueError, match="must be finite"):
            AsymptoticForm(*args)


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
