import math
import re
import sys
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest
from scipy.special import eval_genlaguerre

from susyrad import _laguerre_forms, coulomb, oscillator, reports, specfun, susy, verify
from susyrad.errors import ConvergenceError, DomainError
from susyrad.specfun import (
    Quadrature,
    SonineLaguerre,
    eval_sonine_laguerre,
    eval_sonine_laguerre_derivative,
    gram_matrix,
    inner_product,
    integrate_half_line,
    laguerre_envelope_log,
    sonine_laguerre_direct_sum,
)

ORDER_GRID = (-0.5, 0.0, 0.5, 1.0, 2.7)
POINT_GRID = (0.01, 1.0, 10.0, 50.0)

# frozen from the exact rational evaluation of the defining sum
DIRECT_SUM_FROZEN = {
    (15, 2.7, 50.0): 1753139749.253287,
    (15, -0.5, 50.0): -10696862058.289246,
    (12, 1.0, 10.0): 19.425097536208646,
    (8, 0.5, 0.01): 3.1628972211501742,
    (15, 2.7, 10.0): 0.7598636925876021,
    (5, -0.5, 1.0): -0.06692708333333333,
}


class TestSonineLaguerre:
    def test_zero_degree_is_one(self):
        assert eval_sonine_laguerre(SonineLaguerre(0, 0.5), 3.7) == 1.0

    def test_degree_one_closed_form(self):
        assert eval_sonine_laguerre(SonineLaguerre(1, 2.0), 1.0) == pytest.approx(2.0, abs=1e-15)

    def test_degree_two_closed_form(self):
        # 1 - 2x + x^2/2 at x = 2
        assert eval_sonine_laguerre(SonineLaguerre(2, 0.0), 2.0) == pytest.approx(-1.0, abs=1e-14)

    @pytest.mark.parametrize("degree", [-1, -5])
    def test_negative_degree_rejected(self, degree):
        with pytest.raises(DomainError):
            SonineLaguerre(degree, 0.0)

    @pytest.mark.parametrize("order", [-1.0, -2.5])
    def test_order_at_most_minus_one_rejected(self, order):
        with pytest.raises(DomainError):
            SonineLaguerre(3, order)

    def test_negative_argument_rejected(self):
        with pytest.raises(DomainError):
            eval_sonine_laguerre(SonineLaguerre(2, 0.0), -0.1)

    def test_non_finite_argument_rejected(self):
        with pytest.raises(DomainError):
            eval_sonine_laguerre(SonineLaguerre(2, 0.0), math.nan)

    @pytest.mark.parametrize(
        "bad",
        ["a", [1.0, "b"], 1j, np.array([2.0 + 1.0j])],
        ids=["string", "string-in-list", "complex", "complex-array"],
    )
    def test_non_real_argument_is_a_domain_error(self, bad):
        for evaluate in (eval_sonine_laguerre, eval_sonine_laguerre_derivative):
            with pytest.raises(DomainError, match="argument must be real"):
                evaluate(SonineLaguerre(2, 0.0), bad)

    @pytest.mark.parametrize("degree", range(16))
    @pytest.mark.parametrize("order", ORDER_GRID)
    @pytest.mark.parametrize("x", POINT_GRID)
    def test_recurrence_matches_direct_sum(self, degree, order, x):
        poly = SonineLaguerre(degree, order)
        reference = sonine_laguerre_direct_sum(poly, x)
        value = eval_sonine_laguerre(poly, x)
        assert value == pytest.approx(reference, rel=1e-10, abs=1e-10)

    @pytest.mark.parametrize(("key", "expected"), sorted(DIRECT_SUM_FROZEN.items()))
    def test_direct_sum_frozen_values(self, key, expected):
        degree, order, x = key
        value = sonine_laguerre_direct_sum(SonineLaguerre(degree, order), x)
        assert value == pytest.approx(expected, rel=1e-15)

    @pytest.mark.parametrize("degree", [0, 1, 4, 9, 15])
    @pytest.mark.parametrize("order", ORDER_GRID)
    @pytest.mark.parametrize("x", POINT_GRID)
    def test_against_scipy(self, degree, order, x):
        value = eval_sonine_laguerre(SonineLaguerre(degree, order), x)
        assert value == pytest.approx(float(eval_genlaguerre(degree, order, x)), rel=1e-12, abs=1e-12)

    def test_value_at_zero_is_binomial(self):
        # L_n(0) = Gamma(n+a+1) / (Gamma(a+1) n!)
        poly = SonineLaguerre(6, 1.3)
        expected = math.gamma(8.3) / (math.gamma(2.3) * math.factorial(6))
        assert eval_sonine_laguerre(poly, 0.0) == pytest.approx(expected, rel=1e-14)
        assert sonine_laguerre_direct_sum(poly, 0.0) == pytest.approx(expected, rel=1e-14)

    def test_array_evaluation_matches_scalar(self):
        poly = SonineLaguerre(7, -0.5)
        xs = np.linspace(0.0, 30.0, 11)
        vector = eval_sonine_laguerre(poly, xs)
        assert vector.shape == xs.shape
        for x, v in zip(xs, vector):
            assert v == eval_sonine_laguerre(poly, float(x))

    def test_scalar_in_scalar_out(self):
        value = eval_sonine_laguerre(SonineLaguerre(3, 0.5), 2.0)
        assert isinstance(value, float)


class TestDerivative:
    def test_constant_polynomial(self):
        assert eval_sonine_laguerre_derivative(SonineLaguerre(0, 1.2), 5.0) == 0.0

    def test_degree_one(self):
        assert eval_sonine_laguerre_derivative(SonineLaguerre(1, 0.0), 3.0) == pytest.approx(-1.0)

    def test_degree_two_at_root_of_shifted(self):
        # d/dx L_2 = -L_1^{(1)}; L_1^{(1)}(2) = 2 - 2 = 0
        assert eval_sonine_laguerre_derivative(SonineLaguerre(2, 0.0), 2.0) == pytest.approx(0.0, abs=1e-14)

    @pytest.mark.parametrize("degree", [1, 2, 5, 9, 15])
    @pytest.mark.parametrize("order", ORDER_GRID)
    @pytest.mark.parametrize("x", [0.1, 0.9, 7.3, 50.0])
    def test_against_finite_differences(self, degree, order, x):
        poly = SonineLaguerre(degree, order)
        step = 1e-6 * max(1.0, x)
        coarse = (
            eval_sonine_laguerre(poly, x + step) - eval_sonine_laguerre(poly, x - step)
        ) / (2.0 * step)
        fine = (
            eval_sonine_laguerre(poly, x + step / 2.0)
            - eval_sonine_laguerre(poly, x - step / 2.0)
        ) / step
        richardson = (4.0 * fine - coarse) / 3.0
        exact = eval_sonine_laguerre_derivative(poly, x)
        assert exact == pytest.approx(richardson, abs=1e-7 * max(1.0, abs(exact)))

    def test_identity_against_shifted_polynomial(self):
        poly = SonineLaguerre(6, 0.5)
        shifted = SonineLaguerre(5, 1.5)
        for x in POINT_GRID:
            assert eval_sonine_laguerre_derivative(poly, x) == pytest.approx(
                -eval_sonine_laguerre(shifted, x), rel=1e-13, abs=1e-13
            )


class TestQuadrature:
    def test_validation(self):
        with pytest.raises(DomainError):
            Quadrature(node_count=1)
        with pytest.raises(DomainError):
            Quadrature(target_rel_tol=0.0)

    def test_gamma_integral(self):
        # int t^2 e^{-2t} dt = 1/4
        f = lambda t: t * np.exp(-t)
        result = integrate_half_line(lambda t: f(t) * f(t), Quadrature())
        assert result.converged
        assert result.value == pytest.approx(0.25, rel=1e-12)

    def test_zero_integrand(self):
        value = inner_product(lambda t: np.exp(-t), lambda t: 0.0 * t, Quadrature())
        assert value == pytest.approx(0.0, abs=1e-12)

    @pytest.mark.parametrize("power", [-0.3, 0.2, 2.3])
    def test_singular_endpoint_gamma(self, power):
        # int t^a e^{-t} dt = Gamma(a+1), integrable endpoint singularity at 0;
        # state inner products only ever see powers > 0
        result = integrate_half_line(lambda t: t**power * np.exp(-t), Quadrature())
        assert result.converged
        assert result.value == pytest.approx(math.gamma(power + 1.0), rel=1e-9)

    def test_hard_endpoint_singularity_raises_rather_than_lies(self):
        with pytest.raises(ConvergenceError):
            integrate_half_line(lambda t: t**-0.5 * np.exp(-t), Quadrature())

    def test_slow_decay_scale(self):
        # decay scale 8: int e^{-t/8} dt = 8
        result = integrate_half_line(lambda t: np.exp(-t / 8.0), Quadrature())
        assert result.value == pytest.approx(8.0, rel=1e-10)

    def test_gaussian_weight(self):
        result = integrate_half_line(lambda t: t * t * np.exp(-t * t), Quadrature())
        assert result.value == pytest.approx(math.sqrt(math.pi) / 4.0, rel=1e-10)

    def test_unsettled_estimates_are_the_last_two(self):
        quad = Quadrature(target_rel_tol=1e-13)
        with pytest.raises(ConvergenceError) as info:
            integrate_half_line(lambda t: np.cos(3000.0 * t) * np.exp(-t / 30.0), quad)
        previous, last = info.value.estimates
        assert previous != last

    def test_non_convergence_raises_with_estimates(self):
        quad = Quadrature(target_rel_tol=1e-13)
        with pytest.raises(ConvergenceError) as info:
            integrate_half_line(lambda t: np.cos(3000.0 * t) * np.exp(-t / 30.0), quad)
        assert len(info.value.estimates) == 2

    def test_inner_product_symmetry(self):
        f = lambda t: t * np.exp(-t / 2.0)
        g = lambda t: (1.0 - t) * np.exp(-t / 2.0)
        quad = Quadrature()
        assert inner_product(f, g, quad) == pytest.approx(inner_product(g, f, quad), rel=1e-12)


FAMILIES = verify.orthonormality_families()
FAMILY_STATES = [
    pytest.param(state, id=f"{name} n={state.principal}") for name, states in FAMILIES for state in states
]
LARGE_STATES = [
    pytest.param(coulomb.CoulombState(3, 40, l), id=f"coulomb d=3 n=40 l={l}") for l in (0, 10, 39)
] + [
    pytest.param(oscillator.OscillatorState(3, 80, l), id=f"oscillator D=3 N=80 L={l}") for l in (0, 40, 80)
]


class TestLaguerreEnvelope:
    @pytest.mark.parametrize("n", [0, 1, 4, 15])
    @pytest.mark.parametrize("order", ORDER_GRID)
    def test_is_the_polynomial_at_negative_argument(self, n, order):
        t = np.array([0.0, 0.01, 1.0, 10.0, 50.0])
        expected = np.log(eval_genlaguerre(n, order, -t))
        np.testing.assert_allclose(laguerre_envelope_log(n, order, t), expected, rtol=1e-12, atol=1e-13)

    def test_finite_at_large_degree(self):
        values = laguerre_envelope_log(400, 0.5, np.array([1e-300, 1.0, 1e6, 1e15]))
        assert np.all(np.isfinite(values))

    @pytest.mark.parametrize("state", FAMILY_STATES + LARGE_STATES)
    def test_form_cutoff_covers_sampled_cutoff(self, state):
        sampled = specfun._tail_cutoff(lambda t: state.value(t) ** 2)
        assert state.tail_cutoff >= sampled

    @pytest.mark.parametrize("state", FAMILY_STATES[::4] + LARGE_STATES)
    def test_envelope_bounds_the_waveform(self, state):
        form = state
        grid = np.concatenate(
            [np.geomspace(1e-6, 1.0, 500), np.linspace(1.0, 2.0 * form.tail_cutoff, 4000)]
        )
        bound = np.exp(form.log_envelope(grid))
        assert np.all(np.abs(form.value(grid)) <= bound * (1.0 + 1e-12))


class TestGramMatrix:
    @pytest.mark.parametrize(("name", "states"), FAMILIES, ids=[name for name, _ in FAMILIES])
    def test_matches_pairwise_inner_products(self, name, states):
        gram = verify._gram(states)
        for a, left in enumerate(states):
            for b, right in enumerate(states[a:], start=a):
                pairwise = inner_product(left, right)
                assert abs(gram.matrix[a, b] - pairwise) <= 1e-12, (a, b)
                assert abs(gram.matrix[b, a] - pairwise) <= 1e-12, (b, a)

    def test_unmeetable_tolerance_raises_with_two_estimates(self):
        fns = [lambda t: np.cos(3000.0 * t) * np.exp(-t / 30.0), lambda t: np.exp(-t / 30.0)]
        with pytest.raises(ConvergenceError) as info:
            gram_matrix(fns, 2048.0, Quadrature(target_rel_tol=1e-13))
        previous, last = info.value.estimates
        assert previous.shape == last.shape == (2, 2)
        assert not np.array_equal(previous, last)

    def test_orthonormality_check_uses_no_pairwise_quadrature(self, monkeypatch):
        calls = Counter()
        for name in ("integrate_half_line", "inner_product", "_tail_cutoff"):
            original = getattr(specfun, name)

            def counted(*args, _name=name, _original=original, **kwargs):
                calls[_name] += 1
                return _original(*args, **kwargs)

            monkeypatch.setattr(specfun, name, counted)
        result = verify.check_orthonormality()
        assert result.passed and result.value <= 1e-13
        assert sum(calls.values()) == 0
        # the counters are live: the per-pair path would have shown up
        specfun.inner_product(lambda t: np.exp(-t), lambda t: np.exp(-t))
        assert calls == Counter(inner_product=1, integrate_half_line=1, _tail_cutoff=1)

    def test_orthonormality_detail_reports_quadrature_effort(self):
        detail = verify.check_orthonormality().detail
        assert re.fullmatch(
            r"64 states across 11 families; cutoff 16-1024; \d+(-\d+)? nodes/panel", detail
        ), detail


def _allocating_recurrence(n, a, x):
    """The recurrence as one expression per step, allocating its temporaries."""
    ones = np.ones_like(x)
    if n == 0:
        return ones
    prev = ones
    cur = a + 1.0 - x
    for k in range(1, n):
        prev, cur = cur, ((2.0 * k + a + 1.0 - x) * cur - (k + a) * prev) / (k + 1.0)
    return cur


class TestInPlaceRecurrence:
    @pytest.mark.parametrize("n", [0, 1, 2, 5, 80])
    @pytest.mark.parametrize("a", [-0.5, 0.0, 2.7])
    @pytest.mark.parametrize(
        "x",
        [np.array(3.5), np.array([3.5]), np.linspace(0.0, 400.0, 20000)],
        ids=["0-d", "1-element", "2e4-points"],
    )
    def test_bitwise_equal_to_allocating_form(self, n, a, x):
        got = specfun._recurrence(n, a, x)
        want = _allocating_recurrence(n, a, x)
        assert np.shape(got) == np.shape(want)
        assert np.array_equal(got, want, equal_nan=True)
        assert np.array_equal(np.signbit(got), np.signbit(want))

    def test_bitwise_equal_through_overflow(self):
        x = np.geomspace(1e-3, 1e300, 2000)
        with np.errstate(all="ignore"):
            got = specfun._recurrence(80, 150.0, x)
            want = _allocating_recurrence(80, 150.0, x)
        assert not np.all(np.isfinite(want))
        assert np.array_equal(got, want, equal_nan=True)

    def test_zero_dimensional_input_through_public_api(self):
        assert eval_sonine_laguerre(SonineLaguerre(1, 0.5), np.float64(2.0)) == -0.5
        assert eval_sonine_laguerre(SonineLaguerre(5, 0.5), np.array(2.0)) == float(
            _allocating_recurrence(5, 0.5, np.array(2.0))
        )

    def test_does_not_write_to_its_argument(self):
        x = np.linspace(0.0, 10.0, 50)
        kept = x.copy()
        specfun._recurrence(7, 0.5, x)
        assert np.array_equal(x, kept)


def _full_triple_product(u, w, z, order):
    """Product rule for u*w*z from complete four-entry stacks."""
    if order == 0:
        return u[0] * w[0] * z[0]
    if order == 1:
        return u[1] * w[0] * z[0] + u[0] * w[1] * z[0] + u[0] * w[0] * z[1]
    if order == 2:
        return (
            u[2] * w[0] * z[0]
            + u[0] * w[2] * z[0]
            + u[0] * w[0] * z[2]
            + 2.0 * (u[1] * w[1] * z[0] + u[1] * w[0] * z[1] + u[0] * w[1] * z[1])
        )
    return (
        u[3] * w[0] * z[0]
        + u[0] * w[3] * z[0]
        + u[0] * w[0] * z[3]
        + 3.0 * (u[2] * w[1] * z[0] + u[2] * w[0] * z[1])
        + 3.0 * (u[1] * w[2] * z[0] + u[0] * w[2] * z[1])
        + 3.0 * (u[1] * w[0] * z[2] + u[0] * w[1] * z[2])
        + 6.0 * u[1] * w[1] * z[1]
    )


def _full_stack_derivative(form, arr, order):
    """Every factor's stack built to third order, whatever order is asked for."""
    q = form.exponent
    u = (
        np.power(arr, q),
        q * np.power(arr, q - 1.0),
        q * (q - 1.0) * np.power(arr, q - 2.0),
        q * (q - 1.0) * (q - 2.0) * np.power(arr, q - 3.0),
    )
    if isinstance(form, _laguerre_forms.ExponentialLaguerreForm):
        w0 = np.exp(-arr / (2.0 * form.scale))
        rate = -1.0 / (2.0 * form.scale)
        w = (w0, rate * w0, rate * rate * w0, rate**3 * w0)
        t = arr / form.scale
        p = [_laguerre_forms._poly_values(form._chain, t, j) for j in range(4)]
        inv = 1.0 / form.scale
        z = (p[0], p[1] * inv, p[2] * inv * inv, p[3] * inv**3)
    else:
        w0 = np.exp(-0.5 * arr * arr)
        w = (w0, -arr * w0, (arr * arr - 1.0) * w0, (3.0 * arr - arr**3) * w0)
        t = arr * arr
        p = [_laguerre_forms._poly_values(form._chain, t, j) for j in range(4)]
        z = (
            p[0],
            2.0 * arr * p[1],
            2.0 * p[1] + 4.0 * t * p[2],
            12.0 * arr * p[2] + 8.0 * arr**3 * p[3],
        )
    return form.norm * _full_triple_product(u, w, z, order)


_DERIVATIVES = ("value", "derivative", "second_derivative", "third_derivative")

_FORMS = {
    "exponential-d1": lambda: _laguerre_forms.ExponentialLaguerreForm(0.75, 1.0, 1, 1.0),
    "exponential-d5": lambda: _laguerre_forms.ExponentialLaguerreForm(2.5, 1.5, 5, 2.0),
    "exponential-fractional": lambda: _laguerre_forms.ExponentialLaguerreForm(1.1, 1.3, 4, 1.6),
    "exponential-d40": lambda: coulomb.CoulombState(3, 51, 10),
    "exponential-overflow": lambda: coulomb.CoulombState(3, 160, 150),
    "gaussian-d0": lambda: _laguerre_forms.GaussianLaguerreForm(1.5, 0, 1.0),
    "gaussian-d2": lambda: _laguerre_forms.GaussianLaguerreForm(0.5, 2, 0.0),
    "gaussian-fractional": lambda: _laguerre_forms.GaussianLaguerreForm(0.83, 3, 0.33),
    "gaussian-d40": lambda: oscillator.OscillatorState(3, 84, 4),
}


class TestDerivativeOrderSelection:
    @pytest.mark.parametrize("form_id", sorted(_FORMS))
    @pytest.mark.parametrize("order", range(4))
    def test_equals_full_stack_product_rule(self, form_id, order):
        form = _FORMS[form_id]()
        grid = np.concatenate([np.linspace(1e-3, 60.0, 20000), np.geomspace(1e-3, 1e6, 300)])
        with np.errstate(all="ignore"):
            got = getattr(form, _DERIVATIVES[order])(grid)
            want = _full_stack_derivative(form, grid, order)
            scalar = getattr(form, _DERIVATIVES[order])(2.5)
            scalar_want = float(_full_stack_derivative(form, np.asarray(2.5), order))
        assert np.array_equal(got, want, equal_nan=True)
        assert scalar == scalar_want or (math.isnan(scalar) and math.isnan(scalar_want))

    @pytest.mark.parametrize(
        "state",
        [coulomb.CoulombState(3, 6, 1), oscillator.OscillatorState(2, 9, 1)],
        ids=["coulomb-degree4", "oscillator-degree4"],
    )
    def test_each_order_runs_only_its_recurrences(self, state, monkeypatch):
        calls = Counter()
        original = specfun._recurrence

        def counted(n, a, x):
            calls["recurrence"] += 1
            return original(n, a, x)

        # the forms look the recurrence up on specfun at each call
        monkeypatch.setattr(specfun, "_recurrence", counted)
        assert state.degree >= 3
        grid = np.linspace(0.1, 5.0, 7)
        for order, name in enumerate(_DERIVATIVES):
            calls.clear()
            getattr(state, name)(grid)
            assert calls["recurrence"] == order + 1, name


def _count_calls(monkeypatch, module, name, calls):
    """Count calls of module.name at every susyrad module that binds it."""
    original = getattr(module, name)

    def counted(*args, **kwargs):
        calls[name] += 1
        return original(*args, **kwargs)

    for mod_name, mod in list(sys.modules.items()):
        if mod_name.startswith("susyrad") and getattr(mod, name, None) is original:
            monkeypatch.setattr(mod, name, counted)


def _residual_states(monkeypatch):
    """Every (state, grid) whose residual check_radial_residuals measures."""
    seen = []
    original = reports._relative_residual

    def recording(state, grid):
        seen.append((state, grid))
        return original(state, grid)

    monkeypatch.setattr(reports, "_relative_residual", recording)
    assert verify.check_radial_residuals().passed
    monkeypatch.undo()
    return seen


class TestSharedResidualStack:
    def test_shared_stack_equals_separate_calls(self, monkeypatch):
        seen = _residual_states(monkeypatch)
        assert len(seen) == 464
        for state, grid in seen:
            value, curvature = state.derivatives(specfun.positive_grid(grid), (0, 2))
            assert np.array_equal(value, state.value(grid))
            assert np.array_equal(curvature, state.second_derivative(grid))

    def test_derivative_list_equals_public_methods(self, monkeypatch):
        # the image's entries against the product rule written out by hand from psi's methods
        for state, grid in _residual_states(monkeypatch):
            checked = specfun.positive_grid(grid)
            p = [np.asarray(getattr(state, name)(grid)) for name in _DERIVATIVES]
            for got, want in zip(state.derivatives(checked, (0, 1, 2, 3)), p):
                assert np.array_equal(got, want)
            if isinstance(state, _laguerre_forms.ExponentialLaguerreForm):
                u = susy.coulomb_superpotential(state.l_star, state.gamma)
            else:
                u = susy.oscillator_superpotential(state.l_star, state.gamma)
            w, wp, wpp = (
                0.5 * np.asarray(f(grid)) for f in (u.u_prime, u.u_double_prime, u.u_third_derivative)
            )
            hand = (
                p[1] + w * p[0],
                p[2] + wp * p[0] + w * p[1],
                p[3] + wpp * p[0] + 2.0 * wp * p[1] + w * p[2],
            )
            image = susy.SuperchargeImage(u, state)
            public = (image.value(grid), image.derivative(grid), image.second_derivative(grid))
            for got, want, via_method in zip(image.derivatives(checked, (0, 1, 2)), hand, public):
                assert np.array_equal(got, want)
                assert np.array_equal(via_method, want)
            assert np.array_equal(susy.apply_supercharge(u, state, grid), hand[0])

    def test_relative_residual_equals_apply_operator(self, monkeypatch):
        for state, grid in _residual_states(monkeypatch)[::7]:
            res = susy.apply_operator(state.operator(), state, grid, state.operator_eigenvalue())
            want = float(np.max(np.abs(res)) / np.max(np.abs(state.value(grid))))
            assert reports._relative_residual(state, grid) == want

    @pytest.mark.parametrize(
        "state",
        [coulomb.CoulombState(3, 6, 1), oscillator.OscillatorState(2, 9, 1)],
        ids=["coulomb-degree4", "oscillator-degree4"],
    )
    def test_one_grid_check_and_three_recurrences(self, state, monkeypatch):
        calls = Counter()
        for name in ("positive_grid", "_check_argument", "_recurrence"):
            _count_calls(monkeypatch, specfun, name, calls)
        reports._relative_residual(state, np.linspace(0.1, 5.0, 9))
        assert calls == Counter(positive_grid=1, _check_argument=1, _recurrence=3)

    def test_public_entry_points_still_check_the_grid(self):
        state = coulomb.CoulombState(3, 2, 1)
        for bad, message in (
            ([1.0, 0.0], "positive"),
            ([1.0, math.nan], "finite"),
            # numpy's own ValueError and TypeError become the typed error
            ("a", "real"),
            ([1.0, "b"], "real"),
            (1j, "real"),
            # a complex array is refused, not cast to its real part
            (np.array([2.0 + 1.0j]), "real"),
        ):
            for call in (
                lambda: state.value(bad),
                lambda: coulomb.CoulombState(3, 2, 0).value(bad),
                lambda: coulomb.eval_hydrogen_R(2, 1, bad),
                lambda: state.second_derivative(bad),
                lambda: state.operator().potential(bad),
                lambda: susy.apply_operator(state.operator(), state, bad),
                lambda: reports._relative_residual(state, bad),
            ):
                with pytest.raises(DomainError, match=f"radial coordinate must be {message}"):
                    call()


def _per_term_direct_sum(poly, x):
    """The direct sum as it was first written: every rising product rebuilt per term."""
    n = poly.degree
    a = Fraction(float(poly.order))
    xq = Fraction(float(x))
    total = Fraction(0)
    for p in range(n + 1):
        rising = Fraction(1)
        for j in range(p + 1, n + 1):
            rising *= a + j
        term = rising * xq**p / (math.factorial(p) * math.factorial(n - p))
        total += -term if p % 2 else term
    return float(total)


class TestLaguerreOracle:
    def test_horner_sum_equals_per_term_sum(self):
        assert tuple(verify._ORACLE_SUM_POINTS) == POINT_GRID
        points = 0
        for n in range(16):
            for order in ORDER_GRID:
                poly = SonineLaguerre(n, order)
                got = sonine_laguerre_direct_sum(poly, verify._ORACLE_SUM_POINTS)
                want = [_per_term_direct_sum(poly, x) for x in verify._ORACLE_SUM_POINTS]
                assert got.tolist() == want
                points += len(want)
        assert points == 320

    def test_scalar_and_array_sums_agree(self):
        poly = SonineLaguerre(7, 1.3)
        xs = np.array([[0.0, 0.25], [3.0, 40.0]])
        got = sonine_laguerre_direct_sum(poly, xs)
        assert got.shape == xs.shape
        assert isinstance(sonine_laguerre_direct_sum(poly, 3.0), float)
        assert got[1, 0] == sonine_laguerre_direct_sum(poly, 3.0) == _per_term_direct_sum(poly, 3.0)

    @pytest.mark.parametrize("bad", [-0.5, math.inf, math.nan, [1.0, -1.0]])
    def test_sum_refuses_bad_points(self, bad):
        with pytest.raises(DomainError, match="finite and non-negative"):
            sonine_laguerre_direct_sum(SonineLaguerre(3, 0.5), bad)

    def test_one_recurrence_per_degree_order_and_identity(self, monkeypatch):
        calls = Counter()
        for name in ("eval_sonine_laguerre", "eval_sonine_laguerre_derivative",
                     "sonine_laguerre_direct_sum"):
            _count_calls(monkeypatch, specfun, name, calls)
        result = verify.check_laguerre_oracle()
        assert result.passed
        # 16 degrees x 5 orders for the sum identity, 5 x 4 for the derivative identity
        assert calls == Counter(
            eval_sonine_laguerre=80 + 20, sonine_laguerre_direct_sum=80,
            eval_sonine_laguerre_derivative=20,
        )

    def test_detail_equals_pointwise_oracle(self):
        worst = 0.0
        for n in range(16):
            for order in ORDER_GRID:
                poly = SonineLaguerre(n, order)
                for x in POINT_GRID:
                    reference = _per_term_direct_sum(poly, x)
                    got = eval_sonine_laguerre(poly, x)
                    worst = max(worst, abs(got - reference) / max(abs(reference), 1.0))
        deriv = 0.0
        for n in (0, 1, 2, 5, 9):
            for order in (-0.5, 0.0, 1.0, 2.7):
                poly = SonineLaguerre(n, order)
                for x in (0.5, 1.0, 5.0, 20.0):
                    exact = eval_sonine_laguerre_derivative(poly, x)
                    step = 1e-6 * max(1.0, abs(x))
                    coarse = (
                        eval_sonine_laguerre(poly, x + step) - eval_sonine_laguerre(poly, x - step)
                    ) / (2.0 * step)
                    fine = (
                        eval_sonine_laguerre(poly, x + step / 2.0)
                        - eval_sonine_laguerre(poly, x - step / 2.0)
                    ) / step
                    numeric = (4.0 * fine - coarse) / 3.0
                    deriv = max(deriv, abs(exact - numeric) / max(abs(exact), 1.0))
        detail = verify.check_laguerre_oracle().detail
        assert detail == f"sum agreement {worst:.2e} (tol 1e-10), derivative {deriv:.2e} (tol 1e-7)"
