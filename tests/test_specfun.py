import math
import sys
import threading
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import eval_genlaguerre, roots_genlaguerre

from susyrad import _grid, _laguerre_forms, coulomb, oscillator, qdt, reports, specfun, susy, verify
from susyrad.errors import ConvergenceError, DomainError
from susyrad.specfun import (
    Quadrature,
    SonineLaguerre,
    eval_sonine_laguerre,
    eval_sonine_laguerre_derivative,
    inner_product,
    integrate_half_line,
    laguerre_envelope_log,
    sonine_laguerre_direct_sums,
)

ORDER_GRID = (-0.5, 0.0, 0.5, 1.0, 2.7)
POINT_GRID = (0.01, 1.0, 10.0, 50.0)


def _direct_sum(poly, x):
    """The oracle's row of one card."""
    return sonine_laguerre_direct_sums([poly], x)[0]


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
        reference = _direct_sum(poly, x)
        value = eval_sonine_laguerre(poly, x)
        assert value == pytest.approx(reference, rel=1e-10, abs=1e-10)

    @pytest.mark.parametrize(("key", "expected"), sorted(DIRECT_SUM_FROZEN.items()))
    def test_direct_sum_frozen_values(self, key, expected):
        degree, order, x = key
        value = _direct_sum(SonineLaguerre(degree, order), x)
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
        assert _direct_sum(poly, 0.0) == pytest.approx(expected, rel=1e-14)

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
        # refused before any rule is built: 10**6 nodes, doubled six times, asked numpy for 7.28 TiB
        for count in (2.5, 8.0, "8", None, specfun.MAX_NODE_COUNT + 1, 10**6):
            with pytest.raises(DomainError, match="node_count must be an integer in"):
                Quadrature(node_count=count)
        for tol in ("1e-3", None, 1j, math.nan, -1e-3):
            with pytest.raises(DomainError, match="target_rel_tol must be a positive number"):
                Quadrature(target_rel_tol=tol)

    def test_accepts_the_bounds(self):
        assert Quadrature(node_count=np.int64(2)).node_count == 2
        assert Quadrature(node_count=specfun.MAX_NODE_COUNT, target_rel_tol=np.float64(1e-3))

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
        got = laguerre_envelope_log([n], [order], t[None])[0]
        np.testing.assert_allclose(got, expected, rtol=1e-12, atol=1e-13)

    def test_finite_at_large_degree(self):
        values = laguerre_envelope_log([400], [0.5], np.array([[1e-300, 1.0, 1e6, 1e15]]))
        assert np.all(np.isfinite(values))

    @pytest.mark.parametrize("state", FAMILY_STATES[::4] + LARGE_STATES)
    def test_envelope_bounds_the_waveform(self, state):
        cutoff = specfun._tail_cutoff(lambda t: state.value(t) ** 2)
        grid = np.concatenate([np.geomspace(1e-6, 1.0, 500), np.linspace(1.0, 2.0 * cutoff, 4000)])
        bound = np.exp(specfun.log_envelopes([state], grid[None])[0])
        assert np.all(np.abs(state.value(grid)) <= bound * (1.0 + 1e-12))


RULE_ORDERS = (-0.5, 0.0, 0.4, 2.7, 11.0)


class TestGaussLaguerre:
    @pytest.mark.parametrize("k", [2, 10, 40])
    @pytest.mark.parametrize("alpha", RULE_ORDERS)
    def test_matches_scipy(self, alpha, k):
        nodes, log_weights = specfun.gauss_laguerre(alpha, k)
        want_nodes, want_weights = roots_genlaguerre(k, alpha)
        np.testing.assert_allclose(nodes, want_nodes, rtol=1e-13, atol=0.0)
        np.testing.assert_allclose(np.exp(log_weights), want_weights, rtol=1e-12, atol=0.0)

    @pytest.mark.parametrize("k", [1, 2, 5, 10, 40])
    @pytest.mark.parametrize("alpha", RULE_ORDERS)
    def test_exact_on_every_power_below_2k(self, alpha, k):
        nodes, log_weights = specfun.gauss_laguerre(alpha, k)
        for j in range(2 * k):
            # sum w x**j = Gamma(alpha + j + 1), compared as a ratio so that no term leaves double range
            ratio = np.sum(np.exp(log_weights + j * np.log(nodes) - math.lgamma(alpha + j + 1.0)))
            assert abs(ratio - 1.0) <= 1e-12, j


class TestGramMatrix:
    @pytest.mark.parametrize(("name", "states"), FAMILIES, ids=[name for name, _ in FAMILIES])
    def test_matches_pairwise_inner_products(self, name, states):
        gram, _ = verify._gram(states)
        for a, left in enumerate(states):
            for b, right in enumerate(states[a:], start=a):
                pairwise = inner_product(left, right)
                assert abs(gram[a, b] - pairwise) <= 1e-12, (a, b)
                assert abs(gram[b, a] - pairwise) <= 1e-12, (b, a)

    @pytest.mark.parametrize("state", FAMILY_STATES + LARGE_STATES)
    def test_lone_state_rule_norm_matches_its_panel_norm(self, state):
        # a rule of degree + 1 nodes is exact on the state's square, up to degree 80
        gram, nodes = verify._gram([state])
        assert nodes == state.degree + 1
        assert abs(gram[0, 0] - 1.0) <= 1e-12
        assert abs(gram[0, 0] - inner_product(state, state)) <= 1e-12

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
        assert detail == "64 states across 11 families; Gauss-Laguerre rules of 4-8 nodes"


def _textbook_terms(n, a, x):
    """L_0^(a), ..., L_n^(a) by the textbook three-term recurrence, one expression per step."""
    terms = [np.ones_like(x), a + 1.0 - x]
    for k in range(1, n):
        terms.append(((2.0 * k + a + 1.0 - x) * terms[-1] - (k + a) * terms[-2]) / (k + 1.0))
    return terms[: n + 1]


def _allocating_recurrence(n, a, x):
    """L_n^(a) by the textbook recurrence: the accuracy baseline."""
    return _textbook_terms(n, a, x)[n]


def _exponents(top):
    """E_0, ..., E_top from whole factorials: E_0 = E_1 = 0, then m_k = E_{k+1} - E_k starts at 3
    and moves only to keep E_{k+1} in [ceil(log2 (k+1)!), ceil(log2 (k+1)!) + 16]."""
    exponents, step = [0, 0], 3
    for k in range(1, top):
        least = (math.factorial(k + 1) - 1).bit_length()
        step = min(max(step, least - exponents[-1]), least + 16 - exponents[-1])
        exponents.append(exponents[-1] + step)
    return exponents


def _allocating_pair(n, a, x):
    """L_n^(a) by the scaled (Q, W) recurrence of `_grid._rows`, as expressions allocating their temporaries.

    Q_k = 2**-E_k k! L_k^(a) and W_k = 2**-E_k k! L_{k-1}^(a+1); each step is
    Q_{k+1} = ((k + 1 + a) 2**-m_k - x 2**-m_k) Q_k - (x 2**-m_k) W_k and
    W_{k+1} = (k + 1) 2**-m_k (W_k + Q_k), with m_k = E_{k+1} - E_k, and the row is Q_n 2**E_n / n!.
    """
    if n == 0:
        return np.ones_like(x)
    exponents = _exponents(n)
    scales = [2.0 ** (exponents[k] - exponents[k + 1]) for k in range(n)]
    q, w = (1.0 + a) - x, np.ones_like(x)
    for k in range(1, n):
        q, w = ((k + 1.0 + a) * scales[k] - x * scales[k]) * q - (x * scales[k]) * w, (w + q) * ((k + 1.0) * scales[k])
    return q * ((1 << exponents[n]) / math.factorial(n))


def _one_row(n, a, x):
    """The batched recurrence's value row as a batch of one, in the shape of x."""
    (values,) = _grid._recurrence([n], [a], x.reshape(-1))
    return values[0].reshape(x.shape)


def _bitwise_equal(got, want):
    return np.array_equal(got, want, equal_nan=True) and np.array_equal(
        np.signbit(got), np.signbit(want)
    )


class TestInPlaceRecurrence:
    @pytest.mark.parametrize("n", [0, 1, 2, 5, 80])
    @pytest.mark.parametrize("a", [-0.5, 0.0, 2.7])
    @pytest.mark.parametrize(
        "x",
        [np.array(3.5), np.array([3.5]), np.linspace(0.0, 400.0, 20000)],
        ids=["0-d", "1-element", "2e4-points"],
    )
    def test_bitwise_equal_to_allocating_form(self, n, a, x):
        got = _one_row(n, a, x)
        want = _allocating_pair(n, a, x)
        assert np.shape(got) == np.shape(want)
        assert _bitwise_equal(got, want)

    def test_bitwise_equal_through_overflow(self):
        x = np.geomspace(1e-3, 1e300, 2000)
        with np.errstate(all="ignore"):
            got = _one_row(80, 150.0, x)
            want = _allocating_pair(80, 150.0, x)
        assert not np.all(np.isfinite(want))
        assert np.array_equal(got, want, equal_nan=True)

    # descending degrees with repeats, 0 and 1 after 80, and one row that overflows
    BATCH = ((80, 0.0), (80, 150.0), (12, -0.5), (5, 0.5), (5, 2.7), (2, 0.0), (1, -0.5), (0, 2.7))

    @pytest.mark.parametrize("per_row", [False, True], ids=["shared-x", "per-row-x"])
    def test_every_row_of_a_batch_equals_its_allocating_form(self, per_row):
        degrees, orders = zip(*self.BATCH)
        finite = np.linspace(0.0, 60.0, 701)
        if per_row:
            # the overflowing row runs far out while its neighbours stay finite
            x = np.vstack([finite * (1.0 + 0.01 * i) for i in range(len(degrees))])
            x[1] = np.geomspace(1e-3, 1e300, 701)
        else:
            x = finite
        with np.errstate(all="ignore"):
            (got,) = _grid._recurrence(list(degrees), list(orders), x)
            want = [
                _allocating_pair(n, a, x[i] if per_row else x)
                for i, (n, a) in enumerate(self.BATCH)
            ]
        assert got.shape == (len(degrees), 701)
        if per_row:
            assert [np.all(np.isfinite(row)) for row in want] == [i != 1 for i in range(len(want))]
        for row, expected in zip(got, want):
            assert _bitwise_equal(row, expected)

    def test_zero_dimensional_input_through_public_api(self):
        assert eval_sonine_laguerre(SonineLaguerre(1, 0.5), np.float64(2.0)) == -0.5
        assert eval_sonine_laguerre(SonineLaguerre(5, 0.5), np.array(2.0)) == float(
            _allocating_pair(5, 0.5, np.array(2.0))
        )

    def test_does_not_write_to_its_argument(self):
        x = np.linspace(0.0, 10.0, 50)
        kept = x.copy()
        _grid._recurrence([7], [0.5], x)
        _grid._recurrence([7, 3], [0.5, 1.0], np.vstack([x, x]))
        assert np.array_equal(x, kept)

    def test_rising_degrees_are_refused(self):
        x = np.linspace(0.0, 10.0, 50)
        with pytest.raises(ValueError, match=r"descending degree, got degrees \[3, 7\]"):
            _grid._recurrence([3, 7], [0.5, 1.0], np.vstack([x, x]))


def _local_error(got, exact):
    """|got - exact| over the largest |exact| within four points either side."""
    window = np.lib.stride_tricks.sliding_window_view(np.pad(np.abs(exact), 4, mode="edge"), 9)
    return np.abs(got - exact) / window.max(axis=-1)


class TestDerivativeRows:
    """The rows d^j/dt^j L_n^(a) = (-1)^j L_{n-j}^(a+j), j >= 1, of one recurrence pass."""

    @pytest.mark.parametrize("n", [40, 139, 200])
    @pytest.mark.parametrize("a", [-0.5, 0.0, 1.0, 7.5, 21.0])
    def test_within_four_times_the_value_path_error(self, n, a):
        # the oracle rounds once per point; the value path is L_{n-j}^(a+j)'s own recurrence
        t = np.linspace(0.0, 4.0 * n + 2.0 * a, 301)[1:]
        stack = _grid.laguerre_stack([n], [a], t, 3)
        for j in (1, 2, 3):
            exact = _direct_sum(SonineLaguerre(n - j, a + j), t)
            (value_path,) = _grid._recurrence([n - j], [a + j], t)
            row_error = _local_error((-1) ** j * stack[j][0], exact).max()
            value_error = _local_error(value_path[0], exact).max()
            assert row_error <= 4.0 * max(value_error, 1e-15), (j, row_error, value_error)

    # descending degrees with repeats, and degrees below the order
    BATCH = ((9, 0.5), (9, 2.7), (4, -0.5), (2, 0.0), (2, 1.5), (1, -0.5), (0, 2.7))

    @pytest.mark.parametrize("per_row", [False, True], ids=["shared-x", "per-row-x"])
    def test_every_row_of_a_batch_equals_its_lone_build(self, per_row):
        degrees, orders = (list(column) for column in zip(*self.BATCH))
        finite = np.linspace(0.0, 30.0, 301)
        x = np.vstack([finite * (1.0 + 0.01 * i) for i in range(len(degrees))]) if per_row else finite
        kept = x.copy()
        full = _grid.laguerre_stack(degrees, orders, x, 3)
        assert np.array_equal(x, kept)
        for order in range(4):
            got = _grid.laguerre_stack(degrees, orders, x, order)
            assert len(got) == order + 1
            for i, (n, a) in enumerate(self.BATCH):
                row_x = x[i] if per_row else x
                alone = _grid.laguerre_stack([n], [a], row_x, order)
                for j, rows in enumerate(got):
                    assert rows.shape == (len(degrees), 301)
                    assert _bitwise_equal(rows[i], alone[j][0]), (order, i, j)
                    # a lower order's stack is the start of a higher order's
                    assert _bitwise_equal(rows[i], full[j][i]), (order, i, j)
                    if j > n:
                        assert _bitwise_equal(rows[i], np.zeros(301)), (order, i, j)
                    elif j % 2:
                        # an odd row is its own recurrence's, with the sign of the derivative
                        (own,) = _grid._recurrence([n - j], [a + j], row_x)
                        assert _bitwise_equal(rows[i], -own[0]), (order, i, j)


def _textbook_stack(n, a, t):
    """Rows j <= 3 of L_n^(a) by the textbook recurrence: odd rows their own, the row 2 summed from the row 1."""
    rows = [_allocating_recurrence(n, a, t)]
    for j in (1, 2, 3):
        if j > n:
            rows.append(np.zeros_like(t))
        elif j % 2:
            rows.append(_allocating_recurrence(n - j, a + j, t))
        else:
            rows.append(sum(_textbook_terms(n - 2, a + 1.0, t)))
    return rows


def _weighted_local_error(got, exact, t):
    """The local error of e^(-t/2) L, the factor every form multiplies L by.

    Over [0, 4n + 2a] |L_n^(a)| grows like e^(t/2), so a window of L's own
    magnitudes holds the value of its largest t: the last point's window is
    in effect the point alone, and its error a relative error, without bound
    near a zero.  Under the weight the envelope is flat, and the window is local.
    """
    weight = np.exp(-0.5 * t)
    return _local_error(got * weight, exact * weight)


def _range_top(n, a):
    """The largest t at which Szegő's |L_k^(b)(t)| <= max(binomial(k + b, k), 2) e^(t/2) keeps rows j <= 3 under 1e300."""
    logs = [math.lgamma(n + a + 1.0) - math.lgamma(n - j + 1.0) - math.lgamma(a + j + 1.0) for j in range(min(n, 3) + 1)]
    return 2.0 * (math.log(1e300) - max(*logs, math.log(2.0)))


# degree strata of the accuracy comparison
ACCURACY_STRATA = ((0, 12), (13, 60), (61, 160), (161, 400))


class TestAccuracy:
    """The division-free recurrence against the textbook one, both measured on the exact rational sums."""

    @pytest.mark.parametrize(("low", "high"), ACCURACY_STRATA, ids=[f"{lo}-{hi}" for lo, hi in ACCURACY_STRATA])
    @settings(derandomize=True, max_examples=2, deadline=None)
    @given(data=st.data())
    def test_no_worse_than_twice_the_textbook_form(self, low, high, data):
        # t on [0, 4n + 2a], the zeros' range, up to where an exact row could leave double range
        cases = data.draw(st.lists(st.tuples(st.integers(low, high), st.integers(-4, 200), st.randoms()),
                                   min_size=6, max_size=6))
        worst = np.zeros((2, 4))  # (division-free, textbook) x rows j, over the stratum's cases
        for n, eighths, rng in cases:
            a = eighths / 8.0
            top = min(max(4.0 * n + 2.0 * a, 1.0), _range_top(n, a))
            t = np.sort([rng.uniform(0.0, top) for _ in range(64)])
            rows, textbook = _grid.laguerre_stack([n], [a], t, 3), _textbook_stack(n, a, t)
            for j in range(min(n, 3) + 1):
                exact = _direct_sum(SonineLaguerre(n - j, a + j), t)
                worst[0, j] = max(worst[0, j], _weighted_local_error((-1) ** j * rows[j][0], exact, t).max())
                worst[1, j] = max(worst[1, j], _weighted_local_error(textbook[j], exact, t).max())
        assert np.all(worst[0] <= 2.0 * worst[1] + 1e-15), worst

    @pytest.mark.parametrize(("n", "a"), [(5, 60.0), (5, 100.0), (9, 301.0), (10, 150.0)])
    def test_large_orders_no_worse_than_twice_the_textbook_form(self, n, a):
        # near t = k + a + 1 the step's two terms cancel; its first factor, formed from exact numbers, loses nothing
        t = np.linspace(0.0, 4.0 * n + 2.0 * a, 301)[1:]
        rows, textbook = _grid.laguerre_stack([n], [a], t, 3), _textbook_stack(n, a, t)
        for j in range(4):
            exact = _direct_sum(SonineLaguerre(n - j, a + j), t)
            got = _weighted_local_error((-1) ** j * rows[j][0], exact, t).max()
            want = _weighted_local_error(textbook[j], exact, t).max()
            assert got <= 2.0 * want + 1e-15, (j, got, want)

    def test_scales_are_those_of_the_whole_factorial(self):
        sigmas, kappas = _grid._scales(5000)
        exponents = _exponents(5001)
        for k in range(5001):
            assert kappas[k] == (1 << exponents[k]) / math.factorial(k), k
            assert sigmas[k] == 2.0 ** (exponents[k] - exponents[k + 1]), k

    @pytest.mark.parametrize(("n", "a"), [(12, 0.5), (200, 7.5), (1000, 0.0), (10_000, -0.5), (10_000, 21.0)])
    def test_finite_wherever_the_textbook_form_is(self, n, a):
        t = np.concatenate([[0.0], np.geomspace(1e-3, 1e300, 80)])
        with np.errstate(all="ignore"):
            rows, textbook = _grid.laguerre_stack([n], [a], t, 3), _textbook_stack(n, a, t)
        for j in range(4):
            finite = np.isfinite(textbook[j])
            assert finite.any() and not finite.all(), j
            assert np.isfinite(rows[j][0][finite]).all(), j


def _started_chains(monkeypatch):
    """Count the chains `_recurrence` starts, by j, through _grid._rows."""
    started = Counter()
    original = _grid._rows

    def counted(stack, j, *args):
        started[j] += 1
        return original(stack, j, *args)

    monkeypatch.setattr(_grid, "_rows", counted)
    return started


def _fresh(call):
    """call() with `_recurrence`'s slot emptied first, so that every chain runs."""
    _grid._last_values = None
    return call()


def _pair(state, grid):
    """A state's value and its residual on grid, as eval_wide and a wavefunction check ask for them."""
    return state.value(grid), susy.apply_operator(state.operator(), state, grid, state.operator_eigenvalue())


class TestValuesSlot:
    """`_recurrence`'s one-entry memo of its last lone values row."""

    @pytest.fixture(autouse=True)
    def _empty_slot(self, monkeypatch):
        monkeypatch.setattr(_grid, "_last_values", None)

    @pytest.mark.parametrize(
        "state",
        [coulomb.CoulombState(3, 40, 2), oscillator.OscillatorState(3, 60, 4)],
        ids=["coulomb-degree37", "oscillator-degree28"],
    )
    def test_a_value_then_its_residual_starts_the_values_chain_once(self, state, monkeypatch):
        grid = np.linspace(0.1, 60.0, 2001)
        calls = (
            lambda: state.value(grid),
            lambda: state.second_derivative(grid),
            lambda: susy.apply_operator(state.operator(), state, grid, state.operator_eigenvalue()),
        )
        want = [_fresh(call) for call in calls]
        _grid._last_values = None
        started = _started_chains(monkeypatch)
        got = [call() for call in calls]
        # the value starts the values chain; the curvature and the residual only the odd one
        assert started == Counter({0: 1, 1: 2})
        for g, w in zip(got, want):
            assert _bitwise_equal(g, w)

    def test_writes_to_the_argument_or_the_rows_do_not_reach_the_slot(self, monkeypatch):
        degrees, orders = [9], [0.5]
        x = np.linspace(0.0, 30.0, 301)
        want = [row.copy() for row in _fresh(lambda: _grid._recurrence(degrees, orders, x, 2))]
        started = _started_chains(monkeypatch)
        for order in (2, 0, 1):
            got = _grid._recurrence(degrees, orders, x, order)
            for row, expected in zip(got, want):
                assert _bitwise_equal(row, expected), order
                row *= -3.0
        # every repeat took the values row from the slot, and none saw the writes above
        assert started[0] == 0
        x[100] += 1.0
        moved = _grid._recurrence(degrees, orders, x, 2)
        assert started[0] == 1
        fresh = _fresh(lambda: _grid._recurrence(degrees, orders, x, 2))
        assert all(_bitwise_equal(g, w) for g, w in zip(moved, fresh))
        assert not _bitwise_equal(moved[0], want[0])
        # a card hands its caller a view of its values row
        card, point = SonineLaguerre(12, 1.5), np.linspace(0.0, 20.0, 41)
        first = eval_sonine_laguerre(card, point)
        kept = first.copy()
        first[:] = 7.0
        assert _bitwise_equal(eval_sonine_laguerre(card, point), kept)

    def test_any_other_key_misses(self, monkeypatch):
        degrees, orders = [9], [0.5]
        x = np.linspace(0.0, 30.0, 301)
        changed = x.copy()
        changed[150] = np.nextafter(changed[150], np.inf)
        others = (
            ([10], orders, x),
            (degrees, [0.6], x),
            (degrees, orders, x.reshape(1, -1)),
            (degrees, orders, changed),
        )
        started = _started_chains(monkeypatch)
        for d, a, arg in others:
            _grid._recurrence(degrees, orders, x)
            started.clear()
            got = _grid._recurrence(d, a, arg, 2)
            assert started == Counter({0: 1, 1: 1}), (d, a, arg.shape)
            fresh = _fresh(lambda: _grid._recurrence(d, a, arg, 2))
            assert all(_bitwise_equal(g, w) for g, w in zip(got, fresh))

    def test_a_batch_never_replaces_the_slot(self, monkeypatch):
        x = np.linspace(0.0, 30.0, 301)
        batch = ([9, 9, 4], [0.5, 2.7, 2.7])
        want = _fresh(lambda: _grid._recurrence([9], [0.5], x, 2))
        _grid._last_values = None
        started = _started_chains(monkeypatch)
        _grid._recurrence([9], [0.5], x)
        entry = _grid._last_values
        # a batch is not kept, so its repeat runs its values chain again
        for _ in range(2):
            _grid._recurrence(*batch, x, 2)
            assert _grid._last_values is entry
        got = _grid._recurrence([9], [0.5], x, 2)
        # the lone value and its residual started the values chain once between them
        assert started == Counter({0: 3, 1: 3})
        assert all(_bitwise_equal(g, w) for g, w in zip(got, want))

    def test_the_slot_is_one_private_bounded_entry(self):
        x = np.linspace(0.0, 30.0, 301)
        (values,) = _grid._recurrence([9], [0.5], x)
        degrees, orders, kept_x, kept_row = _grid._last_values
        assert (degrees, orders) == ((9,), (0.5,))
        assert not np.shares_memory(kept_x, x) and not np.shares_memory(kept_row, values)
        # a chain with no step, or a row past the element budget, leaves the slot empty
        _grid._recurrence([0], [0.5], x)
        assert _grid._last_values is None
        wide = np.linspace(0.0, 30.0, _grid._SLOT_ELEMENTS + 1)
        _grid._recurrence([3], [0.5], wide)
        assert _grid._last_values is None
        _grid._recurrence([3], [0.5], wide[:-1])
        assert _grid._last_values[3].size == _grid._SLOT_ELEMENTS

    def test_threads_alternating_pairs_give_the_serial_bits(self):
        grid = np.linspace(0.1, 40.0, 201)
        # the first and last differ only in the order of their polynomial
        states = [coulomb.CoulombState(3, 30, 1), oscillator.OscillatorState(3, 40, 2),
                  coulomb.CoulombState(3, 30, 1, delta=0.25)]
        want = [_fresh(lambda: _pair(state, grid)) for state in states]
        got = [[] for _ in states]
        # more threads than cores, each running many short pairs, so that thread switches
        # land between reading the slot and using it
        orders = ((0, 1), (1, 2, 0), (2, 0))
        barrier = threading.Barrier(len(orders))

        def run(order):
            barrier.wait()
            for _ in range(200):
                for i in order:
                    got[i].append(_pair(states[i], grid))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=run, args=(order,)) for order in orders]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60.0)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert [len(pairs) for pairs in got] == [600, 400, 400]
        for pairs, (value, residual) in zip(got, want):
            for v, r in pairs:
                assert _bitwise_equal(v, value) and _bitwise_equal(r, residual)


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


# the integer exponents have zero power-rule coefficients past their order; the others none
_EXPONENTS = (0.5, 2.0, 1.0, 1.3, 3.75)


@st.composite
def _families(draw):
    """Forms of one class, mixed degrees and exponents, on a shared grid or one grid each."""
    gaussian = draw(st.booleans())
    forms = []
    for _ in range(draw(st.integers(1, 6))):
        exponent = draw(st.sampled_from(_EXPONENTS))
        degree = draw(st.sampled_from([0, 1, 2]) | st.integers(0, 80))
        if gaussian:
            forms.append(_laguerre_forms.GaussianLaguerreForm(exponent, degree, exponent - 0.5))
        else:
            scale = draw(st.floats(0.25, 4.0))
            forms.append(_laguerre_forms.ExponentialLaguerreForm(
                scale, exponent, degree, 2.0 * exponent - 1.0))
    points = draw(st.integers(1, 12))
    row = st.lists(st.floats(1e-3, 40.0), min_size=points, max_size=points)
    if draw(st.booleans()):
        return forms, np.array(draw(row))
    return forms, np.array([draw(row) for _ in forms])


class TestFamilyBatch:
    @settings(derandomize=True, max_examples=200, deadline=None)
    @given(family=_families(), orders=st.lists(st.integers(0, 3), min_size=1, max_size=4))
    def test_batch_equals_each_form_alone(self, family, orders):
        forms, grid = family
        with np.errstate(all="ignore"):
            got = _grid.family_derivatives(forms, grid, orders)
            for i, form in enumerate(forms):
                alone = form.derivatives(grid if grid.ndim == 1 else grid[i], orders)
                for k, entry in enumerate(alone):
                    assert got[k].shape == (len(forms), grid.shape[-1])
                    assert _bitwise_equal(got[k][i], entry), (i, orders[k])


def _poly_stack(form, t):
    """The form's polynomial stack to third order, as a batch of one, in the shape of t."""
    stack = _grid.laguerre_stack([form.degree], [form.order], t.reshape(-1), 3)
    return [row.reshape(t.shape) for row in stack]


def _full_stack_derivative(form, arr, order):
    """Every factor's stack built to third order, whatever order is asked for.

    u_j is norm * (d^j/dx^j x**q) * exp(-decay) as one exponential, and exactly 0
    where its coefficient is; w is the exponential's stack relative to itself.
    """
    q = form.exponent
    if isinstance(form, _laguerre_forms.ExponentialLaguerreForm):
        decay = arr / (2.0 * form.scale)
        rate = -1.0 / (2.0 * form.scale)
        w = (1.0, rate, rate * rate, rate**3)
        t = arr / form.scale
        p = _poly_stack(form, t)
        inv = 1.0 / form.scale
        z = (p[0], p[1] * inv, p[2] * inv * inv, p[3] * inv**3)
    else:
        t = arr * arr
        decay = 0.5 * t
        w = (1.0, -arr, t - 1.0, 3.0 * arr - arr**3)
        p = _poly_stack(form, t)
        z = (
            p[0],
            2.0 * arr * p[1],
            2.0 * p[1] + 4.0 * t * p[2],
            12.0 * arr * p[2] + 8.0 * arr**3 * p[3],
        )
    coefficients = (1.0, q, q * (q - 1.0), q * (q - 1.0) * (q - 2.0))
    u = [
        c * np.exp((q - j) * np.log(arr) + form.log_norm - decay) if c else np.zeros_like(arr)
        for j, c in enumerate(coefficients)
    ]
    return _full_triple_product(u, w, z, order)


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
    def test_every_order_is_one_recurrence_pass(self, state, monkeypatch):
        calls = []
        original = _grid._recurrence

        def counted(degrees, orders, x, order=0):
            calls.append((len(degrees), order))
            return original(degrees, orders, x, order)

        # the forms look the recurrence up on _grid at each call
        monkeypatch.setattr(_grid, "_recurrence", counted)
        assert state.degree >= 3
        grid = np.linspace(0.1, 5.0, 7)
        # a family of the state's class, degrees 0 to 4 beside it, costs what the state alone does
        step = 2 if isinstance(state, oscillator.OscillatorState) else 1
        family = [type(state)(state.dimension, state.principal - step * k, state.angular)
                  for k in range(state.degree + 1)]
        assert {form.degree for form in family} == set(range(state.degree + 1))
        for order, name in enumerate(_DERIVATIVES):
            # one pass gives every polynomial derivative the order needs, one row per form
            calls.clear()
            getattr(state, name)(grid)
            assert calls == [(1, order)], name
            calls.clear()
            _grid.family_derivatives(family, grid, (order,))
            assert calls == [(len(family), order)], name

    def test_map_and_annihilation_checks_build_once_per_side(self, monkeypatch):
        builds = []
        original = _grid._build

        def counted(forms, *args):
            builds.append(len(forms))
            return original(forms, *args)

        # the forms look the build up on _grid at each call
        monkeypatch.setattr(_grid, "_build", counted)
        # criteria 5 and 6: every distinct target on the shared grid, then every distinct source on its own
        # row; criterion 5's 70 maps are 28 distinct (source, target) pairs
        for check, rows in ((verify.check_exact_maps, 28), (verify.check_odd_dimension_map, 6)):
            builds.clear()
            assert check().passed
            assert builds == [rows, rows], check.__name__
        # criterion 4: one (0, 1) build of each family's distinct ground states, and one shift-defect
        # build of each family's distinct U: its 36 (U, ground) pairs are 21 distinct
        annihilation, batch, shifts = [], susy.annihilation_residuals, []
        shift_identity_defects = susy.shift_identity_defects

        def recorded(*args):
            start = len(builds)
            out = batch(*args)
            annihilation.append(builds[start:])
            return out

        monkeypatch.setattr(susy, "annihilation_residuals", recorded)

        def shift(us, grid):
            shifts.append(len(us))
            return shift_identity_defects(us, grid)

        monkeypatch.setattr(susy, "shift_identity_defects", shift)
        builds.clear()
        assert verify.check_susy_structure().passed
        assert annihilation == [[11], [10]]
        assert shifts == [11, 10]
        # the rest are the intertwining's three images, each built for its residual and its value
        assert len(builds) == 2 + 3 * 2

    @pytest.mark.parametrize(
        "state, x",
        [(oscillator.OscillatorState(3, 2, 0), 1e160), (oscillator.OscillatorState(3, 12, 10), 1e160),
         (coulomb.CoulombState(2, 1, 0), 1.7e308)],
        ids=["multiply", "power", "divide"],
    )
    def test_overflowing_argument_is_refused_before_any_warning(self, state, x):
        # under pytest's error::RuntimeWarning a numpy overflow in any factor would surface
        # instead; the argument is checked before the power, exponential or polynomial stacks
        with pytest.raises(DomainError, match="its Laguerre argument overflows"):
            state.value(x)



# every state class, each of degree >= 1: a degree-0 state has no recurrence step and was empty already
_EMPTY_GRID_STATES = {
    "coulomb": lambda: coulomb.CoulombState(3, 2, 0),
    "oscillator": lambda: oscillator.OscillatorState(3, 4, 0),
    "defect": lambda: qdt.DefectModel(3, {0: 0.4}, {0: 1}).state(3, 0),
    "anharmonic": lambda: qdt.AnharmonicModel(2, {0: 0.1}, {0: 1}).state(4, 0),
}
_EMPTY_GRID_CALLS = {
    "card": lambda x: eval_sonine_laguerre(SonineLaguerre(3, 0.5), x),
    "card-derivative": lambda x: eval_sonine_laguerre_derivative(SonineLaguerre(3, 0.5), x),
    "hydrogen": lambda x: coulomb.eval_hydrogen_R(3, 0, x),
    "apply-operator": lambda x: susy.apply_operator(coulomb.CoulombState(3, 2, 0).operator(),
                                                    coulomb.CoulombState(3, 2, 0), x),
}
_EMPTY_SHAPES = pytest.mark.parametrize("shape", [(0,), (0, 3), (2, 0)], ids=str)


class TestEmptyGrids:
    """An empty grid gives an empty float array of its shape, as a non-empty one gives its values.

    A 1-D argument row was reshaped to (-1, 0), which numpy refuses as ambiguous.
    """

    @_EMPTY_SHAPES
    @pytest.mark.parametrize("order", range(4))
    @pytest.mark.parametrize("state_id", sorted(_EMPTY_GRID_STATES))
    def test_state(self, state_id, order, shape):
        out = getattr(_EMPTY_GRID_STATES[state_id](), _DERIVATIVES[order])(np.empty(shape))
        assert (out.shape, out.dtype) == (shape, np.float64)

    @_EMPTY_SHAPES
    @pytest.mark.parametrize("call_id", sorted(_EMPTY_GRID_CALLS))
    def test_evaluator(self, call_id, shape):
        out = _EMPTY_GRID_CALLS[call_id](np.empty(shape))
        assert (out.shape, out.dtype) == (shape, np.float64)

    @pytest.mark.parametrize("shape", [(0,), (2, 0)], ids=str)
    @pytest.mark.parametrize("orders", [(0,), (0, 2), (1, 3)], ids=str)
    def test_family(self, orders, shape):
        forms = [coulomb.CoulombState(3, 3, 0), coulomb.CoulombState(3, 2, 0)]
        out = _grid.family_derivatives(forms, np.empty(shape), orders)
        assert [(d.shape, d.dtype) for d in out] == [((2, 0), np.float64)] * len(orders)


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
    """Every (state, grid) of check_radial_residuals: each state built, on its representative's measured row."""
    built, seen = [], []
    form_states, relative_residuals = verify._form_states, reports._relative_residuals

    def building(family, used):
        states = list(form_states(family, used))
        built.extend(states)
        return states

    def recording(states, grids):
        # a grid shared by the batch is every state's row
        seen.append(list(zip(states, np.broadcast_to(grids, (len(states), np.shape(grids)[-1])))))
        return relative_residuals(states, grids)

    monkeypatch.setattr(verify, "_form_states", building)
    monkeypatch.setattr(reports, "_relative_residuals", recording)
    assert verify.check_radial_residuals().passed
    monkeypatch.undo()
    # batches of one form class, each a row of grids per state, none past the row budget
    assert all(len(batch) <= verify._BATCH_ROWS for batch in seen)
    assert all(len({isinstance(state, coulomb.CoulombState) for state, _ in batch}) == 1 for batch in seen)
    # each distinct form is measured once
    rows = {verify._form_key(state): grid for batch in seen for state, grid in batch}
    assert len(rows) == sum(len(batch) for batch in seen) == 305
    return [(state, rows[verify._form_key(state)]) for state in built]


class TestSharedResidualStack:
    def test_shared_stack_equals_separate_calls(self, monkeypatch):
        seen = _residual_states(monkeypatch)
        assert len(seen) == 464
        for state, grid in seen:
            value, curvature = state.derivatives(_grid.positive_grid(grid), (0, 2))
            assert np.array_equal(value, state.value(grid))
            assert np.array_equal(curvature, state.second_derivative(grid))

    def test_derivative_list_equals_public_methods(self, monkeypatch):
        # the image's entries against the product rule written out by hand from psi's methods
        for state, grid in _residual_states(monkeypatch):
            checked = _grid.positive_grid(grid)
            p = [np.asarray(getattr(state, name)(grid)) for name in _DERIVATIVES]
            for got, want in zip(state.derivatives(checked, (0, 1, 2, 3)), p):
                assert np.array_equal(got, want)
            if isinstance(state, _laguerre_forms.ExponentialLaguerreForm):
                u = susy.coulomb_superpotential(state.l_star, state.gamma)
            else:
                u = susy.oscillator_superpotential(state.l_star, state.gamma)
            w, wp, wpp = (0.5 * du for du in u.derivatives(checked, (1, 2, 3)))
            hand = (
                p[1] + w * p[0],
                p[2] + wp * p[0] + w * p[1],
                p[3] + wpp * p[0] + 2.0 * wp * p[1] + w * p[2],
            )
            image = susy.SuperchargeImage(u, state)
            for got, want in zip(image.derivatives(checked, (0, 1, 2)), hand):
                assert np.array_equal(got, want)
            assert np.array_equal(image.value(grid), hand[0])
            assert np.array_equal(susy.apply_supercharge(u, state, grid), hand[0])

    def test_relative_residual_equals_apply_operator(self, monkeypatch):
        seen = _residual_states(monkeypatch)
        want = []
        for state, grid in seen:
            res = susy.apply_operator(state.operator(), state, grid, state.operator_eigenvalue())
            want.append(float(np.max(np.abs(res)) / np.max(np.abs(state.value(grid)))))
        for (state, grid), expected in list(zip(seen, want))[::7]:
            assert reports._value_and_residual(state, grid)[1] == expected
        # every state of check_radial_residuals, as one batch per form class
        for coulomb_form in (True, False):
            rows = [(state, grid, expected) for (state, grid), expected in zip(seen, want)
                    if isinstance(state, coulomb.CoulombState) == coulomb_form]
            states, grids, expected = zip(*rows)
            got = reports._relative_residuals(list(states), np.array(grids))
            assert got.tolist() == list(expected)

    @pytest.mark.parametrize(
        "state",
        [coulomb.CoulombState(3, 6, 1), oscillator.OscillatorState(2, 9, 1)],
        ids=["coulomb-degree4", "oscillator-degree4"],
    )
    def test_one_grid_check_and_one_recurrence_pass(self, state, monkeypatch):
        calls = Counter()
        for name in ("positive_grid", "_check_argument", "_recurrence"):
            _count_calls(monkeypatch, _grid, name, calls)
        grid = np.linspace(0.1, 5.0, 9)
        reports._value_and_residual(state, grid)
        assert calls == Counter(positive_grid=1, _check_argument=1, _recurrence=1)
        # a batch of the state and its lower-degree neighbours costs the same calls
        family = [state, type(state)(state.dimension, state.principal - 2, state.angular)]
        for grids in (grid, np.vstack([grid, 2.0 * grid])):
            calls.clear()
            reports._relative_residuals(family, grids)
            assert calls == Counter(positive_grid=1, _check_argument=1, _recurrence=1)

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
                lambda: susy.apply_operator(state.operator(), state, bad),
                lambda: reports._value_and_residual(state, bad),
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


def _per_card_direct_sum(poly, x):
    """The oracle as one call per card, before it took a batch of cards."""
    xs = _grid._float_array(x, "argument")
    if not np.all(np.isfinite(xs)) or np.any(xs < 0.0):
        raise DomainError("argument must be finite and non-negative")
    n = int(poly.degree)
    big_a, big_b = float(poly.order).as_integer_ratio()
    numerators = []
    rising = 1
    for p in range(n, -1, -1):
        numerators.append((-1) ** p * math.comb(n, p) * big_b**p * rising)
        rising *= big_a + p * big_b
    denominator = math.factorial(n) * big_b**n
    out = np.empty(xs.shape)
    for idx, xv in np.ndenumerate(xs):
        big_x, big_y = float(xv).as_integer_ratio()
        total, scale = numerators[0], 1
        for numerator in numerators[1:]:
            scale *= big_y
            total = total * big_x + numerator * scale
        try:
            out[idx] = total / (denominator * scale)
        except OverflowError:
            raise DomainError(f"L_{n}^({poly.order!r})({float(xv)!r}) is out of float range") from None
    return float(out) if np.ndim(x) == 0 else out


def _fraction_direct_sum(poly, x):
    """The oracle in Fraction arithmetic, coefficients built downward and one Horner sum per point."""
    n = int(poly.degree)
    a = Fraction(float(poly.order))
    coeffs = [Fraction((-1) ** n, math.factorial(n))]  # c_n, c_{n-1}, ..., c_0
    for p in range(n, 0, -1):
        coeffs.append(-coeffs[-1] * (a + p) * p / (n - p + 1))
    xq = Fraction(float(x))
    total = coeffs[0]
    for c in coeffs[1:]:
        total = total * xq + c
    return float(total)  # OverflowError past float range


def _same_outcome(poly, x):
    """The integer oracle returns the Fraction oracle's bits, or refuses what it cannot round."""
    try:
        want = _fraction_direct_sum(poly, x)
    except OverflowError:
        with pytest.raises(DomainError, match="out of float range"):
            _direct_sum(poly, x)
        return
    assert _direct_sum(poly, x).hex() == want.hex()


class TestLaguerreOracle:
    def test_integer_sum_equals_fraction_sum_on_the_criterion_cards(self):
        for n in range(16):
            for order in ORDER_GRID:
                for x in POINT_GRID:
                    _same_outcome(SonineLaguerre(n, order), x)

    @settings(derandomize=True, max_examples=300, deadline=None)
    @given(
        degree=st.integers(0, 40),
        order=st.sampled_from(ORDER_GRID) | st.floats(-1.0, 1e308, exclude_min=True),
        x=st.floats(0.0, 60.0) | st.floats(0.0, 1e300),
    )
    def test_integer_sum_equals_fraction_sum(self, degree, order, x):
        _same_outcome(SonineLaguerre(degree, order), x)

    @pytest.mark.parametrize(
        "evaluate, prefix",
        [(eval_sonine_laguerre, ""), (eval_sonine_laguerre_derivative, "d/dx ")],
        ids=["value", "derivative"],
    )
    def test_recurrence_refuses_what_the_oracle_refuses(self, evaluate, prefix):
        # under pytest's error::RuntimeWarning a numpy overflow warning would surface instead
        poly = SonineLaguerre(3, 1e308)
        with pytest.raises(DomainError) as oracle:
            _direct_sum(poly, 0.5)
        with pytest.raises(DomainError) as recurrence:
            evaluate(poly, np.array([0.0, 0.5, 1.0]))
        assert str(oracle.value) == "L_3^(1e+308)(0.5) is out of float range"
        assert str(recurrence.value) == prefix + str(oracle.value).replace("(0.5)", "(0.0)")
    def test_horner_sum_equals_per_term_sum(self):
        assert tuple(verify._ORACLE_SUM_POINTS) == POINT_GRID
        points = 0
        for n in range(16):
            for order in ORDER_GRID:
                poly = SonineLaguerre(n, order)
                got = _direct_sum(poly, verify._ORACLE_SUM_POINTS)
                want = [_per_term_direct_sum(poly, x) for x in verify._ORACLE_SUM_POINTS]
                assert got.tolist() == want
                points += len(want)
        assert points == 320

    def test_scalar_and_array_sums_agree(self):
        poly = SonineLaguerre(7, 1.3)
        xs = np.array([[0.0, 0.25], [3.0, 40.0]])
        got = _direct_sum(poly, xs)
        assert got.shape == xs.shape
        assert isinstance(_direct_sum(poly, 3.0), float)
        assert got[1, 0] == _direct_sum(poly, 3.0) == _per_term_direct_sum(poly, 3.0)

    @pytest.mark.parametrize(
        "bad, message",
        [(-0.5, "finite and non-negative"), (math.inf, "finite and non-negative"),
         (math.nan, "finite and non-negative"), ([1.0, -1.0], "finite and non-negative"),
         (np.array([1.0 + 1j]), "argument must be real"), ("abc", "argument must be real")],
        ids=["-0.5", "inf", "nan", "bad3", "complex-array", "string"],
    )
    def test_sum_refuses_bad_points(self, bad, message):
        with pytest.raises(DomainError, match=message):
            _direct_sum(SonineLaguerre(3, 0.5), bad)

    def test_one_direct_sum_per_card_and_the_recurrence_in_batches(self, monkeypatch):
        calls, batches = Counter(), []
        for name in ("eval_sonine_laguerre", "eval_sonine_laguerre_derivative"):
            _count_calls(monkeypatch, specfun, name, calls)
        direct_sums = specfun.sonine_laguerre_direct_sums

        def recorded(cards, x):
            batches.append(([(card.degree, card.order) for card in cards], np.array(x)))
            return direct_sums(cards, x)

        monkeypatch.setattr(specfun, "sonine_laguerre_direct_sums", recorded)
        result = verify.check_laguerre_oracle()
        assert result.passed
        # one oracle call of the 16 degrees x 5 orders of the sum identity, on its four points;
        # the recurrence runs as batches of cards (tests/test_verify_batches.py), not through
        # the one-card evaluators
        [(cards, points)] = batches
        assert sorted(cards) == sorted((n, a) for n in range(16) for a in ORDER_GRID)
        assert len(cards) == 80 and tuple(points) == POINT_GRID
        assert not calls

    def test_batch_equals_the_per_card_sum_on_the_oracle_points(self):
        cards = [SonineLaguerre(n, order) for n in range(16) for order in ORDER_GRID]
        xs = np.array(POINT_GRID)
        got = sonine_laguerre_direct_sums(cards, xs)
        assert got.shape == (80, 4)
        assert [v.hex() for v in got.ravel()] == [
            v.hex() for card in cards for v in _per_card_direct_sum(card, xs)
        ]
        # a 0-d point gives one float per card, and a 2-D array keeps its shape in every row
        for x in POINT_GRID:
            scalar = sonine_laguerre_direct_sums(cards, np.float64(x))
            assert scalar.shape == (80,)
            assert [v.hex() for v in scalar] == [_per_card_direct_sum(card, x).hex() for card in cards]
        square = xs.reshape(2, 2)
        assert np.array_equal(sonine_laguerre_direct_sums(cards, square), got.reshape(80, 2, 2))
        assert sonine_laguerre_direct_sums([], xs).shape == (0, 4)

    @pytest.mark.parametrize(
        "cards, x",
        [([SonineLaguerre(3, 0.5)], -0.5), ([SonineLaguerre(3, 0.5)], [1.0, math.nan]),
         ([SonineLaguerre(3, 0.5)], "abc"), ([SonineLaguerre(3, 0.5)], np.array([1.0 + 1j])),
         ([SonineLaguerre(2, 0.5), SonineLaguerre(3, 1e308), SonineLaguerre(4, 1e308)], [0.25, 0.5]),
         ([SonineLaguerre(4, 1e300), SonineLaguerre(3, 1e308)], 0.5)],
        ids=["negative", "nan", "string", "complex", "second-card-overflows", "first-card-overflows"],
    )
    def test_batch_refuses_as_the_first_refusing_card(self, cards, x):
        with pytest.raises(DomainError) as alone:
            for card in cards:
                _per_card_direct_sum(card, x)
        with pytest.raises(DomainError) as batch:
            sonine_laguerre_direct_sums(cards, x)
        assert str(batch.value) == str(alone.value)

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
