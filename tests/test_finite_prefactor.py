"""The prefactor norm * x**q * exp(-decay) in one exponential: finite wherever the state is.

Each of the three factors can leave double range on its own where their
product does not (a norm below 1e-308, x**q past 1e308); the build forms the
prefactor as exp(log_norm + (q - j) log x - decay) per derivative order, so a
state's values are finite on its default grid across the benchmark's range
and agree with a 50-digit oracle far out in that range.
"""

from __future__ import annotations

import math
from decimal import Decimal, localcontext
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from susyrad import reports, specfun
from susyrad.coulomb import CoulombState
from susyrad.errors import AdmissibilityError
from susyrad.oscillator import OscillatorState

_PI = Decimal("3.14159265358979323846264338327950288419716939937510582097494")


def _laguerre(degree, order, t):
    """L_degree^(order)(t) exactly, for a rational order and argument."""
    # C(k + a, k - i) = prod_{m=i+1}^{k} (a + m) / (k - i)!
    total, rising = Fraction(0), Fraction(1)
    for i in range(degree, -1, -1):
        total += (-1) ** i * rising / math.factorial(degree - i) * t**i / math.factorial(i)
        rising *= order + i
    return total


def _decimal(fraction):
    return Decimal(fraction.numerator) / Decimal(fraction.denominator)


def _coulomb_3d(n, l, y):
    """The d = 3 Coulomb state at y, 50 digits: N y**(l+1) e**(-y/2n) L_{n-l-1}^(2l+1)(y/n).

    N**2 = (n-l-1)! / (2 n**(2l+4) (n+l)!) normalizes it on the half line.
    """
    k, y = n - l - 1, Fraction(y)
    with localcontext() as ctx:
        ctx.prec = 50
        norm = (Decimal(math.factorial(k)) / (2 * Decimal(n) ** (2 * l + 4) * math.factorial(n + l))).sqrt()
        poly = _decimal(_laguerre(k, Fraction(2 * l + 1), y / n))
        return float(norm * _decimal(y) ** (l + 1) * (-_decimal(y / (2 * n))).exp() * poly)


def _oscillator_3d(big_n, big_l, y):
    """The d = 3 oscillator state at y, 50 digits: N y**(L+1) e**(-y*y/2) L_k^(L+1/2)(y*y), k = (N-L)/2.

    N**2 = 2 k! / Gamma(k + L + 3/2), and Gamma(m + 1/2) = (2m)! sqrt(pi) / (4**m m!).
    """
    k, m, y = (big_n - big_l) // 2, (big_n - big_l) // 2 + big_l + 1, Fraction(y)
    with localcontext() as ctx:
        ctx.prec = 50
        gamma = Decimal(math.factorial(2 * m)) * _PI.sqrt() / (Decimal(4) ** m * math.factorial(m))
        norm = (2 * Decimal(math.factorial(k)) / gamma).sqrt()
        poly = _decimal(_laguerre(k, Fraction(2 * big_l + 1, 2), y * y))
        return float(norm * _decimal(y) ** (big_l + 1) * (-_decimal(y * y / 2)).exp() * poly)


class TestOracle:
    def test_oracle_is_the_closed_form_at_small_numbers(self):
        # psi_10 = y e**(-y/2) / sqrt(2) and psi_00 = 2 pi**(-1/4) y e**(-y*y/2), and two with polynomials
        for y in (0.3, 1.7, 9.0):
            assert _coulomb_3d(1, 0, y) == pytest.approx(y * math.exp(-y / 2.0) / math.sqrt(2.0), rel=1e-15)
            assert _oscillator_3d(0, 0, y) == pytest.approx(
                2.0 * math.pi**-0.25 * y * math.exp(-y * y / 2.0), rel=1e-15)
            assert _coulomb_3d(5, 1, y) == pytest.approx(CoulombState(3, 5, 1).value(y), rel=1e-12)
            assert _oscillator_3d(6, 2, y) == pytest.approx(OscillatorState(3, 6, 2).value(y), rel=1e-12)

    # norm below double range, x**q past it, or both
    FAR = [
        ("coulomb", 160, 150, 300.0, 2.294e-262),
        ("coulomb", 160, 150, 3e4, 1.344e-4),
        ("coulomb", 160, 150, 1e5, -1.237e-16),
        ("coulomb", 200, 199, 1e5, 4.641e-5),
        ("oscillator", 400, 400, 20.0, 0.8927),
        ("oscillator", 400, 400, 40.0, 1.222e-140),
        ("oscillator", 200, 200, 40.0, 5.068e-214),
    ]

    @pytest.mark.parametrize("family, n, l, y, approximately", FAR, ids=[f"{f}-{n}-{l}-{y:g}" for f, n, l, y, _ in FAR])
    def test_far_values_equal_the_oracle(self, family, n, l, y, approximately):
        state_class, oracle = (CoulombState, _coulomb_3d) if family == "coulomb" else (OscillatorState, _oscillator_3d)
        exact = oracle(n, l, y)
        assert exact == pytest.approx(approximately, rel=1e-3)
        got = state_class(3, n, l).value(y)
        assert abs(got - exact) <= 1e-12 * abs(exact), (got, exact)

    def test_value_below_double_range_is_zero(self):
        # the true value, 7.6e-436, is below the smallest subnormal
        assert OscillatorState(3, 400, 400).value(1.0) == 0.0


class TestTinyArgument:
    def test_coulomb_ground_state_derivatives_at_1e_200(self):
        # psi = y e**(-y/2) / sqrt(2): psi'' = (y/4 - 1) e**(-y/2) / sqrt(2) -> -1/sqrt(2) and
        # psi''' = (3/4 - y/8) e**(-y/2) / sqrt(2) -> 0.75/sqrt(2); the third order's power term has
        # coefficient 0, where exp(log_norm - 2 log x) alone would overflow
        state = CoulombState(3, 1, 0)
        assert state.second_derivative(1e-200) == -0.7071067811865476
        assert state.third_derivative(1e-200) == 0.5303300858899107


_POINTS = 2000
# below it, |value| <= exp(log_envelopes) < 5e-324 / e rounds to 0.0
_LOG_SMALLEST = math.log(5e-324) - 1.0


@st.composite
def _wide_states(draw):
    """A state of the benchmark's range: d <= 12, Coulomb n <= 200, oscillator N <= 400, shift <= 3."""
    dimension = draw(st.integers(2, 12))
    try:
        if draw(st.booleans()):
            n = draw(st.integers(1, 200))
            l = draw(st.integers(0, n - 1))
            shift = draw(st.integers(0, min(3, n - l - 1)))
            delta = draw(st.floats(0.0, 1.0, exclude_max=True))
            return "coulomb", CoulombState(dimension, n, l, delta=delta, shift=shift)
        big_n = draw(st.integers(0, 400))
        big_l = big_n - 2 * draw(st.integers(0, big_n // 2))
        shift = draw(st.integers(0, min(3, (big_n - big_l) // 2)))
        anharmonicity = draw(st.floats(0.0, 0.5, exclude_max=True))
        return "oscillator", OscillatorState(dimension, big_n, big_l, anharmonicity=anharmonicity, shift=shift)
    except AdmissibilityError:  # a starred number out of range in d = 2
        assume(False)


@settings(derandomize=True, max_examples=1000, deadline=None)
@given(case=_wide_states())
def test_finite_on_the_default_grid(case):
    family, state = case
    low, high, _ = reports.default_wavefunction_grid(family, state.dimension, state.principal)
    grid = np.linspace(low, high, _POINTS)
    numbers = (family, state.dimension, state.principal, state.angular, state.shift, state.n_star, state.l_star)
    value, curvature = state.derivatives(grid, (0, 2))
    assert np.isfinite(value).all() and np.isfinite(curvature).all(), numbers
    if specfun.log_envelopes([state], grid[None]).max() < _LOG_SMALLEST:
        # the state lies wholly off its grid, where 0.0 is right: a ground state with n* + gamma
        # near 0 lives below the grid's start
        assert not value.any(), numbers
        return
    assert value.any() and curvature.any(), numbers
    _, residual = reports._value_and_residual(state, grid)
    assert residual <= reports.RESIDUAL_TOL, (numbers, residual)
