"""The radial closed forms that `CoulombState` and `OscillatorState` subclass.

Each is a power times a decaying exponential times a Sonine-Laguerre
polynomial; derivatives up to third order come from the product rule with the
polynomial derivative identity, never from finite differences.  A form answers
`derivatives(grid, orders)` on a grid `specfun.positive_grid` has checked: it
builds each factor's derivative stack once, up to the highest order asked for,
and returns the listed derivatives from it, so `value` runs one Laguerre
recurrence and a residual's (0, 2) three.  The public pointwise methods check
their grid once through `specfun.pointwise` and ask for one order.  The
polynomial cards and the normalization are built on first use.
Each form also bounds its own magnitude in closed form (`log_envelope`), which
fixes the quadrature cutoff (`tail_cutoff`) without sampling the waveform.
"""

from __future__ import annotations

import math
from functools import cached_property

from ._np import _lazy_module, np
from .errors import DomainError

specfun = _lazy_module(f"{__package__}.specfun")


def _poly_values(chain, t, j):
    # d^j/dt^j L_k^(a)(t) = (-1)^j L_{k-j}^(a+j)(t); t is already checked
    card = chain[j]
    if card is None:
        return np.zeros_like(t)
    val = specfun._recurrence(card.degree, float(card.order), t)
    return -val if j % 2 else val


def _first(order, *terms):
    """Build the first order + 1 of the zero-argument term builders."""
    return [term() for term in terms[: order + 1]]


def _triple_product_derivatives(u, w, z, order):
    """Derivative of u*w*z given per-factor stacks u[j], w[j], z[j] for j <= order."""
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


def _power_stack(x, exponent, order):
    # u_j = exponent (exponent - 1) ... (exponent - j + 1) x**(exponent - j)
    stack = [np.power(x, exponent)]
    coeff = 1.0
    for j in range(1, order + 1):
        coeff *= exponent - (j - 1)
        stack.append(coeff * np.power(x, exponent - j))
    return stack


class _LaguerreForm:
    """norm * x**exponent * w(x) * L_degree^(order)(t(x)) under the product rule.

    A form's __init__ passes exponent, degree and order up.  It supplies
    _log_inverse_square_norm() -> log norm**-2, checked and computed on first
    use; _factor_stacks(x, order) -> (w, z), the derivative stacks of the
    exponential and polynomial factors up to order; for the envelope,
    _decay_and_argument(x) -> (decay, t) with w = exp(-decay); and
    _envelope_decreasing_from(), past which the envelope falls.
    """

    def __init__(self, exponent, degree, order):
        if not (exponent > 0.0):
            raise DomainError(f"power exponent must be positive, got {exponent!r}")
        self.exponent = float(exponent)
        self.degree = int(degree)
        self.order = float(order)

    @cached_property
    def _chain(self):
        """L, L', L'', L''' as SonineLaguerre cards (None once the degree runs out)."""
        n, a = self.degree, self.order
        return [specfun.SonineLaguerre(n - j, a + j) if j == 0 or j <= n else None for j in range(4)]

    @cached_property
    def log_norm(self) -> float:
        return -0.5 * self._log_inverse_square_norm()

    @cached_property
    def norm(self) -> float:
        return math.exp(self.log_norm)

    @property
    def normalization(self) -> float:
        return self.norm

    def _poly_stack(self, t, order):
        # x/scale or x*x can overflow on a finite grid, so the argument is checked
        # here, once for the whole chain
        try:
            t = specfun._check_argument(t)
        except DomainError as exc:
            raise DomainError("radial coordinate too large: its Laguerre argument overflows") from exc
        return [_poly_values(self._chain, t, j) for j in range(order + 1)]

    def derivatives(self, grid, orders):
        """[d^k/dx^k for k in orders] on a grid positive_grid has checked, from one build."""
        top = max(orders)
        stacks = (_power_stack(grid, self.exponent, top), *self._factor_stacks(grid, top))
        return [self.norm * _triple_product_derivatives(*stacks, k) for k in orders]

    def value(self, x):
        return specfun.pointwise(self.derivatives, x, 0)

    def derivative(self, x):
        return specfun.pointwise(self.derivatives, x, 1)

    def second_derivative(self, x):
        return specfun.pointwise(self.derivatives, x, 2)

    def third_derivative(self, x):
        return specfun.pointwise(self.derivatives, x, 3)

    def log_envelope(self, x):
        """log |norm| + exponent log x - decay(x) + log L_degree^(order)(-t(x)) >= log |value(x)|."""
        arr = specfun.positive_grid(x)
        decay, t = self._decay_and_argument(arr)
        return (
            self.log_norm
            + self.exponent * np.log(arr)
            - decay
            + specfun.laguerre_envelope_log(self.degree, self.order, t)
        )

    @cached_property
    def tail_cutoff(self) -> float:
        """Quadrature cutoff of |value|**2 under the package's decay policy."""
        return specfun.envelope_cutoff(self.log_envelope, self._envelope_decreasing_from())


class ExponentialLaguerreForm(_LaguerreForm):
    """norm * x**exponent * exp(-x/(2*scale)) * L_degree^(order)(x/scale); the Coulomb form."""

    def __init__(self, scale, exponent, degree, order):
        if not (scale > 0.0):
            raise DomainError(f"exponential scale must be positive, got {scale!r}")
        self.scale = float(scale)
        super().__init__(exponent, degree, order)

    def _log_inverse_square_norm(self):
        # unit-L2-norm constant; requires 2*exponent == order + 1, which every
        # state family in this package satisfies by construction
        if not math.isclose(2.0 * self.exponent, self.order + 1.0, rel_tol=0.0, abs_tol=1e-12):
            raise DomainError("form violates the 2q = order + 1 normalization relation")
        return (
            (self.order + 2.0) * math.log(self.scale)
            + math.lgamma(self.degree + self.order + 1.0)
            + math.log(2.0 * self.degree + self.order + 1.0)
            - math.lgamma(self.degree + 1.0)
        )

    def _decay_and_argument(self, arr):
        return arr / (2.0 * self.scale), arr / self.scale

    def _envelope_decreasing_from(self):
        # every envelope term x**(exponent+p) exp(-x/(2 scale)), p <= degree,
        # falls once x >= 2 scale (exponent + p)
        return 2.0 * self.scale * (self.exponent + self.degree)

    def _factor_stacks(self, arr, order):
        w0 = np.exp(-arr / (2.0 * self.scale))
        rate = -1.0 / (2.0 * self.scale)
        w = _first(
            order, lambda: w0, lambda: rate * w0, lambda: rate * rate * w0, lambda: rate**3 * w0
        )
        p = self._poly_stack(arr / self.scale, order)
        inv = 1.0 / self.scale
        z = _first(
            order, lambda: p[0], lambda: p[1] * inv, lambda: p[2] * inv * inv, lambda: p[3] * inv**3
        )
        return w, z


class GaussianLaguerreForm(_LaguerreForm):
    """norm * x**exponent * exp(-x**2/2) * L_degree^(order)(x**2); the oscillator form."""

    # perfbench/tracer.py wraps each form's own __init__
    __init__ = _LaguerreForm.__init__

    def _log_inverse_square_norm(self):
        if not math.isclose(self.exponent, self.order + 0.5, rel_tol=0.0, abs_tol=1e-12):
            raise DomainError("form violates the q = order + 1/2 normalization relation")
        return (
            math.lgamma(self.degree + self.order + 1.0)
            - math.log(2.0)
            - math.lgamma(self.degree + 1.0)
        )

    def _decay_and_argument(self, arr):
        t = arr * arr
        return 0.5 * t, t

    def _envelope_decreasing_from(self):
        # every envelope term x**(exponent+2p) exp(-x**2/2), p <= degree,
        # falls once x**2 >= exponent + 2p
        return math.sqrt(self.exponent + 2.0 * self.degree)

    def _factor_stacks(self, arr, order):
        w0 = np.exp(-0.5 * arr * arr)
        w = _first(
            order,
            lambda: w0,
            lambda: -arr * w0,
            lambda: (arr * arr - 1.0) * w0,
            lambda: (3.0 * arr - arr**3) * w0,
        )
        t = arr * arr
        p = self._poly_stack(t, order)
        z = _first(
            order,
            lambda: p[0],
            lambda: 2.0 * arr * p[1],
            lambda: 2.0 * p[1] + 4.0 * t * p[2],
            lambda: 12.0 * arr * p[2] + 8.0 * arr**3 * p[3],
        )
        return w, z
