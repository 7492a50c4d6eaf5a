"""Internal radial waveform evaluators shared by the state families.

Both families are a power times a decaying exponential times a Sonine-Laguerre
polynomial; derivatives up to third order come from the product rule with the
polynomial derivative identity, never from finite differences.  A call builds
each factor's derivative stack only up to the order it asks for, so `value`
runs one Laguerre recurrence and `second_derivative` three.  Each form also
bounds its own magnitude in closed form (`log_envelope`), which fixes the
quadrature cutoff (`tail_cutoff`) without sampling the waveform.
"""

from __future__ import annotations

import math
from functools import cached_property

import numpy as np

from .errors import DomainError
from .specfun import SonineLaguerre, envelope_cutoff, eval_sonine_laguerre, laguerre_envelope_log


def _poly_derivative_chain(degree, order):
    """L, L', L'', L''' as SonineLaguerre cards (None once the degree runs out)."""
    chain = [SonineLaguerre(degree, order)]
    for j in range(1, 4):
        if degree - j < 0:
            chain.append(None)
        else:
            chain.append(SonineLaguerre(degree - j, order + j))
    return chain


def _poly_values(chain, t, j):
    # d^j/dt^j L_k^(a)(t) = (-1)^j L_{k-j}^(a+j)(t)
    card = chain[j]
    if card is None:
        return np.zeros_like(t)
    val = eval_sonine_laguerre(card, t)
    return -val if j % 2 else val


def _check_positive_argument(x):
    arr = np.asarray(x, dtype=float)
    if not np.all(np.isfinite(arr)):
        raise DomainError("radial coordinate must be finite")
    if np.any(arr <= 0.0):
        raise DomainError("radial coordinate must be positive")
    return arr


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


class _LaguerreEnvelope:
    """log |norm| + exponent log x - decay(x) + log L_degree^(order)(-t(x)) >= log |value(x)|.

    A form supplies _decay_and_argument(x) -> (decay, t) and
    _envelope_decreasing_from(), past which the envelope falls.
    """

    def log_envelope(self, x):
        arr = _check_positive_argument(x)
        decay, t = self._decay_and_argument(arr)
        return (
            self.log_norm
            + self.exponent * np.log(arr)
            - decay
            + laguerre_envelope_log(self.degree, self.order, t)
        )

    @cached_property
    def tail_cutoff(self) -> float:
        """Quadrature cutoff of |value|**2 under the package's decay policy."""
        return envelope_cutoff(self.log_envelope, self._envelope_decreasing_from())


def _power_stack(x, exponent, order):
    # u_j = exponent (exponent - 1) ... (exponent - j + 1) x**(exponent - j)
    stack = [np.power(x, exponent)]
    coeff = 1.0
    for j in range(1, order + 1):
        coeff *= exponent - (j - 1)
        stack.append(coeff * np.power(x, exponent - j))
    return stack


class ExponentialLaguerreForm(_LaguerreEnvelope):
    """norm * x**exponent * exp(-x/(2*scale)) * L_degree^(order)(x/scale)."""

    def __init__(self, scale, exponent, degree, order):
        if not (scale > 0.0):
            raise DomainError(f"exponential scale must be positive, got {scale!r}")
        if not (exponent > 0.0):
            raise DomainError(f"power exponent must be positive, got {exponent!r}")
        self.scale = float(scale)
        self.exponent = float(exponent)
        self.degree = int(degree)
        self.order = float(order)
        self._chain = _poly_derivative_chain(self.degree, self.order)
        # unit-L2-norm constant; requires 2*exponent == order + 1, which every
        # state family in this package satisfies by construction
        if not math.isclose(2.0 * self.exponent, self.order + 1.0, rel_tol=0.0, abs_tol=1e-12):
            raise DomainError("form violates the 2q = order + 1 normalization relation")
        log_sq = (
            (self.order + 2.0) * math.log(self.scale)
            + math.lgamma(self.degree + self.order + 1.0)
            + math.log(2.0 * self.degree + self.order + 1.0)
            - math.lgamma(self.degree + 1.0)
        )
        self.log_norm = -0.5 * log_sq
        self.norm = math.exp(self.log_norm)

    def _decay_and_argument(self, arr):
        return arr / (2.0 * self.scale), arr / self.scale

    def _envelope_decreasing_from(self):
        # every envelope term x**(exponent+p) exp(-x/(2 scale)), p <= degree,
        # falls once x >= 2 scale (exponent + p)
        return 2.0 * self.scale * (self.exponent + self.degree)

    def _derivative(self, x, order):
        arr = _check_positive_argument(x)
        u = _power_stack(arr, self.exponent, order)
        w0 = np.exp(-arr / (2.0 * self.scale))
        rate = -1.0 / (2.0 * self.scale)
        w = _first(
            order, lambda: w0, lambda: rate * w0, lambda: rate * rate * w0, lambda: rate**3 * w0
        )
        t = arr / self.scale
        p = [_poly_values(self._chain, t, j) for j in range(order + 1)]
        inv = 1.0 / self.scale
        z = _first(
            order, lambda: p[0], lambda: p[1] * inv, lambda: p[2] * inv * inv, lambda: p[3] * inv**3
        )
        out = self.norm * _triple_product_derivatives(u, w, z, order)
        return float(out) if np.ndim(x) == 0 else out

    def value(self, x):
        return self._derivative(x, 0)

    def derivative(self, x):
        return self._derivative(x, 1)

    def second_derivative(self, x):
        return self._derivative(x, 2)

    def third_derivative(self, x):
        return self._derivative(x, 3)


class GaussianLaguerreForm(_LaguerreEnvelope):
    """norm * x**exponent * exp(-x**2/2) * L_degree^(order)(x**2)."""

    def __init__(self, exponent, degree, order):
        if not (exponent > 0.0):
            raise DomainError(f"power exponent must be positive, got {exponent!r}")
        self.exponent = float(exponent)
        self.degree = int(degree)
        self.order = float(order)
        self._chain = _poly_derivative_chain(self.degree, self.order)
        if not math.isclose(self.exponent, self.order + 0.5, rel_tol=0.0, abs_tol=1e-12):
            raise DomainError("form violates the q = order + 1/2 normalization relation")
        log_sq = (
            math.lgamma(self.degree + self.order + 1.0)
            - math.log(2.0)
            - math.lgamma(self.degree + 1.0)
        )
        self.log_norm = -0.5 * log_sq
        self.norm = math.exp(self.log_norm)

    def _decay_and_argument(self, arr):
        t = arr * arr
        return 0.5 * t, t

    def _envelope_decreasing_from(self):
        # every envelope term x**(exponent+2p) exp(-x**2/2), p <= degree,
        # falls once x**2 >= exponent + 2p
        return math.sqrt(self.exponent + 2.0 * self.degree)

    def _derivative(self, x, order):
        arr = _check_positive_argument(x)
        u = _power_stack(arr, self.exponent, order)
        w0 = np.exp(-0.5 * arr * arr)
        w = _first(
            order,
            lambda: w0,
            lambda: -arr * w0,
            lambda: (arr * arr - 1.0) * w0,
            lambda: (3.0 * arr - arr**3) * w0,
        )
        t = arr * arr
        p = [_poly_values(self._chain, t, j) for j in range(order + 1)]
        z = _first(
            order,
            lambda: p[0],
            lambda: 2.0 * arr * p[1],
            lambda: 2.0 * p[1] + 4.0 * t * p[2],
            lambda: 12.0 * arr * p[2] + 8.0 * arr**3 * p[3],
        )
        out = self.norm * _triple_product_derivatives(u, w, z, order)
        return float(out) if np.ndim(x) == 0 else out

    def value(self, x):
        return self._derivative(x, 0)

    def derivative(self, x):
        return self._derivative(x, 1)

    def second_derivative(self, x):
        return self._derivative(x, 2)

    def third_derivative(self, x):
        return self._derivative(x, 3)
