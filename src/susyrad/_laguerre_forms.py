"""The radial closed forms that `CoulombState` and `OscillatorState` subclass.

Each is a power times a decaying exponential times a Sonine-Laguerre
polynomial; derivatives up to third order come from the product rule with the
polynomial derivative identity, never from finite differences.  A form
supplies its constants and its factors' stacks; the build that multiplies
them out, for a form alone or for a family of one class, is
`_grid.family_derivatives`, and a form's `derivatives(grid, orders)` is that
build for a family of one.  `log_norm` is built on first use.
Energies and starred numbers need none of it, so `spectrum` executes this
module but not the grid layer (`_grid`), which stays bound lazily until a
grid is evaluated.  The forms bind no other layer: the bound on a form's
magnitude is verification numerics, `specfun.log_envelopes(forms, grid)`,
built from the constants each form supplies.
"""

from __future__ import annotations

import math
from functools import cached_property

from ._np import _lazy_module
from .errors import DomainError

_grid = _lazy_module(f"{__package__}._grid")


def _first(order, *terms):
    """Build the first order + 1 of the zero-argument term builders."""
    return [term() for term in terms[: order + 1]]


class _LaguerreForm:
    """norm * x**exponent * w(x) * L_degree^(order)(t(x)) under the product rule.

    A form's __init__ passes exponent, degree and order up.  It supplies
    _log_inverse_square_norm() -> log norm**-2, checked and computed on first
    use; _constants() -> the form's own constants, as Python floats;
    _decay_and_argument(x, *constants) -> (decay, t), the exponent and the
    argument; _factor_stacks(x, t, p, order, *constants) -> (w, z), the
    exponential's stack relative to itself (w[j] = d^j/dx^j exp(-decay) /
    exp(-decay), so w[0] = 1) and the polynomial's stack, up to order, from the
    t-derivative stack p.  The last two take the constants as floats or as
    columns with one row per form.  The build folds norm, power and
    exponential into one exponential per order (`_grid._prefactor_stack`).
    """

    def __init_subclass__(cls):
        # perfbench/tracer.py wraps __init__ and the eval methods in each class's own __dict__
        for name in ("__init__", "value", "derivative", "second_derivative", "third_derivative"):
            setattr(cls, name, getattr(cls, name))
        cls.__call__ = cls.value

    def __init__(self, exponent, degree, order):
        if not (exponent > 0.0):
            raise DomainError(f"power exponent must be positive, got {exponent!r}")
        self.exponent = float(exponent)
        self.degree = int(degree)
        self.order = float(order)

    @cached_property
    def log_norm(self) -> float:
        return -0.5 * self._log_inverse_square_norm()

    def derivatives(self, grid, orders):
        """[d^k/dx^k for k in orders] on a grid positive_grid has checked: the family of one."""
        # one row of the grid's points, so that no factor broadcasts against another
        built = _grid._build([self], grid.reshape(1, -1), orders, self._constants(), self.log_norm, self.exponent)
        return [d.reshape(grid.shape) for d in built]

    def value(self, x):
        return _grid.pointwise(self.derivatives, x, 0)

    def derivative(self, x):
        return _grid.pointwise(self.derivatives, x, 1)

    def second_derivative(self, x):
        return _grid.pointwise(self.derivatives, x, 2)

    def third_derivative(self, x):
        return _grid.pointwise(self.derivatives, x, 3)


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

    def _constants(self):
        rate, inv = -1.0 / (2.0 * self.scale), 1.0 / self.scale
        # the powers are Python's: numpy's power of a column would round differently
        return self.scale, rate, rate * rate, rate**3, inv, inv**3

    @staticmethod
    def _decay_and_argument(arr, scale, *_):
        return arr / (2.0 * scale), arr / scale

    @staticmethod
    def _factor_stacks(arr, t, p, order, scale, rate, rate2, rate3, inv, inv3):
        w = [1.0, rate, rate2, rate3][: order + 1]
        z = _first(
            order, lambda: p[0], lambda: p[1] * inv, lambda: p[2] * inv * inv, lambda: p[3] * inv3
        )
        return w, z


class GaussianLaguerreForm(_LaguerreForm):
    """norm * x**exponent * exp(-x**2/2) * L_degree^(order)(x**2); the oscillator form."""

    def _log_inverse_square_norm(self):
        if not math.isclose(self.exponent, self.order + 0.5, rel_tol=0.0, abs_tol=1e-12):
            raise DomainError("form violates the q = order + 1/2 normalization relation")
        return (
            math.lgamma(self.degree + self.order + 1.0)
            - math.log(2.0)
            - math.lgamma(self.degree + 1.0)
        )

    def _constants(self):
        return ()

    @staticmethod
    def _decay_and_argument(arr):
        t = arr * arr
        return 0.5 * t, t

    @staticmethod
    def _factor_stacks(arr, t, p, order):
        w = _first(order, lambda: 1.0, lambda: -arr, lambda: t - 1.0, lambda: 3.0 * arr - arr**3)
        z = _first(
            order,
            lambda: p[0],
            lambda: 2.0 * arr * p[1],
            lambda: 2.0 * p[1] + 4.0 * t * p[2],
            lambda: 12.0 * arr * p[2] + 8.0 * arr**3 * p[3],
        )
        return w, z
