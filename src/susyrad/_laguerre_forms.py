"""The radial closed forms that `CoulombState` and `OscillatorState` subclass.

Each is a power times a decaying exponential times a Sonine-Laguerre
polynomial; derivatives up to third order come from the product rule with the
polynomial derivative identity, never from finite differences.  Forms of one
class are evaluated as a batch: `family_derivatives(forms, grid, orders)`
builds each factor's derivative stack once for the whole family, up to the
highest order asked for, with the per-form constants as columns and one
recurrence pass for the whole family, since one recurrence pass gives every
derivative row of the polynomial (`specfun.laguerre_stack`, DLMF §18.9); a
value and a residual's (0, 2) each run one pass, whatever the number of forms.
A lone form's residual after its value on the same grid runs only the odd
rows of its pass: `specfun._recurrence` keeps its last lone values row in a
one-entry slot (a family's batch is not kept), keyed on the degrees, the
orders and the argument's values, holding private copies of the argument and
the row, at most 2**17 elements, and every row keeps its bits.  The power stack is formed once per distinct exponent, because numpy's
power of an exponent column skips its scalar fast paths (x**0.5, x**2) and
rounds differently; so every element sees the operations it would alone.  A
form's `derivatives(grid, orders)` is the same build for a family of one, on
its grid's points as one row and with its own constants as floats.  The Laguerre
argument is checked before any stack is formed, and the normalization is
built on first use.
Each form bounds its magnitude in closed form (`log_envelope`), which fixes the
quadrature cutoff without sampling: `family_cutoff(forms)` takes a family's from
one envelope evaluation, and a form's `tail_cutoff` is its family of one.
"""

from __future__ import annotations

import math
from functools import cached_property

from ._np import _lazy_module, np
from .errors import DomainError

specfun = _lazy_module(f"{__package__}.specfun")


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


def _power_stacks(exponents, grid, order):
    """Each row's power stack, formed once per distinct exponent (see the module docstring).

    A batch of one exponent, as every family of one angular number is, takes
    its stack as formed, with no scatter into rows.
    """
    groups = {}
    for i, exponent in enumerate(exponents):
        groups.setdefault(exponent, []).append(i)
    if len(groups) == 1:
        return _power_stack(grid, exponents[0], order)
    stacks = [np.empty((len(exponents), grid.shape[-1])) for _ in range(order + 1)]
    for exponent, rows in groups.items():
        part = _power_stack(grid if grid.ndim == 1 else grid[rows], exponent, order)
        for stack, values in zip(stacks, part):
            stack[rows] = values
    return stacks


def columns(rows):
    """Per-form tuples of floats as columns, one row per form."""
    return tuple(np.array(rows, dtype=float).T[..., None])


def family_derivatives(forms, grid, orders):
    """[d^k/dx^k for k in orders] of forms of one class, each (forms x points), from one build.

    grid, checked by positive_grid, is one row shared by every form (1-D) or
    one row per form (2-D).  The build takes the forms in order of
    descending degree, and the rows come back in the order given.
    """
    rank = sorted(range(len(forms)), key=lambda i: -forms[i].degree)
    unrank = sorted(range(len(forms)), key=rank.__getitem__)
    forms = [forms[i] for i in rank]
    *constants, norms = columns([f._constants() + (f.norm,) for f in forms])
    built = _build(forms, grid[rank] if grid.ndim == 2 else grid, orders, constants, norms)
    return [d[unrank] for d in built]


def _build(forms, grid, orders, constants, norms):
    """The derivatives of forms in order of descending degree, as `laguerre_stack` needs them.

    The constants and norms are columns, or a lone form's own floats.
    """
    form, top = forms[0], max(orders)
    # x/scale or x*x can overflow on a finite grid; the overflow is left as inf,
    # which is refused here, before any stack is formed
    with np.errstate(over="ignore"):
        decay, t = form._decay_and_argument(grid, *constants)
    try:
        t = specfun._check_argument(t)
    except DomainError as exc:
        raise DomainError("radial coordinate too large: its Laguerre argument overflows") from exc
    p = specfun.laguerre_stack([f.degree for f in forms], [f.order for f in forms], t, top)
    w, z = form._factor_stacks(grid, t, np.exp(-decay), p, top, *constants)
    del decay, t, p  # the batch's temporaries end here
    stacks = (_power_stacks([f.exponent for f in forms], grid, top), w, z)
    return [norms * _triple_product_derivatives(*stacks, k) for k in orders]


def _log_envelopes(forms, grid):
    """log_envelope of forms of one class, one row of grid each, with their constants as columns."""
    *constants, log_norms, exponents = columns([f._constants() + (f.log_norm, f.exponent) for f in forms])
    decay, t = forms[0]._decay_and_argument(grid, *constants)
    envelope = specfun.laguerre_envelope_log([f.degree for f in forms], [f.order for f in forms], t)
    return log_norms + exponents * np.log(grid) - decay + envelope


def family_cutoff(forms):
    """The largest tail_cutoff of forms of one class, from one envelope evaluation."""
    return specfun.envelope_cutoff(
        lambda grid: _log_envelopes(forms, grid), [f._envelope_decreasing_from() for f in forms]
    )


class _LaguerreForm:
    """norm * x**exponent * w(x) * L_degree^(order)(t(x)) under the product rule.

    A form's __init__ passes exponent, degree and order up.  It supplies
    _log_inverse_square_norm() -> log norm**-2, checked and computed on first
    use; _constants() -> the form's own constants, as Python floats;
    _decay_and_argument(x, *constants) -> (decay, t), the exponent and the
    argument; _factor_stacks(x, t, w0, p, order, *constants) -> (w, z), the
    exponential's and the polynomial's stacks up to order from w0 = exp(-decay)
    and the t-derivative stack p; and _envelope_decreasing_from(), past which
    the envelope falls.  The last three take the constants as floats or as
    columns with one row per form.
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

    @cached_property
    def norm(self) -> float:
        return math.exp(self.log_norm)

    @property
    def normalization(self) -> float:
        return self.norm

    def derivatives(self, grid, orders):
        """[d^k/dx^k for k in orders] on a grid positive_grid has checked: the family of one."""
        # one row of the grid's points, so that no factor broadcasts against another
        built = _build([self], grid.reshape(1, -1), orders, self._constants(), self.norm)
        return [d.reshape(grid.shape) for d in built]

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
        return _log_envelopes([self], arr.reshape(1, -1)).reshape(arr.shape)

    @cached_property
    def tail_cutoff(self) -> float:
        """Quadrature cutoff of |value|**2 under the package's decay policy: family_cutoff of one."""
        return family_cutoff([self])


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

    def _envelope_decreasing_from(self):
        # every envelope term x**(exponent+p) exp(-x/(2 scale)), p <= degree,
        # falls once x >= 2 scale (exponent + p)
        return 2.0 * self.scale * (self.exponent + self.degree)

    @staticmethod
    def _factor_stacks(arr, t, w0, p, order, scale, rate, rate2, rate3, inv, inv3):
        w = _first(order, lambda: w0, lambda: rate * w0, lambda: rate2 * w0, lambda: rate3 * w0)
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

    def _envelope_decreasing_from(self):
        # every envelope term x**(exponent+2p) exp(-x**2/2), p <= degree,
        # falls once x**2 >= exponent + 2p
        return math.sqrt(self.exponent + 2.0 * self.degree)

    @staticmethod
    def _factor_stacks(arr, t, w0, p, order):
        w = _first(
            order,
            lambda: w0,
            lambda: -arr * w0,
            lambda: (t - 1.0) * w0,
            lambda: (3.0 * arr - arr**3) * w0,
        )
        z = _first(
            order,
            lambda: p[0],
            lambda: 2.0 * arr * p[1],
            lambda: 2.0 * p[1] + 4.0 * t * p[2],
            lambda: 12.0 * arr * p[2] + 8.0 * arr**3 * p[3],
        )
        return w, z
