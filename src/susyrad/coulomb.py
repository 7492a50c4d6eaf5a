"""Bound radial eigenstates of the attractive 1/y problem in d dimensions.

States are L2-normalized on the half line in the y coordinate.  The effective
angular shift gamma = (d-3)/2 folds the dimension into a three-dimensional
looking radial equation; d = 3 reduces to hydrogen, where the familiar R_nl(r)
is exposed separately in the r coordinate.  A quantum defect and an integer
shift replace (n, l) by starred numbers in the same functional form; the
defect model in `qdt` supplies them from a table.
"""

from __future__ import annotations

import math
from functools import cached_property

import numpy as np

from ._laguerre_forms import ExponentialLaguerreForm
from .errors import AdmissibilityError
from .specfun import SonineLaguerre, eval_sonine_laguerre, positive_grid
from .susy import RadialOperator


def gamma_shift(dimension: int) -> float:
    """Gamma = (d - 3)/2 for an integer dimension d >= 2."""
    if not isinstance(dimension, (int, np.integer)) or dimension < 2:
        raise AdmissibilityError(f"dimension must be an integer >= 2, got {dimension!r}")
    return (dimension - 3) / 2.0


def check_defect(value, name="defect"):
    if not (0.0 <= value < 1.0):
        raise AdmissibilityError(f"{name} must lie in [0, 1), got {value!r}")


def check_shift(value, name="shift"):
    if not isinstance(value, (int, np.integer)) or value < 0:
        raise AdmissibilityError(f"{name} must be an integer >= 0, got {value!r}")


def coulomb_energy(dimension: int, principal: int) -> float:
    """E = -1/(2 (n + gamma)^2); independent of the angular number."""
    gamma = gamma_shift(dimension)
    if not isinstance(principal, (int, np.integer)) or principal < 1:
        raise AdmissibilityError(f"principal number must be an integer >= 1, got {principal!r}")
    return -1.0 / (2.0 * (principal + gamma) ** 2)


class CoulombState:
    """Coulomb-form state with starred numbers n* = n - delta, l* = l + shift - delta.

    The quantum defect delta lies in [0, 1) and the shift is an integer >= 0;
    both default to zero, which is the exact family.
    """

    def __init__(self, dimension: int, principal: int, angular: int, delta: float = 0.0,
                 shift: int = 0):
        gamma = gamma_shift(dimension)
        check_defect(delta)
        check_shift(shift)
        if not isinstance(principal, (int, np.integer)) or principal < 1:
            raise AdmissibilityError(f"principal number must be >= 1, got {principal!r}")
        if not isinstance(angular, (int, np.integer)) or not (0 <= angular <= principal - 1):
            raise AdmissibilityError(
                f"angular number must satisfy 0 <= l <= n-1, got l={angular!r} n={principal!r}"
            )
        self.dimension, self.principal, self.angular = dimension, principal, angular
        self._set_starred(gamma, float(delta), int(shift))

    def _set_starred(self, g, delta, shift):
        """Check and store the starred numbers; DefectState calls this after its lookups."""
        n, l = self.principal, self.angular
        if n - l - shift - 1 < 0:
            raise AdmissibilityError(
                f"polynomial degree n-l-i-1 = {n - l - shift - 1} is negative for n={n} l={l} i={shift}"
            )
        n_star = n - delta
        l_star = l + shift - delta
        if not (l_star + g + 1.0 > 0.0):
            raise AdmissibilityError(
                f"l*+gamma+1 = {l_star + g + 1.0:g} must be positive (normalizability)"
            )
        if not (n_star + g > 0.0):
            raise AdmissibilityError(
                f"n*+gamma = {n_star + g:g} must be positive (bound-state scale)"
            )
        self.delta, self.shift, self.gamma = delta, shift, g
        self.n_star, self.l_star = n_star, l_star

    @cached_property
    def _form(self) -> ExponentialLaguerreForm:
        g = self.gamma
        return ExponentialLaguerreForm(
            scale=self.n_star + g,
            exponent=self.l_star + g + 1.0,
            degree=self.principal - self.angular - self.shift - 1,
            order=2.0 * self.l_star + 2.0 * g + 1.0,
        )

    @property
    def normalization(self) -> float:
        return self._form.norm

    @property
    def energy(self) -> float:
        return -1.0 / (2.0 * (self.n_star + self.gamma) ** 2)

    def value(self, y):
        return self._form.value(y)

    __call__ = value

    def derivative(self, y):
        return self._form.derivative(y)

    def second_derivative(self, y):
        return self._form.second_derivative(y)

    def third_derivative(self, y):
        return self._form.third_derivative(y)

    def operator(self) -> RadialOperator:
        lg = self.l_star + self.gamma
        return RadialOperator(
            coulomb_strength=1.0,
            oscillator_strength=0.0,
            centrifugal=lg * (lg + 1.0),
        )

    def operator_eigenvalue(self) -> float:
        """The bracket equation carries E/2, not E."""
        return 0.5 * self.energy


def eval_hydrogen_R(principal: int, angular: int, r):
    """Three-dimensional R_nl(r), normalized so the integral of R^2 r^2 dr is 1."""
    n, l = principal, angular
    if not isinstance(n, (int, np.integer)) or n < 1:
        raise AdmissibilityError(f"principal number must be >= 1, got {n!r}")
    if not isinstance(l, (int, np.integer)) or not (0 <= l <= n - 1):
        raise AdmissibilityError(f"angular number must satisfy 0 <= l <= n-1, got {l!r}")
    arr = positive_grid(r)
    prefactor = (2.0 / n**2) * math.exp(0.5 * (math.lgamma(n - l) - math.lgamma(n + l + 1)))
    t = 2.0 * arr / n
    poly = eval_sonine_laguerre(SonineLaguerre(n - l - 1, 2 * l + 1), t)
    out = prefactor * t**l * np.exp(-arr / n) * poly
    return float(out) if np.ndim(r) == 0 else out


def partner_spectra(dimension: int, angular: int, count: int):
    """Analytic shifted spectra of the partner pair built at fixed l.

    Returns (bosonic, fermionic): the bosonic tower starts at zero by
    construction of the energy-zero offset 1/(4 (l+gamma+1)^2); the fermionic
    tower is the l+1 family under the same offset.
    """
    if count < 1:
        raise AdmissibilityError("count must be at least 1")
    g = gamma_shift(dimension)
    offset = 1.0 / (4.0 * (angular + g + 1.0) ** 2)
    bosonic = tuple(
        offset + 0.5 * coulomb_energy(dimension, n)
        for n in range(angular + 1, angular + 1 + count)
    )
    fermionic = tuple(
        offset + 0.5 * coulomb_energy(dimension, n)
        for n in range(angular + 2, angular + 1 + count)
    )
    return bosonic, fermionic
