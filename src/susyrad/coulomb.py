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

from ._laguerre_forms import ExponentialLaguerreForm
from ._np import _lazy_module, as_float, is_integer, np
from .errors import AdmissibilityError

_grid, specfun, susy = (_lazy_module(f"{__package__}.{name}") for name in ("_grid", "specfun", "susy"))


def gamma_shift(dimension: int) -> float:
    """Gamma = (d - 3)/2 for an integer dimension d >= 2."""
    if not is_integer(dimension) or dimension < 2:
        raise AdmissibilityError(f"dimension must be an integer >= 2, got {dimension!r}")
    return (dimension - 3) / 2.0


def check_defect(value, name="defect"):
    if not (0.0 <= as_float(value, name) < 1.0):
        raise AdmissibilityError(f"{name} must lie in [0, 1), got {value!r}")


def check_shift(value, name="shift"):
    if not is_integer(value) or value < 0:
        raise AdmissibilityError(f"{name} must be an integer >= 0, got {value!r}")


def check_integer(value, name, minimum):
    """value an integer >= minimum; a non-integer is refused as one."""
    if not is_integer(value):
        raise AdmissibilityError(f"{name} must be an integer >= {minimum}, got {value!r}")
    if value < minimum:
        raise AdmissibilityError(f"{name} must be >= {minimum}, got {value!r}")


def check_quantum_numbers(principal, angular):
    """n >= 1 and 0 <= l <= n - 1."""
    check_integer(principal, "principal number", 1)
    if not is_integer(angular):
        raise AdmissibilityError(f"angular number must be an integer, got l={angular!r}")
    if not (0 <= angular <= principal - 1):
        raise AdmissibilityError(
            f"angular number must satisfy 0 <= l <= n-1, got l={angular!r} n={principal!r}"
        )


def coulomb_energy(dimension: int, principal: int) -> float:
    """E = -1/(2 (n + gamma)^2); independent of the angular number."""
    gamma = gamma_shift(dimension)
    check_integer(principal, "principal number", 1)
    return -1.0 / (2.0 * (principal + gamma) ** 2)


class CoulombState(ExponentialLaguerreForm):
    """Coulomb-form state with starred numbers n* = n - delta, l* = l + shift - delta.

    The quantum defect delta lies in [0, 1) and the shift is an integer >= 0;
    both default to zero, which is the exact family.
    """

    def __init__(self, dimension: int, principal: int, angular: int, delta: float = 0.0,
                 shift: int = 0):
        gamma = gamma_shift(dimension)
        check_defect(delta)
        check_shift(shift)
        check_quantum_numbers(principal, angular)
        self.dimension, self.principal, self.angular = dimension, principal, angular
        self._set_starred(gamma, float(delta), int(shift))

    def _set_starred(self, g, delta, shift):
        """Check and store the starred numbers; DefectState calls this after its lookups."""
        n, l = self.principal, self.angular
        degree = n - l - shift - 1
        if degree < 0:
            raise AdmissibilityError(
                f"polynomial degree n-l-i-1 = {degree} is negative for n={n} l={l} i={shift}"
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
        super().__init__(n_star + g, l_star + g + 1.0, degree, 2.0 * l_star + 2.0 * g + 1.0)

    @property
    def energy(self) -> float:
        return -1.0 / (2.0 * (self.n_star + self.gamma) ** 2)

    def operator(self) -> susy.RadialOperator:
        lg = self.l_star + self.gamma
        return susy.RadialOperator(
            coulomb_strength=1.0,
            oscillator_strength=0.0,
            centrifugal=lg * (lg + 1.0),
        )

    def operator_eigenvalue(self) -> float:
        """The bracket equation carries E/2, not E."""
        return 0.5 * self.energy


def eval_hydrogen_R(principal: int, angular: int, r):
    """Three-dimensional R_nl(r), normalized so the integral of R^2 r^2 dr is 1."""
    check_quantum_numbers(principal, angular)
    n, l = principal, angular
    arr = _grid.positive_grid(r)
    prefactor = (2.0 / n**2) * math.exp(0.5 * (math.lgamma(n - l) - math.lgamma(n + l + 1)))
    t = 2.0 * arr / n
    poly = specfun.eval_sonine_laguerre(specfun.SonineLaguerre(n - l - 1, 2 * l + 1), t)
    out = prefactor * t**l * np.exp(-arr / n) * poly
    return float(out) if np.ndim(r) == 0 else out


def partner_spectra(dimension: int, angular: int, count: int):
    """Analytic shifted spectra of the partner pair built at fixed l.

    Returns (bosonic, fermionic): the bosonic tower starts at zero by
    construction of the energy-zero offset 1/(4 (l+gamma+1)^2); the fermionic
    tower is the l+1 family under the same offset.
    """
    g = gamma_shift(dimension)
    check_integer(angular, "angular number", 0)
    check_integer(count, "count", 1)
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
