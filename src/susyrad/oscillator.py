"""Radial eigenstates of the isotropic quadratic well in D dimensions.

Same bookkeeping as the Coulomb family: Gamma = (D-3)/2 folds the dimension
into the radial equation, and only N - L even is admissible (the polynomial
degree is (N-L)/2).  Operator-side eigenvalues are 2E.  An anharmonicity and
an integer shift replace (N, L) by starred numbers in the same functional
form; the anharmonic model in `qdt` supplies them from a table.
"""

from __future__ import annotations

from functools import cached_property

import numpy as np

from ._laguerre_forms import GaussianLaguerreForm
from .coulomb import check_shift, gamma_shift
from .errors import AdmissibilityError, ParityError
from .susy import RadialOperator


def check_anharmonicity(value, name="anharmonicity"):
    if not (value >= 0.0):
        raise AdmissibilityError(f"{name} must be >= 0, got {value!r}")


def check_quantum_numbers(principal, angular):
    """0 <= L <= N with N - L even."""
    if not isinstance(principal, (int, np.integer)) or principal < 0:
        raise AdmissibilityError(f"principal number must be >= 0, got {principal!r}")
    if not isinstance(angular, (int, np.integer)) or not (0 <= angular <= principal):
        raise AdmissibilityError(
            f"angular number must satisfy 0 <= L <= N, got L={angular!r} N={principal!r}"
        )
    if (principal - angular) % 2:
        raise ParityError(f"N - L must be even, got N={principal} L={angular}")


def oscillator_energy(dimension: int, principal: int) -> float:
    """E = (2N + 2Gamma + 3)/2 in the family's dimensionless units."""
    gamma = gamma_shift(dimension)
    if not isinstance(principal, (int, np.integer)) or principal < 0:
        raise AdmissibilityError(f"principal number must be an integer >= 0, got {principal!r}")
    return (2.0 * principal + 2.0 * gamma + 3.0) / 2.0


class OscillatorState:
    """Oscillator-form state with N* = N - 2 Delta and L* = L + 2 shift - 2 Delta.

    The anharmonicity Delta is >= 0 and the shift an integer >= 0; both
    default to zero, which is the exact family.
    """

    def __init__(self, dimension: int, principal: int, angular: int, anharmonicity: float = 0.0,
                 shift: int = 0):
        gamma = gamma_shift(dimension)
        check_anharmonicity(anharmonicity)
        check_shift(shift)
        check_quantum_numbers(principal, angular)
        self.dimension, self.principal, self.angular = dimension, principal, angular
        self._set_starred(gamma, float(anharmonicity), int(shift))

    def _set_starred(self, g, anharmonicity, shift):
        """Check and store the starred numbers; AnharmonicState calls this after its lookups."""
        n, l = self.principal, self.angular
        degree = (n - l) // 2 - shift
        if degree < 0:
            raise AdmissibilityError(
                f"polynomial degree (N-L)/2 - I = {degree} is negative for N={n} L={l} I={shift}"
            )
        n_star = n - 2.0 * anharmonicity
        l_star = l + 2.0 * shift - 2.0 * anharmonicity
        if not (l_star + g + 1.0 > 0.0):
            raise AdmissibilityError(
                f"L*+Gamma+1 = {l_star + g + 1.0:g} must be positive (normalizability)"
            )
        self.anharmonicity, self.shift, self.gamma = anharmonicity, shift, g
        self.n_star, self.l_star, self.degree = n_star, l_star, degree

    @cached_property
    def _form(self) -> GaussianLaguerreForm:
        g = self.gamma
        return GaussianLaguerreForm(
            exponent=self.l_star + g + 1.0,
            degree=self.degree,
            order=self.l_star + g + 0.5,
        )

    @property
    def normalization(self) -> float:
        return self._form.norm

    @property
    def energy(self) -> float:
        return (2.0 * self.n_star + 2.0 * self.gamma + 3.0) / 2.0

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
            coulomb_strength=0.0,
            oscillator_strength=1.0,
            centrifugal=lg * (lg + 1.0),
        )

    def operator_eigenvalue(self) -> float:
        """The bracket equation carries 2E."""
        return 2.0 * self.energy


def partner_spectra(dimension: int, angular: int, count: int):
    """Analytic shifted spectra of the partner pair built at fixed L.

    Bosonic tower: 2E - (2L + 2Gamma + 3) over N = L, L+2, ...; fermionic
    tower: the L+1 family under the partner's constant 2L + 2Gamma + 1.
    """
    if count < 1:
        raise AdmissibilityError("count must be at least 1")
    g = gamma_shift(dimension)
    base = 2.0 * angular + 2.0 * g
    bosonic = tuple(
        2.0 * oscillator_energy(dimension, angular + 2 * k) - (base + 3.0)
        for k in range(count)
    )
    fermionic = tuple(
        2.0 * oscillator_energy(dimension, angular + 1 + 2 * k) - (base + 1.0)
        for k in range(count - 1)
    )
    return bosonic, fermionic
