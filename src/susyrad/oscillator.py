"""Radial eigenstates of the isotropic quadratic well in D dimensions.

Same bookkeeping as the Coulomb family: Gamma = (D-3)/2 folds the dimension
into the radial equation, and only N - L even is admissible (the polynomial
degree is (N-L)/2).  Operator-side eigenvalues are 2E.  An anharmonicity and
an integer shift replace (N, L) by starred numbers in the same functional
form; the anharmonic model in `qdt` supplies them from a table.
"""

from __future__ import annotations

from ._laguerre_forms import GaussianLaguerreForm
from ._np import _lazy_module, as_float, is_integer
from .coulomb import check_integer, check_shift, gamma_shift
from .errors import AdmissibilityError, ParityError

susy = _lazy_module(f"{__package__}.susy")


def check_anharmonicity(value, name="anharmonicity"):
    if not (as_float(value, name) >= 0.0):
        raise AdmissibilityError(f"{name} must be >= 0, got {value!r}")


def check_quantum_numbers(principal, angular):
    """0 <= L <= N with N - L even."""
    check_integer(principal, "principal number", 0)
    if not is_integer(angular):
        raise AdmissibilityError(f"angular number must be an integer, got L={angular!r}")
    if not (0 <= angular <= principal):
        raise AdmissibilityError(
            f"angular number must satisfy 0 <= L <= N, got L={angular!r} N={principal!r}"
        )
    if (principal - angular) % 2:
        raise ParityError(f"N - L must be even, got N={principal} L={angular}")


class OscillatorState(GaussianLaguerreForm):
    """Oscillator-form state with N* = N - 2 Delta and L* = L + 2 shift - 2 Delta.

    The anharmonicity Delta is >= 0 and the shift an integer >= 0; both
    default to zero, which is the exact family.
    """

    def __init__(self, dimension: int, principal: int, angular: int, anharmonicity: float = 0.0,
                 shift: int = 0):
        g = gamma_shift(dimension)
        check_anharmonicity(anharmonicity)
        check_shift(shift)
        check_quantum_numbers(principal, angular)
        n, l, anharmonicity, shift = principal, angular, float(anharmonicity), int(shift)
        self.dimension, self.principal, self.angular = dimension, n, l
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
        self.n_star, self.l_star = n_star, l_star
        super().__init__(l_star + g + 1.0, degree, l_star + g + 0.5)

    @property
    def energy(self) -> float:
        """E = (2N* + 2Gamma + 3)/2 in the family's dimensionless units."""
        return (2.0 * self.n_star + 2.0 * self.gamma + 3.0) / 2.0

    def _operator_coefficients(self):
        """(Coulomb strength, oscillator strength, centrifugal, constant shift) of the radial operator."""
        lg = self.l_star + self.gamma
        return 0.0, 1.0, lg * (lg + 1.0), 0.0

    def operator(self) -> susy.RadialOperator:
        return susy.RadialOperator(*self._operator_coefficients())

    def operator_eigenvalue(self) -> float:
        """The bracket equation carries 2E."""
        return 2.0 * self.energy


def partner_spectra(dimension: int, angular: int, count: int):
    """Analytic shifted spectra of the partner pair built at fixed L.

    Bosonic tower: 2E - (2L + 2Gamma + 3) over N = L, L+2, ...; fermionic
    tower: the L+1 family under the partner's constant 2L + 2Gamma + 1.
    """
    g = gamma_shift(dimension)
    check_integer(angular, "angular number", 0)
    check_integer(count, "count", 1)
    base = 2.0 * angular + 2.0 * g
    bosonic = tuple(
        2.0 * OscillatorState(dimension, angular + 2 * k, angular).energy - (base + 3.0)
        for k in range(count)
    )
    fermionic = tuple(
        2.0 * OscillatorState(dimension, angular + 1 + 2 * k, angular + 1).energy - (base + 1.0)
        for k in range(count - 1)
    )
    return bosonic, fermionic
