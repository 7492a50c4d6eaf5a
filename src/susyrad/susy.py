"""Two-generator supersymmetric quantum mechanics on the half line.

A superpotential U(x) = a*x**p + b*ln(x) with p in {1, 2} generates the
partner pair V+- = (U'/2)**2 -+ U''/2 and the first-order supercharge
component psi -> psi' + (U'/2) psi.  The bosonic partner annihilates
exp(-U/2); the fermionic spectrum is the bosonic one with the zero mode
removed.

Every function here, and every psi the operators act on, answers
`derivatives(grid, orders)`: the listed derivatives on a grid `positive_grid`
has checked, from one build.  A public call checks its grid once and asks for
all it needs in one call; the pointwise methods go through `specfun.pointwise`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from ._np import np
from .errors import AdmissibilityError
from .specfun import pointwise, positive_grid


@dataclass(frozen=True)
class Superpotential:
    """U(x) = power_coeff * x**power + log_coeff * ln(x), power in {1, 2}."""

    power_coeff: float
    log_coeff: float
    power: int

    def __post_init__(self):
        if self.power not in (1, 2):
            raise AdmissibilityError(f"power must be 1 or 2, got {self.power!r}")
        if not (self.power_coeff > 0.0):
            raise AdmissibilityError("power_coeff must be positive for a confining pair")

    def derivatives(self, grid, orders):
        """[d^k U/dx^k for k in orders] on a grid positive_grid has checked."""
        a, b, p = self.power_coeff, self.log_coeff, self.power
        terms = (
            lambda: a * grid**p + b * np.log(grid),
            lambda: a * p * grid ** (p - 1) + b / grid,
            lambda: a * p * (p - 1) * grid ** (p - 2) - b / grid**2,
            # the power term's third derivative p*(p-1)*(p-2) x**(p-3) is zero for p in {1, 2}
            lambda: 2.0 * b / grid**3,
        )
        return [terms[k]() for k in orders]

    def u(self, x):
        return pointwise(self.derivatives, x, 0)

    def u_prime(self, x):
        return pointwise(self.derivatives, x, 1)

    def u_double_prime(self, x):
        return pointwise(self.derivatives, x, 2)

    def u_third_derivative(self, x):
        return pointwise(self.derivatives, x, 3)


def coulomb_superpotential(angular: int, gamma: float = 0.0) -> Superpotential:
    """U(y) = y/(l+gamma+1) - 2(l+gamma+1) ln y for the attractive-1/y family."""
    beta = angular + gamma + 1.0
    if not (beta > 0.0):
        raise AdmissibilityError("l + gamma + 1 must be positive")
    return Superpotential(power_coeff=1.0 / beta, log_coeff=-2.0 * beta, power=1)


def oscillator_superpotential(angular: int, gamma: float = 0.0) -> Superpotential:
    """U(Y) = Y**2 - 2(L+Gamma+1) ln Y for the quadratic family."""
    beta = angular + gamma + 1.0
    if not (beta > 0.0):
        raise AdmissibilityError("L + Gamma + 1 must be positive")
    return Superpotential(power_coeff=1.0, log_coeff=-2.0 * beta, power=2)


class SusyPair:
    """Partner potentials assembled analytically from one superpotential."""

    def __init__(self, superpotential: Superpotential):
        self.superpotential = superpotential

    def v_plus(self, x):
        return self._partner(x, -1.0)

    def v_minus(self, x):
        return self._partner(x, +1.0)

    def _partner(self, x, sign):
        # W**2 + sign * U''/2 with W = U'/2, from one U'/U'' build
        grid = positive_grid(x)
        u1, u2 = self.superpotential.derivatives(grid, (1, 2))
        w = 0.5 * u1
        out = w * w + sign * (0.5 * u2)
        return float(out) if np.ndim(x) == 0 else out

    def partner_shift(self, x):
        """v_minus - v_plus, which is U'' exactly."""
        return self.superpotential.u_double_prime(x)

    @property
    def shift_constant(self) -> float:
        """Constant part of the partner shift: 0 for power 1, 2a for power 2."""
        u = self.superpotential
        return 0.0 if u.power == 1 else 2.0 * u.power_coeff

    @property
    def centrifugal_shift_coeff(self) -> float:
        """Coefficient of 1/x**2 in the partner shift (equals -log_coeff)."""
        return -self.superpotential.log_coeff

    @property
    def energy_zero_offset(self) -> float:
        """Constant added to the raw radial operator so the ground state sits at 0."""
        a, b = self.superpotential.power_coeff, self.superpotential.log_coeff
        if self.superpotential.power == 1:
            return 0.25 * a * a
        return a * (b - 1.0)

    def plus_operator(self) -> "RadialOperator":
        return self._operator(-1.0)

    def minus_operator(self) -> "RadialOperator":
        return self._operator(+1.0)

    def _operator(self, sign):
        # sign = +1 selects V- = W^2 + U''/2; U'' carries -b/x^2, so the
        # centrifugal piece flips sign relative to the constant piece
        a, b = self.superpotential.power_coeff, self.superpotential.log_coeff
        centrifugal = 0.25 * b * b - sign * 0.5 * b
        if self.superpotential.power == 1:
            return RadialOperator(
                coulomb_strength=-0.5 * a * b,
                oscillator_strength=0.0,
                centrifugal=centrifugal,
                constant_shift=0.25 * a * a,
            )
        return RadialOperator(
            coulomb_strength=0.0,
            oscillator_strength=a * a,
            centrifugal=centrifugal,
            constant_shift=a * b + sign * a,
        )


@dataclass(frozen=True)
class RadialOperator:
    """-d^2/dx^2 - c/x + w*x**2 + centrifugal/x**2 + constant_shift.

    Exactly one of the Coulomb strength c and oscillator strength w is nonzero
    for the families handled here.
    """

    coulomb_strength: float
    oscillator_strength: float
    centrifugal: float
    constant_shift: float = 0.0

    def __post_init__(self):
        if (self.coulomb_strength != 0.0) == (self.oscillator_strength != 0.0):
            raise AdmissibilityError(
                "exactly one of coulomb_strength and oscillator_strength must be nonzero"
            )

    def potential(self, x):
        out = self._potential(positive_grid(x))
        return float(out) if np.ndim(x) == 0 else out

    def _potential(self, arr):
        return (
            -self.coulomb_strength / arr
            + self.oscillator_strength * arr**2
            + self.centrifugal / arr**2
            + self.constant_shift
        )


def apply_operator(op: RadialOperator, psi, x_grid, eigenvalue: float | None = None):
    """Residual (-psi'' + V psi) - eigenvalue*psi on a strictly positive grid.

    psi must answer derivatives(grid, orders) analytically; finite differences
    are never used here.
    """
    return residual_and_value(op, psi, positive_grid(x_grid), eigenvalue)[0]


def residual_and_value(op: RadialOperator, psi, grid, eigenvalue: float | None = None):
    """(residual, value of psi) as in apply_operator, on a grid positive_grid has checked."""
    val, curv = psi.derivatives(grid, (0, 2))
    res = -curv + op._potential(grid) * val
    if eigenvalue is not None:
        res = res - eigenvalue * val
    return res, val


def apply_supercharge(superpotential: Superpotential, psi, x_grid):
    """Pointwise psi' + (U'/2) psi on the grid."""
    return SuperchargeImage(superpotential, psi).value(x_grid)


class SuperchargeImage:
    """The function A psi = psi' + (U'/2) psi with analytic derivatives.

    Its k-th derivative is psi^(k+1) + sum_j C(k, j) W^(k-j) psi^(j) with
    W = U'/2, so the second derivative pulls in psi'''; psi must answer
    derivatives(grid, orders) up to third order.
    """

    def __init__(self, superpotential: Superpotential, psi):
        self.superpotential = superpotential
        self.psi = psi

    def derivatives(self, grid, orders):
        """[d^k/dx^k of A psi for k in orders] on a checked grid, from one psi and one U build."""
        top = max(orders) + 1
        psi = self.psi.derivatives(grid, range(top + 1))
        w = [0.5 * du for du in self.superpotential.derivatives(grid, range(1, top + 1))]
        out = []
        for k in orders:
            entry = psi[k + 1]
            for j in range(k + 1):
                c = math.comb(k, j)
                entry = entry + (w[k - j] if c == 1 else c * w[k - j]) * psi[j]
            out.append(entry)
        return out

    def value(self, x):
        return pointwise(self.derivatives, x, 0)

    def derivative(self, x):
        return pointwise(self.derivatives, x, 1)

    def second_derivative(self, x):
        return pointwise(self.derivatives, x, 2)
