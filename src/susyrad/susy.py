"""Two-generator supersymmetric quantum mechanics on the half line.

A superpotential U(x) = a*x**p + b*ln(x) with p in {1, 2} generates the
partner pair V+- = (U'/2)**2 -+ U''/2 and the first-order supercharge
component psi -> psi' + (U'/2) psi.  The bosonic partner annihilates
exp(-U/2); the fermionic spectrum is the bosonic one with the zero mode
removed.

Every function here, and every psi the operators act on, answers
`derivatives(grid, orders)`: the listed derivatives on a grid `positive_grid`
has checked, from one build.  A public call checks its grid once and asks for
all it needs in one call; the pointwise methods go through `_grid.pointwise`,
and U's and the partners' refuse a value out of float range instead of
returning it (`_grid.finite_pointwise`), as `Superpotential` refuses
non-finite coefficients.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from ._grid import columns, family_derivatives, finite_pointwise, pointwise, positive_grid, refuse_non_finite
from ._np import as_float, np
from .errors import AdmissibilityError


@dataclass(frozen=True)
class Superpotential:
    """U(x) = power_coeff * x**power + log_coeff * ln(x), power in {1, 2}."""

    power_coeff: float
    log_coeff: float
    power: int

    def __post_init__(self):
        if self.power not in (1, 2):
            raise AdmissibilityError(f"power must be 1 or 2, got {self.power!r}")
        # refused here, not at the first evaluation; kept as floats, so no integer product wraps
        for name in ("power_coeff", "log_coeff"):
            value = as_float(getattr(self, name), name)
            if not math.isfinite(value):
                raise AdmissibilityError(f"{name} must be finite, got {value!r}")
            object.__setattr__(self, name, value)
        if not (self.power_coeff > 0.0):
            raise AdmissibilityError("power_coeff must be positive for a confining pair")

    def derivatives(self, grid, orders):
        """[d^k U/dx^k for k in orders] on a grid positive_grid has checked."""
        return _u_derivatives(grid, orders, self.power_coeff, self.log_coeff, self.power)

    def u(self, x):
        return finite_pointwise(self.derivatives, x, 0, "U")

    def u_prime(self, x):
        return finite_pointwise(self.derivatives, x, 1, "U'")

    def u_double_prime(self, x):
        return finite_pointwise(self.derivatives, x, 2, "U''")

    def u_third_derivative(self, x):
        return finite_pointwise(self.derivatives, x, 3, "U'''")


def _u_derivatives(grid, orders, a, b, p):
    """[d^k U/dx^k for k in orders] of a*x**p + b*ln(x); a and b may be columns with one row each."""
    terms = (
        lambda: a * grid**p + b * np.log(grid),
        lambda: a * p * grid ** (p - 1) + b / grid,
        lambda: a * p * (p - 1) * grid ** (p - 2) - b / grid**2,
        # the power term's third derivative p*(p-1)*(p-2) x**(p-3) is zero for p in {1, 2}
        lambda: 2.0 * b / grid**3,
    )
    return [terms[k]() for k in orders]


def _beta(angular, gamma, names):
    """angular + gamma + 1, refused unless positive and finite."""
    beta = as_float(angular, names[0]) + as_float(gamma, names[1]) + 1.0
    if not (beta > 0.0):
        raise AdmissibilityError(f"{names[0]} + {names[1]} + 1 must be positive")
    if beta == math.inf:
        raise AdmissibilityError(f"{names[0]} + {names[1]} + 1 must be finite")
    return beta


def coulomb_superpotential(angular: int, gamma: float = 0.0) -> Superpotential:
    """U(y) = y/(l+gamma+1) - 2(l+gamma+1) ln y for the attractive-1/y family."""
    beta = _beta(angular, gamma, ("l", "gamma"))
    return Superpotential(power_coeff=1.0 / beta, log_coeff=-2.0 * beta, power=1)


def oscillator_superpotential(angular: int, gamma: float = 0.0) -> Superpotential:
    """U(Y) = Y**2 - 2(L+Gamma+1) ln Y for the quadratic family."""
    beta = _beta(angular, gamma, ("L", "Gamma"))
    return Superpotential(power_coeff=1.0, log_coeff=-2.0 * beta, power=2)


class SusyPair:
    """Partner potentials assembled analytically from one superpotential."""

    def __init__(self, superpotential: Superpotential):
        # every partner coefficient is built from a*a, a*b and b*b: refused here, not at evaluation
        a, b = superpotential.power_coeff, superpotential.log_coeff
        if not all(map(math.isfinite, (a * a, a * b, b * b))):
            raise AdmissibilityError(f"partner coefficients of {superpotential} leave float range")
        self.superpotential = superpotential

    def v_plus(self, x):
        return finite_pointwise(self._partners, x, 0, "V+")

    def v_minus(self, x):
        return finite_pointwise(self._partners, x, 1, "V-")

    def _partners(self, grid, which):
        # W**2 -+ U''/2 with W = U'/2, from one U'/U'' build; 0 in which is V+, 1 is V-
        u1, u2 = self.superpotential.derivatives(grid, (1, 2))
        w = 0.5 * u1
        return [w * w + (1.0 if k else -1.0) * (0.5 * u2) for k in which]

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
        return finite_pointwise(lambda grid, orders: [self._potential(grid)], x, 0, "V")

    def _coefficients(self):
        return self.coulomb_strength, self.oscillator_strength, self.centrifugal, self.constant_shift

    def _potential(self, arr):
        return radial_potential(arr, *self._coefficients())


def radial_potential(arr, coulomb_strength, oscillator_strength, centrifugal, constant_shift):
    """-c/x + w*x**2 + centrifugal/x**2 + constant_shift; a coefficient column holds one row each."""
    return (
        -coulomb_strength / arr
        + oscillator_strength * arr**2
        + centrifugal / arr**2
        + constant_shift
    )


def shift_identity_defect(pair: SusyPair, grid) -> float:
    """max |(V- - V+ - c) x^2 - k| / (max(|V-|, |V+|) x^2), c and k the shift's constant and 1/x^2 coefficient.

    Relative to the partners, the rounding of their cancellation is no defect.  x^2 is divided out, partners
    that underflow count as the smallest normal float, and a defect out of float range is refused.
    """
    grid = positive_grid(grid)
    with np.errstate(all="ignore"):
        v_plus, v_minus = pair._partners(grid, (0, 1))
        defect = np.abs(v_minus - v_plus - pair.shift_constant - pair.centrifugal_shift_coeff / grid / grid)
        defect /= np.maximum(np.maximum(np.abs(v_minus), np.abs(v_plus)), np.finfo(float).tiny)
    refuse_non_finite(defect, grid, "shift identity defect")
    return float(np.max(defect))


def apply_operator(op: RadialOperator, psi, x_grid, eigenvalue: float | None = None):
    """Residual (-psi'' + V psi) - eigenvalue*psi on a strictly positive grid.

    psi must answer derivatives(grid, orders) analytically; finite differences
    are never used here.
    """
    grid = positive_grid(x_grid)
    val, curv = psi.derivatives(grid, (0, 2))
    return residual(val, curv, op._potential(grid), eigenvalue)


def residual(value, curvature, potential, eigenvalue=None):
    """-psi'' + V psi - eigenvalue psi from psi's value and curvature; a column holds one row each."""
    res = -curvature + potential * value
    if eigenvalue is not None:
        res = res - eigenvalue * value
    return res


def apply_supercharge(superpotential: Superpotential, psi, x_grid):
    """Pointwise psi' + (U'/2) psi on the grid."""
    return SuperchargeImage(superpotential, psi).value(x_grid)


def annihilation_residual(superpotential: Superpotential, ground, x_grid) -> float:
    """max |A psi0| / max |psi0| on the grid: zero when ground is the zero mode of U."""
    grid = positive_grid(x_grid).reshape(-1)
    (u_prime,) = superpotential.derivatives(grid, (1,))
    return float(_annihilation(*ground.derivatives(grid, (0, 1)), u_prime))


def annihilation_residuals(superpotentials, grounds, grids):
    """annihilation_residual of each (U, ground) row, on its row of grids or all on one 1-D grid.

    The grounds are forms of one class, built once; the superpotentials share
    one power, and their coefficients enter as columns.
    """
    grids = positive_grid(grids)
    (power,) = {u.power for u in superpotentials}
    a, b = columns([(u.power_coeff, u.log_coeff) for u in superpotentials])
    (u_prime,) = _u_derivatives(grids, (1,), a, b, power)
    return _annihilation(*family_derivatives(grounds, grids, (0, 1)), u_prime)


def _annihilation(value, slope, u_prime):
    """max |psi0' + (U'/2) psi0| / max |psi0| along the last axis."""
    return np.abs(slope + 0.5 * u_prime * value).max(axis=-1) / np.abs(value).max(axis=-1)


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
