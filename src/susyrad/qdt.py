"""Broken-symmetry families: quantum-defect and anharmonic radial models.

A defect model replaces (n, l) by (n* = n - delta, l* = l + i - delta) with a
real defect delta in [0, 1) and an integer shift i >= 0; the states keep the
Coulomb functional form with starred parameters and stay exactly solvable.
The anharmonic model is the oscillator-side mirror with (N* = N - 2*Delta,
L* = L + 2*I - 2*Delta).  The breaking potential is the exact difference
between the starred and unstarred radial operators plus the eigenvalue
bookkeeping constant, so the unstarred operator with the breaking potential
added has the starred functions as eigenfunctions at the rigid bracket
eigenvalue; the physical level shift lives in the starred decay scale.

The models are tables keyed by the angular number; the starred numbers, their
admissibility and the states themselves belong to `CoulombState` and
`OscillatorState`, which take delta (Delta) and the shift directly.
"""

from __future__ import annotations

from . import coulomb, oscillator
from ._np import _lazy_module, np
from .coulomb import CoulombState, check_defect, check_shift, gamma_shift
from .errors import AdmissibilityError
from .oscillator import OscillatorState, check_anharmonicity

_grid = _lazy_module(f"{__package__}._grid")


def _normalize_table(table, kind, value_check, convert=float, pairs=True):
    """Keys as l, or (l, n) where the table takes pairs; values checked, then converted."""
    out = {}
    for key, value in table.items():
        try:
            pair = pairs and isinstance(key, tuple) and len(key) == 2
            lkey = (int(key[0]), int(key[1])) if pair else int(key)
        except (TypeError, ValueError, OverflowError):
            expected = "l or (l, n)" if pairs else "l"
            raise AdmissibilityError(f"{kind} key must be {expected}, got {key!r}") from None
        value_check(value, f"{kind} for {key!r}")
        out[lkey] = convert(value)
    return out


def _lookup(table, kind, symbol, angular, principal=None):
    """The (angular, principal) entry when the table has one, else the angular entry."""
    # keys are ints, so 2.5 or nan has no entry, where int() would truncate or raise
    try:
        if principal is not None and (angular, principal) in table:
            return table[(angular, principal)]
        return table[angular]
    except (KeyError, TypeError):
        raise AdmissibilityError(f"no {kind} entry for {symbol}={angular}") from None


class DefectModel:
    """Defect table keyed by l (asymptotic) or (l, n), plus integer shifts by l."""

    def __init__(self, dimension: int, defects: dict, shifts: dict):
        self.gamma = gamma_shift(dimension)
        self.dimension = int(dimension)
        self.defect_table = _normalize_table(defects, "defect", check_defect)
        self.integer_shift_table = _normalize_table(shifts, "shift", check_shift, int, False)

    def delta(self, angular: int, principal: int | None = None) -> float:
        """n-specific value when present, else the asymptotic l entry."""
        return _lookup(self.defect_table, "defect", "l", angular, principal)

    def shift(self, angular: int) -> int:
        return _lookup(self.integer_shift_table, "shift", "l", angular)

    def state(self, principal: int, angular: int) -> "DefectState":
        return DefectState(self, principal, angular)


class DefectState(CoulombState):
    """Coulomb-form state with starred quantum numbers from a DefectModel."""

    def __init__(self, model: DefectModel, principal: int, angular: int):
        # checks before the table lookups and before int(), so a non-integer is refused, not truncated
        coulomb.check_quantum_numbers(principal, angular)
        n, l = int(principal), int(angular)
        self.model = model
        self.dimension, self.principal, self.angular = model.dimension, n, l
        self._set_starred(model.gamma, model.delta(l, n), model.shift(l))


def _breaking_potential(state, constant, y):
    """[(l*+g)(l*+g+1) - (l+g)(l+g+1)]/y^2 plus the family's bookkeeping constant."""
    g = state.gamma
    arr = _grid.positive_grid(y)
    lg_star = state.l_star + g
    lg = state.angular + g
    out = (lg_star * (lg_star + 1.0) - lg * (lg + 1.0)) / arr**2 + constant
    return float(out) if np.ndim(y) == 0 else out


def breaking_potential_coulomb(model: DefectModel, principal: int, angular: int, y):
    """Exact operator difference turning the (n, l) problem into the starred one.

    Centrifugal part [(l*+g)(l*+g+1) - (l+g)(l+g+1)]/y^2 plus the eigenvalue
    bookkeeping constant [(n+g)^2 - (n*+g)^2] / (4 (n+g)^2 (n*+g)^2).
    """
    state = DefectState(model, principal, angular)
    nu = state.principal + state.gamma
    nu_star = state.n_star + state.gamma
    return _breaking_potential(state, (nu**2 - nu_star**2) / (4.0 * nu**2 * nu_star**2), y)


class AnharmonicModel:
    """Anharmonicity table keyed by L (asymptotic) or (L, N), plus shifts by L."""

    def __init__(self, dimension: int, anharmonicities: dict, shifts: dict):
        self.gamma = gamma_shift(dimension)
        self.dimension = int(dimension)
        self.anharmonicity_table = _normalize_table(
            anharmonicities, "anharmonicity", check_anharmonicity
        )
        self.integer_shift_table = _normalize_table(shifts, "shift", check_shift, int, False)

    def anharmonicity(self, angular: int, principal: int | None = None) -> float:
        """N-specific value when present, else the asymptotic L entry."""
        return _lookup(self.anharmonicity_table, "anharmonicity", "L", angular, principal)

    def shift(self, angular: int) -> int:
        return _lookup(self.integer_shift_table, "shift", "L", angular)

    def state(self, principal: int, angular: int) -> "AnharmonicState":
        return AnharmonicState(self, principal, angular)


class AnharmonicState(OscillatorState):
    """Oscillator-form state with starred quantum numbers from an AnharmonicModel."""

    def __init__(self, model: AnharmonicModel, principal: int, angular: int):
        oscillator.check_quantum_numbers(principal, angular)
        n, l = int(principal), int(angular)
        self.model = model
        self.dimension, self.principal, self.angular = model.dimension, n, l
        self._set_starred(model.gamma, model.anharmonicity(l, n), model.shift(l))


def breaking_potential_oscillator(model: AnharmonicModel, principal: int, angular: int, y):
    """Oscillator-side mirror of the Coulomb breaking potential.

    Centrifugal part [(L*+G)(L*+G+1) - (L+G)(L+G+1)]/Y^2 plus the constant
    2(N - N*) = 4*Delta from the eigenvalue bookkeeping.
    """
    state = AnharmonicState(model, principal, angular)
    return _breaking_potential(state, 2.0 * (state.principal - state.n_star), y)


def illustrative_defect_model(dimension: int = 3) -> DefectModel:
    """Synthetic defect table for exercising the interface.

    The numbers are round placeholders shaped like an alkali series (large s
    defect, small p defect, near-zero d defect); they are not measured
    constants and carry no physical authority.
    """
    return DefectModel(
        dimension,
        defects={0: 0.40, 1: 0.05, 2: 0.005, (0, 2): 0.41},
        shifts={0: 1, 1: 0, 2: 0},
    )
