"""Coulomb-to-oscillator duality maps, exact and broken.

The exact map sends a d-dimensional Coulomb state (n, l) to an oscillator
state in D = 2d - 2 - 2*lambda dimensions with N = 2n - 2 + lambda and
L = 2l + lambda, for integer lambda.  The broken map extends this to defect
and anharmonic families with lambda integer or half-integer, subject to the
integrality constraint 2*(Delta - delta) + lambda integer.  Verification is
numeric: the substituted source state must be a constant multiple of
sqrt(Y) times the target state, and the constant is measured, not asserted.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .coulomb import CoulombState, gamma_shift
from .errors import AdmissibilityError, VerificationError
from .oscillator import OscillatorState

_INTEGRALITY_TOL = 1e-9
_NODE_EXCLUSION = 1e-6


@dataclass(frozen=True)
class MapSpec:
    """Solved map: lambda, breaking parameters, and both (dim, n, l) triples."""

    lam: Fraction
    delta_defect: float
    anharmonicity: float
    shift_i: int
    shift_I: int
    source: tuple[int, int, int]
    target: tuple[int, int, int]


@dataclass(frozen=True)
class ConstraintReport:
    """Named violations for an inadmissible parameter combination."""

    violations: tuple[str, ...]


def _snap_half_integer(lam):
    value = float(lam)
    doubled = round(2.0 * value)
    if abs(2.0 * value - doubled) > _INTEGRALITY_TOL:
        return None
    return Fraction(int(doubled), 2)


def _near_integer(value):
    return abs(value - round(value)) <= _INTEGRALITY_TOL


def _validate_source(source):
    d, n, l = source
    if not isinstance(d, (int, np.integer)) or d < 2:
        raise AdmissibilityError(f"source dimension must be an integer >= 2, got {d!r}")
    if not isinstance(n, (int, np.integer)) or n < 1:
        raise AdmissibilityError(f"source principal number must be >= 1, got {n!r}")
    if not isinstance(l, (int, np.integer)) or not (0 <= l <= n - 1):
        raise AdmissibilityError(f"source angular number must satisfy 0 <= l <= n-1, got {l!r}")
    return int(d), int(n), int(l)


def solve_map_parameters(
    source,
    lam,
    mode: str = "exact",
    delta: float = 0.0,
    i: int = 0,
    Delta: float = 0.0,
    I: int = 0,
):
    """Solve for the target (D, N, L) or return a ConstraintReport.

    Preconditions raise (bad source triple, out-of-range breaking parameters,
    unknown mode); admissibility and integrality failures are reported, never
    raised, so sweeps can continue.
    """
    d, n, l = _validate_source(source)
    if mode not in ("exact", "broken"):
        raise AdmissibilityError(f"mode must be 'exact' or 'broken', got {mode!r}")
    if not (0.0 <= delta < 1.0):
        raise AdmissibilityError(f"delta must lie in [0, 1), got {delta!r}")
    if not (Delta >= 0.0):
        raise AdmissibilityError(f"Delta must be >= 0, got {Delta!r}")
    if not isinstance(i, (int, np.integer)) or i < 0:
        raise AdmissibilityError(f"i must be an integer >= 0, got {i!r}")
    if not isinstance(I, (int, np.integer)) or I < 0:
        raise AdmissibilityError(f"I must be an integer >= 0, got {I!r}")
    if mode == "exact" and (delta != 0.0 or Delta != 0.0 or i != 0 or I != 0):
        raise AdmissibilityError("exact mode takes no breaking parameters")

    violations = []
    lam_frac = _snap_half_integer(lam)
    if lam_frac is None:
        violations.append(f"lambda = {lam} is not an integer or half-integer")
        return ConstraintReport(tuple(violations))
    if mode == "exact" and lam_frac.denominator != 1:
        violations.append(f"lambda = {lam_frac} is not an integer in exact mode")
        return ConstraintReport(tuple(violations))

    lam_f = float(lam_frac)
    spread = 2.0 * (Delta - delta)
    if mode == "broken" and not _near_integer(spread + lam_f):
        violations.append(
            f"2*(Delta - delta) + lambda = {spread + lam_f:g} is not an integer"
        )

    big_d = 2.0 * d - 2.0 - 2.0 * lam_f
    big_n = 2.0 * n - 2.0 + spread + lam_f if mode == "broken" else 2.0 * n - 2.0 + lam_f
    big_l = (
        2.0 * l + spread - 2.0 * (I - i) + lam_f if mode == "broken" else 2.0 * l + lam_f
    )
    for name, value in (("D", big_d), ("N", big_n), ("L", big_l)):
        if not _near_integer(value):
            violations.append(f"target {name} = {value:g} is not an integer")
    if violations:
        return ConstraintReport(tuple(violations))

    big_d, big_n, big_l = int(round(big_d)), int(round(big_n)), int(round(big_l))
    gamma = gamma_shift(d)
    l_star = l + i - delta
    big_l_star = big_l + 2.0 * I - 2.0 * Delta

    if big_d < 2:
        violations.append(f"target dimension D = {big_d} is below 2")
    if big_n < 0:
        violations.append(f"target principal number N = {big_n} is negative")
    if big_l < 0:
        violations.append(f"target angular number L = {big_l} is negative")
    if (big_n - big_l) % 2:
        violations.append(f"target N - L = {big_n - big_l} is odd")
    if n - l - i - 1 < 0:
        violations.append(f"source polynomial degree n-l-i-1 = {n - l - i - 1} is negative")
    if big_n >= 0 and big_l >= 0 and (big_n - big_l) // 2 - I < 0:
        violations.append(
            f"target polynomial degree (N-L)/2 - I = {(big_n - big_l) // 2 - I} is negative"
        )
    if not (l_star + gamma + 1.0 > 0.0):
        violations.append(f"source l*+gamma+1 = {l_star + gamma + 1.0:g} is not positive")
    if not (n - delta + gamma > 0.0):
        violations.append(f"source n*+gamma = {n - delta + gamma:g} is not positive")
    if big_d >= 2:
        target_bound = big_l_star + gamma_shift(big_d) + 1.0
        if not (target_bound > 0.0):
            violations.append(f"target L*+Gamma+1 = {target_bound:g} is not positive")
    if violations:
        return ConstraintReport(tuple(violations))

    return MapSpec(
        lam=lam_frac,
        delta_defect=float(delta),
        anharmonicity=float(Delta),
        shift_i=int(i),
        shift_I=int(I),
        source=(d, n, l),
        target=(big_d, big_n, big_l),
    )


def default_verification_grid():
    return np.geomspace(0.2, 3.0, 64)


@dataclass(frozen=True)
class MapVerification:
    """Measured ratio data: the map holds when constancy_defect is tiny."""

    grid: np.ndarray
    ratios: np.ndarray
    included: np.ndarray
    constancy_defect: float
    scale_factor: float

    @property
    def excluded_count(self) -> int:
        return int(np.sum(~self.included))


def _source_state(spec: MapSpec) -> CoulombState:
    return CoulombState(*spec.source, delta=spec.delta_defect, shift=spec.shift_i)


def _target_state(spec: MapSpec) -> OscillatorState:
    return OscillatorState(*spec.target, anharmonicity=spec.anharmonicity, shift=spec.shift_I)


def verify_map_identity(spec: MapSpec, grid=None) -> MapVerification:
    """Measure v(nu* Y^2) / (sqrt(Y) V(Y)) on the grid.

    Grid points sitting near a target node (|V| <= 1e-6 times the grid peak)
    are excluded and flagged rather than failing the check; the scale factor
    is the grid mean of the ratio over the included points.
    """
    grid = default_verification_grid() if grid is None else np.asarray(grid, dtype=float)
    if grid.ndim != 1 or grid.size < 2:
        raise VerificationError("verification grid must be one-dimensional with >= 2 points")
    if np.any(grid <= 0.0):
        raise VerificationError("verification grid must be strictly positive")

    src = _source_state(spec)
    tgt = _target_state(spec)
    nu_star = src.n_star + src.gamma
    target_vals = tgt.value(grid)
    scale = np.max(np.abs(target_vals))
    included = np.abs(target_vals) > _NODE_EXCLUSION * scale
    if int(np.sum(included)) < 2:
        raise VerificationError("every grid point sits on or near a target node")

    ratios = np.full_like(grid, np.nan)
    ratios[included] = src.value(nu_star * grid[included] ** 2) / (
        np.sqrt(grid[included]) * target_vals[included]
    )
    used = ratios[included]
    mean = float(np.mean(used))
    spread_scale = max(abs(mean), 1e-300)
    defect = float((np.max(used) - np.min(used)) / spread_scale)
    return MapVerification(
        grid=grid,
        ratios=ratios,
        included=included,
        constancy_defect=defect,
        scale_factor=mean,
    )


def lambda_candidates(lo, hi, mode: str = "exact") -> list[Fraction]:
    """The lambda grid on [lo, hi]: integers in exact mode, half-integers otherwise.

    The grid starts at its first point >= lo; an empty grid raises.
    """
    step = Fraction(1) if mode == "exact" else Fraction(1, 2)
    lam = math.ceil(Fraction(lo) / step) * step
    candidates = []
    while lam <= hi:
        candidates.append(lam)
        lam += step
    if not candidates:
        raise AdmissibilityError(
            f"no candidate lambda values in [{float(lo):g}, {float(hi):g}]"
        )
    return candidates


def enumerate_admissible_targets(
    source,
    lambda_range,
    mode: str = "exact",
    delta: float = 0.0,
    i: int = 0,
    Delta: float = 0.0,
    I: int = 0,
):
    """All admissible MapSpecs with lambda scanned over [lo, hi].

    The candidates come from lambda_candidates, so an empty grid raises;
    inadmissible candidates are silently skipped (their reports are available
    through solve_map_parameters).
    """
    specs = []
    for lam in lambda_candidates(*lambda_range, mode=mode):
        solved = solve_map_parameters(source, lam, mode=mode, delta=delta, i=i, Delta=Delta, I=I)
        if isinstance(solved, MapSpec):
            specs.append(solved)
    return sorted(specs, key=lambda s: s.target)
