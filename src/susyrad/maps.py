"""Coulomb-to-oscillator duality maps, exact and broken.

The exact map sends a d-dimensional Coulomb state (n, l) to an oscillator
state in D = 2d - 2 - 2*lambda dimensions with N = 2n - 2 + lambda and
L = 2l + lambda, for integer lambda.  The broken map extends this to defect
and anharmonic families with lambda integer or half-integer, subject to the
integrality constraint 2*(Delta - delta) + lambda integer.  Verification is
numeric: the substituted source state must be a constant multiple of
sqrt(Y) times the target state, and the constant is measured, not asserted.

A sweep is `lambda_candidates` over a window, solved by `solve_map_sweep`
and the admissible candidates measured together by `verify_map_identities`;
`reports.map_record` is that sweep, the `map` verb's row per candidate.  The
preconditions and the source state do not depend on lambda, so a sweep checks
and builds them once and solves only each candidate's target;
`solve_map_parameters` is the sweep of one.  Both the grid and the solver
refuse a mode other than 'exact' and 'broken'.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from fractions import Fraction

from ._grid import _float_array, columns, family_derivatives, positive_grid
from ._np import as_float, np
from .coulomb import CoulombState, check_defect, check_shift
from .errors import AdmissibilityError, DomainError, VerificationError
from .oscillator import OscillatorState, check_anharmonicity

_INTEGRALITY_TOL = 1e-9
_NODE_EXCLUSION = 1e-6
# upper bound on one sweep's lambda grid, checked before the grid is built
MAX_LAMBDA_CANDIDATES = 10_000


@dataclass(frozen=True)
class MapSpec:
    """Solved map: lambda, breaking parameters, both (dim, n, l) triples and their states."""

    lam: Fraction
    delta_defect: float
    anharmonicity: float
    shift_i: int
    shift_I: int
    source: tuple[int, int, int]
    target: tuple[int, int, int]
    source_state: CoulombState = field(compare=False, repr=False)
    target_state: OscillatorState = field(compare=False, repr=False)


@dataclass(frozen=True)
class ConstraintReport:
    """Named violations for an inadmissible parameter combination."""

    violations: tuple[str, ...]


def _snap_half_integer(lam):
    doubled = 2.0 * as_float(lam, "lambda")
    if not _near_integer(doubled):
        return None
    return Fraction(round(doubled), 2)


def _near_integer(value):
    """Within the integrality tolerance of an integer; inf and nan are not integers."""
    return math.isfinite(value) and abs(value - round(value)) <= _INTEGRALITY_TOL


def _check_mode(mode):
    if mode not in ("exact", "broken"):
        raise AdmissibilityError(f"mode must be 'exact' or 'broken', got {mode!r}")


def _admitted(prefix, state_class, *args, **kwargs):
    """(state, []) or, when the state refuses, (None, [its error message under prefix])."""
    try:
        return state_class(*args, **kwargs), []
    except AdmissibilityError as exc:
        return None, [prefix + str(exc)]


def solve_map_parameters(
    source,
    lam,
    mode: str = "exact",
    delta: float = 0.0,
    i: int = 0,
    Delta: float = 0.0,
    I: int = 0,
):
    """Solve for the target (D, N, L) or return a ConstraintReport: `solve_map_sweep` of one lambda."""
    return solve_map_sweep(source, [lam], mode, delta, i, Delta, I)[0]


def solve_map_sweep(
    source,
    lams,
    mode: str = "exact",
    delta: float = 0.0,
    i: int = 0,
    Delta: float = 0.0,
    I: int = 0,
):
    """A MapSpec or a ConstraintReport for each lambda, in order, as each solved alone.

    Preconditions raise (bad source triple, out-of-range breaking parameters,
    unknown mode); admissibility and integrality failures are reported, never
    raised, so sweeps can continue.  The preconditions and the source state
    do not depend on lambda, so they run once per sweep; an empty sweep
    solves nothing and checks nothing.
    """
    if not len(lams):
        return []
    d, n, l = source
    plain = CoulombState(d, n, l)
    d, n, l = int(d), int(n), int(l)
    _check_mode(mode)
    check_defect(delta, "delta")
    check_anharmonicity(Delta, "Delta")
    check_shift(i, "i")
    check_shift(I, "I")
    delta, Delta = float(delta), float(Delta)  # checked above, so a numeric string computes too
    if mode == "exact" and (delta != 0.0 or Delta != 0.0 or i != 0 or I != 0):
        raise AdmissibilityError("exact mode takes no breaking parameters")
    if delta == 0.0 and i == 0:
        src, source_refused = plain, []
    else:
        src, source_refused = _admitted("source ", CoulombState, d, n, l, delta=delta, shift=i)

    def solve(lam):
        lam_frac = _snap_half_integer(lam)
        if lam_frac is None:
            return ConstraintReport((f"lambda = {lam} is not an integer or half-integer",))
        if mode == "exact" and lam_frac.denominator != 1:
            return ConstraintReport((f"lambda = {lam_frac} is not an integer in exact mode",))

        # exact mode is broken mode with zero breaking: the spread and the shifts add 0.0, exactly
        violations = []
        lam_f = float(lam_frac)
        spread = 2.0 * (Delta - delta)
        if not _near_integer(spread + lam_f):
            violations.append(
                f"2*(Delta - delta) + lambda = {spread + lam_f:g} is not an integer"
            )

        big_d = 2.0 * d - 2.0 - 2.0 * lam_f
        big_n = 2.0 * n - 2.0 + spread + lam_f
        big_l = 2.0 * l + spread - 2.0 * (I - i) + lam_f
        for name, value in (("D", big_d), ("N", big_n), ("L", big_l)):
            if not _near_integer(value):
                violations.append(f"target {name} = {value:g} is not an integer")
        if violations:
            return ConstraintReport(tuple(violations))

        big_d, big_n, big_l = int(round(big_d)), int(round(big_n)), int(round(big_l))
        if big_d < 2:
            violations.append(f"target dimension D = {big_d} is below 2")
        violations += source_refused
        if big_d >= 2:
            tgt, refused = _admitted(
                "target ", OscillatorState, big_d, big_n, big_l, anharmonicity=Delta, shift=I
            )
            violations += refused
        if violations:
            return ConstraintReport(tuple(violations))

        return MapSpec(
            lam=lam_frac,
            delta_defect=delta,
            anharmonicity=Delta,
            shift_i=int(i),
            shift_I=int(I),
            source=(d, n, l),
            target=(big_d, big_n, big_l),
            source_state=src,
            target_state=tgt,
        )

    return [solve(lam) for lam in lams]


@functools.cache
def default_verification_grid():
    """geomspace(0.2, 3.0, 64), built once and read-only."""
    grid = np.geomspace(0.2, 3.0, 64)
    grid.flags.writeable = False
    return grid


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


def verify_map_identity(spec: MapSpec, grid=None) -> MapVerification:
    """Measure v(nu* Y^2) / (sqrt(Y) V(Y)) on the grid: verify_map_identities of one spec."""
    return verify_map_identities([spec], grid)[0]


def verify_map_identities(specs, grid=None) -> list[MapVerification]:
    """Measure v(nu* Y^2) / (sqrt(Y) V(Y)) for each spec on one grid, from two family builds.

    Grid points sitting near a target node (|V| <= 1e-6 times the row's peak)
    are excluded and flagged rather than failing the check; the scale factor
    is the mean of the ratio over a row's included points.  The targets share
    the grid; each source row is its own nu* Y^2, with every excluded point
    replaced by the row's first included one, so no source sees an excluded
    point and each row's mean, max and min have the bits they had alone.
    """
    if grid is None:
        grid = default_verification_grid()
    else:
        grid = _float_array(grid, "verification grid")
        if grid.ndim != 1 or grid.size < 2:
            raise VerificationError("verification grid must be one-dimensional with >= 2 points")
        if (grid <= 0.0).any():
            raise VerificationError("verification grid must be strictly positive")
        if not np.isfinite(grid).all():
            raise DomainError("radial coordinate must be finite")
    if not specs:
        return []

    (target_vals,) = family_derivatives([s.target_state for s in specs], grid, (0,))
    scale = np.abs(target_vals).max(axis=-1, keepdims=True)
    included = np.abs(target_vals) > _NODE_EXCLUSION * scale
    if (included.sum(axis=-1) < 2).any():
        raise VerificationError("every grid point sits on or near a target node")

    (nu_star,) = columns([(s.source_state.n_star + s.source_state.gamma,) for s in specs])
    points = np.where(included, grid, grid[included.argmax(axis=-1)][:, None])
    (source_vals,) = family_derivatives(
        [s.source_state for s in specs], positive_grid(nu_star * points**2), (0,)
    )
    ratios = np.full(target_vals.shape, np.nan)
    ratios[included] = source_vals[included] / (np.sqrt(points) * target_vals)[included]
    checks = []
    for row, mask in zip(ratios, included):
        used = row[mask]
        mean = float(used.mean())
        defect = float((used.max() - used.min()) / max(abs(mean), 1e-300))
        checks.append(MapVerification(grid, row, mask, defect, mean))
    return checks


def lambda_candidates(lo, hi, mode: str = "exact") -> list[Fraction]:
    """The lambda grid on [lo, hi]: integers in exact mode, half-integers otherwise.

    The grid starts at its first point >= lo; an unknown mode, an end outside
    float range, an empty grid, or one longer than MAX_LAMBDA_CANDIDATES,
    raises.
    """
    _check_mode(mode)
    step = Fraction(1) if mode == "exact" else Fraction(1, 2)
    try:
        # int(): a numpy integer would keep int64 arithmetic inside the fraction
        lo, hi = (Fraction(int(f.numerator), int(f.denominator)) for f in map(Fraction, (lo, hi)))
        float(lo), float(hi)
    except (TypeError, ValueError, OverflowError):
        raise AdmissibilityError(
            f"lambda window [{lo!r}, {hi!r}] must hold numbers in float range"
        ) from None
    first, last = math.ceil(lo / step), math.floor(hi / step)
    if last < first:
        raise AdmissibilityError(
            f"no candidate lambda values in [{float(lo):g}, {float(hi):g}]"
        )
    if last - first >= MAX_LAMBDA_CANDIDATES:
        raise AdmissibilityError(
            f"[{float(lo):g}, {float(hi):g}] holds more than the limit of "
            f"{MAX_LAMBDA_CANDIDATES} lambda candidates"
        )
    return [k * step for k in range(first, last + 1)]
