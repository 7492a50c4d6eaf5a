"""Runtime verification suite: the numbered acceptance checks behind `verify`.

Each check is one body registered with `@_criterion(number, name, tolerance)`,
which appends it to `_CHECKS` in definition order and turns the body's (worst
defect, detail) into a `CheckResult`, so the CLI can print one pass/fail line
per criterion.  Every worst-of is `_worst`, so a NaN in any measurement wins and
fails its criterion.  Where a verb prints the same diagnostic, the criterion is
held to that verb's tolerance from `reports`.  The checks
deliberately re-derive expectations from closed forms or independent routes:
exact-rational direct polynomial sums, Gram matrices summed by Gauss-Laguerre
rules that are exact for the forms' products (criterion 3) and, for the
Laguerre derivative identity of criterion 9, a Richardson-extrapolated central
difference.  Criterion 9 holds the batched recurrence (each identity's cards in
one `laguerre_stack` call) to the integer direct sum of each card, all 80 cards
in one `specfun.sonine_laguerre_direct_sums` call.  The states'
own derivatives are never differenced; their residuals use the analytic product
rule.  Criteria 2, 4 and 5 measure each distinct radial form once.  The radial
equation sees d only through gamma = (d - 3)/2, so (d, n, l) and (d + 2, n - 1,
l - 1) are one function, and many of their cases repeat one another.  Every
case is still built, so admissibility and the counts in the details are as
before; the cases are grouped by `_form_key`, every float a measured row is
computed from, and the first of each group is measured, so each case's row is
its representative's bit for bit (464 residual rows are 305 distinct, 70 maps
28 and 36 superpotential rows 21).  Criterion 2 measures each family's distinct
forms in descending degree, _BATCH_ROWS at a time, so a batch's recurrence runs
only to its own top degree, and reads each operator's coefficients as floats
(`_operator_coefficients`).  Criterion 4 measures the partner shift as
`susy-pair` does, relative to the partners, each family's superpotentials in one
`susy.shift_identity_defects` call; criterion 5 solves each source's lambdas as
one exact and one broken `maps.solve_map_sweep`; and
criterion 8 reads the records that the trap verbs print.  Criteria 7 and 8
draw their points and trap configurations from private, seeded stdlib
`random.Random` streams, so the suite executes only numpy's core, never
`numpy.random`, and never touches the module-level `random` state.
"""

from __future__ import annotations

import functools
import random
import time
from dataclasses import asdict, dataclass
from fractions import Fraction

from . import _grid, coulomb, geonium, maps, oscillator, qdt, reports, specfun, susy
from ._grid import family_derivatives
from ._np import np
from .errors import AdmissibilityError, StabilityError

# seeds of the private `random.Random` streams of criteria 7 (_RNG_SEED) and 8 (_RNG_SEED + 1)
_RNG_SEED = 20260826


@dataclass(frozen=True)
class CheckResult:
    criterion: int
    name: str
    passed: bool
    value: float
    tolerance: float
    seconds: float
    detail: str


_CHECKS = []


def _criterion(criterion, name, tolerance, runtime_limit=None):
    """Register a body returning (worst defect, detail) as a check that returns a CheckResult."""

    def register(body):
        @functools.wraps(body)
        def check() -> CheckResult:
            start = time.perf_counter()
            try:
                value, detail = body()
            except Exception as exc:  # a crash is a failing criterion, not a crash of verify
                return CheckResult(criterion, name, False, float("inf"), tolerance,
                                   time.perf_counter() - start, repr(exc))
            elapsed = time.perf_counter() - start
            passed = value <= tolerance  # False for a NaN
            if runtime_limit is not None and elapsed >= runtime_limit:
                passed = False
                detail = f"{detail}; runtime {elapsed:.2f}s exceeded {runtime_limit:g}s"
            return CheckResult(criterion, name, passed, value, tolerance, elapsed, detail)

        _CHECKS.append(check)
        return check

    return register


def _worst(defects):
    """The largest of floats or arrays; a NaN anywhere wins, and no defects give inf, which fails."""
    maxima = [np.max(d) for d in defects]
    return float(np.max(maxima)) if maxima else float("inf")


def _distinct(cases, key):
    """The first case of each key, in the order the cases come."""
    firsts = {}
    for case in cases:
        firsts.setdefault(key(case), case)
    return list(firsts.values())


# --- criterion 1 -----------------------------------------------------------


@_criterion(1, "hydrogen-spectrum", 1e-14, runtime_limit=1.0)
def check_hydrogen_spectrum():
    record = reports.spectrum_record("coulomb", 3, list(range(1, 21)), [0])
    worst = _worst(abs(row["energy"] / (-1.0 / (2.0 * row["n"] * row["n"])) - 1.0) for row in record.rows)
    return worst, f"{len(record.rows)} levels"


# --- criterion 2 -----------------------------------------------------------


_OSC_GRID = np.linspace(0.05, 6.0, 240)


def _grid_stop(state):
    """The last point of a Coulomb-form state's residual and annihilation grid."""
    return 20.0 * (state.principal + state.gamma)


def _state_grids(states):
    """Residual and annihilation grids of one family's states: _OSC_GRID shared, or a Coulomb row each."""
    if isinstance(states[0], oscillator.OscillatorState):
        return _OSC_GRID
    return np.linspace(0.05, [_grid_stop(s) for s in states], 240, axis=-1)


def _form_key(state):
    """Every float that a state's measured rows are computed from: equal keys give bit-identical rows.

    The form's family, degree, order, exponent and constants, l* + gamma (the
    centrifugal term), n* + gamma (the eigenvalue and a map's source scale)
    and, on the Coulomb side, the stop of the state's grid.  The radial
    equation sees d only through gamma = (d - 3)/2, so with no defect
    (d, n, l) and (d + 2, n - 1, l - 1) share a key.
    """
    oscillator_form = isinstance(state, oscillator.OscillatorState)
    return (oscillator_form, state.degree, state.order, state.exponent, state._constants(),
            state.l_star + state.gamma, state.n_star + state.gamma,
            None if oscillator_form else _grid_stop(state))


# states per residual batch: a fixed row budget that bounds the batch's temporaries
_BATCH_ROWS = 16


def synthetic_models(model_class, dims, amounts):
    """Models of one class: each amount at l = 0 and half of it at l = 1, one shift for both."""
    return [
        model_class(d, {0: amount, 1: amount / 2.0}, {0: i, 1: i})
        for d in dims for amount in amounts for i in (0, 1)
    ]


# per family: its exact state class, n - l of its ground state, the step between the n of
# one l, the n of the exact states and the synthetic_models arguments
_FORM_FAMILIES = (
    (coulomb.CoulombState, 1, 1, range(1, 7), (qdt.DefectModel, (2, 3, 4, 5), (0.15, 0.4, 0.75))),
    (oscillator.OscillatorState, 0, 2, range(0, 9), (qdt.AnharmonicModel, (2, 3, 4, 6), (0.1, 0.3))),
)


def _form_states(family, used):
    """A family's exact states, then its models' states; a model that contributes joins used."""
    exact, ground_gap, step, principals, models = family
    for d in range(2, 7):
        for n in principals:
            for l in range((n - ground_gap) % step, n - ground_gap + 1, step):
                yield exact(d, n, l)
    for model in synthetic_models(*models):
        for l in (0, 1):
            # the ground n of the shifted l, then the next two of its parity
            start = l + step * model.shift(l) + ground_gap
            for n in range(start, start + 3 * step, step):
                try:
                    state = model.state(n, l)
                except AdmissibilityError:
                    continue
                used.add(model)
                yield state


@_criterion(2, "radial-residuals", reports.RESIDUAL_TOL, runtime_limit=30.0)
def check_radial_residuals():
    residuals, count, used = [], 0, set()
    for family in _FORM_FAMILIES:
        states = list(_form_states(family, used))
        # in degree order, so a batch's recurrence runs only as far as its own top degree
        distinct = sorted(_distinct(states, _form_key), key=lambda state: -state.degree)
        for start in range(0, len(distinct), _BATCH_ROWS):
            batch = distinct[start : start + _BATCH_ROWS]
            residuals.append(reports._relative_residuals(batch, _state_grids(batch)))
        count += len(states)
    if len(used) < 20:
        raise AssertionError(f"only {len(used)} synthetic models contributed")
    return _worst(residuals), f"{count} states, {len(used)} synthetic models"


# --- criterion 3 -----------------------------------------------------------


def _gram(states):
    """One family's Gram matrix and node count K = top degree + 1, summed exactly by a Gauss-Laguerre rule.

    The forms share x**q, so a product is x**(2q), an exponential and a
    polynomial of degree below 2K.  Oscillator side: one rule of alpha = q - 1/2
    at t = x**2, where dx = dt / (2 sqrt(t)).  Coulomb side: one rule of alpha = 2q, its nodes u at
    x = u / c per pair, c = 1/(2 s_i) + 1/(2 s_j).  Each weight w is divided
    by the weight function, w exp(u) / u**alpha, in the log domain.
    """
    first, k = states[0], max(s.degree for s in states) + 1
    if isinstance(first, oscillator.OscillatorState):
        t, log_weights = specfun.gauss_laguerre(first.exponent - 0.5, k)
        (values,) = family_derivatives(states, np.sqrt(t), (0,))
        weights = 0.5 * np.exp(log_weights + t - first.exponent * np.log(t))
        return (values * weights) @ values.T, k
    alpha = 2.0 * first.exponent
    u, log_weights = specfun.gauss_laguerre(alpha, k)
    rates = np.array([0.5 / s.scale for s in states])
    pair_rates = (rates[:, None] + rates)[..., None]
    # row i holds f_i at the nodes of every pair (i, j), one family build for them all
    nodes = u / pair_rates
    (values,) = family_derivatives(states, nodes.reshape(len(states), -1), (0,))
    values = values.reshape(nodes.shape)
    weights = np.exp(log_weights + u - alpha * np.log(u)) / pair_rates
    return np.einsum("ijk,jik,ijk->ij", values, values, weights), k


def orthonormality_families():
    fams = []
    fams.append(("coulomb d=3 l=0", [coulomb.CoulombState(3, n, 0) for n in range(1, 9)]))
    fams.append(("coulomb d=3 l=2", [coulomb.CoulombState(3, n, 2) for n in range(3, 9)]))
    fams.append(("coulomb d=2 l=0", [coulomb.CoulombState(2, n, 0) for n in range(1, 9)]))
    fams.append(("coulomb d=5 l=1", [coulomb.CoulombState(5, n, 1) for n in range(2, 9)]))
    fams.append(("oscillator D=3 L=0", [oscillator.OscillatorState(3, n, 0) for n in range(0, 9, 2)]))
    fams.append(("oscillator D=2 L=1", [oscillator.OscillatorState(2, n, 1) for n in range(1, 9, 2)]))
    fams.append(("oscillator D=6 L=2", [oscillator.OscillatorState(6, n, 2) for n in range(2, 9, 2)]))
    dm = qdt.DefectModel(3, {0: 0.4}, {0: 1})
    fams.append(("defect d=3 l=0", [dm.state(n, 0) for n in range(2, 9)]))
    dm2 = qdt.DefectModel(4, {1: 0.2}, {1: 0})
    fams.append(("defect d=4 l=1", [dm2.state(n, 1) for n in range(2, 9)]))
    am = qdt.AnharmonicModel(2, {0: 0.1}, {0: 1})
    fams.append(("anharmonic D=2 L=0", [am.state(n, 0) for n in range(2, 9, 2)]))
    am2 = qdt.AnharmonicModel(3, {1: 0.25}, {1: 0})
    fams.append(("anharmonic D=3 L=1", [am2.state(n, 1) for n in range(1, 8, 2)]))
    return fams


def _span(values):
    lo, hi = min(values), max(values)
    return str(lo) if lo == hi else f"{lo}-{hi}"


@_criterion(3, "orthonormality", 1e-8, runtime_limit=60.0)
def check_orthonormality():
    families = orthonormality_families()
    grams, nodes = zip(*[_gram(states) for _, states in families])
    total = sum(len(states) for _, states in families)
    return _worst(np.abs(g - np.eye(len(g))) for g in grams), (
        f"{total} states across {len(families)} families; "
        f"Gauss-Laguerre rules of {_span(nodes)} nodes"
    )


# --- criterion 4 -----------------------------------------------------------


# per family: superpotential, state class, n - l of the ground state, dimensions, shift grid
_SUSY_FAMILIES = (
    (susy.coulomb_superpotential, coulomb.CoulombState, 1, (2, 3, 4, 5, 6), np.linspace(0.1, 20.0, 160)),
    (susy.oscillator_superpotential, oscillator.OscillatorState, 0, (2, 3, 4, 6), np.linspace(0.1, 6.0, 160)),
)


def _susy_rows(superpotential, exact, ground_gap, dims):
    """A family's (U, ground state) pairs: U of each (d, l) and the ground state it annihilates."""
    return [
        (superpotential(l, coulomb.gamma_shift(d)), exact(d, l + ground_gap, l))
        for d in dims for l in range(4)
    ]


def _susy_key(row):
    """U, a frozen dataclass of its floats, and the ground state's key."""
    u, ground = row
    return u, _form_key(ground)


# three sub-tolerances; the composite check reports 0 or 1
@_criterion(4, "susy-structure", 0.5)
def check_susy_structure():
    shift_defects, annihilations = [], []
    for superpotential, exact, ground_gap, dims, grid in _SUSY_FAMILIES:
        us, grounds = zip(*_distinct(_susy_rows(superpotential, exact, ground_gap, dims), _susy_key))
        # the family's shift defects from one U'/U'' build, its annihilation residuals from one ground-state build
        shift_defects.append(susy.shift_identity_defects(us, grid))
        annihilations.append(susy.annihilation_residuals(us, grounds, _state_grids(grounds)))
    shift_defect, annihilation = _worst(shift_defects), _worst(annihilations)
    if not shift_defect <= reports.SHIFT_IDENTITY_TOL:
        return 1.0, f"partner-shift identity defect {shift_defect:.3e}"
    if not annihilation <= reports.RESIDUAL_TOL:
        return 1.0, f"ground-state annihilation residual {annihilation:.3e}"

    pair = susy.SusyPair(susy.coulomb_superpotential(0, 0.0))
    h_minus = pair.minus_operator()
    wgrid = np.linspace(0.2, 40.0, 200)
    intertwinings = []
    for n in range(2, 5):
        psi = coulomb.CoulombState(3, n, 0)
        image = susy.SuperchargeImage(pair.superpotential, psi)
        res = susy.apply_operator(h_minus, image, wgrid, 0.5 * psi.energy + pair.energy_zero_offset)
        intertwinings.append(np.max(np.abs(res)) / np.max(np.abs(image.value(wgrid))))
    intertwine = _worst(intertwinings)
    if not intertwine <= 1e-7:
        return 1.0, f"intertwining residual {intertwine:.3e}"
    return 0.0, (
        f"shift {shift_defect:.2e} (tol 1e-12), annihilation {annihilation:.2e} "
        f"(tol 1e-8), intertwining {intertwine:.2e} (tol 1e-7)"
    )


# --- criterion 5 -----------------------------------------------------------


def _exact_maps():
    """The admissible exact maps of d 2..5, n 1..4 and lambda 0, 1, each checked against its broken twin."""
    specs = []
    for d in range(2, 6):
        for n in range(1, 5):
            for l in range(n):
                if d == 3:
                    # raises unless the lambda = 1 hydrogen map gives the (2, 2n-1, 2l+1) closed form
                    geonium.coulomb_to_geonium(n, l)
                lams = (0, 1)
                exact = maps.solve_map_sweep((d, n, l), lams, mode="exact")
                broken = maps.solve_map_sweep((d, n, l), lams, mode="broken", delta=0.0, i=0, Delta=0.0, I=0)
                for lam, solved, twin in zip(lams, exact, broken):
                    if isinstance(solved, maps.ConstraintReport):
                        continue
                    specs.append(solved)
                    if twin != solved:
                        raise AssertionError(
                            f"broken map with zero breaking differs from exact at {(d, n, l, lam)}"
                        )
    return specs


def _map_key(spec):
    """The source's key and the target's: a map's ratio row is built from its two states alone."""
    return _form_key(spec.source_state), _form_key(spec.target_state)


@_criterion(5, "exact-maps", reports.MAP_CONSTANCY_TOL)
def check_exact_maps():
    specs = _exact_maps()
    checks = maps.verify_map_identities(_distinct(specs, _map_key))
    return _worst(check.constancy_defect for check in checks), f"{len(specs)} admissible exact maps verified"


# --- criterion 6 -----------------------------------------------------------


@_criterion(6, "odd-dimension-map", reports.MAP_CONSTANCY_TOL)
def check_odd_dimension_map():
    specs = []
    for n in range(1, 4):
        for l in range(n):
            solved = maps.solve_map_parameters((3, n, l), Fraction(1, 2), mode="broken", delta=0.0, Delta=0.25)
            if isinstance(solved, maps.ConstraintReport):
                raise AssertionError(f"quarter-shift map rejected: {solved.violations}")
            if solved.target[0] != 3:
                raise AssertionError(f"expected target dimension 3, got {solved.target[0]}")
            specs.append(solved)
    worst = _worst(check.constancy_defect for check in maps.verify_map_identities(specs))
    return worst, "half-integer lambda into an odd target dimension"


# --- criterion 7 -----------------------------------------------------------


# per family: exact state class, model class, dimensions, (n, l) cases, top of a state's points
_REDUCTION_FAMILIES = (
    (coulomb.CoulombState, qdt.DefectModel, (2, 3, 5), ((1, 0), (3, 1), (5, 0)),
     lambda state: 15.0 * (state.principal + state.gamma)),
    (oscillator.OscillatorState, qdt.AnharmonicModel, (2, 3, 6), ((0, 0), (3, 1), (6, 0)), lambda state: 5.0),
)


@_criterion(7, "reduction-limits", 1e-12)
def check_reduction_limits():
    rng = random.Random(_RNG_SEED)
    defects = []
    for exact, zero_model, dims, cases, top in _REDUCTION_FAMILIES:
        models = [zero_model(d, {0: 0.0, 1: 0.0}, {0: 0, 1: 0}) for d in dims]
        plains = [exact(model.dimension, n, l) for model in models for (n, l) in cases]
        starreds = [model.state(n, l) for model in models for (n, l) in cases]
        # one row of points per case, drawn in the order the cases come; scaled as a column,
        # each point has the bits of rng.uniform(0.05, top)
        units = np.array([rng.random() for _ in range(100 * len(plains))]).reshape(len(plains), 100)
        tops = np.array([[top(plain)] for plain in plains])
        grid = _grid.positive_grid(0.05 + (tops - 0.05) * units)
        (plain,), (starred,) = (family_derivatives(states, grid, (0,)) for states in (plains, starreds))
        defects.append(np.abs(starred - plain))
    return _worst(defects), "zero-defect states against the exact families"


# --- criterion 8 -----------------------------------------------------------


@_criterion(8, "penning-trap", reports.FREQUENCY_MATCH_TOL)
def check_penning_trap():
    rng = random.Random(_RNG_SEED + 1)
    matches = []
    for k in range(50):
        b = rng.uniform(0.2, 15.0)
        d_trap = rng.uniform(5e-4, 5e-2)
        kind = k % 3
        if kind == 0:
            charge, mass = geonium.ELECTRON.charge, geonium.ELECTRON.mass
        elif kind == 1:
            charge, mass = geonium.PROTON.charge, geonium.PROTON.mass
        else:
            sign = -1.0 if k % 2 else 1.0
            charge = sign * rng.uniform(1.0, 5.0) * abs(geonium.PROTON.charge)
            mass = rng.uniform(0.5, 100.0) * geonium.PROTON.mass
        record = reports.trap_operating_point_record(b, d_trap, charge, mass)
        v = record.rows[0]["V_volt"]
        matches.append(record.diagnostics[0].value)  # frequency_match
        for bad in (-v, 0.0):
            try:
                geonium.TrapConfig(b, bad, d_trap, charge, mass)
            except StabilityError:
                pass
            else:
                raise AssertionError(f"e*V = {charge * bad:g} accepted")
    for big_l in (0, 1, 2):
        for row in reports.trap_levels_record(big_l, 10).rows:
            if row.get("energy_quanta") != row["N"] + 1:
                raise AssertionError(f"harmonic level {row} is not N + 1 quanta")
    config = geonium.trap_config(5.0, -12.0, 0.01)  # the SI column against quanta and printed w_c
    quantum = geonium.HBAR * reports.trap_frequencies_record(config).rows[0]["angular_frequency_rad_s"]
    for row in reports.trap_levels_record(1, 9, 0.05, config).rows:
        if not abs(row["energy_joule"] / (row["energy_quanta"] * quantum) - 1.0) <= reports.FREQUENCY_MATCH_TOL:
            raise AssertionError(f"level {row} is not energy_quanta * hbar * w_c joules")
    return _worst(matches), "50 random operating-point configs plus stability and ladder checks"


# --- criterion 9 -----------------------------------------------------------


_ORACLE_SUM_POINTS = np.array([0.01, 1.0, 10.0, 50.0])
_ORACLE_DIFF_POINTS = np.array([0.5, 1.0, 5.0, 20.0])


def _card_rows(degrees, orders):
    """(degree, order) of every card as `laguerre_stack` rows: degrees descending, each with every order."""
    return [n for n in sorted(degrees, reverse=True) for _ in orders], [a for _ in degrees for a in orders]


@_criterion(9, "laguerre-oracle", 0.5)
def check_laguerre_oracle():
    degrees, orders = _card_rows(range(16), (-0.5, 0.0, 0.5, 1.0, 2.7))
    xs = _ORACLE_SUM_POINTS
    cards = [specfun.SonineLaguerre(n, a) for n, a in zip(degrees, orders)]
    reference = specfun.sonine_laguerre_direct_sums(cards, xs)
    (got,) = _grid.laguerre_stack(degrees, orders, xs, 0)
    scale = np.maximum(np.abs(reference), 1.0)
    worst = float(np.max(np.abs(got - reference) / scale))
    if not worst <= 1e-10:  # a non-finite row fails too
        return 1.0, f"recurrence vs direct sum defect {worst:.3e}"

    degrees, orders = _card_rows((0, 1, 2, 5, 9), (-0.5, 0.0, 1.0, 2.7))
    xs = _ORACLE_DIFF_POINTS
    step = 1e-6 * np.maximum(1.0, np.abs(xs))
    # Richardson stencil: x +- step and x +- step/2 at every point, one evaluation
    stencil = np.concatenate([xs + step, xs - step, xs + step / 2.0, xs - step / 2.0])
    exact = _grid.laguerre_stack(degrees, orders, xs, 1)[1]
    (values,) = _grid.laguerre_stack(degrees, orders, stencil, 0)
    plus, minus, half_plus, half_minus = np.split(values, 4, axis=-1)
    coarse = (plus - minus) / (2.0 * step)
    fine = (half_plus - half_minus) / step
    numeric = (4.0 * fine - coarse) / 3.0
    scale = np.maximum(np.abs(exact), 1.0)
    deriv_defect = float(np.max(np.abs(exact - numeric) / scale))
    if not deriv_defect <= 1e-7:
        return 1.0, f"derivative identity defect {deriv_defect:.3e}"
    return 0.0, (
        f"sum agreement {worst:.2e} (tol 1e-10), derivative {deriv_defect:.2e} (tol 1e-7)"
    )


def run_all() -> list[CheckResult]:
    return [check() for check in _CHECKS]


def render(results, fmt) -> str:
    """The `verify` verb's report: a JSON list of the results, or a table of one pass/fail line each."""
    if fmt == "json":
        import json  # only a JSON report executes json

        return json.dumps([asdict(result) for result in results], indent=2) + "\n"
    lines = [f"{'crit':>4}  {'check':<18} {'status':<6} {'worst':>10} {'tol':>8} {'secs':>7}"]
    for result in results:
        lines.append(
            f"{result.criterion:>4}  {result.name:<18} {'PASS' if result.passed else 'FAIL':<6} "
            f"{result.value:>10.2e} {result.tolerance:>8.0e} {result.seconds:>7.2f}"
        )
        if not result.passed:
            lines.append(f"      -> {result.detail}")
    lines.append(f"{sum(result.passed for result in results)}/{len(results)} checks passed")
    return "\n".join(lines) + "\n"
