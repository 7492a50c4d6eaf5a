"""Runtime verification suite: the numbered acceptance checks behind `verify`.

Each check returns the worst defect it saw together with the tolerance it was
held to, so the CLI can print one pass/fail line per criterion.  The checks
deliberately re-derive expectations from closed forms or independent routes:
exact-rational direct polynomial sums, Gram-matrix quadrature and, for the
Laguerre derivative identity of criterion 9, a Richardson-extrapolated central
difference.  Criterion 9 holds the batched recurrence (each identity's cards in
one `laguerre_stack` call) to the integer direct sum of each card.  The states'
own derivatives are never differenced; their residuals use the analytic product
rule.  Criterion 4 measures the partner shift as `susy-pair` does, relative to
the partners (`susy.shift_identity_defect`), and criterion 8 reads the records
that the trap verbs print.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from fractions import Fraction

from . import coulomb, geonium, maps, oscillator, qdt, reports, specfun, susy
from ._laguerre_forms import family_cutoff, family_derivatives
from ._np import np
from .errors import AdmissibilityError, StabilityError

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


def _run(criterion, name, tolerance, body, runtime_limit=None):
    start = time.perf_counter()
    try:
        value, detail = body()
        elapsed = time.perf_counter() - start
        passed = value <= tolerance
        if runtime_limit is not None and elapsed >= runtime_limit:
            passed = False
            detail = f"{detail}; runtime {elapsed:.2f}s exceeded {runtime_limit:g}s"
    except Exception as exc:  # a crash is a failing criterion, not a crash of verify
        elapsed = time.perf_counter() - start
        return CheckResult(criterion, name, False, float("inf"), tolerance, elapsed, repr(exc))
    return CheckResult(criterion, name, passed, value, tolerance, elapsed, detail)


# --- criterion 1 -----------------------------------------------------------


def check_hydrogen_spectrum() -> CheckResult:
    def body():
        record = reports.spectrum_record("coulomb", 3, list(range(1, 21)), [0])
        worst = 0.0
        for row in record.rows:
            n = row["n"]
            expected = -1.0 / (2.0 * n * n)
            worst = max(worst, abs(row["energy"] / expected - 1.0))
        return worst, f"{len(record.rows)} levels"

    return _run(1, "hydrogen-spectrum", 1e-14, body, runtime_limit=1.0)


# --- criterion 2 -----------------------------------------------------------


_OSC_GRID = np.linspace(0.05, 6.0, 240)


def _state_grids(states):
    """Residual and annihilation grids of one family's states: _OSC_GRID shared, or a Coulomb row each."""
    if isinstance(states[0], oscillator.OscillatorState):
        return _OSC_GRID
    return np.linspace(0.05, [20.0 * (s.principal + s.gamma) for s in states], 240, axis=-1)


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


def check_radial_residuals() -> CheckResult:
    def body():
        worst, count, used = 0.0, 0, set()
        for family in _FORM_FAMILIES:
            # by exponent, so that a batch forms few power stacks; _BATCH_ROWS states at a time
            states = sorted(_form_states(family, used), key=lambda state: state.exponent)
            for start in range(0, len(states), _BATCH_ROWS):
                batch = states[start : start + _BATCH_ROWS]
                residuals = reports._relative_residuals(batch, _state_grids(batch))
                worst = max(worst, float(np.max(residuals)))
            count += len(states)
        if len(used) < 20:
            raise AssertionError(f"only {len(used)} synthetic models contributed")
        return worst, f"{count} states, {len(used)} synthetic models"

    return _run(2, "radial-residuals", 1e-8, body, runtime_limit=30.0)


# --- criterion 3 -----------------------------------------------------------


def _gram(states):
    """Gram matrix of one family, one batch per refinement, cut off where the forms say."""
    return specfun.gram_matrix(
        lambda nodes: family_derivatives(states, nodes, (0,))[0],
        family_cutoff(states),
    )


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


def _span(values, fmt):
    lo, hi = min(values), max(values)
    return format(lo, fmt) if lo == hi else f"{lo:{fmt}}-{hi:{fmt}}"


def check_orthonormality() -> CheckResult:
    def body():
        families = orthonormality_families()
        grams = [_gram(states) for _, states in families]
        worst = max(float(np.max(np.abs(g.matrix - np.eye(len(g.matrix))))) for g in grams)
        total = sum(len(states) for _, states in families)
        return worst, (
            f"{total} states across {len(families)} families; "
            f"cutoff {_span([g.cutoff for g in grams], 'g')}; "
            f"{_span([g.node_count for g in grams], 'd')} nodes/panel"
        )

    return _run(3, "orthonormality", 1e-8, body, runtime_limit=60.0)


# --- criterion 4 -----------------------------------------------------------


# per family: superpotential, state class, n - l of the ground state, dimensions, shift grid
_SUSY_FAMILIES = (
    (susy.coulomb_superpotential, coulomb.CoulombState, 1, (2, 3, 4, 5, 6), np.linspace(0.1, 20.0, 160)),
    (susy.oscillator_superpotential, oscillator.OscillatorState, 0, (2, 3, 4, 6), np.linspace(0.1, 6.0, 160)),
)


def check_susy_structure() -> CheckResult:
    def body():
        shift_defect = annihilation = 0.0
        for superpotential, exact, ground_gap, dims, grid in _SUSY_FAMILIES:
            us, grounds = zip(*[
                (superpotential(l, coulomb.gamma_shift(d)), exact(d, l + ground_gap, l))
                for d in dims for l in range(4)
            ])
            for u in us:
                shift_defect = max(shift_defect, susy.shift_identity_defect(susy.SusyPair(u), grid))
            # the family's annihilation residuals from one ground-state build
            residuals = susy.annihilation_residuals(us, grounds, _state_grids(grounds))
            annihilation = max(annihilation, float(np.max(residuals)))
        if shift_defect > 1e-12:
            return 1.0, f"partner-shift identity defect {shift_defect:.3e}"
        if annihilation > 1e-8:
            return 1.0, f"ground-state annihilation residual {annihilation:.3e}"

        intertwine = 0.0
        pair = susy.SusyPair(susy.coulomb_superpotential(0, 0.0))
        h_minus = pair.minus_operator()
        wgrid = np.linspace(0.2, 40.0, 200)
        for n in range(2, 5):
            psi = coulomb.CoulombState(3, n, 0)
            image = susy.SuperchargeImage(pair.superpotential, psi)
            eps = 0.5 * psi.energy + pair.energy_zero_offset
            res = susy.apply_operator(h_minus, image, wgrid, eps)
            intertwine = max(
                intertwine,
                float(np.max(np.abs(res)) / np.max(np.abs(image.value(wgrid)))),
            )
        if intertwine > 1e-7:
            return 1.0, f"intertwining residual {intertwine:.3e}"
        return 0.0, (
            f"shift {shift_defect:.2e} (tol 1e-12), annihilation {annihilation:.2e} "
            f"(tol 1e-8), intertwining {intertwine:.2e} (tol 1e-7)"
        )

    # three sub-tolerances; the composite check reports 0 or 1
    return _run(4, "susy-structure", 0.5, body)


# --- criterion 5 -----------------------------------------------------------


def check_exact_maps() -> CheckResult:
    def body():
        specs = []
        for d in range(2, 6):
            for n in range(1, 5):
                for l in range(n):
                    if d == 3:
                        # raises unless the lambda = 1 hydrogen map gives the (2, 2n-1, 2l+1) closed form
                        geonium.coulomb_to_geonium(n, l)
                    for lam in (0, 1):
                        solved = maps.solve_map_parameters((d, n, l), lam, mode="exact")
                        if isinstance(solved, maps.ConstraintReport):
                            continue
                        specs.append(solved)
                        broken = maps.solve_map_parameters(
                            (d, n, l), lam, mode="broken", delta=0.0, i=0, Delta=0.0, I=0
                        )
                        if broken != solved:
                            raise AssertionError(
                                f"broken map with zero breaking differs from exact at {(d, n, l, lam)}"
                            )
        worst = max([0.0] + [check.constancy_defect for check in maps.verify_map_identities(specs)])
        return worst, f"{len(specs)} admissible exact maps verified"

    return _run(5, "exact-maps", 1e-8, body)


# --- criterion 6 -----------------------------------------------------------


def check_odd_dimension_map() -> CheckResult:
    def body():
        specs = []
        for n in range(1, 4):
            for l in range(n):
                solved = maps.solve_map_parameters(
                    (3, n, l), Fraction(1, 2), mode="broken", delta=0.0, Delta=0.25
                )
                if isinstance(solved, maps.ConstraintReport):
                    raise AssertionError(f"quarter-shift map rejected: {solved.violations}")
                if solved.target[0] != 3:
                    raise AssertionError(f"expected target dimension 3, got {solved.target[0]}")
                specs.append(solved)
        worst = max([0.0] + [check.constancy_defect for check in maps.verify_map_identities(specs)])
        return worst, "half-integer lambda into an odd target dimension"

    return _run(6, "odd-dimension-map", 1e-8, body)


# --- criterion 7 -----------------------------------------------------------


# per family: exact state class, model class, dimensions, (n, l) cases, top of a state's points
_REDUCTION_FAMILIES = (
    (coulomb.CoulombState, qdt.DefectModel, (2, 3, 5), ((1, 0), (3, 1), (5, 0)),
     lambda state: 15.0 * (state.principal + state.gamma)),
    (oscillator.OscillatorState, qdt.AnharmonicModel, (2, 3, 6), ((0, 0), (3, 1), (6, 0)), lambda state: 5.0),
)


def check_reduction_limits() -> CheckResult:
    def body():
        rng = np.random.default_rng(_RNG_SEED)
        worst = 0.0
        for exact, zero_model, dims, cases, top in _REDUCTION_FAMILIES:
            models = [zero_model(d, {0: 0.0, 1: 0.0}, {0: 0, 1: 0}) for d in dims]
            plains = [exact(model.dimension, n, l) for model in models for (n, l) in cases]
            starreds = [model.state(n, l) for model in models for (n, l) in cases]
            # one row of points per case, drawn in the order the cases come
            grid = specfun.positive_grid([rng.uniform(0.05, top(plain), size=100) for plain in plains])
            (plain,), (starred,) = (family_derivatives(states, grid, (0,)) for states in (plains, starreds))
            worst = max(worst, float(np.max(np.abs(starred - plain))))
        return worst, "zero-defect states against the exact families"

    return _run(7, "reduction-limits", 1e-12, body)


# --- criterion 8 -----------------------------------------------------------


def check_penning_trap() -> CheckResult:
    def body():
        rng = np.random.default_rng(_RNG_SEED + 1)
        worst = 0.0
        for k in range(50):
            b = float(rng.uniform(0.2, 15.0))
            d_trap = float(rng.uniform(5e-4, 5e-2))
            kind = k % 3
            if kind == 0:
                charge, mass = geonium.ELECTRON.charge, geonium.ELECTRON.mass
            elif kind == 1:
                charge, mass = geonium.PROTON.charge, geonium.PROTON.mass
            else:
                sign = -1.0 if k % 2 else 1.0
                charge = sign * float(rng.uniform(1.0, 5.0)) * abs(geonium.PROTON.charge)
                mass = float(rng.uniform(0.5, 100.0)) * geonium.PROTON.mass
            record = reports.trap_operating_point_record(b, d_trap, charge, mass)
            v = record.rows[0]["V_volt"]
            worst = max(worst, record.diagnostics[0].value)  # frequency_match
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
        return worst, "50 random operating-point configs plus stability and ladder checks"

    return _run(8, "penning-trap", 1e-12, body)


# --- criterion 9 -----------------------------------------------------------


_ORACLE_SUM_POINTS = np.array([0.01, 1.0, 10.0, 50.0])
_ORACLE_DIFF_POINTS = np.array([0.5, 1.0, 5.0, 20.0])


def _card_rows(degrees, orders):
    """(degree, order) of every card as `laguerre_stack` rows: degrees descending, each with every order."""
    return [n for n in sorted(degrees, reverse=True) for _ in orders], [a for _ in degrees for a in orders]


def check_laguerre_oracle() -> CheckResult:
    def body():
        degrees, orders = _card_rows(range(16), (-0.5, 0.0, 0.5, 1.0, 2.7))
        xs = _ORACLE_SUM_POINTS
        cards = [specfun.SonineLaguerre(n, a) for n, a in zip(degrees, orders)]
        reference = np.array([specfun.sonine_laguerre_direct_sum(card, xs) for card in cards])
        (got,) = specfun.laguerre_stack(degrees, orders, xs, 0)
        scale = np.maximum(np.abs(reference), 1.0)
        worst = float(np.max(np.abs(got - reference) / scale))
        if not worst <= 1e-10:  # a non-finite row fails too
            return 1.0, f"recurrence vs direct sum defect {worst:.3e}"

        degrees, orders = _card_rows((0, 1, 2, 5, 9), (-0.5, 0.0, 1.0, 2.7))
        xs = _ORACLE_DIFF_POINTS
        step = 1e-6 * np.maximum(1.0, np.abs(xs))
        # Richardson stencil: x +- step and x +- step/2 at every point, one evaluation
        stencil = np.concatenate([xs + step, xs - step, xs + step / 2.0, xs - step / 2.0])
        exact = specfun.laguerre_stack(degrees, orders, xs, 1)[1]
        (values,) = specfun.laguerre_stack(degrees, orders, stencil, 0)
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

    return _run(9, "laguerre-oracle", 0.5, body)


_CHECKS = (
    check_hydrogen_spectrum,
    check_radial_residuals,
    check_orthonormality,
    check_susy_structure,
    check_exact_maps,
    check_odd_dimension_map,
    check_reduction_limits,
    check_penning_trap,
    check_laguerre_oracle,
)


def run_all() -> list[CheckResult]:
    return [check() for check in _CHECKS]
