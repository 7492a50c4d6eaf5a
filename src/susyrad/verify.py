"""Runtime verification suite: the numbered acceptance checks behind `verify`.

Each check returns the worst defect it saw together with the tolerance it was
held to, so the CLI can print one pass/fail line per criterion.  The checks
deliberately re-derive expectations from closed forms or independent routes
(direct polynomial sums, quadrature, finite differences are NOT used here;
differentiation checks live in the test suite).
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import coulomb, geonium, maps, oscillator, qdt, reports, specfun, susy
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


def _coulomb_grid(n, gamma):
    return np.linspace(0.05, 20.0 * (n + gamma), 240)


_OSC_GRID = np.linspace(0.05, 6.0, 240)


def synthetic_defect_models():
    models = []
    for d in (2, 3, 4, 5):
        for delta in (0.15, 0.4, 0.75):
            for i in (0, 1):
                models.append(
                    qdt.DefectModel(d, {0: delta, 1: delta / 2.0}, {0: i, 1: i})
                )
    return models


def synthetic_anharmonic_models():
    models = []
    for d in (2, 3, 4, 6):
        for Delta in (0.1, 0.3):
            for I in (0, 1):
                models.append(
                    qdt.AnharmonicModel(d, {0: Delta, 1: Delta / 2.0}, {0: I, 1: I})
                )
    return models


def check_radial_residuals() -> CheckResult:
    def body():
        worst = 0.0
        count = 0
        for d in range(2, 7):
            g = coulomb.gamma_shift(d)
            for n in range(1, 7):
                for l in range(n):
                    state = coulomb.CoulombState(d, n, l)
                    worst = max(worst, reports._relative_residual(state, _coulomb_grid(n, g)))
                    count += 1
        for d in range(2, 7):
            for n in range(0, 9):
                for l in range(n % 2, n + 1, 2):
                    state = oscillator.OscillatorState(d, n, l)
                    worst = max(worst, reports._relative_residual(state, _OSC_GRID))
                    count += 1
        model_count = 0
        for model in synthetic_defect_models():
            used = False
            for l in (0, 1):
                i = model.shift(l)
                for n in range(l + i + 1, l + i + 4):
                    try:
                        state = model.state(n, l)
                    except AdmissibilityError:
                        continue
                    grid = _coulomb_grid(n, model.gamma)
                    worst = max(worst, reports._relative_residual(state, grid))
                    count += 1
                    used = True
            model_count += used
        for model in synthetic_anharmonic_models():
            used = False
            for l in (0, 1):
                start = l + 2 * model.shift(l)
                for n in range(start, start + 5, 2):
                    try:
                        state = model.state(n, l)
                    except AdmissibilityError:
                        continue
                    worst = max(worst, reports._relative_residual(state, _OSC_GRID))
                    count += 1
                    used = True
            model_count += used
        if model_count < 20:
            raise AssertionError(f"only {model_count} synthetic models contributed")
        return worst, f"{count} states, {model_count} synthetic models"

    return _run(2, "radial-residuals", 1e-8, body, runtime_limit=30.0)


# --- criterion 3 -----------------------------------------------------------


def _gram(states):
    """Gram matrix of one family on shared nodes, cut off where the forms say."""
    return specfun.gram_matrix(states, max(state._form.tail_cutoff for state in states))


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


def check_susy_structure() -> CheckResult:
    def body():
        shift_defect = 0.0
        grid = np.linspace(0.1, 20.0, 160)
        for d in (2, 3, 4, 5, 6):
            g = coulomb.gamma_shift(d)
            for l in range(4):
                pair = susy.SusyPair(susy.coulomb_superpotential(l, g))
                expected = 2.0 * (l + g + 1.0) / grid**2
                shift_defect = max(
                    shift_defect,
                    float(np.max(np.abs(pair.v_minus(grid) - pair.v_plus(grid) - expected))),
                )
        ygrid = np.linspace(0.1, 6.0, 160)
        for d in (2, 3, 4, 6):
            g = coulomb.gamma_shift(d)
            for l in range(4):
                pair = susy.SusyPair(susy.oscillator_superpotential(l, g))
                diff = pair.v_minus(ygrid) - pair.v_plus(ygrid)
                # full difference is U'' = 2 + 2(L+Gamma+1)/Y^2; the printed
                # partner identity gives the 1/Y^2 coefficient only
                expected = 2.0 + 2.0 * (l + g + 1.0) / ygrid**2
                shift_defect = max(shift_defect, float(np.max(np.abs(diff - expected))))
                coeff = (diff - pair.shift_constant) * ygrid**2
                shift_defect = max(
                    shift_defect, float(np.max(np.abs(coeff - 2.0 * (l + g + 1.0))))
                )
        if shift_defect > 1e-12:
            return 1.0, f"partner-shift identity defect {shift_defect:.3e}"

        annihilation = 0.0
        for d in (2, 3, 4, 5, 6):
            g = coulomb.gamma_shift(d)
            for l in range(4):
                u = susy.coulomb_superpotential(l, g)
                ground = coulomb.CoulombState(d, l + 1, l)
                gridl = _coulomb_grid(l + 1, g)
                annihilation = max(
                    annihilation,
                    float(
                        np.max(np.abs(susy.apply_supercharge(u, ground, gridl)))
                        / np.max(np.abs(ground.value(gridl)))
                    ),
                )
        for d in (2, 3, 4, 6):
            g = coulomb.gamma_shift(d)
            for l in range(4):
                u = susy.oscillator_superpotential(l, g)
                ground = oscillator.OscillatorState(d, l, l)
                annihilation = max(
                    annihilation,
                    float(
                        np.max(np.abs(susy.apply_supercharge(u, ground, _OSC_GRID)))
                        / np.max(np.abs(ground.value(_OSC_GRID)))
                    ),
                )
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
        worst = 0.0
        verified = 0
        for d in range(2, 6):
            for n in range(1, 5):
                for l in range(n):
                    for lam in (0, 1):
                        solved = maps.solve_map_parameters((d, n, l), lam, mode="exact")
                        if isinstance(solved, maps.ConstraintReport):
                            continue
                        check = maps.verify_map_identity(solved)
                        worst = max(worst, check.constancy_defect)
                        verified += 1
                        broken = maps.solve_map_parameters(
                            (d, n, l), lam, mode="broken", delta=0.0, i=0, Delta=0.0, I=0
                        )
                        if broken != solved:
                            raise AssertionError(
                                f"broken map with zero breaking differs from exact at {(d, n, l, lam)}"
                            )
        for n in range(1, 5):
            for l in range(n):
                solved = maps.solve_map_parameters((3, n, l), 1, mode="exact")
                if solved.target != (2, 2 * n - 1, 2 * l + 1):
                    raise AssertionError(
                        f"lambda=1 hydrogen map gave {solved.target}, expected {(2, 2*n-1, 2*l+1)}"
                    )
        return worst, f"{verified} admissible exact maps verified"

    return _run(5, "exact-maps", 1e-8, body)


# --- criterion 6 -----------------------------------------------------------


def check_odd_dimension_map() -> CheckResult:
    def body():
        worst = 0.0
        for n in range(1, 4):
            for l in range(n):
                solved = maps.solve_map_parameters(
                    (3, n, l), Fraction(1, 2), mode="broken", delta=0.0, Delta=0.25
                )
                if isinstance(solved, maps.ConstraintReport):
                    raise AssertionError(f"quarter-shift map rejected: {solved.violations}")
                if solved.target[0] != 3:
                    raise AssertionError(f"expected target dimension 3, got {solved.target[0]}")
                check = maps.verify_map_identity(solved)
                worst = max(worst, check.constancy_defect)
        return worst, "half-integer lambda into an odd target dimension"

    return _run(6, "odd-dimension-map", 1e-8, body)


# --- criterion 7 -----------------------------------------------------------


def check_reduction_limits() -> CheckResult:
    def body():
        rng = np.random.default_rng(_RNG_SEED)
        worst = 0.0
        for d in (2, 3, 5):
            model = qdt.DefectModel(d, {0: 0.0, 1: 0.0}, {0: 0, 1: 0})
            for (n, l) in ((1, 0), (3, 1), (5, 0)):
                plain = coulomb.CoulombState(d, n, l)
                starred = model.state(n, l)
                pts = rng.uniform(0.05, 15.0 * (n + plain.gamma), size=100)
                worst = max(worst, float(np.max(np.abs(starred.value(pts) - plain.value(pts)))))
        for d in (2, 3, 6):
            model = qdt.AnharmonicModel(d, {0: 0.0, 1: 0.0}, {0: 0, 1: 0})
            for (n, l) in ((0, 0), (3, 1), (6, 0)):
                plain = oscillator.OscillatorState(d, n, l)
                starred = model.state(n, l)
                pts = rng.uniform(0.05, 5.0, size=100)
                worst = max(worst, float(np.max(np.abs(starred.value(pts) - plain.value(pts)))))
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
            v = geonium.susy_operating_point(b, d_trap, charge, mass)
            if not charge * v > 0.0:
                raise AssertionError("operating point violates e*V > 0")
            config = geonium.TrapConfig(b, v, d_trap, charge, mass)
            freqs = geonium.trap_frequencies(config)
            worst = max(worst, abs(freqs.cyclotron / freqs.axial - 1.0))
            for bad in (-v, 0.0):
                try:
                    geonium.TrapConfig(b, bad, d_trap, charge, mass)
                except StabilityError:
                    pass
                else:
                    raise AssertionError(f"e*V = {charge * bad:g} accepted")
        for big_l in (0, 1, 2):
            for big_n in range(big_l, 11, 2):
                level = geonium.GeoniumLevel(big_n, big_l, 0.0)
                if level.energy != big_n + 1:
                    raise AssertionError(
                        f"harmonic level N={big_n} gave {level.energy}, expected {big_n + 1}"
                    )
        return worst, "50 random operating-point configs plus stability and ladder checks"

    return _run(8, "penning-trap", 1e-12, body)


# --- criterion 9 -----------------------------------------------------------


def check_laguerre_oracle() -> CheckResult:
    def body():
        worst = 0.0
        for n in range(16):
            for order in (-0.5, 0.0, 0.5, 1.0, 2.7):
                poly = specfun.SonineLaguerre(n, order)
                for x in (0.01, 1.0, 10.0, 50.0):
                    reference = specfun.sonine_laguerre_direct_sum(poly, x)
                    got = specfun.eval_sonine_laguerre(poly, x)
                    scale = max(abs(reference), 1.0)
                    worst = max(worst, abs(got - reference) / scale)
        if worst > 1e-10:
            return 1.0, f"recurrence vs direct sum defect {worst:.3e}"

        deriv_defect = 0.0
        h = 1e-6
        for n in (0, 1, 2, 5, 9):
            for order in (-0.5, 0.0, 1.0, 2.7):
                poly = specfun.SonineLaguerre(n, order)
                for x in (0.5, 1.0, 5.0, 20.0):
                    exact = specfun.eval_sonine_laguerre_derivative(poly, x)
                    step = h * max(1.0, abs(x))
                    coarse = (
                        specfun.eval_sonine_laguerre(poly, x + step)
                        - specfun.eval_sonine_laguerre(poly, x - step)
                    ) / (2.0 * step)
                    fine = (
                        specfun.eval_sonine_laguerre(poly, x + step / 2.0)
                        - specfun.eval_sonine_laguerre(poly, x - step / 2.0)
                    ) / step
                    numeric = (4.0 * fine - coarse) / 3.0
                    scale = max(abs(exact), 1.0)
                    deriv_defect = max(deriv_defect, abs(exact - numeric) / scale)
        if deriv_defect > 1e-7:
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
