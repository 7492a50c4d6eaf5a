"""Fuzz the library's public constructors and closed forms with hostile numbers.

The library-side twin of `test_cli_fuzz.py`: whatever the arguments, a public
call either returns or raises one of the `susyrad.errors` types; a bare
TypeError, ValueError, OverflowError or ZeroDivisionError is a defect.  Draws
mix ordinary values with Python and numpy integers at the int64 extremes and
past float range, the float extremes, a subnormal, signed zeros, nan, the
infinities, None and a complex number.  The library builds whatever size it is asked for, so a count
stays small, and a waveform is evaluated only when its polynomial degree is
small; the CLI bounds both (`reports.MAX_QUANTUM_NUMBER`, `MAX_TABLE_ROWS`).
numpy RuntimeWarnings are silenced here: whether an accepted value is finite
is a separate question from whether a refusal is typed.
"""

from __future__ import annotations

import math
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import susyrad
from susyrad import _grid, errors, geonium, maps, reports, susy

FUZZ = settings(derandomize=True, max_examples=300, deadline=None)

TYPED = (
    errors.AdmissibilityError, errors.ConfigError, errors.ConvergenceError, errors.DomainError,
    errors.StabilityError, errors.VerificationError,
)
# evaluation cost grows with the degree: the recurrence runs once per degree
MAX_EVAL_DEGREE = 40

HOSTILE = st.sampled_from([
    math.nan, math.inf, -math.inf, 1e308, -1e308, 5e-324, -0.0, 0.5, -1,
    2**53 + 1, 2**63 - 1, -(2**63), 10**400, np.int64(2**63 - 1), np.int32(-(2**31)), None, 1j,
])


def _mostly(ordinary):
    """An ordinary draw four times in five, so objects do get built, else a hostile number."""
    return st.integers(0, 4).flatmap(lambda k: HOSTILE if k == 0 else ordinary)


def _ints(lo, hi):
    return _mostly(st.integers(lo, hi) | st.integers(lo, hi).map(np.int64))


def _floats(lo, hi):
    return _mostly(st.floats(lo, hi))


dims = _ints(1, 7)
quantum = _ints(-1, 8)
shifts = _ints(-1, 3)
# quarters keep 2*(Delta - delta) + lambda integral often enough for maps to solve
breaking = _mostly(st.floats(0.0, 1.5) | st.integers(0, 5).map(lambda k: k / 4.0))
# a count sets the length of what is built, so it is never drawn large
counts = _ints(-1, 20)
real = _floats(-20.0, 20.0)
positive = _floats(1e-3, 30.0)
points = positive | st.lists(positive, min_size=1, max_size=4).map(np.array)
lambdas = _mostly(st.integers(-4, 8).map(lambda k: Fraction(k, 2)) | st.floats(-2.0, 4.0))


def _call(fn, *args, **kwargs):
    """fn(*args, **kwargs), or None when it raises a susyrad.errors type; anything else fails."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        try:
            return fn(*args, **kwargs)
        except TYPED:
            return None


def _finite_or_refused(out):
    assert out is None or np.all(np.isfinite(out)), out


def _evaluable(state):
    return state is not None and state.degree <= MAX_EVAL_DEGREE


def _finite_where_its_polynomial_is(state, x, value):
    """An accepted value is finite at every point where the state's Laguerre polynomial is.

    The prefactor norm * x**q * exp(-decay) never makes a value non-finite on its
    own.  A polynomial past float range (degree 4 at x = 1e300, say) is not yet
    refused: ROADMAP item 8.
    """
    if value is None:
        return
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        _, t = state._decay_and_argument(np.asarray(x, dtype=float).reshape(-1), *state._constants())
        (poly,) = _grid.laguerre_stack([state.degree], [state.order], t.reshape(-1), 0)
    assert np.all(np.isfinite(value) | ~np.isfinite(poly.reshape(np.shape(value)))), (state, x, value)


def _evaluate(state, x):
    _finite_where_its_polynomial_is(state, x, _call(state.value, x))
    for method in ("derivative", "second_derivative", "third_derivative"):
        _call(getattr(state, method), x)
    _call(susy.apply_operator, state.operator(), state, x, state.operator_eigenvalue())


@FUZZ
@given(dim=dims, l=quantum, count=counts)
def test_energies_and_partner_spectra(dim, l, count):
    _call(susyrad.gamma_shift, dim)
    _call(susyrad.coulomb_partner_spectra, dim, l, count)
    _call(susyrad.oscillator_partner_spectra, dim, l, count)


@FUZZ
@given(dim=dims, n=quantum, l=quantum, amount=breaking, shift=shifts, x=points)
# degree 0 far out: x**q overflows and exp(-decay) underflows, where the value is 0
@example(dim=3, n=2, l=1, amount=0.0, shift=0, x=1e300)
@example(dim=7, n=3, l=3, amount=0.0, shift=0, x=np.array([1.0, 1e150]))
def test_states(dim, n, l, amount, shift, x):
    for family, keyword in ((susyrad.CoulombState, "delta"),
                            (susyrad.OscillatorState, "anharmonicity")):
        state = _call(family, dim, n, l, **{keyword: amount, "shift": shift})
        if state is not None:
            _call(lambda: state.energy)
        if _evaluable(state):
            _evaluate(state, x)
    _call(susyrad.eval_hydrogen_R, n, l, x)


@FUZZ
@given(dim=dims, key=_ints(0, 3), amount=breaking, shift=shifts, n=quantum, l=_ints(0, 3),
       y=points)
def test_models_and_breaking_potentials(dim, key, amount, shift, n, l, y):
    # the (l, n) entry and the zero shift for l let the lookups succeed when key is not l
    defect = _call(susyrad.DefectModel, dim, {key: amount, (l, n): amount}, {l: 0, key: shift})
    anharmonic = _call(susyrad.AnharmonicModel, dim, {key: amount, l: 0.0}, {l: 0, key: shift})
    if defect is not None:
        _call(defect.delta, l, n)
        _call(defect.shift, l)
        _call(susyrad.breaking_potential_coulomb, defect, n, l, y)
        state = _call(defect.state, n, l)
        if state is not None:
            _call(lambda: state.energy)
        if _evaluable(state):
            _evaluate(state, y)
    if anharmonic is not None:
        _call(anharmonic.anharmonicity, l, n)
        _call(susyrad.breaking_potential_oscillator, anharmonic, n, l, y)
        state = _call(anharmonic.state, n, l)
        if _evaluable(state):
            _evaluate(state, y)


@FUZZ
@given(a=real, b=real, power=_ints(0, 3), l=quantum, gamma=_floats(-0.5, 2.0), x=points)
def test_superpotentials_and_partners(a, b, power, l, gamma, x):
    built = [
        _call(susyrad.Superpotential, a, b, power),
        _call(susyrad.coulomb_superpotential, l, gamma),
        _call(susyrad.oscillator_superpotential, l, gamma),
    ]
    for u in (u for u in built if u is not None):
        _call(susyrad.apply_supercharge, u, susyrad.OscillatorState(2, 1, 1), x)
        pair = _call(susyrad.SusyPair, u)
        if pair is None:
            continue
        _finite_or_refused(_call(pair.partners, x))
        _call(pair.minus_operator)
        _finite_or_refused(_call(lambda: pair.energy_zero_offset))
        _finite_or_refused(_call(susy.shift_identity_defects, [u], x))


@FUZZ
@given(degree=_ints(-1, 12), order=_floats(-1.5, 10.0), x=points | _floats(0.0, 30.0))
def test_sonine_laguerre(degree, order, x):
    poly = _call(susyrad.SonineLaguerre, degree, order)
    if poly is None or poly.degree > MAX_EVAL_DEGREE:
        return
    for evaluate in (susyrad.eval_sonine_laguerre, susyrad.eval_sonine_laguerre_derivative):
        _finite_or_refused(_call(evaluate, poly, x))
    _finite_or_refused(_call(susyrad.sonine_laguerre_direct_sums, [poly], x))


@FUZZ
@given(b=real, v=real, length=positive, species=st.sampled_from(["electron", "proton", "muon"]),
       charge=st.none() | real, mass=st.none() | positive, n=quantum, l=quantum,
       anharmonicity=breaking)
def test_trap(b, v, length, species, charge, mass, n, l, anharmonicity):
    config = _call(susyrad.trap_config, b, v, length, species, charge, mass)
    if config is not None:
        _call(susyrad.trap_frequencies, config)
    preset = geonium.PRESETS["electron"]
    _call(susyrad.susy_operating_point, b, length, preset.charge if charge is None else charge,
          preset.mass if mass is None else mass)
    level = _call(susyrad.OscillatorState, 2, n, l, anharmonicity=anharmonicity)
    if level is not None:
        _call(lambda: level.energy)
        if config is not None:
            _call(susyrad.geonium_energy_si, level, config)
    _call(susyrad.coulomb_to_geonium, n, l)


@FUZZ
@given(d=dims, n=quantum, l=quantum, lam=lambdas, mode=st.sampled_from(["exact", "broken", "odd"]),
       delta=breaking, i=shifts, big_delta=breaking, big_i=shifts, lo=lambdas,
       hi=lambdas, grid=st.none() | points)
def test_maps(d, n, l, lam, mode, delta, i, big_delta, big_i, lo, hi, grid):
    breaking = {"delta": delta, "i": i, "Delta": big_delta, "I": big_i}
    candidates = _call(maps.lambda_candidates, lo, hi, mode)
    for kwargs in ({}, breaking):
        spec = _call(susyrad.solve_map_parameters, (d, n, l), lam, mode, **kwargs)
        if isinstance(spec, maps.MapSpec) and all(
            _evaluable(state) for state in (spec.source_state, spec.target_state)
        ):
            _call(susyrad.verify_map_identity, spec, grid)
        if candidates is not None:  # the map verb's sweep of the window
            _call(reports.map_record, (d, n, l), candidates, mode, **kwargs)


# calls that once ended in a bare TypeError, ValueError, OverflowError or ZeroDivisionError,
# or were accepted: SonineLaguerre at an infinite order evaluated to nan, and a model
# looked 2.5 up as l = 2
FOUND = {
    "coulomb_partner_spectra(3, -1, 2)": (
        lambda: susyrad.coulomb_partner_spectra(3, -1, 2), "angular number must be >= 0"),
    "coulomb_partner_spectra(3, 0.5, 2)": (
        lambda: susyrad.coulomb_partner_spectra(3, 0.5, 2), "angular number must be an integer"),
    "coulomb_partner_spectra(3, 0, 2.5)": (
        lambda: susyrad.coulomb_partner_spectra(3, 0, 2.5), "count must be an integer"),
    "coulomb_partner_spectra(3, 1e308, inf)": (
        lambda: susyrad.coulomb_partner_spectra(3, 1e308, math.inf),
        "angular number must be an integer"),
    "oscillator_partner_spectra(3, 0, 2.5)": (
        lambda: susyrad.oscillator_partner_spectra(3, 0, 2.5), "count must be an integer"),
    "oscillator_partner_spectra(3, -1, 2)": (
        lambda: susyrad.oscillator_partner_spectra(3, -1, 2), "angular number must be >= 0"),
    "oscillator_partner_spectra(2, 0, 2.5)": (
        lambda: susyrad.oscillator_partner_spectra(2, 0, 2.5), "count must be an integer"),
    "lambda_candidates(0, inf)": (
        lambda: maps.lambda_candidates(0, math.inf), "lambda window"),
    "lambda_candidates(1, nan)": (
        lambda: maps.lambda_candidates(1, math.nan), "lambda window"),
    "lambda_candidates(-inf, 2)": (
        lambda: maps.lambda_candidates(-math.inf, 2), "lambda window"),
    # an unknown mode gave the half-integer grid
    "lambda_candidates(0, 1, 'exactt')": (
        lambda: maps.lambda_candidates(0, 1, "exactt"), r"^mode must be 'exact' or 'broken', got 'exactt'$"),
    "lambda_candidates(0, 1, None)": (
        lambda: maps.lambda_candidates(0, 1, None), r"^mode must be 'exact' or 'broken', got None$"),
    "SonineLaguerre(7, inf)": (
        lambda: susyrad.SonineLaguerre(7, math.inf), "order must be finite"),
    "sonine_laguerre_direct_sums(order 1e308)": (
        lambda: susyrad.sonine_laguerre_direct_sums([susyrad.SonineLaguerre(3, 1e308)], 1.0),
        "out of float range"),
    "eval_sonine_laguerre(order 1e308)": (
        lambda: susyrad.eval_sonine_laguerre(susyrad.SonineLaguerre(2, 1e308), 0.5),
        r"^L_2\^\(1e\+308\)\(0\.5\) is out of float range$"),
    "eval_sonine_laguerre_derivative(order 1e308)": (
        lambda: susyrad.eval_sonine_laguerre_derivative(susyrad.SonineLaguerre(3, 1e308), 0.5),
        r"^d/dx L_3\^\(1e\+308\)\(0\.5\) is out of float range$"),
    "Superpotential(1, nan, 1)": (
        lambda: susyrad.Superpotential(1.0, math.nan, 1), "log_coeff must be finite"),
    "Superpotential(inf, -2, 1)": (
        lambda: susyrad.Superpotential(math.inf, -2.0, 1), "power_coeff must be finite"),
    "oscillator_superpotential(0, inf)": (
        lambda: susyrad.oscillator_superpotential(0, math.inf), r"L \+ Gamma \+ 1 must be finite"),
    "coulomb_superpotential(1e308, 1e308)": (
        lambda: susyrad.coulomb_superpotential(1e308, 1e308), r"l \+ gamma \+ 1 must be finite"),
    "SusyPair(Superpotential(1e200, -2, 2))": (
        lambda: susyrad.SusyPair(susyrad.Superpotential(1e200, -2.0, 2)),
        "partner coefficients of .* leave float range"),
    "SusyPair(Superpotential(1e200, -2, 1))": (
        lambda: susyrad.SusyPair(susyrad.Superpotential(1e200, -2.0, 1)),
        "partner coefficients of .* leave float range"),
    "SusyPair.partners(5e-324)": (
        lambda: susyrad.SusyPair(susyrad.coulomb_superpotential(0)).partners(np.array([1.0, 5e-324])),
        r"^V\+\(5e-324\) is out of float range$"),
    "CoulombState(3, 10**400, 0)": (
        lambda: susyrad.CoulombState(3, 10**400, 0), "principal number must be an integer"),
    "OscillatorState(anharmonicity=10**400)": (
        lambda: susyrad.OscillatorState(3, 2, 0, anharmonicity=10**400),
        "anharmonicity must be a real number in float range"),
    "DefectModel(key nan)": (
        lambda: susyrad.DefectModel(3, {math.nan: 0.1}, {}), "defect key must be l or"),
    "DefectModel.delta(nan)": (
        lambda: susyrad.DefectModel(3, {0: 0.4, 2: 0.005}, {}).delta(math.nan), "no defect entry for l=nan"),
    "DefectModel.delta(2.5)": (
        lambda: susyrad.DefectModel(3, {0: 0.4, 2: 0.005}, {}).delta(2.5), "no defect entry for l=2.5"),
    # a non-number was compared or multiplied before it was checked
    "CoulombState(delta=None)": (
        lambda: susyrad.CoulombState(3, 2, 0, delta=None), "defect must be a real number"),
    "CoulombState(delta='x')": (
        lambda: susyrad.CoulombState(3, 2, 0, delta="x"), "defect must be a real number"),
    "CoulombState(delta=1j)": (
        lambda: susyrad.CoulombState(3, 2, 0, delta=1j), "defect must be a real number"),
    "DefectModel({0: None})": (
        lambda: susyrad.DefectModel(3, {0: None}, {}), "defect for 0 must be a real number"),
    "TrapConfig('x', ...)": (
        lambda: susyrad.TrapConfig("x", 1.0, 1e-3, 1.0, 1.0), "magnetic field must be a real number"),
    "TrapConfig(electrode_voltage='x')": (
        lambda: susyrad.TrapConfig(1.0, "x", 1e-3, 1.0, 1.0), "electrode voltage must be a real number"),
    "susy_operating_point(charge='x')": (
        lambda: susyrad.susy_operating_point(1.0, 1e-3, charge="x", mass=1.0), "charge must be a real number"),
    "susy_operating_point(charge='1')": (
        lambda: susyrad.susy_operating_point(1.0, 1e-3, charge="1", mass=-1.0), "mass must be positive"),
    "susy_operating_point(magnetic_field=None)": (
        lambda: susyrad.susy_operating_point(None, 1e-3, 1.0, 1.0), "magnetic field must be a real number"),
    # a non-integer L or N_max reached range() or a comparison with an int
    "trap_levels_record(inf, inf)": (
        lambda: reports.trap_levels_record(math.inf, math.inf), r"^L must be an integer, got inf$"),
    "trap_levels_record(1.5, 4)": (
        lambda: reports.trap_levels_record(1.5, 4), r"^L must be an integer, got 1\.5$"),
    "trap_levels_record('2', 5)": (
        lambda: reports.trap_levels_record("2", 5), r"^L must be an integer, got '2'$"),
    "trap_levels_record(0, 2.5)": (
        lambda: reports.trap_levels_record(0, 2.5), r"^N_max must be an integer, got 2\.5$"),
    # a point count that is not an integer reached numpy, and an empty list was indexed
    "wavefunction_record(points=2.5)": (
        lambda: reports.wavefunction_record("coulomb", 3, 2, 0, 0.5, 20.0, 2.5),
        r"^points must be an integer, got 2\.5$"),
    "wavefunction_record(points='20')": (
        lambda: reports.wavefunction_record("coulomb", 3, 2, 0, 0.5, 20.0, "20"),
        r"^points must be an integer, got '20'$"),
    "susy_pair_record(points=2.5)": (
        lambda: reports.susy_pair_record("coulomb", 3, 0, points=2.5), r"^points must be an integer, got 2\.5$"),
    "spectrum_record(n=[])": (
        lambda: reports.spectrum_record("coulomb", 3, [], [0]), r"^the \(n, l\) sweep needs at least one n and one l$"),
    "spectrum_record(l=[])": (
        lambda: reports.spectrum_record("oscillator", 3, [0], []),
        r"^the \(n, l\) sweep needs at least one n and one l$"),
    # the fuzz seldom reaches lambda: the source state must be admissible first
    "solve_map_parameters(lambda None)": (
        lambda: susyrad.solve_map_parameters((3, 2, 1), None), "lambda must be a real number"),
    "solve_map_parameters(lambda 1j)": (
        lambda: susyrad.solve_map_parameters((3, 2, 1), 1j), "lambda must be a real number"),
    "solve_map_parameters(lambda 'x')": (
        lambda: susyrad.solve_map_parameters((3, 2, 1), "x"), "lambda must be a real number"),
    "solve_map_parameters(lambda 10**400)": (
        lambda: susyrad.solve_map_parameters((3, 2, 1), 10**400), "lambda must be a real number"),
}


@pytest.mark.parametrize("case", sorted(FOUND))
def test_found_inputs_raise_typed_errors(case):
    call, message = FOUND[case]
    with pytest.raises(TYPED, match=message):
        call()


def test_numeric_strings_are_kept_as_floats():
    # a trap level kept the string, and its energy raised a bare TypeError
    level = susyrad.OscillatorState(2, 2, 0, anharmonicity="0.1")
    assert level.anharmonicity == 0.1 and level.energy == 2.8
    config = susyrad.TrapConfig("5", "10", "1e-3", 1.0, "1e-30")
    assert (config.magnetic_field, config.electrode_voltage, config.mass) == (5.0, 10.0, 1e-30)
    assert susyrad.solve_map_parameters((3, 2, 1), "1") == susyrad.solve_map_parameters((3, 2, 1), 1)
    broken = susyrad.solve_map_parameters((3, 2, 1), 0.5, "broken", delta="0.25")
    assert broken == susyrad.solve_map_parameters((3, 2, 1), 0.5, "broken", delta=0.25)


# (builder, its arguments with float parameters as floats, the float parameters by name); integers
# such as L, n and points stay integers
BUILDER_FLOATS = {
    "wavefunction": (
        reports.wavefunction_record,
        dict(family="coulomb", dimension=3, n=2, l=0, grid_min=0.5, grid_max=20.0, points=8),
        ("grid_min", "grid_max")),
    "susy-pair": (
        reports.susy_pair_record,
        dict(family="oscillator", dimension=2, angular=1, grid_min=0.1, grid_max=3.0, points=6),
        ("grid_min", "grid_max")),
    "map": (
        reports.map_record,
        dict(source=(3, 3, 1), lam_values=[Fraction(1, 2)], mode="broken", delta=0.25, Delta=0.5),
        ("delta", "Delta")),
    "operating-point": (
        reports.trap_operating_point_record,
        dict(magnetic_field=5.0, trap_length=0.01, charge=geonium.ELECTRON.charge, mass=geonium.ELECTRON.mass),
        ("magnetic_field", "trap_length", "charge", "mass")),
    "levels": (reports.trap_levels_record, dict(angular=0, n_max=2, anharmonicity=0.1), ("anharmonicity",)),
}


@pytest.mark.parametrize("name", sorted(BUILDER_FLOATS))
def test_record_builders_convert_numeric_strings_once(name):
    # trap_levels_record(0, 2, "0.1") printed "Delta": "0.1" before
    build, kwargs, floats = BUILDER_FLOATS[name]
    as_text = {**kwargs, **{key: repr(kwargs[key]) for key in floats}}
    for fmt in ("json", "csv"):
        assert build(**as_text).render(fmt) == build(**kwargs).render(fmt)
    for key in floats:
        with pytest.raises(errors.AdmissibilityError, match="must be a real number"):
            build(**{**kwargs, key: "x"})
