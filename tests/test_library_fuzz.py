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
from hypothesis import given, settings
from hypothesis import strategies as st

import susyrad
from susyrad import errors, geonium, maps, susy

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


def _evaluate(state, x):
    for method in ("value", "derivative", "second_derivative", "third_derivative"):
        _call(getattr(state, method), x)
    _call(susy.apply_operator, state.operator(), state, x, state.operator_eigenvalue())


@FUZZ
@given(dim=dims, n=quantum, l=quantum, count=counts)
def test_energies_and_partner_spectra(dim, n, l, count):
    _call(susyrad.gamma_shift, dim)
    _call(susyrad.coulomb_energy, dim, n)
    _call(susyrad.oscillator_energy, dim, n)
    _call(susyrad.coulomb_partner_spectra, dim, l, count)
    _call(susyrad.oscillator_partner_spectra, dim, l, count)


@FUZZ
@given(dim=dims, n=quantum, l=quantum, amount=breaking, shift=shifts, x=points)
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
        for method in ("u", "u_prime", "u_double_prime", "u_third_derivative"):
            _finite_or_refused(_call(getattr(u, method), x))
        _call(susyrad.apply_supercharge, u, susyrad.OscillatorState(2, 1, 1), x)
        pair = _call(susyrad.SusyPair, u)
        if pair is None:
            continue
        for method in ("v_plus", "v_minus"):
            _finite_or_refused(_call(getattr(pair, method), x))
        for operator in (pair.plus_operator, pair.minus_operator):
            op = _call(operator)
            if op is not None:
                _finite_or_refused(_call(op.potential, x))
        _finite_or_refused(_call(lambda: pair.energy_zero_offset))
        _finite_or_refused(_call(susy.shift_identity_defect, pair, x))


@FUZZ
@given(degree=_ints(-1, 12), order=_floats(-1.5, 10.0), x=points | _floats(0.0, 30.0))
def test_sonine_laguerre(degree, order, x):
    poly = _call(susyrad.SonineLaguerre, degree, order)
    if poly is None or poly.degree > MAX_EVAL_DEGREE:
        return
    for evaluate in (susyrad.eval_sonine_laguerre, susyrad.eval_sonine_laguerre_derivative,
                     susyrad.sonine_laguerre_direct_sum):
        _finite_or_refused(_call(evaluate, poly, x))


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
    level = _call(susyrad.GeoniumLevel, n, l, anharmonicity)
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
    for kwargs in ({}, breaking):
        spec = _call(susyrad.solve_map_parameters, (d, n, l), lam, mode, **kwargs)
        if isinstance(spec, maps.MapSpec) and all(
            _evaluable(state) for state in (spec.source_state, spec.target_state)
        ):
            _call(susyrad.verify_map_identity, spec, grid)
        _call(susyrad.enumerate_admissible_targets, (d, n, l), (lo, hi), mode, **kwargs)
    _call(maps.lambda_candidates, lo, hi, mode)


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
    "enumerate_admissible_targets(-inf..2)": (
        lambda: susyrad.enumerate_admissible_targets((3, 2, 1), (-math.inf, 2)),
        "lambda window"),
    "SonineLaguerre(7, inf)": (
        lambda: susyrad.SonineLaguerre(7, math.inf), "order must be finite"),
    "sonine_laguerre_direct_sum(order 1e308)": (
        lambda: susyrad.sonine_laguerre_direct_sum(susyrad.SonineLaguerre(3, 1e308), 1.0),
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
    "Superpotential(1e308, 0, 2).u(30)": (
        lambda: susyrad.Superpotential(1e308, 0.0, 2).u(30.0), r"^U\(30\.0\) is out of float range$"),
    "SusyPair(Superpotential(1e200, -2, 2))": (
        lambda: susyrad.SusyPair(susyrad.Superpotential(1e200, -2.0, 2)),
        "partner coefficients of .* leave float range"),
    "SusyPair(Superpotential(1e200, -2, 1))": (
        lambda: susyrad.SusyPair(susyrad.Superpotential(1e200, -2.0, 1)),
        "partner coefficients of .* leave float range"),
    "RadialOperator.potential(5e-324)": (
        lambda: susyrad.SusyPair(susyrad.coulomb_superpotential(0)).plus_operator().potential(5e-324),
        r"^V\(5e-324\) is out of float range$"),
    "SusyPair.v_plus(5e-324)": (
        lambda: susyrad.SusyPair(susyrad.coulomb_superpotential(0)).v_plus(np.array([1.0, 5e-324])),
        r"^V\+\(5e-324\) is out of float range$"),
    "CoulombState(3, 10**400, 0)": (
        lambda: susyrad.CoulombState(3, 10**400, 0), "principal number must be an integer"),
    "OscillatorState(anharmonicity=10**400)": (
        lambda: susyrad.OscillatorState(3, 2, 0, anharmonicity=10**400),
        "anharmonicity must be a real number in float range"),
    "DefectModel(key nan)": (
        lambda: susyrad.DefectModel(3, {math.nan: 0.1}, {}), "defect key must be l or"),
    "DefectModel.delta(nan)": (
        lambda: susyrad.illustrative_defect_model().delta(math.nan), "no defect entry for l=nan"),
    "DefectModel.delta(2.5)": (
        lambda: susyrad.illustrative_defect_model().delta(2.5), "no defect entry for l=2.5"),
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
    # GeoniumLevel kept the string, and its energy raised a bare TypeError
    level = susyrad.GeoniumLevel(2, 0, "0.1")
    assert level.anharmonicity == 0.1 and level.energy == 2.8
    config = susyrad.TrapConfig("5", "10", "1e-3", 1.0, "1e-30")
    assert (config.magnetic_field, config.electrode_voltage, config.mass) == (5.0, 10.0, 1e-30)
    assert susyrad.solve_map_parameters((3, 2, 1), "1") == susyrad.solve_map_parameters((3, 2, 1), 1)
    broken = susyrad.solve_map_parameters((3, 2, 1), 0.5, "broken", delta="0.25")
    assert broken == susyrad.solve_map_parameters((3, 2, 1), 0.5, "broken", delta=0.25)
