"""Each verify criterion is one registration, and a NaN defect fails it wherever it sits.

Python's `max` keeps the value it already holds when it meets a NaN, so a
worst-of that starts from a finite value passes a NaN met later.  Each
injection below therefore puts its NaN in a measurement other than the first:
a later row, batch, family or record.  The composite criterion 4 reports 0 or
1, so there the NaN shows in the detail of the sub-check it broke.  Criterion 3
also fails when one state is moved off its closed form, by its norm or its power.
A worst-of over no measurement at all is inf, so a criterion that measures
nothing fails as well.
"""

import dataclasses
import math
import random
import re

import numpy as np
import pytest

from susyrad import coulomb, geonium, maps, oscillator, reports, susy, verify
from susyrad.output import Diagnostic, OutputRecord

NAN = float("nan")


def _with_nan(array):
    """A copy of array whose last entry is NaN."""
    out = np.array(array, dtype=float)
    out.flat[-1] = NAN
    return out


def _spectrum_row(record):
    rows = [dict(row) for row in record.rows]
    rows[5]["energy"] = NAN
    return OutputRecord(record.command, record.inputs, record.columns, rows, record.diagnostics)


def _map_row(checks):
    return [dataclasses.replace(c, constancy_defect=NAN) if i == 1 else c for i, c in enumerate(checks)]


def _frequency_match(record):
    (match, *rest) = record.diagnostics
    return OutputRecord(record.command, record.inputs, record.columns, record.rows,
                        [Diagnostic(match.name, NAN, match.tolerance), *rest])


# check, patched module and name, the call (from 1) whose result is poisoned, the poison
INJECTIONS = {
    "1-spectrum-row": (verify.check_hydrogen_spectrum, reports, "spectrum_record", 1, _spectrum_row),
    "2-second-batch": (verify.check_radial_residuals, reports, "_relative_residuals", 2, _with_nan),
    "3-second-family": (verify.check_orthonormality, verify, "_gram", 2,
                        lambda gram: (_with_nan(gram[0]), gram[1])),
    "4-annihilation": (verify.check_susy_structure, susy, "annihilation_residuals", 2, _with_nan),
    "4-intertwining": (verify.check_susy_structure, susy, "apply_operator", 2, _with_nan),
    "5-map-row": (verify.check_exact_maps, maps, "verify_map_identities", 1, _map_row),
    "6-map-row": (verify.check_odd_dimension_map, maps, "verify_map_identities", 1, _map_row),
    "7-later-build": (verify.check_reduction_limits, verify, "family_derivatives", 3,
                      lambda built: [_with_nan(built[0]), *built[1:]]),
    "8-second-record": (verify.check_penning_trap, reports, "trap_operating_point_record", 2, _frequency_match),
}

# the composite criterion's detail for each of its injections
COMPOSITE_DETAIL = {
    "4-annihilation": "ground-state annihilation residual nan",
    "4-intertwining": "intertwining residual nan",
}


@pytest.mark.parametrize("case", list(INJECTIONS))
def test_a_later_nan_fails_its_criterion(monkeypatch, case):
    check, module, name, poisoned_call, poison = INJECTIONS[case]
    original, calls = getattr(module, name), []

    def poisoning(*args, **kwargs):
        out = original(*args, **kwargs)
        calls.append(name)
        return poison(out) if len(calls) == poisoned_call else out

    monkeypatch.setattr(module, name, poisoning)
    result = check()
    assert len(calls) >= poisoned_call, f"{name} was called only {len(calls)} times"
    assert not result.passed, result
    if case in COMPOSITE_DETAIL:
        assert (result.value, result.detail) == (1.0, COMPOSITE_DETAIL[case])
    else:
        assert math.isnan(result.value), result


def test_a_scaled_si_level_energy_fails_criterion_8(monkeypatch):
    """`trap levels` prints energy_joule; 1e-6 relative off hbar * w_c is caught."""
    original = geonium.geonium_energy_si
    monkeypatch.setattr(geonium, "geonium_energy_si",
                        lambda state, config: original(state, config) * (1.0 + 1e-6))
    result = verify.check_penning_trap()
    assert (result.passed, result.value) == (False, math.inf), result
    assert "energy_quanta * hbar * w_c" in result.detail


def _shift_log_norm(state):
    state.log_norm += 1e-6


def _shift_exponent(state):
    state.log_norm  # the norm of the exact form, built before its power moves
    state.exponent += 1e-3


@pytest.mark.parametrize("mutate", [_shift_log_norm, _shift_exponent], ids=["log-norm", "exponent"])
@pytest.mark.parametrize("family", [0, 4, 7, 9], ids=["coulomb", "oscillator", "defect", "anharmonic"])
def test_a_mutated_state_fails_criterion_3(monkeypatch, mutate, family):
    """One state of one family off its closed form is caught by the exact Gram sum, not crashed on."""
    families = verify.orthonormality_families()
    mutate(families[family][1][2])
    monkeypatch.setattr(verify, "orthonormality_families", lambda: families)
    result = verify.check_orthonormality()
    assert not result.passed and 1e-6 < result.value < 1e-1, result


@pytest.mark.parametrize("states", [
    pytest.param([oscillator.OscillatorState(3, n, 0) for n in range(0, 201, 2)], id="oscillator D=3 L=0 N<=200"),
    pytest.param([coulomb.CoulombState(3, n, 0) for n in range(1, 61)], id="coulomb d=3 l=0 n<=60"),
])
def test_gram_of_a_large_degree_family_is_the_identity(states):
    gram, nodes = verify._gram(states)
    assert nodes == max(state.degree for state in states) + 1
    assert np.abs(gram - np.eye(len(states))).max() <= 1e-12


def test_draws_are_private_to_the_suite():
    """Criteria 7 and 8 draw from their own seeded streams: no global seed moves a result."""
    runs = []
    for seed in (1, 2):
        random.seed(seed)
        random.random()
        np.random.seed(seed)
        state = random.getstate()
        runs.append([(r.passed, r.value.hex(), r.detail) for r in verify.run_all()])
        # the module-level stream is neither drawn from nor reseeded
        assert random.getstate() == state
    assert runs[0] == runs[1]
    assert [passed for passed, _, _ in runs[0]] == [True] * 9


def test_worst_keeps_a_nan_anywhere():
    # no measurement at all is no evidence: it fails its criterion
    assert verify._worst([]) == math.inf
    assert verify._worst([np.array([1.0, 5.0]), 2.0]) == 5.0
    assert math.isnan(verify._worst([1.0, np.array([2.0, NAN]), 3.0]))
    assert math.isnan(verify._worst(iter([4.0, NAN])))


def test_a_criterion_that_measures_nothing_fails(monkeypatch):
    """Criterion 5 with every candidate refused measures no map, and fails instead of passing at 0."""
    monkeypatch.setattr(maps, "solve_map_sweep",
                        lambda source, lams, *args, **kwargs: [maps.ConstraintReport(("refused",)) for _ in lams])
    monkeypatch.setattr(geonium, "coulomb_to_geonium", lambda n, l: None)
    result = verify.check_exact_maps()
    assert (result.passed, result.value, result.detail) == (False, math.inf, "0 admissible exact maps verified")


def test_exact_maps_hold_each_map_to_its_broken_twin(monkeypatch):
    """Criterion 5 fails when a zero-breaking broken sweep gives a map other than the exact sweep's."""
    sweep = maps.solve_map_sweep

    def skewed(source, lams, mode="exact", *breaking, **named):
        solved = sweep(source, lams, mode, *breaking, **named)
        if mode == "exact" or source != (3, 2, 1):
            return solved
        return [dataclasses.replace(spec, anharmonicity=5e-324) if isinstance(spec, maps.MapSpec) else spec
                for spec in solved]

    monkeypatch.setattr(maps, "solve_map_sweep", skewed)
    result = verify.check_exact_maps()
    assert (result.passed, result.value) == (False, math.inf)
    assert result.detail == repr(AssertionError("broken map with zero breaking differs from exact at (3, 2, 1, 0)"))


def test_registration_runtime_limit_and_crash(monkeypatch):
    monkeypatch.setattr(verify, "_CHECKS", [])
    slow = verify._criterion(98, "throwaway", 1.0, runtime_limit=0.0)(lambda: (0.25, "measured"))
    error = ValueError("broken body")

    @verify._criterion(99, "crashing", 1.0)
    def crashing():
        raise error

    assert verify._CHECKS == [slow, crashing]
    over, crashed = verify.run_all()
    assert (over.criterion, over.name, over.passed, over.value, over.tolerance) == (98, "throwaway", False, 0.25, 1.0)
    assert re.fullmatch(r"measured; runtime \d+\.\d\ds exceeded 0s", over.detail), over.detail
    assert (crashed.criterion, crashed.passed, crashed.value, crashed.detail) == (99, False, math.inf, repr(error))

