"""Property tests: the state classes are the single admissibility rule.

The map solver, the trap levels and the hydrogen R_nl(r) ask `CoulombState`
and `OscillatorState` instead of restating their rules.  `_listed_rules` is
the rule list `solve_map_parameters` carried before it delegated, kept here
verbatim so the admissible set is pinned independently of the states.
"""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from susyrad.coulomb import CoulombState, eval_hydrogen_R, gamma_shift
from susyrad.errors import AdmissibilityError, ParityError
from susyrad.maps import ConstraintReport, MapSpec, solve_map_parameters
from susyrad.oscillator import OscillatorState
from susyrad.qdt import DefectModel
from susyrad.reports import trap_levels_record

_INTEGRALITY_TOL = 1e-9

PROPERTY = settings(derandomize=True, max_examples=600, deadline=None)


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


def _listed_rules(source, lam, mode="exact", delta=0.0, i=0, Delta=0.0, I=0):
    """(violations, target): the solver's explicit rule list before delegation."""
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
        return violations, None
    if mode == "exact" and lam_frac.denominator != 1:
        violations.append(f"lambda = {lam_frac} is not an integer in exact mode")
        return violations, None

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
        return violations, None

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
    return violations, (big_d, big_n, big_l)


def _outcome(fn, *args, **kwargs):
    """('raise', type, message) or ('ok', value)."""
    try:
        return ("ok", fn(*args, **kwargs))
    except AdmissibilityError as exc:
        return ("raise", type(exc), str(exc))


_LAMBDAS = st.one_of(
    st.integers(-8, 10).map(lambda k: Fraction(k, 2)),
    st.sampled_from([0.3, 1.25, -0.7, 2.5000000001]),
)
_QUARTERS = st.integers(0, 12).map(lambda k: k / 4.0)
_RARELY = st.integers(0, 7).map(lambda k: k == 0)


@st.composite
def map_inputs(draw):
    """Mostly valid sources and parameter ranges, so reports and specs both occur."""
    if draw(_RARELY):
        source = (draw(st.integers(1, 7)), draw(st.integers(0, 7)), draw(st.integers(-1, 7)))
    else:
        n = draw(st.integers(1, 6))
        source = (draw(st.integers(2, 7)), n, draw(st.integers(0, n - 1)))
    lam = draw(_LAMBDAS)
    mode = draw(st.sampled_from(["exact", "broken", "broken"]))
    breaking = {}
    if mode == "broken" or draw(_RARELY):
        wide = draw(_RARELY)
        breaking = dict(
            delta=draw(st.floats(-0.5, 1.5) if wide else _QUARTERS.filter(lambda v: v < 1.0)),
            i=draw(st.integers(-1 if wide else 0, 3)),
            Delta=draw(st.floats(-0.5, 3.0) if wide else _QUARTERS),
            I=draw(st.integers(-1 if wide else 0, 3)),
        )
    return source, lam, mode, breaking


@PROPERTY
@given(map_inputs())
def test_map_solver_admits_what_the_listed_rules_admit(inputs):
    source, lam, mode, breaking = inputs
    listed = _outcome(_listed_rules, source, lam, mode, **breaking)
    solved = _outcome(solve_map_parameters, source, lam, mode, **breaking)
    assert solved[0] == listed[0]
    if solved[0] == "raise":
        return
    result = solved[1]
    violations, target = listed[1]
    if violations:
        assert isinstance(result, ConstraintReport)
    else:
        assert isinstance(result, MapSpec)
        assert result.target == target
    if isinstance(result, ConstraintReport):
        assert result.violations
        assert all(isinstance(v, str) and v for v in result.violations)


@PROPERTY
@given(
    st.integers(-2, 9),
    st.integers(-2, 9),
    st.one_of(_QUARTERS, st.floats(-0.5, 5.0), st.just(float("nan"))),
)
@example(-1, 3, 0.0)  # trap levels --L -1: each row carries the state's refusal
def test_trap_level_rows_are_refused_exactly_as_their_states(big_l, n_max, anharmonicity):
    if n_max < big_l:
        with pytest.raises(AdmissibilityError, match="empty ladder"):
            trap_levels_record(big_l, n_max, anharmonicity)
        return
    for row in trap_levels_record(big_l, n_max, anharmonicity).rows:
        state = _outcome(OscillatorState, 2, row["N"], big_l, anharmonicity=anharmonicity)
        if state[0] == "raise":
            assert (row["error"], "energy_quanta" in row) == (state[2], False)
        else:
            assert "error" not in row
            assert (row["N_star"], row["energy_quanta"]) == (state[1].n_star, state[1].energy)


@PROPERTY
@given(
    st.one_of(st.integers(-2, 9), st.sampled_from([1.0, 2.0, True])),
    st.one_of(st.integers(-2, 9), st.sampled_from([0.0, 1.0])),
)
def test_hydrogen_R_raises_exactly_as_its_state(n, l):
    radial = _outcome(eval_hydrogen_R, n, l, np.array([0.5, 2.0]))
    state = _outcome(CoulombState, 3, n, l)
    assert radial[0] == state[0]
    if radial[0] == "raise":
        assert radial[1:] == state[1:]


@PROPERTY
@given(
    st.one_of(st.integers(-2, 9), st.sampled_from([1.0, 2.0])),
    st.one_of(st.integers(-2, 9), st.sampled_from([0.0, 1.0])),
    st.sampled_from([0.0, 0.1, 0.75]),
    st.integers(0, 2),
)
def test_defect_state_raises_exactly_as_its_coulomb_state(n, l, delta, shift):
    model = DefectModel(3, {k: delta for k in range(10)}, {k: shift for k in range(10)})
    defect = _outcome(model.state, n, l)
    state = _outcome(CoulombState, 3, n, l, delta=delta, shift=shift)
    assert defect[0] == state[0]
    if defect[0] == "raise":
        assert defect[1:] == state[1:]
    else:
        assert defect[1].energy == state[1].energy


def test_defect_model_refuses_l_above_n_as_the_state_does():
    message = "angular number must satisfy 0 <= l <= n-1, got l=2 n=1"
    for build in (lambda: DefectModel(3, {2: 0.1}, {2: 0}).state(1, 2),
                  lambda: CoulombState(3, 1, 2, delta=0.1)):
        with pytest.raises(AdmissibilityError) as caught:
            build()
        assert str(caught.value) == message


@pytest.mark.parametrize(("big_n", "big_l"), [(2, 1), (5, 0)])
def test_odd_trap_level_is_a_parity_error(big_n, big_l):
    with pytest.raises(ParityError, match="N - L must be even"):
        OscillatorState(2, big_n, big_l)


def test_map_violations_carry_the_state_wording():
    # n = 1 has no radial node for i = 1 to remove
    report = solve_map_parameters((3, 1, 0), 1, mode="broken", delta=0.25, i=1, Delta=0.25)
    assert report.violations == (
        "source polynomial degree n-l-i-1 = -1 is negative for n=1 l=0 i=1",
        "target angular number must satisfy 0 <= L <= N, got L=3 N=1",
    )
    report = solve_map_parameters((3, 1, 0), -1)
    assert report.violations == ("target principal number must be >= 0, got -1",)


@pytest.mark.parametrize(
    ("build", "message"),
    [
        (lambda: CoulombState(3, 2.0, 0), "principal number must be an integer >= 1, got 2.0"),
        (lambda: CoulombState(3, "2", 0), "principal number must be an integer >= 1, got '2'"),
        (lambda: CoulombState(3, 2, 0.0), "angular number must be an integer, got l=0.0"),
        (lambda: OscillatorState(3, 2.0, 0), "principal number must be an integer >= 0, got 2.0"),
        (lambda: OscillatorState(3, 2, 0.0), "angular number must be an integer, got L=0.0"),
        # an integer out of range keeps the wording map violations repeat
        (lambda: CoulombState(3, 0, 0), "principal number must be >= 1, got 0"),
        (lambda: OscillatorState(3, -1, 0), "principal number must be >= 0, got -1"),
        (lambda: CoulombState(3, 2, 2), "angular number must satisfy 0 <= l <= n-1, got l=2 n=2"),
    ],
)
def test_a_non_integer_is_refused_as_one(build, message):
    with pytest.raises(AdmissibilityError) as caught:
        build()
    assert str(caught.value) == message


def test_numpy_integers_are_integers():
    assert CoulombState(np.int64(3), np.int64(2), np.int32(1)).energy == CoulombState(3, 2, 1).energy
    assert OscillatorState(np.int16(3), np.uint8(2), np.int64(0)).energy == OscillatorState(3, 2, 0).energy
