"""Verify criteria 2 to 5, 7 and 9 as family batches: every row keeps the bits of its case alone.

Each check is run with its batch builder wrapped, so the rows compared here
are the rows the check measured.  The call counts guard the batching itself:
a loop over cases would make 120 `laguerre_stack` calls (criterion 9), 36
`_build` calls (criterion 7), 464 `_build` calls (criterion 2) and 64
`family_derivatives` calls (criterion 3).  Criteria 2, 4 and 5 measure one
representative of each `verify._form_key`; every case they build is checked
against its representative's row, and the key itself is drawn in
`TestFormKey`.
"""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from susyrad import _grid, coulomb, maps, oscillator, reports, specfun, susy, verify
from susyrad.errors import AdmissibilityError

BATCHES = settings(derandomize=True, max_examples=150, deadline=None)


def _record(monkeypatch, module, name):
    """Wrap module.name; return the list that gets (args, result) of every call of it."""
    calls, original = [], getattr(module, name)

    def recording(*args):
        out = original(*args)
        calls.append((args, out))
        return out

    monkeypatch.setattr(module, name, recording)
    return calls


def _recorded(monkeypatch, module, name, check):
    """Run check with module.name wrapped; return (args, result) of every call of it."""
    calls = _record(monkeypatch, module, name)
    assert check().passed
    monkeypatch.undo()
    return calls


def _built_states(monkeypatch):
    """The list that gets every state verify._form_states yields, once it is wrapped."""
    built, original = [], verify._form_states

    def building(family, used):
        states = list(original(family, used))
        built.extend(states)
        return states

    monkeypatch.setattr(verify, "_form_states", building)
    return built


def _coulomb_grid(state):
    return np.linspace(0.05, 20.0 * (state.principal + state.gamma), 240)


class TestOracleRows:
    def test_every_row_is_its_cards_evaluator(self, monkeypatch):
        stacks = _recorded(monkeypatch, _grid, "laguerre_stack", verify.check_laguerre_oracle)
        # the sum cards, the derivative cards' j = 1 stack, their values on the stencil
        assert [(len(degrees), order) for (degrees, _, _, order), _ in stacks] == [(80, 0), (20, 1), (20, 0)]
        rows = 0
        for (degrees, orders, points, order), stack in stacks:
            assert degrees == sorted(degrees, reverse=True)
            evaluate = specfun.eval_sonine_laguerre_derivative if order else specfun.eval_sonine_laguerre
            for degree, card_order, row in zip(degrees, orders, stack[order]):
                assert np.array_equal(row, evaluate(specfun.SonineLaguerre(degree, card_order), points))
                rows += 1
        assert rows == 120

    @BATCHES
    @given(
        cards=st.lists(st.tuples(st.integers(0, 30), st.floats(-1.0, 5.0, exclude_min=True)),
                       min_size=1, max_size=12),
        points=st.lists(st.floats(0.0, 60.0), min_size=1, max_size=8),
    )
    def test_mixed_batch_rows_are_their_cards_alone(self, cards, points):
        cards = sorted(cards, key=lambda card: -card[0])
        xs = np.array(points)
        values, derivatives = _grid.laguerre_stack([n for n, _ in cards], [a for _, a in cards], xs, 1)
        for (n, a), value, derivative in zip(cards, values, derivatives):
            poly = specfun.SonineLaguerre(n, a)
            assert np.array_equal(value, specfun.eval_sonine_laguerre(poly, xs))
            assert np.array_equal(derivative, specfun.eval_sonine_laguerre_derivative(poly, xs))


class TestReductionRows:
    def test_every_row_is_the_lone_value(self, monkeypatch):
        builds = _recorded(monkeypatch, verify, "family_derivatives", verify.check_reduction_limits)
        # per family, the exact states and then the zero-breaking states, on the same rows
        assert [len(states) for (states, _, _), _ in builds] == [9, 9, 9, 9]
        for (states, grid, orders), (values,) in builds:
            assert orders == (0,) and grid.shape == (9, 100)
            for state, row, got in zip(states, grid, values):
                assert np.array_equal(got, state.value(row))

    def test_every_row_lies_in_its_cases_range(self, monkeypatch):
        builds = _recorded(monkeypatch, verify, "family_derivatives", verify.check_reduction_limits)
        # per family, the exact states' build and then the zero-breaking states' on the same grid
        for family, plain, starred in zip(verify._REDUCTION_FAMILIES, builds[::2], builds[1::2]):
            (states, grid, _), _ = plain
            assert starred[0][1] is grid
            top = family[-1]
            for state, row in zip(states, grid):
                assert 0.05 <= row.min() and row.max() < top(state), state

    def test_two_builds_per_family(self, monkeypatch):
        builds = _recorded(monkeypatch, _grid, "_build", verify.check_reduction_limits)
        assert [len(forms) for (forms, *_), _ in builds] == [9, 9, 9, 9]


class TestResidualBatches:
    def test_every_residual_is_its_state_alone(self, monkeypatch):
        built = _built_states(monkeypatch)
        batches = _recorded(monkeypatch, reports, "_relative_residuals", verify.check_radial_residuals)
        measured = {}
        for (states, grids), residuals in batches:
            assert len(states) <= verify._BATCH_ROWS
            coulomb_form = isinstance(states[0], coulomb.CoulombState)
            assert all(isinstance(s, coulomb.CoulombState) == coulomb_form for s in states)
            # an oscillator batch shares the one grid; a Coulomb batch has a row per state
            assert grids.shape == ((len(states), 240) if coulomb_form else (240,))
            rows = np.broadcast_to(grids, (len(states), 240))
            for state, row, got in zip(states, rows, residuals.tolist()):
                measured[verify._form_key(state)] = row, got
        # each distinct form is measured once, and every state built is one of them
        assert len(built) == 464
        assert len(measured) == sum(len(states) for (states, _), _ in batches) == 305
        for state in built:
            row, got = measured[verify._form_key(state)]
            coulomb_form = isinstance(state, coulomb.CoulombState)
            assert np.array_equal(row, _coulomb_grid(state) if coulomb_form else verify._OSC_GRID)
            assert got == reports._value_and_residual(state, row)[1]
        # both families take part
        assert {isinstance(states[0], coulomb.CoulombState) for (states, _), _ in batches} == {True, False}

    def test_one_build_per_batch(self, monkeypatch):
        builds = _recorded(monkeypatch, _grid, "_build", verify.check_radial_residuals)
        batches = _recorded(monkeypatch, reports, "_relative_residuals", verify.check_radial_residuals)
        # each batch's value and curvature come from one (0, 2) build of all its states
        assert [(len(forms), orders) for (forms, _, orders, *_), _ in builds] == [
            (len(states), (0, 2)) for (states, _), _ in batches
        ]
        # 165 distinct Coulomb forms and then 140 oscillator forms, 16 rows a batch
        coulomb_forms = [isinstance(forms[0], coulomb.CoulombState) for (forms, *_), _ in builds]
        assert coulomb_forms == [True] * 11 + [False] * 9

    def test_batches_come_in_degree_order(self, monkeypatch):
        built = _built_states(monkeypatch)
        batches = _recorded(monkeypatch, reports, "_relative_residuals", verify.check_radial_residuals)
        position = {id(state): k for k, state in enumerate(built)}
        for coulomb_form in (True, False):
            family = [states for (states, _), _ in batches
                      if isinstance(states[0], coulomb.CoulombState) == coulomb_form]
            order = [(-state.degree, position[id(state)]) for states in family for state in states]
            # descending degree, and a stable sort: the forms of one degree in the order they were built
            assert order == sorted(order)
            # so only the first batch runs to the family's top degree, and the last runs no step
            assert family[0][0].degree == max(state.degree for state in built
                                              if isinstance(state, coulomb.CoulombState) == coulomb_form)
            assert {state.degree for state in family[-1]} == {0}


class TestMapRows:
    def test_every_map_is_its_spec_alone(self, monkeypatch):
        specs = _record(monkeypatch, verify, "_exact_maps")
        [((measured,), checks)] = _recorded(monkeypatch, maps, "verify_map_identities", verify.check_exact_maps)
        [(_, built)] = specs
        assert (len(built), len(measured)) == (70, 28)
        rows = dict(zip(map(verify._map_key, measured), checks))
        assert len(rows) == 28
        for spec in built:
            got, alone = rows[verify._map_key(spec)], maps.verify_map_identity(spec)
            assert np.array_equal(got.ratios, alone.ratios, equal_nan=True)
            assert np.array_equal(got.included, alone.included)
            assert (got.constancy_defect, got.scale_factor) == (alone.constancy_defect, alone.scale_factor)


class TestSusyRows:
    def test_every_superpotential_row_is_its_pair_alone(self, monkeypatch):
        families = _record(monkeypatch, verify, "_susy_rows")
        shifts = _record(monkeypatch, susy, "shift_identity_defects")
        annihilations = _recorded(monkeypatch, susy, "annihilation_residuals", verify.check_susy_structure)
        assert [len(built) for _, built in families] == [20, 16]
        assert [len(us) for (us, _, _), _ in annihilations] == [11, 10]
        # one shift-defect batch per family, a row per distinct U; the two families' U differ in power
        assert [len(us) for (us, _), _ in shifts] == [11, 10]
        shift_of = {u: (grid, defect) for (us, grid), defects in shifts for u, defect in zip(us, defects)}
        assert len(shift_of) == 21
        for (_, built), ((us, grounds, grids), residuals), family in zip(
            families, annihilations, verify._SUSY_FAMILIES
        ):
            rows = np.broadcast_to(grids, (len(us), 240))
            measured = {verify._susy_key(case): (row, got)
                        for case, row, got in zip(zip(us, grounds), rows, residuals)}
            assert len(measured) == len(us)
            for u, ground in built:
                row, got = measured[verify._susy_key((u, ground))]
                coulomb_form = isinstance(ground, coulomb.CoulombState)
                assert np.array_equal(row, _coulomb_grid(ground) if coulomb_form else verify._OSC_GRID)
                assert got == susy.annihilation_residuals([u], [ground], row)[0]
                grid, defect = shift_of[u]
                assert grid is family[-1]
                pair = susy.SusyPair(u)
                assert defect == susy._shift_defects(
                    grid, *pair._partners(grid), pair.shift_constant, pair.centrifugal_shift_coeff
                )


def _coulomb_rows(rows):
    states = []
    for d, n, l, delta in rows:
        try:
            states.append(coulomb.CoulombState(d, l + 1 + n, l, delta=delta))
        except AdmissibilityError:
            pass
    return states


def _oscillator_rows(rows):
    states = []
    for d, n, l, delta in rows:
        try:
            states.append(oscillator.OscillatorState(d, l + 2 * n, l, anharmonicity=delta))
        except AdmissibilityError:
            pass
    return states


def _lone_log_envelope(form, x):
    """A form's log envelope on a 1-D grid as it was computed one form at a time, constants as floats."""
    decay, t = form._decay_and_argument(x, *form._constants())
    n, a = form.degree, form.order
    p = np.arange(n)
    first = math.lgamma(n + a + 1.0) - math.lgamma(n + 1.0) - math.lgamma(a + 1.0)
    log_coeff = np.concatenate([[first], first + np.cumsum(np.log((n - p) / ((a + p + 1.0) * (p + 1.0))))])
    powers = np.arange(n + 1)[:, None]
    scaled = np.multiply(powers, np.log(t), out=np.zeros((n + 1, t.size)), where=powers > 0)
    terms = log_coeff[:, None] + scaled
    peak = terms.max(axis=0)
    envelope = peak + np.log(np.sum(np.exp(terms - peak), axis=0))
    return form.log_norm + form.exponent * np.log(x) - decay + envelope


class TestLogEnvelopes:
    @BATCHES
    @given(
        rows=st.lists(st.tuples(st.integers(2, 9), st.integers(0, 25), st.integers(0, 6),
                                st.floats(0.0, 0.95)), min_size=1, max_size=8),
        side=st.sampled_from([_coulomb_rows, _oscillator_rows]),
    )
    def test_drawn_batch_row_is_the_lone_row(self, rows, side):
        states = side(rows)
        assume(states)
        # each row's envelope, padded past its degree, has the bits of the form alone
        grid = np.geomspace(1e-3, 1e4, 16)
        batch = specfun.log_envelopes(states, np.broadcast_to(grid, (len(states), 16)))
        for state, row in zip(states, batch):
            assert np.array_equal(row, specfun.log_envelopes([state], grid[None])[0])
            assert np.array_equal(row, _lone_log_envelope(state, grid))


class TestGramBatches:
    def test_one_build_per_family(self, monkeypatch):
        builds = _recorded(monkeypatch, verify, "family_derivatives", verify.check_orthonormality)
        assert [(len(forms), orders) for (forms, _, orders), _ in builds] == [
            (len(states), (0,)) for _, states in verify.orthonormality_families()
        ]


# a defect or anharmonicity of 0, 1/2 or 3/4 half the time, so that twins (below) come up
_BREAKING = st.one_of(st.sampled_from([0.0, 0.5, 0.75]), st.floats(0.0, 0.9))
_CASES = st.tuples(st.booleans(), st.integers(2, 9), st.integers(0, 6), st.integers(0, 5), _BREAKING,
                   st.integers(0, 2))


def _case_state(coulomb_form, d, k, l, breaking, shift):
    """A Coulomb (d, n, l, delta, i) or oscillator (D, N, L, Delta, I) state whose degree is k; None if refused."""
    try:
        if coulomb_form:
            return coulomb.CoulombState(d, l + shift + 1 + k, l, delta=breaking, shift=shift)
        return oscillator.OscillatorState(d, l + 2 * (shift + k), l, anharmonicity=breaking, shift=shift)
    except AdmissibilityError:
        return None


def _partner(state):
    """The state at (d + 2, n - 1, l - 1), with the same breaking and shift; None if refused."""
    coulomb_form = isinstance(state, coulomb.CoulombState)
    breaking = state.delta if coulomb_form else state.anharmonicity
    return _case_state(coulomb_form, state.dimension + 2, state.degree, state.angular - 1, breaking, state.shift)


def _twin(state):
    """The other state of state's radial function, at a breaking 1/2 apart; None if refused.

    A Coulomb (d, n, l, delta) is (d + 1, n - 1, l - 1, delta - 1/2), whose grid
    stops 10 earlier; an oscillator (D, N, L, Delta) is (D, N + 1, L + 1, Delta + 1/2).
    """
    if isinstance(state, coulomb.CoulombState):
        if state.delta < 0.5:
            return None
        return _case_state(True, state.dimension + 1, state.degree, state.angular - 1, state.delta - 0.5,
                           state.shift)
    return _case_state(False, state.dimension, state.degree, state.angular + 1, state.anharmonicity + 0.5,
                       state.shift)


class TestFormKey:
    @BATCHES
    @given(cases=st.lists(_CASES, min_size=1, max_size=8))
    def test_equal_keys_give_bit_identical_rows(self, cases):
        states = [state for case in cases if (state := _case_state(*case)) is not None]
        states += [other for state in states for other in (_partner(state), _twin(state)) if other is not None]
        assume(states)
        rows = {}
        for state in states:
            # each state's residual row alone, on the grid criterion 2 gives it
            (row,) = reports._relative_residuals([state], verify._state_grids([state]))
            assert rows.setdefault(verify._form_key(state), row) == row
        # a batch of each family's states gives each state its key's row
        for coulomb_form in (True, False):
            family = [state for state in states if isinstance(state, coulomb.CoulombState) == coulomb_form]
            if family:
                batch = reports._relative_residuals(family, verify._state_grids(family))
                assert batch.tolist() == [rows[verify._form_key(state)] for state in family]

    @BATCHES
    @given(case=_CASES)
    def test_degenerate_states_share_a_key(self, case):
        coulomb_form, d, k, l, _, shift = case
        state = _case_state(coulomb_form, d, k, l + 1, 0.0, shift)
        assume(state is not None)
        partner = _partner(state)
        # no defect: (d, n, l) and (d + 2, n - 1, l - 1) are one radial function, so one key
        assert (partner.dimension, partner.principal, partner.angular) == (d + 2, state.principal - 1, l)
        assert verify._form_key(partner) == verify._form_key(state)
