"""Verify criteria 2, 3, 7 and 9 as family batches: every row keeps the bits of its case alone.

Each check is run with its batch builder wrapped, so the rows compared here
are the rows the check measured.  The call counts guard the batching itself:
a loop over cases would make 120 `laguerre_stack` calls (criterion 9), 36
`_build` calls (criterion 7), about 211 `_power_stack` calls (criterion 2) and
64 envelope evaluations (criterion 3).
"""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from susyrad import _grid, coulomb, oscillator, reports, specfun, verify
from susyrad.errors import AdmissibilityError, ConvergenceError

BATCHES = settings(derandomize=True, max_examples=150, deadline=None)


def _recorded(monkeypatch, module, name, check):
    """Run check with module.name wrapped; return (args, result) of every call of it."""
    calls, original = [], getattr(module, name)

    def recording(*args):
        out = original(*args)
        calls.append((args, out))
        return out

    monkeypatch.setattr(module, name, recording)
    assert check().passed
    monkeypatch.undo()
    return calls


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
        batches = _recorded(monkeypatch, reports, "_relative_residuals", verify.check_radial_residuals)
        assert sum(len(states) for (states, _), _ in batches) == 464
        exponents = {True: [], False: []}
        for (states, grids), residuals in batches:
            assert len(states) <= verify._BATCH_ROWS
            coulomb_form = isinstance(states[0], coulomb.CoulombState)
            assert all(isinstance(s, coulomb.CoulombState) == coulomb_form for s in states)
            # an oscillator batch shares the one grid; a Coulomb batch has a row per state
            assert grids.shape == ((len(states), 240) if coulomb_form else (240,))
            exponents[coulomb_form] += [s.exponent for s in states]
            rows = np.broadcast_to(grids, (len(states), 240))
            for state, row, got in zip(states, rows, residuals.tolist()):
                top = 20.0 * (state.principal + state.gamma)
                assert np.array_equal(row, np.linspace(0.05, top, 240) if coulomb_form else verify._OSC_GRID)
                assert got == reports._value_and_residual(state, row)[1]
        # each family comes sorted by exponent before it is cut into batches
        assert all(e == sorted(e) and e for e in exponents.values())

    def test_power_stacks_at_most_batches_plus_exponents(self, monkeypatch):
        powers, original = [], _grid._power_stack

        def counted(*args):
            powers.append(args[1])
            return original(*args)

        monkeypatch.setattr(_grid, "_power_stack", counted)
        batches = _recorded(monkeypatch, reports, "_relative_residuals", verify.check_radial_residuals)
        exponents = {(isinstance(s, coulomb.CoulombState), s.exponent)
                     for (states, _), _ in batches for s in states}
        assert len(powers) <= len(batches) + len(exponents)


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


class TestFamilyCutoff:
    @pytest.mark.parametrize(("name", "states"), verify.orthonormality_families(),
                             ids=[name for name, _ in verify.orthonormality_families()])
    def test_family_cutoff_is_the_largest_state_cutoff(self, name, states):
        assert specfun.family_cutoff(states) == max(s.tail_cutoff for s in states)

    @BATCHES
    @given(
        rows=st.lists(st.tuples(st.integers(2, 9), st.integers(0, 25), st.integers(0, 6),
                                st.floats(0.0, 0.95)), min_size=1, max_size=8),
        side=st.sampled_from([_coulomb_rows, _oscillator_rows]),
    )
    def test_drawn_family_cutoff_is_the_largest_state_cutoff(self, rows, side):
        states = side(rows)
        assume(states)
        assert specfun.family_cutoff(states) == max(s.tail_cutoff for s in states)
        # each row's envelope, padded past its degree, has the bits of the form alone
        grid = np.geomspace(1e-3, 1e4, 16)
        batch = specfun._log_envelopes(states, np.broadcast_to(grid, (len(states), 16)))
        for state, row in zip(states, batch):
            assert np.array_equal(row, state.log_envelope(grid))
            assert np.array_equal(row, _lone_log_envelope(state, grid))

    def test_one_envelope_per_family(self, monkeypatch):
        envelopes = _recorded(monkeypatch, specfun, "laguerre_envelope_log", verify.check_orthonormality)
        assert [len(degrees) for (degrees, _, _), _ in envelopes] == [
            len(states) for _, states in verify.orthonormality_families()
        ]

    def test_a_row_that_never_decays_is_refused(self):
        # row 0 is far below every limit, row 1 never falls below 1
        with pytest.raises(ConvergenceError, match="envelope has not decayed") as info:
            specfun.envelope_cutoff(lambda x: np.where(np.arange(2)[:, None] == 0, -1e9, 0.0 * x), [1.0, 1.0])
        last = 8.0 * 2.0 ** (specfun._TAIL_DOUBLINGS - 1)
        assert info.value.estimates == (0.0, 0.5 * np.log(specfun._TAIL_DROP / last))
