import math

import numpy as np
import pytest

from susyrad.coulomb import CoulombState, coulomb_energy
from susyrad.errors import AdmissibilityError, DomainError, ParityError
from susyrad.oscillator import OscillatorState, oscillator_energy
from susyrad.qdt import (
    AnharmonicModel,
    AnharmonicState,
    DefectModel,
    DefectState,
    breaking_potential_coulomb,
    breaking_potential_oscillator,
    illustrative_defect_model,
)
from susyrad.specfun import inner_product
from susyrad.susy import apply_operator

GRID = np.linspace(0.1, 40.0, 250)


def _model(delta=0.4, shift=1, dimension=3):
    return DefectModel(dimension, defects={0: delta, 1: 0.05}, shifts={0: shift, 1: 0})


class TestDefectModel:
    def test_table_lookup_and_override(self):
        m = DefectModel(3, defects={0: 0.3, (0, 2): 0.35}, shifts={0: 0})
        assert m.delta(0) == 0.3
        assert m.delta(0, 5) == 0.3
        # the (l, n) entry wins for that one level only
        assert m.delta(0, 2) == 0.35

    def test_missing_entry(self):
        m = _model()
        with pytest.raises(AdmissibilityError):
            m.delta(7)
        with pytest.raises(AdmissibilityError):
            m.shift(7)

    def test_defect_range_clamp(self):
        with pytest.raises(AdmissibilityError):
            DefectModel(3, defects={0: 1.0}, shifts={0: 0})
        with pytest.raises(AdmissibilityError):
            DefectModel(3, defects={0: -0.1}, shifts={0: 0})

    def test_shift_must_be_nonnegative_integer(self):
        with pytest.raises(AdmissibilityError):
            DefectModel(3, defects={0: 0.1}, shifts={0: -1})
        with pytest.raises(AdmissibilityError):
            DefectModel(3, defects={0: 0.1}, shifts={0: 0.5})

    def test_bad_table_key(self):
        with pytest.raises(AdmissibilityError):
            DefectModel(3, defects={(0, 1, 2): 0.1}, shifts={})

    def test_illustrative_model_shape(self):
        m = illustrative_defect_model()
        assert m.dimension == 3
        assert m.delta(0) == 0.40
        assert m.delta(0, 2) == 0.41
        assert m.shift(0) == 1
        # has to be usable end to end
        s = m.state(3, 1)
        assert inner_product(s.value, s.value) == pytest.approx(1.0, abs=1e-10)


class TestRydbergEnergy:
    def test_frozen_values(self):
        m = _model()
        assert m.state(2, 0).energy == pytest.approx(-0.1953125, rel=1e-15)
        assert m.state(10, 0).energy == pytest.approx(-1.0 / (2.0 * 9.6**2), rel=1e-15)

    def test_zero_defect_recovers_rigid_spectrum(self):
        m = DefectModel(4, defects={0: 0.0, 2: 0.0}, shifts={0: 0, 2: 0})
        for n in (1, 3, 6):
            assert m.state(n, 0).energy == pytest.approx(coulomb_energy(4, n), rel=1e-15)

    def test_state_energy_matches_starred_closed_form(self):
        m = _model()
        s = m.state(4, 1)
        assert s.energy == -1.0 / (2.0 * (s.n_star + s.gamma) ** 2)
        assert s.operator_eigenvalue() == pytest.approx(0.5 * s.energy, rel=1e-15)

    def test_degree_clamp(self):
        # i=1 eats one radial node: n=1, l=0 has no room left
        with pytest.raises(AdmissibilityError):
            _model().state(1, 0)

    def test_normalizability_clamp(self):
        # l* + gamma + 1 = 1 - delta - 1/2 goes nonpositive in d=2
        m = DefectModel(2, defects={0: 0.6}, shifts={0: 0})
        with pytest.raises(AdmissibilityError):
            m.state(2, 0)


class TestDefectState:
    def test_starred_numbers(self):
        s = _model().state(2, 0)
        assert s.n_star == pytest.approx(1.6, rel=1e-15)
        assert s.l_star == pytest.approx(0.6, rel=1e-15)
        assert s.delta == 0.4
        assert s.shift == 1

    def test_nodeless_profile(self):
        # degree 0: pure y^{1.6} e^{-y/3.2} up to the norm constant
        s = _model().state(2, 0)
        ys = np.linspace(0.5, 12.0, 40)
        ratio = s.value(ys) / (ys**1.6 * np.exp(-ys / 3.2))
        assert np.max(np.abs(ratio / ratio[0] - 1.0)) < 1e-12

    def test_eigen_residual(self):
        for (n, l) in [(2, 0), (3, 0), (3, 1), (5, 1)]:
            s = _model().state(n, l)
            res = apply_operator(s.operator(), s, GRID, s.operator_eigenvalue())
            assert np.max(np.abs(res)) / np.max(np.abs(s.value(GRID))) < 1e-8

    def test_unit_norm(self):
        s = _model().state(3, 0)
        assert inner_product(s.value, s.value) == pytest.approx(1.0, abs=1e-10)

    def test_orthogonality_same_channel(self):
        m = _model()
        a, b = m.state(2, 0), m.state(4, 0)
        assert abs(inner_product(a.value, b.value)) < 1e-10

    def test_zero_defect_reduces_to_coulomb(self):
        m = DefectModel(3, defects={1: 0.0}, shifts={1: 0})
        s = m.state(3, 1)
        rigid = CoulombState(3, 3, 1)
        assert np.max(np.abs(s.value(GRID) - rigid.value(GRID))) < 1e-14
        assert s.energy == rigid.energy

    def test_direct_construction(self):
        s = DefectState(_model(), 2, 0)
        assert s.principal == 2 and s.angular == 0

    # a non-integer is refused as one, not truncated by int() into another state
    def test_fractional_principal_is_refused(self):
        model = DefectModel(3, {0: 0.4}, {0: 0})
        with pytest.raises(AdmissibilityError, match=r"principal number must be an integer >= 1, got 2\.5"):
            model.state(2.5, 0)

    def test_string_principal_is_refused(self):
        model = DefectModel(3, {0: 0.4}, {0: 0})
        with pytest.raises(AdmissibilityError, match="principal number must be an integer >= 1, got '3'"):
            model.state("3", 0)

    def test_numpy_integers_are_accepted(self):
        model = DefectModel(3, {0: 0.4}, {0: 0})
        assert model.state(np.int64(3), np.int32(0)).energy == model.state(3, 0).energy


class TestBreakingPotentialCoulomb:
    def test_frozen_coefficients(self):
        m = _model()
        ys = np.array([0.5, 1.0, 2.0, 8.0])
        expected = 0.96 / ys**2 + 0.03515625
        assert np.max(np.abs(breaking_potential_coulomb(m, 2, 0, ys) - expected)) < 1e-15

    def test_scalar(self):
        out = breaking_potential_coulomb(_model(), 2, 0, 1.0)
        assert isinstance(out, float)
        assert out == pytest.approx(0.96 + 0.03515625, rel=1e-15)

    def test_vanishes_without_breaking(self):
        m = DefectModel(3, defects={0: 0.0}, shifts={0: 0})
        assert np.max(np.abs(breaking_potential_coulomb(m, 3, 0, GRID))) == 0.0

    def test_operator_consistency(self):
        # the bookkeeping constant pins the combination at the rigid bracket
        # eigenvalue: (H_l + V_B) v* = (E_n / 2) v*
        m = _model()
        s = m.state(3, 0)
        rigid = CoulombState(3, 3, 0)
        vb = breaking_potential_coulomb(m, 3, 0, GRID)
        res = apply_operator(rigid.operator(), s, GRID) + vb * s.value(GRID) \
            - 0.5 * coulomb_energy(3, 3) * s.value(GRID)
        assert np.max(np.abs(res)) / np.max(np.abs(s.value(GRID))) < 1e-8

    def test_grid_domain(self):
        with pytest.raises(DomainError):
            breaking_potential_coulomb(_model(), 2, 0, 0.0)


class TestAnharmonicModel:
    def test_energy_frozen_value(self):
        m = AnharmonicModel(2, anharmonicities={0: 0.1}, shifts={0: 1})
        s = m.state(2, 0)
        assert s.energy == pytest.approx(2.8, rel=1e-15)
        assert s.n_star == pytest.approx(1.8, rel=1e-15)
        assert s.l_star == pytest.approx(1.8, rel=1e-15)
        assert s.degree == 0

    def test_energy_scaling_with_delta(self):
        m0 = AnharmonicModel(3, anharmonicities={0: 0.0}, shifts={0: 0})
        m1 = AnharmonicModel(3, anharmonicities={0: 0.3}, shifts={0: 0})
        assert m0.state(2, 0).energy - m1.state(2, 0).energy == pytest.approx(0.6, rel=1e-12)

    def test_parity_enforced(self):
        m = AnharmonicModel(3, anharmonicities={0: 0.1}, shifts={0: 0})
        with pytest.raises(ParityError):
            m.state(3, 0)

    def test_degree_clamp(self):
        m = AnharmonicModel(3, anharmonicities={0: 0.1}, shifts={0: 2})
        with pytest.raises(AdmissibilityError):
            m.state(2, 0)

    def test_normalizability_clamp(self):
        # L* + Gamma + 1 = 1 - 2*Delta - 1/2 <= 0 for Delta >= 0.25 in D=2
        m = AnharmonicModel(2, anharmonicities={0: 0.3}, shifts={0: 0})
        with pytest.raises(AdmissibilityError):
            m.state(0, 0)

    def test_negative_anharmonicity_rejected(self):
        with pytest.raises(AdmissibilityError):
            AnharmonicModel(3, anharmonicities={0: -0.2}, shifts={0: 0})

    def test_table_override(self):
        m = AnharmonicModel(3, anharmonicities={0: 0.1, (0, 4): 0.2}, shifts={0: 0})
        assert m.anharmonicity(0, 2) == 0.1
        assert m.anharmonicity(0, 4) == 0.2


class TestAnharmonicState:
    def _model(self, delta=0.1, shift=0, dimension=3):
        return AnharmonicModel(dimension, anharmonicities={0: delta, 1: delta}, shifts={0: shift, 1: shift})

    def test_eigen_residual(self):
        grid = np.linspace(0.05, 7.0, 200)
        for (n, l) in [(0, 0), (2, 0), (3, 1), (6, 0)]:
            s = self._model().state(n, l)
            res = apply_operator(s.operator(), s, grid, s.operator_eigenvalue())
            assert np.max(np.abs(res)) / np.max(np.abs(s.value(grid))) < 1e-8

    def test_unit_norm(self):
        s = self._model(0.2).state(4, 0)
        assert inner_product(s.value, s.value) == pytest.approx(1.0, abs=1e-10)

    def test_zero_anharmonicity_reduces_to_oscillator(self):
        s = self._model(0.0).state(4, 0)
        rigid = OscillatorState(3, 4, 0)
        grid = np.linspace(0.05, 7.0, 200)
        assert np.max(np.abs(s.value(grid) - rigid.value(grid))) < 1e-14
        assert s.energy == oscillator_energy(3, 4)

    def test_bracket_eigenvalue(self):
        s = self._model(0.1).state(2, 0)
        assert s.operator_eigenvalue() == pytest.approx(2.0 * s.energy, rel=1e-15)

    def test_direct_construction(self):
        s = AnharmonicState(self._model(), 2, 0)
        assert s.degree == 1

    def test_fractional_principal_is_refused(self):
        with pytest.raises(AdmissibilityError, match=r"principal number must be an integer >= 0, got 2\.9"):
            self._model().state(2.9, 0)


class TestBreakingPotentialOscillator:
    def test_frozen_coefficients(self):
        m = AnharmonicModel(3, anharmonicities={0: 0.25}, shifts={0: 0})
        ys = np.array([0.4, 1.0, 3.0])
        expected = -0.25 / ys**2 + 1.0
        assert np.max(np.abs(breaking_potential_oscillator(m, 0, 0, ys) - expected)) < 1e-15

    def test_large_distance_limit_is_four_delta(self):
        m = AnharmonicModel(3, anharmonicities={0: 0.25}, shifts={0: 0})
        assert breaking_potential_oscillator(m, 0, 0, 1e6) == pytest.approx(1.0, abs=1e-11)

    def test_vanishes_without_breaking(self):
        m = AnharmonicModel(3, anharmonicities={0: 0.0}, shifts={0: 0})
        assert np.max(np.abs(breaking_potential_oscillator(m, 2, 0, GRID))) == 0.0

    def test_operator_consistency(self):
        # same bookkeeping as the Coulomb side: (H_L + V_B) psi* = 2 E_N psi*
        m = AnharmonicModel(3, anharmonicities={0: 0.2}, shifts={0: 0})
        s = m.state(4, 0)
        rigid = OscillatorState(3, 4, 0)
        grid = np.linspace(0.05, 7.0, 220)
        vb = breaking_potential_oscillator(m, 4, 0, grid)
        res = apply_operator(rigid.operator(), s, grid) + vb * s.value(grid) \
            - 2.0 * oscillator_energy(3, 4) * s.value(grid)
        assert np.max(np.abs(res)) / np.max(np.abs(s.value(grid))) < 1e-8

    def test_grid_domain(self):
        m = AnharmonicModel(3, anharmonicities={0: 0.1}, shifts={0: 0})
        with pytest.raises(DomainError):
            breaking_potential_oscillator(m, 0, 0, np.array([1.0, -1.0]))


def _raw(x):
    return np.asarray(x, dtype=float).tobytes()


class TestStarredArguments:
    """The state classes take the starred numbers directly, as the models supply them."""

    @pytest.mark.parametrize(
        "d, n, l, delta, shift",
        [(3, 2, 0, 0.4, 1), (2, 5, 1, 0.45, 0), (4, 7, 2, 0.93, 2), (6, 40, 3, 0.125, 5),
         (3, 120, 60, 0.05, 0), (5, 1, 0, 0.0, 0)],
    )
    def test_coulomb_side_matches_model(self, d, n, l, delta, shift):
        direct = CoulombState(d, n, l, delta=delta, shift=shift)
        via_model = DefectModel(d, {l: delta}, {l: shift}).state(n, l)
        grid = np.linspace(0.05, 30.0 * (n + 1), 400)
        for name in ("value", "derivative", "second_derivative", "third_derivative"):
            assert _raw(getattr(direct, name)(grid)) == _raw(getattr(via_model, name)(grid)), name
        assert _raw(direct.energy) == _raw(via_model.energy)
        assert (direct.n_star, direct.l_star) == (via_model.n_star, via_model.l_star)

    @pytest.mark.parametrize(
        "d, n, l, anharmonicity, shift",
        [(3, 2, 0, 0.1, 1), (2, 3, 1, 0.3, 0), (4, 8, 2, 0.7, 2), (6, 41, 3, 0.25, 6),
         (3, 200, 0, 0.05, 0), (2, 0, 0, 0.0, 0)],
    )
    def test_oscillator_side_matches_model(self, d, n, l, anharmonicity, shift):
        direct = OscillatorState(d, n, l, anharmonicity=anharmonicity, shift=shift)
        via_model = AnharmonicModel(d, {l: anharmonicity}, {l: shift}).state(n, l)
        grid = np.linspace(0.05, 6.0 + 1.5 * np.sqrt(n), 400)
        for name in ("value", "derivative", "second_derivative", "third_derivative"):
            assert _raw(getattr(direct, name)(grid)) == _raw(getattr(via_model, name)(grid)), name
        assert _raw(direct.energy) == _raw(via_model.energy)
        assert (direct.n_star, direct.l_star) == (via_model.n_star, via_model.l_star)

    @pytest.mark.parametrize("kwargs", [{"delta": 1.0}, {"delta": -0.1}, {"delta": float("nan")},
                                        {"shift": -1}, {"shift": 0.5}])
    def test_coulomb_side_rejects_out_of_range(self, kwargs):
        with pytest.raises(AdmissibilityError):
            CoulombState(3, 4, 1, **kwargs)

    @pytest.mark.parametrize("kwargs", [{"anharmonicity": -0.1}, {"anharmonicity": float("nan")},
                                        {"shift": -1}, {"shift": 1.0}])
    def test_oscillator_side_rejects_out_of_range(self, kwargs):
        with pytest.raises(AdmissibilityError):
            OscillatorState(3, 4, 0, **kwargs)

    def test_starred_admissibility_applies_to_direct_arguments(self):
        with pytest.raises(AdmissibilityError, match="polynomial degree n-l-i-1"):
            CoulombState(3, 2, 1, shift=1)
        with pytest.raises(AdmissibilityError, match="normalizability"):
            CoulombState(2, 2, 0, delta=0.6)
        with pytest.raises(AdmissibilityError, match=r"polynomial degree \(N-L\)/2 - I"):
            OscillatorState(3, 2, 0, shift=2)
        with pytest.raises(AdmissibilityError, match="normalizability"):
            OscillatorState(2, 2, 0, anharmonicity=0.3)
