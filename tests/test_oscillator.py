import math

import numpy as np
import pytest

from susyrad.errors import AdmissibilityError, DomainError, ParityError
from susyrad.oscillator import (
    OscillatorState,
    gamma_shift,
    partner_spectra,
)
from susyrad.specfun import inner_product
from susyrad.susy import apply_operator

GRID = np.linspace(0.05, 7.0, 300)


class TestEnergy:
    def test_three_dimensional_ladder(self):
        assert OscillatorState(3, 0, 0).energy == pytest.approx(1.5, rel=1e-15)
        assert OscillatorState(3, 2, 0).energy == pytest.approx(3.5, rel=1e-15)
        assert OscillatorState(3, 5, 1).energy == pytest.approx(6.5, rel=1e-15)

    def test_planar_ground(self):
        assert OscillatorState(2, 0, 0).energy == pytest.approx(1.0, rel=1e-15)

    def test_higher_dimension(self):
        assert OscillatorState(6, 1, 1).energy == pytest.approx((2.0 + 3.0 + 3.0) / 2.0, rel=1e-15)

    def test_validation(self):
        with pytest.raises(AdmissibilityError):
            OscillatorState(1, 0, 0)
        with pytest.raises(AdmissibilityError):
            OscillatorState(3, -1, 0)


class TestStateValidation:
    def test_parity_constraint(self):
        OscillatorState(2, 2, 0)
        with pytest.raises(ParityError):
            OscillatorState(2, 1, 0)
        with pytest.raises(ParityError):
            OscillatorState(3, 4, 3)

    def test_parity_error_is_admissibility_error(self):
        # callers filtering on the broad class must still catch parity
        with pytest.raises(AdmissibilityError):
            OscillatorState(3, 3, 0)

    def test_angular_range(self):
        with pytest.raises(AdmissibilityError):
            OscillatorState(3, 2, 4)
        with pytest.raises(AdmissibilityError):
            OscillatorState(3, 2, -2)

    def test_grid_domain(self):
        s = OscillatorState(3, 0, 0)
        with pytest.raises(DomainError):
            s.value(-1.0)
        with pytest.raises(DomainError):
            s.value(np.nan)


class TestGroundState:
    def test_gaussian_closed_form(self):
        # D=3 ground: 2/pi^{1/4} Y exp(-Y^2/2)
        s = OscillatorState(3, 0, 0)
        c = 2.0 / math.pi**0.25
        assert math.exp(s.log_norm) == pytest.approx(c, rel=1e-12)
        expected = c * GRID * np.exp(-(GRID**2) / 2.0)
        assert np.max(np.abs(s.value(GRID) - expected)) < 1e-13

    def test_first_excited_node_location(self):
        # N=2, L=0 in D=3 changes sign at Y^2 = 3/2
        s = OscillatorState(3, 2, 0)
        ys = math.sqrt(1.5)
        assert abs(s.value(ys)) < 1e-14
        assert s.value(ys - 0.1) * s.value(ys + 0.1) < 0.0

    def test_planar_leading_power(self):
        # D=2, N=1, L=1 rises as Y^{3/2} near the origin
        s = OscillatorState(2, 1, 1)
        small = np.array([1e-6, 2e-6, 4e-6])
        vals = s.value(small)
        ratios = vals / small**1.5
        assert np.max(np.abs(ratios / ratios[0] - 1.0)) < 1e-9


class TestEigenEquation:
    @pytest.mark.parametrize("dimension", [2, 3, 4, 6])
    def test_residuals(self, dimension):
        for principal in range(0, 7):
            for angular in range(principal % 2, principal + 1, 2):
                s = OscillatorState(dimension, principal, angular)
                res = apply_operator(s.operator(), s, GRID, s.operator_eigenvalue())
                assert np.max(np.abs(res)) / np.max(np.abs(s.value(GRID))) < 1e-8

    def test_bracket_eigenvalue_is_twice_energy(self):
        s = OscillatorState(3, 1, 1)
        assert s.operator_eigenvalue() == pytest.approx(5.0, rel=1e-15)
        assert s.operator_eigenvalue() == pytest.approx(2.0 * s.energy, rel=1e-15)


class TestNormalization:
    @pytest.mark.parametrize(
        ("dimension", "principal", "angular"),
        [(3, 0, 0), (3, 4, 2), (2, 3, 1), (5, 2, 0), (6, 6, 6)],
    )
    def test_unit_norm_by_quadrature(self, dimension, principal, angular):
        s = OscillatorState(dimension, principal, angular)
        assert inner_product(s.value, s.value) == pytest.approx(1.0, abs=1e-10)

    def test_orthogonality_within_channel(self):
        a = OscillatorState(3, 0, 0)
        b = OscillatorState(3, 4, 0)
        assert abs(inner_product(a.value, b.value)) < 1e-10

    def test_different_angular_not_orthogonal_in_radial_measure(self):
        # angular orthogonality lives in the spherical factor, not here
        a = OscillatorState(3, 2, 0)
        b = OscillatorState(3, 2, 2)
        assert abs(inner_product(a.value, b.value)) > 1e-3


class TestPartnerSpectra:
    def test_equal_spacing_values(self):
        bosonic, fermionic = partner_spectra(3, 0, 3)
        assert bosonic == (0.0, 4.0, 8.0)
        assert fermionic == (4.0, 8.0)

    @pytest.mark.parametrize(("dimension", "angular"), [(2, 0), (3, 1), (4, 2), (6, 0)])
    def test_degeneracy_pattern(self, dimension, angular):
        bosonic, fermionic = partner_spectra(dimension, angular, 6)
        assert bosonic[0] == 0.0
        assert fermionic == bosonic[1:]
        steps = {round(b - a, 12) for a, b in zip(bosonic, bosonic[1:])}
        assert steps == {4.0}

    def test_count_validation(self):
        with pytest.raises(AdmissibilityError):
            partner_spectra(3, 0, 0)


class TestGammaShift:
    def test_values(self):
        assert gamma_shift(2) == -0.5
        assert gamma_shift(3) == 0.0
        assert gamma_shift(9) == 3.0
