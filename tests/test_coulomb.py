import math

import numpy as np
import pytest

from susyrad.coulomb import (
    CoulombState,
    coulomb_energy,
    eval_hydrogen_R,
    gamma_shift,
    partner_spectra,
)
from susyrad.errors import AdmissibilityError, DomainError
from susyrad.specfun import inner_product
from susyrad.susy import apply_operator


def _eigen_residual(state, grid):
    res = apply_operator(state.operator(), state, grid, state.operator_eigenvalue())
    return np.max(np.abs(res)) / np.max(np.abs(state.value(grid)))


class TestEnergy:
    def test_hydrogen_values(self):
        assert coulomb_energy(3, 1) == pytest.approx(-0.5, rel=1e-15)
        assert coulomb_energy(3, 2) == pytest.approx(-0.125, rel=1e-15)
        assert coulomb_energy(3, 3) == pytest.approx(-1.0 / 18.0, rel=1e-15)

    def test_dimension_shift(self):
        # gamma folds extra dimensions into the effective principal number
        assert coulomb_energy(5, 1) == pytest.approx(-0.125, rel=1e-15)
        assert coulomb_energy(2, 1) == pytest.approx(-2.0, rel=1e-15)
        assert coulomb_energy(4, 2) == pytest.approx(-1.0 / (2.0 * 2.5**2), rel=1e-15)

    def test_angular_independence(self):
        for l in range(4):
            assert CoulombState(3, 5, l).energy == coulomb_energy(3, 5)

    def test_gamma_shift(self):
        assert gamma_shift(3) == 0.0
        assert gamma_shift(2) == -0.5
        assert gamma_shift(6) == 1.5

    def test_validation(self):
        with pytest.raises(AdmissibilityError):
            coulomb_energy(1, 1)
        with pytest.raises(AdmissibilityError):
            coulomb_energy(3, 0)
        with pytest.raises(AdmissibilityError):
            gamma_shift(2.5)


class TestStateValidation:
    def test_angular_range(self):
        CoulombState(3, 2, 1)
        with pytest.raises(AdmissibilityError):
            CoulombState(3, 2, 2)
        with pytest.raises(AdmissibilityError):
            CoulombState(3, 1, -1)

    def test_dimension_floor(self):
        CoulombState(2, 1, 0)
        with pytest.raises(AdmissibilityError):
            CoulombState(1, 1, 0)

    def test_grid_domain(self):
        s = CoulombState(3, 1, 0)
        with pytest.raises(DomainError):
            s.value(0.0)
        with pytest.raises(DomainError):
            s.value(np.array([1.0, -2.0]))
        with pytest.raises(DomainError):
            s.value(np.inf)


class TestHydrogenR:
    RS = np.array([0.1, 0.5, 1.0, 2.0, 5.0, 12.0])

    def test_R10(self):
        expected = 2.0 * np.exp(-self.RS)
        assert np.max(np.abs(eval_hydrogen_R(1, 0, self.RS) - expected)) < 1e-14

    def test_R20(self):
        expected = (1.0 / math.sqrt(2.0)) * (1.0 - self.RS / 2.0) * np.exp(-self.RS / 2.0)
        assert np.max(np.abs(eval_hydrogen_R(2, 0, self.RS) - expected)) < 1e-14

    def test_R21(self):
        expected = self.RS * np.exp(-self.RS / 2.0) / (2.0 * math.sqrt(6.0))
        assert np.max(np.abs(eval_hydrogen_R(2, 1, self.RS) - expected)) < 1e-14

    def test_scalar_in_scalar_out(self):
        out = eval_hydrogen_R(1, 0, 1.0)
        assert isinstance(out, float)
        assert out == pytest.approx(2.0 * math.exp(-1.0), rel=1e-15)

    @pytest.mark.parametrize(("n", "l"), [(1, 0), (2, 0), (2, 1), (3, 1), (4, 2)])
    def test_r2_normalization(self, n, l):
        val = inner_product(
            lambda r: r * eval_hydrogen_R(n, l, r), lambda r: r * eval_hydrogen_R(n, l, r)
        )
        assert val == pytest.approx(1.0, abs=1e-10)

    @pytest.mark.parametrize(("n", "l"), [(1, 0), (2, 1), (3, 0), (3, 2), (5, 3)])
    def test_reduction_to_half_line_state(self, n, l):
        # r R_nl(r) and the y-coordinate state differ only by the measure
        # factor sqrt(2) under y = 2r
        rs = np.linspace(0.2, 15.0, 80)
        state = CoulombState(3, n, l)
        lhs = rs * eval_hydrogen_R(n, l, rs)
        rhs = math.sqrt(2.0) * state.value(2.0 * rs)
        assert np.max(np.abs(lhs - rhs)) < 1e-13

    def test_validation(self):
        with pytest.raises(AdmissibilityError):
            eval_hydrogen_R(2, 2, 1.0)
        with pytest.raises(DomainError):
            eval_hydrogen_R(1, 0, -1.0)


class TestEigenEquation:
    @pytest.mark.parametrize("dimension", [2, 3, 4, 5, 6])
    def test_residuals_all_channels(self, dimension):
        for n in range(1, 6):
            grid = np.linspace(0.05, 20.0 * (n + gamma_shift(dimension)), 200)
            for l in range(n):
                assert _eigen_residual(CoulombState(dimension, n, l), grid) < 1e-8

    def test_bracket_eigenvalue_is_half_energy(self):
        s = CoulombState(4, 3, 1)
        assert s.operator_eigenvalue() == pytest.approx(0.5 * s.energy, rel=1e-15)

    def test_operator_centrifugal(self):
        s = CoulombState(5, 3, 1)
        lg = 1 + 1.0
        assert s.operator().centrifugal == pytest.approx(lg * (lg + 1.0), rel=1e-15)


class TestNormalization:
    @pytest.mark.parametrize(
        ("dimension", "n", "l"),
        [(3, 1, 0), (3, 3, 1), (2, 2, 1), (4, 2, 0), (6, 4, 3)],
    )
    def test_unit_norm_by_quadrature(self, dimension, n, l):
        s = CoulombState(dimension, n, l)
        assert inner_product(s.value, s.value) == pytest.approx(1.0, abs=1e-10)

    def test_orthogonality_within_channel(self):
        a = CoulombState(3, 1, 0)
        b = CoulombState(3, 3, 0)
        assert abs(inner_product(a.value, b.value)) < 1e-10

    def test_ground_normalization_closed_form(self):
        # n=1, l=0, d=3: v = C y e^{-y/2} with 2 C^2 = 1
        s = CoulombState(3, 1, 0)
        c = 1.0 / math.sqrt(2.0)
        assert s.norm == pytest.approx(c, rel=1e-12)
        ys = np.array([0.3, 1.0, 4.0])
        assert np.max(np.abs(s.value(ys) - c * ys * np.exp(-ys / 2.0))) < 1e-15


class TestNodes:
    @pytest.mark.parametrize(("n", "l", "expected"), [(1, 0, 0), (2, 0, 1), (3, 0, 2), (3, 2, 0), (5, 2, 2)])
    def test_interior_node_count(self, n, l, expected):
        s = CoulombState(3, n, l)
        grid = np.linspace(1e-3, 40.0 * n, 20000)
        vals = s.value(grid)
        signs = np.sign(vals[np.abs(vals) > 1e-13])
        assert int(np.sum(signs[1:] != signs[:-1])) == expected


class TestPartnerSpectra:
    def test_hydrogen_s_wave_values(self):
        bosonic, fermionic = partner_spectra(3, 0, 3)
        assert bosonic == (0.0, 3.0 / 16.0, 2.0 / 9.0)
        assert fermionic == bosonic[1:]

    def test_accumulation_point(self):
        bosonic, _ = partner_spectra(3, 0, 400)
        # shifted tower accumulates at the offset 1/4
        assert bosonic[-1] == pytest.approx(0.25, abs=1e-4)

    def test_count_validation(self):
        with pytest.raises(AdmissibilityError):
            partner_spectra(3, 0, 0)

