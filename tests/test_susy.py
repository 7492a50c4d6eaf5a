import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from susyrad import coulomb, oscillator, verify
from susyrad.errors import AdmissibilityError, DomainError
from susyrad.susy import (
    RadialOperator,
    SuperchargeImage,
    Superpotential,
    SusyPair,
    annihilation_residual,
    annihilation_residuals,
    apply_operator,
    apply_supercharge,
    coulomb_superpotential,
    oscillator_superpotential,
    shift_identity_defect,
)

GRID = np.linspace(0.05, 50.0, 400)


class _Zero:
    def value(self, x):
        return np.zeros_like(np.asarray(x, dtype=float))

    derivative = value
    second_derivative = value

    def derivatives(self, grid, orders):
        return [self.value(grid) for _ in orders]


class TestSuperpotential:
    def test_rejects_nonpositive_power_coeff(self):
        with pytest.raises(AdmissibilityError):
            Superpotential(power_coeff=0.0, log_coeff=-2.0, power=1)
        with pytest.raises(AdmissibilityError):
            Superpotential(power_coeff=-1.0, log_coeff=-2.0, power=1)

    def test_rejects_bad_power(self):
        with pytest.raises(AdmissibilityError):
            Superpotential(power_coeff=1.0, log_coeff=-2.0, power=3)

    def test_derivative_chain_closed_forms(self):
        u = Superpotential(power_coeff=0.5, log_coeff=-3.0, power=2)
        x = 1.7
        assert u.u(x) == pytest.approx(0.5 * x**2 - 3.0 * np.log(x), rel=1e-15)
        assert u.u_prime(x) == pytest.approx(1.0 * x - 3.0 / x, rel=1e-15)
        assert u.u_double_prime(x) == pytest.approx(1.0 + 3.0 / x**2, rel=1e-15)
        assert u.u_third_derivative(x) == pytest.approx(-6.0 / x**3, rel=1e-15)

    def test_integer_coefficients_are_kept_as_floats(self):
        # an int64 coefficient used to wrap in 2*a and a*a: U'' came out -9.2e18
        u = Superpotential(np.int64(2**62 + 1), 0.0, 2)
        assert type(u.power_coeff) is float and type(u.log_coeff) is float
        assert u.u_double_prime(1.0) == 2.0 * 2.0**62
        assert SusyPair(u).plus_operator().oscillator_strength == 2.0**124

    def test_factory_coefficients(self):
        u = coulomb_superpotential(2, 0.5)
        assert (u.power_coeff, u.log_coeff, u.power) == (1.0 / 3.5, -7.0, 1)
        w = oscillator_superpotential(1, -0.5)
        assert (w.power_coeff, w.log_coeff, w.power) == (1.0, -3.0, 2)

    def test_ground_state_exponential(self):
        # exp(-U/2) reproduces the family ground state up to one constant
        u = coulomb_superpotential(1, 0.5)
        ground = coulomb.CoulombState(4, 2, 1)
        xs = np.linspace(0.5, 20.0, 60)
        ratio = ground.value(xs) / np.exp(-0.5 * u.u(xs))
        assert np.max(np.abs(ratio / ratio[0] - 1.0)) < 1e-12


class TestPartnerPotentials:
    def test_hydrogen_s_wave_closed_forms(self):
        pair = SusyPair(coulomb_superpotential(0, 0.0))
        v_plus = 0.25 - 1.0 / GRID
        v_minus = 0.25 - 1.0 / GRID + 2.0 / GRID**2
        assert np.max(np.abs(pair.v_plus(GRID) - v_plus)) < 1e-12
        assert np.max(np.abs(pair.v_minus(GRID) - v_minus)) < 1e-12

    def test_oscillator_closed_forms(self):
        pair = SusyPair(oscillator_superpotential(0, 0.0))
        grid = np.linspace(0.05, 6.0, 200)
        assert np.max(np.abs(pair.v_plus(grid) - (grid**2 - 3.0))) < 1e-12
        assert np.max(np.abs(pair.v_minus(grid) - (grid**2 - 1.0 + 2.0 / grid**2))) < 1e-12

    @pytest.mark.parametrize("angular", [0, 1, 2, 3])
    def test_flat_space_partner_difference(self, angular):
        # difference is 2(l+1)/y^2, twice the naive half-integer guess
        pair = SusyPair(coulomb_superpotential(angular, 0.0))
        diff = pair.v_minus(GRID) - pair.v_plus(GRID)
        assert np.max(np.abs(diff - 2.0 * (angular + 1.0) / GRID**2)) < 1e-12
        assert np.max(np.abs(diff - (2.0 * angular + 1.0) / GRID**2)) > 1.0

    @pytest.mark.parametrize("dimension", [2, 4, 5, 6])
    @pytest.mark.parametrize("angular", [0, 2])
    def test_shifted_partner_difference(self, dimension, angular):
        gamma = coulomb.gamma_shift(dimension)
        pair = SusyPair(coulomb_superpotential(angular, gamma))
        diff = pair.v_minus(GRID) - pair.v_plus(GRID)
        expected = 2.0 * (angular + gamma + 1.0) / GRID**2
        assert np.max(np.abs(diff - expected)) < 1e-12

    @pytest.mark.parametrize("dimension", [2, 3, 4, 6])
    @pytest.mark.parametrize("angular", [0, 1, 3])
    def test_oscillator_partner_difference(self, dimension, angular):
        # full difference is U'' = 2 + 2(L+Gamma+1)/Y^2; the constant rides on
        # the energy-zero convention and the 1/Y^2 part carries the tower shift
        gamma = oscillator.gamma_shift(dimension)
        pair = SusyPair(oscillator_superpotential(angular, gamma))
        grid = np.linspace(0.05, 6.0, 200)
        diff = pair.v_minus(grid) - pair.v_plus(grid)
        expected = 2.0 + 2.0 * (angular + gamma + 1.0) / grid**2
        assert np.max(np.abs(diff - expected)) < 1e-12
        assert pair.shift_constant == 2.0
        coeff = (diff - pair.shift_constant) * grid**2
        assert np.max(np.abs(coeff - 2.0 * (angular + gamma + 1.0))) < 1e-12

    def test_partner_shift_equals_u_double_prime(self):
        # V- - V+ = U'' up to the rounding of the partners' cancellation
        pair = SusyPair(oscillator_superpotential(2, 0.5))
        v_minus, v_plus = pair.v_minus(GRID), pair.v_plus(GRID)
        defect = np.abs(v_minus - v_plus - pair.superpotential.u_double_prime(GRID))
        assert np.max(defect / np.maximum(np.abs(v_minus), np.abs(v_plus))) < 1e-15

    def test_shift_coefficients(self):
        coul = SusyPair(coulomb_superpotential(1, 0.0))
        assert coul.shift_constant == 0.0
        assert coul.centrifugal_shift_coeff == 4.0
        osc = SusyPair(oscillator_superpotential(1, 0.5))
        assert osc.shift_constant == 2.0
        assert osc.centrifugal_shift_coeff == 5.0

    @pytest.mark.parametrize(
        "u",
        [coulomb_superpotential(0, 0.0), coulomb_superpotential(2, -0.5),
         oscillator_superpotential(0, 0.0), oscillator_superpotential(1, 1.5)],
        ids=["coulomb-s", "coulomb-planar", "oscillator-s", "oscillator-d6"],
    )
    def test_operators_match_pointwise_potentials(self, u):
        # the assembled RadialOperator must agree with direct V+- evaluation
        pair = SusyPair(u)
        grid = np.linspace(0.1, 20.0, 150)
        assert np.max(np.abs(pair.plus_operator().potential(grid) - pair.v_plus(grid))) < 1e-12
        assert np.max(np.abs(pair.minus_operator().potential(grid) - pair.v_minus(grid))) < 1e-12

    @pytest.mark.parametrize("power", [1, 2])
    def test_refuses_coefficients_whose_products_leave_float_range(self, power):
        with pytest.raises(AdmissibilityError, match="partner coefficients"):
            SusyPair(Superpotential(1e200, -2.0, power))
        with pytest.raises(AdmissibilityError, match="partner coefficients"):
            SusyPair(Superpotential(1.0, -1e200, power))

    @settings(derandomize=True, max_examples=200, deadline=None)
    @given(
        dimension=st.integers(2, 12),
        angular=st.integers(0, 200),
        oscillator_family=st.booleans(),
        grid_max=st.floats(1e-2, 1e3),
        points=st.integers(1, 400),
    )
    def test_shift_identity_defect_is_rounding(
        self, dimension, angular, oscillator_family, grid_max, points
    ):
        # relative to the partners, the identity holds to rounding for both families
        factory = oscillator_superpotential if oscillator_family else coulomb_superpotential
        pair = SusyPair(factory(angular, coulomb.gamma_shift(dimension)))
        grid = np.linspace(grid_max / points, grid_max, points)
        assert shift_identity_defect(pair, grid) <= 1e-12

    @pytest.mark.parametrize(
        "pair, grid",
        [(SusyPair(oscillator_superpotential(0, -0.5)), np.linspace(0.1, 12.0, 120)),
         (SusyPair(oscillator_superpotential(4, 2.0)), np.linspace(0.1, 12.0, 120))],
        ids=["oscillator-d2", "oscillator-d7-l4"],
    )
    def test_shift_identity_defect_of_the_verb_defaults(self, pair, grid):
        # the absolute coefficient form gave 3.2e-12 and 1.6e-12 here, past its 1e-12 tolerance
        coeff = (pair.v_minus(grid) - pair.v_plus(grid) - pair.shift_constant) * grid**2
        assert np.max(np.abs(coeff - pair.centrifugal_shift_coeff)) > 1e-12
        assert shift_identity_defect(pair, grid) <= 1e-15

    def test_energy_zero_offsets(self):
        coul = SusyPair(coulomb_superpotential(0, 0.0))
        assert coul.energy_zero_offset == pytest.approx(0.25)
        osc = SusyPair(oscillator_superpotential(0, 0.0))
        assert osc.energy_zero_offset == pytest.approx(-3.0)
        osc2 = SusyPair(oscillator_superpotential(1, 0.5))
        assert osc2.energy_zero_offset == pytest.approx(-(2.0 * 1 + 2.0 * 0.5 + 3.0))

    def test_ground_eigenvalue_of_plus_operator_is_zero(self):
        for pair, ground in [
            (SusyPair(coulomb_superpotential(0, 0.0)), coulomb.CoulombState(3, 1, 0)),
            (SusyPair(oscillator_superpotential(1, 0.0)), oscillator.OscillatorState(3, 1, 1)),
        ]:
            grid = np.linspace(0.2, 10.0, 80)
            res = apply_operator(pair.plus_operator(), ground, grid, 0.0)
            assert np.max(np.abs(res)) / np.max(np.abs(ground.value(grid))) < 1e-12


class TestRadialOperator:
    def test_exactly_one_strength(self):
        with pytest.raises(AdmissibilityError):
            RadialOperator(coulomb_strength=1.0, oscillator_strength=1.0, centrifugal=0.0)
        with pytest.raises(AdmissibilityError):
            RadialOperator(coulomb_strength=0.0, oscillator_strength=0.0, centrifugal=2.0)

    def test_potential_values(self):
        op = RadialOperator(coulomb_strength=1.0, oscillator_strength=0.0,
                            centrifugal=2.0, constant_shift=0.25)
        assert op.potential(2.0) == pytest.approx(0.25 - 0.5 + 0.5)

    def test_refuses_a_value_out_of_float_range(self):
        op = RadialOperator(1.0, 0.0, 2.0)
        with pytest.raises(DomainError, match=r"^V\(5e-324\) is out of float range$"):
            op.potential(np.array([1.0, 5e-324]))

    def test_rejects_nonpositive_grid(self):
        op = RadialOperator(1.0, 0.0, 0.0)
        with pytest.raises(DomainError):
            op.potential(np.array([1.0, 0.0]))
        with pytest.raises(DomainError):
            apply_operator(op, _Zero(), np.array([-1.0, 2.0]))


class TestApplyOperator:
    def test_hydrogen_ground_eigen_equation(self):
        state = coulomb.CoulombState(3, 1, 0)
        grid = np.linspace(0.1, 30.0, 300)
        assert state.energy == -0.5
        res = apply_operator(state.operator(), state, grid, state.operator_eigenvalue())
        assert np.max(np.abs(res)) / np.max(np.abs(state.value(grid))) < 1e-8

    def test_zero_function(self):
        op = RadialOperator(1.0, 0.0, 2.0)
        res = apply_operator(op, _Zero(), GRID, eigenvalue=1.0)
        assert np.all(res == 0.0)

    def test_oscillator_bracket_eigenvalue(self):
        state = oscillator.OscillatorState(3, 1, 1)
        assert state.operator_eigenvalue() == 5.0
        grid = np.linspace(0.05, 6.0, 200)
        res = apply_operator(state.operator(), state, grid, 5.0)
        assert np.max(np.abs(res)) / np.max(np.abs(state.value(grid))) < 1e-8

    def test_raw_action_without_eigenvalue(self):
        state = coulomb.CoulombState(3, 1, 0)
        grid = np.linspace(0.5, 10.0, 40)
        raw = apply_operator(state.operator(), state, grid)
        assert np.max(np.abs(raw - state.operator_eigenvalue() * state.value(grid))) < 1e-12


class TestSupercharge:
    def test_annihilates_hydrogen_ground(self):
        u = coulomb_superpotential(0, 0.0)
        ground = coulomb.CoulombState(3, 1, 0)
        grid = np.linspace(0.1, 30.0, 200)
        out = apply_supercharge(u, ground, grid)
        assert np.max(np.abs(out)) / np.max(np.abs(ground.value(grid))) < 1e-8

    def test_annihilates_oscillator_ground(self):
        u = oscillator_superpotential(0, 0.0)
        ground = oscillator.OscillatorState(3, 0, 0)
        grid = np.linspace(0.05, 5.0, 200)
        out = apply_supercharge(u, ground, grid)
        assert np.max(np.abs(out)) / np.max(np.abs(ground.value(grid))) < 1e-8

    def test_zero_function(self):
        out = apply_supercharge(coulomb_superpotential(0, 0.0), _Zero(), GRID)
        assert np.all(out == 0.0)

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_intertwining_hydrogen_tower(self, n):
        # A maps the l=0 tower onto the l=1 tower at the same shifted eigenvalue
        pair = SusyPair(coulomb_superpotential(0, 0.0))
        psi = coulomb.CoulombState(3, n, 0)
        image = SuperchargeImage(pair.superpotential, psi)
        grid = np.linspace(0.2, 40.0, 250)
        eps = 0.5 * psi.energy + pair.energy_zero_offset
        res = apply_operator(pair.minus_operator(), image, grid, eps)
        assert np.max(np.abs(res)) / np.max(np.abs(image.value(grid))) < 1e-7

    @pytest.mark.parametrize("n", [2, 3])
    def test_image_proportional_to_partner_state(self, n):
        pair = SusyPair(coulomb_superpotential(0, 0.0))
        image = SuperchargeImage(pair.superpotential, coulomb.CoulombState(3, n, 0))
        partner = coulomb.CoulombState(3, n, 1)
        grid = np.linspace(0.4, 18.0, 50)
        ratio = image.value(grid) / partner.value(grid)
        assert np.max(np.abs(ratio / ratio[0] - 1.0)) < 1e-10

    def test_image_derivatives_match_finite_differences(self):
        pair = SusyPair(coulomb_superpotential(0, 0.0))
        image = SuperchargeImage(pair.superpotential, coulomb.CoulombState(3, 3, 0))
        xs = np.linspace(0.8, 12.0, 9)
        h = 1e-6
        fd1 = (image.value(xs + h) - image.value(xs - h)) / (2.0 * h)
        fd2 = (image.value(xs + h) - 2.0 * image.value(xs) + image.value(xs - h)) / h**2
        assert np.max(np.abs(fd1 - image.derivative(xs))) < 1e-6
        assert np.max(np.abs(fd2 - image.second_derivative(xs))) < 1e-4


def _criterion_four_families():
    """Per family, verify criterion 4's (superpotential, ground state, grid) annihilation cases."""
    for superpotential, exact, ground_gap, dims, _ in verify._SUSY_FAMILIES:
        us, grounds = zip(*[(superpotential(l, coulomb.gamma_shift(d)), exact(d, l + ground_gap, l))
                            for d in dims for l in range(4)])
        grids = np.broadcast_to(verify._state_grids(grounds), (len(grounds), 240))
        yield list(zip(us, grounds, grids))


class TestAnnihilationBatch:
    def test_each_row_has_the_bits_of_the_one_row_residual(self):
        count = 0
        for cases in _criterion_four_families():
            us, grounds, grids = zip(*cases)
            batch = annihilation_residuals(us, grounds, np.array(grids))
            for (u, ground, grid), got in zip(cases, batch.tolist()):
                alone = annihilation_residual(u, ground, grid)
                # and as the supercharge image and the ground state's value give it, built apart
                image = np.max(np.abs(apply_supercharge(u, ground, grid)))
                assert got.hex() == alone.hex() == float(image / np.max(np.abs(ground.value(grid)))).hex()
                assert got < 1e-8
                count += 1
        assert count == 36

    def test_one_shared_grid_serves_every_row(self):
        us, grounds, _ = zip(*next(_criterion_four_families()))
        shared = annihilation_residuals(us, grounds, GRID)
        assert shared.tolist() == [annihilation_residual(u, g, GRID) for u, g in zip(us, grounds)]

    def test_the_superpotentials_share_one_power(self):
        grounds = [coulomb.CoulombState(3, 1, 0), oscillator.OscillatorState(3, 0, 0)]
        with pytest.raises(ValueError):
            annihilation_residuals([coulomb_superpotential(0), oscillator_superpotential(0)], grounds, GRID)


class TestSpectrumDegeneracy:
    @pytest.mark.parametrize(("dimension", "angular"), [(3, 0), (3, 2), (2, 0), (5, 1)])
    def test_coulomb_towers(self, dimension, angular):
        bosonic, fermionic = coulomb.partner_spectra(dimension, angular, 8)
        assert bosonic[0] == 0.0
        # identical floats, not approximately equal ones; the unpaired
        # zero mode means the fermionic tower is one entry shorter
        assert fermionic == bosonic[1:]
        assert all(b >= 0.0 for b in bosonic)

    @pytest.mark.parametrize(("dimension", "angular"), [(3, 0), (2, 1), (6, 2)])
    def test_oscillator_towers(self, dimension, angular):
        bosonic, fermionic = oscillator.partner_spectra(dimension, angular, 8)
        assert bosonic[0] == 0.0
        assert fermionic == bosonic[1:]

    def test_oscillator_tower_values(self):
        bosonic, fermionic = oscillator.partner_spectra(3, 0, 4)
        assert bosonic == (0.0, 4.0, 8.0, 12.0)
        assert fermionic == (4.0, 8.0, 12.0)

    def test_coulomb_tower_values(self):
        bosonic, _ = coulomb.partner_spectra(3, 0, 3)
        # 1/4 - 1/(4n^2) for n = 1, 2, 3
        assert bosonic == (0.0, 3.0 / 16.0, 2.0 / 9.0)
