import math
from fractions import Fraction

import numpy as np
import pytest

from susyrad.errors import AdmissibilityError, VerificationError
from susyrad.maps import (
    ConstraintReport,
    MapSpec,
    default_verification_grid,
    enumerate_admissible_targets,
    lambda_candidates,
    solve_map_parameters,
    verify_map_identity,
)
from susyrad.oscillator import oscillator_energy


class TestSolveExact:
    @pytest.mark.parametrize(("n", "l"), [(1, 0), (2, 0), (2, 1), (4, 2)])
    def test_planar_specialization(self, n, l):
        spec = solve_map_parameters((3, n, l), 1)
        assert isinstance(spec, MapSpec)
        assert spec.target == (2, 2 * n - 1, 2 * l + 1)
        assert spec.lam == Fraction(1)

    def test_hydrogen_ground_to_four_dimensions(self):
        spec = solve_map_parameters((3, 1, 0), 0)
        assert spec.target == (4, 0, 0)

    def test_lambda_two_pushes_dimension_below_floor(self):
        report = solve_map_parameters((3, 1, 0), 2)
        assert isinstance(report, ConstraintReport)
        assert any("below 2" in v for v in report.violations)

    def test_non_integer_lambda_rejected_in_exact_mode(self):
        report = solve_map_parameters((3, 1, 0), 0.5)
        assert isinstance(report, ConstraintReport)
        assert any("not an integer in exact mode" in v for v in report.violations)

    def test_irrational_lambda_reported(self):
        report = solve_map_parameters((3, 1, 0), 0.3)
        assert isinstance(report, ConstraintReport)
        assert any("integer or half-integer" in v for v in report.violations)

    def test_source_validation(self):
        with pytest.raises(AdmissibilityError):
            solve_map_parameters((1, 1, 0), 0)
        with pytest.raises(AdmissibilityError):
            solve_map_parameters((3, 0, 0), 0)
        with pytest.raises(AdmissibilityError):
            solve_map_parameters((3, 2, 2), 0)

    def test_exact_mode_rejects_breaking_parameters(self):
        with pytest.raises(AdmissibilityError):
            solve_map_parameters((3, 1, 0), 0, delta=0.1)
        with pytest.raises(AdmissibilityError):
            solve_map_parameters((3, 1, 0), 0, I=1)

    def test_unknown_mode(self):
        with pytest.raises(AdmissibilityError):
            solve_map_parameters((3, 1, 0), 0, mode="fuzzy")

    @pytest.mark.parametrize("d", range(2, 8))
    def test_even_target_dimension_only(self, d):
        # integer lambda can only reach even D = 2d - 2 - 2*lambda
        for lam in range(-3, 4):
            solved = solve_map_parameters((d, 2, 0), lam)
            if isinstance(solved, MapSpec):
                assert solved.target[0] % 2 == 0

    @pytest.mark.parametrize("d", [2, 3, 4, 5])
    @pytest.mark.parametrize("lam", [0, 1])
    def test_energy_bookkeeping(self, d, lam):
        # target ladder energy collapses to 2(n + gamma), independent of lambda
        for n in range(1, 5):
            solved = solve_map_parameters((d, n, 0), lam)
            if not isinstance(solved, MapSpec):
                continue
            big_d, big_n, _ = solved.target
            gamma = (d - 3) / 2.0
            assert oscillator_energy(big_d, big_n) == 2.0 * (n + gamma)


class TestSolveBroken:
    def test_quarter_integer_reaches_odd_dimension(self):
        spec = solve_map_parameters((3, 1, 0), 0.5, mode="broken", Delta=0.25)
        assert isinstance(spec, MapSpec)
        assert spec.target == (3, 1, 1)
        assert spec.lam == Fraction(1, 2)
        assert spec.anharmonicity == 0.25

    def test_integrality_constraint(self):
        ok = solve_map_parameters((3, 2, 0), 1, mode="broken", delta=0.3, Delta=0.3)
        assert isinstance(ok, MapSpec)
        ok2 = solve_map_parameters((3, 2, 0), 1, mode="broken", delta=0.3, Delta=0.8)
        assert isinstance(ok2, MapSpec)
        bad = solve_map_parameters((3, 2, 0), 1, mode="broken", delta=0.3, Delta=0.55)
        assert isinstance(bad, ConstraintReport)
        assert any("is not an integer" in v for v in bad.violations)

    def test_parameter_range_validation(self):
        with pytest.raises(AdmissibilityError):
            solve_map_parameters((3, 1, 0), 0, mode="broken", delta=1.0)
        with pytest.raises(AdmissibilityError):
            solve_map_parameters((3, 1, 0), 0, mode="broken", Delta=-0.1)
        with pytest.raises(AdmissibilityError):
            solve_map_parameters((3, 1, 0), 0, mode="broken", i=-1)

    def test_zero_breaking_reproduces_exact_spec(self):
        # identical dataclasses, not merely equivalent targets
        for lam in (0, 1):
            for (n, l) in [(1, 0), (3, 1)]:
                exact = solve_map_parameters((3, n, l), lam)
                broken = solve_map_parameters((3, n, l), lam, mode="broken")
                if isinstance(exact, MapSpec):
                    assert broken == exact

    def test_degree_clamp_reported(self):
        # i = 1 eats the only radial node of n = 1
        report = solve_map_parameters(
            (3, 1, 0), 1, mode="broken", delta=0.25, i=1, Delta=0.25
        )
        assert isinstance(report, ConstraintReport)
        assert any("degree" in v for v in report.violations)


class TestVerifyIdentity:
    def test_ground_case_constant_half(self):
        # both sides are Y^{3/2} e^{-Y^2/2} up to norm constants sqrt(1/2)
        # and sqrt(2), so the measured constant is exactly 1/2
        spec = solve_map_parameters((3, 1, 0), 1)
        result = verify_map_identity(spec, np.linspace(0.3, 2.5, 50))
        assert result.constancy_defect < 1e-10
        assert result.scale_factor == pytest.approx(0.5, abs=1e-12)
        assert result.excluded_count == 0

    def test_excited_case_with_node_exclusion(self):
        spec = solve_map_parameters((3, 3, 0), 1)
        node = math.sqrt(3.0 - math.sqrt(3.0))
        grid = np.sort(np.concatenate([np.linspace(0.3, 2.5, 40), [node]]))
        result = verify_map_identity(spec, grid)
        assert result.constancy_defect < 1e-8
        assert result.excluded_count >= 1
        assert np.all(np.isnan(result.ratios[~result.included]))
        assert not np.any(np.isnan(result.ratios[result.included]))

    def test_default_grid(self):
        grid = default_verification_grid()
        assert grid.shape == (64,)
        assert grid[0] == pytest.approx(0.2) and grid[-1] == pytest.approx(3.0)
        spec = solve_map_parameters((3, 2, 1), 0)
        assert verify_map_identity(spec).constancy_defect < 1e-8

    @pytest.mark.parametrize("d", [2, 3, 4, 5])
    @pytest.mark.parametrize("lam", [0, 1])
    def test_exact_sweep(self, d, lam):
        for n in range(1, 4):
            for l in range(n):
                solved = solve_map_parameters((d, n, l), lam)
                if not isinstance(solved, MapSpec):
                    continue
                assert verify_map_identity(solved).constancy_defect < 1e-8

    def test_broken_matches_exact_ratio(self):
        grid = np.linspace(0.4, 2.0, 30)
        exact = verify_map_identity(solve_map_parameters((3, 2, 0), 1), grid)
        broken = verify_map_identity(
            solve_map_parameters((3, 2, 0), 1, mode="broken"), grid
        )
        assert np.max(np.abs(broken.ratios - exact.ratios)) < 1e-10

    def test_broken_identity_with_breaking_on(self):
        spec = solve_map_parameters((3, 2, 0), 0.5, mode="broken", delta=0.25, Delta=0.5)
        assert isinstance(spec, MapSpec)
        assert verify_map_identity(spec).constancy_defect < 1e-8

    def test_underflowed_tail_points_are_flagged_not_fatal(self):
        spec = solve_map_parameters((3, 1, 0), 1)
        result = verify_map_identity(spec, np.array([0.5, 1.0, 40.0]))
        assert result.excluded_count == 1
        assert result.constancy_defect < 1e-10

    def test_all_points_on_nodes_raises(self):
        spec = solve_map_parameters((3, 1, 0), 1)
        with pytest.raises(VerificationError):
            verify_map_identity(spec, np.array([40.0, 41.0]))

    def test_grid_validation(self):
        spec = solve_map_parameters((3, 1, 0), 1)
        with pytest.raises(VerificationError):
            verify_map_identity(spec, np.array([1.0]))
        with pytest.raises(VerificationError):
            verify_map_identity(spec, np.array([-1.0, 1.0]))


class TestEnumerate:
    def test_hydrogen_ground_window(self):
        specs = enumerate_admissible_targets((3, 1, 0), (0, 2))
        assert [s.target for s in specs] == [(2, 1, 1), (4, 0, 0)]
        assert [s.lam for s in specs] == [Fraction(1), Fraction(0)]

    def test_sorted_by_target(self):
        specs = enumerate_admissible_targets((4, 3, 1), (-2, 2))
        targets = [s.target for s in specs]
        assert targets == sorted(targets)

    def test_broken_mode_scans_half_integers(self):
        specs = enumerate_admissible_targets((3, 1, 0), (0, 1), mode="broken", Delta=0.25)
        lams = {s.lam for s in specs}
        assert Fraction(1, 2) in lams

    @pytest.mark.parametrize(
        "lo, hi, mode, expected",
        [(0, 2, "exact", [0, 1, 2]), (-2, 1, "exact", [-2, -1, 0, 1]),
         (0.6, 2.5, "exact", [1, 2]), (Fraction(1, 4), Fraction(3, 2), "broken", [0.5, 1, 1.5]),
         (-1, 0, "broken", [-1, -0.5, 0]), (0.3, 0.5, "broken", [0.5])],
    )
    def test_candidate_grid(self, lo, hi, mode, expected):
        got = lambda_candidates(lo, hi, mode)
        assert got == [Fraction(v) for v in expected]
        assert all(isinstance(lam, Fraction) for lam in got)

    def test_empty_window_raises(self):
        with pytest.raises(AdmissibilityError):
            enumerate_admissible_targets((3, 1, 0), (0.6, 0.9))

    def test_every_entry_verifies(self):
        for spec in enumerate_admissible_targets((5, 2, 1), (-1, 2)):
            assert verify_map_identity(spec).constancy_defect < 1e-8
