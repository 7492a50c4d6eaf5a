import itertools
import math
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from susyrad import maps, reports
from susyrad.coulomb import CoulombState
from susyrad.errors import AdmissibilityError, DomainError, VerificationError
from susyrad.maps import (
    MAX_LAMBDA_CANDIDATES,
    ConstraintReport,
    MapSpec,
    default_verification_grid,
    lambda_candidates,
    solve_map_parameters,
    solve_map_sweep,
    verify_map_identities,
    verify_map_identity,
)
from susyrad.oscillator import OscillatorState


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
            gamma = (d - 3) / 2.0
            assert solved.target_state.energy == 2.0 * (n + gamma)


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


class TestSolvedMapKeepsStates:
    def _count_states(self, monkeypatch):
        calls = Counter()
        for cls in (CoulombState, OscillatorState):
            def counted(*args, _cls=cls, **kwargs):
                calls[_cls.__name__] += 1
                return _cls(*args, **kwargs)

            monkeypatch.setattr(maps, cls.__name__, counted)
        return calls

    def test_exact_lambda_builds_one_pair(self, monkeypatch):
        calls = self._count_states(monkeypatch)
        record = reports.map_record((3, 2, 0), [1])
        assert record.rows[0]["N"] == 3
        assert calls == Counter(CoulombState=1, OscillatorState=1)

    def test_breaking_source_builds_one_more(self, monkeypatch):
        calls = self._count_states(monkeypatch)
        record = reports.map_record(
            (3, 2, 0), [Fraction(1, 2)], mode="broken", delta=0.25, Delta=0.5
        )
        assert record.rows[0]["constancy_defect"] < 1e-8
        assert calls == Counter(CoulombState=2, OscillatorState=1)

    def test_states_are_the_solved_ones(self):
        spec = solve_map_parameters((3, 3, 1), Fraction(1, 2), mode="broken", delta=0.3,
                                    i=1, Delta=0.55, I=1)
        assert (spec.source_state.n_star, spec.source_state.l_star) == (2.7, 1.7)
        assert spec.source_state.shift == 1
        assert (spec.target_state.principal, spec.target_state.angular) == spec.target[1:]
        assert spec.target_state.anharmonicity == 0.55

    def test_states_take_no_part_in_equality_or_repr(self):
        first = solve_map_parameters((3, 2, 0), 1)
        second = solve_map_parameters((3, 2, 0), 1)
        assert first.source_state is not second.source_state
        assert first == second
        assert "state" not in repr(first)


    def test_a_sweep_builds_its_sources_once(self, monkeypatch):
        calls = self._count_states(monkeypatch)
        lams = [Fraction(k, 2) for k in range(-2, 5)]
        solved = solve_map_sweep((4, 3, 1), lams, "broken", delta=0.25, Delta=0.5)
        # the plain source and the defect source once, and a target per candidate that reaches it
        admissible = [spec for spec in solved if isinstance(spec, MapSpec)]
        assert len(admissible) == 3
        assert calls == Counter(CoulombState=2, OscillatorState=len(admissible))
        assert len({id(spec.source_state) for spec in admissible}) == 1


def _starred(spec):
    return tuple((state.n_star, state.l_star) for state in (spec.source_state, spec.target_state))


class TestSolveSweep:
    @settings(derandomize=True, max_examples=300, deadline=None)
    @given(
        d=st.integers(2, 6),
        n=st.integers(1, 5),
        l_draw=st.integers(0, 4),
        lo=st.integers(-4, 8),
        width=st.integers(0, 6),
        mode=st.sampled_from(["exact", "broken"]),
        delta=st.integers(0, 3).map(lambda k: k / 4.0),
        i=st.integers(0, 4),
        Delta=st.integers(0, 6).map(lambda k: k / 4.0),
        I=st.integers(0, 2),
    )
    # a defect source whose shift leaves no polynomial degree is refused in every admissible row
    @example(d=3, n=2, l_draw=1, lo=0, width=4, mode="broken", delta=0.0, i=1, Delta=0.0, I=0)
    def test_a_sweep_is_its_lambdas_solved_alone(self, d, n, l_draw, lo, width, mode, delta, i, Delta, I):
        l = l_draw % n
        lams = [Fraction(k, 2) for k in range(lo, lo + width + 1)]
        breaking = {} if mode == "exact" else {"delta": delta, "i": i, "Delta": Delta, "I": I}
        swept = solve_map_sweep((d, n, l), lams, mode, **breaking)
        alone = [solve_map_parameters((d, n, l), lam, mode, **breaking) for lam in lams]
        assert len(swept) == len(alone)
        for got, want in zip(swept, alone):
            assert type(got) is type(want)
            if isinstance(want, MapSpec):
                assert got == want and got.target == want.target
                assert _starred(got) == _starred(want)
            else:
                assert got.violations == want.violations

    def test_a_refused_source_is_named_where_the_target_is_reached(self):
        solved = solve_map_sweep((3, 2, 1), [0, Fraction(1, 2), 1], "broken", i=1)
        assert [type(spec) for spec in solved] == [ConstraintReport] * 3
        assert solved[1].violations == ("2*(Delta - delta) + lambda = 0.5 is not an integer",
                                        "target N = 2.5 is not an integer", "target L = 4.5 is not an integer")
        for report in (solved[0], solved[2]):
            assert report.violations[0] == "source polynomial degree n-l-i-1 = -1 is negative for n=2 l=1 i=1"
            assert report.violations[1].startswith("target angular number")

    def test_preconditions_raise_as_the_first_lambda_would(self):
        for source, lams, breaking in (((1, 1, 0), [0, 1], {}), ((3, 2, 0), [0], {"delta": 1.0}),
                                       ((3, 2, 0), [0, 1], {"mode": "fuzzy"})):
            with pytest.raises(AdmissibilityError) as alone:
                solve_map_parameters(source, lams[0], **breaking)
            with pytest.raises(AdmissibilityError) as swept:
                solve_map_sweep(source, lams, **breaking)
            assert str(swept.value) == str(alone.value)

    def test_an_empty_sweep_solves_and_checks_nothing(self):
        assert solve_map_sweep((1, 0, 0), [], mode="fuzzy") == []
        assert reports.map_record((1, 0, 0), []).rows == []


class TestNonFiniteBreaking:
    @pytest.mark.parametrize("Delta", [math.inf, 1e308])
    def test_overflowing_spread_is_a_violation(self, Delta):
        report = solve_map_parameters((3, 2, 0), 1, mode="broken", Delta=Delta)
        assert isinstance(report, ConstraintReport)
        assert report.violations[0] == "2*(Delta - delta) + lambda = inf is not an integer"

    @pytest.mark.parametrize("lam", [math.inf, math.nan])
    def test_non_finite_lambda_is_a_violation(self, lam):
        report = solve_map_parameters((3, 2, 0), lam)
        assert report.violations == (f"lambda = {lam} is not an integer or half-integer",)


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
        # a complex grid is refused, not measured at its real parts
        with pytest.raises(DomainError, match="verification grid must be real"):
            verify_map_identity(spec, np.array([0.5 + 1j, 1.0]))

    def test_grid_is_checked_once_with_its_error_types(self):
        spec = solve_map_parameters((3, 1, 0), 1)
        for bad, error, message in (
            (np.ones((2, 2)), VerificationError, "one-dimensional"),
            ([-math.inf, 1.0], VerificationError, "strictly positive"),
            ([0.0, math.nan], VerificationError, "strictly positive"),
            ([math.nan, 1.0], DomainError, "radial coordinate must be finite"),
            ([1.0, math.inf], DomainError, "radial coordinate must be finite"),
        ):
            with pytest.raises(error, match=message):
                verify_map_identity(spec, bad)

    def test_default_grid_is_built_once_and_read_only(self):
        grid = default_verification_grid()
        assert grid is default_verification_grid()
        assert np.array_equal(grid, np.geomspace(0.2, 3.0, 64))
        with pytest.raises(ValueError):
            grid[0] = 1.0
        spec = solve_map_parameters((3, 2, 1), 0)
        assert verify_map_identity(spec).grid is grid


def _admissible_specs():
    """Every admissible spec of d 2-5, n 1-4, lambda 0-3/2, delta, Delta in {0, 0.25, 0.5}, i, I in {0, 1}."""
    specs = []
    for d, n, twice_lam, delta, Delta, i, I in itertools.product(
        range(2, 6), range(1, 5), range(4), (0.0, 0.25, 0.5), (0.0, 0.25, 0.5), (0, 1), (0, 1)
    ):
        lam = Fraction(twice_lam, 2)
        exact = lam.denominator == 1 and delta == Delta == 0.0 and i == I == 0
        for l in range(n):
            spec = solve_map_parameters(
                (d, n, l), lam, mode="exact" if exact else "broken", delta=delta, i=i, Delta=Delta, I=I
            )
            if isinstance(spec, MapSpec):
                specs.append(spec)
    return specs


ADMISSIBLE_SPECS = _admissible_specs()
NODE_GRID = np.sort(np.concatenate([np.linspace(0.3, 2.5, 40), [math.sqrt(3.0 - math.sqrt(3.0))]]))
BATCH_GRIDS = {"default": None, "node": NODE_GRID, "tail": np.array([0.5, 1.0, 40.0])}


def _lone_form_measure(spec, grid):
    """(ratios, included, constancy_defect, scale_factor) from each state's own value, or None."""
    src, tgt = spec.source_state, spec.target_state
    grid = default_verification_grid() if grid is None else grid
    target = tgt.value(grid)
    included = np.abs(target) > 1e-6 * np.max(np.abs(target))
    if included.sum() < 2:
        return None
    ratios = np.full_like(grid, np.nan)
    ratios[included] = src.value((src.n_star + src.gamma) * grid[included] ** 2) / (
        np.sqrt(grid[included]) * target[included]
    )
    used = ratios[included]
    mean = float(np.mean(used))
    return ratios, included, float((np.max(used) - np.min(used)) / max(abs(mean), 1e-300)), mean


def _bits(check):
    return (check.ratios.tobytes(), check.included.tobytes(),
            check.constancy_defect.hex(), check.scale_factor.hex())


class TestVerifyIdentities:
    def test_pool_holds_exact_and_broken_specs(self):
        assert len(ADMISSIBLE_SPECS) > 500
        assert {(spec.delta_defect, spec.anharmonicity) for spec in ADMISSIBLE_SPECS} >= {
            (0.0, 0.0), (0.25, 0.0), (0.0, 0.25), (0.5, 0.5), (0.25, 0.5)
        }

    @settings(derandomize=True, max_examples=150, deadline=None)
    @given(st.lists(st.sampled_from(ADMISSIBLE_SPECS), min_size=1, max_size=12),
           st.sampled_from(sorted(BATCH_GRIDS)))
    def test_each_row_has_the_bits_of_its_spec_alone(self, specs, grid_name):
        grid = BATCH_GRIDS[grid_name]
        lone = [_lone_form_measure(spec, grid) for spec in specs]
        if None in lone:
            # a row with fewer than two included points refuses the whole batch, as it refuses alone
            with pytest.raises(VerificationError, match="target node"):
                verify_map_identity(specs[lone.index(None)], grid)
            with pytest.raises(VerificationError, match="target node"):
                verify_map_identities(specs, grid)
            return
        for spec, row, want in zip(specs, verify_map_identities(specs, grid), lone):
            alone = verify_map_identity(spec, grid)
            assert _bits(row) == _bits(alone)
            ratios, included, defect, scale = want
            assert _bits(alone) == (ratios.tobytes(), included.tobytes(), defect.hex(), scale.hex())

    def test_one_row_on_nodes_refuses_the_batch(self):
        tail = BATCH_GRIDS["tail"]
        refused = next(spec for spec in ADMISSIBLE_SPECS if _lone_form_measure(spec, tail) is None)
        with pytest.raises(VerificationError, match="target node"):
            verify_map_identities([solve_map_parameters((3, 1, 0), 1), refused], tail)

    def test_no_spec_is_no_row(self):
        assert verify_map_identities([]) == []
        with pytest.raises(VerificationError):
            verify_map_identities([], np.array([1.0]))

    def test_a_source_never_sees_an_excluded_point(self, monkeypatch):
        seen = []
        original = maps.family_derivatives

        def recording(forms, grid, orders):
            seen.append(grid)
            return original(forms, grid, orders)

        monkeypatch.setattr(maps, "family_derivatives", recording)
        spec = solve_map_parameters((3, 3, 0), 1)
        (check,) = verify_map_identities([spec], NODE_GRID)
        assert check.excluded_count == 1
        targets, sources = seen
        nu_star = spec.source_state.n_star + spec.source_state.gamma
        assert set(sources.ravel().tolist()) == set((nu_star * NODE_GRID[check.included] ** 2).tolist())


def _sweep(source, lo, hi, mode="exact", **breaking):
    """The map verb's sweep of a window: map_record over lambda_candidates(lo, hi, mode)."""
    return reports.map_record(source, lambda_candidates(lo, hi, mode), mode, **breaking)


def _admissible(record):
    return [row for row in record.rows if "violations" not in row]


class TestEnumerate:
    def test_hydrogen_ground_window(self):
        rows = _admissible(_sweep((3, 1, 0), 0, 2))
        assert [(row["D"], row["N"], row["L"]) for row in rows] == [(4, 0, 0), (2, 1, 1)]
        assert [row["lambda"] for row in rows] == [0.0, 1.0]

    def test_rows_follow_the_candidate_grid(self):
        record = _sweep((4, 3, 1), -2, 2)
        assert [row["lambda"] for row in record.rows] == [-2.0, -1.0, 0.0, 1.0, 2.0]

    def test_broken_mode_scans_half_integers(self):
        rows = _admissible(_sweep((3, 1, 0), 0, 1, "broken", Delta=0.25))
        assert 0.5 in [row["lambda"] for row in rows]

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

    @pytest.mark.parametrize("mode, first, span", [
        ("exact", 1, MAX_LAMBDA_CANDIDATES),
        ("broken", Fraction(1, 2), MAX_LAMBDA_CANDIDATES // 2),
    ])
    def test_grid_length_is_capped(self, mode, first, span):
        assert len(lambda_candidates(first, span, mode)) == MAX_LAMBDA_CANDIDATES
        with pytest.raises(AdmissibilityError, match="more than the limit"):
            lambda_candidates(0, span, mode)
        with pytest.raises(AdmissibilityError, match="more than the limit"):
            lambda_candidates(0, Fraction(10) ** 300, mode)

    def test_empty_window_raises(self):
        with pytest.raises(AdmissibilityError, match="no candidate lambda values"):
            lambda_candidates(0.6, 0.9)

    def test_every_entry_verifies(self):
        rows = _admissible(_sweep((5, 2, 1), -1, 2))
        assert rows and all(row["constancy_defect"] < 1e-8 for row in rows)
