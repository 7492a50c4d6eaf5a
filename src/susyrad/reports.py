"""Builders for the records each CLI verb emits.

Kept separate from the click layer so the verification suite and the tests
can use the exact code path the CLI uses without spawning a process.
"""

from __future__ import annotations

import math

from . import coulomb, oscillator
from ._np import _lazy_module, np
from .errors import AdmissibilityError
from .output import Diagnostic, OutputRecord

# bound, not executed: a verb runs the grid and map layers only when its record uses them
_grid, geonium, maps, susy = (
    _lazy_module(f"{__package__}.{name}") for name in ("_grid", "geonium", "maps", "susy")
)

RESIDUAL_TOL = 1e-8
SHIFT_IDENTITY_TOL = 1e-12
MAP_CONSTANCY_TOL = 1e-8
FREQUENCY_MATCH_TOL = 1e-12

# upper bounds on the counts a caller sets, checked before anything is allocated
MAX_GRID_POINTS = 100_000
MAX_TABLE_ROWS = 10_000
# the CLI's bound on the size of a quantum number, dimension or integer shift: a huge one
# overflows float arithmetic, and n sets the degree of the Laguerre recurrence
MAX_QUANTUM_NUMBER = 10_000

OSCILLATOR_SIDE = ("oscillator", "anharmonic")


def parse_range(text: str) -> list[int]:
    """'2' -> [2]; '1..4' -> [1, 2, 3, 4]; at most MAX_TABLE_ROWS values."""
    text = text.strip()
    if ".." in text:
        lo, hi = text.split("..", 1)
        lo, hi = int(lo), int(hi)
        if hi < lo:
            raise ValueError(f"empty range {text!r}")
        _check_rows(f"range {text!r}", hi - lo + 1)
        return list(range(lo, hi + 1))
    return [int(text)]


def _check_rows(what, count):
    if count > MAX_TABLE_ROWS:
        raise AdmissibilityError(f"{what} has {count} rows; the limit is {MAX_TABLE_ROWS}")


def _count_nodes(values):
    values = np.asarray(values, dtype=float)
    floor = 1e-12 * np.max(np.abs(values))
    live = values[np.abs(values) > floor]
    if live.size < 2:
        return 0
    return int(np.sum(np.sign(live[:-1]) * np.sign(live[1:]) < 0))


def _check_grid(grid_min, grid_max, points):
    """Refuse a linear grid unless 0 < min < max and 2 <= points <= MAX_GRID_POINTS."""
    if not (0.0 < grid_min < grid_max):
        raise AdmissibilityError("grid bounds must satisfy 0 < min < max")
    if points < 2:
        raise AdmissibilityError("need at least 2 grid points")
    if points > MAX_GRID_POINTS:
        raise AdmissibilityError(f"{points} grid points exceed the limit of {MAX_GRID_POINTS}")


def _relative_residuals(states, grids):
    """max |residual| / max |value| of each state, on its row of grids or all on one 1-D grid.

    The states are forms of one class; each operator's coefficients and
    eigenvalue enter as columns.
    """
    grids = _grid.positive_grid(grids)
    value, curvature = _grid.family_derivatives(states, grids, (0, 2))
    potential = susy.radial_potential(grids, *_grid.columns([s.operator()._coefficients() for s in states]))
    (eigenvalues,) = _grid.columns([(s.operator_eigenvalue(),) for s in states])
    res = susy.residual(value, curvature, potential, eigenvalues)
    return np.abs(res).max(axis=-1) / np.abs(value).max(axis=-1)


def _value_and_residual(state, grid):
    """The state's values on grid and its _relative_residuals, from one build and its operator's floats."""
    grid = _grid.positive_grid(grid)
    value, curvature = state.derivatives(grid, (0, 2))
    res = susy.residual(value, curvature, state.operator()._potential(grid), state.operator_eigenvalue())
    return value, float(np.abs(res).max() / np.abs(value).max())


def _state_factory(family, dimension, model):
    if family == "coulomb":
        return lambda n, l: coulomb.CoulombState(dimension, n, l)
    if family == "oscillator":
        return lambda n, l: oscillator.OscillatorState(dimension, n, l)
    if family in ("defect", "anharmonic"):
        if model is None:
            raise AdmissibilityError(f"{family} family requires a model configuration")
        return model.state
    raise AdmissibilityError(f"unknown family {family!r}")


def spectrum_record(family, dimension, n_values, l_values, model=None) -> OutputRecord:
    """Energy table over the (n, l) grid; inadmissible rows carry an error."""
    _check_rows("the (n, l) sweep", len(n_values) * len(l_values))
    make = _state_factory(family, dimension, model)
    upper = family in OSCILLATOR_SIDE
    n_key, l_key = ("N", "L") if upper else ("n", "l")
    columns = [n_key, l_key, f"{n_key}_star", f"{l_key}_star", "energy", "error"]
    rows = []
    for n in n_values:
        for l in l_values:
            row = {n_key: n, l_key: l}
            try:
                state = make(n, l)
                row[f"{n_key}_star"] = state.n_star
                row[f"{l_key}_star"] = state.l_star
                row["energy"] = state.energy
            except AdmissibilityError as exc:
                row["error"] = str(exc)
            rows.append(row)
    return OutputRecord(
        command="spectrum",
        inputs={
            "family": family,
            "dimension": dimension,
            n_key: f"{n_values[0]}..{n_values[-1]}" if len(n_values) > 1 else str(n_values[0]),
            l_key: f"{l_values[0]}..{l_values[-1]}" if len(l_values) > 1 else str(l_values[0]),
        },
        columns=columns,
        rows=rows,
    )


def wavefunction_record(family, dimension, n, l, grid_min, grid_max, points, model=None) -> OutputRecord:
    """Amplitude table plus residual and node-count diagnostics.

    The grid and the state are checked before the grid is built, so a refused
    input never reaches numpy.
    """
    _check_grid(grid_min, grid_max, points)
    if family == "hydrogen":
        if dimension != 3:
            raise AdmissibilityError("the hydrogen R family is three-dimensional")
        # R_nl(r) is the d = 3 Coulomb state at y = 2r, so that state's residual stands for it
        state = coulomb.CoulombState(3, n, l)
        grid = np.linspace(grid_min, grid_max, points)
        values = coulomb.eval_hydrogen_R(n, l, grid)
        residual = _value_and_residual(state, 2.0 * grid)[1]
        coord = "r"
    else:
        state = _state_factory(family, dimension, model)(n, l)
        grid = np.linspace(grid_min, grid_max, points)
        values, residual = _value_and_residual(state, grid)
        coord = "Y" if family in OSCILLATOR_SIDE else "y"

    rows = [{coord: x, "amplitude": v} for x, v in zip(grid.tolist(), values.tolist())]
    upper = family in OSCILLATOR_SIDE
    n_key, l_key = ("N", "L") if upper else ("n", "l")
    return OutputRecord(
        command="wavefunction",
        inputs={
            "family": family,
            "dimension": dimension,
            n_key: n,
            l_key: l,
            "grid_min": grid_min,
            "grid_max": grid_max,
            "points": points,
        },
        columns=[coord, "amplitude"],
        rows=rows,
        diagnostics=[
            Diagnostic("relative_residual", residual, RESIDUAL_TOL),
            Diagnostic("node_count", float(_count_nodes(values)), 0.0),
        ],
    )


def default_wavefunction_grid(family, dimension, n):
    if family == "hydrogen":
        return 0.1, max(10.0, 10.0 * n), 200
    if family in OSCILLATOR_SIDE:
        return 0.05, 6.0, 200
    return 0.05, max(30.0, 20.0 * (n + coulomb.gamma_shift(dimension))), 200


def susy_pair_record(family, dimension, angular, grid_min=0.1, grid_max=12.0, points=120) -> OutputRecord:
    """Partner potentials on a grid plus the shift-identity and annihilation checks."""
    if family == "coulomb":
        u = susy.coulomb_superpotential(angular, coulomb.gamma_shift(dimension))
        ground = coulomb.CoulombState(dimension, angular + 1, angular)
    elif family == "oscillator":
        u = susy.oscillator_superpotential(angular, coulomb.gamma_shift(dimension))
        ground = oscillator.OscillatorState(dimension, angular, angular)
    else:
        raise AdmissibilityError(f"susy-pair supports coulomb or oscillator, got {family!r}")
    pair = susy.SusyPair(u)
    _check_grid(grid_min, grid_max, points)
    grid = np.linspace(grid_min, grid_max, points)
    # the ground state refuses a grid its Laguerre argument overflows on before the partners do
    annihilation = susy.annihilation_residual(u, ground, grid)
    vp = pair.v_plus(grid)
    vm = pair.v_minus(grid)
    difference = vm - vp
    rows = [
        {"x": x, "v_plus": a, "v_minus": b, "difference": diff}
        for x, a, b, diff in zip(grid.tolist(), vp.tolist(), vm.tolist(), difference.tolist())
    ]
    return OutputRecord(
        command="susy-pair",
        inputs={"family": family, "dimension": dimension, "angular": angular},
        columns=["x", "v_plus", "v_minus", "difference"],
        rows=rows,
        diagnostics=[
            Diagnostic("shift_identity_defect", susy.shift_identity_defect(pair, grid), SHIFT_IDENTITY_TOL),
            Diagnostic("ground_annihilation_residual", annihilation, RESIDUAL_TOL),
        ],
    )


def map_record(source, lam_values, mode="exact", delta=0.0, i=0, Delta=0.0, I=0) -> OutputRecord:
    """One row per candidate lambda: solved target plus measured ratio data, all measured in one call."""
    solved = [maps.solve_map_parameters(source, lam, mode=mode, delta=delta, i=i, Delta=Delta, I=I)
              for lam in lam_values]
    checks = maps.verify_map_identities([spec for spec in solved if isinstance(spec, maps.MapSpec)])
    rows, measured = [], iter(checks)
    for lam, spec in zip(lam_values, solved):
        row = {"lambda": float(lam)}
        if isinstance(spec, maps.ConstraintReport):
            row["violations"] = "; ".join(spec.violations)
        else:
            check = next(measured)
            big_d, big_n, big_l = spec.target
            row.update(D=big_d, N=big_n, L=big_l, constancy_defect=check.constancy_defect,
                       scale_factor=check.scale_factor, excluded_points=check.excluded_count)
        rows.append(row)
    diagnostics = []
    if checks:
        worst = max([0.0] + [check.constancy_defect for check in checks])
        diagnostics.append(Diagnostic("max_constancy_defect", worst, MAP_CONSTANCY_TOL))
    return OutputRecord(
        command="map",
        inputs={
            "source": f"d={source[0]} n={source[1]} l={source[2]}",
            "mode": mode,
            "delta": delta,
            "i": i,
            "Delta": Delta,
            "I": I,
        },
        columns=[
            "lambda", "D", "N", "L",
            "constancy_defect", "scale_factor", "excluded_points", "violations",
        ],
        rows=rows,
        diagnostics=diagnostics,
    )


def trap_frequencies_record(config) -> OutputRecord:
    freqs = geonium.trap_frequencies(config)
    rows = [
        {"quantity": name, "angular_frequency_rad_s": omega, "frequency_hz": omega / (2.0 * math.pi)}
        for name, omega in (("cyclotron", freqs.cyclotron), ("axial", freqs.axial))
    ]
    return OutputRecord(
        command="trap frequencies",
        inputs={
            "B_tesla": config.magnetic_field,
            "V_volt": config.electrode_voltage,
            "d_meter": config.trap_length,
            "e_coulomb": config.charge,
            "m_kg": config.mass,
        },
        columns=["quantity", "angular_frequency_rad_s", "frequency_hz"],
        rows=rows,
    )


def trap_operating_point_record(magnetic_field, trap_length, charge, mass) -> OutputRecord:
    voltage = geonium.susy_operating_point(magnetic_field, trap_length, charge, mass)
    config = geonium.TrapConfig(
        magnetic_field=magnetic_field,
        electrode_voltage=voltage,
        trap_length=trap_length,
        charge=charge,
        mass=mass,
    )
    freqs = geonium.trap_frequencies(config)
    return OutputRecord(
        command="trap operating-point",
        inputs={
            "B_tesla": magnetic_field,
            "d_meter": trap_length,
            "e_coulomb": charge,
            "m_kg": mass,
        },
        columns=["V_volt"],
        rows=[{"V_volt": voltage}],
        diagnostics=[
            Diagnostic(
                "frequency_match",
                abs(freqs.cyclotron / freqs.axial - 1.0),
                FREQUENCY_MATCH_TOL,
            )
        ],
    )


def trap_levels_record(angular, n_max, anharmonicity=0.0, config=None) -> OutputRecord:
    """Geonium tower at fixed L; optional SI column when a trap config is given.

    A ladder with no level (N_max below L) is refused, as an empty range is.
    """
    if n_max < angular:
        raise AdmissibilityError(f"empty ladder L={angular}..N_max={n_max}: N_max must be at least L")
    _check_rows(f"the ladder L={angular}..N_max={n_max}", (n_max - angular) // 2 + 1)
    columns = ["N", "L", "Delta", "N_star", "energy_quanta", "error"]
    if config is not None:
        columns.insert(5, "energy_joule")
    rows = []
    for n in range(angular, n_max + 1, 2):
        row = {"N": n, "L": angular, "Delta": anharmonicity}
        try:
            level = geonium.GeoniumLevel(n, angular, anharmonicity)
            row["N_star"] = level.modified_principal
            row["energy_quanta"] = level.energy
            if config is not None:
                row["energy_joule"] = geonium.geonium_energy_si(level, config)
        except AdmissibilityError as exc:
            row["error"] = str(exc)
        rows.append(row)
    return OutputRecord(
        command="trap levels",
        inputs={"L": angular, "N_max": n_max, "Delta": anharmonicity},
        columns=columns,
        rows=rows,
    )
