"""Builders for the records each CLI verb emits.

Kept separate from the command-line layer so the verification suite and the
tests can use the exact code path the CLI uses without spawning a process.
The CLI's text grammars, a quantum-number range and a lambda, are parsed here
too.  Each builder converts its float parameters once with `as_float`, so a
numeric string builds the same record as its float, a non-number is a typed
error, and integer parameters stay integers.
"""

from __future__ import annotations

import math

from ._np import _lazy_module, as_float, np
from .errors import AdmissibilityError
from .output import Diagnostic, OutputRecord

# bound, not executed: a verb runs the state, grid, trap and map layers only when its record uses them
_grid, coulomb, geonium, maps, oscillator, susy = (
    _lazy_module(f"{__package__}.{name}")
    for name in ("_grid", "coulomb", "geonium", "maps", "oscillator", "susy")
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


def parse_lambda(text: str):
    """One lambda as an exact fraction; 2*lambda must be a finite float for the map solver."""
    from fractions import Fraction  # only map parses an exact number

    text = text.strip()
    try:
        value = Fraction(text)
        finite = math.isfinite(2.0 * float(value))
    except ValueError as exc:  # not a number at all: keep the parser's own message
        raise AdmissibilityError(str(exc)) from exc
    except (ZeroDivisionError, OverflowError):
        finite = False
    if not finite:
        raise AdmissibilityError(f"lambda {text!r} is out of range (2*lambda must be a finite float)")
    return value


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
    """Refuse a linear grid unless 0 < min < max and points is an integer in [2, MAX_GRID_POINTS]."""
    if not (0.0 < grid_min < grid_max):
        raise AdmissibilityError("grid bounds must satisfy 0 < min < max")
    if not isinstance(points, int):  # an int past 2**53 is a grid the limit refuses below
        coulomb.check_integer(points, "points")
    if points < 2:
        raise AdmissibilityError("need at least 2 grid points")
    if points > MAX_GRID_POINTS:
        raise AdmissibilityError(f"{points} grid points exceed the limit of {MAX_GRID_POINTS}")


def _relative_residuals(states, grids):
    """max |residual| / max |value| of each state, on its row of grids or all on one 1-D grid.

    The states are forms of one class; each operator's coefficients, read as
    floats without building the operator, and eigenvalue enter as columns.
    """
    grids = _grid.positive_grid(grids)
    value, curvature = _grid.family_derivatives(states, grids, (0, 2))
    potential = susy.radial_potential(grids, *_grid.columns([s._operator_coefficients() for s in states]))
    (eigenvalues,) = _grid.columns([(s.operator_eigenvalue(),) for s in states])
    res = susy.residual(value, curvature, potential, eigenvalues)
    return np.abs(res).max(axis=-1) / np.abs(value).max(axis=-1)


def _value_and_residual(state, grid, scale=1.0):
    """Values on scale * grid and their _relative_residuals from one build; a refusal names grid's own points."""
    grid = _grid.positive_grid(grid)
    points = scale * grid
    value, curvature = state.derivatives(points, (0, 2))
    peak = np.abs(value).max()
    if peak == 0.0:  # the relative residual would be 0/0
        raise AdmissibilityError(f"the state is zero at every point of its grid, {grid.min():g} to {grid.max():g}")
    with np.errstate(all="ignore"):
        res = susy.residual(value, curvature, state.operator()._potential(points), state.operator_eigenvalue())
    in_range = np.isfinite(value)  # V's 1/x**2 can leave float range at a tiny x; a bad value is left to its row
    _grid.refuse_non_finite(res[in_range], grid[in_range], "residual")
    return value, float(np.abs(res).max() / peak)


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
    if not (len(n_values) and len(l_values)):
        raise AdmissibilityError("the (n, l) sweep needs at least one n and one l")
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
    grid_min, grid_max = as_float(grid_min, "grid_min"), as_float(grid_max, "grid_max")
    _check_grid(grid_min, grid_max, points)
    if family == "hydrogen":
        if dimension != 3:
            raise AdmissibilityError("the hydrogen R family is three-dimensional")
        # R_nl(r) = sqrt(2) psi(2r) / r (eval_hydrogen_R): one pass of psi gives values and residual
        state = coulomb.CoulombState(3, n, l)
        grid = np.linspace(grid_min, grid_max, points)
        value, residual = _value_and_residual(state, grid, 2.0)
        values = math.sqrt(2.0) * value / grid
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
    grid_min, grid_max = as_float(grid_min, "grid_min"), as_float(grid_max, "grid_max")
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
    annihilation = float(susy.annihilation_residuals([u], [ground], grid)[0])
    vp, vm = pair.partners(grid)
    # the shift defect from the partners in hand: one U'/U'' build per record
    shift_defect = float(susy._shift_defects(grid, vp, vm, pair.shift_constant, pair.centrifugal_shift_coeff))
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
            Diagnostic("shift_identity_defect", shift_defect, SHIFT_IDENTITY_TOL),
            Diagnostic("ground_annihilation_residual", annihilation, RESIDUAL_TOL),
        ],
    )


def map_record(source, lam_values, mode="exact", delta=0.0, i=0, Delta=0.0, I=0) -> OutputRecord:
    """One row per candidate lambda: solved as one sweep, and the admissible ones measured in one call."""
    delta, Delta = as_float(delta, "delta"), as_float(Delta, "Delta")
    solved = maps.solve_map_sweep(source, lam_values, mode=mode, delta=delta, i=i, Delta=Delta, I=I)
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
    magnetic_field = as_float(magnetic_field, "magnetic field")
    trap_length = as_float(trap_length, "trap length")
    charge, mass = as_float(charge, "charge"), as_float(mass, "mass")
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

    A non-integer L or N_max is refused by name, and a ladder with no level
    (N_max below L) as an empty range is.
    """
    anharmonicity = as_float(anharmonicity, "anharmonicity")
    coulomb.check_integer(angular, "L")
    if not isinstance(n_max, int):  # an int past 2**53 is a ladder the row limit refuses below
        coulomb.check_integer(n_max, "N_max")
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
            state = oscillator.OscillatorState(2, n, angular, anharmonicity=anharmonicity)
            row["N_star"] = state.n_star
            row["energy_quanta"] = state.energy
            if config is not None:
                row["energy_joule"] = geonium.geonium_energy_si(state, config)
        except AdmissibilityError as exc:
            row["error"] = str(exc)
        rows.append(row)
    return OutputRecord(
        command="trap levels",
        inputs={"L": angular, "N_max": n_max, "Delta": anharmonicity},
        columns=columns,
        rows=rows,
    )
