"""Builders for the records each CLI verb emits.

Kept separate from the click layer so the verification suite and the tests
can use the exact code path the CLI uses without spawning a process.
"""

from __future__ import annotations

import numpy as np

from . import coulomb, geonium, maps, oscillator, susy
from .errors import AdmissibilityError
from .output import Diagnostic, OutputRecord

RESIDUAL_TOL = 1e-8
SHIFT_IDENTITY_TOL = 1e-12
MAP_CONSTANCY_TOL = 1e-8
FREQUENCY_MATCH_TOL = 1e-12

COULOMB_SIDE = ("coulomb", "defect", "hydrogen")
OSCILLATOR_SIDE = ("oscillator", "anharmonic")


def parse_range(text: str) -> list[int]:
    """'2' -> [2]; '1..4' -> [1, 2, 3, 4]."""
    text = text.strip()
    if ".." in text:
        lo, hi = text.split("..", 1)
        lo, hi = int(lo), int(hi)
        if hi < lo:
            raise ValueError(f"empty range {text!r}")
        return list(range(lo, hi + 1))
    return [int(text)]


def _count_nodes(values):
    values = np.asarray(values, dtype=float)
    floor = 1e-12 * np.max(np.abs(values))
    live = values[np.abs(values) > floor]
    if live.size < 2:
        return 0
    return int(np.sum(np.sign(live[:-1]) * np.sign(live[1:]) < 0))


def _relative_residual(state, grid):
    res = susy.apply_operator(state.operator(), state, grid, state.operator_eigenvalue())
    scale = np.max(np.abs(state.value(grid)))
    return float(np.max(np.abs(res)) / scale)


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
    """Amplitude table plus residual and node-count diagnostics."""
    if not (0.0 < grid_min < grid_max):
        raise AdmissibilityError("grid bounds must satisfy 0 < min < max")
    if points < 2:
        raise AdmissibilityError("need at least 2 grid points")
    grid = np.linspace(grid_min, grid_max, points)

    if family == "hydrogen":
        if dimension != 3:
            raise AdmissibilityError("the hydrogen R family is three-dimensional")
        values = coulomb.eval_hydrogen_R(n, l, grid)
        residual_state = coulomb.CoulombState(3, n, l)
        residual = _relative_residual(residual_state, 2.0 * grid)
        coord = "r"
    else:
        make = _state_factory(family, dimension, model)
        state = make(n, l)
        values = state.value(grid)
        residual = _relative_residual(state, grid)
        coord = "Y" if family in OSCILLATOR_SIDE else "y"

    rows = [{coord: float(x), "amplitude": float(v)} for x, v in zip(grid, values)]
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
    grid = np.linspace(grid_min, grid_max, points)
    vp = pair.v_plus(grid)
    vm = pair.v_minus(grid)
    rows = [
        {"x": float(x), "v_plus": float(a), "v_minus": float(b), "difference": float(b - a)}
        for x, a, b in zip(grid, vp, vm)
    ]
    shift_defect = float(
        np.max(np.abs((vm - vp - pair.shift_constant) * grid**2 - pair.centrifugal_shift_coeff))
    )
    annihilation = float(
        np.max(np.abs(susy.apply_supercharge(u, ground, grid)))
        / np.max(np.abs(ground.value(grid)))
    )
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


def map_record(source, lam_values, mode="exact", delta=0.0, i=0, Delta=0.0, I=0, grid=None) -> OutputRecord:
    """One row per candidate lambda: solved target plus measured ratio data."""
    rows = []
    worst = 0.0
    verified_any = False
    for lam in lam_values:
        row = {"lambda": float(lam)}
        solved = maps.solve_map_parameters(source, lam, mode=mode, delta=delta, i=i, Delta=Delta, I=I)
        if isinstance(solved, maps.ConstraintReport):
            row["violations"] = "; ".join(solved.violations)
        else:
            check = maps.verify_map_identity(solved, grid)
            big_d, big_n, big_l = solved.target
            row.update(
                D=big_d,
                N=big_n,
                L=big_l,
                constancy_defect=check.constancy_defect,
                scale_factor=check.scale_factor,
                excluded_points=check.excluded_count,
            )
            worst = max(worst, check.constancy_defect)
            verified_any = True
        rows.append(row)
    diagnostics = []
    if verified_any:
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
        {
            "quantity": "cyclotron",
            "angular_frequency_rad_s": freqs.cyclotron,
            "frequency_hz": freqs.cyclotron / (2.0 * np.pi),
        },
        {
            "quantity": "axial",
            "angular_frequency_rad_s": freqs.axial,
            "frequency_hz": freqs.axial / (2.0 * np.pi),
        },
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
    """Geonium tower at fixed L; optional SI column when a trap config is given."""
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
