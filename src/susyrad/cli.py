"""Command-line front end.

Every verb builds an OutputRecord through `reports` (so tests can exercise
the identical code path in-process) and renders it as CSV or JSON.  Fatal
problems exit nonzero through click; per-row admissibility failures are
carried inside the record and never abort a sweep.
"""

from __future__ import annotations

import json
from dataclasses import asdict
from fractions import Fraction

import click
import numpy as np

from . import __version__, geonium, maps, reports
from . import verify as verify_suite
from .config import load_config
from .errors import (
    AdmissibilityError,
    ConfigError,
    ConvergenceError,
    DomainError,
    StabilityError,
    VerificationError,
)

_FATAL = (
    AdmissibilityError,
    ConfigError,
    ConvergenceError,
    DomainError,
    StabilityError,
    VerificationError,
    ValueError,
    OSError,
)


def _build(builder):
    try:
        # an overflow shows up as a non-finite number that rendering refuses with a
        # typed error, so numpy's warnings about it would only repeat that on stderr
        with np.errstate(all="ignore"):
            return builder()
    except _FATAL as exc:
        raise click.ClickException(str(exc)) from exc


def _emit(record, fmt, out_path):
    # rendering refuses non-finite numbers; that is a fatal error, not a traceback
    text = _build(lambda: record.render(fmt))
    if out_path is None:
        click.echo(text, nl=False)
    else:
        with open(out_path, "w", encoding="utf-8") as handle:
            handle.write(text)


def _format_options(fn):
    fn = click.option(
        "--out",
        "out_path",
        type=click.Path(dir_okay=False, writable=True),
        default=None,
        help="Write the record to a file instead of stdout.",
    )(fn)
    fn = click.option(
        "--format",
        "fmt",
        type=click.Choice(["csv", "json"]),
        default="csv",
        show_default=True,
        help="Output format.",
    )(fn)
    return fn


def _config_option(fn):
    return click.option(
        "--config",
        "config_path",
        envvar="SUSYRAD_CONFIG",
        type=click.Path(dir_okay=False),
        default=None,
        help="Configuration file (defaults to $SUSYRAD_CONFIG).",
    )(fn)


def _load_model(family, config_path, dimension):
    if family not in ("defect", "anharmonic"):
        return None
    if config_path is None:
        raise ConfigError(f"the {family} family needs --config (or $SUSYRAD_CONFIG)")
    return load_config(config_path).model(family, dimension)


@click.group()
@click.version_option(version=__version__, prog_name="susyrad")
def main():
    """Radial supersymmetry toolkit: spectra, states, partner pairs, maps, traps."""


@main.command()
@click.option(
    "--family",
    type=click.Choice(["coulomb", "oscillator", "defect", "anharmonic"]),
    default="coulomb",
    show_default=True,
)
@click.option("--dim", "dimension", type=int, default=3, show_default=True)
@click.option("--n", "--N", "n_spec", default=None, help="Value or range, e.g. 2 or 1..6.")
@click.option("--l", "--L", "l_spec", default=None, help="Value or range, e.g. 0 or 0..2.")
@_config_option
@_format_options
def spectrum(family, dimension, n_spec, l_spec, config_path, fmt, out_path):
    """Energy table for one family over a quantum-number grid."""

    def builder():
        model = _load_model(family, config_path, dimension)
        if n_spec is None:
            default_n = "0..8" if family in reports.OSCILLATOR_SIDE else "1..20"
        else:
            default_n = n_spec
        n_values = reports.parse_range(default_n)
        l_values = reports.parse_range(l_spec if l_spec is not None else "0")
        return reports.spectrum_record(family, dimension, n_values, l_values, model=model)

    _emit(_build(builder), fmt, out_path)


@main.command()
@click.option(
    "--family",
    type=click.Choice(["coulomb", "oscillator", "defect", "anharmonic", "hydrogen"]),
    default="coulomb",
    show_default=True,
)
@click.option("--dim", "dimension", type=int, default=3, show_default=True)
@click.option("--n", "--N", "n", type=int, default=1, show_default=True)
@click.option("--l", "--L", "l", type=int, default=0, show_default=True)
@click.option("--grid-min", type=float, default=None, help="First grid point (> 0).")
@click.option("--grid-max", type=float, default=None, help="Last grid point.")
@click.option("--points", type=int, default=None, help="Number of grid points.")
@_config_option
@_format_options
def wavefunction(family, dimension, n, l, grid_min, grid_max, points, config_path, fmt, out_path):
    """Radial amplitude on a grid, with residual and node-count diagnostics."""

    def builder():
        model = _load_model(family, config_path, dimension)
        lo, hi, count = reports.default_wavefunction_grid(family, dimension, n)
        lo = lo if grid_min is None else grid_min
        hi = hi if grid_max is None else grid_max
        count = count if points is None else points
        return reports.wavefunction_record(family, dimension, n, l, lo, hi, count, model=model)

    _emit(_build(builder), fmt, out_path)


@main.command("susy-pair")
@click.option(
    "--family",
    type=click.Choice(["coulomb", "oscillator"]),
    default="coulomb",
    show_default=True,
)
@click.option("--dim", "dimension", type=int, default=3, show_default=True)
@click.option("--l", "--L", "angular", type=int, default=0, show_default=True)
@click.option("--grid-min", type=float, default=0.1, show_default=True)
@click.option("--grid-max", type=float, default=12.0, show_default=True)
@click.option("--points", type=int, default=120, show_default=True)
@_format_options
def susy_pair(family, dimension, angular, grid_min, grid_max, points, fmt, out_path):
    """Partner potentials V+ and V- on a grid, with the shift-identity check."""

    def builder():
        return reports.susy_pair_record(family, dimension, angular, grid_min, grid_max, points)

    _emit(_build(builder), fmt, out_path)


def _lambda_values(lam_spec, lam_range, mode):
    if (lam_spec is None) == (lam_range is None):
        raise AdmissibilityError("give exactly one of --lambda or --lambda-range")
    if lam_spec is not None:
        values = [Fraction(part.strip()) for part in lam_spec.split(",") if part.strip()]
        if not values:
            raise AdmissibilityError(f"no lambda values in {lam_spec!r}")
        return values
    if ".." not in lam_range:
        raise AdmissibilityError(f"--lambda-range wants lo..hi, got {lam_range!r}")
    lo_text, hi_text = lam_range.split("..", 1)
    return maps.lambda_candidates(Fraction(lo_text.strip()), Fraction(hi_text.strip()), mode)


@main.command("map")
@click.option("--d", "dimension", type=int, required=True, help="Source dimension.")
@click.option("--n", type=int, required=True, help="Source principal number.")
@click.option("--l", type=int, required=True, help="Source angular number.")
@click.option("--lambda", "lam_spec", default=None, help="Value or comma list, e.g. 1 or 0.5,1.")
@click.option("--lambda-range", "lam_range", default=None, help="Sweep lo..hi.")
@click.option(
    "--mode", type=click.Choice(["exact", "broken"]), default="exact", show_default=True
)
@click.option("--delta", type=float, default=0.0, show_default=True, help="Quantum defect.")
@click.option("--i", "small_i", type=int, default=0, show_default=True, help="Defect integer shift.")
@click.option("--Delta", "big_delta", type=float, default=0.0, show_default=True, help="Anharmonicity.")
@click.option("--I", "big_i", type=int, default=0, show_default=True, help="Anharmonic integer shift.")
@_format_options
def map_cmd(dimension, n, l, lam_spec, lam_range, mode, delta, small_i, big_delta, big_i, fmt, out_path):
    """Solve Coulomb-to-oscillator maps and measure the identity on a grid."""

    def builder():
        lams = _lambda_values(lam_spec, lam_range, mode)
        return reports.map_record(
            (dimension, n, l), lams, mode=mode, delta=delta, i=small_i, Delta=big_delta, I=big_i
        )

    _emit(_build(builder), fmt, out_path)


def _trap_flag_options(fn):
    fn = click.option("--mass", type=float, default=None, help="Mass in kilograms.")(fn)
    fn = click.option("--charge", type=float, default=None, help="Charge in coulombs.")(fn)
    fn = click.option(
        "--species",
        default="electron",
        show_default=True,
        help="Preset particle (electron or proton); ignored when charge and mass are given.",
    )(fn)
    return fn


def _trap_config_from(b_field, voltage, length, species, charge, mass, config_path, required):
    flags = (b_field, voltage, length)
    if any(flag is not None for flag in flags):
        if any(flag is None for flag in flags):
            raise ConfigError("give all of --B, --V and --d (or use --config)")
        return geonium.trap_config(b_field, voltage, length, species, charge, mass)
    if config_path is not None:
        try:
            return load_config(config_path).trap()
        except ConfigError:
            if required:
                raise
            return None
    if required:
        raise ConfigError("trap parameters missing: give --B --V --d or --config")
    return None


@main.group()
def trap():
    """Penning-trap frequencies, the matched operating point, and level tables."""


@trap.command()
@click.option("--B", "b_field", type=float, default=None, help="Magnetic field in tesla.")
@click.option("--V", "voltage", type=float, default=None, help="Electrode voltage in volts.")
@click.option("--d", "length", type=float, default=None, help="Trap length in meters.")
@_trap_flag_options
@_config_option
@_format_options
def frequencies(b_field, voltage, length, species, charge, mass, config_path, fmt, out_path):
    """Cyclotron and axial frequencies in rad/s and Hz."""

    def builder():
        config = _trap_config_from(
            b_field, voltage, length, species, charge, mass, config_path, required=True
        )
        return reports.trap_frequencies_record(config)

    _emit(_build(builder), fmt, out_path)


@trap.command("operating-point")
@click.option("--B", "b_field", type=float, required=True, help="Magnetic field in tesla.")
@click.option("--d", "length", type=float, required=True, help="Trap length in meters.")
@_trap_flag_options
@_format_options
def operating_point(b_field, length, species, charge, mass, fmt, out_path):
    """Voltage at which the trap's two ladders become degenerate."""

    def builder():
        e, m = geonium.charge_and_mass(species, charge, mass)
        return reports.trap_operating_point_record(b_field, length, e, m)

    _emit(_build(builder), fmt, out_path)


@trap.command()
@click.option("--L", "--l", "angular", type=int, default=0, show_default=True)
@click.option("--N-max", "--n-max", "n_max", type=int, default=12, show_default=True)
@click.option("--Delta", "anharmonicity", type=float, default=0.0, show_default=True)
@click.option("--B", "b_field", type=float, default=None, help="Magnetic field in tesla.")
@click.option("--V", "voltage", type=float, default=None, help="Electrode voltage in volts.")
@click.option("--d", "length", type=float, default=None, help="Trap length in meters.")
@_trap_flag_options
@_config_option
@_format_options
def levels(angular, n_max, anharmonicity, b_field, voltage, length, species, charge, mass,
           config_path, fmt, out_path):
    """Ladder of trap levels at fixed angular number; SI energies with a trap config."""

    def builder():
        config = _trap_config_from(
            b_field, voltage, length, species, charge, mass, config_path, required=False
        )
        return reports.trap_levels_record(angular, n_max, anharmonicity, config=config)

    _emit(_build(builder), fmt, out_path)


@main.command()
@click.option(
    "--format",
    "fmt",
    type=click.Choice(["table", "json"]),
    default="table",
    show_default=True,
)
@click.option(
    "--out",
    "out_path",
    type=click.Path(dir_okay=False, writable=True),
    default=None,
    help="Write the report to a file instead of stdout.",
)
def verify(fmt, out_path):
    """Run the full invariant suite and print one pass/fail line per criterion."""
    results = verify_suite.run_all()
    if fmt == "json":
        text = json.dumps([asdict(result) for result in results], indent=2) + "\n"
    else:
        lines = [
            f"{'crit':>4}  {'check':<18} {'status':<6} {'worst':>10} {'tol':>8} {'secs':>7}"
        ]
        for result in results:
            status = "PASS" if result.passed else "FAIL"
            lines.append(
                f"{result.criterion:>4}  {result.name:<18} {status:<6} "
                f"{result.value:>10.2e} {result.tolerance:>8.0e} {result.seconds:>7.2f}"
            )
            if not result.passed:
                lines.append(f"      -> {result.detail}")
        passed = sum(result.passed for result in results)
        lines.append(f"{passed}/{len(results)} checks passed")
        text = "\n".join(lines) + "\n"
    if out_path is None:
        click.echo(text, nl=False)
    else:
        with open(out_path, "w", encoding="utf-8") as handle:
            handle.write(text)
    if not all(result.passed for result in results):
        raise SystemExit(1)


if __name__ == "__main__":
    main(prog_name="susyrad")
