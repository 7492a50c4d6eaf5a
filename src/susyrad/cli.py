"""Command-line front end.

Every record verb is a plain function that takes its flags and returns the
OutputRecord `reports` builds (so tests can exercise the identical code path
in-process); `_record_command` renders it as CSV or JSON and writes it.
Fatal problems exit nonzero through click; per-row admissibility failures
are carried inside the record and never abort a sweep.
"""

from __future__ import annotations

import functools
import math
import warnings

import click

from . import __version__
from ._np import _lazy_module
from .errors import AdmissibilityError, ConfigError, ConvergenceError, VerificationError

# bound, not executed: a usage error runs no record module, and a verb only the layers it uses
config, geonium, maps, reports = (
    _lazy_module(f"{__package__}.{name}") for name in ("config", "geonium", "maps", "reports")
)

# every AdmissibilityError, ConfigError, DomainError and StabilityError is a ValueError
_FATAL = (ValueError, OSError, ConvergenceError, VerificationError)


class _FiniteFloat(click.types.FloatParamType):
    """A float flag; nan and the infinities are refused by the flag's name, as 'abc' is."""

    def convert(self, value, param, ctx):
        number = super().convert(value, param, ctx)
        if not math.isfinite(number):
            self.fail(f"{value!r} is not a finite float.", param, ctx)
        return number


_FINITE_FLOAT = _FiniteFloat()


def _output_options(formats, noun, format_help=None):
    """--format and --out, for a verb that prints or writes its text through `_write`."""
    return [
        click.Option(
            ["--format", "fmt"],
            type=click.Choice(formats),
            default=formats[0],
            show_default=True,
            help=format_help,
        ),
        click.Option(
            ["--out", "out_path"],
            type=click.Path(dir_okay=False, writable=True),
            default=None,
            help=f"Write the {noun} to a file instead of stdout.",
        ),
    ]


def _write(text, out_path):
    if out_path is None:
        click.echo(text, nl=False)
        return
    try:
        with open(out_path, "w", encoding="utf-8") as handle:
            handle.write(text)
    except OSError as exc:
        raise click.ClickException(str(exc)) from exc


def _record_command(group, name=None):
    """Register a verb that returns its OutputRecord; --format and --out render and write it."""

    def decorate(verb):
        @functools.wraps(verb)
        def run(fmt, out_path, **flags):
            try:
                # an overflow shows up as a non-finite number that rendering refuses with a
                # typed error, so numpy's warnings about it would only repeat that on stderr;
                # a warnings filter, not np.errstate, so that a closed-form verb never loads numpy
                with warnings.catch_warnings():
                    warnings.simplefilter("ignore", RuntimeWarning)
                    text = verb(**flags).render(fmt)
            except _FATAL as exc:
                raise click.ClickException(str(exc)) from exc
            _write(text, out_path)

        command = group.command(name)(run)
        command.params += _output_options(["csv", "json"], "record", "Output format.")
        return command

    return decorate


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
    return config.load_config(config_path).model(family, dimension)


def _check_quantum_numbers(**flags):
    """Refuse a quantum-number, dimension or shift flag past reports.MAX_QUANTUM_NUMBER in size."""
    for flag, value in flags.items():
        if abs(value) > reports.MAX_QUANTUM_NUMBER:
            raise AdmissibilityError(f"|--{flag}| exceeds the limit of {reports.MAX_QUANTUM_NUMBER}")


@click.group()
@click.version_option(version=__version__, prog_name="susyrad")
def main():
    """Radial supersymmetry toolkit: spectra, states, partner pairs, maps, traps."""


@_record_command(main)
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
def spectrum(family, dimension, n_spec, l_spec, config_path):
    """Energy table for one family over a quantum-number grid."""
    if n_spec is None:
        n_spec = "0..8" if family in reports.OSCILLATOR_SIDE else "1..20"
    n_values = reports.parse_range(n_spec)
    l_values = reports.parse_range(l_spec if l_spec is not None else "0")
    _check_quantum_numbers(dim=dimension, n=max(n_values, key=abs), l=max(l_values, key=abs))
    model = _load_model(family, config_path, dimension)
    return reports.spectrum_record(family, dimension, n_values, l_values, model=model)


@_record_command(main)
@click.option(
    "--family",
    type=click.Choice(["coulomb", "oscillator", "defect", "anharmonic", "hydrogen"]),
    default="coulomb",
    show_default=True,
)
@click.option("--dim", "dimension", type=int, default=3, show_default=True)
@click.option("--n", "--N", "n", type=int, default=1, show_default=True)
@click.option("--l", "--L", "l", type=int, default=0, show_default=True)
@click.option("--grid-min", type=_FINITE_FLOAT, default=None, help="First grid point (> 0).")
@click.option("--grid-max", type=_FINITE_FLOAT, default=None, help="Last grid point.")
@click.option("--points", type=int, default=None, help="Number of grid points.")
@_config_option
def wavefunction(family, dimension, n, l, grid_min, grid_max, points, config_path):
    """Radial amplitude on a grid, with residual and node-count diagnostics."""
    _check_quantum_numbers(dim=dimension, n=n, l=l)
    model = _load_model(family, config_path, dimension)
    lo, hi, count = reports.default_wavefunction_grid(family, dimension, n)
    lo = lo if grid_min is None else grid_min
    hi = hi if grid_max is None else grid_max
    count = count if points is None else points
    return reports.wavefunction_record(family, dimension, n, l, lo, hi, count, model=model)


@_record_command(main, "susy-pair")
@click.option(
    "--family",
    type=click.Choice(["coulomb", "oscillator"]),
    default="coulomb",
    show_default=True,
)
@click.option("--dim", "dimension", type=int, default=3, show_default=True)
@click.option("--l", "--L", "angular", type=int, default=0, show_default=True)
@click.option("--grid-min", type=_FINITE_FLOAT, default=0.1, show_default=True)
@click.option("--grid-max", type=_FINITE_FLOAT, default=12.0, show_default=True)
@click.option("--points", type=int, default=120, show_default=True)
def susy_pair(family, dimension, angular, grid_min, grid_max, points):
    """Partner potentials V+ and V- on a grid, with the shift-identity check."""
    _check_quantum_numbers(dim=dimension, l=angular)
    return reports.susy_pair_record(family, dimension, angular, grid_min, grid_max, points)


def _parse_lambda(text):
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


def _lambda_values(lam_spec, lam_range, mode):
    if (lam_spec is None) == (lam_range is None):
        raise AdmissibilityError("give exactly one of --lambda or --lambda-range")
    if lam_spec is not None:
        values = [_parse_lambda(part) for part in lam_spec.split(",") if part.strip()]
        if not values:
            raise AdmissibilityError(f"no lambda values in {lam_spec!r}")
        return values
    if ".." not in lam_range:
        raise AdmissibilityError(f"--lambda-range wants lo..hi, got {lam_range!r}")
    lo_text, hi_text = lam_range.split("..", 1)
    return maps.lambda_candidates(_parse_lambda(lo_text), _parse_lambda(hi_text), mode)


@_record_command(main, "map")
@click.option("--d", "dimension", type=int, required=True, help="Source dimension.")
@click.option("--n", type=int, required=True, help="Source principal number.")
@click.option("--l", type=int, required=True, help="Source angular number.")
@click.option("--lambda", "lam_spec", default=None, help="Value or comma list, e.g. 1 or 0.5,1.")
@click.option("--lambda-range", "lam_range", default=None, help="Sweep lo..hi.")
@click.option(
    "--mode", type=click.Choice(["exact", "broken"]), default="exact", show_default=True
)
@click.option("--delta", type=_FINITE_FLOAT, default=0.0, show_default=True, help="Quantum defect.")
@click.option("--i", "small_i", type=int, default=0, show_default=True, help="Defect integer shift.")
@click.option(
    "--Delta", "big_delta", type=_FINITE_FLOAT, default=0.0, show_default=True, help="Anharmonicity."
)
@click.option("--I", "big_i", type=int, default=0, show_default=True, help="Anharmonic integer shift.")
def map_cmd(dimension, n, l, lam_spec, lam_range, mode, delta, small_i, big_delta, big_i):
    """Solve Coulomb-to-oscillator maps and measure the identity on a grid."""
    lams = _lambda_values(lam_spec, lam_range, mode)
    _check_quantum_numbers(d=dimension, n=n, l=l, i=small_i, I=big_i)
    return reports.map_record(
        (dimension, n, l), lams, mode=mode, delta=delta, i=small_i, Delta=big_delta, I=big_i
    )


def _trap_flag_options(fn):
    fn = click.option("--mass", type=_FINITE_FLOAT, default=None, help="Mass in kilograms.")(fn)
    fn = click.option("--charge", type=_FINITE_FLOAT, default=None, help="Charge in coulombs.")(fn)
    fn = click.option(
        "--species",
        default="electron",
        show_default=True,
        help="Preset particle (electron or proton); ignored when charge and mass are given.",
    )(fn)
    return fn


def _trap_options(fn):
    """--B, --V, --d, the particle flags and --config: where a trap verb finds its trap."""
    fn = _trap_flag_options(_config_option(fn))
    fn = click.option(
        "--d", "length", type=_FINITE_FLOAT, default=None, help="Trap length in meters."
    )(fn)
    fn = click.option(
        "--V", "voltage", type=_FINITE_FLOAT, default=None, help="Electrode voltage in volts."
    )(fn)
    return click.option(
        "--B", "b_field", type=_FINITE_FLOAT, default=None, help="Magnetic field in tesla."
    )(fn)


def _trap_config(b_field, voltage, length, species, charge, mass, config_path):
    """The trap the --B/--V/--d flags give, else the config's [trap] record, else None."""
    flags = (b_field, voltage, length)
    if any(flag is not None for flag in flags):
        if any(flag is None for flag in flags):
            raise ConfigError("give all of --B, --V and --d (or use --config)")
        return geonium.trap_config(b_field, voltage, length, species, charge, mass)
    if config_path is None:
        return None
    parsed = config.load_config(config_path)
    return parsed.trap() if parsed.has_trap() else None


@main.group()
def trap():
    """Penning-trap frequencies, the matched operating point, and level tables."""


@_record_command(trap)
@_trap_options
def frequencies(**trap_flags):
    """Cyclotron and axial frequencies in rad/s and Hz."""
    config = _trap_config(**trap_flags)
    if config is None and trap_flags["config_path"] is None:
        raise ConfigError("trap parameters missing: give --B --V --d or --config")
    if config is None:
        raise ConfigError("no [trap] record in configuration")
    return reports.trap_frequencies_record(config)


@_record_command(trap, "operating-point")
@click.option("--B", "b_field", type=_FINITE_FLOAT, required=True, help="Magnetic field in tesla.")
@click.option("--d", "length", type=_FINITE_FLOAT, required=True, help="Trap length in meters.")
@_trap_flag_options
def operating_point(b_field, length, species, charge, mass):
    """Voltage at which the trap's two ladders become degenerate."""
    e, m = geonium.charge_and_mass(species, charge, mass)
    return reports.trap_operating_point_record(b_field, length, e, m)


@_record_command(trap)
@click.option("--L", "--l", "angular", type=int, default=0, show_default=True)
@click.option("--N-max", "--n-max", "n_max", type=int, default=12, show_default=True)
@click.option("--Delta", "anharmonicity", type=_FINITE_FLOAT, default=0.0, show_default=True)
@_trap_options
def levels(angular, n_max, anharmonicity, **trap_flags):
    """Ladder of trap levels at fixed angular number; SI energies with a trap config."""
    _check_quantum_numbers(L=angular)
    config = _trap_config(**trap_flags)
    return reports.trap_levels_record(angular, n_max, anharmonicity, config=config)


@main.command(params=_output_options(["table", "json"], "report"))
def verify(fmt, out_path):
    """Run the full invariant suite and print one pass/fail line per criterion."""
    from . import verify as verify_suite  # the one verb that needs the suite and its grids

    results = verify_suite.run_all()
    if fmt == "json":
        import json
        from dataclasses import asdict

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
    _write(text, out_path)
    if not all(result.passed for result in results):
        raise SystemExit(1)


if __name__ == "__main__":
    main(prog_name="susyrad")
