"""Command-line front end, on the standard library alone.

Every record verb is a plain function that takes its flags and returns the
OutputRecord `reports` builds (so tests can exercise the identical code path
in-process); `_command` registers it with its option table, and renders and
writes its record.  `_parse` and `_flags` read a command line from those
tables, and `_help` lays them out as `--help`.  A refused command line exits
2 with a usage line and one `Error:` line, a fatal problem exits 1 with the
`Error:` line alone; per-row admissibility failures are carried inside the
record and never abort a sweep.
"""

from __future__ import annotations

import math
import os
import sys
import warnings

from . import __version__
from ._np import _lazy_module
from .errors import AdmissibilityError, ConfigError, ConvergenceError, VerificationError

# bound, not executed: a usage error runs no record module, and a verb only the layers it uses
config, geonium, maps, reports = (
    _lazy_module(f"{__package__}.{name}") for name in ("config", "geonium", "maps", "reports")
)

# every AdmissibilityError, ConfigError, DomainError and StabilityError is a ValueError
_FATAL = (ValueError, OSError, ConvergenceError, VerificationError)
_FILE, _FLAG = "FILE", "FLAG"  # the kinds of a path option (any text but a directory) and of one taking no value
_METAVARS = {str: "TEXT", int: "INTEGER", float: "FLOAT", _FILE: "FILE"}
_HELP = ("--help", "help", _FLAG, False, "Show this message and exit.")


class _Refused(Exception):
    """A refused command line, exit 2: its Error: line, after the usage lines unless `usage` is False."""

    def __init__(self, message, usage=True):
        super().__init__(message)
        self.usage = usage


def _convert(option, text):
    """An option's text as its kind (a type, _FILE or a tuple of choices), or a refusal naming its flags."""
    flags, _, kind = option[:3]
    try:
        value = text if isinstance(kind, tuple) or kind is _FILE else kind(text)
    except ValueError:
        value = None
    if isinstance(kind, tuple) and text not in kind:
        why = f"{text!r} is not one of {', '.join(map(repr, kind))}."
    elif kind is _FILE and os.path.isdir(text):
        why = f"File {text!r} is a directory."
    elif value is None or kind is float and not math.isfinite(value):  # nan and the infinities too
        why = f"{text!r} is not a {'valid' if value is None else 'finite'} {_METAVARS[kind].lower()}."
    else:
        return value
    raise _Refused(f"Invalid value for {_hint(flags)}: {why}")


def _hint(flags):
    return " / ".join(f"'{flag}'" for flag in flags.split())


def _unknown(kind, name, known):
    """The refusal of an unknown option or command, with click's hint: the close matches among the known names."""
    from difflib import get_close_matches  # only an unknown name is matched

    matches, hint = sorted(get_close_matches(name, known)), ""
    if matches:
        listed = ", ".join(map(repr, matches))
        hint = f" Did you mean {listed}?" if len(matches) == 1 else f" (Did you mean one of: {listed}?)"
    return _Refused(f"No such {kind} {name!r}.{hint}")


class _Group(dict):
    """A group's commands by name; the docstring is the group's help line."""

    def __init__(self, doc, *options):
        self.__doc__, self.options = doc, (*options, _HELP)


_ROOT = _Group(
    "Radial supersymmetry toolkit: spectra, states, partner pairs, maps, traps.",
    ("--version", "version", _FLAG, False, "Show the version and exit."),
)


def _parse(node, argv):
    """argv's option values by option, the other arguments, and the dest of the first --help or --version.

    A value is the next argument whatever it looks like (`--V -12.0`, `--dim --`), an unknown option is
    refused before any value is converted, an option given twice keeps its last value, `--` ends the
    options, and a group's options end at its command's name.
    """
    options = {flag: option for option in node.options for flag in option[0].split()}
    given, rest, eager, args = {}, [], None, iter(argv)
    for token in args:
        if token == "--":
            rest += args
        elif token[:1] != "-" or len(token) == 1:
            rest.append(token)
            if isinstance(node, _Group):  # the command's name: what follows is the command's own
                rest += args
        else:
            name, equals, value = token.partition("=")
            option = options.get(name)
            if option is None:  # a single-dash token is named by its first letter, without a hint
                if token[1] != "-":
                    raise _Refused(f"No such option {token[:2]!r}.")
                raise _unknown("option", name, options)
            if option[2] is _FLAG:
                if equals:
                    raise _Refused(f"Option {name!r} does not take a value.", usage=False)
                eager = eager or option[1]
            elif equals or (value := next(args, None)) is not None:
                given[option] = value
            else:
                raise _Refused(f"Option {name!r} requires an argument.", usage=False)
    return given, rest, eager


def _flags(node, given):
    """The flags by dest: the given values converted in the order given, then the defaults in table order."""
    flags = {option[1]: _convert(option, text) for option, text in given.items()}
    for option in node.options:
        names, dest, kind, default = option[:4]
        if dest in flags or kind is _FLAG:
            continue
        env = os.environ.get("SUSYRAD_CONFIG") if dest == "config_path" else None
        if env:  # read per call, and checked as a --config value is
            flags[dest] = _convert(option, env)
        elif default is ...:
            raise _Refused(f"Missing option {_hint(names)}.")
        else:
            flags[dest] = default
    return flags


def _help(usage, node):
    """The --help text: the usage line, the description, the options with their defaults, a group's commands."""
    import textwrap  # only a help text is wrapped

    def rows(title, pairs):  # the first column at most 30 wide, each line at most 78
        width, lines = min(max(len(first) for first, _ in pairs), 30) + 2, [f"\n{title}:"]
        for first, text in pairs:
            head = f"  {first:<{width}}" if len(first) <= width - 2 else f"  {first}\n{'':<{width + 2}}"
            lines.append((head + f"\n{'':<{width + 2}}".join(textwrap.wrap(text, 76 - width))).rstrip())
        return "\n".join(lines) + "\n"

    options = []
    for flags, _, kind, default, *help in node.options:
        metavar = f"[{'|'.join(kind)}]" if isinstance(kind, tuple) else _METAVARS.get(kind, "")
        note = "[required]" if default is ... else "" if default is None or kind is _FLAG else f"[default: {default}]"
        options.append((f"{', '.join(flags.split())} {metavar}".rstrip(), "  ".join(filter(None, [*help, note]))))
    text = f"Usage: {usage}\n\n{textwrap.fill(node.__doc__, 78, initial_indent='  ', subsequent_indent='  ')}\n"
    if not isinstance(node, _Group):
        return text + rows("Options", options)
    limit = 72 - max(map(len, node))  # a command's docstring is cut at a word to fit its line
    commands = [(name, textwrap.shorten(node[name].__doc__, limit, placeholder="...", break_on_hyphens=False))
                for name in sorted(node)]
    return text + rows("Options", options) + rows("Commands", commands)


def _run(path, node, argv):
    """Parse argv for the command at `path` and run it; a group hands the rest to the command it names."""
    group = isinstance(node, _Group)
    usage = f"{path} [OPTIONS]" + " COMMAND [ARGS]..." * group
    if group and not argv:  # a bare group shows its help, as a usage error
        sys.stderr.write(_help(usage, node))
        return 2
    try:
        given, rest, eager = _parse(node, argv)
        if group and rest and rest[0] not in node and rest[0][:1] == "-" and not eager:
            # as click's Group.resolve_command: a command name that looks like an option is parsed
            # again as the group's own arguments (`susyrad -- --version`)
            eager = _parse(node, rest)[2]
        if eager:
            sys.stdout.write(_help(usage, node) if eager == "help" else f"susyrad, version {__version__}\n")
            return 0
        flags = _flags(node, given)
        if group and (not rest or rest[0] not in node):
            raise _unknown("command", rest[0], node) if rest else _Refused("Missing command.")
        if rest and not group:
            raise _Refused(f"Got unexpected extra argument{'s' * (len(rest) > 1)} ({' '.join(rest)})")
    except _Refused as exc:
        lines = f"Usage: {usage}\nTry '{path} --help' for help.\n\n" if exc.usage else ""
        sys.stderr.write(f"{lines}Error: {exc}\n")
        return 2
    return _run(f"{path} {rest[0]}", node[rest[0]], rest[1:]) if group else node(**flags)


def main(args=None, prog_name=None):
    """Run one command line and exit: 0, 1 after a fatal `Error:` line or Ctrl-C, 2 after a refused command line."""
    argv = sys.argv[1:] if args is None else list(args)
    try:
        raise SystemExit(_run(prog_name or os.path.basename(sys.argv[0]), _ROOT, argv))
    except KeyboardInterrupt:  # as click ends it: a new line, then Aborted!
        sys.stderr.write("\nAborted!\n")
        raise SystemExit(1) from None


def _write(text, out_path):
    try:
        if out_path is None:
            sys.stdout.write(text)
        else:
            with open(out_path, "w", encoding="utf-8") as handle:
                handle.write(text)
    except OSError as exc:
        sys.stderr.write(f"Error: {exc}\n")
        return 1
    return 0


def _command(group, name, *options, record=True):
    """Register a verb with its options, each (flags, dest, kind, default[, help]), --format, --out and --help.

    A default of ... makes an option required; a record verb's record is rendered and written.
    """
    formats, noun, format_help = (("csv", "json"), "record", "Output format.") if record else (
        ("table", "json"), "report", None)
    options = (*options, ("--format", "fmt", formats, formats[0], format_help),
               ("--out", "out_path", _FILE, None, f"Write the {noun} to a file instead of stdout."), _HELP)

    def register(verb):
        def run(fmt, out_path, **flags):
            try:
                # an overflow shows up as a non-finite number that rendering refuses with a typed error, so
                # numpy's warnings would only repeat it; a filter, not np.errstate, keeps numpy unloaded
                with warnings.catch_warnings():
                    warnings.simplefilter("ignore", RuntimeWarning)
                    text = verb(**flags).render(fmt)
            except _FATAL as exc:
                sys.stderr.write(f"Error: {exc}\n")
                return 1
            return _write(text, out_path)

        command = group[name] = run if record else verb
        command.__doc__, command.options = verb.__doc__, options
        return verb

    return register


def _family(*names):
    return ("--family", "family", names, names[0])


_DIM = ("--dim", "dimension", int, 3)
_CONFIG = ("--config", "config_path", _FILE, None, "Configuration file (defaults to $SUSYRAD_CONFIG).")


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


@_command(
    _ROOT, "spectrum", _family("coulomb", "oscillator", "defect", "anharmonic"), _DIM,
    ("--n --N", "n_spec", str, None, "Value or range, e.g. 2 or 1..6."),
    ("--l --L", "l_spec", str, None, "Value or range, e.g. 0 or 0..2."), _CONFIG,
)
def spectrum(family, dimension, n_spec, l_spec, config_path):
    """Energy table for one family over a quantum-number grid."""
    if n_spec is None:
        n_spec = "0..8" if family in reports.OSCILLATOR_SIDE else "1..20"
    n_values = reports.parse_range(n_spec)
    l_values = reports.parse_range(l_spec if l_spec is not None else "0")
    _check_quantum_numbers(dim=dimension, n=max(n_values, key=abs), l=max(l_values, key=abs))
    model = _load_model(family, config_path, dimension)
    return reports.spectrum_record(family, dimension, n_values, l_values, model=model)


@_command(
    _ROOT, "wavefunction", _family("coulomb", "oscillator", "defect", "anharmonic", "hydrogen"), _DIM,
    ("--n --N", "n", int, 1), ("--l --L", "l", int, 0),
    ("--grid-min", "grid_min", float, None, "First grid point (> 0)."),
    ("--grid-max", "grid_max", float, None, "Last grid point."),
    ("--points", "points", int, None, "Number of grid points."), _CONFIG,
)
def wavefunction(family, dimension, n, l, grid_min, grid_max, points, config_path):
    """Radial amplitude on a grid, with residual and node-count diagnostics."""
    _check_quantum_numbers(dim=dimension, n=n, l=l)
    model = _load_model(family, config_path, dimension)
    lo, hi, count = reports.default_wavefunction_grid(family, dimension, n)
    lo = lo if grid_min is None else grid_min
    hi = hi if grid_max is None else grid_max
    count = count if points is None else points
    return reports.wavefunction_record(family, dimension, n, l, lo, hi, count, model=model)


@_command(
    _ROOT, "susy-pair", _family("coulomb", "oscillator"), _DIM, ("--l --L", "angular", int, 0),
    ("--grid-min", "grid_min", float, 0.1), ("--grid-max", "grid_max", float, 12.0),
    ("--points", "points", int, 120),
)
def susy_pair(family, dimension, angular, grid_min, grid_max, points):
    """Partner potentials V+ and V- on a grid, with the shift-identity check."""
    _check_quantum_numbers(dim=dimension, l=angular)
    return reports.susy_pair_record(family, dimension, angular, grid_min, grid_max, points)


def _lambda_values(lam_spec, lam_range, mode):
    if (lam_spec is None) == (lam_range is None):
        raise AdmissibilityError("give exactly one of --lambda or --lambda-range")
    if lam_spec is not None:
        values = [reports.parse_lambda(part) for part in lam_spec.split(",") if part.strip()]
        if not values:
            raise AdmissibilityError(f"no lambda values in {lam_spec!r}")
        return values
    if ".." not in lam_range:
        raise AdmissibilityError(f"--lambda-range wants lo..hi, got {lam_range!r}")
    return maps.lambda_candidates(*map(reports.parse_lambda, lam_range.split("..", 1)), mode)


@_command(
    _ROOT, "map", ("--d", "dimension", int, ..., "Source dimension."),
    ("--n", "n", int, ..., "Source principal number."), ("--l", "l", int, ..., "Source angular number."),
    ("--lambda", "lam_spec", str, None, "Value or comma list, e.g. 1 or 0.5,1."),
    ("--lambda-range", "lam_range", str, None, "Sweep lo..hi."),
    ("--mode", "mode", ("exact", "broken"), "exact"), ("--delta", "delta", float, 0.0, "Quantum defect."),
    ("--i", "small_i", int, 0, "Defect integer shift."), ("--Delta", "big_delta", float, 0.0, "Anharmonicity."),
    ("--I", "big_i", int, 0, "Anharmonic integer shift."),
)
def map_cmd(dimension, n, l, lam_spec, lam_range, mode, delta, small_i, big_delta, big_i):
    """Solve Coulomb-to-oscillator maps and measure the identity on a grid."""
    lams = _lambda_values(lam_spec, lam_range, mode)
    _check_quantum_numbers(d=dimension, n=n, l=l, i=small_i, I=big_i)
    return reports.map_record(
        (dimension, n, l), lams, mode=mode, delta=delta, i=small_i, Delta=big_delta, I=big_i
    )


_TRAP = _ROOT["trap"] = _Group("Penning-trap frequencies, the matched operating point, and level tables.")
_PARTICLE = (
    ("--species", "species", str, "electron",
     "Preset particle (electron or proton); ignored when charge and mass are given."),
    ("--charge", "charge", float, None, "Charge in coulombs."),
    ("--mass", "mass", float, None, "Mass in kilograms."),
)
# where a trap verb finds its trap: --B, --V and --d with the particle, or --config
_TRAP_OPTIONS = (
    ("--B", "b_field", float, None, "Magnetic field in tesla."),
    ("--V", "voltage", float, None, "Electrode voltage in volts."),
    ("--d", "length", float, None, "Trap length in meters."), *_PARTICLE, _CONFIG,
)


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


@_command(_TRAP, "frequencies", *_TRAP_OPTIONS)
def frequencies(**trap_flags):
    """Cyclotron and axial frequencies in rad/s and Hz."""
    config = _trap_config(**trap_flags)
    if config is None:
        missing = "trap parameters missing: give --B --V --d or --config"
        raise ConfigError(missing if trap_flags["config_path"] is None else "no [trap] record in configuration")
    return reports.trap_frequencies_record(config)


@_command(
    _TRAP, "operating-point", ("--B", "b_field", float, ..., "Magnetic field in tesla."),
    ("--d", "length", float, ..., "Trap length in meters."), *_PARTICLE,
)
def operating_point(b_field, length, species, charge, mass):
    """Voltage at which the trap's two ladders become degenerate."""
    e, m = geonium.charge_and_mass(species, charge, mass)
    return reports.trap_operating_point_record(b_field, length, e, m)


@_command(
    _TRAP, "levels", ("--L --l", "angular", int, 0), ("--N-max --n-max", "n_max", int, 12),
    ("--Delta", "anharmonicity", float, 0.0), *_TRAP_OPTIONS,
)
def levels(angular, n_max, anharmonicity, **trap_flags):
    """Ladder of trap levels at fixed angular number; SI energies with a trap config."""
    _check_quantum_numbers(L=angular)
    config = _trap_config(**trap_flags)
    return reports.trap_levels_record(angular, n_max, anharmonicity, config=config)


@_command(_ROOT, "verify", record=False)
def verify(fmt, out_path):
    """Run the full invariant suite and print one pass/fail line per criterion."""
    from . import verify as verify_suite  # the one verb that needs the suite and its grids

    results = verify_suite.run_all()
    return _write(verify_suite.render(results, fmt), out_path) or int(not all(r.passed for r in results))


if __name__ == "__main__":
    main(prog_name="susyrad")
