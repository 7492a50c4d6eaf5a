"""Fuzz the numeric flags of every record verb through the CLI boundary.

Whatever the numbers, a verb either prints its record (exit 0) or stops with
one typed `Error:` line (exit 1, or 2 for a flag the parser itself refuses);
it never ends in a Python traceback.  A nan or infinite float flag is one the
parser refuses, by the flag's name.  Float draws include the values that break
naive arithmetic (nan, the infinities, the float extremes, a subnormal, zero
and negatives), count draws run past the limits in `reports` and `maps`, and
quantum numbers and dimensions run past `reports.MAX_QUANTUM_NUMBER`.  A record
printed on exit 0 holds no non-finite number: rendering checks finiteness only
when its fast path sees a sign of trouble, and this guards that from outside.
"""

from __future__ import annotations

import re

from hypothesis import given, settings
from hypothesis import strategies as st

from cli_runner import invoke
from susyrad import maps, reports
from susyrad.cli import main

FUZZ = settings(derandomize=True, max_examples=60, deadline=None)
# the trap verbs take a few milliseconds and have the most float flags to combine
FUZZ_TRAP = settings(FUZZ, max_examples=200)

FINITE_EXTREME = [1e308, -1e308, 1e200, 1e-320, 0.0, -1.0]
NON_FINITE_FLOATS = [float("nan"), float("inf"), float("-inf")]
# the parser refuses nan and the infinities, so they are drawn rarely (about one flag
# in 25): a trap verb has up to five float flags, and most of its examples must reach the verb
EXTREME = st.sampled_from(FINITE_EXTREME * 6 + NON_FINITE_FLOATS)
# each strategy mixes ordinary values, so records do get built, with the hostile ones
floats = st.one_of(st.floats(-20.0, 20.0, allow_nan=False), EXTREME)
positive = st.one_of(st.floats(1e-3, 50.0), EXTREME)
lower = st.one_of(st.floats(1e-3, 2.0), EXTREME)
unit = st.one_of(st.floats(0.0, 0.99), EXTREME)
# 10**400 is too large for a float; the CLI refuses both it and the first value past its limit
too_large = st.sampled_from([10**400, reports.MAX_QUANTUM_NUMBER + 1])
quantum = st.one_of(st.integers(0, 6), st.integers(-2, 500), too_large)
dims = st.one_of(st.integers(2, 6), st.integers(-1, 12), too_large)
# small counts run; the others are past the limits and must be refused before allocating
counts = st.one_of(
    st.integers(-2, 300),
    st.sampled_from([reports.MAX_GRID_POINTS + 1, reports.MAX_TABLE_ROWS + 1, 10**12, 10**30]),
)
lambdas = st.one_of(
    st.integers(-4, 6).map(lambda k: f"{k}/2"),
    st.sampled_from(["nan", "inf", "-inf", "1e308", "-1e308", "1e300", "1e-320", "1/0", "0"]),
)


# nan or an infinity as Python or JSON spells it, standing alone as a field or a value
NON_FINITE = re.compile(r"(?<![\w.])[-+]?(?:nan|inf(?:inity)?)(?![\w.])", re.IGNORECASE)
# the flags that take a float; map's --d takes an integer, and the map strategies draw only
# integers for it
FLOAT_FLAGS = {"--grid-min", "--grid-max", "--delta", "--Delta", "--B", "--V", "--d", "--charge",
               "--mass"}
# a map row's eighth and last column, `violations`, quotes the values that broke a
# constraint, which may be infinite; the seven before it are numbers
MAP_NUMBER_COLUMNS = 7


def _text(value):
    return repr(value) if isinstance(value, float) else str(value)


def _argv(*pairs):
    """Flags whose drawn value is None are left out, so defaults get exercised too."""
    argv = []
    for flag, value in pairs:
        if value is not None:
            argv += [flag, _text(value)]
    return argv


def _invoke(argv):
    result = invoke(main, argv)
    assert result.exit_code in (0, 1, 2), (argv, result.output)
    # the parser converts flags in command-line order, so the first non-finite float flag is named
    non_finite = [flag for flag, value in zip(argv, argv[1:])
                  if flag in FLOAT_FLAGS and NON_FINITE.fullmatch(value)]
    if non_finite:
        assert result.exit_code == 2, (argv, result.output)
        assert f"Error: Invalid value for '{non_finite[0]}'" in result.output, (argv, result.output)
    assert result.exception is None or isinstance(result.exception, SystemExit), (
        argv, repr(result.exception)
    )
    errors = [line for line in result.output.splitlines() if line.startswith("Error:")]
    assert len(errors) <= 1, (argv, result.output)
    if result.exit_code == 0:
        assert not errors, (argv, result.output)
        assert not NON_FINITE.search(_numeric_text(argv, result.output)), (argv, result.output)


def _numeric_text(argv, output):
    """The CSV record without the map violations text."""
    if argv[0] != "map":
        return output
    return "\n".join(
        line if line.startswith("#") else ",".join(line.split(",")[:MAP_NUMBER_COLUMNS])
        for line in output.splitlines()
    )


def maybe(strategy):
    """Half the draws leave the flag out."""
    return st.one_of(st.none(), strategy)


@FUZZ
@given(family=st.sampled_from(["coulomb", "oscillator"]), dim=dims, n_lo=quantum, n_span=counts,
       l_lo=quantum, l_span=st.integers(0, 3) | counts)
def test_spectrum(family, dim, n_lo, n_span, l_lo, l_span):
    _invoke(["spectrum", "--family", family, "--dim", str(dim),
             "--n", f"{n_lo}..{n_lo + n_span}", "--l", f"{l_lo}..{l_lo + l_span}"])


@FUZZ
@given(family=st.sampled_from(["coulomb", "oscillator", "hydrogen"]), dim=dims, n=quantum,
       l=quantum, grid_min=maybe(lower), grid_max=maybe(positive), points=maybe(counts))
def test_wavefunction(family, dim, n, l, grid_min, grid_max, points):
    _invoke(["wavefunction", "--family", family] + _argv(
        ("--dim", dim), ("--n", n), ("--l", l), ("--grid-min", grid_min),
        ("--grid-max", grid_max), ("--points", points)))


@FUZZ
@given(family=st.sampled_from(["coulomb", "oscillator"]), dim=dims, l=quantum,
       grid_min=maybe(lower), grid_max=maybe(positive), points=maybe(counts))
def test_susy_pair(family, dim, l, grid_min, grid_max, points):
    _invoke(["susy-pair", "--family", family] + _argv(
        ("--dim", dim), ("--l", l), ("--grid-min", grid_min), ("--grid-max", grid_max),
        ("--points", points)))


@FUZZ
@given(d=dims, n=quantum, l=quantum, lam=lambdas, lam_hi=maybe(lambdas),
       mode=st.sampled_from(["exact", "broken"]), delta=maybe(unit), i=maybe(st.integers(-1, 3)),
       big_delta=maybe(unit), big_i=maybe(st.integers(-1, 3)))
def test_map(d, n, l, lam, lam_hi, mode, delta, i, big_delta, big_i):
    sweep = ("--lambda", lam) if lam_hi is None else ("--lambda-range", f"{lam}..{lam_hi}")
    _invoke(["map", "--mode", mode] + _argv(
        ("--d", d), ("--n", n), ("--l", l), sweep, ("--delta", delta), ("--i", i),
        ("--Delta", big_delta), ("--I", big_i)))


@FUZZ_TRAP
@given(b=floats, v=floats, length=positive, species=st.sampled_from(["electron", "proton"]),
       charge=maybe(floats), mass=maybe(positive))
def test_trap_frequencies(b, v, length, species, charge, mass):
    _invoke(["trap", "frequencies", "--species", species] + _argv(
        ("--B", b), ("--V", v), ("--d", length), ("--charge", charge), ("--mass", mass)))


@FUZZ_TRAP
@given(b=positive, length=positive, species=st.sampled_from(["electron", "proton"]),
       charge=maybe(floats), mass=maybe(positive))
def test_trap_operating_point(b, length, species, charge, mass):
    _invoke(["trap", "operating-point", "--species", species] + _argv(
        ("--B", b), ("--d", length), ("--charge", charge), ("--mass", mass)))


@FUZZ
@given(angular=quantum, n_max=st.integers(-2, 500) | counts, anharmonicity=maybe(unit),
       b=maybe(floats), v=floats, length=positive)
def test_trap_levels(angular, n_max, anharmonicity, b, v, length):
    trap = [] if b is None else _argv(("--B", b), ("--V", v), ("--d", length))
    _invoke(["trap", "levels"] + _argv(
        ("--L", angular), ("--N-max", n_max), ("--Delta", anharmonicity)) + trap)


def test_limits_sit_above_the_benchmark_inputs():
    # the benchmark asks for at most 400 points, 21 n values, N-max 33 and 13 lambdas
    assert reports.MAX_GRID_POINTS >= 100 * 400
    assert reports.MAX_TABLE_ROWS >= 100 * 21
    assert maps.MAX_LAMBDA_CANDIDATES >= 100 * 13
