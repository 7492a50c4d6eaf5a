"""Behaviour lock: a fixed corpus of CLI invocations and their output.

Each case runs in-process through `cli_runner.invoke` from inside
tests/golden/ (so the config file is passed by its relative name).  numpy
RuntimeWarnings are silenced while a case runs: they report on evaluation, not
on what the program prints.  Wall-clock ``"seconds"`` fields (the `verify`
report) are masked in both modes, since they are the only output that varies
between runs.  Every case is compared in two modes:

- Exact (`test_cli_output_matches_golden`): stdout, stderr and the exit code
  byte for byte.  The files print full-precision floats, and numpy's AVX2 and
  AVX-512 kernels of exp, log and power differ in the last bit at some points,
  so this mode runs only where numpy dispatches the AVX-512 kernels the files
  were made with, and it says so when it skips.
- Bounded (`test_cli_output_within_bound`), on every host.  Each numeric table
  cell stays within CELL_BOUND times the largest magnitude in its column of the
  golden file, or within one unit of its last digit in a CSV table, which
  rounds to 12 significant digits.  A measured defect is held to the tolerance printed for it
  instead: a diagnostic's value, the `constancy_defect` column, and each verify
  criterion's value and the measured numbers of its detail.  Integers,
  tolerances, the exit code, stderr and all other text stay byte for byte.

A changed golden file needs a stated reason in CHANGES.md.  Every diagnostic a
golden file prints holds within the tolerance printed beside it.

Regenerate the files with ``PYTHONPATH=src python tests/test_golden.py``.
"""

from __future__ import annotations

import contextlib
import json
import os
import re
import warnings
from pathlib import Path

import pytest
from cli_runner import invoke
from susyrad.cli import main

GOLDEN_DIR = Path(__file__).resolve().parent / "golden"
CONFIG = "models.cfg"

# (name, argv); every file name under golden/ derives from name
CASES = [
    ("wavefunction_coulomb_csv", ["wavefunction", "--n", "3", "--l", "1"]),
    ("wavefunction_coulomb_json", ["wavefunction", "--dim", "4", "--n", "2", "--l", "0", "--format", "json"]),
    ("wavefunction_oscillator_n40_csv", ["wavefunction", "--family", "oscillator", "--N", "40", "--L", "0"]),
    ("wavefunction_oscillator_json",
     ["wavefunction", "--family", "oscillator", "--dim", "2", "--N", "3", "--L", "1", "--format", "json"]),
    ("wavefunction_hydrogen_csv",
     ["wavefunction", "--family", "hydrogen", "--n", "2", "--l", "1", "--points", "60"]),
    ("wavefunction_defect_json",
     ["wavefunction", "--family", "defect", "--n", "2", "--l", "0", "--config", CONFIG, "--format", "json"]),
    ("wavefunction_anharmonic_csv",
     ["wavefunction", "--family", "anharmonic", "--dim", "2", "--N", "2", "--L", "0", "--config", CONFIG]),
    # norm, power and exponential each leave double range on this grid; the amplitudes do not
    ("wavefunction_beyond_power_range_csv", ["wavefunction", "--n", "160", "--l", "150", "--grid-max", "1e5"]),
    ("wavefunction_beyond_power_range_json",
     ["wavefunction", "--n", "160", "--l", "150", "--grid-max", "1e5", "--format", "json"]),
    # the Laguerre polynomial itself overflows: render refuses the table
    ("wavefunction_fatal_polynomial_overflow_csv", ["wavefunction", "--n", "1000", "--l", "500"]),
    ("susy_pair_coulomb_csv", ["susy-pair", "--l", "1"]),
    ("susy_pair_oscillator_json", ["susy-pair", "--family", "oscillator", "--dim", "2", "--format", "json"]),
    ("spectrum_coulomb_csv", ["spectrum"]),
    ("spectrum_oscillator_json",
     ["spectrum", "--family", "oscillator", "--n", "0..3", "--l", "0..2", "--format", "json"]),
    ("spectrum_defect_csv", ["spectrum", "--family", "defect", "--n", "1..4", "--config", CONFIG]),
    ("spectrum_anharmonic_json",
     ["spectrum", "--family", "anharmonic", "--dim", "2", "--config", CONFIG, "--format", "json"]),
    ("map_exact_csv", ["map", "--d", "3", "--n", "2", "--l", "1", "--lambda", "1,2"]),
    ("map_exact_range_json",
     ["map", "--d", "5", "--n", "4", "--l", "2", "--lambda-range", "0..3", "--format", "json"]),
    ("map_broken_json",
     ["map", "--d", "3", "--n", "3", "--l", "1", "--mode", "broken", "--lambda-range", "1/2..3/2",
      "--delta", "0.2", "--Delta", "0.25", "--format", "json"]),
    ("map_broken_csv",
     ["map", "--d", "3", "--n", "3", "--l", "1", "--mode", "broken", "--lambda", "1/2", "--Delta", "0.25"]),
    ("trap_frequencies_electron_csv",
     ["trap", "frequencies", "--B", "5.0", "--V", "-12.0", "--d", "0.01"]),
    ("trap_frequencies_proton_json",
     ["trap", "frequencies", "--B", "2.5", "--V", "30.0", "--d", "0.005", "--species", "proton",
      "--format", "json"]),
    ("trap_frequencies_config_csv", ["trap", "frequencies", "--config", CONFIG]),
    ("trap_operating_point_electron_json",
     ["trap", "operating-point", "--B", "5.0", "--d", "0.01", "--format", "json"]),
    ("trap_operating_point_proton_csv",
     ["trap", "operating-point", "--B", "1.5", "--d", "0.02", "--species", "proton"]),
    ("trap_levels_electron_json",
     ["trap", "levels", "--N-max", "4", "--B", "5.0", "--V", "-12.0", "--d", "0.01", "--format", "json"]),
    ("trap_levels_proton_csv",
     ["trap", "levels", "--L", "1", "--Delta", "0.1", "--B", "5.0", "--V", "12.0", "--d", "0.01",
      "--species", "proton"]),
    # Delta != 0, so the energies are not integers and a last-bit change shows
    ("trap_levels_anharmonic_json",
     ["trap", "levels", "--L", "1", "--N-max", "9", "--Delta", "0.05", "--B", "5.0", "--V", "-12.0",
      "--d", "0.01", "--format", "json"]),
    ("verify_json", ["verify", "--format", "json"]),
]

_SUFFIXES = (".out", ".err")  # stdout, stderr; a file is absent when its stream is empty
_SECONDS = re.compile(r'"seconds": [^,\n]+')
_CSV_DIAGNOSTIC = re.compile(r"^# diagnostic: (\S+) = (\S+) \(tolerance (\S+)\)$", re.MULTILINE)


@contextlib.contextmanager
def _inside(path):
    old = os.getcwd()
    os.chdir(path)
    try:
        yield
    finally:
        os.chdir(old)


def _run(argv):
    """(exit code, stdout, stderr) of one invocation from inside golden/."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        with _inside(GOLDEN_DIR):
            result = invoke(main, argv, env={"SUSYRAD_CONFIG": None})
    return result.exit_code, _mask(result.stdout), result.stderr


def _mask(text):
    return _SECONDS.sub('"seconds": "masked"', text)


def _expected(name):
    code = int((GOLDEN_DIR / f"{name}.code").read_text(encoding="utf-8"))
    texts = []
    for suffix in _SUFFIXES:
        path = GOLDEN_DIR / f"{name}{suffix}"
        texts.append(path.read_bytes().decode("utf-8") if path.exists() else "")
    return (code, *texts)


def _dispatches_avx512():
    """Whether numpy runs its AVX-512 (Skylake-X) kernels here, as where the files were made."""
    try:
        from numpy._core._multiarray_umath import __cpu_features__
    except ImportError:  # numpy < 2
        from numpy.core._multiarray_umath import __cpu_features__
    return bool(__cpu_features__.get("AVX512_SKX"))


@pytest.mark.skipif(
    not _dispatches_avx512(),
    reason="numpy does not dispatch its AVX-512 kernels here, so the last printed bits may differ "
    "from the golden files; test_cli_output_within_bound compares them within a bound instead",
)
@pytest.mark.parametrize("name, argv", CASES, ids=[name for name, _ in CASES])
def test_cli_output_matches_golden(name, argv):
    assert _run(argv) == _expected(name)


# The bounded mode's tolerance on a table cell, as a share of its column's peak magnitude.
# With numpy's AVX-512 kernels disabled (NPY_DISABLE_CPU_FEATURES="X86_V4 AVX512_ICL AVX512_SPR
# AVX512_SKX AVX512_CLX AVX512_CNL"), cells moved by at most 4.3e-16 of their peak, so the
# bound leaves a margin of 4.7; a change of 1e-12 in a cell near its peak exceeds it.
CELL_BOUND = 2e-15

# a table column of measured defects -> the diagnostic whose printed tolerance bounds it
_DEFECT_COLUMNS = {"constancy_defect": "max_constancy_defect"}
_NUMBER = re.compile(r"-?\d+(?:\.\d*)?(?:[eE][-+]?\d+)?")
_DETAIL_MEASURE = re.compile(r"(\S+) \(tol (\S+)\)")
_INTEGER = re.compile(r"-?\d+")


def _number(cell):
    """A table cell as a float, or None when it is text (an empty cell, a message)."""
    try:
        return float(cell)
    except (TypeError, ValueError):
        return None


def _is_integer(cell):
    return isinstance(cell, int) or (isinstance(cell, str) and _INTEGER.fullmatch(cell) is not None)


def _last_digit(text):
    """One unit in the last printed digit of a CSV cell (12 significant digits)."""
    mantissa, _, exponent = text.lower().partition("e")
    return 10.0 ** (int(exponent or 0) - len(mantissa.partition(".")[2]))


def _table_problems(columns, tolerances):
    """Cells of {column: [(golden, got)]} outside the bound, or defects above their tolerance."""
    problems = []
    for column, pairs in columns.items():
        numbers = [_number(want) for want, _ in pairs]
        peak = max((abs(v) for v in numbers if v is not None), default=0.0)
        tolerance = tolerances.get(_DEFECT_COLUMNS.get(column))
        for row, ((want, got), expected) in enumerate(zip(pairs, numbers)):
            value = _number(got)
            if expected is None or _is_integer(want):
                ok = want == got and type(want) is type(got)
            elif tolerance is not None:
                ok = value is not None and value <= float(tolerance)
            else:
                # a CSV cell may also round the other way in its last printed digit: one unit,
                # which the float difference of the two texts may exceed by a few ulps
                bound = max(CELL_BOUND * peak, 1.5 * _last_digit(want) if isinstance(want, str) else 0.0)
                ok = value is not None and abs(value - expected) <= bound
            if not ok:
                problems.append(f"row {row} {column}: {got!r}, golden {want!r}")
    return problems


def _diagnostic_problems(pairs):
    """Diagnostics, (name, value, tolerance) as golden and got, whose value passes its tolerance."""
    problems = []
    for want, got in pairs:
        # a count, printed with tolerance 0, is compared exactly
        if want[0] == "node_count" or want[::2] != got[::2]:
            ok = want == got
        else:
            ok = float(got[1]) <= float(got[2])
        if not ok:
            problems.append(f"diagnostic {got!r}, golden {want!r}")
    return problems


def _criterion_problems(want, got):
    """A verify criterion: its value and the measured numbers of its detail within their tolerances."""
    problems = []
    if not got["value"] <= got["tolerance"]:
        problems.append(f"criterion {got['criterion']}: value {got['value']!r} > {got['tolerance']!r}")
    for measured, tolerance in _DETAIL_MEASURE.findall(got["detail"]):
        if not float(measured) <= float(tolerance):
            problems.append(f"criterion {got['criterion']}: {measured} > tol {tolerance}")
    masked = [_DETAIL_MEASURE.sub(r"# (tol \2)", c["detail"]) for c in (want, got)]
    rest = [{k: v for k, v in c.items() if k not in ("value", "detail")} for c in (want, got)]
    if masked[0] != masked[1] or json.dumps(rest[0]) != json.dumps(rest[1]):
        problems.append(f"criterion {got['criterion']}: {got!r}, golden {want!r}")
    return problems


def _json_problems(want, got):
    if _NUMBER.sub("#", want) != _NUMBER.sub("#", got):
        return ["text outside the numbers differs"]
    want, got = json.loads(want), json.loads(got)
    if isinstance(want, list):  # the verify report, one record per criterion
        return [p for w, g in zip(want, got) for p in _criterion_problems(w, g)]
    rows = [record.pop("rows", []) for record in (want, got)]
    diagnostics = [record.pop("diagnostics", []) for record in (want, got)]
    columns = {}
    for w, g in zip(*rows):
        for key in w:
            columns.setdefault(key, []).append((w[key], g[key]))
    tolerances = {d["name"]: d["tolerance"] for d in diagnostics[0]}
    triples = [[(d["name"], d["value"], d["tolerance"]) for d in ds] for ds in diagnostics]
    problems = [] if json.dumps(want) == json.dumps(got) else ["inputs or command differ"]
    return problems + _table_problems(columns, tolerances) + _diagnostic_problems(zip(*triples))


def _csv_problems(want, got):
    want, got = want.splitlines(keepends=True), got.splitlines(keepends=True)
    if len(want) != len(got):
        return [f"{len(got)} lines, golden {len(want)}"]
    problems, header, columns, diagnostics = [], None, {}, []
    for number, (w, g) in enumerate(zip(want, got)):
        match = [_CSV_DIAGNOSTIC.fullmatch(line.rstrip("\n")) for line in (w, g)]
        if match[0] and match[1]:
            diagnostics.append(tuple(m.groups() for m in match))
        elif w.startswith("#") or header is None or w == g == "\n":
            header = header if w.startswith("#") else w.rstrip("\n").split(",")
            if w != g:
                problems.append(f"line {number + 1}: {g!r}, golden {w!r}")
        else:
            cells = [line.rstrip("\n").split(",") for line in (w, g)]
            if len(cells[0]) != len(cells[1]) or w.endswith("\n") != g.endswith("\n"):
                problems.append(f"line {number + 1}: {g!r}, golden {w!r}")
                continue
            for column, pair in zip(header, zip(*cells)):
                columns.setdefault(column, []).append(pair)
    tolerances = {want[0]: want[2] for want, _ in diagnostics}
    return problems + _table_problems(columns, tolerances) + _diagnostic_problems(diagnostics)


def _bounded_problems(name, want, got):
    """Where stdout got departs from the golden stdout want beyond the bounded mode's limits."""
    if not (want and got):
        return [] if want == got else ["stdout differs"]
    return (_json_problems if name.endswith("_json") else _csv_problems)(want, got)


@pytest.mark.parametrize("name, argv", CASES, ids=[name for name, _ in CASES])
def test_cli_output_within_bound(name, argv):
    code, out, err = _run(argv)
    want_code, want_out, want_err = _expected(name)
    assert (code, err) == (want_code, want_err)
    assert _bounded_problems(name, want_out, out) == []


def _scaled_peak_amplitude(text):
    """The golden text with its largest amplitude scaled by 1 + 1e-12."""
    amplitudes = [row["amplitude"] for row in json.loads(text)["rows"]]
    peak = max(amplitudes, key=abs)
    assert text.count(repr(peak)) == 1
    return text.replace(repr(peak), repr(peak * (1.0 + 1e-12)))


def _csv_defect_above_tolerance(text):
    """The golden CSV with the constancy_defect of its first table row set to 2e-8."""
    lines = text.splitlines(keepends=True)
    header = next(i for i, line in enumerate(lines) if not line.startswith("#"))
    column = lines[header].split(",").index("constancy_defect")
    cells = lines[header + 1].split(",")
    cells[column] = "2e-08"
    lines[header + 1] = ",".join(cells)
    return "".join(lines)


def _csv_residual_above_tolerance(text):
    return re.sub(r"(relative_residual = )\S+", r"\g<1>3e-08", text)


_MUTATIONS = {
    "peak-amplitude-scaled": ("wavefunction_coulomb_json", _scaled_peak_amplitude),
    "defect-above-tolerance": ("map_exact_csv", _csv_defect_above_tolerance),
    "diagnostic-above-tolerance": ("wavefunction_coulomb_csv", _csv_residual_above_tolerance),
    "detail-above-tolerance": ("verify_json", lambda text: text.replace("shift 4.41e-16", "shift 4.41e-11")),
    "integer-changed": ("map_exact_range_json", lambda text: text.replace('"N": 6,', '"N": 7,')),
    "text-changed": ("wavefunction_hydrogen_csv", lambda text: text.replace("amplitude", "amplitudes")),
}


@pytest.mark.parametrize("mutation", sorted(_MUTATIONS))
def test_bounded_mode_refuses_a_changed_file(mutation):
    name, mutate = _MUTATIONS[mutation]
    golden = _expected(name)[1]
    changed = mutate(golden)
    assert changed != golden
    assert _bounded_problems(name, golden, golden) == []
    assert _bounded_problems(name, golden, changed) != []


def _diagnostics(name):
    """(name, value, tolerance) of each diagnostic in a golden stdout, CSV or JSON."""
    path = GOLDEN_DIR / f"{name}.out"
    if not path.exists():
        return []
    text = path.read_text(encoding="utf-8")
    if not name.endswith("_json"):
        return [(diag, float(value), float(tol)) for diag, value, tol in _CSV_DIAGNOSTIC.findall(text)]
    record = json.loads(text)
    # the verify report is a list of checks, not a record with diagnostics
    diagnostics = record.get("diagnostics", []) if isinstance(record, dict) else []
    return [(d["name"], d["value"], d["tolerance"]) for d in diagnostics]


_DIAGNOSED = [name for name, _ in CASES if _diagnostics(name)]


@pytest.mark.parametrize("name", _DIAGNOSED)
def test_golden_diagnostics_within_their_tolerance(name):
    for diag, value, tolerance in _diagnostics(name):
        if diag != "node_count":  # a count, printed with tolerance 0
            assert value <= tolerance, (diag, value, tolerance)


def _regenerate():
    for name, argv in CASES:
        code, out, err = _run(argv)
        (GOLDEN_DIR / f"{name}.code").write_text(f"{code}\n", encoding="utf-8")
        for text, suffix in zip((out, err), _SUFFIXES):
            path = GOLDEN_DIR / f"{name}{suffix}"
            if text:
                path.write_bytes(text.encode("utf-8"))
            elif path.exists():
                path.unlink()
        print(f"{name}: exit {code}")


if __name__ == "__main__":
    _regenerate()
