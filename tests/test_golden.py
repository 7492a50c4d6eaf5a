"""Behaviour lock: a fixed corpus of CLI invocations and their exact output.

Each case runs in-process through `cli_runner.invoke` from inside
tests/golden/ (so the config file is passed by its relative name) and must
reproduce the committed stdout, stderr and exit code byte for byte.  numpy
RuntimeWarnings are silenced while a case runs: they report on evaluation, not
on what the program prints.  Wall-clock ``"seconds"`` fields (the `verify` report) are
masked, since they are the only output that varies between runs.  A changed
golden file needs a stated reason in CHANGES.md.  Every diagnostic a golden
file prints holds within the tolerance printed beside it.

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
    ("wavefunction_fatal_csv", ["wavefunction", "--n", "160", "--l", "150", "--grid-max", "1e5"]),
    ("wavefunction_fatal_json",
     ["wavefunction", "--n", "160", "--l", "150", "--grid-max", "1e5", "--format", "json"]),
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


@pytest.mark.parametrize("name, argv", CASES, ids=[name for name, _ in CASES])
def test_cli_output_matches_golden(name, argv):
    assert _run(argv) == _expected(name)


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
