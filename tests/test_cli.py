import csv
import importlib.metadata
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy import constants as codata

import susyrad
from cli_runner import invoke
from susyrad import cli, oscillator, reports
from susyrad.cli import main
from susyrad.errors import DomainError
from susyrad.output import OutputRecord

SRC_DIR = Path(__file__).resolve().parents[1] / "src"


def _run_from_src(*args, options=()):
    """python <options> -m <args> in a fresh interpreter with the uninstalled source tree first."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC_DIR), env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, *options, "-m", *args], capture_output=True, text=True, env=env, timeout=120
    )

CONFIG_TEXT = """\
format_version = 1

[defect]
dimension = 3
l = 0
delta = 0.4
shift = 1

[defect]
dimension = 3
l = 1
delta = 0.05
shift = 0

[anharmonic]
dimension = 2
L = 0
Delta = 0.1
shift = 1

[trap]
B_tesla = 5.0
V_volt = -12.0
d_meter = 0.01
species = electron
"""


@pytest.fixture()
def config_path(tmp_path):
    path = tmp_path / "models.cfg"
    path.write_text(CONFIG_TEXT, encoding="utf-8")
    return str(path)


def _csv_rows(text):
    lines = [line for line in text.splitlines() if line and not line.startswith("#")]
    reader = csv.DictReader(lines)
    return list(reader)


def _comments(text):
    return [line for line in text.splitlines() if line.startswith("#")]


class TestSpectrum:
    def test_default_hydrogen_table(self):
        result = invoke(main, ["spectrum"])
        assert result.exit_code == 0
        rows = _csv_rows(result.output)
        assert len(rows) == 20
        assert rows[0]["energy"] == "-0.5"
        assert rows[1]["energy"] == "-0.125"
        assert rows[2]["energy"] == "-0.0555555555556"
        assert any("# input: family = coulomb" in c for c in _comments(result.output))

    def test_oscillator_parity_rows_carry_errors(self):
        result = invoke(
            main, ["spectrum", "--family", "oscillator", "--dim", "2", "--N", "0..3"]
        )
        assert result.exit_code == 0
        rows = _csv_rows(result.output)
        assert rows[0]["energy"] == "1"
        assert rows[2]["energy"] == "3"
        assert rows[1]["energy"] == "" and "even" in rows[1]["error"]
        assert rows[3]["energy"] == "" and "even" in rows[3]["error"]

    def test_json_round_trip(self):
        result = invoke(main, ["spectrum", "--n", "1..4", "--format", "json"])
        assert result.exit_code == 0
        payload = json.loads(result.output)
        assert json.dumps(payload, indent=2, allow_nan=False) + "\n" == result.output
        assert payload["command"] == "spectrum"
        assert payload["rows"][3]["energy"] == -0.03125

    def test_defect_family_needs_config(self):
        result = invoke(main, ["spectrum", "--family", "defect"])
        assert result.exit_code == 1
        assert "--config" in result.output

    def test_defect_family_with_config_flag(self, config_path):
        result = invoke(
            main,
            ["spectrum", "--family", "defect", "--config", config_path,
             "--n", "2..3", "--l", "0", "--format", "json"],
        )
        assert result.exit_code == 0
        rows = json.loads(result.output)["rows"]
        assert rows[0]["n_star"] == pytest.approx(1.6)
        assert rows[0]["energy"] == pytest.approx(-0.1953125)

    def test_config_via_environment(self, config_path):
        result = invoke(
            main,
            ["spectrum", "--family", "defect", "--n", "2", "--format", "json"],
            env={"SUSYRAD_CONFIG": config_path},
        )
        assert result.exit_code == 0
        assert json.loads(result.output)["rows"][0]["energy"] == pytest.approx(-0.1953125)

    def test_inadmissible_row_does_not_abort(self, config_path):
        # n=1, l=0 has no room for the i=1 shift; n=2 is fine
        result = invoke(
            main,
            ["spectrum", "--family", "defect", "--config", config_path,
             "--n", "1..2", "--format", "json"],
        )
        assert result.exit_code == 0
        rows = json.loads(result.output)["rows"]
        assert "error" in rows[0] and "degree" in rows[0]["error"]
        assert rows[1]["energy"] == pytest.approx(-0.1953125)

    def test_bad_range_spec_is_fatal(self):
        result = invoke(main, ["spectrum", "--n", "4..1"])
        assert result.exit_code == 1
        assert "empty range" in result.output


class TestWavefunction:
    def test_hydrogen_ground_values(self):
        result = invoke(
            main,
            ["wavefunction", "--family", "hydrogen", "--n", "1", "--l", "0",
             "--grid-min", "0.5", "--grid-max", "2.0", "--points", "4", "--format", "json"],
        )
        assert result.exit_code == 0
        payload = json.loads(result.output)
        rows = payload["rows"]
        assert [row["r"] for row in rows] == [0.5, 1.0, 1.5, 2.0]
        for row in rows:
            assert row["amplitude"] == pytest.approx(2.0 * math.exp(-row["r"]), rel=1e-14)
        diag = {d["name"]: d for d in payload["diagnostics"]}
        assert diag["relative_residual"]["value"] < 1e-8
        assert diag["node_count"]["value"] == 0.0

    def test_node_count_diagnostic(self):
        result = invoke(
            main, ["wavefunction", "--n", "3", "--l", "0", "--format", "json"]
        )
        assert result.exit_code == 0
        diag = {d["name"]: d for d in json.loads(result.output)["diagnostics"]}
        assert diag["node_count"]["value"] == 2.0

    def test_csv_has_diagnostic_comments(self):
        result = invoke(main, ["wavefunction"])
        assert result.exit_code == 0
        comments = _comments(result.output)
        assert any("relative_residual" in c for c in comments)
        assert any("node_count" in c for c in comments)

    def test_grid_validation_is_fatal(self):
        result = invoke(main, ["wavefunction", "--points", "1"])
        assert result.exit_code == 1
        result = invoke(main, ["wavefunction", "--grid-min", "-1.0"])
        assert result.exit_code == 1

    def test_hydrogen_family_requires_three_dimensions(self):
        result = invoke(main, ["wavefunction", "--family", "hydrogen", "--dim", "4"])
        assert result.exit_code == 1
        assert "three-dimensional" in result.output

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_render_error_is_fatal_without_traceback(self, monkeypatch, fmt):
        def with_nan(*args, **kwargs):
            return OutputRecord("wavefunction", {}, ["r", "amplitude"], [{"r": 1.0, "amplitude": math.nan}])

        monkeypatch.setattr(reports, "wavefunction_record", with_nan)
        result = invoke(main, ["wavefunction", "--format", fmt])
        assert result.exit_code == 1
        assert isinstance(result.exception, SystemExit)
        assert "Error: non-finite number in row[0].amplitude: nan" in result.output

    def test_large_state_exits_cleanly(self):
        # either finite amplitudes or a one-line error, never a traceback
        result = invoke(
            main,
            ["wavefunction", "--n", "160", "--l", "150", "--grid-max", "1e5", "--format", "json"],
        )
        assert result.exception is None or isinstance(result.exception, SystemExit)
        if result.exit_code:
            assert result.exit_code == 1
            assert result.output.startswith("Error: ")

    @pytest.mark.parametrize("options", [(), ("-W", "error::RuntimeWarning")], ids=["default", "strict"])
    def test_large_state_stderr_is_the_error_alone(self, options):
        # a Laguerre polynomial that overflows surfaces as render's typed error, not as numpy
        # warnings, also when the interpreter turns every RuntimeWarning into an error
        proc = _run_from_src("susyrad", "wavefunction", "--n", "1000", "--l", "500", options=options)
        assert proc.returncode == 1
        assert proc.stdout == ""
        assert proc.stderr == "Error: non-finite number in row[0].amplitude: nan\n"

    def test_state_past_the_power_range_prints_a_finite_table(self):
        # norm, power and exponential each leave double range here; their product does not
        proc = _run_from_src(
            "susyrad", "wavefunction", "--n", "160", "--l", "150", "--grid-max", "1e5",
            options=("-W", "error::RuntimeWarning"),
        )
        assert (proc.returncode, proc.stderr) == (0, "")
        rows = [line.split(",") for line in proc.stdout.splitlines() if line[:1].isdigit()]
        assert len(rows) == 200
        amplitudes = [float(amplitude) for _, amplitude in rows]
        assert all(math.isfinite(a) for a in amplitudes) and any(amplitudes)
        assert amplitudes[-1] == pytest.approx(-1.237e-16, rel=1e-3)

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_state_zero_on_its_whole_grid_is_refused(self, tmp_path, fmt):
        # n* + gamma = 1e-5, so the state is 0.0 on all of [0.05, 30], and its relative residual would be 0/0
        path = tmp_path / "zero.cfg"
        path.write_text("format_version = 1\n\n[defect]\ndimension = 3\nl = 0\ndelta = 0.99999\nshift = 0\n",
                        encoding="utf-8")
        argv = ["wavefunction", "--family", "defect", "--n", "1", "--l", "0", "--config", str(path), "--format", fmt]
        assert _one_error_line(invoke(main, argv)) == "Error: the state is zero at every point of its grid, 0.05 to 30\n"

    def test_hydrogen_state_zero_on_its_whole_grid_names_the_r_bounds(self):
        # R_nl(r) is read off the Coulomb state at y = 2r; the message names the r grid asked for
        argv = ["wavefunction", "--family", "hydrogen", "--grid-min", "1e4", "--grid-max", "2e4"]
        want = "Error: the state is zero at every point of its grid, 10000 to 20000\n"
        assert _one_error_line(invoke(main, argv)) == want

    @pytest.mark.parametrize(
        ("family", "numbers", "point"),
        [("coulomb", ("--n", 2, "--l", 1), 1e-160), ("oscillator", ("--N", 0, "--L", 0), 1e-320),
         ("hydrogen", ("--n", 1, "--l", 0), 1e-320)],
        ids=["coulomb-inf", "oscillator-zero-over-zero", "hydrogen-names-r"],
    )
    def test_residual_out_of_float_range_names_its_point(self, family, numbers, point):
        # the potential's 1/x**2 leaves float range at the first point (inf, or 0/0 where the centrifugal
        # term is 0), where the value is in range; the diagnostic printed inf or nan instead; hydrogen's
        # residual is on 2r, and the message names r
        argv = ["wavefunction", "--family", family, *map(str, numbers), "--grid-min", repr(point), "--grid-max", "1"]
        assert _one_error_line(invoke(main, argv)) == f"Error: residual({point!r}) is out of float range\n"
        # in the library too, refused with no numpy warning first
        with pytest.raises(DomainError, match=rf"^residual\({point!r}\) is out of float range$"):
            reports.wavefunction_record(family, 3, numbers[1], numbers[3], point, 1.0, 200)

    def test_oscillator_state(self):
        result = invoke(
            main,
            ["wavefunction", "--family", "oscillator", "--N", "2", "--L", "0",
             "--format", "json"],
        )
        assert result.exit_code == 0
        payload = json.loads(result.output)
        assert payload["inputs"]["N"] == 2
        diag = {d["name"]: d for d in payload["diagnostics"]}
        assert diag["node_count"]["value"] == 1.0


class TestSusyPair:
    def test_hydrogen_partners(self):
        result = invoke(
            main,
            ["susy-pair", "--grid-min", "0.5", "--grid-max", "2.0", "--points", "4",
             "--format", "json"],
        )
        assert result.exit_code == 0
        payload = json.loads(result.output)
        for row in payload["rows"]:
            x = row["x"]
            assert row["v_plus"] == pytest.approx(0.25 - 1.0 / x, rel=1e-14)
            assert row["v_minus"] == pytest.approx(0.25 - 1.0 / x + 2.0 / x**2, rel=1e-14)
            assert row["difference"] == pytest.approx(2.0 / x**2, rel=1e-12)
        diag = {d["name"]: d for d in payload["diagnostics"]}
        assert diag["shift_identity_defect"]["value"] < 1e-12
        assert diag["ground_annihilation_residual"]["value"] < 1e-8

    def test_oscillator_partner_value(self):
        result = invoke(
            main,
            ["susy-pair", "--family", "oscillator", "--grid-min", "1.0",
             "--grid-max", "3.0", "--points", "3", "--format", "json"],
        )
        assert result.exit_code == 0
        rows = json.loads(result.output)["rows"]
        assert rows[0]["x"] == 1.0
        assert rows[0]["v_plus"] == pytest.approx(-2.0, rel=1e-14)

    def test_defect_family_rejected(self):
        result = invoke(main, ["susy-pair", "--family", "defect"])
        assert result.exit_code == 2  # not a valid Choice value

    @pytest.mark.parametrize(
        "args, message",
        [
            (["--grid-min", "5", "--grid-max", "1"], "grid bounds must satisfy 0 < min < max"),
            (["--points", "1"], "need at least 2 grid points"),
            (["--points", "0"], "need at least 2 grid points"),
        ],
        ids=["descending", "one-point", "no-points"],
    )
    def test_grid_rule_matches_wavefunction(self, args, message):
        result = invoke(main, ["susy-pair", *args])
        assert result.exit_code == 1
        assert isinstance(result.exception, SystemExit)
        assert result.output.splitlines() == [f"Error: {message}"]
        wave = invoke(main, ["wavefunction", *args])
        assert wave.exit_code == 1
        assert wave.output.splitlines() == [f"Error: {message}"]

    @pytest.mark.parametrize(
        "verb", [["susy-pair"], ["wavefunction", "--N", "2"]], ids=["susy-pair", "wavefunction"]
    )
    def test_overflowing_oscillator_grid_names_the_coordinate(self, verb):
        # 1e160 is a finite flag whose square is not, inside the oscillator form
        result = invoke(main, [*verb, "--family", "oscillator", "--grid-max", "1e160"])
        assert result.exit_code == 1
        assert isinstance(result.exception, SystemExit)
        message = "radial coordinate too large: its Laguerre argument overflows"
        assert result.output.splitlines() == [f"Error: {message}"]
        with np.errstate(over="ignore"), pytest.raises(DomainError, match=message):
            oscillator.OscillatorState(3, 2, 0).value(1e160)


class TestMap:
    def test_exact_single_lambda(self):
        result = invoke(
            main, ["map", "--d", "3", "--n", "2", "--l", "0", "--lambda", "1",
                   "--format", "json"]
        )
        assert result.exit_code == 0
        payload = json.loads(result.output)
        row = payload["rows"][0]
        assert (row["D"], row["N"], row["L"]) == (2, 3, 1)
        assert row["constancy_defect"] < 1e-8
        diag = {d["name"]: d for d in payload["diagnostics"]}
        assert diag["max_constancy_defect"]["value"] < 1e-8

    def test_exact_rejects_half_integer_in_row(self):
        result = invoke(
            main, ["map", "--d", "3", "--n", "1", "--l", "0", "--lambda", "1/2",
                   "--format", "json"]
        )
        assert result.exit_code == 0
        payload = json.loads(result.output)
        assert "not an integer in exact mode" in payload["rows"][0]["violations"]
        assert payload["diagnostics"] == []

    def test_lambda_range_sweep(self):
        result = invoke(
            main, ["map", "--d", "3", "--n", "1", "--l", "0", "--lambda-range", "0..2",
                   "--format", "json"]
        )
        assert result.exit_code == 0
        rows = json.loads(result.output)["rows"]
        assert len(rows) == 3
        assert (rows[0]["D"], rows[0]["N"], rows[0]["L"]) == (4, 0, 0)
        assert (rows[1]["D"], rows[1]["N"], rows[1]["L"]) == (2, 1, 1)
        assert "below 2" in rows[2]["violations"]

    def test_broken_range_starts_on_the_half_integer_grid(self):
        result = invoke(
            main, ["map", "--d", "3", "--n", "3", "--l", "1", "--mode", "broken",
                   "--lambda-range", "1/4..3/2", "--Delta", "0.25", "--format", "json"]
        )
        assert result.exit_code == 0
        rows = json.loads(result.output)["rows"]
        assert [row["lambda"] for row in rows] == [0.5, 1.0, 1.5]
        assert (rows[0]["D"], rows[0]["N"], rows[0]["L"]) == (3, 5, 3)

    def test_rejected_lambda_is_printed_as_a_fraction(self):
        result = invoke(
            main, ["map", "--d", "3", "--n", "1", "--l", "0", "--lambda", "1/4", "--format", "json"]
        )
        assert result.exit_code == 0
        violations = json.loads(result.output)["rows"][0]["violations"]
        assert violations == "lambda = 1/4 is not an integer or half-integer"

    def test_broken_quarter_integer(self):
        result = invoke(
            main, ["map", "--d", "3", "--n", "1", "--l", "0", "--mode", "broken",
                   "--lambda", "0.5", "--Delta", "0.25", "--format", "json"]
        )
        assert result.exit_code == 0
        row = json.loads(result.output)["rows"][0]
        assert (row["D"], row["N"], row["L"]) == (3, 1, 1)
        assert row["constancy_defect"] < 1e-8

    def test_exactly_one_lambda_option(self):
        result = invoke(main, ["map", "--d", "3", "--n", "1", "--l", "0"])
        assert result.exit_code == 1
        assert "exactly one" in result.output
        result = invoke(
            main, ["map", "--d", "3", "--n", "1", "--l", "0", "--lambda", "1",
                   "--lambda-range", "0..1"]
        )
        assert result.exit_code == 1

    def test_bad_range_text(self):
        result = invoke(
            main, ["map", "--d", "3", "--n", "1", "--l", "0", "--lambda-range", "01"]
        )
        assert result.exit_code == 1
        assert "lo..hi" in result.output

    @pytest.mark.parametrize(
        "flag, text",
        [("--lambda", "1/0"), ("--lambda", "1e308"), ("--lambda-range", "0..1/0")],
        ids=["zero-denominator", "overflowing", "range-zero-denominator"],
    )
    def test_unrepresentable_lambda_is_one_error_line(self, flag, text):
        result = invoke(main, ["map", "--d", "3", "--n", "2", "--l", "1", flag, text])
        assert result.exit_code == 1
        assert isinstance(result.exception, SystemExit)
        assert result.stdout == ""
        bad = text.split("..")[-1]
        assert result.stderr == (
            f"Error: lambda '{bad}' is out of range (2*lambda must be a finite float)\n"
        )

    def test_unparsable_lambda_keeps_its_message(self):
        result = invoke(main, ["map", "--d", "3", "--n", "2", "--l", "1", "--lambda", "abc"])
        assert result.exit_code == 1
        assert result.stderr == "Error: Invalid literal for Fraction: 'abc'\n"

    def test_invalid_source_is_fatal(self):
        result = invoke(
            main, ["map", "--d", "1", "--n", "1", "--l", "0", "--lambda", "1"]
        )
        assert result.exit_code == 1


class TestTrap:
    def test_frequencies_from_flags(self):
        result = invoke(
            main,
            ["trap", "frequencies", "--B", "5.0", "--V", "-12.0", "--d", "0.01",
             "--format", "json"],
        )
        assert result.exit_code == 0
        rows = json.loads(result.output)["rows"]
        by_name = {row["quantity"]: row for row in rows}
        w_c = codata.elementary_charge * 5.0 / codata.electron_mass
        assert by_name["cyclotron"]["angular_frequency_rad_s"] == pytest.approx(w_c, rel=1e-12)
        assert by_name["cyclotron"]["frequency_hz"] == pytest.approx(
            w_c / (2.0 * math.pi), rel=1e-12
        )

    def test_frequencies_from_config(self, config_path):
        result = invoke(
            main, ["trap", "frequencies", "--config", config_path, "--format", "json"]
        )
        assert result.exit_code == 0
        rows = json.loads(result.output)["rows"]
        assert rows[0]["quantity"] == "cyclotron"

    def test_frequencies_need_all_three_flags(self):
        result = invoke(main, ["trap", "frequencies", "--B", "5.0"])
        assert result.exit_code == 1
        assert "--B, --V and --d" in result.output or "all of" in result.output

    def test_unstable_voltage_is_fatal(self):
        result = invoke(
            main, ["trap", "frequencies", "--B", "5.0", "--V", "12.0", "--d", "0.01"]
        )
        assert result.exit_code == 1
        assert "unstable" in result.output

    def test_operating_point(self):
        result = invoke(
            main, ["trap", "operating-point", "--B", "5.0", "--d", "0.01", "--format", "json"]
        )
        assert result.exit_code == 0
        payload = json.loads(result.output)
        voltage = payload["rows"][0]["V_volt"]
        expected = (-codata.elementary_charge) * 25.0 * 1e-4 / codata.electron_mass
        assert voltage == pytest.approx(expected, rel=1e-12)
        diag = {d["name"]: d for d in payload["diagnostics"]}
        assert diag["frequency_match"]["value"] <= 1e-12

    def test_operating_point_proton(self):
        result = invoke(
            main,
            ["trap", "operating-point", "--B", "5.0", "--d", "0.01",
             "--species", "proton", "--format", "json"],
        )
        assert result.exit_code == 0
        assert json.loads(result.output)["rows"][0]["V_volt"] > 0.0

    @pytest.mark.parametrize(
        "extra", [["--B", "5.0", "--V", "1.0", "--d", "0.01"], ["--B", "5.0", "--d", "0.01"]]
    )
    def test_one_unknown_species_message(self, extra):
        verb = "frequencies" if "--V" in extra else "operating-point"
        result = invoke(main, ["trap", verb, *extra, "--species", "muon"])
        assert result.exit_code == 1
        assert result.output == (
            "Error: unknown species 'muon'; give explicit charge and mass\n"
        )

    def test_levels_quanta_only(self):
        result = invoke(
            main, ["trap", "levels", "--L", "1", "--N-max", "7", "--format", "json"]
        )
        assert result.exit_code == 0
        rows = json.loads(result.output)["rows"]
        assert [row["N"] for row in rows] == [1, 3, 5, 7]
        assert [row["energy_quanta"] for row in rows] == [2.0, 4.0, 6.0, 8.0]
        assert all("energy_joule" not in row for row in rows)

    def test_levels_with_si_column(self):
        result = invoke(
            main,
            ["trap", "levels", "--L", "0", "--N-max", "4", "--B", "5.0", "--V", "-12.0",
             "--d", "0.01", "--format", "json"],
        )
        assert result.exit_code == 0
        rows = json.loads(result.output)["rows"]
        w_c = codata.elementary_charge * 5.0 / codata.electron_mass
        for row in rows:
            assert row["energy_joule"] == pytest.approx(
                row["energy_quanta"] * codata.hbar * w_c, rel=1e-12
            )

    def test_levels_clamp_errors_stay_in_rows(self):
        # L - 2*Delta + 1/2 <= 0 kills every L=0 row, yet the sweep completes
        result = invoke(
            main,
            ["trap", "levels", "--L", "0", "--N-max", "4", "--Delta", "0.3",
             "--format", "json"],
        )
        assert result.exit_code == 0
        rows = json.loads(result.output)["rows"]
        assert len(rows) == 3
        assert all("normalizability" in row["error"] for row in rows)
        # one unit up in L the same Delta is admissible again
        result = invoke(
            main,
            ["trap", "levels", "--L", "1", "--N-max", "5", "--Delta", "0.3",
             "--format", "json"],
        )
        rows = json.loads(result.output)["rows"]
        assert all(row["energy_quanta"] == pytest.approx(row["N"] + 0.4) for row in rows)

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize("angular, n_max", [(5, 2), (5, 4), (1, 0), (0, -1)])
    def test_empty_ladder_is_refused(self, angular, n_max, fmt):
        # a ladder with no level is refused, as an empty --n range is, not printed as an empty table
        result = invoke(
            main, ["trap", "levels", "--L", str(angular), "--N-max", str(n_max), "--format", fmt]
        )
        assert _one_error_line(result) == (
            f"Error: empty ladder L={angular}..N_max={n_max}: N_max must be at least L\n"
        )

    def test_one_level_ladder_runs(self):
        result = invoke(main, ["trap", "levels", "--L", "5", "--N-max", "5", "--format", "json"])
        assert result.exit_code == 0
        assert [row["N"] for row in json.loads(result.output)["rows"]] == [5]

    def test_levels_anharmonic_energies(self):
        result = invoke(
            main,
            ["trap", "levels", "--L", "1", "--N-max", "3", "--Delta", "0.05",
             "--format", "json"],
        )
        assert result.exit_code == 0
        rows = json.loads(result.output)["rows"]
        assert rows[0]["energy_quanta"] == pytest.approx(1.9)
        assert rows[1]["energy_quanta"] == pytest.approx(3.9)


class TestTrapConfigResolution:
    """--B/--V/--d, else the config's [trap] record, else no trap; a broken config is fatal."""

    BROKEN = {
        "version": "format_version = 2\n[trap]\nB_tesla = 5.0\n",
        "missing-d": "format_version = 1\n[trap]\nB_tesla = 5.0\nV_volt = -12.0\nspecies = electron\n",
    }

    @pytest.mark.parametrize("verb", [["levels", "--N-max", "2"], ["frequencies"]])
    @pytest.mark.parametrize("name", sorted(BROKEN))
    def test_broken_config_is_fatal(self, tmp_path, verb, name):
        path = tmp_path / "broken.cfg"
        path.write_text(self.BROKEN[name], encoding="utf-8")
        message = _one_error_line(invoke(main, ["trap", *verb, "--config", str(path)]))
        expected = "unsupported format_version" if name == "version" else "missing 'd_meter'"
        assert expected in message

    def test_levels_without_a_trap_record(self, tmp_path):
        path = tmp_path / "models.cfg"
        path.write_text(CONFIG_TEXT[: CONFIG_TEXT.index("[trap]")], encoding="utf-8")
        result = invoke(main, ["trap", "levels", "--N-max", "2", "--config", str(path)])
        assert result.exit_code == 0
        assert list(_csv_rows(result.output)[0]) == [
            "N", "L", "Delta", "N_star", "energy_quanta", "error"
        ]
        message = _one_error_line(invoke(main, ["trap", "frequencies", "--config", str(path)]))
        assert message == "Error: no [trap] record in configuration\n"

    def test_frequencies_without_any_trap(self):
        message = _one_error_line(invoke(main, ["trap", "frequencies"]))
        assert message == "Error: trap parameters missing: give --B --V --d or --config\n"


class TestOutputHandling:
    def test_out_writes_file(self, tmp_path):
        target = tmp_path / "table.csv"
        result = invoke(main, ["spectrum", "--n", "1..3", "--out", str(target)])
        assert result.exit_code == 0
        assert result.output == ""
        on_disk = target.read_text(encoding="utf-8")
        direct = invoke(main, ["spectrum", "--n", "1..3"]).output
        assert on_disk == direct

    @pytest.mark.parametrize("argv", [["spectrum"], ["trap", "levels"]])
    def test_unwritable_out_is_one_error_line(self, tmp_path, argv):
        target = tmp_path / "absent" / "table.csv"
        message = _one_error_line(invoke(main, [*argv, "--out", str(target)]))
        assert "No such file or directory" in message

    def test_version(self):
        result = invoke(main, ["--version"])
        assert result.exit_code == 0
        assert "0.1.0" in result.output

    def test_version_without_installed_metadata(self, monkeypatch):
        def not_installed(name):
            raise importlib.metadata.PackageNotFoundError(name)

        monkeypatch.setattr(importlib.metadata, "version", not_installed)
        result = invoke(main, ["--version"])
        assert result.exit_code == 0
        assert result.output == f"susyrad, version {susyrad.__version__}\n"

    @pytest.mark.parametrize("module", ["susyrad", "susyrad.cli"])
    def test_version_as_module_from_src(self, module):
        proc = _run_from_src(module, "--version")
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == f"susyrad, version {susyrad.__version__}\n"

    def test_unknown_command(self):
        result = invoke(main, ["levitate"])
        assert result.exit_code == 2

    def test_ctrl_c_is_aborted_without_a_traceback(self, monkeypatch):
        # as click ends it: a new line and Aborted! on stderr, exit 1
        def interrupted(*args, **kwargs):
            raise KeyboardInterrupt

        monkeypatch.setattr(reports, "spectrum_record", interrupted)
        result = invoke(main, ["spectrum"])
        assert (result.exit_code, result.stdout, result.stderr) == (1, "", "\nAborted!\n")
        assert isinstance(result.exception, SystemExit)


USAGE_ERRORS = [
    ("choice", ["spectrum", "--format", "xml"], "susyrad spectrum [OPTIONS]",
     "Invalid value for '--format': 'xml' is not one of 'csv', 'json'."),
    ("integer", ["wavefunction", "--N", "x"], "susyrad wavefunction [OPTIONS]",
     "Invalid value for '--n' / '--N': 'x' is not a valid integer."),
    ("float", ["trap", "levels", "--Delta", "abc"], "susyrad trap levels [OPTIONS]",
     "Invalid value for '--Delta': 'abc' is not a valid float."),
    ("negative-non-finite", ["trap", "levels", "--V", "-inf"], "susyrad trap levels [OPTIONS]",
     "Invalid value for '--V': '-inf' is not a finite float."),
    ("missing", ["map", "--n", "2", "--l", "0"], "susyrad map [OPTIONS]", "Missing option '--d'."),
    # an unknown name carries click's hint, its close matches (difflib's, cutoff 0.6) among the known names
    ("no-such-option", ["spectrum", "--foo"], "susyrad spectrum [OPTIONS]",
     "No such option '--foo'. (Did you mean one of: '--format', '--out'?)"),
    ("no-abbreviation", ["spectrum", "--fam", "coulomb"], "susyrad spectrum [OPTIONS]",
     "No such option '--fam'. (Did you mean one of: '--dim', '--family', '--format'?)"),
    ("misspelt-option-with-value", ["spectrum", "--fromat=json"], "susyrad spectrum [OPTIONS]",
     "No such option '--fromat'. (Did you mean one of: '--format', '--out'?)"),
    ("misspelt-second-name", ["trap", "levels", "--n-mx", "3"], "susyrad trap levels [OPTIONS]",
     "No such option '--n-mx'. (Did you mean one of: '--N-max', '--n-max'?)"),
    ("misspelt-group-option", ["--verison"], "susyrad [OPTIONS] COMMAND [ARGS]...",
     "No such option '--verison'. Did you mean '--version'?"),
    ("single-dash", ["spectrum", "-fam"], "susyrad spectrum [OPTIONS]", "No such option '-f'."),
    ("no-such-command", ["levitate"], "susyrad [OPTIONS] COMMAND [ARGS]...", "No such command 'levitate'."),
    ("misspelt-command", ["spectra"], "susyrad [OPTIONS] COMMAND [ARGS]...",
     "No such command 'spectra'. Did you mean 'spectrum'?"),
    ("no-such-trap-command", ["trap", "levitate"], "susyrad trap [OPTIONS] COMMAND [ARGS]...",
     "No such command 'levitate'."),
    ("misspelt-trap-command", ["trap", "frequncies"], "susyrad trap [OPTIONS] COMMAND [ARGS]...",
     "No such command 'frequncies'. Did you mean 'frequencies'?"),
    ("extra-argument", ["spectrum", "extra"], "susyrad spectrum [OPTIONS]", "Got unexpected extra argument (extra)"),
    ("out-directory", ["spectrum", "--out", "."], "susyrad spectrum [OPTIONS]",
     "Invalid value for '--out': File '.' is a directory."),
    ("double-dash-value", ["spectrum", "--dim", "--"], "susyrad spectrum [OPTIONS]",
     "Invalid value for '--dim': '--' is not a valid integer."),
    ("double-dash-after-equals", ["map", "--d=--", "--n", "1", "--l", "0"], "susyrad map [OPTIONS]",
     "Invalid value for '--d': '--' is not a valid integer."),
    ("double-dash-float", ["trap", "levels", "--Delta", "--"], "susyrad trap levels [OPTIONS]",
     "Invalid value for '--Delta': '--' is not a valid float."),
    ("missing-command", ["--"], "susyrad [OPTIONS] COMMAND [ARGS]...", "Missing command."),
    # a command name that looks like an option is parsed again as the group's own, as click does
    ("option-as-command", ["--", "--foo"], "susyrad [OPTIONS] COMMAND [ARGS]...", "No such option '--foo'."),
]

TRAP_HELP = """\
Usage: susyrad trap levels [OPTIONS]

  Ladder of trap levels at fixed angular number; SI energies with a trap
  config.

Options:
  --L, --l INTEGER          [default: 0]
  --N-max, --n-max INTEGER  [default: 12]
  --Delta FLOAT             [default: 0.0]
  --B FLOAT                 Magnetic field in tesla.
  --V FLOAT                 Electrode voltage in volts.
  --d FLOAT                 Trap length in meters.
  --species TEXT            Preset particle (electron or proton); ignored when
                            charge and mass are given.  [default: electron]
  --charge FLOAT            Charge in coulombs.
  --mass FLOAT              Mass in kilograms.
  --config FILE             Configuration file (defaults to $SUSYRAD_CONFIG).
  --format [csv|json]       Output format.  [default: csv]
  --out FILE                Write the record to a file instead of stdout.
  --help                    Show this message and exit.
"""


class TestUsageErrors:
    """A refused command line exits 2 after the usage line, the --help hint, a blank line and one Error: line."""

    @pytest.mark.parametrize(("argv", "usage", "message"), [case[1:] for case in USAGE_ERRORS],
                             ids=[case[0] for case in USAGE_ERRORS])
    def test_usage_lines_and_one_error_line(self, argv, usage, message):
        result = invoke(main, argv)
        assert result.exit_code == 2 and result.stdout == ""
        prog = usage.split(" [")[0]
        assert result.stderr == f"Usage: {usage}\nTry '{prog} --help' for help.\n\nError: {message}\n"

    @pytest.mark.parametrize(("argv", "message"), [
        (["spectrum", "--dim"], "Option '--dim' requires an argument."),
        (["spectrum", "--help=x"], "Option '--help' does not take a value."),
    ], ids=["missing-value", "flag-with-value"])
    def test_the_error_line_alone(self, argv, message):
        result = invoke(main, argv)
        assert (result.exit_code, result.stdout) == (2, "")
        assert result.stderr == f"Error: {message}\n"

    @pytest.mark.parametrize("flag", ["--n", "--n=", "--l"])
    def test_a_double_dash_text_value_is_one_error_line(self, flag):
        argv = ["spectrum", flag + "--"] if flag.endswith("=") else ["spectrum", flag, "--"]
        assert _one_error_line(invoke(main, argv)) == "Error: invalid literal for int() with base 10: '--'\n"

    def test_an_option_given_twice_keeps_its_last_value(self):
        twice, once = invoke(main, ["spectrum", "--dim", "x", "--dim", "2"]), invoke(main, ["spectrum", "--dim", "2"])
        assert (twice.exit_code, twice.output) == (0, once.output)

    @pytest.mark.parametrize("argv", [["trap", "levels", "--help"], ["trap", "levels", "--V", "x", "--help"],
                                      ["trap", "levels", "extra", "--help"]], ids=["help", "bad-value", "extra"])
    def test_help_wins_over_a_bad_value_and_is_laid_out_as_click_did(self, argv):
        result = invoke(main, argv)
        assert (result.exit_code, result.stdout, result.stderr) == (0, TRAP_HELP, "")

    def test_config_from_the_environment_is_checked_as_the_flag(self, tmp_path):
        result = invoke(main, ["spectrum"], env={"SUSYRAD_CONFIG": str(tmp_path)})
        assert result.exit_code == 2
        assert result.stderr.endswith(f"Error: Invalid value for '--config': File {str(tmp_path)!r} is a directory.\n")

    @pytest.mark.parametrize("flag", ["--version", "--help"])
    def test_a_group_flag_after_double_dash_is_the_flag(self, flag):
        # click's Group.resolve_command parses an option-like command name as the group's own
        after, plain = invoke(main, ["--", flag]), invoke(main, [flag])
        assert (after.exit_code, after.stdout, after.stderr) == (0, plain.stdout, "")
        assert plain.stdout.startswith("susyrad, version " if flag == "--version" else "Usage: susyrad [OPTIONS]")

    @pytest.mark.parametrize(("argv", "command"), [([], "spectrum"), (["trap"], "levels")], ids=["root", "trap"])
    def test_a_bare_group_prints_its_help_as_a_usage_error(self, argv, command):
        result = invoke(main, argv)
        assert (result.exit_code, result.stdout) == (2, "")
        assert "Commands:" in result.stderr and f"  {command}  " in result.stderr


class TestVerify:
    def test_json_report(self):
        result = invoke(main, ["verify", "--format", "json"])
        assert result.exit_code == 0
        entries = json.loads(result.output)
        assert len(entries) == 9
        assert [e["criterion"] for e in entries] == list(range(1, 10))
        assert all(e["passed"] for e in entries)
        assert all(e["value"] <= e["tolerance"] for e in entries)

    def test_table_report(self, tmp_path):
        target = tmp_path / "report.txt"
        result = invoke(main, ["verify", "--out", str(target)])
        assert result.exit_code == 0
        text = target.read_text(encoding="utf-8")
        assert "9/9 checks passed" in text
        assert text.count("PASS") == 9


def _one_error_line(result):
    """A clean fatal exit: code 1, no traceback, one Error: line on stderr and nothing else."""
    assert result.exit_code == 1
    assert isinstance(result.exception, SystemExit)
    assert result.stdout == ""
    assert result.stderr.startswith("Error: ") and result.stderr.count("\n") == 1
    return result.stderr


class TestFiniteFlagsOutOfRange:
    @pytest.mark.parametrize("delta", ["inf", "1e308"])
    def test_map_overflowing_breaking_parameter_is_a_row_violation(self, delta):
        result = invoke(
            main, ["map", "--d", "3", "--n", "2", "--l", "0", "--mode", "broken",
                   "--lambda", "1", "--Delta", delta, "--format", "json"]
        )
        if delta == "inf":  # the flag itself is not a finite number, so the parser refuses it by name
            assert result.exit_code == 2
            assert result.stderr.endswith(
                "Error: Invalid value for '--Delta': 'inf' is not a finite float.\n"
            )
            return
        assert result.exit_code == 0, result.output
        violations = json.loads(result.output)["rows"][0]["violations"]
        assert violations.startswith("2*(Delta - delta) + lambda = inf is not an integer")

    @pytest.mark.parametrize("args", [["--B", "1e200", "--d", "0.01"], ["--B", "5", "--d", "1e200"]])
    def test_operating_point_overflow(self, args):
        message = _one_error_line(invoke(main, ["trap", "operating-point", *args]))
        assert message == (
            "Error: operating-point voltage e B^2 d^2 / m is out of float range for this trap\n"
        )

    @pytest.mark.parametrize("length", ["1e200", "1e-320"])
    def test_frequencies_out_of_float_range(self, length):
        result = invoke(
            main, ["trap", "frequencies", "--B", "5", "--V", "12", "--d", length,
                   "--species", "proton"]
        )
        assert _one_error_line(result) == (
            "Error: axial frequency is out of float range for this trap\n"
        )


def _value_options(group=cli._ROOT, path=()):
    """(verb path, first flag, kind) of every option that takes a value, the trap group's verbs included."""
    for name, command in group.items():
        if isinstance(command, cli._Group):
            yield from _value_options(command, (*path, name))
            continue
        for flags, _, kind, *_ in command.options:
            if kind is not cli._FLAG:
                yield (*path, name), flags.split()[0], kind


VALUE_OPTIONS = [(verb, flag) for verb, flag, _ in _value_options()]
FLOAT_OPTIONS = [(verb, flag) for verb, flag, kind in _value_options() if kind is float]


class TestAnyOptionText:
    @pytest.mark.parametrize("text", ["--", "-", ""])
    @pytest.mark.parametrize(
        ("verb", "flag"), VALUE_OPTIONS, ids=[" ".join(v) + f" {f}" for v, f in VALUE_OPTIONS]
    )
    def test_ends_in_a_record_or_an_error_line(self, verb, flag, text, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)  # `--out -` writes a file named `-`
        result = invoke(main, [*verb, flag, text], env={"SUSYRAD_CONFIG": None})
        assert result.exit_code in (0, 1, 2) and not isinstance(result.exception, Exception), result.exception
        if result.exit_code:
            assert result.stderr.startswith(("Usage: ", "Error: ")) and result.stderr.count("Error: ") == 1


class TestFiniteFloatFlags:
    def test_every_float_flag_is_enumerated(self):
        assert len(FLOAT_OPTIONS) == 21

    @pytest.mark.parametrize("text", ["nan", "inf", "-inf", "1e400"])
    @pytest.mark.parametrize(
        ("verb", "flag"), FLOAT_OPTIONS, ids=[" ".join(v) + f" {f}" for v, f in FLOAT_OPTIONS]
    )
    def test_non_finite_value_is_a_usage_error_naming_the_flag(self, verb, flag, text):
        # refused while parsing, before any required flag is missed or any record is built
        result = invoke(main, [*verb, flag, text])
        assert result.exit_code == 2
        assert result.stdout == ""
        assert result.stderr.endswith(
            f"Error: Invalid value for '{flag}': '{text}' is not a finite float.\n"
        )


class TestCountLimits:
    @pytest.mark.parametrize("verb", ["wavefunction", "susy-pair"])
    def test_points(self, verb):
        over = reports.MAX_GRID_POINTS + 1
        message = _one_error_line(invoke(main, [verb, "--points", str(over)]))
        assert message == (
            f"Error: {over} grid points exceed the limit of {reports.MAX_GRID_POINTS}\n"
        )

    @pytest.mark.parametrize(
        "args, what",
        [(["--n", "1..100000000"], "range '1..100000000' has 100000000"),
         (["--n", "1..5000", "--l", "0..2"], "the (n, l) sweep has 15000")],
        ids=["one-range", "product"],
    )
    def test_spectrum_sweep(self, args, what):
        message = _one_error_line(invoke(main, ["spectrum", *args]))
        assert message == f"Error: {what} rows; the limit is {reports.MAX_TABLE_ROWS}\n"

    def test_spectrum_sweep_at_the_limit_runs(self):
        result = invoke(main, ["spectrum", "--n", "1..2500", "--l", "0..3"])
        assert result.exit_code == 0
        assert len(_csv_rows(result.output)) == reports.MAX_TABLE_ROWS

    def test_trap_ladder(self):
        result = invoke(main, ["trap", "levels", "--N-max", str(10**30)])
        assert "the limit is 10000" in _one_error_line(result)

    def test_lambda_range(self):
        result = invoke(
            main, ["map", "--d", "3", "--n", "2", "--l", "0", "--lambda-range", "0..1e300"]
        )
        assert _one_error_line(result) == (
            "Error: [0, 1e+300] holds more than the limit of 10000 lambda candidates\n"
        )

    @pytest.mark.parametrize("verb", ["wavefunction", "spectrum"])
    def test_huge_quantum_number(self, verb):
        # at 10**200 a degree-n recurrence never finishes and float(n) overflows
        message = _one_error_line(invoke(main, [verb, "--n", str(10**200)]))
        assert message == f"Error: |--n| exceeds the limit of {reports.MAX_QUANTUM_NUMBER}\n"

    BOUNDED = [
        ["spectrum", "--dim"], ["spectrum", "--l"], ["wavefunction", "--dim"],
        ["wavefunction", "--l"], ["susy-pair", "--dim"], ["susy-pair", "--l"],
        ["map", "--n", "2", "--l", "0", "--lambda", "1", "--d"],
        ["map", "--d", "3", "--l", "0", "--lambda", "1", "--n"],
        ["map", "--d", "3", "--n", "2", "--lambda", "1", "--l"],
        ["map", "--d", "3", "--n", "2", "--l", "0", "--lambda", "1", "--i"],
        ["map", "--d", "3", "--n", "2", "--l", "0", "--lambda", "1", "--I"],
        ["trap", "levels", "--L"],
    ]

    @pytest.mark.parametrize("argv", BOUNDED, ids=[f"{a[0]}{a[-1]}" for a in BOUNDED])
    @pytest.mark.parametrize("sign", [1, -1], ids=["above", "below"])
    def test_quantum_number_limit(self, argv, sign):
        value = sign * (reports.MAX_QUANTUM_NUMBER + 1)
        message = _one_error_line(invoke(main, [*argv, str(value)]))
        assert message == f"Error: |{argv[-1]}| exceeds the limit of {reports.MAX_QUANTUM_NUMBER}\n"
