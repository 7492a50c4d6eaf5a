"""Acceptance gate: one test per criterion, one pass/fail line each.

Criteria 1-9 call the same check functions the `verify` CLI verb runs, so the
gate and the shipped command cannot drift apart.  Criterion 10 invokes the
verb itself and holds it to the wall-clock budget.  Run with `pytest -s` to
see the lines for passing criteria too.
"""

import time

from cli_runner import invoke
from susyrad import geonium, verify
from susyrad.cli import main

CLI_BUDGET_SECONDS = 180.0


def _report(result):
    status = "PASS" if result.passed else "FAIL"
    line = (
        f"criterion {result.criterion} {result.name}: {status} "
        f"(worst {result.value:.2e}, tolerance {result.tolerance:.0e}, "
        f"{result.seconds:.2f} s)"
    )
    print(line)
    assert result.passed, f"{line}; detail: {result.detail}"


def test_criterion_01_hydrogen_spectrum():
    _report(verify.check_hydrogen_spectrum())


def test_criterion_02_radial_residuals():
    _report(verify.check_radial_residuals())


def test_criterion_03_orthonormality():
    _report(verify.check_orthonormality())


def test_criterion_04_susy_structure():
    _report(verify.check_susy_structure())


def test_criterion_05_exact_maps():
    _report(verify.check_exact_maps())


def test_criterion_06_odd_dimension_map():
    _report(verify.check_odd_dimension_map())


def test_criterion_07_reduction_limits():
    _report(verify.check_reduction_limits())


def test_criterion_08_penning_trap():
    _report(verify.check_penning_trap())


def test_criterion_08_refuses_an_operating_point_of_the_wrong_sign(monkeypatch):
    # the trap the record builds refuses e*V <= 0 before the criterion reads the voltage
    right = geonium.susy_operating_point
    monkeypatch.setattr(geonium, "susy_operating_point", lambda *args: -right(*args))
    result = verify.check_penning_trap()
    assert not result.passed
    assert "unstable trap" in result.detail


def test_criterion_09_laguerre_oracle():
    _report(verify.check_laguerre_oracle())


def test_criterion_10_verify_verb():
    start = time.perf_counter()
    result = invoke(main, ["verify"])
    elapsed = time.perf_counter() - start
    status = "PASS" if result.exit_code == 0 and elapsed < CLI_BUDGET_SECONDS else "FAIL"
    print(f"criterion 10 verify-verb: {status} (exit {result.exit_code}, {elapsed:.2f} s)")
    assert result.exit_code == 0, f"verify verb failed:\n{result.output}"
    assert elapsed < CLI_BUDGET_SECONDS, f"verify took {elapsed:.1f} s"
    assert "9/9 checks passed" in result.output
