"""The benchmark's tracer still finds every name it patches.

`perfbench/tracer.py` wraps the package's traced functions, methods and verify
checks by name; a renamed or deleted one breaks `Tracer.install()`.  This
installs the tracer and restores every original, so the break shows in the
fast suite rather than only in the benchmark's minutes-long smoke run.  It
reads `perfbench/` and changes nothing there.
"""

from __future__ import annotations

import importlib.util
from pathlib import Path

from susyrad import _laguerre_forms, coulomb, oscillator, qdt, susy, verify  # noqa: F401

TRACER_PATH = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_installs_and_restores():
    tracer = _load_tracer().Tracer()
    originals = (susy.apply_operator, coulomb.CoulombState.__dict__["value"], verify._CHECKS)
    try:
        tracer.install()
        assert susy.apply_operator is not originals[0]
        assert len(tracer._patches) > len(verify._CHECKS)
    finally:
        tracer.restore()
    assert (susy.apply_operator, coulomb.CoulombState.__dict__["value"], verify._CHECKS) == originals
