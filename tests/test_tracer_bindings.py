"""The benchmark's tracer still finds every name it patches.

`perfbench/tracer.py` wraps the package's traced functions, methods and verify
checks by name; a renamed or deleted one breaks `Tracer.install()`.  This
installs the tracer and restores every original, so the break shows in the
fast suite rather than only in the benchmark's minutes-long smoke run.  It
reads `perfbench/` and changes nothing there.  The tracer wraps methods in a
class's own `__dict__`, which `_LaguerreForm.__init_subclass__` fills for
every form and state class; that hook is checked here without `perfbench/`.
"""

from __future__ import annotations

import importlib.util
from pathlib import Path

from susyrad import _laguerre_forms, coulomb, oscillator, qdt, susy, verify  # noqa: F401

TRACED_METHODS = ("__init__", "value", "__call__", "derivative", "second_derivative", "third_derivative")

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


def test_every_form_subclass_owns_its_traced_methods():
    class Throwaway(_laguerre_forms._LaguerreForm):
        pass

    for cls in (Throwaway, _laguerre_forms.GaussianLaguerreForm, qdt.DefectState):
        assert all(name in vars(cls) for name in TRACED_METHODS), cls
        assert vars(cls)["__call__"] is vars(cls)["value"]
    # a class's own __init__ is kept; an inherited one is copied
    assert vars(Throwaway)["__init__"] is _laguerre_forms._LaguerreForm.__init__
    assert vars(qdt.DefectState)["__init__"].__qualname__ == "DefectState.__init__"
