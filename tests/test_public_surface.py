"""Every public name is printed by a verb, checked by a criterion, or listed here as waiting.

`susyrad._EXPORTS` is the package's public surface, together with the public
methods and properties of its classes.  This runs the `verify` criteria and
the golden CLI corpus (`test_golden.CASES`, each case as that test runs it)
under `sys.setprofile`, and asserts that the code of every exported callable
ran: a function's own code, or a class's own `__init__` or `__post_init__`.
A method, property or cached property counts once, under the qualified name
of the class that defines it (`_LaguerreForm.value` for every state class),
inherited ones included.  Exception types and constants are not code to run,
so they are skipped.  A name that nothing runs is deleted, or it waits in
UNCALLED with its reason; a waiting name must stay uncalled, so the entry goes
when a verb or a criterion starts to use it.
"""

from __future__ import annotations

import inspect
import sys

import numpy as np
import pytest
import susyrad
from susyrad import reports, susy, verify
from test_golden import CASES, _run

_PINNED = "bound by perfbench/tracer.py; it goes when the tracer reads spans instead (ROADMAP item 3)"
_NO_CRITERION = "a closed form no criterion checks yet (ROADMAP item 5)"
_RESTATES_MODEL = "restates model(section, dimension), which the CLI calls; perfbench/workloads.py calls it"

# exported callables that neither a verb nor a criterion runs, each with the named blocker it waits for
UNCALLED = {
    "Quadrature": _PINNED,
    "QuadratureResult": _PINNED,
    "integrate_half_line": _PINNED,
    "inner_product": _PINNED,
    "eval_sonine_laguerre": _PINNED,
    "eval_sonine_laguerre_derivative": _PINNED,
    "apply_supercharge": _PINNED,
    "verify_map_identity": _PINNED,
    "coulomb_partner_spectra": _NO_CRITERION,
    "oscillator_partner_spectra": _NO_CRITERION,
    "breaking_potential_coulomb": _NO_CRITERION,
    "breaking_potential_oscillator": _NO_CRITERION,
    "eval_hydrogen_R": _NO_CRITERION,
    "_LaguerreForm.value": _PINNED,
    "_LaguerreForm.derivative": _PINNED,
    "_LaguerreForm.second_derivative": _PINNED,
    "_LaguerreForm.third_derivative": _PINNED,
    "ModelConfig.defect_model": _RESTATES_MODEL,
    "ModelConfig.anharmonic_model": _RESTATES_MODEL,
}


def _code(obj):
    """The code that running obj executes: a function's, or a class's own constructor; None for the rest."""
    if not isinstance(obj, type):
        return getattr(obj, "__code__", None)
    if issubclass(obj, BaseException):
        return None
    for name in ("__post_init__", "__init__"):
        if name in vars(obj):
            return vars(obj)[name].__code__
    raise AssertionError(f"{obj.__qualname__} defines no __init__ or __post_init__ of its own")


@pytest.fixture(scope="module")
def ran():
    """The code objects that run_all() and the golden corpus executed."""
    seen = set()

    def profile(frame, event, arg):
        if event == "call":
            seen.add(frame.f_code)

    sys.setprofile(profile)
    try:
        verify.run_all()
        for _, argv in CASES:
            _run(argv)
    finally:
        sys.setprofile(None)
    return seen


def _methods(classes):
    """The classes' public methods and properties, inherited ones too, as {qualified name: code}."""
    out = {}
    for cls in classes:
        for name in dir(cls):
            if name.startswith("_"):
                continue
            member = inspect.getattr_static(cls, name)
            # a property's getter, a cached property's or a static method's function, or the function itself
            for attribute in ("fget", "func", "__func__"):
                member = getattr(member, attribute, member)
            if hasattr(member, "__code__"):
                out[member.__qualname__] = member.__code__
    return out


EXPORTED = {name: getattr(susyrad, name) for name in sorted(susyrad._EXPORTS)}
SURFACE = {name: _code(obj) for name, obj in EXPORTED.items()}
SURFACE.update(_methods(obj for obj in EXPORTED.values() if isinstance(obj, type)))
CALLABLE = sorted(name for name, code in SURFACE.items() if code is not None)


def test_waiting_names_are_exported_callables():
    assert set(UNCALLED) <= set(CALLABLE)


def test_waiting_names_wait_only_for_named_blockers():
    # a name with a reason of its own is a name nothing needs: it is deleted instead
    others = {name: reason for name, reason in UNCALLED.items()
              if reason not in (_PINNED, _NO_CRITERION, _RESTATES_MODEL)}
    assert not others


def test_susy_pair_builds_u_prime_and_u_double_prime_once_per_use(monkeypatch):
    # partners builds V+ and V- from one U'/U'' build, and susy-pair reads its shift defect off them
    builds, u_builds = [], []
    derivatives, u_derivatives = susyrad.Superpotential.derivatives, susy._u_derivatives

    def counted(self, grid, orders):
        builds.append(tuple(orders))
        return derivatives(self, grid, orders)

    def counted_u(grid, orders, *coefficients):
        u_builds.append(tuple(orders))
        return u_derivatives(grid, orders, *coefficients)

    monkeypatch.setattr(susyrad.Superpotential, "derivatives", counted)
    # every U build, a batch's with its coefficients as columns too
    monkeypatch.setattr(susy, "_u_derivatives", counted_u)
    pair = susyrad.SusyPair(susyrad.oscillator_superpotential(1))
    pair.partners(np.linspace(0.1, 12.0, 120))
    assert builds == u_builds == [(1, 2)]
    builds.clear()
    u_builds.clear()
    reports.susy_pair_record("coulomb", 3, 1)
    assert builds == [(1, 2)]
    # the annihilation check's U', then the partners' U'/U''
    assert u_builds == [(1,), (1, 2)]


@pytest.mark.parametrize("name", CALLABLE)
def test_exported_name_runs_unless_waiting(name, ran):
    if name in UNCALLED:
        assert SURFACE[name] not in ran, f"{name} now runs: take it off UNCALLED"
    else:
        assert SURFACE[name] in ran, f"no verb or criterion runs {name}: delete it, or list it in UNCALLED"
