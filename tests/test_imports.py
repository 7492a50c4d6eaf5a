"""The import surface: what `import susyrad` and each CLI verb execute.

Closed-form verbs (energy tables, trap numbers) and every refused input run
without executing numpy, the grid layer (`_grid`, `susy`), the verification
numerics (`specfun`) or `maps`; only evaluating a waveform or solving a map
executes `_grid`, and only `verify` executes `specfun`. A trap level is the
D = 2 oscillator state, so `trap levels` executes `geonium` only for the SI
column of a trap config, and `geonium` itself executes no state module. A verb
executes only the state modules it builds states from: `trap frequencies` and
`trap operating-point` none, with or without a trap-only `--config`, and `qdt`
only for a model section. The standard library follows its users: no
closed-form verb and no usage error executes `dataclasses` (`susy`, `maps`,
`specfun` and `verify` keep theirs, and only grid verbs execute them), only a
JSON render and `verify --format json` execute `json`, only `map` and `verify`
execute `fractions`, only an unknown option or command executes `difflib`, and
a usage error (exit 2) executes no record module (`reports`). No verb executes
`numpy.polynomial`: `verify` builds its Gauss rules with `numpy.linalg`, which
numpy's own import loads. Each probe runs
in a fresh interpreter, since this test process has long since loaded
everything. A lazily bound module sits in sys.modules as a pending
`importlib.util._LazyModule` until its first attribute access runs its body,
so a module counts as executed when it is in sys.modules and not pending. A
watched module that a bare import of the verb's dependencies executes on the
same interpreter (`numpy.random`, `numpy.polynomial`, `json` or `fractions` on
some numpy releases) is not susyrad's doing and is left out of both sides of the
comparison (`_dependency_modules()`): the dependencies are nothing for a
closed-form verb, which never imports numpy, and `numpy` alone for a verb that
evaluates on a grid. No verb needs click: every verb probe runs with
`sys.modules["click"] = None`, so an import of it would fail.
"""

import functools
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import susyrad

SRC_DIR = Path(__file__).resolve().parents[1] / "src"

NUMPY_BODY = ("numpy._core", "numpy.core")
# numpy, the standard library modules that follow their users, and the package modules a
# closed-form verb can do without
WATCHED = ("numpy", "numpy.random", "numpy.polynomial", "json", "fractions", "dataclasses", "difflib",
           *(f"susyrad.{name}" for name in
             ("reports", "coulomb", "oscillator", "_laguerre_forms", "_grid", "specfun", "susy", "maps",
              "geonium", "config", "qdt", "verify")))

# type(), not isinstance(): any attribute read, __class__ included, runs a pending body
EXECUTED = f"""[name for name in {WATCHED!r}
            if name in sys.modules and type(sys.modules[name]) is not importlib.util._LazyModule]"""

# each probe imports json only once it has listed what ran
VERB_PROBE = f"""
import importlib.util, sys
sys.modules["click"] = None
from susyrad.cli import main
code = None
try:
    main(args=sys.argv[1:], prog_name="susyrad")
except SystemExit as exc:
    code = exc.code
executed = {EXECUTED}
import json
sys.stderr.write("\\n" + json.dumps({{"exit": code, "executed": executed}}) + "\\n")
"""

RUN_ALL_PROBE = f"""
import importlib.util, sys
from susyrad import verify
passed = [result.passed for result in verify.run_all()]
executed = {EXECUTED}
import json
print(json.dumps({{"passed": passed, "executed": executed}}))
"""

DEPENDENCY_PROBE = f"""
import importlib.util, sys
for dependency in sys.argv[1:]:
    importlib.import_module(dependency)
executed = {EXECUTED}
import json
print(json.dumps(executed))
"""

PACKAGE_PROBE = f"""
import json, sys
import susyrad
after_import = sorted(name for name in sys.modules if name.startswith("susyrad"))
numpy_after_import = any(name in sys.modules for name in {NUMPY_BODY!r})
specfun = susyrad.specfun.__name__
namespace = {{}}
exec("from susyrad import *", namespace)
print(json.dumps({{
    "after_import": after_import,
    "numpy_after_import": numpy_after_import,
    "specfun": specfun,
    "star": sorted(name for name in namespace if name != "__builtins__"),
}}))
"""

CONFIG_TEXT = """\
format_version = 1

[defect]
dimension = 3
l = 0
delta = 0.4
shift = 1
"""


TRAP_CONFIG_TEXT = """\
format_version = 1

[trap]
B_tesla = 5
V_volt = 10
d_meter = 0.01
species = proton
"""


def _python(*args):
    env = {**os.environ, "PYTHONPATH": str(SRC_DIR)}
    return subprocess.run(
        [sys.executable, *args], capture_output=True, text=True, env=env, timeout=120
    )


# what a verb that evaluates on a grid imports beside susyrad; a closed-form verb imports nothing
NUMPY = ("numpy",)


@functools.lru_cache(maxsize=None)
def _dependency_modules(dependencies):
    """The watched modules, numpy aside, that a bare import of `dependencies` executes on this interpreter."""
    proc = _python("-c", DEPENDENCY_PROBE, *dependencies)
    assert proc.returncode == 0, proc.stderr
    return frozenset(json.loads(proc.stdout)) - {"numpy"}


def _run_verb(dependencies, *argv):
    """(exit code, the watched modules the verb executed beyond its dependencies') in a fresh interpreter."""
    proc = _python("-c", VERB_PROBE, *argv)
    last = proc.stderr.splitlines()[-1] if proc.stderr else ""
    assert last.startswith("{"), proc.stderr
    outcome = json.loads(last)
    return outcome["exit"], frozenset(outcome["executed"]) - _dependency_modules(dependencies)


@pytest.fixture(scope="module")
def configs(tmp_path_factory):
    folder = tmp_path_factory.mktemp("configs")
    good, bad, trap = folder / "models.cfg", folder / "bad.cfg", folder / "trap.cfg"
    good.write_text(CONFIG_TEXT, encoding="utf-8")
    bad.write_text("[defect]\ndimension = 3\n", encoding="utf-8")
    trap.write_text(TRAP_CONFIG_TEXT, encoding="utf-8")
    return {"good": str(good), "bad": str(bad), "trap": str(trap)}


RECORDS = {"susyrad.reports"}
CONFIG = {"susyrad.config"}
TRAP_LAYER = {"susyrad.geonium"}
# the Coulomb state module and the forms it builds on; the oscillator module imports both
COULOMB = {"susyrad.coulomb", "susyrad._laguerre_forms"}
STATES = COULOMB | {"susyrad.oscillator"}
# a model section's qdt imports both state modules
MODEL_LAYER = CONFIG | STATES | {"susyrad.qdt"}
# susy, maps, specfun and verify are dataclasses; numpy, which they need, imports inspect already
GRID_LAYER = {"numpy", "susyrad._grid", "dataclasses"}
VERIFY_LAYER = GRID_LAYER | RECORDS | STATES | {"fractions", "susyrad.specfun", "susyrad.susy", "susyrad.maps",
                                               "susyrad.geonium", "susyrad.qdt", "susyrad.verify"}

# (id, argv, exit code, the watched modules executed): no closed-form verb executes `_grid`,
# `specfun` or `dataclasses`, no trap-number verb a state module, no CSV render `json`, no verb but
# map and verify `fractions`, only a model section `qdt`, and no usage error (exit code 2) `reports`
CLOSED_FORM = [
    ("spectrum", ["spectrum"], 0, RECORDS | COULOMB),
    ("spectrum-json", ["spectrum", "--format", "json"], 0, RECORDS | COULOMB | {"json"}),
    ("oscillator-spectrum", ["spectrum", "--family", "oscillator"], 0, RECORDS | STATES),
    ("defect-spectrum", ["spectrum", "--family", "defect", "--n", "1..4", "--config", "{good}"], 0,
     RECORDS | MODEL_LAYER),
    ("frequencies", ["trap", "frequencies", "--B", "5", "--V", "10", "--d", "0.01", "--species", "proton"],
     0, RECORDS | TRAP_LAYER),
    ("frequencies-config", ["trap", "frequencies", "--config", "{trap}"], 0, RECORDS | TRAP_LAYER | CONFIG),
    ("operating-point", ["trap", "operating-point", "--B", "5", "--d", "0.01"], 0, RECORDS | TRAP_LAYER),
    ("levels", ["trap", "levels", "--N-max", "6"], 0, RECORDS | STATES),
    ("levels-json", ["trap", "levels", "--N-max", "6", "--format", "json"], 0, RECORDS | STATES | {"json"}),
    ("levels-config", ["trap", "levels", "--N-max", "6", "--config", "{trap}"], 0,
     RECORDS | STATES | TRAP_LAYER | CONFIG),
    ("usage-error", ["spectrum", "--format", "xml"], 2, set()),
    ("non-finite-flag", ["trap", "levels", "--Delta", "nan"], 2, set()),
    ("missing-flag", ["map", "--d", "3", "--n", "2"], 2, set()),
    # only an unknown name is matched against the known ones
    ("unknown-option", ["spectrum", "--fromat", "json"], 2, {"difflib"}),
    # the file is refused before a model is built
    ("config-error", ["spectrum", "--family", "defect", "--config", "{bad}"], 1, RECORDS | CONFIG),
    # the state is refused before its grid is built
    ("refused-state", ["wavefunction", "--n", "3", "--l", "5"], 1, RECORDS | COULOMB),
    # L and N_max are checked as the states check an integer
    ("empty-ladder", ["trap", "levels", "--L", "5", "--N-max", "2"], 1, RECORDS | COULOMB),
]

GRID = [
    ("wavefunction", ["wavefunction", "--n", "3", "--l", "1"], 0,
     GRID_LAYER | RECORDS | COULOMB | {"susyrad.susy"}),
    ("wavefunction-json", ["wavefunction", "--family", "oscillator", "--n", "4", "--l", "2", "--format",
                           "json"], 0, GRID_LAYER | RECORDS | STATES | {"susyrad.susy", "json"}),
    # R_nl(r) is the d = 3 Coulomb state read at y = 2r
    ("hydrogen", ["wavefunction", "--family", "hydrogen", "--n", "3", "--l", "1"], 0,
     GRID_LAYER | RECORDS | COULOMB | {"susyrad.susy"}),
    ("susy-pair", ["susy-pair"], 0, GRID_LAYER | RECORDS | COULOMB | {"susyrad.susy"}),
    ("map", ["map", "--d", "3", "--n", "2", "--l", "0", "--lambda", "1"], 0,
     GRID_LAYER | RECORDS | STATES | {"fractions", "susyrad.maps"}),
    ("verify", ["verify", "--out", os.devnull], 0, VERIFY_LAYER),
    ("verify-json", ["verify", "--format", "json", "--out", os.devnull], 0, VERIFY_LAYER | {"json"}),
]


def _outcome(configs, dependencies, argv):
    return _run_verb(dependencies, *(arg.format(**configs) for arg in argv))


@pytest.mark.parametrize(("argv", "code", "executed"), [case[1:] for case in CLOSED_FORM],
                         ids=[case[0] for case in CLOSED_FORM])
def test_closed_form_verbs_never_execute_numpy(configs, argv, code, executed):
    assert _outcome(configs, (), argv) == (code, executed - _dependency_modules(()))


@pytest.mark.parametrize(("argv", "code", "executed"), [case[1:] for case in GRID],
                         ids=[case[0] for case in GRID])
def test_grid_verbs_execute_only_their_layers(configs, argv, code, executed):
    assert _outcome(configs, NUMPY, argv) == (code, executed - _dependency_modules(NUMPY))


@pytest.mark.parametrize("argv", [["spectrum"], ["wavefunction"], ["trap", "levels"]], ids=" ".join)
def test_no_verb_but_verify_registers_specfun(argv):
    # a lazily bound module is in sys.modules before its body runs, so a pending specfun counts too
    probe = VERB_PROBE.replace(EXECUTED, "'susyrad.specfun' in sys.modules")
    proc = _python("-c", probe, *argv, "--out", os.devnull)
    assert json.loads(proc.stderr.splitlines()[-1]) == {"exit": 0, "executed": False}


def test_run_all_executes_only_numpys_core():
    proc = _python("-c", RUN_ALL_PROBE)
    assert proc.returncode == 0, proc.stderr
    probe = json.loads(proc.stdout)
    assert probe["passed"] == [True] * 9
    dependencies = _dependency_modules(NUMPY)
    assert set(probe["executed"]) - dependencies == VERIFY_LAYER - dependencies


def test_geonium_executes_no_state_module():
    probe = """
import importlib.util, json, sys
import susyrad.geonium
print(json.dumps([name for name in ("susyrad.oscillator", "susyrad._laguerre_forms")
                  if name in sys.modules and type(sys.modules[name]) is not importlib.util._LazyModule]))
"""
    proc = _python("-c", probe)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == []


def test_package_import_runs_no_submodule():
    proc = _python("-c", PACKAGE_PROBE)
    assert proc.returncode == 0, proc.stderr
    probe = json.loads(proc.stdout)
    assert probe["after_import"] == ["susyrad"]
    assert probe["numpy_after_import"] is False
    assert probe["specfun"] == "susyrad.specfun"
    assert set(susyrad.__all__) <= set(probe["star"])


def test_every_public_name_resolves_to_its_module_attribute():
    for name in susyrad.__all__:
        module, attr = susyrad._EXPORTS[name]
        assert getattr(susyrad, name) is getattr(sys.modules[f"susyrad.{module}"], attr), name
    assert set(susyrad.__all__) <= set(dir(susyrad))


def test_renamed_exports():
    from susyrad import coulomb, oscillator

    assert susyrad.coulomb_partner_spectra is coulomb.partner_spectra
    assert susyrad.oscillator_partner_spectra is oscillator.partner_spectra


def test_unknown_names_are_refused():
    with pytest.raises(AttributeError, match="no attribute 'levitate'"):
        susyrad.levitate
    with pytest.raises(ImportError):
        from susyrad import levitate  # noqa: F401
