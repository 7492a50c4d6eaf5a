"""The import surface: what `import susyrad` and each CLI verb execute.

Closed-form verbs (energy tables, trap numbers) and every refused input run
without executing numpy or the grid layer (`specfun`, `susy`) or `maps`; only
evaluating a waveform or solving a map does.  Each probe runs in a fresh
interpreter, since this test process has long since loaded everything.  A
lazily bound module sits in sys.modules as a pending
`importlib.util._LazyModule` until its first attribute access runs its body,
so a module counts as executed when it is in sys.modules and not pending.
`verify` and `verify.run_all()` execute numpy's core and never `numpy.random`,
unless a bare `import numpy` on the same interpreter executes it too.
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
# numpy and the package modules a closed-form verb can do without
WATCHED = ("numpy", "numpy.random", *(f"susyrad.{name}" for name in
                      ("specfun", "susy", "maps", "geonium", "config", "qdt", "verify")))

VERB_PROBE = f"""
import importlib.util, json, sys
from susyrad.cli import main
code = None
try:
    main(args=sys.argv[1:], prog_name="susyrad")
except SystemExit as exc:
    code = exc.code
# type(), not isinstance(): any attribute read, __class__ included, runs a pending body
executed = [name for name in {WATCHED!r}
            if name in sys.modules and type(sys.modules[name]) is not importlib.util._LazyModule]
sys.stderr.write("\\n" + json.dumps({{"exit": code, "executed": executed}}) + "\\n")
"""

RUN_ALL_PROBE = f"""
import importlib.util, json, sys
from susyrad import verify
passed = [result.passed for result in verify.run_all()]
executed = [name for name in {WATCHED!r}
            if name in sys.modules and type(sys.modules[name]) is not importlib.util._LazyModule]
print(json.dumps({{"passed": passed, "executed": executed}}))
"""

BARE_NUMPY_PROBE = """
import json, sys
import numpy
print(json.dumps("numpy.random" in sys.modules))
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


def _run_verb(*argv):
    proc = _python("-c", VERB_PROBE, *argv)
    last = proc.stderr.splitlines()[-1] if proc.stderr else ""
    assert last.startswith("{"), proc.stderr
    return json.loads(last)


@functools.lru_cache(maxsize=None)
def _numpy_modules():
    """The watched numpy modules a bare `import numpy` executes on this interpreter."""
    proc = _python("-c", BARE_NUMPY_PROBE)
    assert proc.returncode == 0, proc.stderr
    # a numpy release that loads numpy.random eagerly is not susyrad's doing
    return ["numpy", "numpy.random"] if json.loads(proc.stdout) else ["numpy"]


@pytest.fixture(scope="module")
def configs(tmp_path_factory):
    folder = tmp_path_factory.mktemp("configs")
    good, bad, trap = folder / "models.cfg", folder / "bad.cfg", folder / "trap.cfg"
    good.write_text(CONFIG_TEXT, encoding="utf-8")
    bad.write_text("[defect]\ndimension = 3\n", encoding="utf-8")
    trap.write_text(TRAP_CONFIG_TEXT, encoding="utf-8")
    return {"good": str(good), "bad": str(bad), "trap": str(trap)}


CONFIG_LAYER = ["susyrad.config", "susyrad.qdt"]
TRAP_LAYER = ["susyrad.geonium"]


@pytest.mark.parametrize(
    ("argv", "code", "executed"),
    [
        (["spectrum"], 0, []),
        (["spectrum", "--family", "defect", "--n", "1..4", "--config", "{good}"], 0, CONFIG_LAYER),
        (["trap", "frequencies", "--B", "5", "--V", "10", "--d", "0.01", "--species", "proton"], 0,
         TRAP_LAYER),
        (["trap", "operating-point", "--B", "5", "--d", "0.01"], 0, TRAP_LAYER),
        (["trap", "levels", "--N-max", "6"], 0, TRAP_LAYER),
        (["trap", "levels", "--N-max", "6", "--config", "{trap}"], 0, TRAP_LAYER + CONFIG_LAYER),
        (["spectrum", "--format", "xml"], 2, []),
        (["trap", "levels", "--Delta", "nan"], 2, []),
        (["spectrum", "--family", "defect", "--config", "{bad}"], 1, CONFIG_LAYER),
        # the state is refused before its grid is built
        (["wavefunction", "--n", "3", "--l", "5"], 1, []),
    ],
    ids=["spectrum", "defect-spectrum", "frequencies", "operating-point", "levels",
         "levels-config", "usage-error", "non-finite-flag", "config-error", "refused-state"],
)
def test_closed_form_verbs_never_execute_numpy(configs, argv, code, executed):
    outcome = _run_verb(*(arg.format(**configs) for arg in argv))
    assert outcome == {"exit": code, "executed": executed}


def test_wavefunction_executes_numpy():
    outcome = _run_verb("wavefunction", "--n", "3", "--l", "1")
    assert outcome == {"exit": 0, "executed": [*_numpy_modules(), "susyrad.specfun", "susyrad.susy"]}


def test_map_executes_the_map_layer():
    outcome = _run_verb("map", "--d", "3", "--n", "2", "--l", "0", "--lambda", "1")
    assert outcome == {"exit": 0, "executed": [*_numpy_modules(), "susyrad.specfun", "susyrad.maps"]}


VERIFY_LAYER = ["susyrad.specfun", "susyrad.susy", "susyrad.maps", "susyrad.geonium", "susyrad.qdt",
                "susyrad.verify"]


def test_verify_executes_only_numpys_core():
    outcome = _run_verb("verify", "--format", "json", "--out", os.devnull)
    assert outcome == {"exit": 0, "executed": [*_numpy_modules(), *VERIFY_LAYER]}


def test_run_all_executes_only_numpys_core():
    proc = _python("-c", RUN_ALL_PROBE)
    assert proc.returncode == 0, proc.stderr
    probe = json.loads(proc.stdout)
    assert probe == {"passed": [True] * 9, "executed": [*_numpy_modules(), *VERIFY_LAYER]}


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
