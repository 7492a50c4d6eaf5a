"""The import surface: what `import susyrad` and each CLI verb load.

Closed-form verbs (energy tables, trap numbers) and every refused input run
without executing numpy; only evaluating a waveform does.  Each probe runs in
a fresh interpreter, since this test process has long since loaded numpy.
A lazily bound numpy leaves an unexecuted `numpy` entry in sys.modules, so
the probes look for the submodule its body imports first: `numpy._core` in
numpy 2, `numpy.core` in numpy 1.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import susyrad

SRC_DIR = Path(__file__).resolve().parents[1] / "src"

NUMPY_BODY = ("numpy._core", "numpy.core")

VERB_PROBE = f"""
import json, sys
from susyrad.cli import main
code = None
try:
    main(args=sys.argv[1:], prog_name="susyrad")
except SystemExit as exc:
    code = exc.code
executed = any(name in sys.modules for name in {NUMPY_BODY!r})
sys.stderr.write("\\n" + json.dumps({{"exit": code, "numpy_executed": executed}}) + "\\n")
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


@pytest.fixture(scope="module")
def configs(tmp_path_factory):
    folder = tmp_path_factory.mktemp("configs")
    good, bad = folder / "models.cfg", folder / "bad.cfg"
    good.write_text(CONFIG_TEXT, encoding="utf-8")
    bad.write_text("[defect]\ndimension = 3\n", encoding="utf-8")
    return {"good": str(good), "bad": str(bad)}


@pytest.mark.parametrize(
    ("argv", "code"),
    [
        (["spectrum"], 0),
        (["spectrum", "--family", "defect", "--n", "1..4", "--config", "{good}"], 0),
        (["trap", "frequencies", "--B", "5", "--V", "10", "--d", "0.01", "--species", "proton"], 0),
        (["trap", "operating-point", "--B", "5", "--d", "0.01"], 0),
        (["trap", "levels", "--N-max", "6"], 0),
        (["spectrum", "--format", "xml"], 2),
        (["spectrum", "--family", "defect", "--config", "{bad}"], 1),
        # the state is refused before its grid is built
        (["wavefunction", "--n", "3", "--l", "5"], 1),
    ],
    ids=["spectrum", "defect-spectrum", "frequencies", "operating-point", "levels",
         "usage-error", "config-error", "refused-state"],
)
def test_closed_form_verbs_never_execute_numpy(configs, argv, code):
    outcome = _run_verb(*(arg.format(**configs) for arg in argv))
    assert outcome == {"exit": code, "numpy_executed": False}


def test_wavefunction_executes_numpy():
    assert _run_verb("wavefunction", "--n", "3", "--l", "1") == {"exit": 0, "numpy_executed": True}


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
