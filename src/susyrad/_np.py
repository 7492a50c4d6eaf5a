"""How susyrad meets numpy, and its own grid layer, without loading them.

Energies, trap frequencies, admissibility and every error message are
closed forms in plain Python floats; only evaluating a waveform on a grid
needs numpy.  So `np` is bound here once, through a lazy loader: importing a
susyrad module registers numpy, and numpy's package body runs on the first
attribute access, such as `np.linspace`.  Modules write `from ._np import np`
and use it as usual, as long as nothing touches it while the module itself
is being imported.

The package binds its own layers the same way, with `_lazy_module`: the
forms, the state modules, `qdt` and `reports` bind the grid layer `_grid`
(`susy` and `maps` import it, since only grid work executes them); no module
binds `specfun`, the verification numerics; the state modules and `reports`
bind `susy`; `cli` binds `reports`, `config`, `geonium` and `maps`; `reports`
binds the state modules `coulomb` and `oscillator`, `geonium` and `maps`;
`config` binds `geonium` and `qdt`, and `geonium` binds `maps`.  A `from
._grid import X` would run the grid layer's body at import; `_grid.X` at the
call runs it on first use.  So a usage error executes only the CLI.
`spectrum` executes the CLI, the records, the output and its family's state
module with its forms; `trap levels` executes the oscillator states, and
the trap verbs `geonium`, except `trap levels` without a trap; `trap
frequencies` and `trap operating-point` execute no state module.  `--config`
adds `config`, and `qdt` only for a model section; `wavefunction` and
`susy-pair` add `_grid` and `susy`, and `map` adds `_grid` and `maps`.  Only
`verify`, which imports it, registers `specfun`.  The standard library follows its users: no
closed-form verb imports `dataclasses`, a JSON render and `verify --format
json` import `json`, only `map` and `verify` import `fractions`, and only an
unknown option or command `difflib`.  An import statement for a pending module (`import
susyrad._grid`, `from . import _grid`) runs its body, so the modules a
closed form does without are reached only through these bindings.
"""

from __future__ import annotations

import importlib.util
import numbers
import sys

from .errors import AdmissibilityError


def _lazy_module(name):
    """sys.modules[name] if it is there, else a module whose body runs on first use."""
    module = sys.modules.get(name)
    if module is not None:
        return module
    spec = importlib.util.find_spec(name)
    if spec is None:  # the error a plain import would raise
        raise ModuleNotFoundError(f"No module named {name!r}", name=name)
    loader = importlib.util.LazyLoader(spec.loader)
    spec.loader = loader
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    loader.exec_module(module)
    return module


np = _lazy_module("numpy")


def is_integer(value) -> bool:
    """True for a Python int or a numpy integer that is exactly a float (|value| <= 2**53).

    numpy registers its integer types with numbers.Integral when it loads,
    so the check needs no numpy; the exact-int test comes first because the
    ABC check costs about four times as much.  A larger integer would round,
    or overflow, in the float arithmetic of the closed forms.
    """
    return (isinstance(value, int) or isinstance(value, numbers.Integral)) and abs(value) <= 2**53


def as_float(value, name, error=AdmissibilityError):
    """float(value), refused as `error` naming `name` unless it is a real number in float range."""
    try:
        return float(value)
    except (TypeError, ValueError, OverflowError):
        raise error(f"{name} must be a real number in float range, got {value!r}") from None
