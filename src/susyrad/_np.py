"""How susyrad meets numpy without loading it.

Energies, trap frequencies, admissibility and every error message are
closed forms in plain Python floats; only evaluating a waveform on a grid
needs numpy.  So `np` is bound here once, through a lazy loader: importing a
susyrad module registers numpy, and numpy's package body runs on the first
attribute access, such as `np.linspace`.  Modules write `from ._np import np`
and use it as usual, as long as nothing touches it while the module itself
is being imported.
"""

from __future__ import annotations

import importlib.util
import numbers
import sys


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
    """True for a Python int or a numpy integer.

    numpy registers its integer types with numbers.Integral when it loads,
    so the check needs no numpy; the exact-int test comes first because the
    ABC check costs about four times as much.
    """
    return isinstance(value, int) or isinstance(value, numbers.Integral)
