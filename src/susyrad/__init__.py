"""Radial supersymmetry toolkit.

Analytic families of radial bound states (Coulomb in d dimensions, the
isotropic oscillator in D dimensions), the partner-potential structure that
pairs their towers, symmetry-breaking quantum-defect and anharmonic models,
parameter maps between the two sides, and the Penning-trap realization of
the oscillator tower.  Everything is closed-form; the numerics exist to
verify, not to solve.

The public names below are re-exported lazily (PEP 562): `import susyrad`
runs no submodule, and `susyrad.X` or `from susyrad import X` imports X's
module on first use.
"""

import importlib

__version__ = "0.1.0"

# public name -> (submodule, attribute)
_EXPORTS = {
    name: (module, name)
    for module, names in (
        ("config", "ModelConfig load_config parse_config"),
        ("coulomb", "CoulombState eval_hydrogen_R gamma_shift"),
        (
            "errors",
            "AdmissibilityError ConfigError ConvergenceError DomainError ParityError"
            " StabilityError VerificationError",
        ),
        (
            "geonium",
            "ELECTRON PROTON TrapConfig TrapFrequencies coulomb_to_geonium"
            " geonium_energy_si susy_operating_point trap_config"
            " trap_frequencies",
        ),
        (
            "maps",
            "ConstraintReport MapSpec MapVerification solve_map_parameters verify_map_identity",
        ),
        ("oscillator", "OscillatorState"),
        (
            "qdt",
            "AnharmonicModel AnharmonicState DefectModel DefectState breaking_potential_coulomb"
            " breaking_potential_oscillator",
        ),
        (
            "specfun",
            "Quadrature QuadratureResult SonineLaguerre eval_sonine_laguerre"
            " eval_sonine_laguerre_derivative inner_product integrate_half_line"
            " sonine_laguerre_direct_sums",
        ),
        (
            "susy",
            "RadialOperator SuperchargeImage Superpotential SusyPair apply_operator"
            " apply_supercharge coulomb_superpotential oscillator_superpotential",
        ),
        ("verify", "CheckResult run_all"),
    )
    for name in names.split()
}
_EXPORTS["coulomb_partner_spectra"] = ("coulomb", "partner_spectra")
_EXPORTS["oscillator_partner_spectra"] = ("oscillator", "partner_spectra")

_SUBMODULES = frozenset({module for module, _ in _EXPORTS.values()} | {"output", "reports"})

__all__ = sorted(_EXPORTS)


def __getattr__(name):
    # nothing is stored in the package namespace, so a name always reads what its
    # module holds now, a patched or restored function included
    if name in _EXPORTS:
        module, attr = _EXPORTS[name]
        return getattr(importlib.import_module(f"{__name__}.{module}"), attr)
    if name in _SUBMODULES:
        return importlib.import_module(f"{__name__}.{name}")
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), *_EXPORTS, *_SUBMODULES})
