"""Radial supersymmetry toolkit.

Analytic families of radial bound states (Coulomb in d dimensions, the
isotropic oscillator in D dimensions), the partner-potential structure that
pairs their towers, symmetry-breaking quantum-defect and anharmonic models,
parameter maps between the two sides, and the Penning-trap realization of
the oscillator tower.  Everything is closed-form; the numerics exist to
verify, not to solve.
"""

from .config import ModelConfig, load_config, parse_config
from .coulomb import (
    CoulombState,
    coulomb_energy,
    eval_hydrogen_R,
    gamma_shift,
)
from .coulomb import partner_spectra as coulomb_partner_spectra
from .errors import (
    AdmissibilityError,
    ConfigError,
    ConvergenceError,
    DomainError,
    ParityError,
    StabilityError,
    VerificationError,
)
from .geonium import (
    ELECTRON,
    PROTON,
    GeoniumLevel,
    TrapConfig,
    TrapFrequencies,
    coulomb_to_geonium,
    geonium_energy_si,
    susy_operating_point,
    susy_tower_spectra,
    trap_config,
    trap_frequencies,
)
from .maps import (
    ConstraintReport,
    MapSpec,
    MapVerification,
    enumerate_admissible_targets,
    solve_map_parameters,
    verify_map_identity,
)
from .oscillator import OscillatorState, oscillator_energy
from .oscillator import partner_spectra as oscillator_partner_spectra
from .qdt import (
    AnharmonicModel,
    AnharmonicState,
    DefectModel,
    DefectState,
    breaking_potential_coulomb,
    breaking_potential_oscillator,
    illustrative_defect_model,
    rydberg_energy,
)
from .specfun import (
    Quadrature,
    QuadratureResult,
    SonineLaguerre,
    eval_sonine_laguerre,
    eval_sonine_laguerre_derivative,
    inner_product,
    integrate_half_line,
    sonine_laguerre_direct_sum,
)
from .susy import (
    RadialOperator,
    SuperchargeImage,
    Superpotential,
    SusyPair,
    apply_operator,
    apply_supercharge,
    coulomb_superpotential,
    oscillator_superpotential,
)
from .verify import CheckResult, run_all

__version__ = "0.1.0"

__all__ = [
    "AdmissibilityError",
    "AnharmonicModel",
    "AnharmonicState",
    "CheckResult",
    "ConfigError",
    "ConstraintReport",
    "ConvergenceError",
    "CoulombState",
    "DefectModel",
    "DefectState",
    "DomainError",
    "ELECTRON",
    "GeoniumLevel",
    "MapSpec",
    "MapVerification",
    "ModelConfig",
    "OscillatorState",
    "PROTON",
    "ParityError",
    "Quadrature",
    "QuadratureResult",
    "RadialOperator",
    "SonineLaguerre",
    "StabilityError",
    "SuperchargeImage",
    "Superpotential",
    "SusyPair",
    "TrapConfig",
    "TrapFrequencies",
    "VerificationError",
    "apply_operator",
    "apply_supercharge",
    "breaking_potential_coulomb",
    "breaking_potential_oscillator",
    "coulomb_energy",
    "coulomb_partner_spectra",
    "coulomb_superpotential",
    "coulomb_to_geonium",
    "enumerate_admissible_targets",
    "eval_hydrogen_R",
    "eval_sonine_laguerre",
    "eval_sonine_laguerre_derivative",
    "gamma_shift",
    "geonium_energy_si",
    "illustrative_defect_model",
    "inner_product",
    "integrate_half_line",
    "load_config",
    "oscillator_energy",
    "oscillator_partner_spectra",
    "oscillator_superpotential",
    "parse_config",
    "run_all",
    "rydberg_energy",
    "solve_map_parameters",
    "sonine_laguerre_direct_sum",
    "susy_operating_point",
    "susy_tower_spectra",
    "trap_config",
    "trap_frequencies",
    "verify_map_identity",
]
