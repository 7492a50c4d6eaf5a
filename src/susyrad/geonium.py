"""Single-particle Penning-trap spectra and the supersymmetric operating point.

Frequencies are SI: cyclotron w_c = |e B|/m and axial w_z = sqrt(e V / (m d^2))
for a quadrupole trap with characteristic length d.  Tuning the voltage to
V = e B^2 d^2 / m makes the two frequencies equal, which turns the transverse
problem into the two-dimensional oscillator family; level energies are kept in
dimensionless quanta, with SI conversion as a separate multiplication by
hbar * w_c.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from ._np import _lazy_module, as_float
from .errors import AdmissibilityError, StabilityError, VerificationError
from .oscillator import OscillatorState

maps = _lazy_module(f"{__package__}.maps")  # only coulomb_to_geonium solves a map


# CODATA 2022 (SI): e and h are exact by definition; equal to scipy.constants
ELEMENTARY_CHARGE = 1.602176634e-19
ELECTRON_MASS = 9.1093837139e-31
PROTON_MASS = 1.67262192595e-27
HBAR = 6.62607015e-34 / (2.0 * math.pi)


@dataclass(frozen=True)
class ParticlePreset:
    name: str
    charge: float
    mass: float


ELECTRON = ParticlePreset("electron", -ELEMENTARY_CHARGE, ELECTRON_MASS)
PROTON = ParticlePreset("proton", ELEMENTARY_CHARGE, PROTON_MASS)

PRESETS = {"electron": ELECTRON, "proton": PROTON}


@dataclass(frozen=True)
class TrapConfig:
    magnetic_field: float
    electrode_voltage: float
    trap_length: float
    charge: float
    mass: float

    def __post_init__(self):
        # kept as floats, so a string or a complex number is refused here, not at evaluation
        for name in ("magnetic_field", "electrode_voltage", "trap_length", "charge", "mass"):
            object.__setattr__(self, name, as_float(getattr(self, name), name.replace("_", " ")))
        if not (self.mass > 0.0):
            raise AdmissibilityError(f"mass must be positive, got {self.mass!r}")
        if not (self.trap_length > 0.0):
            raise AdmissibilityError(f"trap length must be positive, got {self.trap_length!r}")
        if self.charge == 0.0 or not math.isfinite(self.charge):
            raise AdmissibilityError("charge must be nonzero and finite")
        if self.magnetic_field == 0.0 or not math.isfinite(self.magnetic_field):
            raise AdmissibilityError("magnetic field must be nonzero and finite")
        if not (self.charge * self.electrode_voltage > 0.0):
            raise StabilityError(
                "unstable trap: confinement requires e*V > 0, got "
                f"e*V = {self.charge * self.electrode_voltage:g}"
            )


def charge_and_mass(species="electron", charge=None, mass=None) -> tuple[float, float]:
    """A named preset's charge and mass, each replaced by an explicit value when given."""
    if charge is None or mass is None:
        try:
            preset = PRESETS[species]
        except KeyError:
            raise AdmissibilityError(
                f"unknown species {species!r}; give explicit charge and mass"
            ) from None
        charge = preset.charge if charge is None else charge
        mass = preset.mass if mass is None else mass
    return as_float(charge, "charge"), as_float(mass, "mass")


def trap_config(magnetic_field, electrode_voltage, trap_length, species="electron",
                charge=None, mass=None) -> TrapConfig:
    """Build a TrapConfig from a named preset or explicit charge and mass."""
    return TrapConfig(magnetic_field, electrode_voltage, trap_length, *charge_and_mass(species, charge, mass))


@dataclass(frozen=True)
class TrapFrequencies:
    cyclotron: float
    axial: float


def _in_float_range(name, compute):
    """compute(), refused by name when it, or a square inside it, over- or underflows."""
    try:
        value = compute()
    except (OverflowError, ZeroDivisionError):
        value = math.nan
    if not (0.0 < abs(value) < math.inf):
        raise AdmissibilityError(f"{name} is out of float range for this trap")
    return value


def trap_frequencies(config: TrapConfig) -> TrapFrequencies:
    """Angular frequencies in rad/s; the config guarantees e*V > 0."""
    e, m = config.charge, config.mass
    w_c = _in_float_range("cyclotron frequency", lambda: abs(e * config.magnetic_field) / m)
    w_z = _in_float_range("axial frequency", lambda: math.sqrt(
        e * config.electrode_voltage / (m * config.trap_length**2)
    ))
    return TrapFrequencies(cyclotron=w_c, axial=w_z)


def susy_operating_point(magnetic_field: float, trap_length: float, charge: float,
                         mass: float) -> float:
    """Voltage making w_c = w_z exactly.

    Magnitude |e| B^2 d^2 / m; the sign follows the charge so the returned
    voltage always satisfies e*V > 0.
    """
    magnetic_field, trap_length = as_float(magnetic_field, "magnetic field"), as_float(trap_length, "trap length")
    charge, mass = as_float(charge, "charge"), as_float(mass, "mass")
    if not (magnetic_field > 0.0):
        raise AdmissibilityError(f"magnetic field must be positive, got {magnetic_field!r}")
    if not (trap_length > 0.0):
        raise AdmissibilityError(f"trap length must be positive, got {trap_length!r}")
    if not (mass > 0.0):
        raise AdmissibilityError(f"mass must be positive, got {mass!r}")
    if charge == 0.0 or not math.isfinite(charge):
        raise AdmissibilityError("charge must be nonzero and finite")
    return _in_float_range(
        "operating-point voltage e B^2 d^2 / m",
        lambda: charge * magnetic_field**2 * trap_length**2 / mass,
    )


def coulomb_to_geonium(principal: int, angular: int) -> tuple[int, int]:
    """(n, l) -> (N, L) = (2n-1, 2l+1) through the lambda = 1 exact map."""
    solved = maps.solve_map_parameters((3, principal, angular), 1, mode="exact")
    if not isinstance(solved, maps.MapSpec):
        raise AdmissibilityError(
            "inadmissible hydrogen state for the geonium map: "
            + "; ".join(solved.violations)
        )
    big_d, big_n, big_l = solved.target
    formula = (2 * principal - 1, 2 * angular + 1)
    if big_d != 2 or (big_n, big_l) != formula:
        raise VerificationError(
            f"map module gives {solved.target} for (3, {principal}, {angular}), "
            f"closed form gives (2, {formula[0]}, {formula[1]})"
        )
    return formula


@dataclass(frozen=True)
class GeoniumLevel:
    """One level of the two-dimensional trap tower, possibly anharmonic.

    Admissible exactly when its D = 2 state is; that state raises otherwise.
    """

    principal: int
    angular: int
    anharmonicity: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "anharmonicity", as_float(self.anharmonicity, "anharmonicity"))
        self.state()

    @property
    def modified_principal(self) -> float:
        return self.principal - 2.0 * self.anharmonicity

    @property
    def energy(self) -> float:
        """Quanta of hbar*w at the operating point: N* + 1."""
        return self.modified_principal + 1.0

    def state(self) -> OscillatorState:
        """The underlying D = 2 anharmonic radial state."""
        return OscillatorState(2, self.principal, self.angular, anharmonicity=self.anharmonicity)


def geonium_energy_si(level: GeoniumLevel, config: TrapConfig) -> float:
    """Level energy in joules: quanta times hbar * w_c."""
    return level.energy * HBAR * trap_frequencies(config).cyclotron
