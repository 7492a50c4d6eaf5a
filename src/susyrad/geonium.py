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

import numpy as np

from . import maps, oscillator
from .errors import AdmissibilityError, StabilityError, VerificationError
from .oscillator import OscillatorState


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
    return float(charge), float(mass)


def trap_config(magnetic_field, electrode_voltage, trap_length, species="electron",
                charge=None, mass=None) -> TrapConfig:
    """Build a TrapConfig from a named preset or explicit charge and mass."""
    charge, mass = charge_and_mass(species, charge, mass)
    return TrapConfig(
        magnetic_field=float(magnetic_field),
        electrode_voltage=float(electrode_voltage),
        trap_length=float(trap_length),
        charge=charge,
        mass=mass,
    )


@dataclass(frozen=True)
class TrapFrequencies:
    cyclotron: float
    axial: float


def trap_frequencies(config: TrapConfig) -> TrapFrequencies:
    """Angular frequencies in rad/s; the config guarantees e*V > 0."""
    w_c = abs(config.charge * config.magnetic_field) / config.mass
    w_z = math.sqrt(
        config.charge * config.electrode_voltage / (config.mass * config.trap_length**2)
    )
    return TrapFrequencies(cyclotron=w_c, axial=w_z)


def susy_operating_point(magnetic_field: float, trap_length: float, charge: float,
                         mass: float) -> float:
    """Voltage making w_c = w_z exactly.

    Magnitude |e| B^2 d^2 / m; the sign follows the charge so the returned
    voltage always satisfies e*V > 0.
    """
    if not (magnetic_field > 0.0):
        raise AdmissibilityError(f"magnetic field must be positive, got {magnetic_field!r}")
    if not (trap_length > 0.0):
        raise AdmissibilityError(f"trap length must be positive, got {trap_length!r}")
    if not (mass > 0.0):
        raise AdmissibilityError(f"mass must be positive, got {mass!r}")
    if charge == 0.0 or not math.isfinite(charge):
        raise AdmissibilityError("charge must be nonzero and finite")
    return charge * magnetic_field**2 * trap_length**2 / mass


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
    """One level of the two-dimensional trap tower, possibly anharmonic."""

    principal: int
    angular: int
    anharmonicity: float = 0.0

    def __post_init__(self):
        if not isinstance(self.principal, (int, np.integer)) or self.principal < 0:
            raise AdmissibilityError(f"N must be an integer >= 0, got {self.principal!r}")
        if not isinstance(self.angular, (int, np.integer)) or not (
            0 <= self.angular <= self.principal
        ):
            raise AdmissibilityError(
                f"L must satisfy 0 <= L <= N, got L={self.angular!r} N={self.principal!r}"
            )
        if (self.principal - self.angular) % 2:
            raise AdmissibilityError(
                f"N - L must be even, got N={self.principal} L={self.angular}"
            )
        if not (self.anharmonicity >= 0.0):
            raise AdmissibilityError(f"anharmonicity must be >= 0, got {self.anharmonicity!r}")
        # L* + Gamma + 1 > 0 with Gamma = -1/2 and I = 0
        if not (self.angular - 2.0 * self.anharmonicity + 0.5 > 0.0):
            raise AdmissibilityError(
                f"anharmonicity {self.anharmonicity:g} too large: L - 2*Delta + 1/2 must be positive"
            )

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


def susy_tower_spectra(angular: int, count: int):
    """Shifted spectra of the L and L+1 towers of the D = 2 family."""
    return oscillator.partner_spectra(2, angular, count)
