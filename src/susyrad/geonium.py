"""Single-particle Penning-trap spectra and the supersymmetric operating point.

Frequencies are SI: cyclotron w_c = |e B|/m and axial w_z = sqrt(e V / (m d^2))
for a quadrupole trap with characteristic length d.  Tuning the voltage to
V = e B^2 d^2 / m makes the two frequencies equal, which turns the transverse
problem into the two-dimensional oscillator family: a trap level is
`OscillatorState(2, N, L, anharmonicity=Delta)`, with energy N* + 1 in quanta
and SI conversion as a separate multiplication by hbar * w_c.
"""

from __future__ import annotations

import math

from ._np import _lazy_module, as_float
from .errors import AdmissibilityError, StabilityError, VerificationError

maps = _lazy_module(f"{__package__}.maps")  # only coulomb_to_geonium solves a map


# CODATA 2022 (SI): e and h are exact by definition; equal to scipy.constants
ELEMENTARY_CHARGE = 1.602176634e-19
ELECTRON_MASS = 9.1093837139e-31
PROTON_MASS = 1.67262192595e-27
HBAR = 6.62607015e-34 / (2.0 * math.pi)


class ParticlePreset:
    __slots__ = ("name", "charge", "mass")

    def __init__(self, name: str, charge: float, mass: float):
        self.name, self.charge, self.mass = name, charge, mass


ELECTRON = ParticlePreset("electron", -ELEMENTARY_CHARGE, ELECTRON_MASS)
PROTON = ParticlePreset("proton", ELEMENTARY_CHARGE, PROTON_MASS)

PRESETS = {"electron": ELECTRON, "proton": PROTON}


def _particle(trap_length, charge, mass):
    """(trap length, charge, mass) as floats, refused unless mass and length are positive, charge nonzero and finite."""
    trap_length, charge, mass = as_float(trap_length, "trap length"), as_float(charge, "charge"), as_float(mass, "mass")
    if not (mass > 0.0):
        raise AdmissibilityError(f"mass must be positive, got {mass!r}")
    if not (trap_length > 0.0):
        raise AdmissibilityError(f"trap length must be positive, got {trap_length!r}")
    if charge == 0.0 or not math.isfinite(charge):
        raise AdmissibilityError("charge must be nonzero and finite")
    return trap_length, charge, mass


class TrapConfig:
    __slots__ = ("magnetic_field", "electrode_voltage", "trap_length", "charge", "mass")

    def __init__(self, magnetic_field: float, electrode_voltage: float, trap_length: float,
                 charge: float, mass: float):
        # kept as floats, so a string or a complex number is refused here, not at evaluation
        self.magnetic_field = as_float(magnetic_field, "magnetic field")
        self.electrode_voltage = as_float(electrode_voltage, "electrode voltage")
        self.trap_length, self.charge, self.mass = _particle(trap_length, charge, mass)
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


class TrapFrequencies:
    __slots__ = ("cyclotron", "axial")

    def __init__(self, cyclotron: float, axial: float):
        self.cyclotron, self.axial = cyclotron, axial


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
    magnetic_field = as_float(magnetic_field, "magnetic field")
    if not (magnetic_field > 0.0):
        raise AdmissibilityError(f"magnetic field must be positive, got {magnetic_field!r}")
    trap_length, charge, mass = _particle(trap_length, charge, mass)
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


def geonium_energy_si(state, config: TrapConfig) -> float:
    """Energy in joules of a level, the D = 2 `OscillatorState`: its quanta times hbar * w_c."""
    return state.energy * HBAR * trap_frequencies(config).cyclotron
