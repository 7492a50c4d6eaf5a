import dataclasses
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy import constants as codata

from susyrad import geonium, maps
from susyrad.errors import AdmissibilityError, StabilityError, VerificationError
from susyrad.geonium import (
    ELECTRON,
    PROTON,
    GeoniumLevel,
    TrapConfig,
    coulomb_to_geonium,
    geonium_energy_si,
    susy_operating_point,
    trap_config,
    trap_frequencies,
)
from susyrad.maps import solve_map_parameters, verify_map_identity
from susyrad.oscillator import partner_spectra
from susyrad.specfun import inner_product

SRC_DIR = Path(__file__).resolve().parents[1] / "src"


def _electron_config(B=5.0, V=None, d=1e-2):
    if V is None:
        V = susy_operating_point(B, d, ELECTRON.charge, ELECTRON.mass)
    return trap_config(B, V, d)


class TestPresets:
    def test_codata_values(self):
        assert ELECTRON.charge == -codata.elementary_charge
        assert ELECTRON.mass == codata.electron_mass
        assert PROTON.charge == codata.elementary_charge
        assert PROTON.mass == codata.proton_mass
        assert geonium.HBAR == codata.hbar

    def test_cli_import_loads_no_scipy(self):
        probe = "import sys, susyrad.cli; print(susyrad.cli.__file__); print('scipy' in sys.modules)"
        proc = subprocess.run(
            [sys.executable, "-c", probe],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": str(SRC_DIR)},
            timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        module_file, scipy_loaded = proc.stdout.splitlines()
        assert Path(module_file).resolve().is_relative_to(SRC_DIR)
        assert scipy_loaded == "False"

    def test_unknown_species(self):
        with pytest.raises(AdmissibilityError):
            trap_config(1.0, -1.0, 1e-2, species="muon")

    def test_explicit_overrides(self):
        cfg = trap_config(1.0, 2.0, 1e-2, charge=1.5e-19, mass=1e-28)
        assert cfg.charge == 1.5e-19
        assert cfg.mass == 1e-28


class TestTrapConfig:
    def test_stability_requires_positive_ev(self):
        # electron charge is negative, so a positive voltage cannot confine
        with pytest.raises(StabilityError):
            trap_config(5.0, 10.0, 1e-2)
        with pytest.raises(StabilityError):
            trap_config(5.0, 0.0, 1e-2)
        trap_config(5.0, -10.0, 1e-2)

    def test_proton_sign_convention(self):
        trap_config(5.0, 10.0, 1e-2, species="proton")
        with pytest.raises(StabilityError):
            trap_config(5.0, -10.0, 1e-2, species="proton")

    def test_field_and_geometry_validation(self):
        with pytest.raises(AdmissibilityError):
            trap_config(0.0, -10.0, 1e-2)
        with pytest.raises(AdmissibilityError):
            trap_config(5.0, -10.0, 0.0)
        with pytest.raises(AdmissibilityError):
            TrapConfig(5.0, -10.0, 1e-2, charge=-1.6e-19, mass=0.0)
        with pytest.raises(AdmissibilityError):
            TrapConfig(5.0, -10.0, 1e-2, charge=0.0, mass=9.1e-31)


class TestFrequencies:
    def test_cyclotron_formula(self):
        cfg = _electron_config(B=3.0)
        freqs = trap_frequencies(cfg)
        assert freqs.cyclotron == pytest.approx(
            codata.elementary_charge * 3.0 / codata.electron_mass, rel=1e-15
        )

    def test_axial_formula(self):
        cfg = trap_config(5.0, -8.0, 2e-3)
        freqs = trap_frequencies(cfg)
        expected = math.sqrt(
            (-codata.elementary_charge) * (-8.0) / (codata.electron_mass * (2e-3) ** 2)
        )
        assert freqs.axial == pytest.approx(expected, rel=1e-15)

    def test_linearity_in_field(self):
        w1 = trap_frequencies(_electron_config(B=2.0)).cyclotron
        w2 = trap_frequencies(_electron_config(B=4.0)).cyclotron
        assert w2 == pytest.approx(2.0 * w1, rel=1e-15)

    def test_axial_scales_as_sqrt_voltage(self):
        a1 = trap_frequencies(trap_config(5.0, -2.0, 1e-2)).axial
        a2 = trap_frequencies(trap_config(5.0, -8.0, 1e-2)).axial
        assert a2 == pytest.approx(2.0 * a1, rel=1e-15)

    def test_both_positive(self):
        freqs = trap_frequencies(trap_config(7.0, 12.0, 4e-3, species="proton"))
        assert freqs.cyclotron > 0.0 and freqs.axial > 0.0


class TestOperatingPoint:
    @pytest.mark.parametrize("species", ["electron", "proton"])
    @pytest.mark.parametrize("B", [0.5, 5.0, 12.0])
    def test_frequencies_match(self, species, B):
        preset = {"electron": ELECTRON, "proton": PROTON}[species]
        d = 3.3e-3
        V = susy_operating_point(B, d, preset.charge, preset.mass)
        freqs = trap_frequencies(trap_config(B, V, d, species=species))
        assert abs(freqs.cyclotron / freqs.axial - 1.0) < 1e-12

    def test_sign_follows_charge(self):
        assert susy_operating_point(5.0, 1e-2, ELECTRON.charge, ELECTRON.mass) < 0.0
        assert susy_operating_point(5.0, 1e-2, PROTON.charge, PROTON.mass) > 0.0

    def test_validation(self):
        with pytest.raises(AdmissibilityError):
            susy_operating_point(-5.0, 1e-2, ELECTRON.charge, ELECTRON.mass)
        with pytest.raises(AdmissibilityError):
            susy_operating_point(5.0, 0.0, ELECTRON.charge, ELECTRON.mass)
        with pytest.raises(AdmissibilityError):
            susy_operating_point(5.0, 1e-2, 0.0, ELECTRON.mass)


class TestGeoniumMap:
    @pytest.mark.parametrize(
        ("n", "l", "expected"), [(1, 0, (1, 1)), (2, 0, (3, 1)), (2, 1, (3, 3)), (3, 2, (5, 5))]
    )
    def test_closed_form(self, n, l, expected):
        assert coulomb_to_geonium(n, l) == expected

    def test_map_disagreement_raises(self, monkeypatch):
        solve = maps.solve_map_parameters

        def skewed(*args, **kwargs):
            spec = solve(*args, **kwargs)
            d, n, l = spec.target
            return dataclasses.replace(spec, target=(d, n + 2, l))

        monkeypatch.setattr(maps, "solve_map_parameters", skewed)
        with pytest.raises(VerificationError, match="closed form"):
            coulomb_to_geonium(2, 1)

    def test_inadmissible_source(self):
        with pytest.raises(AdmissibilityError):
            coulomb_to_geonium(2, 2)
        with pytest.raises(AdmissibilityError):
            coulomb_to_geonium(0, 0)

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_mapped_states_verify(self, n):
        spec = solve_map_parameters((3, n, 0), 1)
        assert spec.target[0] == 2
        assert verify_map_identity(spec).constancy_defect < 1e-8


class TestGeoniumLevel:
    def test_rigid_ladder(self):
        assert GeoniumLevel(1, 1).energy == 2.0
        assert GeoniumLevel(0, 0).energy == 1.0
        assert GeoniumLevel(5, 3).energy == 6.0

    def test_anharmonic_shift(self):
        lvl = GeoniumLevel(3, 1, anharmonicity=0.05)
        assert lvl.modified_principal == pytest.approx(2.9, rel=1e-15)
        assert lvl.energy == pytest.approx(3.9, rel=1e-15)

    def test_fixed_angular_spacing_is_two(self):
        # radial excitations at fixed L move in steps of two quanta
        energies = [GeoniumLevel(n, 1).energy for n in (1, 3, 5, 7)]
        assert np.allclose(np.diff(energies), 2.0, atol=1e-15)

    def test_parity_and_range_validation(self):
        with pytest.raises(AdmissibilityError):
            GeoniumLevel(2, 1)
        with pytest.raises(AdmissibilityError):
            GeoniumLevel(1, 2)
        with pytest.raises(AdmissibilityError):
            GeoniumLevel(-1, 1)

    def test_anharmonicity_clamp(self):
        GeoniumLevel(0, 0, anharmonicity=0.2)
        with pytest.raises(AdmissibilityError):
            GeoniumLevel(0, 0, anharmonicity=0.25)
        with pytest.raises(AdmissibilityError):
            GeoniumLevel(2, 0, anharmonicity=-0.1)

    def test_underlying_state(self):
        lvl = GeoniumLevel(3, 1, anharmonicity=0.1)
        state = lvl.state()
        # quanta and the D = 2 family energy coincide: (2N* + 2*(-1/2) + 3)/2 = N* + 1
        assert state.energy == pytest.approx(lvl.energy, rel=1e-14)
        assert inner_product(state.value, state.value) == pytest.approx(1.0, abs=1e-10)

    def test_energy_is_planar_oscillator_energy(self):
        # N + 1 is the D = 2 ladder read in quanta
        lvl = GeoniumLevel(4, 2)
        assert lvl.energy == pytest.approx(0.5 * lvl.state().operator_eigenvalue(), rel=1e-14)


class TestEnergySi:
    def test_quanta_times_hbar_cyclotron(self):
        cfg = _electron_config(B=6.0)
        lvl = GeoniumLevel(2, 0)
        expected = 3.0 * codata.hbar * trap_frequencies(cfg).cyclotron
        assert geonium_energy_si(lvl, cfg) == pytest.approx(expected, rel=1e-15)

    def test_scale_sanity(self):
        # a few-tesla electron trap sits in the 1e-22 joule regime
        value = geonium_energy_si(GeoniumLevel(1, 1), _electron_config(B=5.0))
        assert 1e-23 < value < 1e-21


class TestTowerSpectra:
    def test_values(self):
        bosonic, fermionic = partner_spectra(2, 0, 4)
        assert bosonic == (0.0, 4.0, 8.0, 12.0)
        assert fermionic == (4.0, 8.0, 12.0)

    @pytest.mark.parametrize("angular", [0, 1, 2])
    def test_degeneracy(self, angular):
        bosonic, fermionic = partner_spectra(2, angular, 6)
        assert bosonic[0] == 0.0
        assert fermionic == bosonic[1:]
