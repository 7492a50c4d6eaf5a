import pytest
from scipy import constants as codata

from susyrad.config import ModelConfig, load_config, parse_config
from susyrad.errors import ConfigError, StabilityError

GOOD = """\
# synthetic alkali-like table
format_version = 1

[defect]
dimension = 3
l = 0
delta = 0.4     # asymptotic s defect
shift = 1

[defect]
dimension = 3
l = 0
n = 2
delta = 0.41    # level-specific override
shift = 1

[defect]
dimension = 3
l = 1
delta = 0.05
shift = 0

[anharmonic]
dimension = 2
L = 0
Delta = 0.1
shift = 1

[trap]
B_tesla = 5.0
V_volt = -12.0
d_meter = 0.01
species = electron
"""


class TestParsing:
    def test_round_trip(self):
        records = parse_config(GOOD)
        assert [r.section for r in records] == ["defect"] * 3 + ["anharmonic", "trap"]
        assert records[0].fields["delta"] == "0.4"
        assert records[4].fields["species"] == "electron"

    def test_comments_and_blanks_ignored(self):
        records = parse_config("# leading\nformat_version = 1\n\n[trap] # trailing\nB_tesla=1\nV_volt=-1\nd_meter=0.01\n")
        assert len(records) == 1
        assert records[0].fields == {"B_tesla": "1", "V_volt": "-1", "d_meter": "0.01"}

    def test_version_must_come_first(self):
        with pytest.raises(ConfigError, match="before the first section"):
            parse_config("[defect]\nformat_version = 1\n")
        with pytest.raises(ConfigError, match="only format_version"):
            parse_config("dimension = 3\nformat_version = 1\n")

    def test_missing_version(self):
        with pytest.raises(ConfigError, match="missing format_version"):
            parse_config("# nothing else\n")

    def test_unsupported_version(self):
        with pytest.raises(ConfigError, match="unsupported format_version"):
            parse_config("format_version = 2\n")

    def test_unknown_section(self):
        with pytest.raises(ConfigError, match="unknown section"):
            parse_config("format_version = 1\n[laser]\n")

    def test_unterminated_header(self):
        with pytest.raises(ConfigError, match="unterminated"):
            parse_config("format_version = 1\n[defect\n")

    def test_duplicate_key(self):
        with pytest.raises(ConfigError, match="duplicate key"):
            parse_config("format_version = 1\n[defect]\ndimension = 3\ndimension = 4\n")

    def test_key_not_valid_for_section(self):
        with pytest.raises(ConfigError, match="not valid"):
            parse_config("format_version = 1\n[trap]\ndelta = 0.1\n")

    def test_missing_equals(self):
        with pytest.raises(ConfigError, match="key = value"):
            parse_config("format_version = 1\n[defect]\ndimension\n")

    def test_empty_key(self):
        with pytest.raises(ConfigError, match="empty key"):
            parse_config("format_version = 1\n[defect]\n= 3\n")


class TestDefectModel:
    def test_tables(self):
        model = ModelConfig(parse_config(GOOD)).defect_model()
        assert model.dimension == 3
        assert model.delta(0) == 0.4
        assert model.delta(0, 2) == 0.41
        assert model.delta(1, 7) == 0.05
        assert model.shift(0) == 1
        assert model.shift(1) == 0

    def test_dimension_selection(self):
        text = GOOD + "\n[defect]\ndimension = 4\nl = 0\ndelta = 0.2\nshift = 0\n"
        cfg = ModelConfig(parse_config(text))
        with pytest.raises(ConfigError, match="several dimensions"):
            cfg.defect_model()
        assert cfg.defect_model(3).delta(0) == 0.4
        assert cfg.defect_model(4).delta(0) == 0.2

    def test_no_records(self):
        cfg = ModelConfig(parse_config("format_version = 1\n"))
        with pytest.raises(ConfigError, match="no \\[defect\\]"):
            cfg.defect_model()

    def test_missing_required_key(self):
        with pytest.raises(ConfigError, match="missing 'delta'"):
            ModelConfig(
                parse_config("format_version = 1\n[defect]\ndimension = 3\nl = 0\nshift = 0\n")
            ).defect_model()

    def test_type_errors(self):
        with pytest.raises(ConfigError, match="must be an integer"):
            ModelConfig(
                parse_config(
                    "format_version = 1\n[defect]\ndimension = 3\nl = 0.5\ndelta = 0.1\nshift = 0\n"
                )
            ).defect_model()
        with pytest.raises(ConfigError, match="must be a number"):
            ModelConfig(
                parse_config(
                    "format_version = 1\n[defect]\ndimension = 3\nl = 0\ndelta = big\nshift = 0\n"
                )
            ).defect_model()

    # a conflicting entry is refused, naming its record's line, instead of silently winning
    @pytest.mark.parametrize(
        ("second", "message"),
        [
            ("l = 1\ndelta = 0.06\nshift = 0", "[defect] near line 35: a second entry for l = 1"),
            ("l = 0\nn = 2\ndelta = 0.42\nshift = 1",
             "[defect] near line 35: a second entry for (l, n) = (0, 2)"),
        ],
        ids=["l", "l-n"],
    )
    def test_conflicting_entries_are_refused(self, second, message):
        text = GOOD + f"\n[defect]\ndimension = 3\n{second}\n"
        with pytest.raises(ConfigError) as caught:
            ModelConfig(parse_config(text)).defect_model()
        assert str(caught.value) == message

    def test_override_shift_may_not_differ_from_its_l(self):
        text = (
            "format_version = 1\n"
            "[defect]\ndimension = 3\nl = 0\ndelta = 0.4\nshift = 1\n"
            "[defect]\ndimension = 3\nl = 0\nn = 2\ndelta = 0.41\nshift = 0\n"
        )
        with pytest.raises(ConfigError, match="near line 7: shift 0 conflicts with shift 1 for l = 0"):
            ModelConfig(parse_config(text)).defect_model()

    def test_model_is_usable(self):
        model = ModelConfig(parse_config(GOOD)).defect_model()
        s = model.state(3, 0)
        assert s.n_star == pytest.approx(2.6, rel=1e-15)


class TestAnharmonicModel:
    def test_table(self):
        model = ModelConfig(parse_config(GOOD)).anharmonic_model()
        assert model.dimension == 2
        assert model.anharmonicity(0) == 0.1
        assert model.shift(0) == 1
        assert model.state(2, 0).energy == pytest.approx(2.8, rel=1e-15)

    def test_no_records(self):
        cfg = ModelConfig(parse_config("format_version = 1\n"))
        with pytest.raises(ConfigError, match="no \\[anharmonic\\]"):
            cfg.anharmonic_model()

    def test_level_specific_entry(self):
        text = (
            "format_version = 1\n"
            "[anharmonic]\ndimension = 3\nL = 0\nDelta = 0.1\nshift = 0\n"
            "[anharmonic]\ndimension = 3\nL = 0\nN = 4\nDelta = 0.2\nshift = 0\n"
        )
        model = ModelConfig(parse_config(text)).anharmonic_model()
        assert model.anharmonicity(0, 2) == 0.1
        assert model.anharmonicity(0, 4) == 0.2

    def test_a_second_entry_is_refused(self):
        text = (
            "format_version = 1\n"
            "[anharmonic]\ndimension = 3\nL = 0\nDelta = 0.1\nshift = 0\n"
            "[anharmonic]\ndimension = 3\nL = 0\nDelta = 0.2\nshift = 0\n"
        )
        with pytest.raises(ConfigError, match=r"\[anharmonic\] near line 7: a second entry for L = 0"):
            ModelConfig(parse_config(text)).anharmonic_model()


class TestTrap:
    def test_species_preset(self):
        cfg = ModelConfig(parse_config(GOOD)).trap()
        assert cfg.magnetic_field == 5.0
        assert cfg.charge == -codata.elementary_charge
        assert cfg.mass == codata.electron_mass

    def test_custom_particle(self):
        text = (
            "format_version = 1\n[trap]\nB_tesla = 2.0\nV_volt = 3.0\n"
            "d_meter = 0.004\ne_coulomb = 1.6e-19\nm_kg = 1.7e-27\n"
        )
        cfg = ModelConfig(parse_config(text)).trap()
        assert cfg.charge == 1.6e-19
        assert cfg.mass == 1.7e-27

    def test_custom_requires_charge_and_mass(self):
        text = "format_version = 1\n[trap]\nB_tesla = 2.0\nV_volt = 3.0\nd_meter = 0.004\ne_coulomb = 1.6e-19\n"
        with pytest.raises(ConfigError, match="missing 'm_kg'"):
            ModelConfig(parse_config(text)).trap()

    @pytest.mark.parametrize("key", ["e_coulomb", "m_kg"])
    def test_bad_number_under_a_named_species(self, key):
        text = (
            "format_version = 1\n[trap]\nB_tesla = 5.0\nV_volt = -12.0\nd_meter = 0.01\n"
            f"species = electron\n{key} = abc\n"
        )
        with pytest.raises(ConfigError) as info:
            ModelConfig(parse_config(text)).trap()
        assert str(info.value) == f"[trap] near line 2: {key!r} must be a number"

    def test_no_trap_record(self):
        cfg = ModelConfig(parse_config("format_version = 1\n"))
        with pytest.raises(ConfigError, match="no \\[trap\\]"):
            cfg.trap()

    def test_instability_surfaces_from_construction(self):
        text = "format_version = 1\n[trap]\nB_tesla = 2.0\nV_volt = 3.0\nd_meter = 0.004\nspecies = electron\n"
        with pytest.raises(StabilityError):
            ModelConfig(parse_config(text)).trap()


class TestLoadConfig:
    def test_reads_file(self, tmp_path):
        path = tmp_path / "models.cfg"
        path.write_text(GOOD, encoding="utf-8")
        cfg = load_config(str(path))
        assert cfg.defect_model().delta(0) == 0.4

    def test_missing_file(self, tmp_path):
        with pytest.raises(OSError):
            load_config(str(tmp_path / "absent.cfg"))
