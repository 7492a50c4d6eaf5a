"""Line-oriented key-value configuration files.

Grammar (documented in the README):

  * blank lines and anything after '#' are ignored
  * the first non-comment line must be ``format_version = 1``
  * ``[section]`` opens a new record; repeating a section name appends
    another record of the same kind
  * inside a record every line is ``key = value``; keys are case-sensitive
    and may not repeat within one record

Record kinds: ``[defect]`` (dimension, l, optional n, delta, shift),
``[anharmonic]`` (dimension, L, optional N, Delta, shift) and ``[trap]``
(B_tesla, V_volt, d_meter, species or e_coulomb + m_kg).
"""

from __future__ import annotations

from ._np import _lazy_module
from .errors import ConfigError

# only a [trap] record needs geonium, and only a model section qdt
geonium, qdt = (_lazy_module(f"{__package__}.{name}") for name in ("geonium", "qdt"))

FORMAT_VERSION = 1

# model section -> (name of its qdt model class, angular key, principal key, table value key)
_MODEL_SECTIONS = {
    "defect": ("DefectModel", "l", "n", "delta"),
    "anharmonic": ("AnharmonicModel", "L", "N", "Delta"),
}
_SECTION_KEYS = {
    section: {"dimension", "shift", *keys} for section, (_, *keys) in _MODEL_SECTIONS.items()
}
_SECTION_KEYS["trap"] = {"B_tesla", "V_volt", "d_meter", "species", "e_coulomb", "m_kg"}


class ConfigRecord:
    __slots__ = ("section", "line", "fields")

    def __init__(self, section: str, line: int, fields: dict):
        self.section, self.line, self.fields = section, line, fields


def parse_config(text: str) -> list[ConfigRecord]:
    """Parse the grammar above into section records, validating the version."""
    records: list[ConfigRecord] = []
    current: ConfigRecord | None = None
    version_seen = False
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("["):
            if not line.endswith("]"):
                raise ConfigError(f"line {lineno}: unterminated section header {raw!r}")
            if not version_seen:
                raise ConfigError("format_version must appear before the first section")
            name = line[1:-1].strip()
            if name not in _SECTION_KEYS:
                raise ConfigError(f"line {lineno}: unknown section {name!r}")
            current = ConfigRecord(section=name, line=lineno, fields={})
            records.append(current)
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if not key:
            raise ConfigError(f"line {lineno}: empty key")
        if current is None:
            if key != "format_version":
                raise ConfigError(
                    f"line {lineno}: only format_version may appear before the first section"
                )
            if value != str(FORMAT_VERSION):
                raise ConfigError(
                    f"line {lineno}: unsupported format_version {value!r} (expected {FORMAT_VERSION})"
                )
            version_seen = True
            continue
        if key in current.fields:
            raise ConfigError(f"line {lineno}: duplicate key {key!r} in [{current.section}]")
        if key not in _SECTION_KEYS[current.section]:
            raise ConfigError(f"line {lineno}: key {key!r} not valid in [{current.section}]")
        current.fields[key] = value
    if not version_seen:
        raise ConfigError("missing format_version")
    return records


def _field(record, key, kind):
    """record's key as kind (int or float), refused with a message naming the key."""
    try:
        return kind(record.fields[key])
    except KeyError:
        raise ConfigError(f"[{record.section}] near line {record.line}: missing {key!r}") from None
    except ValueError:
        noun = "an integer" if kind is int else "a number"
        raise ConfigError(f"[{record.section}] near line {record.line}: {key!r} must be {noun}") from None


class ModelConfig:
    """Typed access to the records of one parsed file."""

    def __init__(self, records: list[ConfigRecord]):
        self.records = records

    def _dimensions(self, section):
        return sorted({_field(r, "dimension", int) for r in self.records if r.section == section})

    def model(self, section: str, dimension: int | None = None):
        """The DefectModel or AnharmonicModel built from one model section's records."""
        class_name, l_key, n_key, value_key = _MODEL_SECTIONS[section]
        dims = self._dimensions(section)
        if not dims:
            raise ConfigError(f"no [{section}] records in configuration")
        if dimension is None:
            if len(dims) > 1:
                raise ConfigError(f"{section} records for several dimensions {dims}; pick one")
            dimension = dims[0]
        table: dict = {}
        shifts: dict = {}
        for record in self.records:
            if record.section != section or _field(record, "dimension", int) != dimension:
                continue
            l = _field(record, l_key, int)
            key = (l, _field(record, n_key, int)) if n_key in record.fields else l
            value, shift = _field(record, value_key, float), _field(record, "shift", int)
            where = f"[{section}] near line {record.line}"
            if key in table:
                name = f"({l_key}, {n_key}) = {key}" if key != l else f"{l_key} = {l}"
                raise ConfigError(f"{where}: a second entry for {name}")
            if shifts.setdefault(l, shift) != shift:
                raise ConfigError(f"{where}: shift {shift} conflicts with shift {shifts[l]} for {l_key} = {l}")
            table[key] = value
        if not table:
            raise ConfigError(f"no [{section}] records for dimension {dimension}")
        return getattr(qdt, class_name)(dimension, table, shifts)

    def defect_model(self, dimension: int | None = None) -> qdt.DefectModel:
        return self.model("defect", dimension)

    def anharmonic_model(self, dimension: int | None = None) -> qdt.AnharmonicModel:
        return self.model("anharmonic", dimension)

    def has_trap(self) -> bool:
        return any(record.section == "trap" for record in self.records)

    def trap(self) -> geonium.TrapConfig:
        for record in self.records:
            if record.section != "trap":
                continue
            species = record.fields.get("species", "custom")
            if species == "custom":
                charge = _field(record, "e_coulomb", float)
                mass = _field(record, "m_kg", float)
            else:
                charge = _field(record, "e_coulomb", float) if "e_coulomb" in record.fields else None
                mass = _field(record, "m_kg", float) if "m_kg" in record.fields else None
            return geonium.trap_config(
                magnetic_field=_field(record, "B_tesla", float),
                electrode_voltage=_field(record, "V_volt", float),
                trap_length=_field(record, "d_meter", float),
                species=species,
                charge=charge,
                mass=mass,
            )
        raise ConfigError("no [trap] record in configuration")


def load_config(path: str) -> ModelConfig:
    with open(path, "r", encoding="utf-8") as handle:
        return ModelConfig(parse_config(handle.read()))
