import json
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from susyrad.output import Diagnostic, OutputRecord, _csv_cell


def _record(**overrides):
    base = dict(
        command="demo",
        inputs={"family": "coulomb", "count": 2},
        columns=["x", "value", "note"],
        rows=[
            {"x": 1.0, "value": -0.5, "note": "plain"},
            {"x": 2.0, "value": 0.125},
        ],
        diagnostics=[Diagnostic("residual", 1e-12, 1e-8)],
    )
    base.update(overrides)
    return OutputRecord(**base)


class TestCsv:
    def test_layout(self):
        text = _record().to_csv()
        lines = text.splitlines()
        assert lines[0] == "# command: demo"
        assert "# input: count = 2" in lines
        assert "x,value,note" in lines
        assert "1,-0.5,plain" in lines
        # absent cell renders empty, trailing diagnostics are comments
        assert "2,0.125," in lines
        assert lines[-1].startswith("# diagnostic: residual = 1e-12")

    def test_twelve_significant_digits(self):
        text = _record(rows=[{"x": 1.0, "value": -1.0 / 18.0}]).to_csv()
        assert "-0.0555555555556" in text

    def test_quoting(self):
        text = _record(rows=[{"x": 1.0, "note": 'a,b "c"'}]).to_csv()
        assert '"a,b ""c"""' in text

    def test_bool_cells(self):
        text = _record(rows=[{"x": 1.0, "note": True}]).to_csv()
        assert "1,,true" in text


class TestJson:
    def test_shape_and_round_trip(self):
        text = _record().to_json()
        payload = json.loads(text)
        assert payload["command"] == "demo"
        assert payload["rows"][0]["value"] == -0.5
        assert payload["diagnostics"][0]["tolerance"] == 1e-8
        assert json.dumps(payload, indent=2, allow_nan=False) + "\n" == text

    def test_trailing_newline(self):
        assert _record().to_json().endswith("}\n")


class TestValidation:
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_rows_raise(self, bad):
        record = _record(rows=[{"x": bad, "value": 0.0}])
        with pytest.raises(ValueError, match="non-finite"):
            record.to_csv()
        with pytest.raises(ValueError, match="non-finite"):
            record.to_json()

    def test_non_finite_diagnostic_raises(self):
        record = _record(diagnostics=[Diagnostic("bad", math.nan, 1.0)])
        with pytest.raises(ValueError, match="non-finite"):
            record.to_json()

    def test_non_finite_input_raises(self):
        record = _record(inputs={"grid_max": math.inf})
        with pytest.raises(ValueError, match="non-finite"):
            record.to_csv()

    def test_unknown_format(self):
        with pytest.raises(ValueError, match="unknown format"):
            _record().render("yaml")


# --- the C-speed renderers against the per-cell reference ----------------------------------

ORACLE = settings(derandomize=True, max_examples=200, deadline=None)

# strings that break naive CSV (comma, quote, line break) or naive JSON layout (text that
# looks like the `},` and `{` the row-break replacement works on), and non-ASCII text
TRICKY = ["", "a,b", 'say "hi"', "two\nlines", "é☃", "},\n      {", "}, {", "{}", "[]", "nan", "-inf"]
text = st.one_of(st.sampled_from(TRICKY), st.text(",\"\n{}[]: é☃ab", max_size=8))
floats = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([-0.0, 0.0, 5e-324, 1e22, 1e-7, 0.1, 2.0**53, -1.0 / 3.0]),
)
scalars = st.one_of(
    st.none(), st.booleans(), st.integers(-(2**70), 2**70), st.sampled_from([2**53 + 1]), floats, text
)
keys = st.sampled_from(["x", "value", "note", "a,b", 'q"', "é", "},\n      {"])
records = st.builds(
    OutputRecord,
    command=text,
    inputs=st.dictionaries(keys, scalars, max_size=4),
    columns=st.lists(keys, max_size=4, unique=True),
    # rows lack some columns, may hold keys outside them, and may be empty
    rows=st.lists(st.dictionaries(keys, scalars, max_size=4), max_size=5),
    diagnostics=st.lists(st.builds(Diagnostic, text, floats, floats), max_size=3),
)


def _json_oracle(record):
    payload = {
        "command": record.command,
        "inputs": record.inputs,
        "rows": record.rows,
        "diagnostics": [
            {"name": d.name, "value": d.value, "tolerance": d.tolerance} for d in record.diagnostics
        ],
    }
    return json.dumps(payload, indent=2, allow_nan=False) + "\n"


def _csv_oracle(record):
    lines = [f"# command: {record.command}"]
    lines += [f"# input: {key} = {_csv_cell(record.inputs[key])}" for key in sorted(record.inputs)]
    lines.append(",".join(str(c) for c in record.columns))
    lines += [",".join(_csv_cell(row.get(c)) for c in record.columns) for row in record.rows]
    lines += [
        f"# diagnostic: {d.name} = {_csv_cell(d.value)} (tolerance {_csv_cell(d.tolerance)})"
        for d in record.diagnostics
    ]
    return "".join(line + "\n" for line in lines)


def _place(data, record, value):
    """Put value into one cell of record, drawn from all of them; return where it sits."""
    slot = data.draw(st.sampled_from(["inputs", "row", "value", "tolerance"]))
    if slot == "inputs":
        key = data.draw(keys)
        record.inputs[key] = value
        return f"inputs.{key}"
    if slot == "row":
        if not record.rows:
            record.rows.append({})
        idx = data.draw(st.integers(0, len(record.rows) - 1))
        key = data.draw(keys)
        record.rows[idx][key] = value
        return f"row[{idx}].{key}"
    if not record.diagnostics:
        record.diagnostics.append(Diagnostic("check", 0.0, 1.0))
    idx = data.draw(st.integers(0, len(record.diagnostics) - 1))
    diag = record.diagnostics[idx]
    if slot == "value":
        record.diagnostics[idx] = Diagnostic(diag.name, value, diag.tolerance)
        return f"diagnostic {diag.name}"
    record.diagnostics[idx] = Diagnostic(diag.name, diag.value, value)
    return f"diagnostic {diag.name} tolerance"


class TestAgainstReference:
    @ORACLE
    @given(record=records)
    def test_json_is_indent_two_dumps(self, record):
        assert record.to_json() == _json_oracle(record)

    @ORACLE
    @given(record=records)
    def test_csv_is_the_per_cell_rendering(self, record):
        assert record.to_csv() == _csv_oracle(record)

    @ORACLE
    @given(record=records, bad=st.sampled_from([math.nan, math.inf, -math.inf]), data=st.data())
    def test_non_finite_cell_names_where(self, record, bad, data):
        where = _place(data, record, bad)
        message = f"non-finite number in {where}: {bad!r}"
        for render in (record.to_json, record.to_csv):
            with pytest.raises(ValueError) as info:
                render()
            assert str(info.value) == message

    @ORACLE
    @given(record=records, nested=st.sampled_from([[], [1.0], {}, {"a": 1}, (2, 3)]), data=st.data())
    def test_nested_cell_is_a_type_error(self, record, nested, data):
        where = _place(data, record, nested)
        message = f"{type(nested).__name__} in {where}; record cells must be scalars"
        for render in (record.to_json, record.to_csv):
            with pytest.raises(TypeError) as info:
                render()
            assert str(info.value) == message

    def test_float_subclass_renders_as_float(self):
        class Sub(float):
            pass

        record = _record(rows=[{"x": Sub(0.5), "value": Sub(-1.0 / 18.0)}])
        assert record.to_json() == _json_oracle(record)
        assert record.to_csv() == _csv_oracle(record)
        record.rows[0]["value"] = Sub("nan")
        with pytest.raises(ValueError, match=r"row\[0\]\.value: nan"):
            record.to_json()
        with pytest.raises(ValueError, match=r"row\[0\]\.value: nan"):
            record.to_csv()
