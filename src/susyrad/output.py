"""Delimited output: one record type, CSV and JSON emitters.

JSON floats use Python's shortest round-trip representation (at most 17
significant digits, exact on re-parse); CSV floats carry 12 significant
digits.  Every emitted number must be finite; NaN or infinity anywhere in a
record is a bug upstream and raises here.

Every cell is a scalar: the values of `inputs`, of each row and of each
diagnostic are str, int, float, bool or None.  A list, tuple or dict cell
raises a TypeError naming where it sits, in both formats.  The contract is
what lets JSON encode a whole table with one call to the C encoder and then
lay out `indent=2`'s line breaks by text replacement, which is exact only
when no cell nests.  Both formats walk the record cell by cell only when
something may be wrong (an unexpected cell type, an encoder error, or
`nan`/`inf` in the CSV text); the walk then raises for the first bad cell.

The records are plain classes with `__slots__`, not dataclasses: every record
verb executes this module, `dataclasses` imports `inspect`, about a tenth of
a cold closed-form verb's start, and no caller compares, hashes or prints a
record.
"""

from __future__ import annotations

import functools
import math
from itertools import chain, repeat

# exact types rendered without a walk; subclasses are walked, then rendered as their base
_SCALARS = frozenset({str, int, float, bool, type(None)})
_FLOAT = frozenset({float})


@functools.cache
def _encoders():
    """The (dict, table) JSON encoders, built on the first JSON render: CSV never imports json.

    Separators only, no indent, so that encoding runs in the C encoder; the item
    separator already carries the line break and indentation `indent=2` gives the
    entries of a top-level dict (inputs) and of the dicts in a top-level list (rows,
    diagnostics).
    """
    import json

    return (json.JSONEncoder(allow_nan=False, separators=(",\n    ", ": ")),
            json.JSONEncoder(allow_nan=False, separators=(",\n      ", ": ")))


class Diagnostic:
    __slots__ = ("name", "value", "tolerance")

    def __init__(self, name: str, value: float, tolerance: float):
        self.name, self.value, self.tolerance = name, value, tolerance


class OutputRecord:
    __slots__ = ("command", "inputs", "columns", "rows", "diagnostics")

    def __init__(self, command: str, inputs: dict, columns: list, rows: list | None = None,
                 diagnostics: list | None = None):
        self.command, self.inputs, self.columns = command, inputs, columns
        self.rows = [] if rows is None else rows
        self.diagnostics = [] if diagnostics is None else diagnostics

    def _cells(self):
        """(where, value) for every cell, in the order a check reports the first bad one."""
        for key, value in self.inputs.items():
            yield f"inputs.{key}", value
        for idx, row in enumerate(self.rows):
            for key, value in row.items():
                yield f"row[{idx}].{key}", value
        for diag in self.diagnostics:
            yield f"diagnostic {diag.name}", diag.value
            yield f"diagnostic {diag.name} tolerance", diag.tolerance

    def _check_cells(self):
        """Raise for the first cell that nests or is a non-finite float."""
        for where, value in self._cells():
            if isinstance(value, (list, tuple, dict)):
                raise TypeError(f"{type(value).__name__} in {where}; record cells must be scalars")
            if isinstance(value, float) and not math.isfinite(value):
                raise ValueError(f"non-finite number in {where}: {value!r}")

    def _check_cell_types(self):
        """Walk the record when any cell's type is not an exact scalar type."""
        cells = chain(
            self.inputs.values(),
            chain.from_iterable(map(dict.values, self.rows)),
            *((d.value, d.tolerance) for d in self.diagnostics),
        )
        if not _SCALARS.issuperset(map(type, cells)):
            self._check_cells()

    def to_json(self) -> str:
        """json.dumps(payload, indent=2, allow_nan=False) + "\\n", byte for byte."""
        self._check_cell_types()
        diagnostics = [
            {"name": d.name, "value": d.value, "tolerance": d.tolerance} for d in self.diagnostics
        ]
        dict_encoder, table_encoder = _encoders()
        try:
            command = table_encoder.encode(self.command)
            inputs = dict_encoder.encode(self.inputs)
            rows = _json_table(table_encoder, self.rows)
            diags = _json_table(table_encoder, diagnostics)
        except ValueError:
            self._check_cells()
            raise
        if inputs != "{}":
            inputs = "{\n    " + inputs[1:-1] + "\n  }"
        return (
            f'{{\n  "command": {command},\n  "inputs": {inputs},\n'
            f'  "rows": {rows},\n  "diagnostics": {diags}\n}}\n'
        )

    def to_csv(self) -> str:
        self._check_cell_types()
        rows = self.rows
        columns = [_csv_column(list(map(dict.get, rows, repeat(c)))) for c in self.columns]
        lines = [f"# command: {self.command}"]
        lines += [f"# input: {key} = {_csv_cell(self.inputs[key])}" for key in sorted(self.inputs)]
        lines.append(",".join(str(c) for c in self.columns))
        lines += map(",".join, zip(*columns)) if columns else repeat("", len(rows))
        lines += [
            f"# diagnostic: {d.name} = {_csv_cell(d.value)} (tolerance {_csv_cell(d.tolerance)})"
            for d in self.diagnostics
        ]
        lines.append("")
        text = "\n".join(lines)
        # a non-finite float prints as nan or inf; cells outside the columns are not printed
        if "nan" in text or "inf" in text or not set().union(*rows).issubset(self.columns):
            self._check_cells()
        return text

    def render(self, fmt: str) -> str:
        if fmt == "json":
            return self.to_json()
        if fmt == "csv":
            return self.to_csv()
        raise ValueError(f"unknown format {fmt!r}")


def _json_table(encoder, dicts) -> str:
    """A list of flat dicts as the value of a top-level key under indent=2.

    The encoder writes `[{"a": 1,\\n      "b": 2},\\n      {...}]`.  A line break can
    only come from a separator (strings escape theirs), and only a separator between
    two dicts sits between `}` and `{`, so one replace breaks the dicts apart; a second
    closes up the empty dicts it opened.
    """
    text = encoder.encode(dicts)
    if text == "[]":
        return text
    text = "[\n    {\n      " + text[2:-2] + "\n    }\n  ]"
    return text.replace("},\n      {", "\n    },\n    {\n      ").replace("{\n      \n    }", "{}")


def _csv_column(cells) -> list:
    if set(map(type, cells)) == _FLOAT:
        return list(map(format, cells, repeat(".12g")))
    return list(map(_csv_cell, cells))


def _csv_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return format(value, ".12g")
    text = str(value)
    if "," in text or '"' in text:
        return '"' + text.replace('"', '""') + '"'
    return text
