"""The CLI's option surface is locked against a snapshot.

For every verb, the `trap` group's verbs included, and for every option in
order, the snapshot records its destination name, flags, default,
required-ness, help text and choices, as the command's option table in
`susyrad.cli` declares them.  `--help` is left out; `--version`, a flag that
takes no value, is off by default.  A change to any of them shows here as a
diff against ``cli_options.json``.  Regenerate the snapshot (only for a
deliberate change, named in CHANGES.md) with
``PYTHONPATH=src python tests/test_cli_options.py``.
"""

from __future__ import annotations

import json
from pathlib import Path

from susyrad import cli

SNAPSHOT = Path(__file__).resolve().parent / "cli_options.json"


def _walk(command, path):
    yield path, command
    if isinstance(command, cli._Group):
        for name, sub in command.items():
            yield from _walk(sub, f"{path} {name}")


def option_surface():
    surface = {}
    for path, command in _walk(cli._ROOT, "susyrad"):
        surface[path] = [
            {
                "name": dest,
                "flags": flags.split(),
                "default": None if default is ... else default,
                "required": default is ...,
                "help": (*help, None)[0],
                "choices": list(kind) if isinstance(kind, tuple) else None,
            }
            for flags, dest, kind, default, *help in command.options
            if dest != "help"
        ]
    return surface


def test_option_surface_matches_snapshot():
    assert option_surface() == json.loads(SNAPSHOT.read_text(encoding="utf-8"))


if __name__ == "__main__":
    SNAPSHOT.write_text(json.dumps(option_surface(), indent=2) + "\n", encoding="utf-8")
