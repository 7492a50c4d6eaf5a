"""The CLI's option surface is locked against a snapshot.

For every verb, the `trap` group's verbs included, and for every parameter
in order, the snapshot records its destination name, flags, default,
required-ness, help text and `Choice` choices.  A change to any of them
shows here as a diff against ``cli_options.json``.  Regenerate the snapshot
(only for a deliberate change, named in CHANGES.md) with
``PYTHONPATH=src python tests/test_cli_options.py``.
"""

from __future__ import annotations

import json
from pathlib import Path

import click

from susyrad.cli import main

SNAPSHOT = Path(__file__).resolve().parent / "cli_options.json"


def _walk(command, path):
    yield path, command
    for name, sub in getattr(command, "commands", {}).items():
        yield from _walk(sub, f"{path} {name}")


def option_surface():
    surface = {}
    for path, command in _walk(main, "susyrad"):
        ctx = click.Context(command)
        surface[path] = [
            {
                "name": param.name,
                "flags": [*param.opts, *param.secondary_opts],
                # a required option has no default (newer click reports a sentinel for it)
                "default": None if param.required else param.get_default(ctx),
                "required": param.required,
                "help": getattr(param, "help", None),
                "choices": list(param.type.choices)
                if isinstance(param.type, click.Choice)
                else None,
            }
            for param in command.params
        ]
    return surface


def test_option_surface_matches_snapshot():
    assert option_surface() == json.loads(SNAPSHOT.read_text(encoding="utf-8"))


if __name__ == "__main__":
    SNAPSHOT.write_text(json.dumps(option_surface(), indent=2) + "\n", encoding="utf-8")
