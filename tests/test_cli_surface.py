"""The parsed flag surface of every ``repro-xml`` subcommand is pinned.

``tests/golden/cli_surface.json`` records, per (sub)command, every
argparse action's option strings, dest, default, type, choices,
required, nargs and action class.  Refactoring how the flags are
declared (shared option-group helpers) must leave this surface exactly
as it was.  Regenerate the golden file after an intended surface
change with::

    PYTHONPATH=src python -m tests.test_cli_surface
"""

from __future__ import annotations

import argparse
import json
from pathlib import Path

from repro.cli import build_parser

GOLDEN = Path(__file__).parent / "golden" / "cli_surface.json"


def _action_record(action: argparse.Action) -> dict:
    kind = action.type
    return {
        "option_strings": list(action.option_strings),
        "dest": action.dest,
        "default": action.default,
        "type": None if kind is None else getattr(kind, "__name__", repr(kind)),
        "choices": (
            None
            if action.choices is None or isinstance(action, argparse._SubParsersAction)
            else list(action.choices)
        ),
        "required": action.required,
        "nargs": action.nargs,
        "action": type(action).__name__,
    }


def _walk(parser: argparse.ArgumentParser, prefix: str, out: dict) -> None:
    out[prefix] = [_action_record(action) for action in parser._actions]
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for name, sub in action.choices.items():
                _walk(sub, f"{prefix} {name}", out)


def cli_surface() -> dict:
    """Every (sub)command name mapped to its list of action records."""
    surface: dict = {}
    _walk(build_parser(), "repro-xml", surface)
    return surface


def _parsed_surface(records: list) -> tuple:
    """Positionals in declaration order (it is their parse order);
    optionals as a sorted list, since their order only affects help."""
    positionals = [r for r in records if not r["option_strings"]]
    optionals = sorted(
        (r for r in records if r["option_strings"]),
        key=lambda r: r["option_strings"],
    )
    return positionals, optionals


def test_cli_surface_matches_golden():
    expected = json.loads(GOLDEN.read_text(encoding="utf-8"))
    actual = json.loads(json.dumps(cli_surface()))
    assert sorted(actual) == sorted(expected)
    for command in expected:
        assert _parsed_surface(actual[command]) == _parsed_surface(
            expected[command]
        ), command


if __name__ == "__main__":
    GOLDEN.write_text(
        json.dumps(cli_surface(), indent=1, sort_keys=True) + "\n",
        encoding="utf-8",
    )
    print(f"wrote {GOLDEN}")
