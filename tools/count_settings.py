"""Count the settable values of the source tree this script sits in.

Usage (from any directory):

    python3 tools/count_settings.py

Prints one JSON object:

- ``config_keys``: entries of ``strandgp.cli._KEYS``, over all sections;
- ``cli_options``: options of the command line, counted once per
  subcommand that takes them (``--help`` not counted);
- ``defaulted_parameters``: parameters with a default of the public
  functions and methods in ``src/strandgp`` (a method counts when its class
  and its own name are public, or it is the class's ``__init__``);
- ``defaulted_fields``: public fields with a default of the dataclasses in
  ``src/strandgp``;
- ``src_lines``: lines of the ``.py`` files in ``src/strandgp``.

To count another checkout, run the copy of this script placed in it.
"""

from __future__ import annotations

import ast
import glob
import json
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PACKAGE = os.path.join(ROOT, "src", "strandgp")


def _is_dataclass(node: ast.ClassDef) -> bool:
    for deco in node.decorator_list:
        target = deco.func if isinstance(deco, ast.Call) else deco
        name = target.attr if isinstance(target, ast.Attribute) else getattr(target, "id", "")
        if name == "dataclass":
            return True
    return False


def _defaulted(args: ast.arguments) -> int:
    return len(args.defaults) + sum(d is not None for d in args.kw_defaults)


def count_source(tree: ast.Module) -> tuple[int, int]:
    """(defaulted public parameters, defaulted public dataclass fields)."""
    params = fields = 0
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            if not node.name.startswith("_"):
                params += _defaulted(node.args)
        elif isinstance(node, ast.ClassDef) and not node.name.startswith("_"):
            dataclass = _is_dataclass(node)
            for item in node.body:
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    if item.name == "__init__" or not item.name.startswith("_"):
                        params += _defaulted(item.args)
                elif (dataclass and isinstance(item, ast.AnnAssign) and item.value is not None
                      and isinstance(item.target, ast.Name)
                      and not item.target.id.startswith("_")):
                    fields += 1
    return params, fields


def cli_counts() -> tuple[int, int]:
    """(config keys, command-line options) of the tree's ``strandgp.cli``."""
    sys.path.insert(0, os.path.join(ROOT, "src"))
    from strandgp import cli

    keys = sum(len(section) for section in cli._KEYS.values())
    parser = cli.build_parser()
    options = 0
    for action in parser._subparsers._group_actions:
        for sub in action.choices.values():
            options += sum(1 for a in sub._actions if a.option_strings and a.dest != "help")
    return keys, options


def main() -> int:
    params = fields = lines = 0
    for path in sorted(glob.glob(os.path.join(PACKAGE, "*.py"))):
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
        lines += len(text.splitlines())
        p, f = count_source(ast.parse(text, filename=path))
        params += p
        fields += f
    keys, options = cli_counts()
    print(json.dumps({"config_keys": keys, "cli_options": options,
                      "defaulted_parameters": params, "defaulted_fields": fields,
                      "src_lines": lines}, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
