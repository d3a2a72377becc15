"""What the package promises beyond its behaviour: numpy as its only
runtime dependency, and a README that documents every command-line flag
and every preset."""

import argparse
import ast
import re
import sys
from dataclasses import fields
from pathlib import Path

from utsf.cli import build_parser
from utsf.model import _PRESETS, ModelConfig, preset

ROOT = Path(__file__).resolve().parent.parent


def test_the_package_imports_only_the_standard_library_and_numpy():
    imported = set()
    for path in sorted((ROOT / "src" / "utsf").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                imported |= {(path.name, alias.name.split(".")[0]) for alias in node.names}
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                imported.add((path.name, node.module.split(".")[0]))
    assert ("cli.py", "numpy") in imported
    foreign = sorted((name, mod) for name, mod in imported
                     if mod != "numpy" and mod not in sys.stdlib_module_names)
    assert not foreign, f"imports outside the standard library and numpy: {foreign}"


def test_the_readme_names_every_flag_of_every_command():
    readme = (ROOT / "README.md").read_text()
    commands = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    flags = {(command, flag) for command, p in commands.choices.items() for a in p._actions
             for flag in a.option_strings if flag.startswith("--") and flag != "--help"}
    assert ("gradcheck", "--seeds") in flags
    # "--seed" is not named by "--seeds"
    missing = sorted((command, flag) for command, flag in flags
                     if not re.search(re.escape(flag) + r"(?![\w-])", readme))
    assert not missing, f"flags the README does not name: {missing}"


# each column of the README's preset table, and the ModelConfig attribute it shows
_PRESET_COLUMNS = {"lookback": "lookback_len", "horizon": "horizon_len", "patch": "patch_size",
                   "tokens": "n_patches", "d_model": "d_model", "levels": "n_levels", "heads": "n_heads"}


def test_the_readme_preset_table_is_the_presets():
    section = (ROOT / "README.md").read_text().split("\n## Presets\n", 1)[1].split("\n## ", 1)[0]
    header, _rule, *rows = ([cell.strip() for cell in line.strip("|").split("|")]
                            for line in section.splitlines() if line.startswith("|"))
    assert header[0] == "preset" and set(header[1:]) <= set(_PRESET_COLUMNS), header
    assert sorted(row[0] for row in rows) == sorted(_PRESETS)
    for name, *cells in rows:
        config = preset(name)
        want = {column: getattr(config, _PRESET_COLUMNS[column]) for column in header[1:]}
        assert dict(zip(header[1:], map(int, cells))) == want, name
    # every field of the architecture has a column
    shown = {_PRESET_COLUMNS[column] for column in header[1:]}
    assert not [f.name for f in fields(ModelConfig) if f.name not in shown]
