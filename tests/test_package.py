"""What the package promises beyond its behaviour: numpy as its only
runtime dependency, and a README that documents every command-line flag."""

import argparse
import ast
import re
import sys
from pathlib import Path

from utsf.cli import build_parser

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
