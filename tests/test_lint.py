from __future__ import annotations

import ast
from pathlib import Path

import zerosumlab

PACKAGE = Path(zerosumlab.__file__).parent


def test_package_has_no_assert_statements():
    # `python -O` strips assert, so a check written as one can be switched off
    sources = sorted(PACKAGE.glob("*.py"))
    assert sources
    found = []
    for path in sources:
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found += [
            f"{path.name}:{node.lineno}"
            for node in ast.walk(tree)
            if isinstance(node, ast.Assert)
        ]
    assert not found, f"assert statements in the package: {found}"


def test_package_checks_digits_as_ascii():
    # str.isdigit() and friends accept "²" and "٣"; user input wants 0-9 only
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found += [
            f"{path.name}:{node.lineno}"
            for node in ast.walk(tree)
            if isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr in ("isdigit", "isdecimal", "isnumeric")
        ]
    assert not found, f"non-ASCII digit checks in the package: {found}"


def test_cli_parses_integers_as_ascii():
    # argparse's type=int is int(), which accepts "٣", "+1" and "1_0";
    # type=float reads those too, and "nan" and "inf" besides
    path = PACKAGE / "cli.py"
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    found = [
        f"{path.name}:{node.value.lineno}"
        for node in ast.walk(tree)
        if isinstance(node, ast.keyword)
        and node.arg == "type"
        and isinstance(node.value, ast.Name)
        and node.value.id in ("int", "float")
    ]
    assert not found, f"type=int or type=float in the CLI: {found}"
