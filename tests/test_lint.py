from __future__ import annotations

import ast
import collections
import tokenize
from pathlib import Path

import pytest

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


def _package_imports(tree):
    """Modules of the package that ``tree`` imports outside function bodies."""
    found = []
    pending = list(tree.body)
    while pending:
        node = pending.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        if isinstance(node, ast.ImportFrom) and (
            node.level or (node.module or "").startswith("zerosumlab")
        ):
            found.append("." * node.level + (node.module or ""))
        elif isinstance(node, ast.Import):
            found += [a.name for a in node.names if a.name.startswith("zerosumlab")]
        pending.extend(ast.iter_child_nodes(node))
    return sorted(found)


@pytest.mark.parametrize("name, allowed", [("cli.py", {".errors", ".groups"}),
                                           ("__init__.py", set())])
def test_module_level_imports_load_no_engine(name, allowed):
    # each subcommand imports its own engine; see tests/test_imports.py
    path = PACKAGE / name
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    assert set(_package_imports(tree)) <= allowed


@pytest.mark.parametrize("constant", ["SCHEMA_VERSION", "DEFAULT_RING_CUTOFF", "ZSL_CACHE_ENV"])
def test_shared_constants_are_defined_once(constant):
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found += [
            f"{path.name}:{node.lineno}"
            for node in ast.walk(tree)
            if isinstance(node, (ast.Assign, ast.AnnAssign))
            and any(isinstance(t, ast.Name) and t.id == constant
                    for t in (node.targets if isinstance(node, ast.Assign) else [node.target]))
        ]
    assert len(found) == 1, found


def test_every_source_parses_as_python_3_10():
    # pyproject.toml sets requires-python = ">=3.10"; newer syntax such as
    # `except*` or a `type` statement would break that floor
    root = PACKAGE.parent.parent
    sources = [path for folder in (PACKAGE, root / "tests", root / "perfbench")
               for path in sorted(folder.rglob("*.py"))]
    assert len(sources) > len(list(PACKAGE.glob("*.py")))
    for path in sources:
        ast.parse(path.read_text(encoding="utf-8"), filename=str(path),
                  feature_version=(3, 10))


def _private_top_level_names(tree):
    """(name, line) of each top-level function, class or assignment named with one ``_``."""
    found = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            targets = [node]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = [name for t in (node.targets if isinstance(node, ast.Assign)
                                      else [node.target]) for name in ast.walk(t)
                       if isinstance(name, ast.Name)]
        else:
            continue
        for target in targets:
            name = getattr(target, "name", None) or target.id
            if name.startswith("_") and not name.startswith("__"):
                found.append((name, target.lineno))
    return found


def _uses(path):
    """(file, line) of each identifier token, and of each string literal that
    is exactly one identifier (a name wrapped or looked up by string)."""
    uses = collections.defaultdict(set)
    with path.open(encoding="utf-8") as fh:
        for tok in tokenize.generate_tokens(fh.readline):
            if tok.type == tokenize.NAME:
                uses[tok.string].add((path, tok.start[0]))
            elif tok.type == tokenize.STRING:
                text = tok.string.strip("'\"")
                if text.isidentifier():
                    uses[text].add((path, tok.start[0]))
    return uses


def test_every_private_helper_is_used_elsewhere():
    # a private name that only its own definition mentions is dead code; a
    # use in another file counts unless that file defines the name itself
    root = PACKAGE.parent.parent
    sources = sorted(PACKAGE.glob("*.py")) + sorted((root / "perfbench").glob("*.py"))
    defined, uses = {}, collections.defaultdict(set)
    for path in sources:
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        defined[path] = _private_top_level_names(tree)
        for name, where in _uses(path).items():
            uses[name] |= where
    names_of = {path: {name for name, _ in found} for path, found in defined.items()}
    orphans = [f"{path.name}:{line} {name}"
               for path in sorted(PACKAGE.glob("*.py")) for name, line in defined[path]
               if not any(use != (path, line) and (use[0] == path or name not in names_of[use[0]])
                          for use in uses[name])]
    assert not orphans, f"private names used nowhere else: {orphans}"
