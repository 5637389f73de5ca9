"""The runtime is stdlib-only: the package imports nothing else and
declares no dependencies."""

import ast
import fnmatch
import pathlib
import re
import sys
import types

import pytest

import weightenum

ROOT = pathlib.Path(__file__).resolve().parent.parent
SOURCES = sorted((ROOT / "src" / "weightenum").glob("*.py"))


def test_package_imports_only_the_standard_library():
    assert SOURCES
    outside = []
    for path in SOURCES:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                names = [node.module]
            else:
                continue
            outside += [f"{path.name}: {name}" for name in names
                        if name.partition(".")[0] not in sys.stdlib_module_names]
    assert outside == []


def test_sources_parse_as_the_oldest_declared_python():
    # pyproject.toml declares requires-python >= 3.10; the suite may run on
    # a newer interpreter, so parse with 3.10's grammar.
    assert SOURCES
    for path in SOURCES:
        ast.parse(path.read_text(encoding="utf-8"), filename=str(path), feature_version=(3, 10))


def test_pyproject_declares_no_dependencies():
    tomllib = pytest.importorskip("tomllib")  # Python 3.11 and later
    with open(ROOT / "pyproject.toml", "rb") as fh:
        project = tomllib.load(fh)["project"]
    assert project["dependencies"] == []


def test_every_private_helper_has_a_caller_in_the_package():
    # A module-level _function or _Class that only tests reach is dead code;
    # deletions elsewhere tend to leave such helpers behind.
    defined, used = [], set()
    for path in SOURCES:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        defined += [(path.name, node.name) for node in tree.body
                    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
                    and node.name.startswith("_") and not node.name.startswith("__")]
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                used.update(alias.name for alias in node.names)
    assert defined
    assert [f"{module}: {name}" for module, name in defined if name not in used] == []


def test_readme_export_list_matches_the_package_exports():
    # The README paragraph "The package exports, by module: ..." names every
    # public name of weightenum and nothing else; `avg_*` stands for a glob.
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    paragraph = re.search(r"The package exports, by module:(.*?)\n\n", readme, re.S).group(1)
    listed = re.findall(r"`([^`]+)`", paragraph)
    exports = {name for name, obj in vars(weightenum).items()
               if not name.startswith("_") and not isinstance(obj, types.ModuleType)}
    named = set()
    for entry in listed:
        matches = fnmatch.filter(exports, entry)
        assert matches, f"README lists {entry!r}, which weightenum does not export"
        named.update(matches)
    assert sorted(exports - named) == []
