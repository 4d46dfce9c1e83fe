"""``pyproject.toml`` declares what ``src/fingerloc`` imports at run time, no more and no less.

Every import counts, a function-local one too: a lazy import of a package that is not declared fails here, and
not at the first run that reaches it. scipy is a test oracle only; it is in the ``dev`` extra.
"""
import ast
import re
import sys
import tomllib
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _imported_top_level_names(path: Path) -> set[str]:
    names = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            names.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:  # a relative import stays in the package
            names.add(node.module.split(".")[0])
    return names


def test_third_party_imports_are_the_declared_dependencies():
    imported = set().union(*map(_imported_top_level_names, sorted((ROOT / "src" / "fingerloc").glob("*.py"))))
    third_party = imported - set(sys.stdlib_module_names) - {"fingerloc"}
    project = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]
    declared = {re.match(r"[A-Za-z0-9_.-]+", requirement).group() for requirement in project["dependencies"]}
    assert third_party == declared == {"numpy"}
