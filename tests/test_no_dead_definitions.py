"""Every top-level function and class in ``src/fingerloc`` is named somewhere else in ``src/``, a private
one elsewhere in its module. Every public method and property of a public class is named by another
top-level statement or another member of its class, and every private one of any class by another
member of its class.

A definition that no code in the package reaches is dead: only its own tests keep it alive.
"""
import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "fingerloc"

# public entry points whose callers live outside the package
ENTRY_POINTS = {"nn.load_network"}  # the documented reader of model.bin
FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)


def _names(node: ast.AST) -> set[str]:
    """Every identifier ``node`` names: variables, attributes and imported names."""
    names = set()
    for n in ast.walk(node):
        if isinstance(n, ast.Name):
            names.add(n.id)
        elif isinstance(n, ast.Attribute):
            names.add(n.attr)
        elif isinstance(n, ast.alias):
            names.add(n.name)
    return names


def unreached_definitions(src: Path = SRC) -> list[str]:
    """``module.name`` of each top-level def or class that no other top-level statement names (of its
    module, if it is private), and ``module.Class.name`` of each method or property that the rules in
    this module's docstring leave unnamed. Python itself calls the dunder methods."""
    statements = [(path.stem, stmt) for path in sorted(src.glob("*.py"))
                  for stmt in ast.parse(path.read_text()).body]
    names = [_names(stmt) for _, stmt in statements]
    dead = []
    for i, (module, stmt) in enumerate(statements):
        if not isinstance(stmt, (*FUNCTIONS, ast.ClassDef)):
            continue
        private = stmt.name.startswith("_")
        outside = set().union(*(other for j, other in enumerate(names)
                                if j != i and (statements[j][0] == module or not private)))
        if stmt.name not in outside and f"{module}.{stmt.name}" not in ENTRY_POINTS:
            dead.append(f"{module}.{stmt.name}")
        if isinstance(stmt, ast.ClassDef):
            for member in stmt.body:
                if not isinstance(member, FUNCTIONS) or member.name.startswith("__"):
                    continue
                siblings = set().union(*(_names(m) for m in stmt.body if m is not member))
                if member.name.startswith("_"):
                    reached = member.name in siblings
                else:  # a public member of a private class is not checked
                    reached = private or member.name in outside | siblings
                if not reached:
                    dead.append(f"{module}.{stmt.name}.{member.name}")
    return dead


def test_every_public_definition_is_reached_from_the_package():
    assert unreached_definitions() == []


def test_entry_points_exist():
    defined = {f"{path.stem}.{stmt.name}" for path in SRC.glob("*.py")
               for stmt in ast.parse(path.read_text()).body if hasattr(stmt, "name")}
    assert ENTRY_POINTS <= defined
