"""Every public top-level function and class in ``src/fingerloc``, and every public method and property
of a public class, is named somewhere else in ``src/``.

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
    """``module.name`` of each public top-level def or class that no other top-level statement names,
    and ``module.Class.name`` of each public method or property of a public class that neither another
    top-level statement nor another member of its class names."""
    statements = [(path.stem, stmt) for path in sorted(src.glob("*.py"))
                  for stmt in ast.parse(path.read_text()).body]
    names = [_names(stmt) for _, stmt in statements]
    dead = []
    for i, (module, stmt) in enumerate(statements):
        if not (isinstance(stmt, (*FUNCTIONS, ast.ClassDef)) and not stmt.name.startswith("_")):
            continue
        outside = set().union(*(other for j, other in enumerate(names) if j != i))
        if stmt.name not in outside and f"{module}.{stmt.name}" not in ENTRY_POINTS:
            dead.append(f"{module}.{stmt.name}")
        if isinstance(stmt, ast.ClassDef):
            for member in stmt.body:
                if isinstance(member, FUNCTIONS) and not member.name.startswith("_"):
                    siblings = set().union(*(_names(m) for m in stmt.body if m is not member))
                    if member.name not in outside | siblings:
                        dead.append(f"{module}.{stmt.name}.{member.name}")
    return dead


def test_every_public_definition_is_reached_from_the_package():
    assert unreached_definitions() == []


def test_entry_points_exist():
    defined = {f"{path.stem}.{stmt.name}" for path in SRC.glob("*.py")
               for stmt in ast.parse(path.read_text()).body if hasattr(stmt, "name")}
    assert ENTRY_POINTS <= defined
