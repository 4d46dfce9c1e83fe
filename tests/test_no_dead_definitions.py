"""Every public top-level function and class in ``src/fingerloc`` is named somewhere else in ``src/``.

A definition that no code in the package reaches is dead: only its own tests keep it alive.
"""
import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "fingerloc"

# public entry points whose callers live outside the package
ENTRY_POINTS = {"nn.load_network"}  # the documented reader of model.bin


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
    """``module.name`` of each public top-level def or class that no other top-level statement names."""
    statements = [(path.stem, stmt) for path in sorted(src.glob("*.py"))
                  for stmt in ast.parse(path.read_text()).body]
    names = [_names(stmt) for _, stmt in statements]
    dead = []
    for i, (module, stmt) in enumerate(statements):
        if not (isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
                and not stmt.name.startswith("_")):
            continue
        named = any(stmt.name in other for j, other in enumerate(names) if j != i)
        if not named and f"{module}.{stmt.name}" not in ENTRY_POINTS:
            dead.append(f"{module}.{stmt.name}")
    return dead


def test_every_public_definition_is_reached_from_the_package():
    assert unreached_definitions() == []


def test_entry_points_exist():
    defined = {f"{path.stem}.{stmt.name}" for path in SRC.glob("*.py")
               for stmt in ast.parse(path.read_text()).body if hasattr(stmt, "name")}
    assert ENTRY_POINTS <= defined
