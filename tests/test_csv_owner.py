"""``data`` owns the CSV format: it is the only module in ``src/fingerloc`` that imports ``csv``, and its
``write_table`` holds the package's only ``csv.writer`` call.

A second writer would restate the dialect, the header row and the newline handling, and could drift
from the readers.
"""
import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "fingerloc"


def _imports_csv(tree: ast.AST) -> bool:
    for node in ast.walk(tree):
        if isinstance(node, ast.Import) and any(a.name.split(".")[0] == "csv" for a in node.names):
            return True
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "csv":
            return True
    return False


def _writer_calls(tree: ast.Module) -> list[str]:
    """The top-level function (or ``<module>``) around each ``csv.writer(...)`` call."""
    found = []
    for stmt in tree.body:
        for node in ast.walk(stmt):
            if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) and node.func.attr == "writer"
                    and isinstance(node.func.value, ast.Name) and node.func.value.id == "csv"):
                found.append(getattr(stmt, "name", "<module>"))
    return found


def test_only_data_imports_csv():
    trees = {path.stem: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}
    assert [module for module, tree in trees.items() if _imports_csv(tree)] == ["data"]


def test_one_csv_writer_call_in_write_table():
    calls = [f"{path.stem}.{name}" for path in sorted(SRC.glob("*.py"))
             for name in _writer_calls(ast.parse(path.read_text()))]
    assert calls == ["data.write_table"]
