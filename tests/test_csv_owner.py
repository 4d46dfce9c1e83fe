"""``data`` owns the CSV format: it is the only module in ``src/fingerloc`` that imports ``csv``, and its
``write_table`` holds the package's only ``csv.writer`` call. It owns the JSON files' format too: its
``write_json`` holds the package's only ``json.dump`` call, and its only ``json.dumps`` call with an indent.

A second writer would restate the dialect, the header row and the newline handling, or the indent, the key
order and the refusal of a non-finite number, and could drift from the readers.
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


def _writer_calls(tree: ast.Module, module: str = "csv", name: str = "writer", keyword=None) -> list[str]:
    """The top-level function (or ``<module>``) around each ``<module>.<name>(...)`` call, or around each
    one that passes ``keyword`` if one is given."""
    found = []
    for stmt in tree.body:
        for node in ast.walk(stmt):
            if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) and node.func.attr == name
                    and isinstance(node.func.value, ast.Name) and node.func.value.id == module
                    and (keyword is None or any(k.arg == keyword for k in node.keywords))):
                found.append(getattr(stmt, "name", "<module>"))
    return found


def test_only_data_imports_csv():
    trees = {path.stem: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}
    assert [module for module, tree in trees.items() if _imports_csv(tree)] == ["data"]


def test_one_csv_writer_call_in_write_table():
    calls = [f"{path.stem}.{name}" for path in sorted(SRC.glob("*.py"))
             for name in _writer_calls(ast.parse(path.read_text()))]
    assert calls == ["data.write_table"]


def test_one_json_file_writer_in_write_json():
    # json.dumps without an indent also serves the model.bin payload and its checksum, which are no JSON file
    calls = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text())
        calls += [f"{path.stem}.{name}"
                  for name in _writer_calls(tree, "json", "dump") + _writer_calls(tree, "json", "dumps", "indent")]
    assert calls == ["data.write_json"]
