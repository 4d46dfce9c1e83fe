"""Every file the toolkit reads or writes as text is UTF-8, whatever the locale: each text-mode ``open(...)``,
``.open(...)``, ``.read_text(...)`` and ``.write_text(...)`` in ``src/`` passes ``encoding=``.

Without it Python takes the locale's encoding, so a beacon id outside ASCII cannot be written under the ``C``
locale, and a file written under one locale may not read back under another.
"""
import ast

from test_no_dead_definitions import SRC


def _mode(call: ast.Call) -> str | None:
    """The constant mode of an ``open`` call, "r" if it passes none, None if it is not a constant."""
    if isinstance(call.func, ast.Attribute):  # Path.open(mode)
        args = call.args
    else:  # open(file, mode)
        args = call.args[1:]
    mode = next((k.value for k in call.keywords if k.arg == "mode"), args[0] if args else ast.Constant("r"))
    return mode.value if isinstance(mode, ast.Constant) else None


def _text_access_without_encoding(tree: ast.AST) -> list[int]:
    lines = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call) or any(k.arg == "encoding" for k in node.keywords):
            continue
        name = getattr(node.func, "attr", getattr(node.func, "id", None))
        if name in ("read_text", "write_text") or (name == "open" and "b" not in (_mode(node) or "")):
            lines.append(node.lineno)
    return lines


def test_every_text_mode_file_access_names_its_encoding():
    found = [f"{path.name}:{line}" for path in sorted(SRC.glob("*.py"))
             for line in _text_access_without_encoding(ast.parse(path.read_text(encoding="utf-8")))]
    assert found == []
