"""``models.prepare_inputs`` owns the encoding of RSSI vectors: no module in ``src/`` but ``models`` divides by
``NO_SIGNAL``, and ``augment`` feeds its autoencoder through ``prepare_inputs``.

A module that encodes rows on its own restates the rule (``rssi / -200``), and an autoencoder whose rows are
encoded apart from the model that consumes them can drift from it when the encoding changes.
"""
import ast

from test_no_dead_definitions import SRC


def _divides_by_no_signal(node: ast.AST) -> bool:
    if isinstance(node, ast.BinOp | ast.AugAssign) and isinstance(node.op, ast.Div):
        divisor = node.right if isinstance(node, ast.BinOp) else node.value
        return getattr(divisor, "id", getattr(divisor, "attr", None)) == "NO_SIGNAL"
    return False


def test_only_models_divides_by_no_signal():
    dividers = {path.stem for path in sorted(SRC.glob("*.py"))
                for node in ast.walk(ast.parse(path.read_text())) if _divides_by_no_signal(node)}
    assert dividers == {"models"}
