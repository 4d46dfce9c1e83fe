"""``nn.evaluate`` owns scoring's forward pass: outside ``nn.backward`` and ``augment``'s batch-1 loop, no
function in ``src/`` but it runs ``Network.forward``.

``evaluate`` runs it over chunks of ``nn.EVAL_CHUNK`` rows. A forward over a whole test set holds every
layer's output for every row at once, so its peak memory grows with the set: the CNN's first convolution
output alone takes about 35 KB a row.
"""
import ast

from test_no_dead_definitions import SRC


def _forward_calls() -> dict[str, list[str]]:
    """``module.function`` or ``module.Class.method`` -> the receiver of each ``.forward(...)`` call in it."""
    calls = {}
    for path in sorted(SRC.glob("*.py")):
        body = ast.parse(path.read_text()).body
        functions = [(f"{path.stem}.{stmt.name}", stmt) for stmt in body if isinstance(stmt, ast.FunctionDef)]
        functions += [(f"{path.stem}.{stmt.name}.{member.name}", member) for stmt in body
                      if isinstance(stmt, ast.ClassDef) for member in stmt.body if isinstance(member, ast.FunctionDef)]
        for name, function in functions:
            for node in ast.walk(function):
                if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) and node.func.attr == "forward":
                    calls.setdefault(name, []).append(ast.unparse(node.func.value))
    return calls


def test_only_evaluate_backward_and_the_batch_one_loop_run_a_network_forward():
    assert _forward_calls() == {
        "nn.Network.forward": ["layer"],  # each of its layers in turn
        "nn.backward": ["network"],
        "nn.evaluate": ["network"],
        "augment.autoencoder_augment": ["autoencoder"],
    }
