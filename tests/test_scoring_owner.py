"""``models.score`` owns the scoring protocol: ``hpo`` and ``rationalize`` score a config only through it,
so neither names ``split``, ``fit`` or ``HOLDOUT_RATIO``.

A module that splits and fits on its own restates the protocol (the ratio, which seed splits, which seed
initialises) and can drift from the other scorers.
"""
import ast

from test_no_dead_definitions import SRC, _names

PROTOCOL = {"split", "fit", "HOLDOUT_RATIO"}


def test_scorers_name_no_step_of_the_protocol():
    named = {module: sorted(PROTOCOL & _names(ast.parse((SRC / f"{module}.py").read_text())))
             for module in ("hpo", "rationalize")}
    assert named == {"hpo": [], "rationalize": []}

