"""``cli._run`` owns input loading: it alone names ``load_dataset``, ``load_layout`` and ``default_layout``,
and every command gets the loaded layout and tables from it.

A command that loads its own inputs picks its own order of loading and config reading, so one bad pair of
files would be reported differently by each command.
"""
import ast

from test_no_dead_definitions import SRC, _names

LOADERS = {"load_dataset", "load_layout", "default_layout"}


def test_only_run_names_a_loader():
    tree = ast.parse((SRC / "cli.py").read_text())
    named = {getattr(stmt, "name", "<module>"): sorted(LOADERS & _names(stmt)) for stmt in tree.body}
    assert {name: found for name, found in named.items() if found} == {"_run": sorted(LOADERS)}
    assert [name for name in named if name.startswith("cmd_")]  # the commands are still there to check
