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


READERS = {"_load_config", "open", "read_text", "read_bytes"}


def test_commands_open_no_file_and_only_run_hashes():
    """Every command gets its parsed ``--config`` or ``--spec`` document from ``_run``, which alone reads
    and hashes the input bytes, so a manifest's digests are of the bytes the run parsed."""
    tree = ast.parse((SRC / "cli.py").read_text())
    functions = {stmt.name: _names(stmt) for stmt in tree.body if isinstance(stmt, ast.FunctionDef)}
    readers = {name: sorted(READERS & names) for name, names in functions.items() if name.startswith("cmd_")}
    assert readers and not any(readers.values()), readers
    assert [name for name, names in functions.items() if "hashlib" in names] == ["_run"]
