"""The README's library example runs as written on a small synthetic corpus."""
import re
from pathlib import Path

from fingerloc import cli

README = Path(__file__).resolve().parent.parent / "README.md"


def test_library_example_runs(tmp_path, monkeypatch):
    section = README.read_text().split("## Library use", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    assert cli.main(["synth", "--locations", "40", "--samples-per-location", "4",
                     "--unlabelled-count", "50", "--seed", "1", "--out-dir", str(tmp_path)]) == 0
    monkeypatch.chdir(tmp_path)
    namespace = {}
    exec(compile(code, str(README), "exec"), namespace)
    assert len(namespace["history"]) == 100
