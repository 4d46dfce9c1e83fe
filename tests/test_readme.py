"""The README's examples run as written: the Quick start's commands and the library example."""
import re
import shlex
from pathlib import Path

from fingerloc import cli

README = Path(__file__).resolve().parent.parent / "README.md"


def test_quick_start_runs_and_replays_bit_for_bit(tmp_path, monkeypatch):
    section = README.read_text().split("## Quick start", 1)[1]
    script = re.search(r"```sh\n(.*?)```", section, re.S).group(1).replace("\\\n", " ")
    commands = [shlex.split(line) for line in script.splitlines() if line.startswith("fingerloc ")]
    assert [argv[1] for argv in commands] == ["synth", "train", "rerun"]
    monkeypatch.chdir(tmp_path)
    for argv in commands:
        assert cli.main(argv[1:]) == 0, argv
    for name in ("model.bin", "metrics.json", "cdf.csv"):
        assert (tmp_path / "run1-copy" / name).read_bytes() == (tmp_path / "run1" / name).read_bytes()


def test_library_example_runs(tmp_path, monkeypatch):
    section = README.read_text().split("## Library use", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    assert cli.main(["synth", "--locations", "40", "--samples-per-location", "4",
                     "--unlabelled-count", "50", "--seed", "1", "--out-dir", str(tmp_path)]) == 0
    monkeypatch.chdir(tmp_path)
    namespace = {}
    exec(compile(code, str(README), "exec"), namespace)
    assert len(namespace["history"]) == 100
