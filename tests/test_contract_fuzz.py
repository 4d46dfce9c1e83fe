"""The CLI contract under structurally mutated input files.

A small ``synth`` corpus is written once. Each example mutates one of its three files (``labelled.csv``,
``unlabelled.csv`` or ``layout.json``) once or twice and runs one command on it through ``cli.main``, in
process. Whatever the input, the run exits 0, 2, 3 or 4, prints no traceback and no warning, and an exit 3
caused by a mutated CSV names that table: ``labelled CSV``, ``unlabelled CSV`` or the file's path.
"""
import contextlib
import io
import json
import shutil
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fingerloc import cli

FILES = ("labelled.csv", "unlabelled.csv", "layout.json")
# a field's replacement: bad numbers, non-ASCII digits, labels off the codec, an empty field, and two that a
# reader takes (a lower-case label, a negative zero)
FIELDS = ("", "x", "nan", "inf", "-inf", "1e400", "-250", "5", "٣", "-٧٠", "Z01", "A25", "A²",
          "a1", "-0")
READINGS = ("nan", "inf", "1e400", "٣", "-٧٠")  # a reading that is no number in [-200, 0], or no ASCII one
CSV_MUTATIONS = ("replace", "drop", "duplicate", "shuffle", "truncate", "blank", "quote", "trailing", "not-utf8",
                 "reading")
LAYOUT_MUTATIONS = ("type", "coordinate", "cell_feet", "grid", "drop-beacon", "extra-key")
COMMANDS = (["augment", "--strategy", "naive"], ["augment", "--strategy", "hybrid"], ["train", "--epochs", "1"],
            ["tune", "--epochs", "1"])
INPUTS = {"augment": ("labelled", "unlabelled", "layout"), "train": ("labelled", "unlabelled", "layout"),
          "tune": ("labelled", "layout")}


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    root = tmp_path_factory.mktemp("corpus")
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(["synth", "--locations", "20", "--samples-per-location", "3", "--unlabelled-count", "30",
                         "--seed", "0", "--out-dir", str(root)]) == 0
    return root


@st.composite
def csv_mutation(draw, lines: list[str], labelled: bool) -> list[str] | bytes:
    """``lines`` with one structural mutation, or the file's bytes when the mutation is one that is not UTF-8."""
    k = draw(st.integers(0, len(lines) - 1))
    fields = lines[k].split(",")
    j = draw(st.integers(0, len(fields) - 1))
    kind = draw(st.sampled_from(CSV_MUTATIONS + (("label",) if labelled else ())))
    if kind == "replace":
        fields[j] = draw(st.sampled_from(FIELDS))
    elif kind == "drop":
        del fields[j]
    elif kind == "duplicate":
        fields.insert(j, fields[j])
    elif kind == "shuffle":
        fields = draw(st.permutations(fields))
    elif kind == "truncate":
        lines[k] = lines[k][:draw(st.integers(0, len(lines[k])))]
        return lines
    elif kind == "blank":
        return lines[:k] + [""] + lines[k:]
    elif kind == "quote":
        fields[j] = '"' + fields[j]
    elif kind == "trailing":
        fields.append(draw(st.sampled_from(["-70", ""])))
    elif kind == "not-utf8":
        text = "\n".join(lines).encode()
        cut = draw(st.integers(0, len(text)))
        return text[:cut] + draw(st.sampled_from([b"\xe9", b"\xff\xfe", b"\xc3"])) + text[cut:]
    elif kind in ("reading", "label"):  # on a data row: a reading past the lead columns, or the location
        k = draw(st.integers(1, len(lines) - 2))  # the last line is the empty text after the final newline
        fields = lines[k].split(",")
        lead = 2 if labelled else 1
        if kind == "label":
            fields[0] = draw(st.sampled_from(["Z01", "A25", "A²", ""]))
        elif len(fields) > lead:  # an earlier mutation may have cut the row short
            fields[draw(st.integers(lead, len(fields) - 1))] = draw(st.sampled_from(READINGS))
    lines[k] = ",".join(fields)
    return lines


@st.composite
def layout_mutation(draw, doc: dict) -> dict:
    beacons = doc["beacons"]
    b = draw(st.integers(0, len(beacons) - 1))
    kind = draw(st.sampled_from(LAYOUT_MUTATIONS))
    if kind == "type":
        key = draw(st.sampled_from(["id", "x", "y"]))
        beacons[b][key] = draw(st.sampled_from(["3", True, None, [], {}, 7]))
    elif kind == "coordinate":
        beacons[b][draw(st.sampled_from(["x", "y"]))] = draw(st.sampled_from([float("nan"), 1e308, -1.0, 25]))
    elif kind == "cell_feet":
        doc["cell_feet"] = draw(st.sampled_from([0, -1, 1e308, float("inf"), "10"]))
    elif kind == "grid":
        doc["grid"] = draw(st.sampled_from([[10, 10], [25], "25x25", [25, 25, 25], None]))
    elif kind == "drop-beacon":
        del beacons[b]
    else:
        target = draw(st.sampled_from([doc, beacons[b]]))
        target["z"] = 1
    return doc


def _mutate(draw, name: str, original: str, times: int) -> bytes:
    if name == "layout.json":
        doc = json.loads(original)
        for _ in range(times):
            doc = draw(layout_mutation(doc))
        return json.dumps(doc).encode()
    content: list[str] | bytes = original.split("\n")
    for _ in range(times):
        if isinstance(content, bytes):
            break
        content = draw(csv_mutation(content, name == "labelled.csv"))
    return content if isinstance(content, bytes) else "\n".join(content).encode()


@settings(derandomize=True, max_examples=200, deadline=None)
@given(st.data())
def test_mutated_inputs_keep_the_cli_contract(corpus, data):
    name = data.draw(st.sampled_from(FILES))
    command = data.draw(st.sampled_from(COMMANDS))
    content = _mutate(data.draw, name, (corpus / name).read_text(encoding="utf-8"), data.draw(st.integers(1, 2)))
    with tempfile.TemporaryDirectory() as scratch:
        scratch = Path(scratch)
        for file in FILES:
            shutil.copy(corpus / file, scratch / file)
        (scratch / name).write_bytes(content)
        argv = [*command, "--out-dir", str(scratch / "out")]
        for option in INPUTS[command[0]]:
            argv += [f"--{option}", str(scratch / f"{option}.{'json' if option == 'layout' else 'csv'}")]
        if command[0] == "tune":
            (scratch / "spec.json").write_text('{"max_trials": 2}')
            argv += ["--spec", str(scratch / "spec.json")]
        stderr = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(stderr):
            status = cli.main(argv)
        message = stderr.getvalue()
        assert status in (0, cli.EXIT_CONFIG, cli.EXIT_DATA, cli.EXIT_NUMERICAL), message
        assert "Traceback" not in message and "Warning" not in message, message
        if status == cli.EXIT_DATA and name.endswith(".csv") and name[:-4] in INPUTS[command[0]]:
            table = f"data error: {name[:-4]} CSV, "
            assert message.startswith(table) or str(scratch / name) in message, message
