import argparse
import builtins
import collections
import csv
import io
import json
import os
import shutil
import subprocess
import sys
import tempfile
import textwrap
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, strategies as st

from fingerloc import cli, data, hpo


def run(argv):
    return cli.main(argv)


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    """Small synthetic corpus written through the synth command."""
    out = tmp_path_factory.mktemp("corpus")
    code = run(["synth", "--out-dir", str(out), "--locations", "40",
                "--samples-per-location", "4", "--unlabelled-count", "120", "--seed", "3"])
    assert code == 0
    return out


def common_args(corpus):
    return ["--labelled", str(corpus / "labelled.csv"),
            "--unlabelled", str(corpus / "unlabelled.csv"),
            "--layout", str(corpus / "layout.json")]


class TestSynth:
    def test_row_counts(self, corpus):
        with open(corpus / "labelled.csv") as f:
            assert sum(1 for _ in f) == 1 + 40 * 4
        with open(corpus / "unlabelled.csv") as f:
            assert sum(1 for _ in f) == 1 + 120

    def test_same_seed_identical_files(self, corpus, tmp_path):
        assert run(["synth", "--out-dir", str(tmp_path), "--locations", "40",
                    "--samples-per-location", "4", "--unlabelled-count", "120",
                    "--seed", "3"]) == 0
        for name in ("labelled.csv", "unlabelled.csv", "layout.json"):
            assert (tmp_path / name).read_bytes() == (corpus / name).read_bytes()

    def test_zero_unlabelled_header_only(self, tmp_path):
        assert run(["synth", "--out-dir", str(tmp_path), "--locations", "2",
                    "--samples-per-location", "1", "--seed", "0"]) == 0
        lines = (tmp_path / "unlabelled.csv").read_text().strip().splitlines()
        assert len(lines) == 1

    def test_manifest_lists_artifacts(self, corpus):
        manifest = json.loads((corpus / "manifest.json").read_text())
        names = {Path(p).name for p in manifest["artifacts"]}
        assert names == {"labelled.csv", "unlabelled.csv", "layout.json"}


@pytest.fixture(scope="module")
def trained(corpus, tmp_path_factory):
    out = tmp_path_factory.mktemp("train")
    code = run(["train", *common_args(corpus), "--out-dir", str(out),
                "--epochs", "5", "--seed", "7"])
    assert code == 0
    return out


class TestTrain:

    def test_metrics_both_units(self, trained):
        metrics = json.loads((trained / "metrics.json").read_text())
        assert metrics["mean_error_feet"] == pytest.approx(metrics["mean_error_grid"] * 10.0)
        assert len(metrics["epoch_losses"]) == 5

    def test_model_reloads(self, trained):
        from fingerloc import nn
        net = nn.load_network((trained / "model.bin").read_bytes())
        assert net.forward(np.zeros((1, 13))).shape == (1, 2)

    def test_cdf_contract(self, trained):
        with open(trained / "cdf.csv") as f:
            rows = list(csv.DictReader(f))
        errors = [float(r["error_ft"]) for r in rows]
        fractions = [float(r["fraction"]) for r in rows]
        assert errors == sorted(errors)
        assert all(b >= a for a, b in zip(fractions, fractions[1:]))
        assert fractions[-1] == 1.0

    def test_seed_repeatability(self, corpus, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            assert run(["train", *common_args(corpus), "--out-dir", str(out),
                        "--epochs", "3", "--seed", "11"]) == 0
        assert (a / "metrics.json").read_bytes() == (b / "metrics.json").read_bytes()

    def test_blank_lines_change_nothing(self, corpus, tmp_path):
        lines = (corpus / "labelled.csv").read_text().splitlines(keepends=True)
        (tmp_path / "blank.csv").write_text("\n".join([*lines, ""]))  # a blank line after every line
        for name, labelled in (("plain", corpus / "labelled.csv"), ("blank", tmp_path / "blank.csv")):
            assert run(["train", "--labelled", str(labelled), "--layout", str(corpus / "layout.json"),
                        "--out-dir", str(tmp_path / name), "--epochs", "2"]) == 0
        for name in ("model.bin", "metrics.json", "cdf.csv"):
            assert (tmp_path / "plain" / name).read_bytes() == (tmp_path / "blank" / name).read_bytes()

    def test_missing_layout_exits_with_data_error(self, corpus, tmp_path):
        code = run(["train", "--labelled", str(corpus / "labelled.csv"),
                    "--layout", str(tmp_path / "nope.json"),
                    "--out-dir", str(tmp_path), "--epochs", "1"])
        assert code == cli.EXIT_DATA

    def test_augmented_training(self, corpus, tmp_path):
        code = run(["train", *common_args(corpus), "--out-dir", str(tmp_path),
                    "--epochs", "2", "--strategy", "hybrid", "--seed", "0"])
        assert code == 0
        metrics = json.loads((tmp_path / "metrics.json").read_text())
        assert metrics["strategy"] == "hybrid"

    @pytest.mark.parametrize("x, code, message", [(24.6, 0, ""), (9.4, cli.EXIT_DATA, "beacons b3002 and b3004")],
                             ids=["edge", "collision"])
    def test_cnn_takes_every_layout_but_a_pixel_collision(self, corpus, tmp_path, capsys, x, code, message):
        # b3004 sits at (21, 3) in the corpus layout; b3002 at (9, 3)
        doc = json.loads((corpus / "layout.json").read_text())
        doc["beacons"][3]["x"] = x
        (tmp_path / "layout.json").write_text(json.dumps(doc))
        assert run(["train", "--model", "cnn", "--labelled", str(corpus / "labelled.csv"),
                    "--layout", str(tmp_path / "layout.json"), "--out-dir", str(tmp_path / "out"),
                    "--epochs", "1"]) == code
        assert (tmp_path / "out" / "model.bin").exists() == (code == 0)
        assert message in capsys.readouterr().err

    def test_paper_protocol_flag(self, corpus, tmp_path):
        first = tmp_path / "first"
        code = run(["train", *common_args(corpus), "--out-dir", str(first),
                    "--epochs", "2", "--strategy", "naive", "--paper-protocol",
                    "--seed", "0"])
        assert code == 0
        # the switch is replayed from the manifest's recorded true value
        assert run(["rerun", str(first / "manifest.json"), "--out-dir", str(tmp_path / "second")]) == 0
        for name in ("model.bin", "metrics.json"):
            assert (first / name).read_bytes() == (tmp_path / "second" / name).read_bytes()


class TestTune:
    def test_trial_table_and_best_config_round_trip(self, corpus, tmp_path):
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({
            "algorithm": "random", "max_trials": 3, "goal": 0.0001,
            "space": [{"name": "learning_rate", "min": 0.001, "max": 0.002}],
            "seed": 1,
        }))
        out = tmp_path / "out"
        code = run(["tune", "--labelled", str(corpus / "labelled.csv"),
                    "--layout", str(corpus / "layout.json"), "--spec", str(spec),
                    "--out-dir", str(out), "--epochs", "2"])
        assert code == 0
        with open(out / "trials.csv") as f:
            rows = list(csv.DictReader(f))
        assert 1 <= len(rows) <= 3
        assert all(r["status"] in ("ok", "diverged") for r in rows)
        # best config feeds straight back into train
        best = json.loads((out / "best_config.json").read_text())
        cfg_path = tmp_path / "best.json"
        cfg_path.write_text(json.dumps({"train": best["train"]}))
        out2 = tmp_path / "retrain"
        assert run(["train", *common_args(corpus), "--config", str(cfg_path),
                    "--out-dir", str(out2), "--epochs", "2"]) == 0

    def test_best_config_passes_back_as_written(self, corpus, tmp_path):
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({"algorithm": "random", "max_trials": 1}))
        assert run(["tune", "--labelled", str(corpus / "labelled.csv"), "--layout",
                    str(corpus / "layout.json"), "--spec", str(spec),
                    "--out-dir", str(tmp_path / "tune"), "--epochs", "1"]) == 0
        best = tmp_path / "tune" / "best_config.json"
        train_only = tmp_path / "train_only.json"
        train_only.write_text(json.dumps({"train": json.loads(best.read_text())["train"]}))
        for name, config in (("as_written", best), ("train_only", train_only)):
            assert run(["train", *common_args(corpus), "--config", str(config),
                        "--out-dir", str(tmp_path / name)]) == 0
        assert ((tmp_path / "as_written" / "model.bin").read_bytes()
                == (tmp_path / "train_only" / "model.bin").read_bytes())

    def test_sgd_best_config_passes_back(self, corpus, tmp_path):
        # best_config.json records adam's beta1 and beta2 at their defaults, which an sgd config accepts
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({"algorithm": "random", "max_trials": 1}))
        assert run(["tune", "--labelled", str(corpus / "labelled.csv"), "--layout", str(corpus / "layout.json"),
                    "--spec", str(spec), "--optimizer", "sgd", "--out-dir", str(tmp_path / "tune"),
                    "--epochs", "1"]) == 0
        assert run(["train", *common_args(corpus), "--config", str(tmp_path / "tune" / "best_config.json"),
                    "--out-dir", str(tmp_path / "train"), "--epochs", "1"]) == 0

    def test_goal_met_first_trial(self, corpus, tmp_path):
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({
            "algorithm": "random", "max_trials": 15, "goal": 10000.0,
            "space": [{"name": "learning_rate", "min": 0.001, "max": 0.002}],
        }))
        out = tmp_path / "out"
        assert run(["tune", "--labelled", str(corpus / "labelled.csv"),
                    "--layout", str(corpus / "layout.json"), "--spec", str(spec),
                    "--out-dir", str(out), "--epochs", "1"]) == 0
        with open(out / "trials.csv") as f:
            assert len(list(csv.DictReader(f))) == 1

    def test_bad_spec_is_config_error(self, corpus, tmp_path):
        spec = tmp_path / "spec.json"
        spec.write_text("{not json")
        assert run(["tune", "--labelled", str(corpus / "labelled.csv"),
                    "--layout", str(corpus / "layout.json"), "--spec", str(spec),
                    "--out-dir", str(tmp_path)]) == cli.EXIT_CONFIG

    @pytest.mark.parametrize("spec, bad", [
        ({"algorithm": "foo"}, "foo"),
        ({"space": [{"name": "epochs", "min": 1, "max": 5}]}, "epochs"),
    ], ids=["unknown-algorithm", "untunable-name"])
    def test_spec_value_that_cannot_run_is_config_error(self, corpus, tmp_path, capsys, spec, bad):
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(spec))
        assert run(["tune", "--labelled", str(corpus / "labelled.csv"),
                    "--layout", str(corpus / "layout.json"), "--spec", str(path),
                    "--out-dir", str(tmp_path), "--epochs", "1"]) == cli.EXIT_CONFIG
        assert bad in capsys.readouterr().err


@pytest.fixture(scope="module")
def augmented(corpus, tmp_path_factory):
    out = tmp_path_factory.mktemp("augment")
    assert run(["augment", *common_args(corpus), "--strategy", "hybrid",
                "--out-dir", str(out), "--seed", "2"]) == 0
    return out


class TestAugmentCommand:
    def test_counts_and_row_order(self, corpus, augmented):
        counts = json.loads((augmented / "counts.json").read_text())
        assert counts["total"] == counts["original"] + counts["naive"] + counts["kept"]
        with open(augmented / "augmented.csv", newline="") as f:
            rows = list(csv.DictReader(f))
        assert len(rows) == counts["total"]
        # the originals as read, then the naive rows, then the autoencoder rows
        assert (augmented / "augmented.csv").read_text().startswith((corpus / "labelled.csv").read_text())
        n, k = counts["original"], counts["naive"]
        assert all(r["date"].startswith("naive-") for r in rows[n:n + k])
        assert all(r["date"].startswith("autoenc-") for r in rows[n + k:])

    @pytest.mark.parametrize("command", [["train"], ["rationalize", "--n-seeds", "1"]], ids=" ".join)
    def test_output_is_a_labelled_csv(self, corpus, augmented, tmp_path, command):
        assert run([*command, "--labelled", str(augmented / "augmented.csv"),
                    "--layout", str(corpus / "layout.json"), "--out-dir", str(tmp_path),
                    "--epochs", "1"]) == 0

    def test_strategy_none_copies_originals(self, corpus, tmp_path):
        assert run(["augment", *common_args(corpus), "--strategy", "none",
                    "--out-dir", str(tmp_path)]) == 0
        assert (tmp_path / "augmented.csv").read_bytes() == (corpus / "labelled.csv").read_bytes()


class TestRationalizeCommand:
    def test_study_outputs(self, corpus, tmp_path):
        code = run(["rationalize", "--labelled", str(corpus / "labelled.csv"),
                    "--layout", str(corpus / "layout.json"), "--out-dir", str(tmp_path),
                    "--epochs", "2", "--n-seeds", "1", "--seed", "0"])
        assert code == 0
        with open(tmp_path / "study.csv") as f:
            rows = list(csv.DictReader(f))
        assert len(rows) == 13
        summary = json.loads((tmp_path / "summary.json").read_text())
        assert summary["baseline_mean_error_ft"] > 0
        assert len(summary["beacons"]) == 13

    @pytest.mark.parametrize("flag, seed", [([], 7), (["--seed", "2"], 2)], ids=["config", "flag"])
    def test_seeds_start_at_the_config_seed_unless_a_flag_sets_one(self, corpus, tmp_path, flag, seed):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"train": {"seed": 7}}))
        assert run(["rationalize", "--labelled", str(corpus / "labelled.csv"),
                    "--layout", str(corpus / "layout.json"), "--config", str(config),
                    "--epochs", "1", "--n-seeds", "2", *flag, "--out-dir", str(tmp_path / "out")]) == 0
        assert json.loads((tmp_path / "out" / "summary.json").read_text())["seeds"] == [seed, seed + 1]
        assert json.loads((tmp_path / "out" / "manifest.json").read_text())["seed"] == seed

    def test_empty_dataset_errors(self, corpus, tmp_path):
        empty = tmp_path / "empty.csv"
        layout = data.load_layout((corpus / "layout.json").read_text())
        empty.write_text("location,date," + ",".join(layout.ids) + "\n")
        code = run(["rationalize", "--labelled", str(empty),
                    "--layout", str(corpus / "layout.json"),
                    "--out-dir", str(tmp_path)])
        assert code == cli.EXIT_DATA


@pytest.mark.parametrize("command", [["train"], ["tune"], ["rationalize", "--n-seeds", "1"]], ids=" ".join)
def test_labelled_file_too_small_to_split_is_data_error(corpus, tmp_path, capsys, command):
    one = tmp_path / "one.csv"
    one.write_text("".join((corpus / "labelled.csv").read_text().splitlines(keepends=True)[:2]))
    assert run([*command, "--labelled", str(one), "--layout", str(corpus / "layout.json"),
                "--out-dir", str(tmp_path / "out"), "--epochs", "1"]) == cli.EXIT_DATA
    assert "too few to split" in capsys.readouterr().err


def edit_one_rssi(path):
    lines = path.read_text().splitlines(keepends=True)
    fields = lines[1].split(",")
    fields[2] = repr(float(fields[2]) - 1.0)  # synthetic readings lie well inside [-200, 0]
    lines[1] = ",".join(fields)
    path.write_text("".join(lines))


def reformat_json(path):
    """Same content, other bytes."""
    path.write_text(json.dumps(json.loads(path.read_text()), indent=4))


def train_on_copies(corpus, tmp_path):
    """Train on copies of the corpus inputs plus a config file under tmp_path/c."""
    (tmp_path / "c").mkdir()
    for name in ("labelled.csv", "layout.json"):
        shutil.copy(corpus / name, tmp_path / "c" / name)
    (tmp_path / "c" / "config.json").write_text(json.dumps({"train": {"epochs": 2}}))
    first = tmp_path / "first"
    assert run(["train", "--labelled", str(tmp_path / "c" / "labelled.csv"),
                "--layout", str(tmp_path / "c" / "layout.json"),
                "--config", str(tmp_path / "c" / "config.json"),
                "--out-dir", str(first), "--seed", "5"]) == 0
    return first


class TestRerun:
    def test_bitwise_reproduction(self, corpus, tmp_path):
        first = tmp_path / "first"
        assert run(["train", *common_args(corpus), "--out-dir", str(first),
                    "--epochs", "3", "--seed", "5"]) == 0
        second = tmp_path / "second"
        assert run(["rerun", str(first / "manifest.json"),
                    "--out-dir", str(second)]) == 0
        for name in ("model.bin", "metrics.json", "cdf.csv"):
            assert (first / name).read_bytes() == (second / name).read_bytes()

    def test_bad_manifest_is_config_error(self, tmp_path, capsys):
        bad = tmp_path / "m.json"
        bad.write_text("{}")
        assert run(["rerun", str(bad)]) == cli.EXIT_CONFIG
        bad.write_bytes(NESTED_PAST_THE_LIMIT)
        assert run(["rerun", str(bad)]) == cli.EXIT_CONFIG
        assert "Traceback" not in capsys.readouterr().err

    def test_manifest_naming_an_unknown_command_is_config_error(self, trained, tmp_path, capsys):
        manifest = json.loads((trained / "manifest.json").read_text())
        manifest["command"] = "serve"
        path = tmp_path / "manifest.json"
        path.write_text(json.dumps(manifest))
        assert run(["rerun", str(path), "--out-dir", str(tmp_path / "out")]) == cli.EXIT_CONFIG
        assert "serve" in capsys.readouterr().err

    @pytest.mark.parametrize("name, change", [
        ("labelled.csv", edit_one_rssi),
        ("layout.json", reformat_json),
        ("config.json", reformat_json),
        ("config.json", Path.unlink),
    ], ids=["rssi-edited", "layout-reformatted", "config-reformatted", "config-deleted"])
    def test_refuses_changed_or_missing_input(self, corpus, tmp_path, capsys, name, change):
        first = train_on_copies(corpus, tmp_path)
        path = tmp_path / "c" / name
        change(path)
        second = tmp_path / "second"
        assert run(["rerun", str(first / "manifest.json"),
                    "--out-dir", str(second)]) == cli.EXIT_DATA
        assert str(path) in capsys.readouterr().err
        assert not (second / "model.bin").exists()

    def test_reproduces_from_another_directory(self, corpus, tmp_path, monkeypatch):
        (tmp_path / "c").mkdir()
        for name in ("labelled.csv", "layout.json"):
            shutil.copy(corpus / name, tmp_path / "c" / name)
        monkeypatch.chdir(tmp_path)
        assert run(["train", "--labelled", "c/labelled.csv", "--layout", "c/layout.json",
                    "--out-dir", "first", "--epochs", "3", "--seed", "5"]) == 0
        manifest = json.loads((tmp_path / "first" / "manifest.json").read_text())
        assert all(Path(p).is_absolute() for p in manifest["inputs"])
        (tmp_path / "elsewhere").mkdir()
        monkeypatch.chdir(tmp_path / "elsewhere")
        assert run(["rerun", str(tmp_path / "first" / "manifest.json"),
                    "--out-dir", "second"]) == 0
        for name in ("model.bin", "metrics.json", "cdf.csv"):
            assert ((tmp_path / "first" / name).read_bytes()
                    == (tmp_path / "elsewhere" / "second" / name).read_bytes())

    def test_manifest_lacking_a_registered_option_is_config_error(self, trained, tmp_path, capsys):
        manifest = json.loads((trained / "manifest.json").read_text())
        del manifest["args"]["ratio"]
        path = tmp_path / "manifest.json"
        path.write_text(json.dumps(manifest))
        assert run(["rerun", str(path), "--out-dir", str(tmp_path / "out")]) == cli.EXIT_CONFIG
        assert "--ratio" in capsys.readouterr().err

    def test_recorded_option_no_longer_registered_is_ignored(self, corpus, tmp_path):
        # (command, flags, options an older version recorded, artifacts): augment registered --config
        # and --jobs once, and train --jobs
        cases = [("augment", [], {"config": None, "jobs": 1}, ["augmented.csv"]),
                 ("train", ["--epochs", "2"], {"jobs": 1}, ["model.bin", "metrics.json", "cdf.csv"])]
        for command, flags, recorded, artifacts in cases:
            first, second = tmp_path / command / "first", tmp_path / command / "second"
            assert run([command, *common_args(corpus), *flags, "--out-dir", str(first)]) == 0
            manifest = json.loads((first / "manifest.json").read_text())
            manifest["args"].update(recorded)
            path = tmp_path / command / "manifest.json"
            path.write_text(json.dumps(manifest))
            assert run(["rerun", str(path), "--out-dir", str(second)]) == 0
            for name in artifacts:
                assert (first / name).read_bytes() == (second / name).read_bytes(), (command, name)

    def test_replayed_value_is_validated_like_a_fresh_one(self, tmp_path, capsys):
        first = tmp_path / "first"
        assert run(["synth", "--out-dir", str(first), "--locations", "2",
                    "--samples-per-location", "1"]) == 0
        manifest = json.loads((first / "manifest.json").read_text())
        manifest["args"]["locations"] = 0
        path = tmp_path / "manifest.json"
        path.write_text(json.dumps(manifest))
        assert run(["rerun", str(path), "--out-dir", str(tmp_path / "second")]) == cli.EXIT_CONFIG
        err = capsys.readouterr().err
        assert "--locations" in err and "Traceback" not in err

    @pytest.mark.parametrize("char", ["\u0000x", "\ud800"], ids=["nul", "surrogate"])
    @pytest.mark.parametrize("option", ["labelled", "config", "out_dir"])
    def test_value_no_command_line_carries_is_config_error(self, corpus, tmp_path, capsys, option, char):
        # no argv holds a NUL or a lone surrogate, and the OS takes neither in a path
        first = train_on_copies(corpus, tmp_path)
        manifest = json.loads((first / "manifest.json").read_text())
        manifest["args"][option] += char
        path = tmp_path / "manifest.json"
        path.write_text(json.dumps(manifest))
        assert run(["rerun", str(path)]) == cli.EXIT_CONFIG  # no --out-dir: the replay takes the recorded one
        err = capsys.readouterr().err
        assert "records a value the command rejects" in err and "Traceback" not in err

    def test_path_with_an_undecodable_byte_replays(self, corpus, tmp_path):
        # argv carries the byte 0xff as the surrogate escape \udcff
        root = tmp_path / "o\udcff"
        root.mkdir()
        shutil.copy(corpus / "labelled.csv", root / "labelled.csv")
        assert run(["train", "--labelled", str(root / "labelled.csv"), "--epochs", "2",
                    "--out-dir", str(root / "run")]) == 0
        artifacts = {name: (root / "run" / name).read_bytes() for name in ("model.bin", "metrics.json", "cdf.csv")}
        for name in artifacts:
            (root / "run" / name).unlink()
        assert run(["rerun", str(root / "run" / "manifest.json")]) == 0  # into the recorded --out-dir
        for name, content in artifacts.items():
            assert (root / "run" / name).read_bytes() == content


class TestInputResolution:
    def test_data_dir_fallback_is_recorded_as_absolute_input(self, corpus, tmp_path, monkeypatch):
        monkeypatch.setenv("FINGERLOC_DATA_DIR", str(corpus))
        assert run(["augment", "--out-dir", str(tmp_path)]) == 0
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        expected = {str((corpus / n).resolve())
                    for n in ("labelled.csv", "unlabelled.csv", "layout.json")}
        assert set(manifest["inputs"]) == expected
        assert manifest["args"]["labelled"] == str((corpus / "labelled.csv").resolve())

    @pytest.mark.parametrize("command, flags, artifacts", [
        ("augment", [], ("augmented.csv", "counts.json")),
        ("train", ["--epochs", "2"], ("model.bin", "metrics.json", "cdf.csv")),
    ], ids=["augment", "train"])
    def test_replay_takes_no_fallback_the_run_did_not(self, corpus, tmp_path, monkeypatch, command, flags,
                                                      artifacts):
        """An unlabelled.csv that appears under FINGERLOC_DATA_DIR after the run is not read by its replay."""
        (tmp_path / "dd").mkdir()
        for name in ("labelled.csv", "layout.json"):
            shutil.copy(corpus / name, tmp_path / "dd" / name)
        first = tmp_path / "first"
        assert run([command, "--labelled", str(tmp_path / "dd" / "labelled.csv"),
                    "--layout", str(tmp_path / "dd" / "layout.json"), *flags, "--out-dir", str(first)]) == 0
        shutil.copy(corpus / "unlabelled.csv", tmp_path / "dd" / "unlabelled.csv")
        monkeypatch.setenv("FINGERLOC_DATA_DIR", str(tmp_path / "dd"))
        second = tmp_path / "second"
        assert run(["rerun", str(first / "manifest.json"), "--out-dir", str(second)]) == 0
        for name in artifacts:
            assert (first / name).read_bytes() == (second / name).read_bytes()
        assert json.loads((second / "manifest.json").read_text())["inputs"].keys() == {
            str((tmp_path / "dd" / name).resolve()) for name in ("labelled.csv", "layout.json")}

    def test_labelled_given_nowhere_is_config_error(self, tmp_path, monkeypatch, capsys):
        monkeypatch.delenv("FINGERLOC_DATA_DIR", raising=False)
        assert run(["train", "--out-dir", str(tmp_path), "--epochs", "1"]) == cli.EXIT_CONFIG
        assert "--labelled" in capsys.readouterr().err

    def test_unknown_train_config_key_is_config_error(self, corpus, tmp_path, capsys):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"train": {"epoch": 2}}))
        assert run(["train", *common_args(corpus), "--config", str(config),
                    "--out-dir", str(tmp_path)]) == cli.EXIT_CONFIG
        assert "epoch" in capsys.readouterr().err


# the options each subcommand registers; each is read by that command, except rationalize --jobs
OPTIONS = {
    "train": {"--labelled", "--unlabelled", "--layout", "--config", "--seed", "--out-dir", "--model",
              "--optimizer", "--epochs", "--batch-size", "--learning-rate", "--strategy", "--threshold",
              "--ratio", "--paper-protocol"},
    "tune": {"--labelled", "--layout", "--seed", "--out-dir", "--spec", "--model",
             "--optimizer", "--epochs"},
    "augment": {"--labelled", "--unlabelled", "--layout", "--seed", "--out-dir",
                "--strategy", "--threshold"},
    "rationalize": {"--labelled", "--layout", "--config", "--seed", "--jobs", "--out-dir",
                    "--model", "--epochs", "--n-seeds"},
    "synth": {"--layout", "--seed", "--out-dir", "--locations", "--samples-per-location",
              "--unlabelled-count", "--noise-std"},
    "rerun": {"--out-dir"},
}


def test_option_surface():
    parser = cli.build_parser()
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    registered = {name: {s for a in p._actions for s in a.option_strings} - {"-h", "--help"}
                  for name, p in sub.choices.items()}
    assert registered == OPTIONS
    assert sum(len(flags) for flags in registered.values()) == 47


INVALID_FLAGS = [
    ["synth", "--locations", "0"],
    ["synth", "--samples-per-location", "0"],
    ["synth", "--locations", "626"],
    ["synth", "--noise-std", "-1"],
    ["synth", "--unlabelled-count", "-1"],
    ["train", "--ratio", "0"],
    ["train", "--ratio", "1.0"],
    ["train", "--ratio", "1.5"],
    ["train", "--ratio", "0.001"],
    ["train", "--strategy", "naive", "--threshold", "0"],
    ["train", "--learning-rate", "-1"],
    ["train", "--epochs", "0"],
    ["train", "--batch-size", "0"],
    ["augment", "--threshold", "0"],
    ["rationalize", "--n-seeds", "0"],
    ["synth", "--locations", "1" + "0" * 400],  # past the float range: compared, not converted
    # numpy refuses these arrays (about 14 PiB and more) at once, so nothing is allocated
    ["synth", "--unlabelled-count", "1000000000000000"],
    ["synth", "--samples-per-location", "1000000000000000"],
    *([command, "--seed", "-1"] for command in ("synth", "train", "tune", "augment", "rationalize")),
]


@pytest.mark.parametrize("argv", INVALID_FLAGS, ids=" ".join)
def test_invalid_flag_value_exits_2_without_traceback(argv, corpus, tmp_path, capsys):
    inputs = [] if argv[0] == "synth" else ["--labelled", str(corpus / "labelled.csv"),
                                            "--layout", str(corpus / "layout.json")]
    try:
        status = run([*argv, *inputs, "--out-dir", str(tmp_path)])
    except SystemExit as e:  # argparse rejects a value with exit status 2
        status = e.code
    assert status == cli.EXIT_CONFIG
    assert "Traceback" not in capsys.readouterr().err


@pytest.mark.parametrize("command, flag, content", [
    ("train", "--config", {"train": {"seed": -1}}),
    ("tune", "--spec", {"seed": -1}),
], ids=["train-config", "tune-spec"])
def test_negative_seed_in_a_file_exits_2_without_traceback(command, flag, content, corpus,
                                                          tmp_path, capsys):
    path = tmp_path / "seed.json"
    path.write_text(json.dumps(content))
    status = run([command, "--labelled", str(corpus / "labelled.csv"), "--layout",
                  str(corpus / "layout.json"), flag, str(path), "--out-dir", str(tmp_path / "out"),
                  "--epochs", "1"])
    assert status == cli.EXIT_CONFIG
    err = capsys.readouterr().err
    assert "seed" in err and "Traceback" not in err


# (command, its file flag, the file's content, a word the error names)
UNRUNNABLE_FILE_VALUES = [
    ("train", "--config", {"train": {"beta1": 1.5}}, "betas"),
    ("train", "--config", {"train": {"optimizer": "sgd", "momentum": 1.0}}, "momentum"),
    ("train", "--config", {"train": {"learning_rate": "abc"}}, "learning_rate"),
    ("train", "--config", {"train": {"learning_rate": -1}}, "learning rate"),
    ("train", "--config", {"train": {"epochs": 2.7}}, "epochs"),
    ("train", "--config", {"train": {"epochs": True}}, "epochs"),
    ("train", "--config", {"train": {"epochs": "3"}}, "epochs"),
    ("tune", "--spec", {"max_trial": 2}, "max_trial"),
    ("tune", "--spec", {"max_trials": 2.5}, "max_trials"),
    ("tune", "--spec", {"seed": True}, "seed"),
    ("tune", "--spec", {"space": [{"name": "beta1", "min": 0.5, "max": 1.5}]}, "betas"),
    ("tune", "--spec", {"space": [{"name": "learning_rate", "min": -1, "max": 0.01}]},
     "learning rate"),
    ("train", "--config", {"trian": {"epochs": 2}}, "trian"),
    ("rationalize", "--config", {"trian": {"epochs": 2}}, "trian"),
    ("tune", "--spec", {"space": [{"name": "learning_rate", "min": "0.001", "max": True}],
                        "max_trials": 2, "algorithm": "random"}, "min"),
    ("tune", "--spec", {"space": [{"name": "learning_rate", "min": 0.001, "max": 0.002,
                                   "log": True}], "max_trials": 2, "algorithm": "random"}, "log"),
    ("tune", "--spec", {"algorithm": "grid", "space": []}, "no parameters"),
    ("tune", "--spec", {"algorithm": "random", "max_trials": 2, "space": []}, "no parameters"),
    ("tune", "--spec", {"algorithm": "random", "max_trials": 2, "space": [1]}, "JSON object"),
    ("train", "--config", [{"train": {"epochs": 2}}], "JSON object"),
    ("train", "--config", {"train": [{"epochs": 2}]}, "train"),
    ("tune", "--spec", {"space": 5}, "space"),
    ("tune", "--spec", {"algorithm": "random", "max_trials": 2,
                        "space": [{"name": "learning_rate", "min": 0.001}]}, "'max'"),
    ("tune", "--spec", {"goal": float("nan")}, "goal"),
    ("tune", "--spec", {"algorithm": "grid", "max_trials": 10 ** 400}, "max_trials"),
    ("tune", "--spec", {"algorithm": "random", "max_trials": 4,
                        "space": [{"name": "momentum", "min": 0.5, "max": 0.95}]}, "momentum"),
    ("tune --optimizer sgd", "--spec", {"algorithm": "random", "max_trials": 4,
                                        "space": [{"name": "beta1", "min": 0.5, "max": 0.95}]}, "beta1"),
    ("train", "--config", {"train": {"optimizer": "adam", "momentum": 0.99}}, "momentum"),
    ("train", "--config", {"train": {"optimizer": "sgd", "beta1": 0.5}}, "beta1"),
    ("train", "--config", {"train": {"loss": "l1"}}, "loss"),
    ("train", "--config", {"train": {"optimizer": "rmsprop"}}, "rmsprop"),
    ("tune", "--spec", {"max_trials": 0}, "max trials"),
    ("tune", "--spec", {"space": [{"name": "learning_rate", "min": 0.001, "max": 0.002},
                                  {"name": "learning_rate", "min": 0.003, "max": 0.004}]}, "duplicate"),
    ("tune", "--spec", {"space": [{"name": "learning_rate", "min": 0.001, "max": 0.001}]}, "lower bound"),
]


@pytest.mark.parametrize("command, flag, content, named", UNRUNNABLE_FILE_VALUES, ids=[
    "train-beta1", "train-momentum", "train-rate-string", "train-negative-rate",
    "train-fractional-epochs", "train-bool-epochs", "train-string-epochs", "tune-unknown-key",
    "tune-fractional-trials", "tune-bool-seed", "tune-beta1-bound", "tune-negative-rate-bound",
    "train-unknown-section", "rationalize-unknown-section", "tune-string-and-bool-bounds",
    "tune-unknown-entry-key", "tune-empty-grid-space", "tune-empty-random-space",
    "tune-entry-not-an-object", "train-config-root-not-an-object", "train-section-not-an-object",
    "tune-space-not-a-list", "tune-entry-without-max", "tune-nan-goal", "tune-grid-trials-past-float-range",
    "tune-adam-momentum", "tune-sgd-beta1", "train-adam-momentum", "train-sgd-beta1", "train-unknown-loss",
    "train-unknown-optimizer", "tune-zero-trials", "tune-duplicate-name", "tune-empty-range"])
def test_file_value_that_cannot_run_exits_2_without_traceback(command, flag, content, named, corpus,
                                                              tmp_path, capsys):
    path = tmp_path / "values.json"
    path.write_text(json.dumps(content))
    status = run([*command.split(), "--labelled", str(corpus / "labelled.csv"), "--layout",
                  str(corpus / "layout.json"), flag, str(path), "--out-dir", str(tmp_path / "out"),
                  "--epochs", "1"])
    assert status == cli.EXIT_CONFIG
    err = capsys.readouterr().err
    assert named in err and "Traceback" not in err


def test_integer_and_null_stand_for_a_float_rate(corpus, tmp_path):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"train": {"beta1": 0, "learning_rate": None}}))
    assert run(["train", *common_args(corpus), "--config", str(path),
                "--out-dir", str(tmp_path / "out"), "--epochs", "1"]) == 0


BEACONS = b",".join(b"b30%02d" % i for i in range(1, 14))
READINGS = b",".join([b"-70"] * 13)
LAYOUT = (Path(data.__file__).parent / "layouts" / "default_layout.json").read_bytes()  # the corpus's beacons
PAST_THE_CSV_LIMIT = b"A" * 200_000  # the csv module refuses a field past 131072 characters
NESTED_PAST_THE_LIMIT = b"[" * 1000 + b"]" * 1000  # json's decoder recurses once per level

# (input flag, content of the file given to it)
MALFORMED_FILES = [
    ("--layout", b"{not json"),
    ("--layout", b'{"cell_feet": 10}'),
    ("--layout", b'{"beacons": [{"id": "b1", "x": "left", "y": 3}]}'),
    ("--layout", LAYOUT.replace(b'"x": 3,', b'"x": "3.5",', 1)),
    ("--layout", LAYOUT.replace(b'"x": 3,', b'"x": true,', 1)),
    ("--layout", LAYOUT.replace(b'"x": 3,', b'"x": 1' + b"0" * 400 + b",", 1)),
    ("--layout", b"[1, 2]"),
    ("--layout", LAYOUT.replace(b'"grid": [25, 25]', b'"grid": [10, 10]', 1)),
    ("--labelled", b"location,date," + BEACONS + b"\nA01,d\xe9c," + READINGS + b"\n"),
    ("--labelled", b"location,date," + BEACONS + b"\nA\xc2\xb2,d," + READINGS + b"\n"),  # A²
    ("--labelled", b""),
    ("--labelled", b"location,date," + BEACONS + b"\nA01,d,strong," + READINGS[4:] + b"\n"),
    ("--unlabelled", b"date," + BEACONS + b"\nd\xe9c," + READINGS + b"\n"),
    ("--layout", NESTED_PAST_THE_LIMIT),
    ("--labelled", b"location,date," + BEACONS + b"\n" + PAST_THE_CSV_LIMIT + b",d," + READINGS + b"\n"),
    ("--unlabelled", b"date," + BEACONS + b"\n" + PAST_THE_CSV_LIMIT + b"," + READINGS + b"\n"),
    ("--labelled", b"location," + PAST_THE_CSV_LIMIT + b"," + BEACONS + b"\nA01,d," + READINGS + b"\n"),
]


@pytest.mark.parametrize("flag, content", MALFORMED_FILES, ids=[
    "layout-not-json", "layout-without-beacons", "layout-non-numeric-x", "layout-numeric-string-x",
    "layout-bool-x", "layout-x-past-float-range", "layout-list-root", "layout-grid-10",
    "labelled-not-utf8", "labelled-non-ascii-digit", "labelled-empty", "labelled-non-numeric-rssi",
    "unlabelled-not-utf8", "layout-nested-past-the-recursion-limit", "labelled-field-past-the-csv-limit",
    "unlabelled-field-past-the-csv-limit", "labelled-header-field-past-the-csv-limit"])
def test_malformed_input_file_exits_3_without_traceback(flag, content, corpus, tmp_path, capsys):
    bad = tmp_path / "bad"
    bad.write_bytes(content)
    inputs = {"--labelled": corpus / "labelled.csv", "--layout": corpus / "layout.json", flag: bad}
    argv = ["train", *(str(a) for pair in inputs.items() for a in pair),
            "--out-dir", str(tmp_path / "out"), "--epochs", "1"]
    assert run(argv) == cli.EXIT_DATA
    assert "Traceback" not in capsys.readouterr().err


@pytest.mark.parametrize("command, flag, content", [
    ("train", "--config", {"trian": {"epochs": 2}}),
    ("tune", "--spec", {"max_trial": 2}),
    ("rationalize", "--config", {"trian": {"epochs": 2}}),
], ids=["train-config", "tune-spec", "rationalize-config"])
def test_bad_input_file_is_reported_before_a_bad_config(command, flag, content, corpus, tmp_path, capsys):
    """Every command loads its layout and tables before it reads its --config or --spec."""
    (tmp_path / "layout.json").write_bytes(b"{not json")
    (tmp_path / "values.json").write_text(json.dumps(content))
    argv = [command, "--labelled", str(corpus / "labelled.csv"), "--layout", str(tmp_path / "layout.json"),
            flag, str(tmp_path / "values.json"), "--out-dir", str(tmp_path / "out"), "--epochs", "1"]
    assert run(argv) == cli.EXIT_DATA
    err = capsys.readouterr().err
    assert "malformed layout" in err and "Traceback" not in err


# (command, input flag, the file's bytes or None for no file, exit status, a phrase the error names)
UNREADABLE_FILES = [
    ("train", "--config", None, cli.EXIT_CONFIG, "cannot read config"),
    ("rationalize", "--config", None, cli.EXIT_CONFIG, "cannot read config"),
    ("tune", "--spec", None, cli.EXIT_CONFIG, "cannot read config"),
    ("train", "--config", b'{"train": {"optimizer": "s\xe9d"}}', cli.EXIT_CONFIG, "config is not valid JSON"),
    ("tune", "--spec", b'{"algorithm": "r\xe9ndom"}', cli.EXIT_CONFIG, "config is not valid JSON"),
    ("train", "--layout", None, cli.EXIT_DATA, "data error"),
    ("train", "--layout", LAYOUT.replace(b'"b3001"', b'"b30\xe901"'), cli.EXIT_DATA, "data error"),
    ("train", "--labelled", None, cli.EXIT_DATA, "data error"),
    ("train", "--labelled", b"location,date," + BEACONS + b"\nA01,d\xe9c," + READINGS + b"\n",
     cli.EXIT_DATA, "data error"),
    ("train", "--unlabelled", b"date,b30\xe901" + BEACONS[5:] + b"\nd," + READINGS + b"\n",
     cli.EXIT_DATA, "data error"),
    ("train", "--config", NESTED_PAST_THE_LIMIT, cli.EXIT_CONFIG, "config is not valid JSON"),
    ("tune", "--spec", NESTED_PAST_THE_LIMIT, cli.EXIT_CONFIG, "config is not valid JSON"),
]


@pytest.mark.parametrize("command, flag, content, status, named", UNREADABLE_FILES, ids=[
    "train-config-missing", "rationalize-config-missing", "tune-spec-missing", "train-config-not-utf8",
    "tune-spec-not-utf8", "layout-missing", "layout-not-utf8", "labelled-missing", "labelled-not-utf8",
    "unlabelled-header-not-utf8", "train-config-nested-past-the-recursion-limit",
    "tune-spec-nested-past-the-recursion-limit"])
def test_each_kind_of_unreadable_input_keeps_its_exit_status(command, flag, content, status, named, corpus,
                                                             tmp_path, capsys):
    """A --config or --spec that cannot be read or decoded is a configuration error; a data file is a data error."""
    path = tmp_path / "input"
    if content is not None:
        path.write_bytes(content)
    inputs = {"--labelled": corpus / "labelled.csv", "--layout": corpus / "layout.json", flag: path}
    argv = [command, *(str(a) for pair in inputs.items() for a in pair),
            "--out-dir", str(tmp_path / "out"), "--epochs", "1"]
    assert run(argv) == status
    err = capsys.readouterr().err
    assert named in err and "Traceback" not in err


@pytest.mark.parametrize("flag, content, status", [
    ("--labelled", b"location,date," + BEACONS + b"\nA01,d\xe9c," + READINGS + b"\n", cli.EXIT_DATA),
    ("--unlabelled", b"date," + BEACONS + b"\nd\xe9c," + READINGS + b"\n", cli.EXIT_DATA),
    ("--config", b'{"train": {"optimizer": "s\xe9d"}}', cli.EXIT_CONFIG),
], ids=["labelled", "unlabelled", "config"])
def test_a_file_that_is_not_utf8_is_named(flag, content, status, corpus, tmp_path, capsys):
    """Given both CSVs, the error says which of them is not UTF-8."""
    bad = tmp_path / "bad"
    bad.write_bytes(content)
    inputs = {"--labelled": str(corpus / "labelled.csv"), "--unlabelled": str(corpus / "unlabelled.csv"),
              "--layout": str(corpus / "layout.json"), flag: str(bad)}
    argv = ["train", *(a for pair in inputs.items() for a in pair), "--out-dir", str(tmp_path / "out"),
            "--epochs", "1"]
    assert run(argv) == status
    err = capsys.readouterr().err
    assert f"{bad} is not UTF-8" in err and "Traceback" not in err
    assert not any(path in err for name, path in inputs.items() if name != flag)


def test_rerun_refuses_an_input_changed_after_the_run_parsed_it(corpus, tmp_path, monkeypatch, capsys):
    """The manifest records the bytes the run parsed, not the file as it is when the run ends."""
    (tmp_path / "c").mkdir()
    labelled = tmp_path / "c" / "labelled.csv"
    shutil.copy(corpus / "labelled.csv", labelled)
    last_row = labelled.read_text().splitlines(keepends=True)[-1]
    load = data.load_dataset

    def load_then_append_a_row(*args):
        dataset = load(*args)
        with open(labelled, "a") as f:
            f.write(last_row)
        return dataset

    with monkeypatch.context() as m:
        m.setattr(data, "load_dataset", load_then_append_a_row)
        assert run(["train", "--labelled", str(labelled), "--layout", str(corpus / "layout.json"),
                    "--out-dir", str(tmp_path / "first"), "--epochs", "1"]) == 0
    second = tmp_path / "second"
    assert run(["rerun", str(tmp_path / "first" / "manifest.json"), "--out-dir", str(second)]) == cli.EXIT_DATA
    assert str(labelled) in capsys.readouterr().err
    assert not (second / "model.bin").exists()


def test_each_run_opens_each_input_once(corpus, tmp_path, monkeypatch):
    c = tmp_path / "c"
    c.mkdir()
    for name in ("labelled.csv", "layout.json"):
        shutil.copy(corpus / name, c / name)
    (c / "config.json").write_text(json.dumps({"train": {"epochs": 1}}))
    inputs = {str((c / name).resolve()): 1 for name in ("labelled.csv", "layout.json", "config.json")}
    opened = []
    real_open = io.open

    def counting_open(file, *args, **kwargs):
        opened.append(os.fspath(file) if isinstance(file, (str, os.PathLike)) else file)
        return real_open(file, *args, **kwargs)

    monkeypatch.setattr(builtins, "open", counting_open)
    monkeypatch.setattr(io, "open", counting_open)  # Path.read_text and read_bytes open through io.open
    assert run(["train", "--labelled", str(c / "labelled.csv"), "--layout", str(c / "layout.json"),
                "--config", str(c / "config.json"), "--out-dir", str(tmp_path / "first")]) == 0
    assert collections.Counter(p for p in opened if p in inputs) == inputs
    opened.clear()
    assert run(["rerun", str(tmp_path / "first" / "manifest.json"), "--out-dir", str(tmp_path / "second")]) == 0
    assert collections.Counter(p for p in opened if p in inputs) == inputs


@pytest.mark.parametrize("flag", ["--labelled", "--unlabelled"])
@pytest.mark.parametrize("beacons, named", [(lambda ids: ids[::-1], "'b3013'"),
                                            (lambda ids: [f"u{i}" for i in range(13)], "'u0'")],
                         ids=["reversed", "unknown"])
def test_beacon_columns_not_in_layout_order_exit_3(flag, beacons, named, corpus, tmp_path, capsys):
    """A corpus whose beacon columns are renamed would otherwise train on the wrong beacons."""
    name = flag[2:] + ".csv"
    header, body = (corpus / name).read_text().split("\n", 1)
    lead = header.split(",")[:-13]
    (tmp_path / name).write_text(",".join(lead + beacons(header.split(",")[-13:])) + "\n" + body)
    argv = ["train", *common_args(corpus), flag, str(tmp_path / name),  # the later flag wins
            "--out-dir", str(tmp_path / "out"), "--epochs", "1"]
    assert run(argv) == cli.EXIT_DATA
    err = capsys.readouterr().err
    assert named in err and "Traceback" not in err


# (argv after the labelled and layout inputs, a --spec file's content or None, exit status,
# a phrase the error names)
UNFINISHABLE_RUNS = [
    (["train", "--learning-rate", "1e9", "--epochs", "3"], None, cli.EXIT_NUMERICAL, "diverged"),
    (["tune", "--epochs", "3"], {"algorithm": "random", "max_trials": 2,
                                 "space": [{"name": "learning_rate", "min": 1e9, "max": 2e9}]},
     cli.EXIT_NUMERICAL, "numerical error: all trials diverged"),
    (["train", "--strategy", "hybrid", "--epochs", "1"], None, cli.EXIT_DATA, "needs an unlabelled file"),
]


@pytest.mark.parametrize("argv, spec, status, named", UNFINISHABLE_RUNS,
                         ids=["train-diverges", "tune-all-trials-diverge", "hybrid-without-unlabelled"])
def test_run_that_cannot_finish_exits_without_traceback(argv, spec, status, named, corpus, tmp_path,
                                                        capsys):
    if spec is not None:
        (tmp_path / "spec.json").write_text(json.dumps(spec))
        argv = [*argv, "--spec", str(tmp_path / "spec.json")]
    assert run([*argv, "--labelled", str(corpus / "labelled.csv"), "--layout",
                str(corpus / "layout.json"), "--out-dir", str(tmp_path / "out")]) == status
    err = capsys.readouterr().err
    assert named in err and "Traceback" not in err


def test_divergence_is_reported_once_when_warnings_are_errors(corpus, tmp_path, capsys):
    # a learning rate near the float64 maximum overflows inside the optimizer before the loss
    # turns non-finite; only the divergence may surface
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        status = run(["train", "--model", "dnn", "--epochs", "1", "--learning-rate", "1e308",
                      "--labelled", str(corpus / "labelled.csv"), "--layout", str(corpus / "layout.json"),
                      "--out-dir", str(tmp_path / "out")])
    err = capsys.readouterr().err
    assert status == cli.EXIT_NUMERICAL
    assert "diverged" in err and "RuntimeWarning" not in err and "Traceback" not in err


def test_tune_checks_its_space_once(corpus, tmp_path, monkeypatch):
    calls = []
    check = hpo.check_bindable
    monkeypatch.setattr(hpo, "check_bindable", lambda *a: calls.append(a) or check(*a))
    (tmp_path / "spec.json").write_text(json.dumps({"algorithm": "random", "max_trials": 1}))
    assert run(["tune", "--labelled", str(corpus / "labelled.csv"), "--layout", str(corpus / "layout.json"),
                "--spec", str(tmp_path / "spec.json"), "--out-dir", str(tmp_path / "out"),
                "--epochs", "1"]) == 0
    assert len(calls) == 1


@pytest.mark.parametrize("cell_feet", [-10, 0, float("nan"), True, "10"],
                         ids=["negative", "zero", "nan", "bool", "string"])
def test_layout_cell_feet_not_finite_and_positive_exits_3(cell_feet, corpus, tmp_path, capsys):
    layout = tmp_path / "layout.json"
    layout.write_text(json.dumps({**json.loads((corpus / "layout.json").read_text()), "cell_feet": cell_feet}))
    argv = ["train", "--labelled", str(corpus / "labelled.csv"), "--layout", str(layout),
            "--out-dir", str(tmp_path / "out"), "--epochs", "1"]
    assert run(argv) == cli.EXIT_DATA
    err = capsys.readouterr().err
    assert "cell_feet" in err and "Traceback" not in err


def _layout_with_cell_feet(corpus: Path, cell_feet: float, tmp_path: Path) -> Path:
    layout = tmp_path / "layout.json"
    layout.write_text(json.dumps({**json.loads((corpus / "layout.json").read_text()), "cell_feet": cell_feet}))
    return layout


@pytest.mark.parametrize("command, written", [(["train"], "metrics.json"),
                                              (["rationalize", "--n-seeds", "1"], "summary.json")],
                         ids=["train", "rationalize"])
def test_figure_past_the_float_range_exits_4_naming_the_json_file(command, written, corpus, tmp_path, capsys):
    # cell_feet 1e308 is finite, but an error of a few grid units is not, in feet; JSON has no infinity
    layout = _layout_with_cell_feet(corpus, 1e308, tmp_path)
    out = tmp_path / "out"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        status = run([*command, "--labelled", str(corpus / "labelled.csv"), "--layout", str(layout),
                      "--out-dir", str(out), "--epochs", "1"])
    err = capsys.readouterr().err
    assert status == cli.EXIT_NUMERICAL
    assert str(out / written) in err and "Traceback" not in err and "RuntimeWarning" not in err
    assert not list(out.glob("*"))  # neither the refused file, nor one written before it, nor a manifest


def test_per_sample_error_past_the_float_range_exits_4_naming_cdf_csv(tmp_path, capsys):
    # cell_feet 5e307: the mean error in feet is finite, so metrics.json takes it, but 39 of the per-sample
    # errors are not; cdf.csv held them as inf on a run that exited 0
    corpus = tmp_path / "corpus"
    assert run(["synth", "--out-dir", str(corpus), "--locations", "284", "--samples-per-location", "5",
                "--seed", "0"]) == 0
    layout = _layout_with_cell_feet(corpus, 5e307, tmp_path)
    out = tmp_path / "out"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        status = run(["train", "--labelled", str(corpus / "labelled.csv"), "--layout", str(layout),
                      "--out-dir", str(out)])
    err = capsys.readouterr().err
    assert status == cli.EXIT_NUMERICAL
    assert f"cannot write {out / 'cdf.csv'}: a per-sample error is inf ft" in err and "Traceback" not in err
    assert not list(out.glob("*"))  # metrics.json, written before the refusal, is taken back


def test_mean_over_seeds_past_the_float_range_exits_4_without_a_warning(tmp_path, capsys):
    # each seed's error in feet is finite at cell_feet 7e306, their sum is not
    corpus = tmp_path / "corpus"
    assert run(["synth", "--out-dir", str(corpus), "--locations", "30", "--samples-per-location", "3",
                "--seed", "1"]) == 0
    layout = _layout_with_cell_feet(corpus, 7e306, tmp_path)
    out = tmp_path / "out"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        status = run(["rationalize", "--labelled", str(corpus / "labelled.csv"), "--layout", str(layout),
                      "--out-dir", str(out), "--n-seeds", "2", "--epochs", "2"])
    err = capsys.readouterr().err
    assert status == cli.EXIT_NUMERICAL
    assert str(out / "summary.json") in err and "Traceback" not in err and "RuntimeWarning" not in err
    assert not list(out.glob("*"))


# a learning rate that the one step of an epoch on 48 training rows takes to the float limit, which no loss
# check sees: train checks the loss before each step, and evaluate's forward overflows
DIVERGED_FORWARD_RUNS = [(["train", "--learning-rate", "1e200"], None),
                         (["tune"], {"algorithm": "random", "max_trials": 2,
                                     "space": [{"name": "learning_rate", "min": 0, "max": 1e308}]})]


@pytest.mark.parametrize("argv, spec", DIVERGED_FORWARD_RUNS, ids=["train", "tune"])
def test_forward_past_the_float_range_exits_4_without_a_warning(argv, spec, tmp_path, capsys):
    corpus = tmp_path / "corpus"
    assert run(["synth", "--out-dir", str(corpus), "--locations", "20", "--samples-per-location", "3",
                "--seed", "0"]) == 0
    if spec is not None:
        (tmp_path / "spec.json").write_text(json.dumps(spec))
        argv = [*argv, "--spec", str(tmp_path / "spec.json")]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        status = run([*argv, "--epochs", "1", "--labelled", str(corpus / "labelled.csv"),
                      "--layout", str(corpus / "layout.json"), "--out-dir", str(tmp_path / "out")])
    err = capsys.readouterr().err
    assert status == cli.EXIT_NUMERICAL
    assert "Warning" not in err and "Traceback" not in err, err


@pytest.mark.parametrize("beacon_id", [5, " b1", ["b1"]], ids=["number", "padded", "list"])
def test_beacon_id_that_no_header_can_match_exits_3(beacon_id, tmp_path, capsys):
    """A reader strips each header field and compares it, as text, to the layout's ids."""
    layout = tmp_path / "layout.json"
    layout.write_text(json.dumps({"beacons": [{"id": beacon_id, "x": 1, "y": 2}, {"id": "b2", "x": 3, "y": 4}]}))
    assert run(["synth", "--layout", str(layout), "--out-dir", str(tmp_path / "out")]) == cli.EXIT_DATA
    err = capsys.readouterr().err
    assert "beacon id" in err and "Traceback" not in err
    assert not (tmp_path / "out" / "labelled.csv").exists()


@pytest.mark.parametrize("content, named", [
    (LAYOUT.replace(b'"cell_feet"', b'"cell_fet"', 1), "'cell_fet'"),
    (LAYOUT.replace(b'"x": 3,', b'"x": 3, "z": 1,', 1), "'z'"),
], ids=["top-level", "beacon"])
def test_layout_key_it_does_not_know_exits_3_and_is_named(content, named, corpus, tmp_path, capsys):
    """A misspelt key is refused, not dropped: "cell_fet" would train with the 10-ft default."""
    (tmp_path / "layout.json").write_bytes(content)
    argv = ["train", "--labelled", str(corpus / "labelled.csv"), "--layout", str(tmp_path / "layout.json"),
            "--out-dir", str(tmp_path / "out"), "--epochs", "1"]
    assert run(argv) == cli.EXIT_DATA
    err = capsys.readouterr().err
    assert named in err and "Traceback" not in err
    assert not (tmp_path / "out" / "model.bin").exists()


def test_layout_without_beacons_exits_3(tmp_path, capsys):
    layout = tmp_path / "layout.json"
    layout.write_text('{"beacons": []}')
    labelled = tmp_path / "labelled.csv"
    labelled.write_text("location,date\n" + "".join(f"{c}0{i},d\n" for i, c in enumerate("ABCDE", 1)))
    argv = ["train", "--labelled", str(labelled), "--layout", str(layout),
            "--out-dir", str(tmp_path / "out"), "--epochs", "1"]
    assert run(argv) == cli.EXIT_DATA
    assert "no beacons" in capsys.readouterr().err


def _tune_argv(corpus: Path, out: Path, tmp_path: Path) -> list[str]:
    """A Bayesian tune of four trials: the fourth, after the three warm-up trials, is suggested by a fitted GP."""
    spec = tmp_path / "spec.json"
    spec.write_text('{"max_trials": 4}')
    return ["tune", "--labelled", str(corpus / "labelled.csv"), "--layout", str(corpus / "layout.json"),
            "--spec", str(spec), "--out-dir", str(out), "--epochs", "1", "--seed", "2"]


def _subprocess_env() -> dict:
    src = str(Path(cli.__file__).resolve().parents[1])
    return dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))


def test_no_command_loads_scipy(tmp_path):
    # scipy is a test oracle only: importing it costs a process about 25 MB and 0.15 s
    script = textwrap.dedent("""
        import json, sys
        from fingerloc import cli
        out = sys.argv[1]
        assert cli.main(["synth", "--out-dir", out + "/c", "--locations", "10",
                         "--samples-per-location", "2", "--seed", "0"]) == 0
        assert cli.main(["train", "--labelled", out + "/c/labelled.csv", "--layout", out + "/c/layout.json",
                         "--out-dir", out + "/t", "--epochs", "1"]) == 0
        assert cli.main(json.loads(sys.argv[2])) == 0
        print(json.dumps(sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))))
    """)
    tune = _tune_argv(tmp_path / "c", tmp_path / "tune", tmp_path)
    proc = subprocess.run([sys.executable, "-c", script, str(tmp_path), json.dumps(tune)], env=_subprocess_env(),
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout.splitlines()[-1]) == []
    assert len((tmp_path / "tune" / "trials.csv").read_text().splitlines()) == 1 + 4


def test_tune_runs_where_scipy_cannot_be_imported(corpus, tmp_path):
    script = textwrap.dedent("""
        import sys
        sys.modules["scipy"] = None  # every import of scipy, or of a module in it, raises ImportError
        from fingerloc import cli
        sys.exit(cli.main(sys.argv[1:]))
    """)
    argv = _tune_argv(corpus, tmp_path / "without", tmp_path)
    proc = subprocess.run([sys.executable, "-c", script, *argv], env=_subprocess_env(), capture_output=True,
                          text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert run(_tune_argv(corpus, tmp_path / "with", tmp_path)) == 0
    assert (tmp_path / "without" / "trials.csv").read_bytes() == (tmp_path / "with" / "trials.csv").read_bytes()


def test_files_are_utf_8_under_the_c_locale(tmp_path):
    # without UTF-8 mode and locale coercion, the C locale makes Python's default text encoding ASCII
    (tmp_path / "layout.json").write_text(json.dumps({"beacons": [{"id": "b\u00e91", "x": 1.0, "y": 2.0},
                                                                  {"id": "b2", "x": 12.0, "y": 20.0}]}))
    env = dict(_subprocess_env(), PYTHONUTF8="0", PYTHONCOERCECLOCALE="0", LC_ALL="C")
    for argv in (["synth", "--layout", "layout.json", "--out-dir", "c", "--locations", "10",
                  "--samples-per-location", "2", "--unlabelled-count", "3"],
                 ["train", "--labelled", "c/labelled.csv", "--unlabelled", "c/unlabelled.csv",
                  "--layout", "c/layout.json", "--out-dir", "t", "--epochs", "1"]):
        proc = subprocess.run([sys.executable, "-m", "fingerloc.cli", *argv], cwd=tmp_path, env=env,
                              capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr
    assert (tmp_path / "c" / "labelled.csv").read_bytes().startswith("location,date,b\u00e91,b2\r\n".encode())


@given(st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=1, max_size=100))
def test_cdf_rows_form_a_distribution(errors):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "cdf.csv"
        cli.write_cdf(np.array(errors), path)
        with open(path) as f:
            rows = list(csv.DictReader(f))
    assert len(rows) == len(errors)
    for column in ("error_ft", "fraction"):
        values = [float(r[column]) for r in rows]
        assert all(b >= a for a, b in zip(values, values[1:]))
    assert float(rows[-1]["fraction"]) == 1.0
