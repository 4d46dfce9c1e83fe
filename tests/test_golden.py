"""Golden run: synth -> augment -> train (dnn, cnn) -> tune -> rationalize at fixed seeds.

Every artifact except ``manifest.json`` (which records wall-clock time and
paths) must hash to the recorded SHA-256. A refactor that keeps the program's
behaviour keeps these bytes; a change that alters an artifact on purpose
must say so and record the new hashes. The hashes were taken on x86-64 with
numpy 2.4 and OpenBLAS 0.3; a different BLAS build may round differently.
"""
import hashlib
import json

from fingerloc import cli

SEED = "5"

GOLDEN = {
    "augment/augmented.csv": "7bea61c1671227aa82515a987195a9d9589c12d3838347c5e36a1a1e3f8f4bdf",
    "augment/counts.json": "a701448863090f3a47516de125ae3b4ae53538c18c6749091f22479f9323194e",
    "corpus/labelled.csv": "1847e30964c8868a544deb5ef1d9ffee6629dac15d9f7cce4dad426fdde1be10",
    "corpus/layout.json": "190feba8bd105f7e49a02351bc0de8c1b88c4edf6c31f4d61c41d286d37f4e91",
    "corpus/unlabelled.csv": "57863c75aeb053067249bf0061fbd447c5ec46f76bc0359cd3fe884e7f192864",
    "study/study.csv": "898b2fc4346e1913ff090da0bd397d5acbf3bbeb6c84287a53723c2ea6eaabde",
    "study/summary.json": "1e2ba1327f68262abc919c233dc5dd61f3b98eda0b88d45b2556e47b79f47c00",
    "train/cdf.csv": "c01d43208385859f2835fb7c8ea2311babee27c60995a9fa2df6821eae85a091",
    "train/metrics.json": "34c70587f256b5af60d9933ac6cfc22eb33b17f9c38cd4e4b20822c80155ed21",
    "train/model.bin": "7232c7e6906a758303c2d7ca8993a701635fd97aa87b710b1e512392db0f0974",
    "train_cnn/cdf.csv": "28e9fa60832557ac8b9ee65c7dcd7459012118c27dff5089250aaf737effbb7f",
    "train_cnn/metrics.json": "3e51dba1f536ee7a3bbda1b2e462021cd11ec4008f848df99ee5c9540e94a40a",
    "train_cnn/model.bin": "43f968be681073f9eaacf2248d7006ad6b562b005e2e6ca39c484495fc6770f7",
    "tune/best_config.json": "ce9e1cadd73bfaef91d0b380f91cf55ca9bccac7a6f54eca9debcd6b5fd450ad",
    "tune/trials.csv": "3d2dd78128334a293b72df869369b7f3fd3c7262b9755a71a56e641bf3475886",
}


def test_pipeline_artifacts_byte_identical(tmp_path):
    corpus = tmp_path / "corpus"
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({"max_trials": 3}))

    def inputs(unlabelled):
        args = ["--labelled", str(corpus / "labelled.csv"), "--layout", str(corpus / "layout.json")]
        if unlabelled:
            args += ["--unlabelled", str(corpus / "unlabelled.csv")]
        return args + ["--seed", SEED]

    steps = [
        ["synth", "--locations", "60", "--samples-per-location", "4",
         "--unlabelled-count", "600", "--seed", SEED, "--out-dir", str(corpus)],
        ["augment", "--strategy", "hybrid", *inputs(True), "--out-dir", str(tmp_path / "augment")],
        ["train", "--model", "dnn", "--strategy", "hybrid", "--epochs", "5", *inputs(True),
         "--out-dir", str(tmp_path / "train")],
        ["train", "--model", "cnn", "--strategy", "naive", "--paper-protocol", "--epochs", "1",
         *inputs(False), "--out-dir", str(tmp_path / "train_cnn")],
        ["tune", "--spec", str(spec), "--epochs", "3", *inputs(False),
         "--out-dir", str(tmp_path / "tune")],
        ["rationalize", "--n-seeds", "1", "--epochs", "3", *inputs(False),
         "--out-dir", str(tmp_path / "study")],
    ]
    for argv in steps:
        assert cli.main(argv) == 0, argv[0]

    produced = {
        p.relative_to(tmp_path).as_posix(): hashlib.sha256(p.read_bytes()).hexdigest()
        for p in tmp_path.rglob("*")
        if p.is_file() and p.name != "manifest.json" and p != spec
    }
    assert produced == GOLDEN
