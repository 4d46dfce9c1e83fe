"""Acceptance suite: one test per release criterion, each printing a
PASS line when its assertions hold (run with -s to see them). Criteria
that need the external UCI corpus skip when FINGERLOC_DATA_DIR is unset.
"""
import csv
import json
import math
import time

import numpy as np
import pytest

from fingerloc import augment as aug
from fingerloc import cli, data, hpo, models, nn, rationalize
from conftest import requires_uci
from test_hpo import dense_gp_oracle
from test_nn import check_gradients

PHI_AT_ZERO = 1.0 / math.sqrt(2.0 * math.pi)


def report(n, text):
    print(f"\nACCEPTANCE {n}: PASS — {text}")


# -- criterion 1 -------------------------------------------------------------

def test_criterion_1_gradient_oracle():
    started = time.monotonic()
    rng = np.random.Generator(np.random.PCG64(100))
    instances = 0

    for _ in range(4):  # Dense
        n_in, n_out = int(rng.integers(2, 8)), int(rng.integers(1, 8))
        net = nn.Network([nn.Dense(n_in, n_out)], seed=int(rng.integers(1 << 30)))
        check_gradients(net, rng.normal(size=(3, n_in)), rng.normal(size=(3, n_out)))
        instances += 1

    for _ in range(4):  # ReLU (through a dense sandwich)
        n = int(rng.integers(2, 8))
        net = nn.Network([nn.Dense(n, n), nn.ReLU(), nn.Dense(n, 2)],
                         seed=int(rng.integers(1 << 30)))
        check_gradients(net, rng.normal(size=(3, n)), rng.normal(size=(3, 2)))
        instances += 1

    for _ in range(4):  # Conv2d
        h, k = int(rng.integers(4, 8)), int(rng.integers(2, 4))
        cin, cout = int(rng.integers(1, 3)), int(rng.integers(1, 3))
        net = nn.Network([nn.Conv2d(cin, cout, (k, k)), nn.Flatten(),
                          nn.Dense((h - k + 1) ** 2 * cout, 2)],
                         seed=int(rng.integers(1 << 30)))
        check_gradients(net, rng.normal(size=(2, h, h, cin)), rng.normal(size=(2, 2)))
        instances += 1

    for _ in range(4):  # MaxPool2d (ceil mode exercised by non-divisible sizes)
        h, w = int(rng.integers(5, 8)), int(rng.integers(2, 4))
        oh = -(-h // w)
        net = nn.Network([nn.MaxPool2d((w, w)), nn.Flatten(), nn.Dense(oh * oh * 2, 2)],
                         seed=int(rng.integers(1 << 30)))
        check_gradients(net, rng.normal(size=(2, h, h, 2)), rng.normal(size=(2, 2)))
        instances += 1

    for i in range(2):  # full DNN
        net = models.build_model("dnn", seed=200 + i)
        check_gradients(net, rng.normal(size=(3, 13)), rng.normal(size=(3, 2)),
                        loss_kind="rmse")
        instances += 1

    for i in range(2):  # full CNN (sampled coordinates keep this under budget)
        net = models.build_model("cnn", seed=300 + i)
        # with a zero bias every conv1 output away from the beacons sits on the ReLU kink
        net.layers[0].params[1][...] = rng.uniform(-0.5, 0.5, size=net.layers[0].out_channels)
        check_gradients(net, rng.normal(size=(2, 13)), rng.normal(size=(2, 2)),
                        loss_kind="rmse", max_coords=200, seed=i)
        instances += 1

    # full autoencoder; seed 410 avoids a preactivation that sits within the
    # finite-difference step of a ReLU kink (which breaks the oracle, not backprop)
    ae_rng = np.random.Generator(np.random.PCG64(410))
    for i in range(2):
        net = models.build_model("autoencoder", seed=410 + i)
        x = ae_rng.uniform(size=(3, 13))
        check_gradients(net, x, x, loss_kind="rmse")
        instances += 1

    elapsed = time.monotonic() - started
    assert instances >= 20
    assert elapsed < 60.0
    report(1, f"{instances} gradient-check instances, max rel err < 1e-4, {elapsed:.1f}s")


# -- criterion 2 -------------------------------------------------------------

def test_criterion_2_gp_oracle():
    rng = np.random.Generator(np.random.PCG64(7))
    for _ in range(50):
        d = int(rng.integers(1, 4))
        n = int(rng.integers(2, 10))
        x = rng.uniform(size=(n, d))
        y = rng.normal(size=n)
        g = hpo.GpSurrogate(x, y)
        queries = rng.uniform(size=(8, d))
        mean, var = g.predict(queries)
        o_mean, o_var = dense_gp_oracle(x, y, queries, g.lengthscale,
                                        g.signal_var, g.noise_var)
        np.testing.assert_allclose(mean, o_mean, atol=1e-8)
        np.testing.assert_allclose(var, o_var, atol=1e-8)

    assert hpo.expected_improvement(np.array([1.0]), np.array([0.0]), 1.0)[0] == pytest.approx(0.0, abs=1e-12)
    assert hpo.expected_improvement(np.array([0.5]), np.array([0.0]), 1.0)[0] == pytest.approx(0.5, abs=1e-12)
    assert hpo.expected_improvement(np.array([1.0]), np.array([1.0]), 1.0)[0] == pytest.approx(PHI_AT_ZERO, abs=1e-12)
    report(2, "50 GP instances within 1e-8 of dense oracle; EI spot values exact")


# -- criterion 3 -------------------------------------------------------------

def test_criterion_3_tuner_efficacy():
    started = time.monotonic()
    space = hpo.SearchSpace((("learning_rate", 0.001, 0.002),))
    objective = lambda a: (a["learning_rate"] - 0.0015) ** 2
    hits = 0
    bayes, random_ = [], []
    for seed in range(10):
        b = hpo.run_search(objective, space,
                           hpo.ExperimentConfig("bayesian", 15, 1e-18, seed))
        r = hpo.run_search(objective, space,
                           hpo.ExperimentConfig("random", 15, 1e-18, seed))
        if abs(b.best.assignment["learning_rate"] - 0.0015) <= 0.05 * 0.001:
            hits += 1
        bayes.append(b.best.objective)
        random_.append(r.best.objective)
    elapsed = time.monotonic() - started
    assert hits >= 9, f"only {hits}/10 runs within 5% of the optimum"
    assert np.mean(bayes) <= np.mean(random_)
    assert elapsed < 10.0
    report(3, f"{hits}/10 within 5% of optimum; Bayesian mean {np.mean(bayes):.2e} "
              f"<= random mean {np.mean(random_):.2e}; {elapsed:.1f}s")


# -- criterion 4 -------------------------------------------------------------

@requires_uci
def test_criterion_4_dataset_exactness(uci_dataset):
    assert len(uci_dataset.labelled) == 1420
    assert len(uci_dataset.unlabelled) == 5191
    train, test = data.split(uci_dataset.labelled, 0.8, 0)
    assert (len(train), len(test)) == (1136, 284)
    under = data.find_underrepresented(uci_dataset.labelled, 10)
    assert len(under) == 188
    residual = rationalize.drop_beacon(uci_dataset, uci_dataset.layout.ids[0])
    assert len(residual.labelled) == 1417
    report(4, "1420/5191 samples, 1136/284 split, 188 under-represented, 1417 residual")


# -- criterion 5 -------------------------------------------------------------

@requires_uci
def test_criterion_5_baseline_error_band(uci_dataset):
    errors = [models.score("dnn", uci_dataset.labelled, uci_dataset.layout, nn.TrainConfig(seed=seed)).mean_error_feet
              for seed in range(5)]
    mean = float(np.mean(errors))
    assert 23.2 - 5.0 <= mean <= 23.2 + 5.0, f"mean error {mean:.1f} ft outside band"
    report(5, f"baseline mean error {mean:.1f} ft within 23.2 +/- 5 ft")


# -- criterion 6 -------------------------------------------------------------

@requires_uci
@pytest.mark.parametrize("kind,optimizer", [
    ("dnn", "adam"), ("dnn", "sgd"), ("cnn", "adam"), ("cnn", "sgd"),
])
def test_criterion_6_tuning_direction(uci_dataset, kind, optimizer):
    space = hpo.default_space(optimizer)
    exp = hpo.ExperimentConfig(algorithm="bayesian", max_trials=15, goal=1.2, seed=0)
    base = nn.TrainConfig(optimizer=optimizer, seed=0)
    result = hpo.run_search(hpo.training_objective(kind, uci_dataset, space, base), space, exp)
    tuned = result.best.assignment
    defaults = ({"learning_rate": 0.001, "beta1": 0.9} if optimizer == "adam"
                else {"learning_rate": 0.01, "momentum": 0.9})
    wins = 0
    for seed in range(5):
        objective = hpo.training_objective(kind, uci_dataset, space,
                                           nn.TrainConfig(optimizer=optimizer, seed=seed))
        if objective(tuned) <= objective(defaults):
            wins += 1
    assert wins >= 4, f"{kind}+{optimizer}: tuned beat default in only {wins}/5 seeds"
    report(6, f"{kind}+{optimizer}: tuned <= default in {wins}/5 seeds")


# -- criterion 7 -------------------------------------------------------------

@requires_uci
def test_criterion_7_augmentation_direction(uci_dataset):
    layout = uci_dataset.layout
    policy = aug.AugmentationPolicy(seed=0)
    under = data.find_underrepresented(uci_dataset.labelled, policy.threshold)
    naive = aug.naive_augment(uci_dataset.labelled, under, policy)
    assert len(naive) == 188

    hybrid = aug.augment(uci_dataset.labelled, "hybrid", policy, uci_dataset.unlabelled)
    c = hybrid.counts
    assert c["naive"] == 188
    assert c["kept"] + c["discarded"] == 188
    assert c["total"] == c["original"] + c["naive"] + c["kept"]

    def mean_error(samples, seed):
        # paper protocol: augment the pool, then split
        return models.score("dnn", samples, layout, nn.TrainConfig(seed=seed)).mean_error_feet

    base_errors = [mean_error(uci_dataset.labelled, s) for s in range(5)]
    hybrid_errors = [mean_error(hybrid.samples, s) for s in range(5)]
    base, hyb = float(np.mean(base_errors)), float(np.mean(hybrid_errors))
    reduction = (base - hyb) / base
    assert hyb < base
    assert 0.05 <= reduction <= 0.25, f"relative reduction {reduction:.2%} outside [5%, 25%]"
    report(7, f"hybrid {hyb:.1f} ft vs baseline {base:.1f} ft ({reduction:.1%} reduction)")


# -- criterion 8 -------------------------------------------------------------

def assert_same_rows(a, b):
    for column in ("rssi", "cells", "timestamps"):
        assert np.array_equal(getattr(a, column), getattr(b, column)), column


def test_criterion_8_synthetic_fallback(layout):
    started = time.monotonic()
    model = data.PathLossModel()
    ds = data.synth_generate(layout, model, n_locations=400, samples_per_location=3,
                             seed=21, n_unlabelled=500)
    # the split models.score makes, kept for the centroid baseline
    train_set, test_set = data.split(ds.labelled, models.HOLDOUT_RATIO, 0)
    dnn_err = models.fit("dnn", train_set, test_set, layout, nn.TrainConfig(seed=0))[2].mean_error_grid
    centroid = train_set.cells.mean(axis=0)
    centroid_err = float(np.sqrt(((test_set.cells - centroid) ** 2).sum(axis=1)).mean())
    assert dnn_err <= 0.7 * centroid_err, \
        f"DNN {dnn_err:.2f} not >=30% better than centroid {centroid_err:.2f}"

    # augmentation accounting identities
    policy = aug.AugmentationPolicy(autoencoder_epochs=5, seed=0)
    result = aug.augment(ds.labelled, "hybrid", policy, ds.unlabelled)
    c = result.counts
    assert c["total"] == c["original"] + c["naive"] + c["kept"]
    assert_same_rows(result.samples.take(np.arange(len(ds.labelled))), ds.labelled)

    # rationalization idempotence and residual accounting
    for beacon_id in layout.ids:
        once = rationalize.drop_beacon(ds, beacon_id)
        twice = rationalize.drop_beacon(once, beacon_id)
        assert_same_rows(once.labelled, twice.labelled)
        idx = layout.index_of(beacon_id)
        has = ds.labelled.rssi > data.NO_SIGNAL
        removed = sum(1 for row in has if set(np.flatnonzero(row)) == {idx})
        assert len(ds.labelled) - len(once.labelled) == removed

    elapsed = time.monotonic() - started
    assert elapsed < 300.0
    report(8, f"DNN {dnn_err:.2f} vs centroid {centroid_err:.2f} grid units "
              f"({1 - dnn_err / centroid_err:.0%} better); invariants hold; {elapsed:.0f}s")


# -- criterion 9 -------------------------------------------------------------

def test_criterion_9_manifest_determinism(tmp_path):
    corpus = tmp_path / "corpus"
    assert cli.main(["synth", "--out-dir", str(corpus), "--locations", "30",
                     "--samples-per-location", "4", "--unlabelled-count", "50",
                     "--seed", "13"]) == 0
    first = tmp_path / "first"
    assert cli.main(["train", "--labelled", str(corpus / "labelled.csv"),
                     "--unlabelled", str(corpus / "unlabelled.csv"),
                     "--layout", str(corpus / "layout.json"),
                     "--out-dir", str(first), "--epochs", "5", "--seed", "3"]) == 0
    second = tmp_path / "second"
    assert cli.main(["rerun", str(first / "manifest.json"),
                     "--out-dir", str(second)]) == 0
    for name in ("model.bin", "metrics.json", "cdf.csv"):
        assert (first / name).read_bytes() == (second / name).read_bytes(), name
    report(9, "rerun from manifest reproduced model, metrics, and CDF bit-identically")


# -- criterion 10 ------------------------------------------------------------

def test_criterion_10_cdf_contract(tmp_path):
    rng = np.random.Generator(np.random.PCG64(0))
    for k in range(20):
        n = int(rng.integers(1, 200))
        errors = rng.exponential(10.0, size=n)
        if k % 3 == 0:  # force ties
            errors = np.round(errors)
        path = tmp_path / f"cdf{k}.csv"
        cli.write_cdf(errors, path)
        with open(path) as f:
            rows = list(csv.DictReader(f))
        assert len(rows) == n
        e = [float(r["error_ft"]) for r in rows]
        fr = [float(r["fraction"]) for r in rows]
        assert e == sorted(e)
        assert all(b >= a for a, b in zip(fr, fr[1:]))
        assert fr[-1] == 1.0
    report(10, "20 random CDF emissions monotone with terminal fraction 1.0")
