import itertools
import math
from dataclasses import replace

import numpy as np
import pytest

from fingerloc import hpo, models
from fingerloc.errors import ConfigError, DivergedError, ExperimentFailedError, GridExhausted, NumericalError
from fingerloc.nn import TrainConfig

PHI_AT_ZERO = 1.0 / math.sqrt(2.0 * math.pi)  # standard normal density at 0


def dense_gp_oracle(x, y, query, lengthscale, signal_var, noise_var):
    """Direct matrix-formula GP posterior, no Cholesky."""
    def kernel(a, b):
        d2 = np.sum((a[:, None, :] - b[None, :, :]) ** 2, axis=-1)
        return signal_var * np.exp(-d2 / (2.0 * lengthscale ** 2))

    y_mean = np.mean(y)
    k = kernel(x, x) + noise_var * np.eye(len(x))
    k_inv = np.linalg.inv(k)
    k_star = kernel(x, query)
    mean = y_mean + k_star.T @ k_inv @ (y - y_mean)
    var = signal_var - np.einsum("ij,ik,kj->j", k_star, k_inv, k_star)
    return mean, np.maximum(var, 0.0)


class TestGpSurrogate:
    def test_interpolates_single_observation(self):
        g = hpo.GpSurrogate(np.array([[0.5]]), np.array([2.0]), noise_var=0.0)
        mean, var = g.predict(np.array([[0.5]]))
        assert mean[0] == pytest.approx(2.0)
        assert var[0] == pytest.approx(0.0, abs=1e-9)

    def test_reverts_to_prior_far_away(self):
        x = np.array([[0.1], [0.2]])
        y = np.array([1.0, 3.0])
        g = hpo.GpSurrogate(x, y, lengthscale=0.05)
        mean, var = g.predict(np.array([[50.0]]))
        assert mean[0] == pytest.approx(g.y_mean)
        assert var[0] == pytest.approx(g.signal_var, rel=1e-9)

    def test_matches_dense_oracle(self):
        rng = np.random.Generator(np.random.PCG64(0))
        for trial in range(20):
            d = int(rng.integers(1, 4))
            n = int(rng.integers(2, 8))
            x = rng.uniform(size=(n, d))
            y = rng.normal(size=n)
            g = hpo.GpSurrogate(x, y)
            query = rng.uniform(size=(5, d))
            mean, var = g.predict(query)
            o_mean, o_var = dense_gp_oracle(x, y, query, g.lengthscale,
                                            g.signal_var, g.noise_var)
            np.testing.assert_allclose(mean, o_mean, atol=1e-8)
            np.testing.assert_allclose(var, o_var, atol=1e-8)

    def test_posterior_variance_below_prior(self):
        rng = np.random.Generator(np.random.PCG64(1))
        x = rng.uniform(size=(6, 2))
        y = rng.normal(size=6)
        g = hpo.GpSurrogate(x, y)
        _, var = g.predict(rng.uniform(size=(50, 2)))
        assert np.all(var <= g.signal_var + 1e-9)

    def test_observation_never_increases_variance(self):
        rng = np.random.Generator(np.random.PCG64(2))
        for _ in range(5):
            x = rng.uniform(size=(5, 1))
            y = rng.normal(size=5)
            extra_x = rng.uniform(size=(1, 1))
            extra_y = rng.normal(size=1)
            queries = rng.uniform(size=(20, 1))
            sf, nv = 1.0, 1e-6
            g1 = hpo.GpSurrogate(x, y, signal_var=sf, noise_var=nv)
            g2 = hpo.GpSurrogate(np.vstack([x, extra_x]), np.append(y, extra_y),
                                 signal_var=sf, noise_var=nv)
            _, v1 = g1.predict(queries)
            _, v2 = g2.predict(queries)
            assert np.all(v2 <= v1 + 1e-9)

    def test_requires_finite_objectives(self):
        with pytest.raises(ValueError):
            hpo.GpSurrogate(np.array([[0.5]]), np.array([np.nan]))


class TestCholeskyWithJitter:
    def test_kernel_singular_at_zero_jitter_is_factored(self):
        # two equal points and no noise term: the kernel matrix has rank 1
        gp = hpo.GpSurrogate(np.array([[0.5], [0.5]]), np.array([1.0, 2.0]), noise_var=0.0)
        k = gp._kernel(gp.x, gp.x)
        with pytest.raises(np.linalg.LinAlgError):
            np.linalg.cholesky(k)
        assert np.allclose(gp.chol @ gp.chol.T, k, rtol=0.0, atol=1e-9)
        assert np.array_equal(gp.chol, np.tril(gp.chol))

    def test_matrix_no_jitter_makes_definite_is_a_numerical_error(self):
        with pytest.raises(NumericalError, match="jitter"):
            hpo._cholesky_with_jitter(-np.eye(2))


class TestExpectedImprovement:
    def test_zero_sigma_at_best(self):
        assert hpo.expected_improvement(np.array([1.0]), np.array([0.0]), 1.0)[0] == 0.0

    def test_zero_sigma_below_best(self):
        assert hpo.expected_improvement(np.array([0.5]), np.array([0.0]), 1.0)[0] == pytest.approx(0.5, abs=1e-12)

    def test_phi_zero_case(self):
        # mu = best, sigma = 1: EI = phi(0)
        ei = hpo.expected_improvement(np.array([1.0]), np.array([1.0]), 1.0)[0]
        assert ei == pytest.approx(PHI_AT_ZERO, abs=1e-12)

    def test_nonnegative_everywhere(self):
        rng = np.random.Generator(np.random.PCG64(3))
        ei = hpo.expected_improvement(rng.normal(size=1000), np.abs(rng.normal(size=1000)),
                                      best=0.0)
        assert np.all(ei >= 0.0)

    def test_increases_with_sigma_at_best(self):
        sigmas = np.array([0.1, 0.5, 1.0, 2.0])
        ei = hpo.expected_improvement(np.full(4, 1.0), sigmas, 1.0)
        assert np.all(np.diff(ei) > 0.0)

    def test_bits_match_the_scipy_stats_form(self):
        from scipy.stats import norm
        rng = np.random.Generator(np.random.PCG64(22))
        n = 20000
        mean = rng.normal(scale=3.0, size=n)
        std = np.abs(rng.normal(size=n)) * 10.0 ** rng.uniform(-14.0, 1.0, size=n)
        std[:1000] = 0.0
        std[1000:1100] = 5e-324
        best = 0.25
        improve = best - mean
        expected = np.where(std > 0.0, 0.0, np.maximum(improve, 0.0))
        pos = std > 0.0
        with np.errstate(over="ignore"):  # improve / 5e-324 is inf
            z = improve[pos] / std[pos]
            expected[pos] = np.maximum(improve[pos] * norm.cdf(z) + std[pos] * norm.pdf(z), 0.0)
            ei = hpo.expected_improvement(mean, std, best)
        assert np.sum(z > 40.0) > 100 and np.sum(z < -40.0) > 100 and np.any(np.isinf(z))
        assert np.array_equal(ei.view(np.uint64), expected.view(np.uint64))

    def test_ndtr_bits_match_scipy_at_each_branch_edge(self):
        from scipy.special import ndtr
        # ndtr takes erf below 1/sqrt(2) and erfc above it; erfc takes 1 - erf below 1, one rational function
        # below 8 and another above it, and underflows past -MAXLOG (|a| beyond about 37.7); x = a / sqrt(2)
        edges = [0.0, 1.0, math.sqrt(0.5), math.sqrt(2.0), 8.0 * math.sqrt(2.0), 37.7, 38.6,
                 math.sqrt(2.0 * hpo._MAXLOG), 5e-324, 1e308, math.inf]
        edges = np.array([e for edge in edges for e in (edge, np.nextafter(edge, 0.0), np.nextafter(edge, math.inf))])
        rng = np.random.Generator(np.random.PCG64(23))
        draws = rng.normal(size=(5, 2000)) * [[0.3], [1.0], [3.0], [10.0], [30.0]]
        a = np.concatenate([edges, -edges, draws.ravel()])
        assert np.array_equal(hpo._ndtr(a).view(np.uint64), ndtr(a).view(np.uint64))
        assert np.isnan(hpo._ndtr(np.array([np.nan]))).all()

    def test_zero_at_noiseless_observed_point(self):
        x = np.array([[0.3], [0.7]])
        y = np.array([1.0, 2.0])
        g = hpo.GpSurrogate(x, y, noise_var=0.0)
        mean, var = g.predict(x)
        ei = hpo.expected_improvement(mean, np.sqrt(var), best=float(y.min()))
        assert np.all(ei <= 1e-8)


def grid_history(s, n):
    """``n`` trials of ``s``'s suggestions, each suggested after the trials before it, as ``run_search`` asks."""
    history = []
    for number in range(1, n + 1):
        history.append(hpo.Trial(number, s.suggest(history), 1.0, "ok"))
    return history


class TestSuggest:
    SPACE = hpo.SearchSpace((("learning_rate", 0.001, 0.002), ("beta1", 0.88, 0.93)))

    def test_random_within_bounds(self):
        s = hpo.Suggester(self.SPACE, hpo.ExperimentConfig(algorithm="random", seed=0))
        for _ in range(1000):
            a = s.suggest([])
            assert all(lo <= a[n] <= hi for n, lo, hi in self.SPACE.params)

    def test_grid_lattice_and_exhaustion(self):
        space = hpo.SearchSpace((("x", 0.0, 1.0),))
        s = hpo.Suggester(space, hpo.ExperimentConfig(algorithm="grid", max_trials=3, seed=0))
        history = grid_history(s, 3)
        assert [t.assignment["x"] for t in history] == [0.0, 0.5, 1.0]
        with pytest.raises(GridExhausted):
            s.suggest(history)

    @pytest.mark.parametrize("params, max_trials", [
        ((("learning_rate", 0.001, 0.002), ("beta1", 0.88, 0.93)), 15),
        ((("a", -3.7, 1e-3), ("b", 0.1, 0.3), ("c", 5.0, 5.0 + 2.0 ** -40)), 40),
        ((("x", 0.0, 4e-323),), 1000),  # the step underflows to 0
        ((("x", 0.25, 0.75), ("y", 1.0, 2.0)), 1),  # one point: each axis's midpoint
    ], ids=["adam", "cube", "subnormal", "midpoint"])
    def test_grid_points_are_the_linspace_lattice(self, params, max_trials):
        space = hpo.SearchSpace(params)
        res = max(1, math.ceil(max_trials ** (1.0 / len(space.params))))
        axes = [np.array([(lo + hi) / 2.0]) if res == 1 else np.linspace(lo, hi, res) for _, lo, hi in params]
        lattice = [dict(zip(space.names, (float(v) for v in p))) for p in itertools.product(*axes)]
        s = hpo.Suggester(space, hpo.ExperimentConfig(algorithm="grid", max_trials=max_trials))
        history = grid_history(s, len(lattice))
        points = [t.assignment for t in history]
        assert [list(p) for p in points] == [space.names] * len(lattice)
        assert np.array_equal(np.array([list(p.values()) for p in points]).view(np.uint64),
                              np.array([list(p.values()) for p in lattice]).view(np.uint64))
        with pytest.raises(GridExhausted):
            s.suggest(history)

    def test_grid_of_more_points_than_an_array_holds(self):
        space = hpo.SearchSpace((("x", 0.0, 1.0), ("y", 0.0, 1.0)))
        s = hpo.Suggester(space, hpo.ExperimentConfig(algorithm="grid", max_trials=10 ** 300))
        first, second = (t.assignment for t in grid_history(s, 2))
        assert first == {"x": 0.0, "y": 0.0}
        assert second["x"] == 0.0 and 0.0 < second["y"] < 1e-149  # 1e150 points per axis

    def test_bayesian_avoids_observed_point(self):
        space = hpo.SearchSpace((("x", 0.0, 1.0),))
        s = hpo.Suggester(space, hpo.ExperimentConfig(algorithm="bayesian", seed=0))
        history = [hpo.Trial(i, {"x": v}, o, "ok")
                   for i, (v, o) in enumerate([(0.2, 5.0), (0.5, 1.0), (0.8, 4.0)], 1)]
        a = s.suggest(history)
        assert all(abs(a["x"] - t.assignment["x"]) > 1e-6 for t in history)

    def test_unknown_algorithm(self):
        with pytest.raises(ConfigError):
            hpo.ExperimentConfig(algorithm="hyperband")

    def test_empty_space_rejected(self):
        with pytest.raises(ConfigError, match="no parameters"):
            hpo.SearchSpace(())


class TestRunSearch:
    SPACE = hpo.SearchSpace((("learning_rate", 0.001, 0.002),))

    @staticmethod
    def quadratic(a):
        return (a["learning_rate"] - 0.0015) ** 2

    def test_infinite_goal_runs_all_trials(self):
        cfg = hpo.ExperimentConfig(algorithm="random", max_trials=7, goal=1e-18, seed=0)
        result = hpo.run_search(self.quadratic, self.SPACE, cfg)
        assert len(result.trials) == 7

    def test_goal_reached_stops_immediately(self):
        cfg = hpo.ExperimentConfig(algorithm="random", max_trials=15, goal=1.0, seed=0)
        result = hpo.run_search(lambda a: 0.9, self.SPACE, cfg)
        assert len(result.trials) == 1

    def test_bayesian_finds_quadratic_optimum(self):
        cfg = hpo.ExperimentConfig(algorithm="bayesian", max_trials=15, goal=1e-18, seed=5)
        result = hpo.run_search(self.quadratic, self.SPACE, cfg)
        assert abs(result.best.assignment["learning_rate"] - 0.0015) <= 0.05 * 0.001

    def test_diverged_trials_excluded_from_best(self):
        calls = iter([float("nan"), 2.0, 1.0, 3.0, 4.0])
        cfg = hpo.ExperimentConfig(algorithm="random", max_trials=5, goal=1e-18, seed=1)
        result = hpo.run_search(lambda a: next(calls), self.SPACE, cfg)
        assert result.best.objective == 1.0
        assert result.trials[0].status == "diverged"
        assert result.trials[0].objective is None

    def test_objective_raising_diverged_error_is_a_diverged_trial(self):
        outcomes = iter([DivergedError(epoch=1, batch=0, loss=float("inf")), 2.0])

        def objective(assignment):
            outcome = next(outcomes)
            if isinstance(outcome, DivergedError):
                raise outcome
            return outcome

        cfg = hpo.ExperimentConfig(algorithm="random", max_trials=2, goal=1e-18, seed=1)
        result = hpo.run_search(objective, self.SPACE, cfg)
        assert [(t.status, t.objective) for t in result.trials] == [("diverged", None), ("ok", 2.0)]

    def test_all_diverged_fails(self):
        cfg = hpo.ExperimentConfig(algorithm="random", max_trials=3, goal=1e-18, seed=1)
        with pytest.raises(ExperimentFailedError):
            hpo.run_search(lambda a: float("inf"), self.SPACE, cfg)

    def test_reproducible_from_seed(self):
        cfg = hpo.ExperimentConfig(algorithm="bayesian", max_trials=8, goal=1e-18, seed=9)
        a = hpo.run_search(self.quadratic, self.SPACE, cfg)
        b = hpo.run_search(self.quadratic, self.SPACE, cfg)
        assert a.trials == b.trials

    def test_assignments_within_bounds(self):
        cfg = hpo.ExperimentConfig(algorithm="bayesian", max_trials=10, goal=1e-18, seed=2)
        result = hpo.run_search(self.quadratic, self.SPACE, cfg)
        assert len(result.trials) <= 10
        for t in result.trials:
            assert all(lo <= t.assignment[n] <= hi for n, lo, hi in self.SPACE.params)


class TestRunExperiment:
    def test_tunes_model_on_synthetic_data(self, synth_dataset):
        cfg = hpo.ExperimentConfig(algorithm="random", max_trials=2, goal=0.001, seed=0)
        base = TrainConfig(epochs=5, seed=0)
        result = hpo.run_search(hpo.training_objective("dnn", synth_dataset, hpo.ADAM_SPACE, base),
                                hpo.ADAM_SPACE, cfg)
        assert result.best.objective is not None
        assert len(result.trials) <= 2

    def test_objective_is_score_at_the_assignment(self, synth_dataset):
        base = TrainConfig(epochs=2, seed=3)
        assignment = {"learning_rate": 0.0015, "beta1": 0.9}
        objective = hpo.training_objective("dnn", synth_dataset, hpo.ADAM_SPACE, base)
        metrics = models.score("dnn", synth_dataset.labelled, synth_dataset.layout,
                               replace(base, **assignment))
        assert objective(assignment) == metrics.mean_error_grid

    @pytest.mark.parametrize("param", [("beta1", 0.5, 1.5), ("learning_rate", -1.0, 0.01)],
                             ids=["beta1-above-1", "negative-rate"])
    def test_space_bound_the_train_config_rejects(self, synth_dataset, monkeypatch, param):
        def score(*args):
            raise AssertionError("a trial ran")

        monkeypatch.setattr(hpo, "score", score)
        space = hpo.SearchSpace((param,))
        with pytest.raises(ConfigError):
            hpo.check_bindable(space, TrainConfig(epochs=1, seed=0))
        with pytest.raises(ConfigError):
            hpo.run_search(hpo.training_objective("dnn", synth_dataset, space, TrainConfig(epochs=1, seed=0)),
                           space, hpo.ExperimentConfig(max_trials=2, seed=0))

    def test_unbindable_space_rejected(self, synth_dataset):
        space = hpo.SearchSpace((("dropout", 0.0, 1.0),))
        cfg = hpo.ExperimentConfig(max_trials=1, seed=0)
        with pytest.raises(ConfigError):
            hpo.run_search(hpo.training_objective("dnn", synth_dataset, space, TrainConfig(epochs=1, seed=0)),
                           space, cfg)
