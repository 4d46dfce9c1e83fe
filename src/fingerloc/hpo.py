"""Black-box hyperparameter search: grid, random, and Bayesian.

The Bayesian path fits an exact Gaussian-process regression (squared
exponential kernel, Cholesky solve) over observations normalized to the
unit cube and picks the candidate maximizing expected improvement under
the minimization convention.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, replace
from typing import Callable, Sequence

import numpy as np
from scipy.linalg import cho_solve, solve_triangular
from scipy.stats import norm

from .data import Dataset, split
from .errors import ExperimentFailedError, GridExhausted, NumericalError
from .models import build_model, xy
from .nn import TrainConfig, evaluate, train

WARMUP_TRIALS = 3
EI_CANDIDATES = 1024
DEFAULT_LENGTHSCALE = 0.2


@dataclass(frozen=True)
class SearchSpace:
    params: tuple[tuple[str, float, float], ...]  # (name, lower, upper)

    def __post_init__(self):
        names = [p[0] for p in self.params]
        if len(set(names)) != len(names):
            raise ValueError("duplicate parameter names")
        for name, lo, hi in self.params:
            if not lo < hi:
                raise ValueError(f"{name}: lower bound {lo} must be < upper {hi}")

    @property
    def names(self) -> list[str]:
        return [p[0] for p in self.params]

    @property
    def dim(self) -> int:
        return len(self.params)

    def normalize(self, assignment: dict[str, float]) -> np.ndarray:
        return np.array([(assignment[n] - lo) / (hi - lo) for n, lo, hi in self.params])

    def denormalize(self, u: np.ndarray) -> dict[str, float]:
        return {n: lo + float(v) * (hi - lo) for (n, lo, hi), v in zip(self.params, u)}

    def contains(self, assignment: dict[str, float]) -> bool:
        return all(lo <= assignment[n] <= hi for n, lo, hi in self.params)


@dataclass
class Trial:
    number: int
    assignment: dict[str, float]
    objective: float | None
    status: str  # "ok" | "diverged"


# ---------------------------------------------------------------------------
# Gaussian-process surrogate

class GpSurrogate:
    """Exact GP regression with a squared-exponential kernel.

    Inputs are expected pre-normalized to the unit cube. The prior mean is
    the observation mean; far from all data the posterior reverts to it
    with variance ``signal_var``.
    """

    def __init__(self, x: np.ndarray, y: np.ndarray, lengthscale: float = DEFAULT_LENGTHSCALE,
                 signal_var: float | None = None, noise_var: float | None = None):
        x = np.atleast_2d(np.asarray(x, dtype=np.float64))
        y = np.asarray(y, dtype=np.float64).ravel()
        if len(x) != len(y) or len(y) == 0:
            raise ValueError("need >= 1 observation with matching x/y lengths")
        if not np.all(np.isfinite(y)):
            raise ValueError("objectives must be finite")
        self.x = x
        self.y = y
        self.lengthscale = lengthscale
        if signal_var is None:
            signal_var = float(np.var(y))
            if signal_var <= 0.0:
                signal_var = 1.0
        self.signal_var = signal_var
        self.noise_var = 1e-6 * signal_var if noise_var is None else noise_var
        self.y_mean = float(np.mean(y))
        k = self._kernel(x, x) + self.noise_var * np.eye(len(x))
        self.chol = _cholesky_with_jitter(k)
        self.alpha = cho_solve((self.chol, True), y - self.y_mean)

    def _kernel(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        d2 = np.sum((a[:, None, :] - b[None, :, :]) ** 2, axis=-1)
        return self.signal_var * np.exp(-d2 / (2.0 * self.lengthscale ** 2))

    def predict(self, queries: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Posterior mean and variance at each query point."""
        queries = np.atleast_2d(np.asarray(queries, dtype=np.float64))
        k_star = self._kernel(self.x, queries)  # (n, q)
        mean = self.y_mean + k_star.T @ self.alpha
        w = solve_triangular(self.chol, k_star, lower=True)
        var = self.signal_var - np.sum(w * w, axis=0)
        return mean, np.maximum(var, 0.0)


def _cholesky_with_jitter(k: np.ndarray) -> np.ndarray:
    jitter = 0.0
    base = float(np.mean(np.diag(k)))
    for _ in range(8):
        try:
            return np.linalg.cholesky(k + jitter * np.eye(len(k)))
        except np.linalg.LinAlgError:
            jitter = max(jitter * 10.0, 1e-12 * base)
    raise NumericalError("kernel matrix not positive definite after jitter escalation")


def gp_fit(points: np.ndarray, objectives: np.ndarray, lengthscale: float = DEFAULT_LENGTHSCALE,
           signal_var: float | None = None, noise_var: float | None = None) -> GpSurrogate:
    return GpSurrogate(points, objectives, lengthscale, signal_var, noise_var)


def expected_improvement(mean: np.ndarray, std: np.ndarray, best: float) -> np.ndarray:
    """EI for minimization: (best - mu) Phi(z) + sigma phi(z), z = (best - mu)/sigma."""
    mean = np.asarray(mean, dtype=np.float64)
    std = np.asarray(std, dtype=np.float64)
    improve = best - mean
    ei = np.where(std > 0.0, 0.0, np.maximum(improve, 0.0))
    pos = std > 0.0
    if np.any(pos):
        z = improve[pos] / std[pos]
        ei = np.array(ei, dtype=np.float64)
        ei[pos] = np.maximum(improve[pos] * norm.cdf(z) + std[pos] * norm.pdf(z), 0.0)
    return ei


def surrogate_ei(surrogate: GpSurrogate, queries: np.ndarray, best: float) -> np.ndarray:
    mean, var = surrogate.predict(queries)
    return expected_improvement(mean, np.sqrt(var), best)


# ---------------------------------------------------------------------------
# suggestion strategies

class Suggester:
    """Produces the next parameter assignment given the trial history."""

    def __init__(self, algorithm: str, space: SearchSpace, seed: int, max_trials: int = 15,
                 lengthscale: float = DEFAULT_LENGTHSCALE):
        if algorithm not in ("grid", "random", "bayesian"):
            raise ValueError(f"unknown algorithm {algorithm!r}")
        self.algorithm = algorithm
        self.space = space
        self.rng = np.random.Generator(np.random.PCG64(seed))
        self.lengthscale = lengthscale
        if algorithm == "grid":
            res = max(1, math.ceil(max_trials ** (1.0 / space.dim)))
            axes = []
            for _, lo, hi in space.params:
                if res == 1:
                    axes.append(np.array([(lo + hi) / 2.0]))
                else:
                    axes.append(np.linspace(lo, hi, res))
            self._grid_iter = itertools.product(*axes)

    def _random_assignment(self) -> dict[str, float]:
        return {n: float(self.rng.uniform(lo, hi)) for n, lo, hi in self.space.params}

    def suggest(self, history: Sequence[Trial]) -> dict[str, float]:
        if self.algorithm == "grid":
            try:
                point = next(self._grid_iter)
            except StopIteration:
                raise GridExhausted("grid lattice exhausted") from None
            return dict(zip(self.space.names, (float(v) for v in point)))
        if self.algorithm == "random":
            return self._random_assignment()
        # bayesian
        observed = [t for t in history if t.status == "ok" and t.objective is not None]
        if len(observed) < WARMUP_TRIALS:
            return self._random_assignment()
        x = np.stack([self.space.normalize(t.assignment) for t in observed])
        y = np.array([t.objective for t in observed])
        surrogate = gp_fit(x, y, lengthscale=self.lengthscale)
        best = float(y.min())
        candidates = self.rng.uniform(0.0, 1.0, size=(EI_CANDIDATES, self.space.dim))
        ei = surrogate_ei(surrogate, candidates, best)
        return self.space.denormalize(candidates[int(np.argmax(ei))])


@dataclass
class ExperimentConfig:
    algorithm: str = "bayesian"
    max_trials: int = 15
    goal: float = 1.2  # objective (grid units) at which the search stops early
    seed: int = 0

    def __post_init__(self):
        if self.max_trials < 1:
            raise ValueError("max trials must be >= 1")
        if self.goal <= 0:
            raise ValueError("goal must be positive")


@dataclass
class ExperimentResult:
    best: Trial
    trials: list[Trial]


def run_search(objective: Callable[[dict[str, float]], float], space: SearchSpace,
               config: ExperimentConfig) -> ExperimentResult:
    """Sequential suggest -> evaluate loop against an arbitrary objective.

    The objective may raise NumericalError (DivergedError included); those
    trials are recorded with status "diverged" and no objective value.
    """
    suggester = Suggester(config.algorithm, space, config.seed, config.max_trials)
    trials: list[Trial] = []
    for number in range(1, config.max_trials + 1):
        try:
            assignment = suggester.suggest(trials)
        except GridExhausted:
            break
        try:
            value = float(objective(assignment))
            status = "ok" if math.isfinite(value) else "diverged"
        except NumericalError:
            value, status = None, "diverged"
        trials.append(Trial(number=number, assignment=assignment,
                            objective=value if status == "ok" else None, status=status))
        if status == "ok" and value <= config.goal:
            break
    ok = [t for t in trials if t.status == "ok"]
    if not ok:
        raise ExperimentFailedError("all trials diverged")
    best = min(ok, key=lambda t: t.objective)
    return ExperimentResult(best=best, trials=trials)


# parameter names a search space may bind to TrainConfig fields
TUNABLE_FIELDS = ("learning_rate", "beta1", "beta2", "momentum")

ADAM_SPACE = SearchSpace((("learning_rate", 0.001, 0.002), ("beta1", 0.88, 0.93)))
# SGD ranges bracket typical tuned values; not prescribed anywhere upstream
SGD_SPACE = SearchSpace((("learning_rate", 0.005, 0.02), ("momentum", 0.85, 0.95)))


def default_space(optimizer: str) -> SearchSpace:
    return ADAM_SPACE if optimizer == "adam" else SGD_SPACE


def training_objective(model_kind: str, dataset: Dataset, space: SearchSpace,
                       base_config: TrainConfig, split_ratio: float = 0.8,
                       split_seed: int = 0) -> Callable[[dict[str, float]], float]:
    """Objective: train on a fixed split, return mean test error in grid units."""
    unknown = set(space.names) - set(TUNABLE_FIELDS)
    if unknown:
        raise ValueError(f"search space names not bindable to a train config: {sorted(unknown)}")
    train_set, test_set = split(dataset.labelled, split_ratio, split_seed)
    layout = dataset.layout
    x_train, y_train = xy(model_kind, train_set, layout)
    x_test, y_test = xy(model_kind, test_set, layout)

    def objective(assignment: dict[str, float]) -> float:
        config = replace(base_config, **assignment)
        network = build_model(model_kind, seed=config.seed, n_beacons=layout.n_beacons)
        train(network, x_train, y_train, config)
        return evaluate(network, x_test, y_test, layout.cell_feet).mean_error_grid

    return objective


def run_experiment(model_kind: str, dataset: Dataset, space: SearchSpace, config: ExperimentConfig,
                   base_config: TrainConfig | None = None, split_ratio: float = 0.8) -> ExperimentResult:
    """Tune a model's optimizer hyperparameters on a dataset."""
    if base_config is None:
        base_config = TrainConfig(seed=config.seed)
    objective = training_objective(model_kind, dataset, space, base_config,
                                   split_ratio=split_ratio, split_seed=config.seed)
    return run_search(objective, space, config)
