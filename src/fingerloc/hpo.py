"""Black-box hyperparameter search: grid, random, and Bayesian.

The Bayesian path fits an exact Gaussian-process regression (squared
exponential kernel, Cholesky solve) over observations normalized to the
unit cube and picks the candidate maximizing expected improvement under
the minimization convention.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable, Sequence

import numpy as np

from .data import Dataset
from .errors import ConfigError, ExperimentFailedError, GridExhausted, NumericalError
from .models import score
from .nn import OPTIMIZERS, TrainConfig

WARMUP_TRIALS = 3
EI_CANDIDATES = 1024
DEFAULT_LENGTHSCALE = 0.2
_SQRT1_2 = math.sqrt(0.5)


@dataclass(frozen=True)
class SearchSpace:
    params: tuple[tuple[str, float, float], ...]  # (name, lower, upper)

    def __post_init__(self):
        if not self.params:
            raise ConfigError("search space has no parameters")
        names = [p[0] for p in self.params]
        if len(set(names)) != len(names):
            raise ConfigError("duplicate parameter names")
        for name, lo, hi in self.params:
            if not lo < hi:
                raise ConfigError(f"{name}: lower bound {lo} must be < upper {hi}")

    @property
    def names(self) -> list[str]:
        return [p[0] for p in self.params]

    def normalize(self, assignment: dict[str, float]) -> np.ndarray:
        return np.array([(assignment[n] - lo) / (hi - lo) for n, lo, hi in self.params])

    def denormalize(self, u: np.ndarray) -> dict[str, float]:
        return {n: lo + float(v) * (hi - lo) for (n, lo, hi), v in zip(self.params, u)}


@dataclass
class Trial:
    number: int
    assignment: dict[str, float]
    objective: float | None  # None when the trial diverged

    @property
    def status(self) -> str:
        return "diverged" if self.objective is None else "ok"


# ---------------------------------------------------------------------------
# Gaussian-process surrogate

class GpSurrogate:
    """Exact GP regression with a squared-exponential kernel.

    Inputs are expected pre-normalized to the unit cube. The prior mean is
    the observation mean; far from all data the posterior reverts to it
    with variance ``signal_var``. There is one configuration: length-scale
    ``DEFAULT_LENGTHSCALE``, ``signal_var`` the variance of the objectives and
    ``noise_var`` 1e-6 of it. That noise floor keeps the kernel definite, so
    it is factored once.
    """

    def __init__(self, x: np.ndarray, y: np.ndarray):
        x = np.atleast_2d(np.asarray(x, dtype=np.float64))
        y = np.asarray(y, dtype=np.float64).ravel()
        if len(x) != len(y) or len(y) == 0:
            raise ValueError("need >= 1 observation with matching x/y lengths")
        if not np.all(np.isfinite(y)):
            raise ValueError("objectives must be finite")
        with np.errstate(over="ignore"):
            signal_var = float(np.var(y))
        if not math.isfinite(signal_var):
            raise NumericalError("objective variance past the float range")
        self.x = x
        self.lengthscale = DEFAULT_LENGTHSCALE
        # 1.0 when the noise floor, 1e-6 of var(y), is 0 or too small for the kernel to stay definite
        self.signal_var = signal_var if 1e-6 * signal_var >= np.finfo(np.float64).tiny else 1.0
        self.noise_var = 1e-6 * self.signal_var
        self.y_mean = float(np.mean(y))
        try:
            self.chol = np.linalg.cholesky(self._kernel(x, x) + self.noise_var * np.eye(len(x)))
        except np.linalg.LinAlgError:
            raise NumericalError("kernel matrix not positive definite") from None
        self.alpha = np.linalg.solve(self.chol.T, np.linalg.solve(self.chol, y - self.y_mean))

    def _kernel(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        d2 = np.sum((a[:, None, :] - b[None, :, :]) ** 2, axis=-1)
        return self.signal_var * np.exp(-d2 / (2.0 * self.lengthscale ** 2))

    def predict(self, queries: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Posterior mean and variance at each query point."""
        queries = np.atleast_2d(np.asarray(queries, dtype=np.float64))
        k_star = self._kernel(self.x, queries)  # (n, q)
        mean = self.y_mean + k_star.T @ self.alpha
        w = np.linalg.solve(self.chol, k_star)
        var = self.signal_var - np.sum(w * w, axis=0)
        return mean, np.maximum(var, 0.0)


def expected_improvement(mean: np.ndarray, std: np.ndarray, best: float) -> np.ndarray:
    """EI for minimization: (best - mu) Phi(z) + sigma phi(z), z = (best - mu)/sigma."""
    mean = np.asarray(mean, dtype=np.float64)
    std = np.asarray(std, dtype=np.float64)
    improve = best - mean
    ei = np.where(std > 0.0, 0.0, np.maximum(improve, 0.0))
    pos = std > 0.0
    if np.any(pos):
        z = improve[pos] / std[pos]
        cdf = np.array([0.5 * math.erfc(-v * _SQRT1_2) for v in z.tolist()])  # Phi(z), libm's erfc per candidate
        pdf = np.exp(-z**2 / 2.0) / np.sqrt(2 * np.pi)
        ei[pos] = np.maximum(improve[pos] * cdf + std[pos] * pdf, 0.0)
    return ei


# ---------------------------------------------------------------------------
# suggestion strategies

def _linspace_at(lo: float, hi: float, num: int, j: int) -> float:
    """``np.linspace(lo, hi, num)[j]`` bit for bit, for ``num`` >= 2, by linspace's own arithmetic."""
    lo, hi = float(lo), float(hi)
    if j == num - 1:
        return hi
    step = (hi - lo) / (num - 1)
    return float(j) * step + lo if step != 0 else float(j) / (num - 1) * (hi - lo) + lo  # an underflowing step


class Suggester:
    """Produces the next parameter assignment given the trial history."""

    def __init__(self, space: SearchSpace, config: ExperimentConfig):
        self.algorithm = config.algorithm
        self.space = space
        self.rng = np.random.Generator(np.random.PCG64(config.seed))
        if self.algorithm == "grid":  # res points per axis make at least max_trials lattice points
            self._res = max(1, math.ceil(config.max_trials ** (1.0 / len(space.params))))

    def _grid_point(self, index: int) -> dict[str, float]:
        """Point ``index`` of itertools.product over the axes, each ``np.linspace(lo, hi, res)``
        (the midpoint when res is 1), computed without building an axis."""
        point = {}
        for name, lo, hi in reversed(self.space.params):  # the last axis varies fastest
            index, j = divmod(index, self._res)
            point[name] = (lo + hi) / 2.0 if self._res == 1 else _linspace_at(lo, hi, self._res, j)
        if index:
            raise GridExhausted("grid lattice exhausted")
        return {name: point[name] for name in self.space.names}

    def _random_assignment(self) -> dict[str, float]:
        return {n: float(self.rng.uniform(lo, hi)) for n, lo, hi in self.space.params}

    def suggest(self, history: Sequence[Trial]) -> dict[str, float]:
        """The next assignment after the trials in ``history``: for a grid, lattice point ``len(history)``."""
        if self.algorithm == "grid":
            return self._grid_point(len(history))
        if self.algorithm == "random":
            return self._random_assignment()
        observed = [t for t in history if t.objective is not None]  # bayesian, on the trials that did not diverge
        if len(observed) < WARMUP_TRIALS:
            return self._random_assignment()
        x = np.stack([self.space.normalize(t.assignment) for t in observed])
        y = np.array([t.objective for t in observed])
        candidates = self.rng.uniform(0.0, 1.0, size=(EI_CANDIDATES, len(self.space.params)))
        mean, var = GpSurrogate(x, y).predict(candidates)
        ei = expected_improvement(mean, np.sqrt(var), float(y.min()))
        return self.space.denormalize(candidates[int(np.argmax(ei))])


@dataclass
class ExperimentConfig:
    algorithm: str = "bayesian"
    max_trials: int = 15
    goal: float = 1.2  # objective (grid units) at which the search stops early
    seed: int = 0

    def __post_init__(self):
        if self.algorithm not in ("grid", "random", "bayesian"):
            raise ConfigError(f"unknown algorithm {self.algorithm!r}")
        if self.max_trials < 1:
            raise ConfigError("max trials must be >= 1")
        if not self.goal > 0:
            raise ConfigError(f"goal must be positive, got {self.goal}")
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")


@dataclass
class ExperimentResult:
    best: Trial
    trials: list[Trial]


def run_search(objective: Callable[[dict[str, float]], float], space: SearchSpace,
               config: ExperimentConfig) -> ExperimentResult:
    """Sequential suggest -> evaluate loop against an arbitrary objective.

    The objective may raise NumericalError (DivergedError included) or return a
    value that is not finite; such a trial diverged and is recorded with no
    objective value.
    """
    suggester = Suggester(space, config)
    trials: list[Trial] = []
    for number in range(1, config.max_trials + 1):
        assignment = suggester.suggest(trials)  # a grid lattice has at least max_trials points
        try:
            value = float(objective(assignment))
        except NumericalError:
            value = math.nan
        trials.append(Trial(number=number, assignment=assignment, objective=value if math.isfinite(value) else None))
        if trials[-1].objective is not None and value <= config.goal:
            break
    ok = [t for t in trials if t.objective is not None]
    if not ok:
        raise ExperimentFailedError("all trials diverged")
    best = min(ok, key=lambda t: t.objective)
    return ExperimentResult(best=best, trials=trials)


# the search space of each optimizer in nn.OPTIMIZERS when a spec names none
DEFAULT_SPACES = {"adam": SearchSpace((("learning_rate", 0.001, 0.002), ("beta1", 0.88, 0.93))),
                  # SGD ranges bracket typical tuned values; not prescribed anywhere upstream
                  "sgd": SearchSpace((("learning_rate", 0.005, 0.02), ("momentum", 0.85, 0.95)))}


def check_bindable(space: SearchSpace, base_config: TrainConfig) -> None:
    """Raise ConfigError unless ``base_config``'s optimizer reads each parameter and ``base_config`` takes
    both its bounds."""
    unread = set(space.names) - set(OPTIMIZERS[base_config.optimizer])
    if unread:
        raise ConfigError(f"search space names that the {base_config.optimizer} optimizer does not read: "
                          f"{sorted(unread)}")
    for name, lo, hi in space.params:
        replace(base_config, **{name: lo})  # each field's valid values form an interval
        replace(base_config, **{name: hi})


def training_objective(model_kind: str, dataset: Dataset, space: SearchSpace,
                       base_config: TrainConfig) -> Callable[[dict[str, float]], float]:
    """Objective: ``models.score``'s mean test error in grid units at ``base_config`` with the trial's
    assignment, so ``base_config.seed`` decides every trial's split and initialisation."""
    check_bindable(space, base_config)
    return lambda assignment: score(model_kind, dataset.labelled, dataset.layout,
                                    replace(base_config, **assignment)).mean_error_grid
